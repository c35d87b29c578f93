"""Versioned serialization of network weights (format version 3).

Layout: ASCII header lines, then a raw binary payload.

    vobs-weights 3
    array <name> <dims...>          one line per tensor, in `params()` order
    payload <nbytes> <sha256-hex>
    <payload: every tensor's little-endian float64 bytes, row-major, concatenated>

The array lines are the architecture. The name prefix of the recurrent
tensors (`lstm0.wx`, `gru0.wx`) gives the cell kind, the shapes give every
width, and the state input is what the first dense layer takes beyond the
last hidden width. Recurrent tensors keep the documented gate-block row
order. The payload is the float64 master's exact bytes, so the round trip is
bit-exact. Its length and SHA-256 are checked before any tensor is read: a
truncated or damaged payload would otherwise still decode as finite floats
and load as a network that quietly predicts garbage. Loading builds the
network straight from the stored tensors, whose layer constructors check
every shape, and requires its `params()` to reproduce the array lines'
names and shapes, in order.

Files are written atomically (`artifacts.write_file`). Versions 1 and 2,
which restated the architecture in header lines of their own, are not read;
`vobs train` rewrites them.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from ..artifacts import write_file
from ..errors import ConfigError, DataFormatError
from .layers import Dense
from .network import CELLS, RecurrentRegressor

FORMAT_VERSION = 3
MAGIC = b"vobs-weights"
_F8 = np.dtype("<f8")


class WeightsVersionError(DataFormatError):
    """File declares a format version this build cannot read."""


class WeightsShapeError(DataFormatError):
    """The stored tensors do not form a network."""


class WeightsCorruptionError(DataFormatError):
    """Truncated or otherwise unparseable weight file."""


def save_weights(net: RecurrentRegressor, path) -> None:
    params = net.params()
    payload = b"".join(arr.astype(_F8, copy=False).tobytes() for _, arr in params)
    lines = [f"{MAGIC.decode()} {FORMAT_VERSION}"]
    lines += [f"array {name} {' '.join(str(d) for d in arr.shape)}" for name, arr in params]
    lines.append(f"payload {len(payload)} {hashlib.sha256(payload).hexdigest()}")
    head = ("\n".join(lines) + "\n").encode("ascii")

    write_file(path, (head, payload))


def load_weights(path) -> RecurrentRegressor:
    try:
        with open(path, "rb") as fh:
            # one writable buffer: the loaded tensors are views of its payload
            data = bytearray(os.fstat(fh.fileno()).st_size)
            fh.readinto(data)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    end = data.find(b"\n")
    first = data[:end] if end >= 0 else data  # no "\n": all of it is the first line
    magic, _, version_text = first.partition(b" ")
    if magic != MAGIC:
        raise WeightsCorruptionError(f"{path}: not a weight file")
    try:
        version = int(version_text)
    except ValueError:
        raise WeightsCorruptionError(f"{path}: unreadable version line") from None
    if version != FORMAT_VERSION:
        raise WeightsVersionError(
            f"{path}: weight format version {version} is not supported (this build "
            f"reads version {FORMAT_VERSION}); re-run 'vobs train' to rewrite it")
    arrays_declared, payload_line, payload_at = _read_header(path, data, len(first) + 1)
    try:
        nbytes_text, digest = payload_line.split()
        nbytes = int(nbytes_text)
    except ValueError:
        raise WeightsCorruptionError(f"{path}: bad payload line {payload_line[:80]!r}") from None

    declared = sum(math.prod(shape) for _, shape in arrays_declared) * _F8.itemsize
    if declared != nbytes:
        raise WeightsCorruptionError(
            f"{path}: array lines declare {declared} payload bytes, header says {nbytes}")
    if len(data) - payload_at != nbytes:
        raise WeightsCorruptionError(
            f"{path}: payload is {len(data) - payload_at} bytes, expected {nbytes}")
    payload = memoryview(data)[payload_at:]
    if hashlib.sha256(payload).hexdigest() != digest:
        raise WeightsCorruptionError(f"{path}: payload does not match its SHA-256")

    tensors = {}
    offset = 0
    for name, shape in arrays_declared:
        count = math.prod(shape)
        tensors[name] = np.frombuffer(payload, dtype=_F8, count=count,
                                      offset=offset).reshape(shape)
        offset += count * _F8.itemsize
    try:
        net = _net_of(tensors)
    except (KeyError, ValueError, ConfigError) as exc:
        raise WeightsShapeError(f"{path}: array lines do not form a network ({exc})") from None
    if [(name, arr.shape) for name, arr in net.params()] != arrays_declared:
        raise WeightsShapeError(
            f"{path}: array lines are not the tensors of the {net.kind} network "
            f"they describe, in order")
    return net


def _net_of(tensors: dict) -> RecurrentRegressor:
    """The network built from `tensors`, keyed by their `params()` names;
    the first name's prefix gives the cell kind."""
    kind = next(iter(tensors), "").partition(".")[0].rstrip("0123456789")
    if kind not in CELLS:
        raise ValueError(f"unknown cell kind '{kind}'")
    cells = []
    while f"{kind}{len(cells)}.wx" in tensors:
        key = f"{kind}{len(cells)}"
        cells.append(CELLS[kind](tensors[f"{key}.wx"], tensors[f"{key}.wh"],
                                 tensors[f"{key}.b"]))
    head = []
    while f"dense{len(head)}.w" in tensors:
        head.append(Dense(tensors[f"dense{len(head)}.w"], tensors[f"dense{len(head)}.b"]))
    state_dim = head[0].in_dim - cells[-1].hidden if cells and head else 0
    return RecurrentRegressor(kind, cells, head, state_dim)


def _read_header(path, data: bytearray, pos: int):
    """(declared (name, shape) arrays, the `payload` line's value, payload
    offset) of the header lines from offset `pos` on.

    The header ends at the `payload` line; the bytes after it are binary."""
    arrays: list[tuple[str, tuple]] = []
    while True:
        end = data.find(b"\n", pos)
        if end < 0:
            raise WeightsCorruptionError(f"{path}: header ends before the payload line")
        try:
            line = data[pos:end].decode("ascii")
        except UnicodeDecodeError:
            raise WeightsCorruptionError(f"{path}: binary data in the header") from None
        pos = end + 1
        key, _, value = line.partition(" ")
        if key == "payload":
            return arrays, value, pos
        name, _, dims = value.partition(" ")
        try:
            shape = tuple(int(v) for v in dims.split())
        except ValueError:
            shape = None
        if key != "array" or not name or shape is None or any(n < 0 for n in shape):
            raise WeightsCorruptionError(f"{path}: bad header line {line[:60]!r}")
        arrays.append((name, shape))
