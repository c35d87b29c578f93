"""Versioned serialization of network weights (format version 2).

Layout: ASCII header lines, then a raw binary payload.

    vobs-weights 2
    kind <lstm|gru>
    init_seed <int>
    in_dim <int>
    state_dim <int>
    hidden <width...>
    dense <width...>                the dense head's widths, output layer last
    output_activation sigmoid
    array <name> <dims...>          one line per tensor, in `params()` order
    payload <nbytes> <sha256-hex>
    <payload: every tensor's little-endian float64 bytes, row-major, concatenated>

Recurrent tensors keep the documented gate-block row order. The payload is
the float64 master's exact bytes, so the round trip is bit-exact. Its length
and SHA-256 are checked before any tensor is read: a truncated or damaged
payload would otherwise still decode as finite floats and load as a network
that quietly predicts garbage. Loading builds the declared architecture with
`build_net` and requires the array lines to name exactly its tensors, in
order and shape; the payload then fills them.

Files are written atomically (`artifacts.write_file`). Version 1 files (one
text line of repr floats per tensor) are not read; `vobs train` rewrites them.
"""

from __future__ import annotations

import hashlib
from itertools import zip_longest

import numpy as np

from ..artifacts import write_file
from ..errors import DataFormatError
from .network import RecurrentRegressor, build_net

FORMAT_VERSION = 2
MAGIC = b"vobs-weights"
_F8 = np.dtype("<f8")


class WeightsVersionError(DataFormatError):
    """File declares a format version this build cannot read."""


class WeightsShapeError(DataFormatError):
    """Declared architecture and stored tensors disagree."""


class WeightsCorruptionError(DataFormatError):
    """Truncated or otherwise unparseable weight file."""


def save_weights(net: RecurrentRegressor, path) -> None:
    params = net.params()
    payload = b"".join(arr.astype(_F8, copy=False).tobytes() for _, arr in params)
    lines = [
        f"{MAGIC.decode()} {FORMAT_VERSION}",
        f"kind {net.kind}",
        f"init_seed {net.init_seed}",
        f"in_dim {net.in_dim}",
        f"state_dim {net.state_dim}",
        f"hidden {' '.join(str(h) for h in net.hidden_sizes)}",
        f"dense {' '.join(str(d) for d in net.dense_sizes)}",
        "output_activation sigmoid",
    ]
    lines += [f"array {name} {' '.join(str(d) for d in arr.shape)}" for name, arr in params]
    lines.append(f"payload {len(payload)} {hashlib.sha256(payload).hexdigest()}")
    head = ("\n".join(lines) + "\n").encode("ascii")

    write_file(path, (head, payload))


def load_weights(path) -> RecurrentRegressor:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    first = data[:data.find(b"\n")]
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
    header, arrays_declared, payload_at = _read_header(path, data, len(first) + 1)
    try:
        kind = header["kind"]
        init_seed = int(header["init_seed"])
        in_dim = int(header["in_dim"])
        state_dim = int(header["state_dim"])
        hidden = tuple(int(v) for v in header["hidden"].split())
        dense = tuple(int(v) for v in header["dense"].split())
        output_activation = header["output_activation"]
        nbytes_text, digest = header["payload"].split()
        nbytes = int(nbytes_text)
        if init_seed < 0:
            raise ValueError(f"negative init_seed {init_seed}")
    except (KeyError, ValueError) as exc:
        raise WeightsCorruptionError(f"{path}: bad header ({exc})") from None
    if kind not in ("lstm", "gru"):
        raise WeightsShapeError(f"{path}: unknown cell kind '{kind}'")
    if output_activation != "sigmoid":
        raise WeightsShapeError(
            f"{path}: output_activation '{output_activation}' is not supported "
            f"(the dense head is sigmoid throughout)")
    # every size of a real network is a dimension of one of its stored
    # tensors; the bound keeps a damaged size from building a huge network
    largest = max((n for _, shape in arrays_declared for n in shape), default=0)
    sizes = (in_dim, *hidden, *dense)
    if not hidden or not dense or min(sizes) < 1 or max(sizes) > largest \
            or not 0 <= state_dim <= largest:
        raise WeightsShapeError(
            f"{path}: declared sizes do not describe a network (in_dim {in_dim}, "
            f"state_dim {state_dim}, hidden {list(hidden)}, dense {list(dense)})")

    declared = sum(int(np.prod(shape)) for _, shape in arrays_declared) * _F8.itemsize
    if declared != nbytes:
        raise WeightsCorruptionError(
            f"{path}: array lines declare {declared} payload bytes, header says {nbytes}")
    if len(data) - payload_at != nbytes:
        raise WeightsCorruptionError(
            f"{path}: payload is {len(data) - payload_at} bytes, expected {nbytes}")
    payload = memoryview(data)[payload_at:]
    if hashlib.sha256(payload).hexdigest() != digest:
        raise WeightsCorruptionError(f"{path}: payload does not match its SHA-256")

    net = build_net(kind, init_seed, in_dim, hidden, dense[:-1], dense[-1], state_dim)
    expected = [(name, arr.shape) for name, arr in net.params()]
    if arrays_declared != expected:
        found, needed = next((a, b) for a, b in zip_longest(arrays_declared, expected)
                             if a != b)
        raise WeightsShapeError(
            f"{path}: array lines do not match the declared architecture "
            f"(found {found}, expected {needed})")
    arrays = []
    offset = 0
    for _, shape in arrays_declared:
        count = int(np.prod(shape))
        arrays.append(np.frombuffer(payload, dtype=_F8, count=count,
                                    offset=offset).reshape(shape))
        offset += count * _F8.itemsize
    net.load_flat(arrays)
    return net


def _read_header(path, data: bytes, pos: int):
    """(`key value` mapping, declared (name, shape) arrays, payload offset)
    of the header lines from offset `pos` on.

    The header ends at the `payload` line; the bytes after it are binary."""
    header: dict[str, str] = {}
    arrays: list[tuple[str, tuple]] = []
    while "payload" not in header:
        end = data.find(b"\n", pos)
        if end < 0:
            raise WeightsCorruptionError(f"{path}: header ends before the payload line")
        try:
            line = data[pos:end].decode("ascii")
        except UnicodeDecodeError:
            raise WeightsCorruptionError(f"{path}: binary data in the header") from None
        pos = end + 1
        key, _, value = line.partition(" ")
        if key != "array":
            header[key] = value
            continue
        name, _, dims = value.partition(" ")
        try:
            shape = tuple(int(v) for v in dims.split())
        except ValueError:
            shape = None
        if not name or shape is None or any(n < 0 for n in shape) \
                or name in {n for n, _ in arrays}:
            raise WeightsCorruptionError(f"{path}: bad array line {line[:60]!r}")
        arrays.append((name, shape))
    return header, arrays, pos
