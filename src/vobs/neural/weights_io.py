"""Versioned serialization of network weights (format version 2).

Layout: ASCII header lines, then a raw binary payload.

    vobs-weights 2
    kind <lstm|gru>
    init_seed <int>
    in_dim <int>
    state_dim <int>
    hidden <width...>
    dense <width...>
    output_activation <name>
    array <name> <dims...>          one line per tensor, in `params()` order
    payload <nbytes> <sha256-hex>
    <payload: every tensor's little-endian float64 bytes, row-major, concatenated>

Recurrent tensors keep the documented gate-block row order. The payload is
the float64 master's exact bytes, so the round trip is bit-exact. Its length
and SHA-256 are checked before any tensor is built: a truncated or damaged
payload would otherwise still decode as finite floats and load as a network
that quietly predicts garbage.

Files are written to a temporary file in the same directory and moved into
place with `os.replace`, so an interrupted save leaves the previous file
intact. Version 1 files (one text line of repr floats per tensor) are not
read; `vobs train` rewrites them.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from ..errors import DataFormatError
from .layers import Dense, GruLayer, LstmLayer
from .network import RecurrentRegressor

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
        f"output_activation {net.head[-1].activation}",
    ]
    lines += [f"array {name} {' '.join(str(d) for d in arr.shape)}" for name, arr in params]
    lines.append(f"payload {len(payload)} {hashlib.sha256(payload).hexdigest()}")
    head = ("\n".join(lines) + "\n").encode("ascii")

    tmp = os.path.join(os.path.dirname(path) or ".",
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
    except (KeyError, ValueError) as exc:
        raise WeightsCorruptionError(f"{path}: bad header ({exc})") from None
    if kind not in ("lstm", "gru"):
        raise WeightsShapeError(f"{path}: unknown cell kind '{kind}'")

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

    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in arrays_declared:
        count = int(np.prod(shape))
        arrays[name] = np.frombuffer(payload, dtype=_F8, count=count,
                                     offset=offset).reshape(shape).astype(np.float64)
        offset += count * _F8.itemsize

    # assemble and validate against the declared architecture
    gate_mult = 4 if kind == "lstm" else 3
    cell_cls = LstmLayer if kind == "lstm" else GruLayer
    cells = []
    d = in_dim
    try:
        for k, h in enumerate(hidden):
            wx = arrays[f"{kind}{k}.wx"]
            wh = arrays[f"{kind}{k}.wh"]
            b = arrays[f"{kind}{k}.b"]
            if wx.shape != (gate_mult * h, d) or wh.shape != (gate_mult * h, h):
                raise WeightsShapeError(
                    f"{path}: layer {kind}{k} tensors do not match declared sizes")
            cells.append(cell_cls(wx, wh, b))
            d = h
        head = []
        d = hidden[-1] + state_dim
        widths = list(dense)
        for k, width in enumerate(widths):
            w = arrays[f"dense{k}.w"]
            b = arrays[f"dense{k}.b"]
            if w.shape != (width, d):
                raise WeightsShapeError(
                    f"{path}: dense{k} is {w.shape}, expected {(width, d)}")
            activation = output_activation if k == len(widths) - 1 else "sigmoid"
            head.append(Dense(w, b, activation=activation))
            d = width
    except KeyError as exc:
        raise WeightsCorruptionError(f"{path}: missing tensor {exc}") from None
    except ValueError as exc:
        raise WeightsShapeError(f"{path}: {exc}") from None

    extra = set(arrays) - {name for name, _ in _expected_names(kind, len(hidden), len(widths))}
    if extra:
        raise WeightsShapeError(f"{path}: unexpected tensors {sorted(extra)}")
    return RecurrentRegressor(kind, cells, head, state_dim, init_seed=init_seed)


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


def _expected_names(kind: str, n_cells: int, n_dense: int):
    for k in range(n_cells):
        yield f"{kind}{k}.wx", None
        yield f"{kind}{k}.wh", None
        yield f"{kind}{k}.b", None
    for k in range(n_dense):
        yield f"dense{k}.w", None
        yield f"dense{k}.b", None
