"""Versioned text serialization of network weights.

Layout: a header of `key value` lines describing the architecture, then one
`array <name> <dims...>` line per tensor followed by its flattened values on
a single line (row-major; recurrent tensors keep the documented gate-block
row order), closed by an `end` sentinel. Floats are written with repr so the
round trip is bit-exact.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataFormatError
from .layers import Dense, GruLayer, LstmLayer
from .network import RecurrentRegressor

FORMAT_VERSION = 1


class WeightsVersionError(DataFormatError):
    """File declares a format version this build cannot read."""


class WeightsShapeError(DataFormatError):
    """Declared architecture and stored tensors disagree."""


class WeightsCorruptionError(DataFormatError):
    """Truncated or otherwise unparseable weight file."""


def save_weights(net: RecurrentRegressor, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"vobs-weights {net.format_version}\n")
        fh.write(f"kind {net.kind}\n")
        fh.write(f"init_seed {net.init_seed}\n")
        fh.write(f"in_dim {net.in_dim}\n")
        fh.write(f"state_dim {net.state_dim}\n")
        fh.write(f"hidden {' '.join(str(h) for h in net.hidden_sizes)}\n")
        fh.write(f"dense {' '.join(str(d) for d in net.dense_sizes)}\n")
        fh.write(f"output_activation {net.head[-1].activation}\n")
        for name, arr in net.params():
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"array {name} {dims}\n")
            fh.write(" ".join(repr(float(v)) for v in arr.ravel()) + "\n")
        fh.write("end\n")


def load_weights(path) -> RecurrentRegressor:
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if not lines or not lines[0].startswith("vobs-weights"):
        raise WeightsCorruptionError(f"{path}: not a weight file")
    try:
        version = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise WeightsCorruptionError(f"{path}: unreadable version line") from None
    if version != FORMAT_VERSION:
        raise WeightsVersionError(
            f"{path}: format version {version} not supported (expected {FORMAT_VERSION})")

    it = iter(lines[1:])
    header = {}
    pending = None
    for raw in it:
        if raw.startswith("array ") or raw == "end":
            pending = raw
            break
        key, _, value = raw.partition(" ")
        header[key] = value
    try:
        kind = header["kind"]
        init_seed = int(header["init_seed"])
        in_dim = int(header["in_dim"])
        state_dim = int(header["state_dim"])
        hidden = tuple(int(v) for v in header["hidden"].split())
        dense = tuple(int(v) for v in header["dense"].split())
        output_activation = header["output_activation"]
    except (KeyError, ValueError) as exc:
        raise WeightsCorruptionError(f"{path}: bad header ({exc})") from None
    if kind not in ("lstm", "gru"):
        raise WeightsShapeError(f"{path}: unknown cell kind '{kind}'")

    arrays: dict[str, np.ndarray] = {}
    raw = pending
    while raw is not None:
        if raw == "end":
            break
        if not raw.startswith("array "):
            raise WeightsCorruptionError(f"{path}: unexpected line {raw[:40]!r}")
        parts = raw.split()
        name = parts[1]
        try:
            shape = tuple(int(v) for v in parts[2:])
            values_line = next(it)
        except (ValueError, StopIteration):
            raise WeightsCorruptionError(f"{path}: truncated array '{name}'") from None
        try:
            values = np.array(values_line.split(), dtype=np.float64)
        except ValueError:
            raise WeightsCorruptionError(
                f"{path}: array '{name}' contains non-numeric data") from None
        expected = int(np.prod(shape)) if shape else 0
        if values.size != expected:
            raise WeightsCorruptionError(
                f"{path}: array '{name}' has {values.size} values, expected {expected}")
        arrays[name] = values.reshape(shape)
        raw = next(it, None)
    else:
        raise WeightsCorruptionError(f"{path}: missing end marker")

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
    return RecurrentRegressor(kind, cells, head, state_dim,
                              init_seed=init_seed, format_version=version)


def _expected_names(kind: str, n_cells: int, n_dense: int):
    for k in range(n_cells):
        yield f"{kind}{k}.wx", None
        yield f"{kind}{k}.wh", None
        yield f"{kind}{k}.b", None
    for k in range(n_dense):
        yield f"dense{k}.w", None
        yield f"dense{k}.b", None
