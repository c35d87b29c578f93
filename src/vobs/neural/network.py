"""Recurrent regression network: stacked LSTM or GRU cells over a sensor
window, optionally concatenated with the previous state estimate, followed
by a sigmoid dense head.

The forward contract: the cell stack runs over all window steps (layer k's
full hidden sequence feeds layer k+1), the final step's hidden vector of the
last layer is concatenated with the previous state (when the network has a
state input) and pushed through the dense head. Its sigmoid output keeps
every prediction in (0, 1), matching the scaled target space. Windows come
in batch-major, (B, T, in); one copy turns them into the cell stack's
feature-major (T, in, B), and the dense head works on (B, features) rows.

A network computes in the dtype of its weights. Training and evaluation run a
`COMPUTE_DTYPE` copy made with `RecurrentRegressor.astype`; the float64
network stays the master that the optimizer updates and the weight file
stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NumericalError
from .layers import Dense, GruLayer, LstmLayer

# float32 halves the bytes the window stack moves and about halves its time;
# over a 50-step window of the observer stacks the final features differ from
# float64 by under 1e-7
COMPUTE_DTYPE = np.float32
# each cell kind and its layer; a network's tensor names start with its kind
CELLS = {"lstm": LstmLayer, "gru": GruLayer}


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters for one training run."""

    epochs: int = 50
    batch_size: int = 256
    learning_rate: float = 1e-3
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


class RecurrentRegressor:
    """Cell stack plus dense head; `state_dim`, the inputs the head takes
    beyond the last hidden width, are the previous state (0: no state input)."""

    def __init__(self, kind: str, cells: list, head: list[Dense]):
        if kind not in CELLS:
            raise ConfigError(f"unknown cell kind '{kind}'")
        if not cells or not head:
            raise ConfigError("network needs at least one cell and one dense layer")
        state_dim = head[0].in_dim - cells[-1].hidden
        if state_dim < 0:
            raise ConfigError(f"dense head takes {head[0].in_dim} inputs, fewer than "
                              f"the {cells[-1].hidden} of the last hidden layer")
        for a, b in zip(cells[:-1], cells[1:]):
            if b.in_dim != a.hidden:
                raise ConfigError("cell stack dimensions do not chain")
        for a, b in zip(head[:-1], head[1:]):
            if b.in_dim != a.out_dim:
                raise ConfigError("dense head dimensions do not chain")
        self.kind = kind
        self.cells = cells
        self.head = head
        self.state_dim = state_dim

    def params(self) -> list[tuple[str, np.ndarray]]:
        """Flat, ordered (name, array) view of every trainable tensor."""
        out = []
        for k, cell in enumerate(self.cells):
            out.append((f"{self.kind}{k}.wx", cell.wx))
            out.append((f"{self.kind}{k}.wh", cell.wh))
            out.append((f"{self.kind}{k}.b", cell.b))
        for k, dense in enumerate(self.head):
            out.append((f"dense{k}.w", dense.w))
            out.append((f"dense{k}.b", dense.b))
        return out

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every weight and of all forward/backward math."""
        return self.cells[0].wx.dtype

    def astype(self, dtype) -> "RecurrentRegressor":
        """A copy of the network with every weight cast to `dtype`."""
        cells = [type(c)(c.wx.astype(dtype), c.wh.astype(dtype), c.b.astype(dtype))
                 for c in self.cells]
        head = [Dense(d.w.astype(dtype), d.b.astype(dtype)) for d in self.head]
        return RecurrentRegressor(self.kind, cells, head)

    def copy_weights(self) -> list[np.ndarray]:
        return [arr.copy() for _, arr in self.params()]

    def load_flat(self, arrays: list[np.ndarray]) -> None:
        own = self.params()
        if len(arrays) != len(own):
            raise ConfigError("parameter count mismatch")
        for (_, dst), src in zip(own, arrays):
            if dst.shape != src.shape:
                raise ConfigError(f"parameter shape mismatch {dst.shape} vs {src.shape}")
            dst[...] = src

    # -- forward / backward -------------------------------------------------

    def _check_finite(self, h_seq: np.ndarray, layer_idx: int) -> None:
        if not np.isfinite(h_seq).all():
            bad = np.argwhere(~np.isfinite(h_seq))
            step = int(bad[0][0])
            raise NumericalError(
                f"non-finite activation in {self.kind} layer {layer_idx} at step {step}")

    def _time_major(self, windows: np.ndarray) -> np.ndarray:
        """(B, T, in) windows as one contiguous (T, in, B) sequence, cast to
        the network's dtype in the same copy."""
        seq = np.asarray(windows)
        if seq.ndim == 2:
            seq = seq[None]
        return np.ascontiguousarray(seq.transpose(1, 2, 0), dtype=self.dtype)

    def features(self, windows: np.ndarray) -> np.ndarray:
        """Final-step hidden vector of the last cell layer, (B, h_last).

        Runs the layers' sequence loops without BPTT caches: each layer
        keeps only its hidden sequence, bit-identical to the training pass's.
        A non-finite value in it is a `NumericalError` naming layer and step.
        """
        seq = self._time_major(windows)
        for k, cell in enumerate(self.cells):
            seq, _ = cell.forward_seq(seq, keep_cache=False)
            self._check_finite(seq, k)
        return np.ascontiguousarray(seq[-1].T)

    def head_forward(self, feats: np.ndarray, prev_state: np.ndarray | None) -> np.ndarray:
        u = np.asarray(feats, dtype=self.dtype)
        if self.state_dim:
            prev = np.asarray(prev_state, dtype=self.dtype)
            if prev.ndim == 1:
                prev = prev[None]
            u = np.concatenate([u, prev], axis=1)
        elif prev_state is not None:
            raise ConfigError("this network has no state input")
        for dense in self.head:
            u, _ = dense.forward(u)
        if not np.isfinite(u).all():
            raise NumericalError("non-finite value in dense head output")
        return u

    def forward(self, windows: np.ndarray,
                prev_state: np.ndarray | None = None) -> np.ndarray:
        """Full pass window(s) -> (B, out_dim) predictions in scaled space."""
        return self.head_forward(self.features(windows), prev_state)

    def loss_and_gradients(self, windows, prev_state, targets):
        """L2 loss plus exact gradients for every parameter, via BPTT.

        Returns (loss, grads) with grads ordered exactly like params().
        """
        seq = self._time_major(windows)
        targets = np.atleast_2d(np.asarray(targets, dtype=self.dtype))

        cell_caches = []
        for cell in self.cells:
            seq, cache = cell.forward_seq(seq)
            cell_caches.append(cache)
        feats = seq[-1].T

        if self.state_dim:
            prev = np.atleast_2d(np.asarray(prev_state, dtype=self.dtype))
            u = np.concatenate([feats, prev], axis=1)
        else:
            u = feats
        head_caches = []
        for dense in self.head:
            u, cache = dense.forward(u)
            head_caches.append(cache)
        pred = u

        loss = l2_loss(pred, targets)
        du = 2.0 * (pred - targets) / pred.size

        head_grads = []
        for dense, cache in zip(reversed(self.head), reversed(head_caches)):
            du, g = dense.backward(du, cache)
            head_grads.append(g)
        head_grads.reverse()

        dfeat = du[:, : feats.shape[1]] if self.state_dim else du

        cell_grads = []
        dh_seq = None
        for k in range(len(self.cells) - 1, -1, -1):
            cache = cell_caches[k]
            hs = cache[-1]
            if dh_seq is None:
                dh_seq = np.zeros_like(hs)
                dh_seq[-1] = dfeat.T
            dx, g = self.cells[k].backward_seq(dh_seq, cache)
            cell_grads.append(g)
            dh_seq = dx
        cell_grads.reverse()

        grads: list[np.ndarray] = []
        for g in cell_grads:
            grads.extend((g["wx"], g["wh"], g["b"]))
        for g in head_grads:
            grads.extend((g["w"], g["b"]))
        return loss, grads


def l2_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over batch and channels of squared error, reduced in float64."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ConfigError(f"loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def build_net(kind: str, seed: int, in_dim: int, hidden: tuple, dense: tuple,
              out_dim: int, state_dim: int) -> RecurrentRegressor:
    """A freshly initialized `kind` (a key of `CELLS`) cell stack of widths
    `hidden` over `in_dim` inputs, then sigmoid dense layers of widths
    `dense` and `out_dim` over the last hidden vector and `state_dim` state
    inputs.

    `observer_lstm.observer_net` builds both observer nets through it.
    Weights are drawn from one generator seeded by `seed`, layer by layer,
    cells first.
    """
    cell_cls = CELLS[kind]
    rng = np.random.default_rng(seed)
    cells = []
    d = in_dim
    for h in hidden:
        cells.append(cell_cls.initialize(d, h, rng))
        d = h
    head = []
    d = hidden[-1] + state_dim
    for width in (*dense, out_dim):
        head.append(Dense.initialize(d, width, rng))
        d = width
    return RecurrentRegressor(kind, cells, head)

