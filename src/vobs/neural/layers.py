"""Dense, LSTM, and GRU layers with exact analytic gradients.

Each layer computes in the dtype of its weights, float32 or float64: every
sequence buffer, state and gradient takes that dtype. Training and evaluation
run float32 copies; the float64 master weights, the weight file and the
gradient check stay float64. Sequence tensors are handled time-major
internally — (time, batch, channels) — so each step touches contiguous
memory; the network boundary transposes once per call. Gate blocks are
stored stacked along the output axis in a fixed, documented order — LSTM:
input | forget | candidate | output; GRU: update | reset | candidate. The
per-step cell functions share their math with the sequence loops, so the
cell-level contract and the training path cannot drift apart.
"""

from __future__ import annotations

import math

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflow for very negative inputs saturates to exactly 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _sigmoid_inplace(x: np.ndarray) -> None:
    with np.errstate(over="ignore"):
        np.negative(x, out=x)
        np.exp(x, out=x)
        x += 1.0
        np.reciprocal(x, out=x)


def _as_weights(*arrays: np.ndarray) -> list[np.ndarray]:
    """Contiguous weight arrays sharing one dtype: float32 when the first
    array is float32, float64 otherwise."""
    dtype = np.float32 if np.asarray(arrays[0]).dtype == np.float32 else np.float64
    return [np.ascontiguousarray(a, dtype=dtype) for a in arrays]


def _uniform_fan_in(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


class Dense:
    """Fully connected layer y = act(W x + b), act in {sigmoid, identity}."""

    def __init__(self, w: np.ndarray, b: np.ndarray, activation: str = "sigmoid"):
        w, b = _as_weights(w, b)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError(f"dense shape mismatch: w {w.shape}, b {b.shape}")
        if activation not in ("sigmoid", "identity"):
            raise ValueError(f"unknown activation '{activation}'")
        self.w = w
        self.b = b
        self.activation = activation

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    @classmethod
    def initialize(cls, in_dim: int, out_dim: int, rng: np.random.Generator,
                   activation: str = "sigmoid") -> "Dense":
        w = _uniform_fan_in(rng, (out_dim, in_dim), in_dim)
        return cls(w, np.zeros(out_dim), activation)

    def forward(self, x: np.ndarray):
        y = x @ self.w.T + self.b
        if self.activation == "sigmoid":
            _sigmoid_inplace(y)
        return y, (x, y)

    def backward(self, dy: np.ndarray, cache):
        x, y = cache
        dz = dy * (y * (1.0 - y)) if self.activation == "sigmoid" else dy
        grads = {"w": dz.T @ x, "b": dz.sum(axis=0)}
        return dz @ self.w, grads


class LstmLayer:
    """One LSTM layer; weights wx (4h, in), wh (4h, h), bias (4h,)."""

    def __init__(self, wx: np.ndarray, wh: np.ndarray, b: np.ndarray):
        wx, wh, b = _as_weights(wx, wh, b)
        h = wh.shape[1]
        if wx.ndim != 2 or wx.shape[0] != 4 * h or wh.shape != (4 * h, h) \
                or b.shape != (4 * h,):
            raise ValueError(
                f"lstm shape mismatch: wx {wx.shape}, wh {wh.shape}, b {b.shape}")
        self.wx = wx
        self.wh = wh
        self.b = b
        self.hidden = h

    @property
    def in_dim(self) -> int:
        return self.wx.shape[1]

    @classmethod
    def initialize(cls, in_dim: int, hidden: int, rng: np.random.Generator) -> "LstmLayer":
        wx = _uniform_fan_in(rng, (4 * hidden, in_dim), in_dim)
        wh = _uniform_fan_in(rng, (4 * hidden, hidden), hidden)
        b = np.zeros(4 * hidden)
        b[hidden: 2 * hidden] = 1.0  # forget-gate bias keeps early memory open
        return cls(wx, wh, b)

    def _activate_gates(self, z: np.ndarray) -> None:
        """In-place gate nonlinearities on a (B, 4h) pre-activation."""
        h = self.hidden
        _sigmoid_inplace(z[:, : 2 * h])
        np.tanh(z[:, 2 * h: 3 * h], out=z[:, 2 * h: 3 * h])
        _sigmoid_inplace(z[:, 3 * h:])

    def step(self, z: np.ndarray, c_prev: np.ndarray):
        """One cell update from a full pre-activation; z is consumed in place.

        Returns (gates, c, tanh_c, h) where gates is z after activation.
        """
        h = self.hidden
        self._activate_gates(z)
        i = z[:, :h]
        f = z[:, h: 2 * h]
        g = z[:, 2 * h: 3 * h]
        o = z[:, 3 * h:]
        c = f * c_prev + i * g
        tc = np.tanh(c)
        return z, c, tc, o * tc

    def forward_seq(self, x: np.ndarray):
        """Run the full sequence; x is (T, B, in), returns (T, B, h) + cache."""
        t_len, bsz, _ = x.shape
        h = self.hidden
        gates = (x.reshape(t_len * bsz, -1) @ self.wx.T).reshape(t_len, bsz, 4 * h)
        gates += self.b
        dt = self.wx.dtype
        cs = np.empty((t_len, bsz, h), dtype=dt)
        tcs = np.empty((t_len, bsz, h), dtype=dt)
        hs = np.empty((t_len, bsz, h), dtype=dt)
        wh_t = self.wh.T
        h_t = np.zeros((bsz, h), dtype=dt)
        c_t = np.zeros((bsz, h), dtype=dt)
        buf = np.empty((bsz, 4 * h), dtype=dt)
        for t in range(t_len):
            z = gates[t]
            z += np.matmul(h_t, wh_t, out=buf)
            self._activate_gates(z)
            np.multiply(z[:, h: 2 * h], c_t, out=cs[t])
            cs[t] += z[:, :h] * z[:, 2 * h: 3 * h]
            c_t = cs[t]
            np.tanh(c_t, out=tcs[t])
            np.multiply(z[:, 3 * h:], tcs[t], out=hs[t])
            h_t = hs[t]
        return hs, (x, gates, cs, tcs, hs)

    def backward_seq(self, dh_seq: np.ndarray, cache):
        """Exact BPTT; dh_seq (T, B, h) accumulates upstream gradients."""
        x, gates, cs, tcs, hs = cache
        t_len, bsz, h = hs.shape
        dt = self.wx.dtype
        dz_all = np.empty((t_len, bsz, 4 * h), dtype=dt)
        dh_next = np.zeros((bsz, h), dtype=dt)
        dc_next = np.zeros((bsz, h), dtype=dt)
        for t in range(t_len - 1, -1, -1):
            z = gates[t]
            i = z[:, :h]
            f = z[:, h: 2 * h]
            g = z[:, 2 * h: 3 * h]
            o = z[:, 3 * h:]
            tc = tcs[t]
            dh = dh_seq[t] + dh_next
            dc = dh * o
            dc *= 1.0 - tc * tc
            dc += dc_next
            dz = dz_all[t]
            np.multiply(dc, g, out=dz[:, :h])
            dz[:, :h] *= i
            dz[:, :h] *= 1.0 - i
            if t > 0:
                np.multiply(dc, cs[t - 1], out=dz[:, h: 2 * h])
                dz[:, h: 2 * h] *= f
                dz[:, h: 2 * h] *= 1.0 - f
            else:
                dz[:, h: 2 * h] = 0.0
            np.multiply(dc, i, out=dz[:, 2 * h: 3 * h])
            dz[:, 2 * h: 3 * h] *= 1.0 - g * g
            np.multiply(dh, tc, out=dz[:, 3 * h:])
            dz[:, 3 * h:] *= o
            dz[:, 3 * h:] *= 1.0 - o
            dh_next = dz @ self.wh
            dc_next = dc * f
        flat = dz_all.reshape(t_len * bsz, 4 * h)
        h_prev = np.concatenate(
            [np.zeros((1, bsz, h), dtype=dt), hs[:-1]], axis=0).reshape(t_len * bsz, h)
        grads = {
            "wx": flat.T @ x.reshape(t_len * bsz, -1),
            "wh": flat.T @ h_prev,
            "b": flat.sum(axis=0),
        }
        dx = (flat @ self.wx).reshape(x.shape)
        return dx, grads


class GruLayer:
    """One GRU layer; weights wx (3h, in), wh (3h, h), bias (3h,).

    Candidate applies the reset gate to the previous hidden state before the
    recurrent product: n = tanh(Wn x + Un (r * h_prev) + bn).
    """

    def __init__(self, wx: np.ndarray, wh: np.ndarray, b: np.ndarray):
        wx, wh, b = _as_weights(wx, wh, b)
        h = wh.shape[1]
        if wx.ndim != 2 or wx.shape[0] != 3 * h or wh.shape != (3 * h, h) \
                or b.shape != (3 * h,):
            raise ValueError(
                f"gru shape mismatch: wx {wx.shape}, wh {wh.shape}, b {b.shape}")
        self.wx = wx
        self.wh = wh
        self.b = b
        self.hidden = h

    @property
    def in_dim(self) -> int:
        return self.wx.shape[1]

    @classmethod
    def initialize(cls, in_dim: int, hidden: int, rng: np.random.Generator) -> "GruLayer":
        wx = _uniform_fan_in(rng, (3 * hidden, in_dim), in_dim)
        wh = _uniform_fan_in(rng, (3 * hidden, hidden), hidden)
        return cls(wx, wh, np.zeros(3 * hidden))

    def step(self, zin_t: np.ndarray, h_prev: np.ndarray):
        """One cell update from the input projection zin_t = Wx x + b.

        Returns (z, r, n, rh, h).
        """
        h = self.hidden
        a_zr = zin_t[:, : 2 * h] + h_prev @ self.wh[: 2 * h].T
        _sigmoid_inplace(a_zr)
        z = a_zr[:, :h]
        r = a_zr[:, h:]
        rh = r * h_prev
        n = np.tanh(zin_t[:, 2 * h:] + rh @ self.wh[2 * h:].T)
        return z, r, n, rh, (1.0 - z) * n + z * h_prev

    def forward_seq(self, x: np.ndarray):
        """Run the full sequence; x is (T, B, in), returns (T, B, h) + cache."""
        t_len, bsz, _ = x.shape
        h = self.hidden
        zin = (x.reshape(t_len * bsz, -1) @ self.wx.T).reshape(t_len, bsz, 3 * h)
        zin += self.b
        dt = self.wx.dtype
        gz = np.empty((t_len, bsz, h), dtype=dt)
        gr = np.empty((t_len, bsz, h), dtype=dt)
        gn = np.empty((t_len, bsz, h), dtype=dt)
        rhs = np.empty((t_len, bsz, h), dtype=dt)
        hs = np.empty((t_len, bsz, h), dtype=dt)
        h_t = np.zeros((bsz, h), dtype=dt)
        for t in range(t_len):
            z, r, n, rh, h_t = self.step(zin[t], h_t)
            gz[t] = z
            gr[t] = r
            gn[t] = n
            rhs[t] = rh
            hs[t] = h_t
        return hs, (x, gz, gr, gn, rhs, hs)

    def backward_seq(self, dh_seq: np.ndarray, cache):
        x, gz, gr, gn, rhs, hs = cache
        t_len, bsz, h = hs.shape
        dt = self.wx.dtype
        da_all = np.empty((t_len, bsz, 3 * h), dtype=dt)
        dh_next = np.zeros((bsz, h), dtype=dt)
        wh_zr = self.wh[: 2 * h]
        wh_n = self.wh[2 * h:]
        zero = np.zeros((bsz, h), dtype=dt)
        for t in range(t_len - 1, -1, -1):
            z = gz[t]
            r = gr[t]
            n = gn[t]
            h_prev = hs[t - 1] if t > 0 else zero
            dh = dh_seq[t] + dh_next
            da = da_all[t]
            dan = da[:, 2 * h:]
            np.multiply(dh, 1.0 - z, out=dan)
            dan *= 1.0 - n * n
            drh = dan @ wh_n
            np.multiply(dh, h_prev - n, out=da[:, :h])
            da[:, :h] *= z
            da[:, :h] *= 1.0 - z
            np.multiply(drh, h_prev, out=da[:, h: 2 * h])
            da[:, h: 2 * h] *= r
            da[:, h: 2 * h] *= 1.0 - r
            dh_next = da[:, : 2 * h] @ wh_zr
            dh_next += drh * r
            dh_next += dh * z
        flat = da_all.reshape(t_len * bsz, 3 * h)
        h_prev_all = np.concatenate(
            [np.zeros((1, bsz, h), dtype=dt), hs[:-1]], axis=0).reshape(t_len * bsz, h)
        grads_wh = np.empty_like(self.wh)
        grads_wh[: 2 * h] = flat[:, : 2 * h].T @ h_prev_all
        grads_wh[2 * h:] = flat[:, 2 * h:].T @ rhs.reshape(t_len * bsz, h)
        grads = {
            "wx": flat.T @ x.reshape(t_len * bsz, -1),
            "wh": grads_wh,
            "b": flat.sum(axis=0),
        }
        dx = (flat @ self.wx).reshape(x.shape)
        return dx, grads


def lstm_cell_forward(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
                      layer: LstmLayer):
    """Single LSTM step on one vector (or batch); returns (h, c)."""
    dt = layer.wx.dtype
    x = np.atleast_2d(np.asarray(x, dtype=dt))
    h_prev = np.atleast_2d(np.asarray(h_prev, dtype=dt))
    c_prev = np.atleast_2d(np.asarray(c_prev, dtype=dt))
    z = x @ layer.wx.T + h_prev @ layer.wh.T + layer.b
    _, c, _, h = layer.step(z, c_prev)
    if h.shape[0] == 1 and np.asarray(x).ndim <= 2:
        return h[0], c[0]
    return h, c


def gru_cell_forward(x: np.ndarray, h_prev: np.ndarray, layer: GruLayer):
    """Single GRU step on one vector (or batch); returns h."""
    dt = layer.wx.dtype
    x = np.atleast_2d(np.asarray(x, dtype=dt))
    h_prev = np.atleast_2d(np.asarray(h_prev, dtype=dt))
    zin = x @ layer.wx.T + layer.b
    _, _, _, _, h = layer.step(zin, h_prev)
    return h[0] if h.shape[0] == 1 else h
