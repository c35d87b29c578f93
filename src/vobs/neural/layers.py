"""Dense, LSTM, and GRU layers with exact analytic gradients.

Each layer computes in the dtype of its weights, float32 or float64: every
sequence buffer, state and gradient takes that dtype. Training and evaluation
run float32 copies; the float64 master weights, the weight file and the
gradient check stay float64.

Sequence tensors are feature-major, (time, features, batch): step t is one
contiguous (features, batch) array, its recurrent term is `wh @ h_t` with the
weights as stored, and every gate is a contiguous row range of the step's
pre-activation, so each elementwise pass of the loops runs on contiguous
memory. The network boundary transposes once per call; the dense head keeps
(batch, features). Gate blocks are stored stacked along the output axis in a
fixed, documented order — LSTM: input | forget | candidate | output; GRU:
update | reset | candidate. Each recurrent layer's `step` is its one cell
update: the sequence loop calls it on every step and the single-step cell
function calls it once, so the cell-level contract and the training path
cannot drift apart.

Each recurrent layer has one sequence loop, in `forward_seq`, with two
buffer policies chosen by its `keep_cache`. Training keeps every
step's gates (and the LSTM cell state and its tanh, or the GRU's r * h_prev)
in T-long buffers for BPTT. The inference pass, which `features` runs for
evaluation and the teacher-forced validation loss, hands the same loop one
gate buffer, two rolling LSTM cell-state buffers and one buffer for the
rest, so it allocates no (T, 4h, B) stack. Both keep the (T, h, B) hidden
sequence, which the next layer and the finiteness check read. Each step
projects its own input, wx @ x_t + b, into its gate buffer; the result is
bit-identical to projecting all T steps in one batched product.

Each weight gradient is a sum over time steps of one outer product,
dz_t @ u_t.T. `_sum_over_steps` adds these products one step at a time, in
ascending t, into the gradient array through one (out, in) scratch product.
The result is bit-identical to stacking all T products and summing them over
the time axis, but no (T, out, in) temporary is made: that stack is the
largest buffer of a backward pass, and with training shards on two threads
each thread's malloc arena would keep a copy of it.
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


def _mul_sigmoid_grad(d: np.ndarray, s: np.ndarray, tmp: np.ndarray) -> None:
    """d *= s * (1 - s) in place, for s = sigmoid(a); tmp is scratch shaped
    like d."""
    d *= s
    np.subtract(1.0, s, out=tmp)
    d *= tmp


def _mul_tanh_grad(d: np.ndarray, t: np.ndarray, tmp: np.ndarray) -> None:
    """d *= 1 - t * t in place, for t = tanh(a); tmp is scratch shaped like d."""
    np.multiply(t, t, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    d *= tmp


def _sum_over_steps(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum over t of a[t] @ b[t].T, for a (T, m, B) and b (T, n, B),
    added in ascending t; zero for T = 0."""
    if len(a) == 0:
        out[...] = 0.0
        return out
    np.matmul(a[0], b[0].T, out=out)
    prod = np.empty_like(out)
    for t in range(1, len(a)):
        out += np.matmul(a[t], b[t].T, out=prod)
    return out


def _as_weights(*arrays: np.ndarray) -> list[np.ndarray]:
    """Contiguous weight arrays sharing one dtype: float32 when the first
    array is float32, float64 otherwise."""
    dtype = np.float32 if np.asarray(arrays[0]).dtype == np.float32 else np.float64
    return [np.ascontiguousarray(a, dtype=dtype) for a in arrays]


def _uniform_fan_in(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


class Dense:
    """Fully connected layer y = sigmoid(W x + b)."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        w, b = _as_weights(w, b)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError(f"dense shape mismatch: w {w.shape}, b {b.shape}")
        self.w = w
        self.b = b

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    @classmethod
    def initialize(cls, in_dim: int, out_dim: int, rng: np.random.Generator) -> "Dense":
        w = _uniform_fan_in(rng, (out_dim, in_dim), in_dim)
        return cls(w, np.zeros(out_dim))

    def forward(self, x: np.ndarray):
        y = x @ self.w.T + self.b
        _sigmoid_inplace(y)
        return y, (x, y)

    def backward(self, dy: np.ndarray, cache):
        x, y = cache
        dz = dy * (y * (1.0 - y))
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

    def step(self, z, h_prev, c_prev, c, tc, h_out, buf) -> None:
        """One cell update on (features, batch) columns.

        z is the (4h, B) input projection wx @ x + b: the recurrent term is
        added and the gates are activated in place. The cell state, its tanh
        and the new hidden state go into the (h, B) arrays c, tc and h_out;
        buf is (4h, B) scratch.
        """
        h = self.hidden
        z += np.matmul(self.wh, h_prev, out=buf)
        i, f, g, o = z[:h], z[h: 2 * h], z[2 * h: 3 * h], z[3 * h:]
        _sigmoid_inplace(z[: 2 * h])
        np.tanh(g, out=g)
        _sigmoid_inplace(o)
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=tc)
        c += tc
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h_out)

    def forward_seq(self, x: np.ndarray, keep_cache: bool = True):
        """Run the full sequence; x is (T, in, B). Returns the (T, h, B)
        hidden sequence and the BPTT cache, or None in its place when
        `keep_cache` is false.

        Step t writes its gates, cell state and tanh into row t modulo each
        buffer's length: T-long buffers keep every step, short ones roll."""
        t_len, _, bsz = x.shape
        h = self.hidden
        dtype = np.result_type(self.wx, x)
        n = t_len if keep_cache else 1
        gates = np.empty((n, 4 * h, bsz), dtype=dtype)
        cs = np.empty((t_len if keep_cache else 2, h, bsz), dtype=dtype)
        tcs = np.empty((n, h, bsz), dtype=dtype)
        hs = np.empty((t_len, h, bsz), dtype=dtype)
        zero = np.zeros((h, bsz), dtype=dtype)
        buf = np.empty((4 * h, bsz), dtype=dtype)
        b = self.b[:, None]
        for t in range(t_len):
            z = gates[t % n]
            np.matmul(self.wx, x[t], out=z)
            z += b
            h_prev, c_prev = (hs[t - 1], cs[(t - 1) % len(cs)]) if t else (zero, zero)
            self.step(z, h_prev, c_prev, cs[t % len(cs)], tcs[t % n], hs[t], buf)
        return hs, ((x, gates, cs, tcs, hs) if keep_cache else None)

    def backward_seq(self, dh_seq: np.ndarray, cache):
        """Exact BPTT; dh_seq (T, h, B) holds the upstream gradients.

        Returns dx (T, in, B) and the weight gradients."""
        x, gates, cs, tcs, hs = cache
        t_len, h, bsz = hs.shape
        dz_all = np.empty((t_len, 4 * h, bsz), dtype=hs.dtype)
        dh = np.empty((h, bsz), dtype=hs.dtype)
        dc = np.empty_like(dh)
        tmp = np.empty_like(dh)
        dh_next = np.zeros_like(dh)
        dc_next = np.zeros_like(dh)
        wh_t = np.ascontiguousarray(self.wh.T)
        for t in range(t_len - 1, -1, -1):
            i, f, g, o = gates[t].reshape(4, h, bsz)
            di, df, dg, do = dz_all[t].reshape(4, h, bsz)
            tc = tcs[t]
            np.add(dh_seq[t], dh_next, out=dh)
            np.multiply(dh, o, out=dc)
            _mul_tanh_grad(dc, tc, tmp)
            dc += dc_next
            np.multiply(dc, g, out=di)
            _mul_sigmoid_grad(di, i, tmp)
            if t > 0:
                np.multiply(dc, cs[t - 1], out=df)
                _mul_sigmoid_grad(df, f, tmp)
            else:
                df[...] = 0.0
            np.multiply(dc, i, out=dg)
            _mul_tanh_grad(dg, g, tmp)
            np.multiply(dh, tc, out=do)
            _mul_sigmoid_grad(do, o, tmp)
            np.matmul(wh_t, dz_all[t], out=dh_next)
            np.multiply(dc, f, out=dc_next)
        # step 0 has h_prev = 0, so it adds nothing to the wh gradient
        grads = {
            "wx": _sum_over_steps(dz_all, x, np.empty_like(self.wx)),
            "wh": _sum_over_steps(dz_all[1:], hs[:-1], np.empty_like(self.wh)),
            "b": dz_all.sum(axis=(0, 2)),
        }
        return np.matmul(self.wx.T, dz_all), grads


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

    def step(self, a, h_prev, rh, h_out, buf) -> None:
        """One cell update on (features, batch) columns.

        a is the (3h, B) input projection wx @ x + b; on return it holds the
        activated gates z | r | n. r * h_prev goes into rh and the new hidden
        state into h_out, both (h, B); buf is (2h, B) scratch.
        """
        h = self.hidden
        z, r, n = a[:h], a[h: 2 * h], a[2 * h:]
        a[: 2 * h] += np.matmul(self.wh[: 2 * h], h_prev, out=buf)
        _sigmoid_inplace(a[: 2 * h])
        np.multiply(r, h_prev, out=rh)
        n += np.matmul(self.wh[2 * h:], rh, out=buf[:h])
        np.tanh(n, out=n)
        np.subtract(1.0, z, out=h_out)
        h_out *= n
        np.multiply(z, h_prev, out=buf[:h])
        h_out += buf[:h]

    def forward_seq(self, x: np.ndarray, keep_cache: bool = True):
        """Run the full sequence; x is (T, in, B). Returns the (T, h, B)
        hidden sequence and the BPTT cache, or None in its place when
        `keep_cache` is false.

        Step t writes its gates and r * h_prev into row t modulo each
        buffer's length: T-long buffers keep every step, one-row ones are
        reused."""
        t_len, _, bsz = x.shape
        h = self.hidden
        dtype = np.result_type(self.wx, x)
        n = t_len if keep_cache else 1
        gates = np.empty((n, 3 * h, bsz), dtype=dtype)
        rhs = np.empty((n, h, bsz), dtype=dtype)
        hs = np.empty((t_len, h, bsz), dtype=dtype)
        zero = np.zeros((h, bsz), dtype=dtype)
        buf = np.empty((2 * h, bsz), dtype=dtype)
        b = self.b[:, None]
        for t in range(t_len):
            a = gates[t % n]
            np.matmul(self.wx, x[t], out=a)
            a += b
            self.step(a, hs[t - 1] if t else zero, rhs[t % n], hs[t], buf)
        return hs, ((x, gates, rhs, hs) if keep_cache else None)

    def backward_seq(self, dh_seq: np.ndarray, cache):
        """Exact BPTT; dh_seq (T, h, B) holds the upstream gradients.

        Returns dx (T, in, B) and the weight gradients."""
        x, gates, rhs, hs = cache
        t_len, h, bsz = hs.shape
        da_all = np.empty((t_len, 3 * h, bsz), dtype=hs.dtype)
        dh = np.empty((h, bsz), dtype=hs.dtype)
        drh = np.empty_like(dh)
        tmp = np.empty_like(dh)
        omz = np.empty_like(dh)
        dh_next = np.zeros_like(dh)
        zero = np.zeros_like(dh)
        wh_zr_t = np.ascontiguousarray(self.wh[: 2 * h].T)
        wh_n_t = np.ascontiguousarray(self.wh[2 * h:].T)
        for t in range(t_len - 1, -1, -1):
            z, r, n = gates[t].reshape(3, h, bsz)
            daz, dar, dan = da_all[t].reshape(3, h, bsz)
            h_prev = hs[t - 1] if t > 0 else zero
            np.add(dh_seq[t], dh_next, out=dh)
            np.subtract(1.0, z, out=omz)
            np.multiply(dh, omz, out=dan)
            _mul_tanh_grad(dan, n, tmp)
            np.matmul(wh_n_t, dan, out=drh)
            np.subtract(h_prev, n, out=tmp)
            np.multiply(dh, tmp, out=daz)
            daz *= z
            daz *= omz
            np.multiply(drh, h_prev, out=dar)
            _mul_sigmoid_grad(dar, r, tmp)
            np.matmul(wh_zr_t, da_all[t, : 2 * h], out=dh_next)
            np.multiply(drh, r, out=tmp)
            dh_next += tmp
            np.multiply(dh, z, out=tmp)
            dh_next += tmp
        # step 0 has h_prev = 0 and so r * h_prev = 0: it adds nothing to wh
        grads_wh = np.empty_like(self.wh)
        _sum_over_steps(da_all[1:, : 2 * h], hs[:-1], grads_wh[: 2 * h])
        _sum_over_steps(da_all[1:, 2 * h:], rhs[1:], grads_wh[2 * h:])
        grads = {
            "wx": _sum_over_steps(da_all, x, np.empty_like(self.wx)),
            "wh": grads_wh,
            "b": da_all.sum(axis=(0, 2)),
        }
        return np.matmul(self.wx.T, da_all), grads


def _columns(layer, *arrays: np.ndarray) -> list[np.ndarray]:
    """Vectors or (B, features) rows as contiguous (features, B) columns in
    the layer's dtype."""
    return [np.ascontiguousarray(np.atleast_2d(np.asarray(a)).T, dtype=layer.wx.dtype)
            for a in arrays]


def lstm_cell_forward(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
                      layer: LstmLayer):
    """Single LSTM step on one vector or a (B, in) batch; returns (h, c) as
    vectors for a single sample and as (B, h) arrays otherwise."""
    x, h_prev, c_prev = _columns(layer, x, h_prev, c_prev)
    z = layer.wx @ x + layer.b[:, None]
    c, tc, h = (np.empty_like(c_prev) for _ in range(3))
    layer.step(z, h_prev, c_prev, c, tc, h, np.empty_like(z))
    if h.shape[1] == 1:
        return h[:, 0], c[:, 0]
    return h.T, c.T


def gru_cell_forward(x: np.ndarray, h_prev: np.ndarray, layer: GruLayer):
    """Single GRU step on one vector or a (B, in) batch; returns h as a
    vector for a single sample and as a (B, h) array otherwise."""
    x, h_prev = _columns(layer, x, h_prev)
    a = layer.wx @ x + layer.b[:, None]
    rh, h = np.empty_like(h_prev), np.empty_like(h_prev)
    layer.step(a, h_prev, rh, h, np.empty((2 * layer.hidden, h.shape[1]), dtype=h.dtype))
    return h[:, 0] if h.shape[1] == 1 else h.T
