"""Dense, LSTM, and GRU layers with exact analytic gradients.

Each layer computes in the dtype of its weights, float32 or float64: every
sequence buffer, state and gradient takes that dtype. Training and evaluation
run float32 copies; the float64 master weights and the weight file stay
float64.

Sequence tensors are feature-major, (time, features, batch): step t is one
contiguous (features, batch) array, and every gate is a contiguous row range
of the step's pre-activation, so each elementwise pass of the loops runs on
contiguous memory. The network boundary transposes once per call; the dense
head keeps (batch, features). Gate blocks are stored stacked along the output
axis in a fixed, documented order — LSTM: input | forget | candidate |
output; GRU: update | reset | candidate. Each recurrent layer's cell update
lives in one place, the loop of its `forward_seq`; `_RecurrentLayer` holds
what the two layers share besides it.

That loop has two buffer policies, chosen by its `keep_cache`. Training
keeps every step's gates (and the LSTM cell state and its tanh, or the
GRU's r * h_prev) in T-long buffers for BPTT. The inference pass, which
`features` runs for evaluation and the teacher-forced validation loss,
hands the same loop one gate buffer, two rolling LSTM cell-state buffers
and one buffer for the rest, so it allocates no (T, 4h, B) stack. Both
keep the (T, h, B) hidden sequence, which the next layer and the
finiteness check read.

Each call of `forward_seq` stacks the layer's weights once into one matrix
[wx | wh | b] (`_stacked`), and each step copies x_t and h_{t-1} into one
stacked column [x_t; h_{t-1}; 1]. One product of the two gives every gate's
pre-activation wx @ x_t + wh @ h_{t-1} + b. The GRU takes two products over
the same column: its z | r rows, then its candidate rows after r * h_{t-1}
is written into the column's h rows. The stacked matrix holds the sigmoid
gates' rows halved, so one tanh over the gate rows gives tanh(a / 2) there,
and sigmoid(a) = tanh(a / 2) / 2 + 1 / 2 finishes them in place; the dense
head's sigmoid takes the same form. Halving is exact in binary floating
point, and tanh cannot overflow, so no floating-point warning needs
silencing. The gate buffers keep the documented row order and the activated
values, which is all that BPTT reads.

Each weight gradient is a sum over time steps of one outer product,
dz_t @ u_t.T. `_sum_over_steps` adds these products one step at a time, in
ascending t, into the gradient array through one (out, in) scratch product.
The result is bit-identical to stacking all T products and summing them over
the time axis, but no (T, out, in) temporary is made: that stack would be the
largest buffer of a backward pass.
"""

from __future__ import annotations

import math

import numpy as np


def _sigmoid_from_half_tanh(t: np.ndarray) -> None:
    """t = tanh(a / 2) in place into sigmoid(a) = t / 2 + 1 / 2."""
    t *= 0.5
    t += 0.5


def _sigmoid_inplace(x: np.ndarray) -> None:
    """x = sigmoid(x) in place, as tanh(x / 2) / 2 + 1 / 2."""
    x *= 0.5
    np.tanh(x, out=x)
    _sigmoid_from_half_tanh(x)


def _stacked(layer, dtype) -> np.ndarray:
    """The layer's weights as one (gates, in + h + 1) matrix [wx | wh | b] in
    `dtype`, for the stacked column [x; h; 1], with the row blocks of its
    sigmoid gates (`SIGMOID_BLOCKS`, in units of h) halved."""
    w = np.concatenate([layer.wx, layer.wh, layer.b[:, None]], axis=1).astype(
        dtype, copy=False)
    for lo, hi in layer.SIGMOID_BLOCKS:
        w[lo * layer.hidden: hi * layer.hidden] *= 0.5
    return w


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


class _RecurrentLayer:
    """What the LSTM and GRU layers share: weights wx (G h, in), wh (G h, h)
    and bias (G h,) for the class's `GATES` blocks G of h rows, their
    initialisation, and the weight-gradient tail of BPTT."""

    GATES: int
    SIGMOID_BLOCKS: tuple  # the sigmoid gates' row blocks, in units of h
    UNIT_BIAS_BLOCKS: tuple = ()  # row blocks whose bias starts at 1

    def __init__(self, wx: np.ndarray, wh: np.ndarray, b: np.ndarray):
        wx, wh, b = _as_weights(wx, wh, b)
        h = wh.shape[1]
        rows = self.GATES * h
        if wx.ndim != 2 or wx.shape[0] != rows or wh.shape != (rows, h) \
                or b.shape != (rows,):
            raise ValueError(f"{type(self).__name__} shape mismatch: "
                             f"wx {wx.shape}, wh {wh.shape}, b {b.shape}")
        self.wx = wx
        self.wh = wh
        self.b = b
        self.hidden = h

    @property
    def in_dim(self) -> int:
        return self.wx.shape[1]

    @classmethod
    def initialize(cls, in_dim: int, hidden: int, rng: np.random.Generator):
        rows = cls.GATES * hidden
        wx = _uniform_fan_in(rng, (rows, in_dim), in_dim)
        wh = _uniform_fan_in(rng, (rows, hidden), hidden)
        b = np.zeros(rows)
        for lo, hi in cls.UNIT_BIAS_BLOCKS:
            b[lo * hidden: hi * hidden] = 1.0
        return cls(wx, wh, b)

    def _gradients(self, dz_all: np.ndarray, x: np.ndarray, grad_wh: np.ndarray):
        """dx (T, in, B) and the weight gradients, from the pre-activation
        gradients dz_all (T, G h, B), the input x and the wh gradient."""
        grads = {
            "wx": _sum_over_steps(dz_all, x, np.empty_like(self.wx)),
            "wh": grad_wh,
            "b": dz_all.sum(axis=(0, 2)),
        }
        return np.matmul(self.wx.T, dz_all), grads


class LstmLayer(_RecurrentLayer):
    """One LSTM layer; weights wx (4h, in), wh (4h, h), bias (4h,)."""

    GATES = 4
    SIGMOID_BLOCKS = ((0, 2), (3, 4))  # i | f and o
    UNIT_BIAS_BLOCKS = ((1, 2),)  # forget-gate bias keeps early memory open

    def forward_seq(self, x: np.ndarray, keep_cache: bool = True):
        """Run the full sequence; x is (T, in, B). Returns the (T, h, B)
        hidden sequence and the BPTT cache, or None in its place when
        `keep_cache` is false.

        Step t writes its gates, cell state and tanh into row t modulo each
        buffer's length: T-long buffers keep every step, short ones roll."""
        t_len, in_dim, bsz = x.shape
        h = self.hidden
        dtype = np.result_type(self.wx, x)
        kept = t_len if keep_cache else 1
        gates = np.empty((kept, 4 * h, bsz), dtype=dtype)
        cs = np.empty((t_len if keep_cache else 2, h, bsz), dtype=dtype)
        tcs = np.empty((kept, h, bsz), dtype=dtype)
        hs = np.empty((t_len, h, bsz), dtype=dtype)
        zero = np.zeros((h, bsz), dtype=dtype)
        w = _stacked(self, dtype)
        col = np.ones((in_dim + h + 1, bsz), dtype=dtype)
        for t in range(t_len):
            h_prev, c_prev = (hs[t - 1], cs[(t - 1) % len(cs)]) if t else (zero, zero)
            col[:in_dim] = x[t]
            col[in_dim: -1] = h_prev
            z, c, tc = gates[t % kept], cs[t % len(cs)], tcs[t % kept]
            np.matmul(w, col, out=z)
            np.tanh(z, out=z)
            _sigmoid_from_half_tanh(z[: 2 * h])
            _sigmoid_from_half_tanh(z[3 * h:])
            i, f, g, o = z[:h], z[h: 2 * h], z[2 * h: 3 * h], z[3 * h:]
            np.multiply(f, c_prev, out=c)
            np.multiply(i, g, out=tc)
            c += tc
            np.tanh(c, out=tc)
            np.multiply(o, tc, out=hs[t])
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
        grad_wh = _sum_over_steps(dz_all[1:], hs[:-1], np.empty_like(self.wh))
        return self._gradients(dz_all, x, grad_wh)


class GruLayer(_RecurrentLayer):
    """One GRU layer; weights wx (3h, in), wh (3h, h), bias (3h,).

    Candidate applies the reset gate to the previous hidden state before the
    recurrent product: n = tanh(Wn x + Un (r * h_prev) + bn).
    """

    GATES = 3
    SIGMOID_BLOCKS = ((0, 2),)  # z | r

    def forward_seq(self, x: np.ndarray, keep_cache: bool = True):
        """Run the full sequence; x is (T, in, B). Returns the (T, h, B)
        hidden sequence and the BPTT cache, or None in its place when
        `keep_cache` is false.

        Step t writes its gates and r * h_prev into row t modulo each
        buffer's length: T-long buffers keep every step, one-row ones are
        reused."""
        t_len, in_dim, bsz = x.shape
        h = self.hidden
        dtype = np.result_type(self.wx, x)
        kept = t_len if keep_cache else 1
        gates = np.empty((kept, 3 * h, bsz), dtype=dtype)
        rhs = np.empty((kept, h, bsz), dtype=dtype)
        hs = np.empty((t_len, h, bsz), dtype=dtype)
        zero = np.zeros((h, bsz), dtype=dtype)
        w = _stacked(self, dtype)
        w_zr, w_n = w[: 2 * h], w[2 * h:]
        col = np.ones((in_dim + h + 1, bsz), dtype=dtype)
        col_h = col[in_dim: -1]
        for t in range(t_len):
            h_prev = hs[t - 1] if t else zero
            col[:in_dim] = x[t]
            col_h[...] = h_prev
            a, rh, h_out = gates[t % kept], rhs[t % kept], hs[t]
            zr, z, r, n = a[: 2 * h], a[:h], a[h: 2 * h], a[2 * h:]
            np.matmul(w_zr, col, out=zr)
            np.tanh(zr, out=zr)
            _sigmoid_from_half_tanh(zr)
            np.multiply(r, h_prev, out=rh)
            col_h[...] = rh
            np.matmul(w_n, col, out=n)
            np.tanh(n, out=n)
            np.subtract(1.0, z, out=h_out)
            h_out *= n
            np.multiply(z, h_prev, out=col_h)
            h_out += col_h
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
        grad_wh = np.empty_like(self.wh)
        _sum_over_steps(da_all[1:, : 2 * h], hs[:-1], grad_wh[: 2 * h])
        _sum_over_steps(da_all[1:, 2 * h:], rhs[1:], grad_wh[2 * h:])
        return self._gradients(da_all, x, grad_wh)
