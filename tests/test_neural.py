import hashlib
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import gradient_check
from vobs.errors import ConfigError, DataFormatError, NumericalError
from vobs.neural import (
    COMPUTE_DTYPE,
    Adam,
    Dense,
    GruLayer,
    LstmLayer,
    RecurrentRegressor,
    build_net,
    l2_loss,
    load_weights,
    save_weights,
)
from vobs.neural import layers
from vobs.observer_lstm import STATE_INPUTS, observer_net


def _zero_lstm(in_dim=3, hidden=1):
    return LstmLayer(np.zeros((4 * hidden, in_dim)), np.zeros((4 * hidden, hidden)),
                     np.zeros(4 * hidden))


def _random_lstm(in_dim, hidden, seed):
    rng = np.random.default_rng(seed)
    return LstmLayer(rng.normal(0, 0.5, (4 * hidden, in_dim)),
                     rng.normal(0, 0.5, (4 * hidden, hidden)),
                     rng.normal(0, 0.5, 4 * hidden))


def _random_gru(in_dim, hidden, seed):
    rng = np.random.default_rng(seed)
    return GruLayer(rng.normal(0, 0.5, (3 * hidden, in_dim)),
                    rng.normal(0, 0.5, (3 * hidden, hidden)),
                    rng.normal(0, 0.5, 3 * hidden))


def lstm_cell_oracle(x, h_prev, c_prev, wi, wf, wg, wo, ui, uf, ug, uo,
                     bi, bf, bg, bo):
    """Straight-line transcription of the five cell equations."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))
    i = sig(wi @ x + ui @ h_prev + bi)
    f = sig(wf @ x + uf @ h_prev + bf)
    g = np.tanh(wg @ x + ug @ h_prev + bg)
    o = sig(wo @ x + uo @ h_prev + bo)
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def gru_cell_oracle(x, h_prev, wz, wr, wn, uz, ur, un, bz, br, bn):
    """Straight-line transcription of the three cell equations."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))
    z = sig(wz @ x + uz @ h_prev + bz)
    r = sig(wr @ x + ur @ h_prev + br)
    n = np.tanh(wn @ x + un @ (r * h_prev) + bn)
    return (1.0 - z) * n + z * h_prev


def _oracle_seq(layer, x):
    """The cell oracle stepped over x (T, in, B) from the zero state: the
    (T, h, B) hidden states, and the cell states for an LSTM (else None)."""
    h = layer.hidden
    gates = len(layer.b) // h
    blocks = [w[k * h: (k + 1) * h] for w in (layer.wx, layer.wh, layer.b[:, None])
              for k in range(gates)]
    h_prev = c_prev = np.zeros((h, x.shape[2]))
    hs, cs = [], []
    for x_t in x:
        if gates == 4:
            h_prev, c_prev = lstm_cell_oracle(x_t, h_prev, c_prev, *blocks)
            cs.append(c_prev)
        else:
            h_prev = gru_cell_oracle(x_t, h_prev, *blocks)
        assert h_prev.any()  # so each later step starts from a nonzero state
        hs.append(h_prev)
    return np.array(hs), (np.array(cs) if cs else None)


def _oracle_gap(layer, x, keep_cache):
    """Largest |forward_seq - oracle| over every hidden state, and over every
    LSTM cell state when the cache keeps them."""
    hs, cache = layer.forward_seq(x, keep_cache=keep_cache)
    assert (cache is None) != keep_cache
    assert hs.shape == (len(x), layer.hidden, x.shape[2])
    want_h, want_c = _oracle_seq(layer, x)
    gap = np.abs(hs - want_h).max()
    if keep_cache and want_c is not None:
        gap = max(gap, np.abs(cache[2] - want_c).max())
    return gap


def _oracle_sweep(make, seed, trials, t_lens=(1, 2, 6), keep_caches=(True, False)):
    """The worst `_oracle_gap` over `trials` float64 layers of random
    dimensions, cycling through the sequence lengths and cache policies."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        in_dim, hidden, bsz = (int(v) for v in rng.integers(1, 6, 3))
        layer = make(in_dim, hidden, seed=seed + trial)
        x = rng.normal(0, 1, (t_lens[trial % len(t_lens)], in_dim, bsz))
        worst = max(worst, _oracle_gap(layer, x, keep_caches[trial % len(keep_caches)]))
    return worst


class TestLstmCell:
    def test_all_zero_weights_zero_cell(self):
        layer = _zero_lstm()
        hs, (_, _, cs, _, _) = layer.forward_seq(np.zeros((3, 3, 1)))
        assert hs == pytest.approx(0.0)
        assert cs == pytest.approx(0.0)

    def test_zero_weights_unit_cell_state(self):
        # step 0 saturates i and g at 1 through input 0, so c = 1; step 1 has
        # zero input and zero wh, so gates all sigmoid(0)=0.5, candidate
        # tanh(0)=0: c = 0.5*1 + 0.5*0 = 0.5, h = 0.5*tanh(0.5)
        layer = _zero_lstm()
        layer.wx[[0, 2], 0] = 1.0
        x = np.zeros((2, 3, 1))
        x[0, 0] = 40.0
        hs, (_, _, cs, _, _) = layer.forward_seq(x)
        assert cs[0, 0, 0] == 1.0
        assert cs[1] == pytest.approx(0.5, abs=1e-15)
        assert hs[1] == pytest.approx(0.5 * math.tanh(0.5), abs=1e-12)

    def test_matches_independent_transcription(self):
        assert _oracle_sweep(_random_lstm, seed=1234, trials=1000) < 1e-12

    def test_shape_mismatch_rejected_at_construction(self):
        with pytest.raises(ValueError):
            LstmLayer(np.zeros((4, 3)), np.zeros((4, 2)), np.zeros(4))


class TestGruCell:
    def test_zero_weights_zero_input(self):
        layer = GruLayer(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros(3))
        hs, _ = layer.forward_seq(np.zeros((3, 2, 1)))
        assert hs == pytest.approx(0.0)

    def test_matches_independent_transcription(self):
        assert _oracle_sweep(_random_gru, seed=777, trials=1000) < 1e-12


class TestSequenceMatchesCell:
    """forward_seq over T steps is the cell oracle stepped T times from the
    zero state, with the BPTT cache kept and without it; T of 1 and 2 cover
    the first steps of the rolling cell-state buffers."""

    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("t_len", [1, 2, 6])
    def test_lstm(self, t_len, keep_cache):
        assert _oracle_sweep(_random_lstm, 31, 20, (t_len,), (keep_cache,)) < 1e-12

    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("t_len", [1, 2, 6])
    def test_gru(self, t_len, keep_cache):
        assert _oracle_sweep(_random_gru, 32, 20, (t_len,), (keep_cache,)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["lstm", "gru"]),
       dtype=st.sampled_from([np.float32, np.float64]),
       t_len=st.integers(1, 8), bsz=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_cache_free_pass_is_bit_identical(kind, dtype, t_len, bsz, seed):
    make = _random_lstm if kind == "lstm" else _random_gru
    layer = make(in_dim=3, hidden=6, seed=seed)
    layer = type(layer)(layer.wx.astype(dtype), layer.wh.astype(dtype),
                        layer.b.astype(dtype))
    x = np.random.default_rng(seed).normal(0, 1, (t_len, 3, bsz)).astype(dtype)
    hs, _ = layer.forward_seq(x)
    hs_free, cache = layer.forward_seq(x, keep_cache=False)
    assert cache is None
    assert hs_free.dtype == dtype
    assert hs_free.tobytes() == hs.tobytes()


class TestForwardFull:
    def test_zero_weights_give_half(self):
        net = build_net("lstm", 0, 5, (3,), (4,), 3, 3)
        for _, arr in net.params():
            arr[...] = 0.0
        out = net.forward(np.zeros((1, 7, 5)), np.zeros((1, 3)))
        np.testing.assert_allclose(out, 0.5)

    def test_state_width_is_what_the_head_takes_beyond_the_stack(self):
        for state_dim in (0, 3):
            net = build_net("lstm", 0, 5, (3, 4), (6,), 3, state_dim)
            rebuilt = RecurrentRegressor(net.kind, net.cells, net.head)
            assert net.state_dim == rebuilt.state_dim == state_dim
        with pytest.raises(ConfigError, match="takes 2 inputs, fewer than the 4"):
            RecurrentRegressor("lstm", net.cells, [Dense(np.zeros((3, 2)), np.zeros(3))])

    def test_output_in_unit_cube(self):
        net = build_net("lstm", 3, 5, (4, 5), (6,), 3, 3)
        rng = np.random.default_rng(0)
        out = net.forward(rng.normal(0, 5, (8, 10, 5)), rng.normal(0, 5, (8, 3)))
        assert (out > 0).all() and (out < 1).all()

    def test_regression_pin(self):
        # frozen once from the finite-difference-verified implementation
        net = build_net("lstm", 42, 5, (3, 4), (4,), 3, 3)
        rng = np.random.default_rng(7)
        w = rng.uniform(0, 1, (1, 6, 5))
        p = rng.uniform(0, 1, (1, 3))
        out = net.forward(w, p)
        np.testing.assert_allclose(
            out[0],
            [0.42073510709702777, 0.5486569876768487, 0.5576206851367885],
            atol=1e-12)

    def test_hidden_states_bounded(self):
        net = build_net("lstm", 5, 5, (6, 7), (4,), 3, 3)
        rng = np.random.default_rng(2)
        feats = net.features(rng.normal(0, 3, (16, 20, 5)))
        assert np.abs(feats).max() < 1.0

    def test_nonfinite_input_identified(self):
        net = build_net("lstm", 0, 5, (3,), (4,), 3, 3)
        w = np.zeros((1, 7, 5))
        w[0, 4, 2] = np.nan
        with pytest.raises(NumericalError, match="layer 0 at step 4"):
            net.forward(w, np.zeros((1, 3)))

    def test_nonfinite_input_identified_gru(self):
        net = build_net("gru", 0, 5, (3,), (4,), 3, 0)
        w = np.zeros((1, 7, 5))
        w[0, 4, 2] = np.nan
        with pytest.raises(NumericalError, match="gru layer 0 at step 4"):
            net.forward(w)

    def test_gru_net_has_no_state_input(self):
        net = build_net("gru", 1, 5, (3,), (4,), 3, 0)
        with pytest.raises(ConfigError):
            net.forward(np.zeros((1, 7, 5)), np.zeros((1, 3)))


def _reference_sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _reference_lstm_seq(layer, x, keep_cache=True):
    """The LSTM step formula without stacking: wx @ x_t + b and wh @ h_{t-1}
    as separate products, sigmoid gates as 1 / (1 + exp(-a))."""
    t_len, _, bsz = x.shape
    h = layer.hidden
    gates = np.empty((t_len, 4 * h, bsz), dtype=layer.wx.dtype)
    cs, tcs, hs = (np.empty((t_len, h, bsz), dtype=layer.wx.dtype) for _ in range(3))
    h_prev = c_prev = np.zeros((h, bsz), dtype=layer.wx.dtype)
    for t in range(t_len):
        z = layer.wx @ x[t] + layer.b[:, None]
        z += layer.wh @ h_prev
        i, f, o = (_reference_sigmoid(z[k * h: (k + 1) * h]) for k in (0, 1, 3))
        g = np.tanh(z[2 * h: 3 * h])
        gates[t] = np.concatenate([i, f, g, o])
        cs[t] = f * c_prev + i * g
        tcs[t] = np.tanh(cs[t])
        hs[t] = o * tcs[t]
        h_prev, c_prev = hs[t], cs[t]
    return hs, ((x, gates, cs, tcs, hs) if keep_cache else None)


def _reference_gru_seq(layer, x, keep_cache=True):
    """The GRU step formula without stacking: wx @ x_t + b, then the z | r
    rows of wh @ h_{t-1} and the n rows of wh @ (r * h_{t-1}) as separate
    products, sigmoid gates as 1 / (1 + exp(-a))."""
    t_len, _, bsz = x.shape
    h = layer.hidden
    gates = np.empty((t_len, 3 * h, bsz), dtype=layer.wx.dtype)
    rhs, hs = (np.empty((t_len, h, bsz), dtype=layer.wx.dtype) for _ in range(2))
    h_prev = np.zeros((h, bsz), dtype=layer.wx.dtype)
    for t in range(t_len):
        a = layer.wx @ x[t] + layer.b[:, None]
        a[: 2 * h] += layer.wh[: 2 * h] @ h_prev
        z, r = _reference_sigmoid(a[:h]), _reference_sigmoid(a[h: 2 * h])
        rhs[t] = r * h_prev
        n = np.tanh(a[2 * h:] + layer.wh[2 * h:] @ rhs[t])
        gates[t] = np.concatenate([z, r, n])
        hs[t] = (1.0 - z) * n + z * h_prev
        h_prev = hs[t]
    return hs, ((x, gates, rhs, hs) if keep_cache else None)


def _use_reference_step(monkeypatch):
    """Run every network through the reference step formulas, and its dense
    head through the exponential sigmoid."""
    monkeypatch.setattr(LstmLayer, "forward_seq", _reference_lstm_seq)
    monkeypatch.setattr(GruLayer, "forward_seq", _reference_gru_seq)

    def sigmoid(a):
        a[...] = _reference_sigmoid(a)
    monkeypatch.setattr(layers, "_sigmoid_inplace", sigmoid)


class TestNetworkGoldenBits:
    """SHA-256 of what the default float32 nets compute on 50-step windows:
    `features` at two odd batch widths (225 is the bench config's whole
    validation batch), and the loss plus every gradient at the bench
    config's two training batch widths (256 and 184, from 440 windows at
    batch 256) and at two narrower ones. Any reordering of the layers' float
    arithmetic changes them; they assume OpenBLAS GEMMs that round as the
    ones they were pinned with.

    The digests were re-pinned when the layers moved to stacked gate weights
    and the tanh form of the sigmoid. The reference tests below hold them to
    the earlier step formula, kept in this file as the reference: float32
    features within 1e-6 absolute, float64 loss and gradients within 1e-12
    relative."""

    T = 50
    FEATURES = {
        "lstm": {113: "cfc7d5bbc0e8b99ae5eff580913338c5f1b40e434ada691762b4c7a5e4f97782",
                 225: "b12e24908d9a6badeb2aec86ca23fcdc33ec93a76085f1210be9554cef38e2f1"},
        "gru": {113: "b812082e808ef5ac522c2003bdcb56f6d5d1861e1721f6d1d9b3093c2641611c",
                225: "e18fcb29b878e939a66b9a96342658a88cd352221e2e2d784e4a11944cefb320"},
    }
    GRADIENTS = {
        ("lstm", 256): "7a7f601b25a2fc52f66b72bf225603eda06282ba66f441ac895a241973ce8c1d",
        ("lstm", 184): "264985c1501cfcf9cae0717e100b84d5343e75eed236f4f757d004748231391a",
        ("lstm", 128): "3fe35c59b040b3f1c4a6c51798586a5dc70e7ec27754dace64c32798c9af8880",
        ("lstm", 92): "f5a079a372038c33bd10d5ed5af9705012579073d2617e8cd40c0c5079fbee6d",
        ("gru", 256): "c64cafd20b8bd3160806a8726254f29ecebcdf2fbf08ca348ded8b2b2449e025",
        ("gru", 184): "2b357b09c894aaa4f8a9f4043ee5e2420f1e094f6775d6a4629be105e33e8795",
        ("gru", 128): "b3c917a6d3b83f906719bb67fd4bb7de57b64f1eaa9782e14d92453281535950",
        ("gru", 92): "79d6b55ef6cb8144771cda8964bf85bf8a2f94083e02ad089a070ba4cf37f7fb",
    }

    @staticmethod
    def _net(kind):
        return observer_net(kind, 3).astype(COMPUTE_DTYPE)

    def _inputs(self, bsz):
        rng = np.random.default_rng(bsz)
        return (rng.normal(0, 1, (bsz, self.T, 5)), rng.uniform(0, 1, (bsz, 3)),
                rng.uniform(0, 1, (bsz, 3)))

    @pytest.mark.parametrize("kind", sorted(FEATURES))
    def test_features(self, kind):
        net = self._net(kind)
        for bsz, want in self.FEATURES[kind].items():
            windows, _, _ = self._inputs(bsz)
            assert hashlib.sha256(net.features(windows).tobytes()).hexdigest() == want, bsz

    @pytest.mark.parametrize("kind,bsz", sorted(GRADIENTS))
    def test_loss_and_gradients(self, kind, bsz):
        net = self._net(kind)
        windows, prev, targets = self._inputs(bsz)
        loss, grads = net.loss_and_gradients(
            windows, prev if net.state_dim else None, targets)
        digest = hashlib.sha256(np.float64(loss).tobytes())
        for g in grads:
            digest.update(g.tobytes())
        assert digest.hexdigest() == self.GRADIENTS[kind, bsz]

    @pytest.mark.parametrize("kind", sorted(FEATURES))
    def test_features_near_reference(self, kind, monkeypatch):
        net = self._net(kind)
        windows = [self._inputs(bsz)[0] for bsz in self.FEATURES[kind]]
        got = [net.features(w) for w in windows]
        _use_reference_step(monkeypatch)
        for w, feats in zip(windows, got):
            want = net.features(w)
            assert feats.dtype == want.dtype == COMPUTE_DTYPE
            np.testing.assert_allclose(feats, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("kind,bsz", sorted(GRADIENTS))
    def test_loss_and_gradients_near_reference(self, kind, bsz, monkeypatch):
        net = self._net(kind).astype(np.float64)
        windows, prev, targets = self._inputs(bsz)
        prev = prev if net.state_dim else None
        loss, grads = net.loss_and_gradients(windows, prev, targets)
        _use_reference_step(monkeypatch)
        ref_loss, ref_grads = net.loss_and_gradients(windows, prev, targets)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
        for (name, _), g, ref in zip(net.params(), grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_saturated_gates_raise_no_warning(kind, dtype):
    """Every gate and dense pre-activation beyond +-100: each entry point
    stays finite, the predictions stay in [0, 1], and numpy warns of
    nothing."""
    rng = np.random.default_rng(9)
    net = build_net(kind, 4, 5, (3, 4), (4,), 3, STATE_INPUTS[kind])
    for name, arr in net.params():
        if name.endswith(".b"):
            arr[...] = rng.choice([-1000.0, 1000.0], arr.shape)
        else:
            arr[...] = rng.uniform(-1, 1, arr.shape)
    # every input of every layer lies in [-1, 1], so |a| >= |b| - sum |w|
    rows = [np.hstack([c.wx, c.wh, c.b[:, None]]) for c in net.cells]
    rows += [np.hstack([d.w, d.b[:, None]]) for d in net.head]
    assert min(np.abs(r[:, -1]).min() - np.abs(r[:, :-1]).sum(axis=1).max()
               for r in rows) > 100
    net = net.astype(dtype)
    windows = rng.uniform(-1, 1, (6, 8, 5))
    prev = rng.uniform(0, 1, (6, 3)) if net.state_dim else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        feats = net.features(windows)
        outputs = [net.forward(windows, prev), net.head_forward(feats, prev)]
        loss, grads = net.loss_and_gradients(windows, prev, rng.uniform(0, 1, (6, 3)))
    assert np.abs(feats).max() <= 1.0
    for out in outputs:
        assert ((out >= 0) & (out <= 1)).all()
        assert np.isin(out, [0.0, 1.0]).any()
    assert math.isfinite(loss)
    for arr in grads:
        assert np.isfinite(arr).all()


class TestL2Loss:
    def test_exact_match_zero(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert l2_loss(x, x) == 0.0

    def test_unit_error(self):
        assert l2_loss(np.ones((1, 3)), np.zeros((1, 3))) == pytest.approx(1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert l2_loss(rng.normal(size=(5, 3)), rng.normal(size=(5, 3))) >= 0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            l2_loss(np.zeros((2, 3)), np.zeros((3, 3)))


class TestBackward:
    def test_zero_error_zero_gradients(self):
        net = build_net("lstm", 0, 5, (3,), (4,), 3, 3)
        for _, arr in net.params():
            arr[...] = 0.0
        w = np.zeros((2, 6, 5))
        p = np.zeros((2, 3))
        targets = np.full((2, 3), 0.5)  # exactly the zero-weight output
        loss, grads = net.loss_and_gradients(w, p, targets)
        assert loss == 0.0
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_matches_finite_differences_small_net(self):
        rng = np.random.default_rng(3)
        net = build_net("lstm", 11, 5, (3, 4), (4,), 3, 3)
        w = rng.uniform(0, 1, (3, 5, 5))
        p = rng.uniform(0, 1, (3, 3))
        y = rng.uniform(0, 1, (3, 3))
        worst, _ = gradient_check(net, w, p, y, eps=1e-5)
        assert worst < 1e-4

    def test_unused_input_channel_has_zero_gradient(self):
        # input channel 4 identically zero -> its weight columns get no signal
        rng = np.random.default_rng(4)
        net = build_net("lstm", 2, 5, (3,), (4,), 3, 3)
        w = rng.uniform(0, 1, (4, 6, 5))
        w[:, :, 4] = 0.0
        _, grads = net.loss_and_gradients(w, rng.uniform(0, 1, (4, 3)),
                                          rng.uniform(0, 1, (4, 3)))
        wx_grad = grads[0]
        np.testing.assert_array_equal(wx_grad[:, 4], 0.0)
        assert np.abs(wx_grad[:, :4]).max() > 0

    def test_frozen_unit_bias_has_zero_gradient(self):
        # zero the column feeding dense unit 0 forward -> its bias is unused
        rng = np.random.default_rng(5)
        net = build_net("lstm", 2, 5, (3,), (4, 4), 3, 3)
        net.head[1].w[:, 0] = 0.0
        _, grads = net.loss_and_gradients(rng.uniform(0, 1, (4, 6, 5)),
                                          rng.uniform(0, 1, (4, 3)),
                                          rng.uniform(0, 1, (4, 3)))
        dense0_b = grads[-5]
        assert dense0_b[0] == 0.0
        assert np.abs(dense0_b[1:]).max() > 0


def _stacked_sum(a, b, out):
    """The stacked weight-gradient formula: every step's product a[t] @ b[t].T
    at once, then summed over the time axis."""
    out[...] = np.matmul(a, b.transpose(0, 2, 1)).sum(axis=0)
    return out


class TestStepSumGradients:
    """backward_seq sums each weight gradient step by step; the result is
    bit-equal to the stacked formula, kept here as the reference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("make", [_random_lstm, _random_gru])
    @pytest.mark.parametrize("t_len", [1, 12])
    def test_bit_equal_to_stacked_formula(self, monkeypatch, make, dtype, t_len):
        rng = np.random.default_rng(41)
        layer = make(in_dim=7, hidden=16, seed=41)
        layer = type(layer)(layer.wx.astype(dtype), layer.wh.astype(dtype),
                            layer.b.astype(dtype))
        x = rng.normal(0, 1, (t_len, 7, 37)).astype(dtype)
        hs, cache = layer.forward_seq(x)
        dh = rng.normal(0, 1, hs.shape).astype(dtype)
        dx, grads = layer.backward_seq(dh, cache)
        monkeypatch.setattr(layers, "_sum_over_steps", _stacked_sum)
        dx_ref, grads_ref = layer.backward_seq(dh, cache)
        assert dx.tobytes() == dx_ref.tobytes()
        assert sorted(grads) == ["b", "wh", "wx"]
        for name, g in grads.items():
            assert g.dtype == dtype
            assert g.tobytes() == grads_ref[name].tobytes(), name


class TestGradientCheckTool:
    def test_corruption_detected(self):
        rng = np.random.default_rng(6)
        net = build_net("lstm", 1, 5, (3, 4), (4,), 3, 3)
        w = rng.uniform(0, 1, (2, 5, 5))
        p = rng.uniform(0, 1, (2, 3))
        y = rng.uniform(0, 1, (2, 3))
        exact = net.loss_and_gradients

        def corrupted(*args):
            # scale the first layer's recurrent forget-gate rows of the gradient
            loss, grads = exact(*args)
            h = net.cells[0].hidden
            grads[1] = grads[1].copy()
            grads[1][h: 2 * h] *= 1.05
            return loss, grads

        net.loss_and_gradients = corrupted
        worst, _ = gradient_check(net, w, p, y)
        assert worst > 1e-2

    def test_large_eps_degrades(self):
        rng = np.random.default_rng(7)
        net = build_net("lstm", 1, 5, (3, 4), (4,), 3, 3)
        w = rng.uniform(0, 1, (2, 5, 5))
        p = rng.uniform(0, 1, (2, 3))
        y = rng.uniform(0, 1, (2, 3))
        tight, _ = gradient_check(net, w, p, y, eps=1e-5)
        loose, _ = gradient_check(net, w, p, y, eps=1e-1)
        assert loose > tight


class TestAdam:
    def test_zero_gradient_keeps_weights(self):
        w = [np.array([1.0, 2.0])]
        adam = Adam(w, lr=1e-3)
        adam.step(w, [np.zeros(2)])
        np.testing.assert_array_equal(w[0], [1.0, 2.0])
        assert adam.t == 1

    def test_first_step_size_is_lr(self):
        w = [np.array([0.0])]
        adam = Adam(w, lr=1e-3)
        adam.step(w, [np.array([1.0])])
        assert w[0][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_deterministic(self):
        def run():
            w = [np.array([0.3, -0.2])]
            adam = Adam(w, lr=0.01)
            for k in range(25):
                adam.step(w, [np.array([math.sin(k), math.cos(k)])])
            return w[0].copy()
        np.testing.assert_array_equal(run(), run())

    def test_memorizes_single_batch(self):
        # full-path sanity: 500 steps on one batch cut the loss >= 100x
        rng = np.random.default_rng(8)
        net = build_net("lstm", 9, 5, (4, 4), (6,), 3, 3)
        params = [a for _, a in net.params()]
        adam = Adam(params, lr=1e-2)
        w = rng.uniform(0, 1, (8, 10, 5))
        p = rng.uniform(0, 1, (8, 3))
        y = rng.uniform(0.2, 0.8, (8, 3))
        first, _ = net.loss_and_gradients(w, p, y)
        for _ in range(500):
            _, grads = net.loss_and_gradients(w, p, y)
            adam.step(params, grads)
        final = l2_loss(net.forward(w, p), y)
        assert final < first / 100


# SHA-256 of the weight file of TestWeightsIo's seed-21 network
PINNED_SHA256 = "1841610bc05e6fb505d00029e6f5e5da0028a011d327c29d47e11e2469f26a9c"


class TestWeightsIo:
    def _net(self):
        return build_net("lstm", 21, 5, (3, 4), (4,), 3, 3)

    def test_round_trip_bit_exact(self, tmp_path):
        net = self._net()
        path = tmp_path / "w.weights"
        save_weights(net, path)
        back = load_weights(path)
        for (na, a), (nb, b) in zip(net.params(), back.params()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        assert back.kind == "lstm"
        assert back.state_dim == 3

    def test_gru_round_trip(self, tmp_path):
        net = build_net("gru", 4, 5, (3,), (4,), 3, 0)
        path = tmp_path / "g.weights"
        save_weights(net, path)
        back = load_weights(path)
        for (_, a), (_, b) in zip(net.params(), back.params()):
            np.testing.assert_array_equal(a, b)

    def _saved(self, tmp_path):
        path = tmp_path / "w.weights"
        save_weights(self._net(), path)
        return path

    def test_truncation_is_corruption(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(DataFormatError, match="w.weights: payload is"):
            load_weights(path)

    @pytest.mark.parametrize("size", [14, 15, 40])
    def test_truncated_header_reads_as_truncated(self, tmp_path, size):
        # 14 bytes is the version line without its "\n"
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(DataFormatError,
                           match="w.weights: header ends before the payload line"):
            load_weights(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_line_alone_asks_to_retrain(self, tmp_path, version):
        path = tmp_path / "old.weights"
        path.write_bytes(f"vobs-weights {version}".encode())
        self._assert_asks_to_retrain(path)

    def test_future_version_rejected_before_load(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes().replace(b"vobs-weights 3\n", b"vobs-weights 4\n", 1)
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match="w.weights: weight format version 4 is not"):
            load_weights(path)

    def test_shape_mismatch_detected(self, tmp_path):
        # the same byte count, so only the layer constructors can catch it
        path = self._saved(tmp_path)
        data = path.read_bytes().replace(b"\narray dense1.w 3 4\n",
                                         b"\narray dense1.w 4 3\n", 1)
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match="w.weights: array lines do not form a"):
            load_weights(path)

    def test_array_lines_that_form_no_network_are_shape_errors(self, tmp_path):
        # each edit leaves the payload and its SHA-256 intact
        edits = (
            # a renamed tensor: the stack stops at lstm0, and lstm9.wx is left over
            ("not the tensors", lambda d: d.replace(b"\narray lstm1.wx ",
                                                    b"\narray lstm9.wx ", 1)),
            ("unknown cell kind 'rnn'", lambda d: d.replace(b"\narray lstm", b"\narray rnn")),
            # the first dense layer takes 2 inputs but the last hidden width is
            # 4, so the state input would be -2 wide; a third dense layer keeps
            # the byte count
            ("takes 2 inputs, fewer than the 4 of the last hidden layer", lambda d: d.replace(
                b"\narray dense0.w 4 7\n", b"\narray dense0.w 4 2\n", 1).replace(
                b"\npayload ", b"\narray dense2.w 5 3\narray dense2.b 5\npayload ", 1)),
        )
        for reason, edit in edits:
            path = self._saved(tmp_path)
            data = path.read_bytes()
            path.write_bytes(edit(data))
            assert path.read_bytes() != data
            with pytest.raises(DataFormatError, match=f"w.weights.*{reason}"):
                load_weights(path)

    def test_garbage_file_is_corruption(self, tmp_path):
        path = tmp_path / "junk.weights"
        path.write_text("not a weight file\n")
        with pytest.raises(DataFormatError, match="junk.weights: not a weight file"):
            load_weights(path)

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01  # a low mantissa bit: still a finite float
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="w.weights: payload does not match its SHA-256"):
            load_weights(path)

    def test_short_payload_is_corruption(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])  # one whole float missing
        with pytest.raises(DataFormatError, match="w.weights: payload is [0-9]+ bytes, expected"):
            load_weights(path)

    def _old_header(self, version):
        return [f"vobs-weights {version}", "kind lstm", "init_seed 21", "in_dim 5",
                "state_dim 3", "hidden 3 4", "dense 4 3", "output_activation sigmoid"]

    def _assert_asks_to_retrain(self, path):
        with pytest.raises(DataFormatError, match="weight format version [12] is not") as raised:
            load_weights(path)
        assert path.name in str(raised.value)
        assert "vobs train" in str(raised.value)

    def test_text_v1_file_asks_to_retrain(self, tmp_path):
        lines = self._old_header(1)
        for name, arr in self._net().params():
            lines.append(f"array {name} {' '.join(str(d) for d in arr.shape)}")
            lines.append(" ".join(repr(float(v)) for v in arr.ravel()))
        path = tmp_path / "old.weights"
        path.write_text("\n".join(lines + ["end"]) + "\n")
        self._assert_asks_to_retrain(path)

    def test_v2_file_asks_to_retrain(self, tmp_path):
        # v2 restated the architecture in header lines above the array lines
        data = self._saved(tmp_path).read_bytes()
        first = data.index(b"\n") + 1
        head = "\n".join(self._old_header(2)) + "\n"
        path = tmp_path / "v2.weights"
        path.write_bytes(head.encode() + data[first:])
        self._assert_asks_to_retrain(path)

    def test_file_bytes_are_pinned(self, tmp_path):
        # any change to the layout or the payload encoding changes this digest
        digest = hashlib.sha256(self._saved(tmp_path).read_bytes()).hexdigest()
        assert digest == PINNED_SHA256


class TestDeterminism:
    def test_identical_training_run(self):
        rng = np.random.default_rng(10)
        w = rng.uniform(0, 1, (32, 8, 5))
        p = rng.uniform(0, 1, (32, 3))
        y = rng.uniform(0, 1, (32, 3))

        def train_once():
            net = build_net("lstm", 13, 5, (3, 4), (4,), 3, 3)
            params = [a for _, a in net.params()]
            adam = Adam(params, lr=1e-3)
            for lo in range(0, 32, 8):
                _, grads = net.loss_and_gradients(w[lo:lo + 8], p[lo:lo + 8],
                                                  y[lo:lo + 8])
                adam.step(params, grads)
            return net.copy_weights()

        for a, b in zip(train_once(), train_once()):
            np.testing.assert_array_equal(a, b)

    def test_gradient_fidelity_many_seeds(self):
        # randomized small networks, a slice of the acceptance sweep
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            net = build_net("lstm", seed, 5, (3, 4), (4,), 3, 3)
            w = rng.uniform(0, 1, (2, 5, 5))
            p = rng.uniform(0, 1, (2, 3))
            y = rng.uniform(0, 1, (2, 3))
            err, _ = gradient_check(net, w, p, y)
            worst = max(worst, err)
        assert worst < 1e-4

    def test_gru_gradient_fidelity_many_seeds(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            net = build_net("gru", seed, 5, (3, 4), (4,), 3, 0)
            w = rng.uniform(0, 1, (2, 5, 5))
            y = rng.uniform(0, 1, (2, 3))
            err, _ = gradient_check(net, w, None, y)
            worst = max(worst, err)
        assert worst < 1e-4
