import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vobs.errors import ConfigError, NumericalError
from vobs.neural import (
    COMPUTE_DTYPE,
    Adam,
    Dense,
    GruLayer,
    LstmLayer,
    RecurrentRegressor,
    gradient_check,
    gru_cell_forward,
    gru_observer_net,
    l2_loss,
    load_weights,
    lstm_cell_forward,
    lstm_observer_net,
    save_weights,
)
from vobs.neural import layers
from vobs.neural.weights_io import (
    WeightsCorruptionError,
    WeightsShapeError,
    WeightsVersionError,
)


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


class TestLstmCell:
    def test_all_zero_weights_zero_cell(self):
        layer = _zero_lstm()
        h, c = lstm_cell_forward(np.zeros(3), np.zeros(1), np.zeros(1), layer)
        assert h == pytest.approx(0.0)
        assert c == pytest.approx(0.0)

    def test_zero_weights_unit_cell_state(self):
        # gates all sigmoid(0)=0.5, candidate tanh(0)=0:
        # c = 0.5*1 + 0.5*0 = 0.5, h = 0.5*tanh(0.5)
        layer = _zero_lstm()
        h, c = lstm_cell_forward(np.zeros(3), np.zeros(1), np.ones(1), layer)
        assert c == pytest.approx(0.5, abs=1e-15)
        assert h == pytest.approx(0.5 * math.tanh(0.5), abs=1e-12)

    def test_matches_independent_transcription(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for trial in range(1000):
            in_dim = int(rng.integers(1, 6))
            hidden = int(rng.integers(1, 6))
            layer = _random_lstm(in_dim, hidden, seed=trial)
            x = rng.normal(0, 1, in_dim)
            h_prev = rng.normal(0, 1, hidden)
            c_prev = rng.normal(0, 1, hidden)
            h, c = lstm_cell_forward(x, h_prev, c_prev, layer)
            hh = layer.hidden
            ho, co = lstm_cell_oracle(
                x, h_prev, c_prev,
                layer.wx[:hh], layer.wx[hh:2 * hh], layer.wx[2 * hh:3 * hh],
                layer.wx[3 * hh:],
                layer.wh[:hh], layer.wh[hh:2 * hh], layer.wh[2 * hh:3 * hh],
                layer.wh[3 * hh:],
                layer.b[:hh], layer.b[hh:2 * hh], layer.b[2 * hh:3 * hh],
                layer.b[3 * hh:])
            worst = max(worst, np.abs(h - ho).max(), np.abs(c - co).max())
        assert worst < 1e-12

    def test_shape_mismatch_rejected_at_construction(self):
        with pytest.raises(ValueError):
            LstmLayer(np.zeros((4, 3)), np.zeros((4, 2)), np.zeros(4))


class TestGruCell:
    def test_zero_weights_zero_input(self):
        layer = GruLayer(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros(3))
        h = gru_cell_forward(np.zeros(2), np.zeros(1), layer)
        assert h == pytest.approx(0.0)

    def test_matches_independent_transcription(self):
        rng = np.random.default_rng(777)
        worst = 0.0
        for trial in range(1000):
            in_dim = int(rng.integers(1, 6))
            hidden = int(rng.integers(1, 6))
            layer = _random_gru(in_dim, hidden, seed=trial)
            x = rng.normal(0, 1, in_dim)
            h_prev = rng.normal(0, 1, hidden)
            h = gru_cell_forward(x, h_prev, layer)
            hh = layer.hidden
            ho = gru_cell_oracle(
                x, h_prev,
                layer.wx[:hh], layer.wx[hh:2 * hh], layer.wx[2 * hh:],
                layer.wh[:hh], layer.wh[hh:2 * hh], layer.wh[2 * hh:],
                layer.b[:hh], layer.b[hh:2 * hh], layer.b[2 * hh:])
            worst = max(worst, np.abs(h - ho).max())
        assert worst < 1e-12


class TestSequenceMatchesCell:
    """forward_seq over T steps is T calls of the single-step cell function,
    with the BPTT cache kept and without it; T of 1 and 2 cover the first
    steps of the rolling cell-state buffers."""

    B = 4

    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("t_len", [1, 2, 6])
    def test_lstm(self, t_len, keep_cache):
        rng = np.random.default_rng(31)
        layer = _random_lstm(in_dim=3, hidden=5, seed=31)
        x = rng.normal(0, 1, (t_len, self.B, 3))
        hs, cache = layer.forward_seq(np.ascontiguousarray(x.transpose(0, 2, 1)),
                                      keep_cache=keep_cache)
        assert (cache is None) != keep_cache
        assert hs.shape == (t_len, 5, self.B)
        h = np.zeros((self.B, 5))
        c = np.zeros((self.B, 5))
        for t in range(t_len):
            h, c = lstm_cell_forward(x[t], h, c, layer)
            np.testing.assert_allclose(hs[t].T, h, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("t_len", [1, 2, 6])
    def test_gru(self, t_len, keep_cache):
        rng = np.random.default_rng(32)
        layer = _random_gru(in_dim=3, hidden=5, seed=32)
        x = rng.normal(0, 1, (t_len, self.B, 3))
        hs, cache = layer.forward_seq(np.ascontiguousarray(x.transpose(0, 2, 1)),
                                      keep_cache=keep_cache)
        assert (cache is None) != keep_cache
        assert hs.shape == (t_len, 5, self.B)
        h = np.zeros((self.B, 5))
        for t in range(t_len):
            h = gru_cell_forward(x[t], h, layer)
            np.testing.assert_allclose(hs[t].T, h, rtol=0, atol=1e-12)


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
        net = lstm_observer_net(seed=0, in_dim=5, hidden=(3,), dense=(4,),
                                out_dim=3, state_dim=3)
        for _, arr in net.params():
            arr[...] = 0.0
        out = net.forward(np.zeros((1, 7, 5)), np.zeros((1, 3)))
        np.testing.assert_allclose(out, 0.5)

    def test_output_in_unit_cube(self):
        net = lstm_observer_net(seed=3, in_dim=5, hidden=(4, 5), dense=(6,),
                                out_dim=3, state_dim=3)
        rng = np.random.default_rng(0)
        out = net.forward(rng.normal(0, 5, (8, 10, 5)), rng.normal(0, 5, (8, 3)))
        assert (out > 0).all() and (out < 1).all()

    def test_regression_pin(self):
        # frozen once from the finite-difference-verified implementation
        net = lstm_observer_net(seed=42, in_dim=5, hidden=(3, 4), dense=(4,),
                                out_dim=3, state_dim=3)
        rng = np.random.default_rng(7)
        w = rng.uniform(0, 1, (1, 6, 5))
        p = rng.uniform(0, 1, (1, 3))
        out = net.forward(w, p)
        np.testing.assert_allclose(
            out[0],
            [0.42073510709702777, 0.5486569876768487, 0.5576206851367885],
            atol=1e-12)

    def test_hidden_states_bounded(self):
        net = lstm_observer_net(seed=5, in_dim=5, hidden=(6, 7), dense=(4,),
                                out_dim=3, state_dim=3)
        rng = np.random.default_rng(2)
        feats = net.features(rng.normal(0, 3, (16, 20, 5)))
        assert np.abs(feats).max() < 1.0

    def test_nonfinite_input_identified(self):
        net = lstm_observer_net(seed=0, in_dim=5, hidden=(3,), dense=(4,),
                                out_dim=3, state_dim=3)
        w = np.zeros((1, 7, 5))
        w[0, 4, 2] = np.nan
        with pytest.raises(NumericalError, match="layer 0 at step 4"):
            net.forward(w, np.zeros((1, 3)))

    def test_nonfinite_input_identified_gru(self):
        net = gru_observer_net(seed=0, in_dim=5, hidden=(3,), dense=(4,), out_dim=3)
        w = np.zeros((1, 7, 5))
        w[0, 4, 2] = np.nan
        with pytest.raises(NumericalError, match="gru layer 0 at step 4"):
            net.forward(w)

    def test_gru_net_has_no_state_input(self):
        net = gru_observer_net(seed=1, in_dim=5, hidden=(3,), dense=(4,), out_dim=3)
        with pytest.raises(ConfigError):
            net.forward(np.zeros((1, 7, 5)), np.zeros((1, 3)))


class TestNetworkGoldenBits:
    """SHA-256 of what the default float32 nets compute on 50-step windows:
    `features` at an odd batch width, and the loss plus every gradient at
    the two training shard widths. Any reordering of the layers' float
    arithmetic changes them; they assume OpenBLAS GEMMs that round as the
    ones they were pinned with."""

    T = 50
    FEATURES = {
        "lstm": "b6616a5d1021ff669036b6db74acd12e9ef7722d89414cc7d8ab4c7fbf243c82",
        "gru": "5658bb957d26bb7c2af3304d4a706a47e565517176b831299c0da65a2482b8eb",
    }
    GRADIENTS = {
        ("lstm", 128): "f40ab36c5c3f23aa1492900096b108c9af25b68e03b34aaf05a277a56205444b",
        ("lstm", 92): "b13ed5a3481363ad6f2ada090cdc9246ac421f812973df7b154c27656ca342ec",
        ("gru", 128): "f8d99c2d8396998b7b57c4d3b8e6c701673375f197a183d80098450dc5d6c898",
        ("gru", 92): "c5b5cad9ed81ff0de123acd2234efd582235189b4f5851b558ae84082bb4e3b7",
    }

    @staticmethod
    def _net(kind):
        make = lstm_observer_net if kind == "lstm" else gru_observer_net
        return make(seed=3).astype(COMPUTE_DTYPE)

    def _inputs(self, bsz):
        rng = np.random.default_rng(bsz)
        return (rng.normal(0, 1, (bsz, self.T, 5)), rng.uniform(0, 1, (bsz, 3)),
                rng.uniform(0, 1, (bsz, 3)))

    @pytest.mark.parametrize("kind", sorted(FEATURES))
    def test_features(self, kind):
        windows, _, _ = self._inputs(113)
        feats = self._net(kind).features(windows)
        assert hashlib.sha256(feats.tobytes()).hexdigest() == self.FEATURES[kind]

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
        net = lstm_observer_net(seed=0, in_dim=5, hidden=(3,), dense=(4,),
                                out_dim=3, state_dim=3)
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
        net = lstm_observer_net(seed=11, in_dim=5, hidden=(3, 4), dense=(4,),
                                out_dim=3, state_dim=3)
        w = rng.uniform(0, 1, (3, 5, 5))
        p = rng.uniform(0, 1, (3, 3))
        y = rng.uniform(0, 1, (3, 3))
        worst, _ = gradient_check(net, w, p, y, eps=1e-5)
        assert worst < 1e-4

    def test_unused_input_channel_has_zero_gradient(self):
        # input channel 4 identically zero -> its weight columns get no signal
        rng = np.random.default_rng(4)
        net = lstm_observer_net(seed=2, in_dim=5, hidden=(3,), dense=(4,),
                                out_dim=3, state_dim=3)
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
        net = lstm_observer_net(seed=2, in_dim=5, hidden=(3,), dense=(4, 4),
                                out_dim=3, state_dim=3)
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
        net = lstm_observer_net(seed=1, in_dim=5, hidden=(3, 4), dense=(4,),
                                out_dim=3, state_dim=3)
        w = rng.uniform(0, 1, (2, 5, 5))
        p = rng.uniform(0, 1, (2, 3))
        y = rng.uniform(0, 1, (2, 3))
        worst, _ = gradient_check(net, w, p, y, corrupt_forget_gate=True)
        assert worst > 1e-2

    def test_large_eps_degrades(self):
        rng = np.random.default_rng(7)
        net = lstm_observer_net(seed=1, in_dim=5, hidden=(3, 4), dense=(4,),
                                out_dim=3, state_dim=3)
        w = rng.uniform(0, 1, (2, 5, 5))
        p = rng.uniform(0, 1, (2, 3))
        y = rng.uniform(0, 1, (2, 3))
        tight, _ = gradient_check(net, w, p, y, eps=1e-5)
        loose, _ = gradient_check(net, w, p, y, eps=1e-1)
        assert loose > tight


class TestAdam:
    def test_zero_gradient_keeps_weights(self):
        w = [np.array([1.0, 2.0])]
        adam = Adam(w)
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
        net = lstm_observer_net(seed=9, in_dim=5, hidden=(4, 4), dense=(6,),
                                out_dim=3, state_dim=3)
        params = [a for _, a in net.params()]
        adam = Adam(params, lr=1e-2)
        w = rng.uniform(0, 1, (8, 10, 5))
        p = rng.uniform(0, 1, (8, 3))
        y = rng.uniform(0.2, 0.8, (8, 3))
        first, _ = net.loss_and_gradients(w, p, y)
        for _ in range(500):
            _, grads = net.loss_and_gradients(w, p, y)
            adam.step(params, grads)
        final = net.loss(w, p, y)
        assert final < first / 100


# SHA-256 of the weight file of TestWeightsIo's seed-21 network
PINNED_SHA256 = "92ad5e0aa5435a1e354a5b327444d35fb550d6e0311fa16bed5cba84e6f1ffe9"


class TestWeightsIo:
    def _net(self):
        return lstm_observer_net(seed=21, in_dim=5, hidden=(3, 4), dense=(4,),
                                 out_dim=3, state_dim=3)

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
        net = gru_observer_net(seed=4, in_dim=5, hidden=(3,), dense=(4,), out_dim=3)
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
        with pytest.raises(WeightsCorruptionError):
            load_weights(path)

    def test_future_version_rejected_before_load(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes().replace(b"vobs-weights 2\n", b"vobs-weights 3\n", 1)
        path.write_bytes(data)
        with pytest.raises(WeightsVersionError):
            load_weights(path)

    def test_shape_mismatch_detected(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes().replace(b"\nhidden 3 4\n", b"\nhidden 4 3\n", 1)
        path.write_bytes(data)
        with pytest.raises(WeightsShapeError):
            load_weights(path)

    def test_bad_header_sizes_are_shape_errors(self, tmp_path):
        # each edit leaves the payload and its SHA-256 intact
        for old, new in ((b"\nhidden 3 4\n", b"\nhidden \n"),
                         (b"\ndense 4 3\n", b"\ndense \n"),
                         (b"\nin_dim 5\n", b"\nin_dim 0\n"),
                         (b"\noutput_activation sigmoid\n",
                          b"\noutput_activation identity\n")):
            path = self._saved(tmp_path)
            path.write_bytes(path.read_bytes().replace(old, new, 1))
            with pytest.raises(WeightsShapeError, match="w.weights"):
                load_weights(path)

    def test_garbage_file_is_corruption(self, tmp_path):
        path = tmp_path / "junk.weights"
        path.write_text("not a weight file\n")
        with pytest.raises(WeightsCorruptionError):
            load_weights(path)

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01  # a low mantissa bit: still a finite float
        path.write_bytes(bytes(data))
        with pytest.raises(WeightsCorruptionError, match="SHA-256"):
            load_weights(path)

    def test_short_payload_is_corruption(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])  # one whole float missing
        with pytest.raises(WeightsCorruptionError, match="payload is"):
            load_weights(path)

    def test_text_v1_file_asks_to_retrain(self, tmp_path):
        net = self._net()
        lines = ["vobs-weights 1", "kind lstm", "init_seed 21", "in_dim 5",
                 "state_dim 3", "hidden 3 4", "dense 4 3", "output_activation sigmoid"]
        for name, arr in net.params():
            lines.append(f"array {name} {' '.join(str(d) for d in arr.shape)}")
            lines.append(" ".join(repr(float(v)) for v in arr.ravel()))
        path = tmp_path / "old.weights"
        path.write_text("\n".join(lines + ["end"]) + "\n")
        with pytest.raises(WeightsVersionError) as raised:
            load_weights(path)
        assert "old.weights" in str(raised.value)
        assert "vobs train" in str(raised.value)

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
            net = lstm_observer_net(seed=13, in_dim=5, hidden=(3, 4), dense=(4,),
                                    out_dim=3, state_dim=3)
            params = [a for _, a in net.params()]
            adam = Adam(params)
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
            net = lstm_observer_net(seed=seed, in_dim=5, hidden=(3, 4), dense=(4,),
                                    out_dim=3, state_dim=3)
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
            net = gru_observer_net(seed=seed, in_dim=5, hidden=(3, 4), dense=(4,),
                                   out_dim=3)
            w = rng.uniform(0, 1, (2, 5, 5))
            y = rng.uniform(0, 1, (2, 3))
            err, _ = gradient_check(net, w, None, y)
            worst = max(worst, err)
        assert worst < 1e-4
