"""Tolerance gate for the float32 compute path.

Training and evaluation run a float32 copy of each network while the float64
network stays the master. These tests bound how far the float32 results may
drift from the float64 ones on the same weights: closed-loop and GRU traces
over a simulated maneuver, and the losses of a short training run.
"""

import numpy as np
import pytest

from conftest import circle_script
from gradcheck import gradient_check
from test_observer_lstm import _toy_dataset
from vobs.baselines import run_gru
from vobs.dataset import NoiseSpec, fit_scaler
from vobs.errors import ConfigError
from vobs.neural import (
    COMPUTE_DTYPE,
    Adam,
    TrainConfig,
    build_net,
    l2_loss,
    load_weights,
    save_weights,
)
from vobs.observer_lstm import observer_net, run_closed_loop, train_observer
from vobs.simulator import SensorNoiseSpec, run_maneuver

# float32 carries about 7 significant digits; 1e-4 leaves room for the
# rounding that the closed loop feeds back over hundreds of steps
RTOL = 1e-4


@pytest.fixture(scope="module")
def maneuver():
    """A 600-frame noisy constant-radius turn and a scaler fitted to it."""
    traj = run_maneuver(circle_script(duration_s=12.0), SensorNoiseSpec(seed=7))
    assert len(traj) >= 400
    return traj, fit_scaler([traj])


def _assert_traces_close(trace32, trace64, scaler):
    """Each channel's largest difference, relative to the channel's span in
    the scaled target space, stays within RTOL."""
    assert trace32.dtype == np.float64
    span = scaler.state_max - scaler.state_min
    rel = np.abs(trace32 - trace64).max(axis=0) / span
    assert (rel <= RTOL).all(), rel
    assert not np.array_equal(trace32, trace64)


class TestInferenceGate:
    def test_closed_loop_lstm_matches_float64(self, maneuver):
        traj, scaler = maneuver
        net = observer_net("lstm", 4)
        initial = traj.state_channels()[0]
        trace64 = run_closed_loop(traj, initial, net, scaler, 50)
        trace32 = run_closed_loop(traj, initial, net.astype(COMPUTE_DTYPE), scaler, 50)
        _assert_traces_close(trace32, trace64, scaler)

    def test_gru_matches_float64(self, maneuver):
        traj, scaler = maneuver
        net = observer_net("gru", 4)
        initial = traj.state_channels()[0]
        trace64 = run_gru(traj, initial, net, scaler, 50)
        trace32 = run_gru(traj, initial, net.astype(COMPUTE_DTYPE), scaler, 50)
        _assert_traces_close(trace32, trace64, scaler)


class TestCast:
    def test_astype_copies_and_computes_in_dtype(self):
        net = build_net("lstm", 1, 5, (4, 5), (6,), 3, 3)
        low = net.astype(COMPUTE_DTYPE)
        assert low.dtype == COMPUTE_DTYPE and net.dtype == np.float64
        assert all(a.dtype == COMPUTE_DTYPE for _, a in low.params())
        for (_, a), (_, b) in zip(low.params(), net.params()):
            assert not np.shares_memory(a, b)
            np.testing.assert_array_equal(a, b.astype(COMPUTE_DTYPE))
        rng = np.random.default_rng(0)
        windows = rng.uniform(0, 1, (3, 7, 5))
        prev = rng.uniform(0, 1, (3, 3))
        targets = rng.uniform(0, 1, (3, 3))
        assert low.features(windows).dtype == COMPUTE_DTYPE
        assert low.forward(windows, prev).dtype == COMPUTE_DTYPE
        loss, grads = low.loss_and_gradients(windows, prev, targets)
        assert isinstance(loss, float)
        assert all(g.dtype == COMPUTE_DTYPE for g in grads)

    def test_gru_layers_follow_dtype(self):
        low = build_net("gru", 1, 5, (4, 5), (6,), 3, 0).astype(COMPUTE_DTYPE)
        rng = np.random.default_rng(1)
        _, grads = low.loss_and_gradients(rng.uniform(0, 1, (2, 6, 5)), None,
                                          rng.uniform(0, 1, (2, 3)))
        assert all(g.dtype == COMPUTE_DTYPE for g in grads)

    def test_gradient_check_refuses_float32(self):
        net = build_net("lstm", 0, 5, (3,), (4,), 3, 3).astype(COMPUTE_DTYPE)
        rng = np.random.default_rng(2)
        with pytest.raises(ConfigError, match="float64"):
            gradient_check(net, rng.uniform(0, 1, (2, 5, 5)), rng.uniform(0, 1, (2, 3)),
                           rng.uniform(0, 1, (2, 3)))


class TestMixedPrecisionTraining:
    EPOCHS = 3
    BATCH = 64

    def _net(self):
        return build_net("lstm", 2, 5, (8, 8), (8,), 3, 3)

    def _reference_log(self, train, val):
        """The same schedule computed entirely in float64 on one net."""
        net = self._net()
        params = [arr for _, arr in net.params()]
        adam = Adam(params, lr=3e-3)
        log = []
        for _ in range(self.EPOCHS):
            total = 0.0
            for lo in range(0, len(train), self.BATCH):
                windows, prev_state, target = train.batch(slice(lo, lo + self.BATCH))
                loss, grads = net.loss_and_gradients(windows, prev_state, target)
                adam.step(params, grads)
                total += loss * windows.shape[0]
            windows, prev_state, target = val.batch(slice(None))
            val_loss = l2_loss(net.forward(windows, prev_state), target)
            log.append((total / len(train), val_loss))
        return log

    def test_losses_match_float64_and_master_round_trips(self, tmp_path):
        train, val, scaler = _toy_dataset()
        tc = TrainConfig(epochs=self.EPOCHS, batch_size=self.BATCH,
                         learning_rate=3e-3, seed=2, shuffle=False)
        net, log = train_observer(train, val, scaler, NoiseSpec(0.0, 0.0), tc,
                                  net=self._net())

        reference = self._reference_log(train, val)
        for entry, (train_ref, val_ref) in zip(log, reference, strict=True):
            assert entry["train_loss"] == pytest.approx(train_ref, rel=RTOL)
            assert entry["val_loss"] == pytest.approx(val_ref, rel=RTOL)

        assert all(arr.dtype == np.float64 for _, arr in net.params())
        path = tmp_path / "master.weights"
        save_weights(net, path)
        back = load_weights(path)
        for (name, a), (_, b) in zip(net.params(), back.params(), strict=True):
            assert b.dtype == np.float64, name
            np.testing.assert_array_equal(a, b, err_msg=name)
