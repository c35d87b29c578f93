import dataclasses

import numpy as np
import pytest

from vobs import observer_lstm
from vobs.artifacts import read_csv
from vobs.dataset import NoiseSpec, ScalerParams, fit_scaler, make_windows
from vobs.errors import ConfigError, DataFormatError, NumericalError
from vobs.neural import RecurrentRegressor, TrainConfig, build_net
from vobs.observer_lstm import (
    TRACE_COLUMNS,
    run_closed_loop,
    train_observer,
    write_trace_csv,
)
from vobs.simulator import SensorNoiseSpec, run_maneuver

from conftest import sensor_traj, straight_script


def _scaler():
    lo = np.array([-5.0, -5.0, -1.0, 0.0, -0.5])
    hi = np.array([5.0, 5.0, 1.0, 30.0, 0.5])
    return ScalerParams(lo, hi, np.array([0.0, -2.0, -1.0]),
                        np.array([30.0, 2.0, 1.0]))


def _zero_net():
    net = build_net("lstm", 0, 5, (3,), (4,), 3, 3)
    for _, arr in net.params():
        arr[...] = 0.0
    return net


def _naive_step(raw_window, prev, net, scaler):
    """One observer step written out: scale, run the whole net, unscale."""
    out = net.forward(scaler.scale_sensors(raw_window), scaler.scale_state(prev))
    return scaler.unscale_state(out[0])


class TestEstimateStep:
    """Single closed-loop steps, through `run_closed_loop`."""

    def test_zero_weights_give_channel_midpoints(self):
        scaler = _scaler()
        est = run_closed_loop(sensor_traj(np.zeros((12, 5))), np.array([10.0, 0.0, 0.0]),
                              _zero_net(), scaler, 10)
        mid = 0.5 * (scaler.state_min + scaler.state_max)
        np.testing.assert_allclose(est[9:], np.tile(mid, (3, 1)), atol=1e-12)

    def test_pure_function(self):
        net = build_net("lstm", 5, 5, (3,), (4,), 3, 3)
        traj = sensor_traj(np.random.default_rng(0).normal(0, 1, (12, 5)))
        prev = np.array([12.0, 0.1, 0.05])
        a = run_closed_loop(traj, prev, net, _scaler(), 8)
        b = run_closed_loop(traj, prev, net, _scaler(), 8)
        np.testing.assert_array_equal(a, b)

    def test_matches_manual_composition(self):
        scaler = _scaler()
        net = build_net("lstm", 5, 5, (3,), (4,), 3, 3)
        raw = np.random.default_rng(1).normal(0, 1, (8, 5))
        prev = np.array([12.0, 0.1, 0.05])
        got = run_closed_loop(sensor_traj(raw), prev, net, scaler, 8)[7]
        assert np.abs(got - _naive_step(raw, prev, net, scaler)).max() < 1e-12

    def test_wrong_window_shape_rejected(self):
        # one frame short of a full window
        with pytest.raises(ConfigError):
            run_closed_loop(sensor_traj(np.zeros((7, 5))), np.zeros(3), _zero_net(),
                            _scaler(), 8)


class TestRunClosedLoop:
    def _raw(self, n=120, seed=2):
        rng = np.random.default_rng(seed)
        raw = rng.normal(0, 0.3, (n, 5))
        raw[:, 3] = 15.0 + rng.normal(0, 0.05, n)
        return raw

    def test_trace_length_and_warmup(self):
        net = build_net("lstm", 6, 5, (3,), (4,), 3, 3)
        initial = np.array([15.0, 0.0, 0.0])
        est = run_closed_loop(sensor_traj(self._raw()), initial, net, _scaler(), 50)
        assert est.shape == (120, 3)
        np.testing.assert_array_equal(est[:49], np.tile(initial, (49, 1)))

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            run_closed_loop(sensor_traj(self._raw(n=30)), np.zeros(3), _zero_net(),
                            _scaler(), 50)

    def test_matches_naive_stepping(self, monkeypatch):
        # feature batches of 7 windows, so one batch ends mid-trace
        monkeypatch.setattr(observer_lstm, "FEATURE_BATCH", 7)
        scaler = _scaler()
        net = build_net("lstm", 7, 5, (3, 4), (4,), 3, 3)
        raw = self._raw(n=60)
        initial = np.array([15.0, 0.1, 0.02])
        got = run_closed_loop(sensor_traj(raw), initial, net, scaler, 20)
        prev = initial
        for t in range(19, 60):
            est = _naive_step(raw[t - 19: t + 1], prev, net, scaler)
            assert np.abs(est - got[t]).max() < 1e-9
            prev = got[t]

    def test_no_ground_truth_leakage(self):
        # the trace depends only on sensors and the provided initial state
        traj = run_maneuver(straight_script(duration_s=4.0),
                            SensorNoiseSpec(seed=4))
        net = build_net("lstm", 8, 5, (3,), (4,), 3, 3)
        initial = traj.state_channels()[0]
        full = run_closed_loop(traj, initial, net, _scaler(), 50)
        stripped = sensor_traj(traj.sensor_channels())  # sensors only, truth zeroed
        again = run_closed_loop(stripped, initial, net, _scaler(), 50)
        np.testing.assert_array_equal(full, again)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        t_s = np.arange(5) * 0.02
        est = np.random.default_rng(0).normal(size=(5, 3))
        path = tmp_path / "trace.csv"
        write_trace_csv(est, path, t_s)
        back = np.array(read_csv(path, TRACE_COLUMNS), dtype=np.float64)
        np.testing.assert_array_equal(back[:, 0], t_s)
        np.testing.assert_array_equal(back[:, 1:], est)

    @pytest.mark.parametrize("text, line", [
        ("t,vx,vy,yaw_rate\n0.0,1.0,2.0,3.0\n", 1),
        ("", 1),
        ("t,vx_est,vy_est,yaw_rate_est\n0.0,1.0,2.0,3.0\n0.02,1.0,2.0\n", 3),
    ], ids=["bad_header", "empty", "field_count"])
    def test_malformed_trace_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"trace.csv:{line}:"):
            read_csv(path, TRACE_COLUMNS)


def _toy_dataset(n_traj=6, n=160, seed=0):
    """Windowed data from synthetic trajectories with a learnable pattern."""
    rng = np.random.default_rng(seed)
    trajs = []
    for k in range(n_traj):
        t = np.arange(n) * 0.02
        vx = 12 + 3 * np.sin(0.3 * t + k)
        vy = 0.2 * np.sin(0.7 * t + k)
        r = 0.1 * np.sin(0.5 * t + 2 * k)
        sensors = np.column_stack([
            t,
            np.gradient(vx, 0.02) + rng.normal(0, 0.05, n),
            np.gradient(vy, 0.02) + rng.normal(0, 0.05, n),
            r + rng.normal(0, 0.002, n),
            vx + 0.75 * r + rng.normal(0, 0.03, n),
            0.1 * r + rng.normal(0, 0.001, n),
        ])
        truth = np.zeros((n, 10))
        truth[:, 0] = t
        truth[:, 4] = vx
        truth[:, 5] = vy
        truth[:, 6] = r
        from vobs.domain import Trajectory
        trajs.append(Trajectory(sensors, truth, label=f"toy#{k}"))
    scaler = fit_scaler(trajs[:4])
    train = make_windows(trajs[:4], scaler, 30)
    val = make_windows(trajs[4:], scaler, 30)
    return train, val, scaler


class TestTrainObserver:
    def test_loss_decreases_and_best_epoch_consistent(self):
        train, val, scaler = _toy_dataset()
        tc = TrainConfig(epochs=3, batch_size=64, learning_rate=3e-3, seed=2)
        net = build_net("lstm", tc.seed, 5, (4, 4), (8,), 3, 3)
        net, log = train_observer(train, val, scaler, NoiseSpec(seed=1), tc, net=net)
        assert len(log) == 3
        assert log[-1]["train_loss"] < log[0]["train_loss"]
        # returned weights reproduce the logged minimum validation loss
        best = min(e["val_loss"] for e in log)
        from vobs.observer_lstm import _batched_val_loss
        assert _batched_val_loss(net, val, 64) == pytest.approx(best, rel=1e-12)

    def test_nonfinite_validation_pass_names_the_layer(self):
        # the NaN would reach the head output too; the check after each
        # layer names where it starts
        _, val, _ = _toy_dataset()
        net = build_net("lstm", 0, 5, (4, 4), (8,), 3, 3)
        net.cells[0].wx[0, 0] = np.nan
        from vobs.observer_lstm import _batched_val_loss
        with pytest.raises(NumericalError, match="lstm layer 0 at step 0"):
            _batched_val_loss(net, val, 64)

    def test_noise_free_differs_from_noisy(self):
        train, val, scaler = _toy_dataset()
        tc = TrainConfig(epochs=2, batch_size=64, learning_rate=3e-3, seed=2)

        def run(noise):
            net = build_net("lstm", tc.seed, 5, (4,), (8,), 3, 3)
            return train_observer(train, val, scaler, noise, tc, net=net)

        _, log_noisy = run(NoiseSpec(seed=1))
        _, log_plain = run(NoiseSpec(0.0, 0.0))
        assert log_noisy[-1]["val_loss"] != log_plain[-1]["val_loss"]

    def test_plain_teacher_forcing_deterministic(self):
        # with stds at 0 no noise stream is consumed at all
        train, val, scaler = _toy_dataset()
        tc = TrainConfig(epochs=1, batch_size=64, learning_rate=3e-3, seed=5)

        def run():
            net = build_net("lstm", tc.seed, 5, (4,), (8,), 3, 3)
            trained, _ = train_observer(train, val, scaler, NoiseSpec(0.0, 0.0), tc,
                                        net=net)
            return trained.copy_weights()

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

    def test_divergence_reported_with_location(self):
        train, val, scaler = _toy_dataset()
        train.sensors[train.targets[5] - 29 + 3, 2] = np.nan  # row 3 of window 5
        tc = TrainConfig(epochs=1, batch_size=512, learning_rate=1e-3, seed=1,
                         shuffle=False)
        net = build_net("lstm", 1, 5, (3,), (4,), 3, 3)
        with pytest.raises(NumericalError, match="epoch|layer"):
            train_observer(train, val, scaler, NoiseSpec(0.0, 0.0), tc, net=net)

    def test_empty_dataset_rejected(self):
        train, val, scaler = _toy_dataset()
        with pytest.raises(ConfigError):
            train_observer(dataclasses.replace(train, targets=train.targets[:0]), val,
                           scaler, NoiseSpec(), TrainConfig(epochs=1),
                           build_net("lstm", 0, 5, (3,), (4,), 3, 3))


class TestWholeBatches:
    @pytest.mark.parametrize("batch_size, call_sizes", [(1, [1] * 5), (4, [4, 1]), (8, [5])])
    def test_one_loss_and_gradients_call_per_batch(self, monkeypatch, batch_size,
                                                   call_sizes):
        train, val, scaler = _toy_dataset()
        train = dataclasses.replace(train, targets=train.targets[:5])
        val = dataclasses.replace(val, targets=val.targets[:5])
        sizes = []
        original = RecurrentRegressor.loss_and_gradients

        def spy(self, windows, prev, target):
            sizes.append(len(windows))
            return original(self, windows, prev, target)

        monkeypatch.setattr(RecurrentRegressor, "loss_and_gradients", spy)
        tc = TrainConfig(epochs=1, batch_size=batch_size, seed=2, shuffle=False)
        net = build_net("lstm", 2, 5, (4,), (8,), 3, 3)
        _, log = train_observer(train, val, scaler, NoiseSpec(seed=1), tc, net=net)
        assert sizes == call_sizes
        assert np.isfinite([log[0]["train_loss"], log[0]["val_loss"]]).all()
