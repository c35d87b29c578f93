import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vobs
from vobs.dataset import (
    NoiseSpec,
    ScalerParams,
    SplitSpec,
    WindowedDataset,
    fit_scaler,
    inject_state_noise,
    make_windows,
    read_cache,
    read_sidecar,
    split_dataset,
    write_cache,
    write_sidecar,
)
from vobs.domain import DT_S, Trajectory
from vobs.errors import ConfigError, DataFormatError


def _traj(n, label="m@0.50#0", seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * DT_S
    sensors = np.column_stack([t] + [rng.normal(size=n) for _ in range(5)])
    truth = np.column_stack([t] + [rng.normal(size=n) for _ in range(9)])
    truth[:, 4] = 10 + rng.normal(size=n)  # vx well away from 0
    return Trajectory(sensors, truth, label=label)


@pytest.fixture()
def scaler():
    return fit_scaler([_traj(300, seed=1), _traj(300, seed=2)])


class TestScaler:
    def test_min_max_fit(self):
        t = _traj(100)
        t.sensors[:, 1] = np.linspace(2.0, 4.0, 100)
        scaler = fit_scaler([t])
        assert scaler.sensor_min[0] == 2.0
        assert scaler.sensor_max[0] == 4.0
        scaled = scaler.scale_sensors(np.array([3.0, 0, 0, 0, 0]))
        assert scaled[0] == pytest.approx(0.5)

    def test_constant_channel_rejected(self):
        t = _traj(100)
        t.sensors[:, 5] = 0.7
        with pytest.raises(ConfigError, match="steering"):
            fit_scaler([t])

    def test_nan_channel_rejected(self):
        t = _traj(100)
        t.sensors[7, 4] = np.nan
        with pytest.raises(ConfigError, match="wheel_speed_rr"):
            fit_scaler([t])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            fit_scaler([])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_round_trip_identity(self, seed):
        scaler = fit_scaler([_traj(200, seed=3)])
        rng = np.random.default_rng(seed)
        x = rng.uniform(-50, 50, (50, 5))
        span = scaler.sensor_max - scaler.sensor_min
        back = scaler.scale_sensors(x) * span + scaler.sensor_min
        assert np.abs(back - x).max() < 1e-12
        s = rng.uniform(-30, 30, (50, 3))
        assert np.abs(scaler.unscale_state(scaler.scale_state(s)) - s).max() < 1e-12

    def test_dict_round_trip(self, scaler):
        back = ScalerParams.from_dict(scaler.to_dict())
        np.testing.assert_array_equal(back.sensor_min, scaler.sensor_min)
        np.testing.assert_array_equal(back.state_max, scaler.state_max)


class TestMakeWindows:
    def test_count_formula(self, scaler):
        assert len(make_windows(_traj(60), scaler, 50)) == 11

    def test_single_window(self, scaler):
        ds = make_windows(_traj(50), scaler, 50)
        assert len(ds) == 1

    def test_too_short_gives_empty(self, scaler):
        assert len(make_windows(_traj(49), scaler, 50)) == 0

    def test_window_alignment(self, scaler):
        # row w-1 of the window is the sensor frame at the target's timestamp;
        # prev_state is the ground truth one step earlier
        traj = _traj(80)
        ds = make_windows(traj, scaler, 50)
        scaled_sensors = scaler.scale_sensors(traj.sensor_channels())
        scaled_states = scaler.scale_state(traj.state_channels())
        for i, t in enumerate(range(49, 80)):
            np.testing.assert_array_equal(ds.windows[i, -1], scaled_sensors[t])
            np.testing.assert_array_equal(ds.windows[i, 0], scaled_sensors[t - 49])
            np.testing.assert_array_equal(ds.target[i], scaled_states[t])
            np.testing.assert_array_equal(ds.prev_state[i], scaled_states[t - 1])

    def test_stride(self, scaler):
        ds = make_windows(_traj(100), scaler, 50, stride=5)
        assert len(ds) == len(range(49, 100, 5))

    def test_rows_time_ordered(self, scaler):
        traj = _traj(60)
        traj.sensors[:, 1] = np.arange(60)  # ax strictly increasing
        ds = make_windows(traj, scaler, 50)
        col = ds.windows[0, :, 0]
        assert (np.diff(col) > 0).all()


class TestSplitDataset:
    def _corpus(self, per_stratum=5):
        trajs = []
        for kind in ("a@0.30", "b@0.90"):
            for i in range(per_stratum):
                trajs.append(_traj(60, label=f"{kind}#{i}", seed=hash(kind) % 100 + i))
        return trajs

    def test_both_regimes_in_all_splits(self):
        train, val, test = split_dataset(self._corpus(), SplitSpec(seed=1))
        for group in (train, val, test):
            strata = {t.label.split("#")[0] for t in group}
            assert strata == {"a@0.30", "b@0.90"}

    def test_deterministic(self):
        a = split_dataset(self._corpus(), SplitSpec(seed=42))
        b = split_dataset(self._corpus(), SplitSpec(seed=42))
        for ga, gb in zip(a, b):
            assert [t.label for t in ga] == [t.label for t in gb]

    def test_fraction_rounding_bound(self):
        for n in (3, 4, 5, 7, 10):
            train, val, test = split_dataset(self._corpus(n), SplitSpec(seed=0))
            for group, frac in ((train, 0.6), (val, 0.2), (test, 0.2)):
                for stratum in ("a@0.30", "b@0.90"):
                    got = sum(1 for t in group if t.label.startswith(stratum))
                    assert abs(got - frac * n) <= 1.0

    def test_no_trajectory_shared(self):
        train, val, test = split_dataset(self._corpus(), SplitSpec(seed=3))
        labels = [t.label for g in (train, val, test) for t in g]
        assert len(labels) == len(set(labels)) == 10

    def test_small_stratum_rejected(self):
        trajs = self._corpus() + [_traj(60, label="c@0.10#0")]
        with pytest.raises(ConfigError, match="c@0.10"):
            split_dataset(trajs, SplitSpec(seed=0))

    def test_fractions_must_sum(self):
        with pytest.raises(ConfigError):
            SplitSpec(train=0.5, val=0.2, test=0.2)


class TestInjectStateNoise:
    def test_zero_std_is_identity(self):
        x = np.array([10.0, 0.5, 0.1])
        out = inject_state_noise(x, NoiseSpec(0.0, 0.0), np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)

    def test_sample_std_matches_spec(self):
        base = np.zeros((100_000, 3))
        out = inject_state_noise(base, NoiseSpec(), np.random.default_rng(7))
        assert out[:, 0].std() == pytest.approx(0.03, rel=0.02)
        assert out[:, 1].std() == pytest.approx(0.03, rel=0.02)
        assert out[:, 2].std() == pytest.approx(0.003, rel=0.02)

    def test_seeded_repeatable(self):
        x = np.ones((10, 3))
        np.testing.assert_array_equal(
            inject_state_noise(x, NoiseSpec(), np.random.default_rng(9)),
            inject_state_noise(x, NoiseSpec(), np.random.default_rng(9)))

    def test_negative_std_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(std_v_mps=-0.1)


class TestCache:
    def test_round_trip(self, tmp_path, scaler):
        ds = make_windows(_traj(90), scaler, 50)
        path = tmp_path / "x.cache"
        write_cache(ds, path)
        back = read_cache(path)
        np.testing.assert_array_equal(back.windows, ds.windows)
        np.testing.assert_array_equal(back.prev_state, ds.prev_state)
        np.testing.assert_array_equal(back.target, ds.target)

    def test_truncation_detected(self, tmp_path, scaler):
        ds = make_windows(_traj(90), scaler, 50)
        path = tmp_path / "x.cache"
        write_cache(ds, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(DataFormatError, match="corrupt"):
            read_cache(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "x.cache"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(DataFormatError, match="magic"):
            read_cache(path)

    def test_version_checked(self, tmp_path, scaler):
        ds = make_windows(_traj(60), scaler, 50)
        path = tmp_path / "x.cache"
        write_cache(ds, path)
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="version"):
            read_cache(path)

    def test_sidecar_round_trip(self, tmp_path, scaler):
        path = tmp_path / "meta.json"
        write_sidecar(path, scaler, {"a#0": "train"}, {"train": 11}, 50,
                      {"train": 1}, NoiseSpec(), seed=5)
        doc = read_sidecar(path)
        assert doc["window_len"] == 50
        assert doc["split_assignment"] == {"a#0": "train"}
        np.testing.assert_array_equal(doc["scaler"].sensor_min, scaler.sensor_min)


class TestConcatenate:
    def test_counts_add(self, scaler):
        parts = [make_windows(_traj(70, seed=i), scaler, 50) for i in range(3)]
        total = WindowedDataset.concatenate(parts)
        assert len(total) == sum(len(p) for p in parts)

    def test_empty_parts_ok(self, scaler):
        # too-short trajectories give no windows, but keep the window length
        for w in (50, 20):
            ds = WindowedDataset.concatenate([make_windows(_traj(15), scaler, w)])
            assert len(ds) == 0
            assert ds.window_len == w
            assert ds.windows.shape == (0, w, 5)


def _window_len_defaults(source: str):
    """The function or class of every parameter or class field named
    `window_len` in `source` that has a default."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):] + [
                arg for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                if default is not None]
            if any(arg.arg == "window_len" for arg in defaulted):
                yield getattr(node, "name", "lambda")
        elif isinstance(node, ast.ClassDef):
            if any(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                   and getattr(stmt.target, "id", None) == "window_len"
                   for stmt in node.body):
                yield node.name


def test_only_the_run_config_defaults_the_window_length():
    src = pathlib.Path(vobs.__file__).parent
    found = [f"{path.relative_to(src)}:{owner}"
             for path in sorted(src.rglob("*.py"))
             for owner in _window_len_defaults(path.read_text())]
    assert found == ["config.py:RunConfig"]
