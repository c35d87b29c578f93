import ast
import json
import pathlib
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vobs
from vobs.dataset import (
    CACHE_COLUMNS,
    NoiseSpec,
    ScalerParams,
    SplitSpec,
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
        assert len(make_windows([_traj(60)], scaler, 50)) == 11

    def test_single_window(self, scaler):
        ds = make_windows([_traj(50)], scaler, 50)
        assert len(ds) == 1

    def test_too_short_gives_empty(self, scaler):
        ds = make_windows([_traj(49)], scaler, 50)
        assert len(ds) == 0
        assert ds.window_len == 50
        assert ds.sensors.shape == (49, 5)  # the frames are stored all the same

    def test_window_alignment(self, scaler):
        # row w-1 of the window is the sensor frame at the target's timestamp;
        # prev_state is the ground truth one step earlier
        traj = _traj(80)
        windows, prev_state, target = make_windows([traj], scaler, 50).batch(slice(None))
        scaled_sensors = scaler.scale_sensors(traj.sensor_channels())
        scaled_states = scaler.scale_state(traj.state_channels())
        assert len(windows) == 31
        for i, t in enumerate(range(49, 80)):
            np.testing.assert_array_equal(windows[i, -1], scaled_sensors[t])
            np.testing.assert_array_equal(windows[i, 0], scaled_sensors[t - 49])
            np.testing.assert_array_equal(target[i], scaled_states[t])
            np.testing.assert_array_equal(prev_state[i], scaled_states[t - 1])

    def test_stride(self, scaler):
        ds = make_windows([_traj(100)], scaler, 50, stride=5)
        assert len(ds) == len(range(49, 100, 5))

    def test_rows_time_ordered(self, scaler):
        traj = _traj(60)
        traj.sensors[:, 1] = np.arange(60)  # ax strictly increasing
        windows, _, _ = make_windows([traj], scaler, 50).batch(np.array([0]))
        assert (np.diff(windows[0, :, 0]) > 0).all()

    def test_window_len_1_reads_its_own_previous_frame(self, scaler):
        # the first frame has no previous state, so it is no target; the
        # second trajectory's first window must not read the first one's end
        trajs = [_traj(10, seed=4), _traj(6, seed=5)]
        _, prev_state, target = make_windows(trajs, scaler, 1).batch(slice(None))
        states = [scaler.scale_state(t.state_channels()) for t in trajs]
        np.testing.assert_array_equal(prev_state, np.concatenate([s[:-1] for s in states]))
        np.testing.assert_array_equal(target, np.concatenate([s[1:] for s in states]))

    def test_empty_list_rejected(self, scaler):
        with pytest.raises(ConfigError, match="empty"):
            make_windows([], scaler, 50)


class TestWindowStore:
    """Every batch row against a window cut straight from its own trajectory."""

    @given(lengths=st.lists(st.integers(1, 120), min_size=1, max_size=4),
           window_len=st.integers(1, 60), stride=st.integers(1, 7))
    @example(lengths=[70, 12, 55], window_len=50, stride=3)
    @example(lengths=[1, 2, 1], window_len=1, stride=1)
    @settings(max_examples=60, deadline=None)
    def test_batches_match_their_own_trajectory(self, lengths, window_len, stride):
        scaler = fit_scaler([_traj(300, seed=1), _traj(300, seed=2)])
        trajs = [_traj(n, seed=10 + k) for k, n in enumerate(lengths)]
        ds = make_windows(trajs, scaler, window_len, stride=stride)

        ref_windows, ref_prev, ref_target, owner = [], [], [], []
        for k, traj in enumerate(trajs):
            sensors = scaler.scale_sensors(traj.sensor_channels())
            states = scaler.scale_state(traj.state_channels())
            for t in range(max(window_len - 1, 1), len(traj), stride):
                ref_windows.append(sensors[t - window_len + 1: t + 1])
                ref_prev.append(states[t - 1])
                ref_target.append(states[t])
            owner += [k] * len(traj)
        # counts add over the trajectories, and an empty store keeps window_len
        assert len(ds) == len(ref_target) == sum(
            len(make_windows([t], scaler, window_len, stride=stride)) for t in trajs)
        assert ds.window_len == window_len
        if not len(ds):
            return
        windows, prev_state, target = ds.batch(np.arange(len(ds)))
        np.testing.assert_array_equal(windows, np.array(ref_windows))
        np.testing.assert_array_equal(prev_state, np.array(ref_prev))
        np.testing.assert_array_equal(target, np.array(ref_target))
        owner = np.array(owner)
        for t in ds.targets:
            assert (owner[t - window_len + 1: t + 1] == owner[t]).all()
            assert owner[t - 1] == owner[t]


class TestConcatenate:
    """One store over several trajectories joins their windows."""

    def test_counts_add(self, scaler):
        trajs = [_traj(70, seed=i) for i in range(3)]
        total = make_windows(trajs, scaler, 50)
        assert len(total) == sum(len(make_windows([t], scaler, 50)) for t in trajs)

    def test_empty_parts_ok(self, scaler):
        # too-short trajectories give no windows, but keep the window length
        for w in (50, 20):
            ds = make_windows([_traj(15)], scaler, w)
            assert len(ds) == 0
            assert ds.window_len == w
            windows, prev_state, target = ds.batch(slice(None))
            assert windows.shape == (0, w, 5)
            assert prev_state.shape == target.shape == (0, 3)
        # and add nothing next to a long one
        long_only = make_windows([_traj(70)], scaler, 20)
        mixed = make_windows([_traj(15, seed=1), _traj(70), _traj(15, seed=2)], scaler, 20)
        assert len(mixed) == len(long_only)
        for got, want in zip(mixed.batch(slice(None)), long_only.batch(slice(None))):
            np.testing.assert_array_equal(got, want)


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


def _v1_cache(ds) -> bytes:
    """`ds` in the version 1 layout: one record of the window, the previous
    state and the target per window."""
    windows, prev_state, target = ds.batch(slice(None))
    records = np.concatenate([windows.reshape(len(ds), ds.window_len * 5), prev_state, target],
                             axis=1)
    return struct.pack("<4sHHHHQ", b"VOBS", 1, ds.window_len, 5, 3, len(ds)) + \
        records.astype("<f8").tobytes()


def _v2_cache(ds) -> bytes:
    """`ds` in the version 2 layout, the last struct format: a header of the
    window length and the window and frame counts, the int64 targets, then
    the frames."""
    frames = np.column_stack([ds.sensors, ds.states])
    return struct.pack("<4sHHHHQQ", b"VOBS", 2, ds.window_len, 5, 3, len(ds), len(frames)) + \
        ds.targets.astype("<i8").tobytes() + frames.astype("<f8").tobytes()


def _write_store(directory, trajs, ds, stride=1, split="train"):
    """Write `ds`, the windows of `trajs` at `stride`, as `<split>.cache` in
    `directory` with the sidecar that records it; return the cache's path."""
    path = directory / f"{split}.cache"
    write_sidecar(directory / "dataset.json", fit_scaler([_traj(300, seed=1), _traj(300, seed=2)]),
                  {split: [[t.label, len(t)] for t in trajs]}, {split: len(ds)}, ds.window_len,
                  {split: stride}, {split: write_cache(ds, path)}, {})
    return path


class TestCache:
    def test_round_trip(self, tmp_path, scaler):
        trajs = [_traj(90), _traj(70, seed=3)]
        ds = make_windows(trajs, scaler, 50, stride=2)
        back = read_cache(_write_store(tmp_path, trajs, ds, stride=2))
        assert back.window_len == 50
        np.testing.assert_array_equal(back.sensors, ds.sensors)
        np.testing.assert_array_equal(back.states, ds.states)
        np.testing.assert_array_equal(back.targets, ds.targets)
        for got, want in zip(back.batch(slice(None)), ds.batch(slice(None))):
            np.testing.assert_array_equal(got, want)

    @given(lengths=st.lists(st.integers(1, 120), min_size=1, max_size=4),
           window_len=st.integers(1, 60), stride=st.integers(1, 7),
           split=st.sampled_from(["train", "val"]))
    @example(lengths=[70, 12, 55], window_len=50, stride=3, split="val")
    @settings(max_examples=40, deadline=None)
    def test_read_back_gives_the_windows_written(self, lengths, window_len, stride, split):
        scaler = fit_scaler([_traj(300, seed=1), _traj(300, seed=2)])
        trajs = [_traj(n, label=f"m@0.50#{k}", seed=10 + k) for k, n in enumerate(lengths)]
        ds = make_windows(trajs, scaler, window_len, stride=stride)
        with tempfile.TemporaryDirectory() as directory:
            back = read_cache(_write_store(pathlib.Path(directory), trajs, ds, stride, split))
        assert back.window_len == window_len
        np.testing.assert_array_equal(back.targets, ds.targets)
        for got, want in zip(back.batch(slice(None)), ds.batch(slice(None))):
            np.testing.assert_array_equal(got, want)

    def test_empty_round_trip(self, tmp_path, scaler):
        trajs = [_traj(15)]
        back = read_cache(_write_store(tmp_path, trajs, make_windows(trajs, scaler, 50)))
        assert len(back) == 0 and back.window_len == 50 and back.sensors.shape == (15, 5)

    def test_truncation_detected(self, tmp_path, scaler):
        trajs = [_traj(90)]
        path = _write_store(tmp_path, trajs, make_windows(trajs, scaler, 50))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(DataFormatError, match="corrupt"):
            read_cache(path)

    def test_bad_magic_detected(self, tmp_path, scaler):
        trajs = [_traj(60)]
        path = _write_store(tmp_path, trajs, make_windows(trajs, scaler, 50))
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(DataFormatError, match=r"train\.cache: not a window cache; "
                                                  r"rerun 'dataset'"):
            read_cache(path)

    def test_version_checked(self, tmp_path, scaler):
        trajs = [_traj(60)]
        path = _write_store(tmp_path, trajs, make_windows(trajs, scaler, 50))
        data = bytearray(path.read_bytes())
        data[6] = 99  # the major version of the .npy format
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="version"):
            read_cache(path)

    @pytest.mark.parametrize("n", [60, 49], ids=["windows", "no_windows"])
    def test_version_1_asks_for_dataset(self, tmp_path, scaler, n):
        trajs = [_traj(n)]
        ds = make_windows(trajs, scaler, 50)
        path = _write_store(tmp_path, trajs, ds)
        path.write_bytes(_v1_cache(ds))
        with pytest.raises(DataFormatError, match=r"train\.cache: not a window cache; "
                                                  r"rerun 'dataset'"):
            read_cache(path)

    @pytest.mark.parametrize("frame, column, value", [
        (0, 0, np.nan), (37, 6, np.inf), (149, 7, -np.inf)])
    def test_non_finite_value_names_its_frame(self, tmp_path, scaler, frame, column, value):
        trajs = [_traj(90), _traj(60, seed=3)]
        ds = make_windows(trajs, scaler, 50)
        (ds.sensors if column < 5 else ds.states)[frame, column % 5] = value
        path = _write_store(tmp_path, trajs, ds)
        with pytest.raises(DataFormatError, match=rf"train\.cache: non-finite value {value} in "
                                                  rf"column '{CACHE_COLUMNS[column]}' at row "
                                                  rf"{frame}$"):
            read_cache(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["splits"]["train"][0].__setitem__(1, 89),  # a frame short
        lambda doc: doc["cache_sha256"].__setitem__("train", "0" * 64),
        lambda doc: doc["cache_sha256"].pop("train"),
        lambda doc: doc["splits"].update(val=doc["splits"].pop("train")),
    ], ids=["frame_total", "sha256", "no_sha256", "other_split"])
    def test_cache_the_sidecar_does_not_record_asks_for_dataset(self, tmp_path, scaler, edit):
        trajs = [_traj(90), _traj(60, seed=3)]
        path = _write_store(tmp_path, trajs, make_windows(trajs, scaler, 50))
        sidecar = tmp_path / "dataset.json"
        doc = json.loads(sidecar.read_text())
        edit(doc)
        doc["strides"] = dict.fromkeys(doc["splits"], 1)
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=rf"{path}: not the 'train' cache that "
                                                  rf"{sidecar} records .*; rerun 'dataset'$"):
            read_cache(path)

    def test_sidecar_round_trip(self, tmp_path, scaler):
        path = tmp_path / "meta.json"
        write_sidecar(path, scaler, {"train": [["a#0", 60]], "test": [["b#0", 40]]},
                      {"train": 11}, 50, {"train": 1, "test": 1}, {"train": "cd34"},
                      trajectory_sha256={"a#0": "ab12"})
        doc = read_sidecar(path)
        assert doc["window_len"] == 50
        assert doc["splits"] == {"train": [["a#0", 60]], "test": [["b#0", 40]]}
        assert doc["split_assignment"] == {"a#0": "train", "b#0": "test"}
        assert doc["cache_sha256"] == {"train": "cd34"}
        assert doc["trajectory_sha256"] == {"a#0": "ab12"}
        np.testing.assert_array_equal(doc["scaler"].sensor_min, scaler.sensor_min)

    def test_sidecar_holds_exactly_its_documented_fields(self, tmp_path, scaler):
        path = tmp_path / "meta.json"
        write_sidecar(path, scaler, {"train": [["a#0", 60]]}, {"train": 11}, 50,
                      {"train": 1}, {"train": "cd34"}, {"a#0": "ab12"})
        assert sorted(json.loads(path.read_text())) == [
            "cache_sha256", "counts", "scaler", "split_assignment", "splits", "strides",
            "trajectory_sha256", "window_len"]


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
