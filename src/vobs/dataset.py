"""Turns trajectories into scaled, windowed training samples.

Each split is stored as its frames once, the split's trajectories end to
end; `_targets` derives each window's target frame from their lengths. A
sample follows the observer's two inputs: the window of the five sensor
channels covering the target frame and the window_len - 1 frames before it,
and the ground-truth state at the frame before the target;
`WindowedDataset.batch` gathers them from the frames on demand. All values
are min-max scaled to the training corpus; validation/test values may fall
outside [0, 1] and are deliberately not clipped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .artifacts import read_array, read_json, write_array, write_json
from .domain import SENSOR_CHANNELS, STATE_CHANNELS, Trajectory
from .errors import ConfigError, DataFormatError
from .seeding import derived_rng

N_SENSOR = len(SENSOR_CHANNELS)
N_STATE = len(STATE_CHANNELS)


@dataclass(frozen=True)
class ScalerParams:
    """Per-channel (min, max) for the 5 sensor and 3 state channels."""

    sensor_min: np.ndarray
    sensor_max: np.ndarray
    state_min: np.ndarray
    state_max: np.ndarray

    def __post_init__(self):
        for lo, hi, names in ((self.sensor_min, self.sensor_max, SENSOR_CHANNELS),
                              (self.state_min, self.state_max, STATE_CHANNELS)):
            if lo.shape != (len(names),) or hi.shape != (len(names),):
                raise ConfigError("scaler shape mismatch")
            bad = [names[i] for i in np.flatnonzero(~((hi > lo) & np.isfinite(hi - lo)))]
            if bad:
                raise ConfigError(f"constant or non-finite channel(s) {bad}: cannot scale")

    def scale_sensors(self, x: np.ndarray) -> np.ndarray:
        return (x - self.sensor_min) / (self.sensor_max - self.sensor_min)

    def scale_state(self, x: np.ndarray) -> np.ndarray:
        return (x - self.state_min) / (self.state_max - self.state_min)

    def unscale_state(self, x: np.ndarray) -> np.ndarray:
        return x * (self.state_max - self.state_min) + self.state_min

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerParams":
        return cls(*(np.asarray(d[f.name], dtype=np.float64) for f in fields(cls)))


@dataclass(frozen=True)
class SplitSpec:
    """Trajectory-level split fractions, stratified by maneuver label."""

    train: float = 0.6
    val: float = 0.2
    test: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for key, value in (("train", self.train), ("val", self.val), ("test", self.test)):
            if value < 0:
                raise ConfigError(f"split.{key} must be >= 0, got {value!r}")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise added to the fed-back state during training."""

    std_v_mps: float = 0.03
    std_yaw_rate_radps: float = 0.003
    seed: int = 0

    def __post_init__(self):
        if self.std_v_mps < 0 or self.std_yaw_rate_radps < 0:
            raise ConfigError("noise stds must be >= 0")

    def stds(self) -> np.ndarray:
        return np.array([self.std_v_mps, self.std_v_mps, self.std_yaw_rate_radps])


def sliding_windows(frames: np.ndarray, window_len: int) -> np.ndarray:
    """Read-only (F - w + 1, w, C) view of the (F, C) `frames` whose window i
    holds rows i .. i + w - 1, oldest first."""
    return np.lib.stride_tricks.sliding_window_view(
        frames, (window_len, frames.shape[1]))[:, 0]


@dataclass
class WindowedDataset:
    """One split's scaled frames, each stored once with the split's
    trajectories end to end, and the target frame of each window.

    sensors: (F, 5) sensor channels; states: (F, 3) ground-truth (vx, vy,
    yaw_rate). targets: (N,) increasing frame index t of each window's target:
    its window is sensor frames t-w+1 .. t, oldest first, its previous state
    states[t-1] and its target states[t], all in t's own trajectory.
    """

    sensors: np.ndarray
    states: np.ndarray
    targets: np.ndarray
    window_len: int

    def __len__(self) -> int:
        return self.targets.shape[0]

    def batch(self, idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(windows (B, w, 5), prev_state (B, 3), target (B, 3)) of the
        windows that the index array or slice `idx` selects."""
        t = self.targets[idx]
        if not len(self.targets):  # the frames may be fewer than one window
            windows = np.empty((0, self.window_len, self.sensors.shape[1]), self.sensors.dtype)
        else:
            windows = sliding_windows(self.sensors, self.window_len)[t - (self.window_len - 1)]
        return windows, self.states[t - 1], self.states[t]


def _frames(trajectories: list[Trajectory]) -> tuple[np.ndarray, np.ndarray]:
    """The raw (F, 5) sensor and (F, 3) state channels of `trajectories`,
    end to end."""
    if not trajectories:
        raise ConfigError("cannot scale or window an empty trajectory list")
    return (np.concatenate([traj.sensor_channels() for traj in trajectories]),
            np.concatenate([traj.state_channels() for traj in trajectories]))


def fit_scaler(trajectories: list[Trajectory]) -> ScalerParams:
    """Per-channel min/max over all frames; fit on the training split only."""
    sensors, states = _frames(trajectories)
    return ScalerParams(sensors.min(axis=0), sensors.max(axis=0),
                        states.min(axis=0), states.max(axis=0))


def make_windows(trajectories: list[Trajectory], scaler: ScalerParams, window_len: int,
                 stride: int = 1) -> WindowedDataset:
    """The scaled frames of `trajectories`, end to end, and the windows that
    `_targets` cuts from them."""
    if window_len < 1:
        raise ConfigError(f"window length must be >= 1, got {window_len}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    sensors, states = _frames(trajectories)
    return WindowedDataset(scaler.scale_sensors(sensors), scaler.scale_state(states),
                           _targets([len(traj) for traj in trajectories], window_len, stride),
                           window_len=window_len)


def _targets(lengths, window_len: int, stride: int) -> np.ndarray:
    """The target frame of each window over trajectories of `lengths` frames,
    end to end: every `stride`-th index t in [max(window_len-1, 1), N-1] of
    each one's own frames, so no window or previous state reaches into
    another trajectory."""
    starts = np.cumsum([0, *lengths])
    return np.concatenate([np.arange(lo + max(window_len - 1, 1), hi, stride)
                           for lo, hi in zip(starts[:-1], starts[1:])])


def split_dataset(trajectories: list[Trajectory],
                  spec: SplitSpec) -> tuple[list[Trajectory], list[Trajectory], list[Trajectory]]:
    """Deterministic stratified split at trajectory granularity.

    Trajectories are grouped by label (maneuver kind and intensity); each
    stratum is shuffled with a seed derived from the split seed and the label,
    then divided by largest-remainder apportionment so every stratum lands
    within one trajectory of the target fractions. Every split receives at
    least one trajectory per stratum.
    """
    strata: dict[str, list[Trajectory]] = {}
    for traj in trajectories:
        strata.setdefault(traj.label.split("#")[0], []).append(traj)

    small = [label for label, group in strata.items() if len(group) < 3]
    if small:
        raise ConfigError(
            f"strata with fewer than 3 trajectories cannot honor the split: {sorted(small)}")

    out: tuple[list, list, list] = ([], [], [])
    fractions = (spec.train, spec.val, spec.test)
    for label in sorted(strata):
        group = strata[label]
        order = derived_rng(spec.seed, "split", label).permutation(len(group))
        quotas = [len(group) * f for f in fractions]
        counts = [int(q) for q in quotas]
        remainders = sorted(range(3), key=lambda i: (-(quotas[i] - counts[i]), i))
        for i in remainders[: len(group) - sum(counts)]:
            counts[i] += 1
        while min(counts) == 0:  # no split may starve a stratum
            counts[counts.index(max(counts))] -= 1
            counts[counts.index(0)] += 1
        pos = 0
        for bucket, cnt in zip(out, counts):
            bucket.extend(group[j] for j in order[pos:pos + cnt])
            pos += cnt
    return out


def inject_state_noise(prev_state: np.ndarray, spec: NoiseSpec,
                       rng: np.random.Generator) -> np.ndarray:
    """Add per-channel Gaussian noise, drawn from `rng`, to states given in
    physical units. Accepts a single 3-vector or an (N, 3) batch."""
    prev_state = np.asarray(prev_state, dtype=np.float64)
    return prev_state + rng.normal(0.0, 1.0, prev_state.shape) * spec.stds()


# ---------------------------------------------------------------------------
# Frame caches + sidecar metadata
# ---------------------------------------------------------------------------

SIDECAR_NAME = "dataset.json"
CACHE_COLUMNS = SENSOR_CHANNELS + tuple(f"gt_{c}" for c in STATE_CHANNELS)


def write_cache(ds: WindowedDataset, path) -> str:
    """`ds`'s frames as one (F, 8) float64 array of `CACHE_COLUMNS`, without
    the window targets; returns the hex SHA-256 of the file."""
    return write_array(path, np.column_stack([ds.sensors, ds.states]))


def read_cache(path) -> WindowedDataset:
    """The windows of cache `path`, `<split>.cache`, as `_targets` derives them
    from what the `dataset.json` beside it records of the split. The file must
    hold the split's recorded frame total and hash to its recorded SHA-256."""
    sidecar_path = os.path.join(os.path.dirname(path), SIDECAR_NAME)
    sidecar = read_sidecar(sidecar_path)
    split = os.path.splitext(os.path.basename(path))[0]
    frames, sha256 = read_array(path, CACHE_COLUMNS, "window cache", "dataset")
    lengths = [n for _, n in sidecar["splits"].get(split, ())]
    if len(frames) != sum(lengths) or sha256 != sidecar["cache_sha256"].get(split):
        raise DataFormatError(f"{path}: not the '{split}' cache that {sidecar_path} records "
                              f"({len(frames)} frames, {sum(lengths)} recorded, or another "
                              f"SHA-256); rerun 'dataset'")
    return WindowedDataset(frames[:, :N_SENSOR], frames[:, N_SENSOR:], _targets(
        lengths, sidecar["window_len"], sidecar["strides"][split]), sidecar["window_len"])


def write_sidecar(path, scaler: ScalerParams, splits: dict, counts: dict, window_len: int,
                  strides: dict, cache_sha256: dict, trajectory_sha256: dict) -> None:
    """The dataset's record beside its caches; each field's comment names its readers."""
    write_json(path, {
        "window_len": window_len,  # read_cache; train and evaluate check it against the config
        "strides": strides,  # read_cache
        "splits": splits,  # [label, n_frames] pairs in split_dataset's order: read_cache, evaluate
        "cache_sha256": cache_sha256,  # read_cache
        "scaler": scaler.to_dict(),  # train, evaluate
        "trajectory_sha256": trajectory_sha256,  # evaluate
        "counts": counts,  # perfbench/run.py's output check
        "split_assignment": {label: name for name, pairs in splits.items()
                             for label, _ in pairs},  # perfbench/make_reference.py
    })


def read_sidecar(path) -> dict:
    """The sidecar at `path`, its scaler as `ScalerParams`; checks each field a stage reads."""
    doc = read_json(path, "dataset sidecar")
    try:
        doc["scaler"] = ScalerParams.from_dict(doc["scaler"])
        for key in ("counts", "strides", "splits", "cache_sha256"):
            if not isinstance(doc[key], dict):
                raise TypeError(f"'{key}' must be a mapping")
        n_frames = [n if isinstance(label, str) else None
                    for pairs in doc["splits"].values() for label, n in pairs]
        if doc["strides"].keys() != doc["splits"].keys() or not all(
                type(n) is int and n >= 1
                for n in (doc["window_len"], *doc["strides"].values(), *n_frames)):
            raise ValueError("'window_len', one stride per split and n_frames must be ints >= 1")
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataFormatError(f"{path}: corrupt dataset sidecar ({exc!r}); "
                              f"rerun 'dataset'") from None
    return doc
