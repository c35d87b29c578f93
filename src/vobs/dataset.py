"""Turns trajectories into scaled, windowed training samples.

The sample layout follows the observer's two inputs: a window of the five
sensor channels covering the current step and the 49 before it, and the
ground-truth state at the step before the target. All values are min-max
scaled to the training corpus; validation/test values may fall outside
[0, 1] and are deliberately not clipped.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .domain import SENSOR_CHANNELS, STATE_CHANNELS, Trajectory
from .errors import ConfigError, DataFormatError
from .seeding import derived_rng

CACHE_MAGIC = b"VOBS"
CACHE_VERSION = 1

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
            if not (hi > lo).all():
                bad = [names[i] for i in np.flatnonzero(hi <= lo)]
                raise ConfigError(f"scaler max must exceed min on channels {bad}")

    def scale_sensors(self, x: np.ndarray) -> np.ndarray:
        return (x - self.sensor_min) / (self.sensor_max - self.sensor_min)

    def unscale_sensors(self, x: np.ndarray) -> np.ndarray:
        return x * (self.sensor_max - self.sensor_min) + self.sensor_min

    def scale_state(self, x: np.ndarray) -> np.ndarray:
        return (x - self.state_min) / (self.state_max - self.state_min)

    def unscale_state(self, x: np.ndarray) -> np.ndarray:
        return x * (self.state_max - self.state_min) + self.state_min

    def to_dict(self) -> dict:
        return {
            "sensor_min": self.sensor_min.tolist(),
            "sensor_max": self.sensor_max.tolist(),
            "state_min": self.state_min.tolist(),
            "state_max": self.state_max.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerParams":
        return cls(*(np.asarray(d[k], dtype=np.float64)
                     for k in ("sensor_min", "sensor_max", "state_min", "state_max")))


@dataclass(frozen=True)
class SplitSpec:
    """Trajectory-level split fractions, stratified by maneuver label."""

    train: float = 0.6
    val: float = 0.2
    test: float = 0.2
    seed: int = 0

    def __post_init__(self):
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


@dataclass
class WindowedDataset:
    """Column-stacked windowed samples, all scaled.

    windows:    (N, w, 5) sensor channels, rows oldest-first; row w-1 is the
                sensor frame at the target's timestamp.
    prev_state: (N, 3) ground-truth (vx, vy, yaw_rate) one step before target.
    target:     (N, 3) ground-truth state at the target step.
    """

    windows: np.ndarray
    prev_state: np.ndarray
    target: np.ndarray
    window_len: int = 50

    def __len__(self) -> int:
        return self.windows.shape[0]

    @classmethod
    def empty(cls, window_len: int = 50) -> "WindowedDataset":
        return cls(np.zeros((0, window_len, N_SENSOR)), np.zeros((0, N_STATE)),
                   np.zeros((0, N_STATE)), window_len=window_len)

    @classmethod
    def concatenate(cls, parts: list["WindowedDataset"]) -> "WindowedDataset":
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            return cls.empty()
        w = parts[0].window_len
        if any(p.window_len != w for p in parts):
            raise ConfigError("cannot concatenate datasets with different window lengths")
        return cls(np.concatenate([p.windows for p in parts]),
                   np.concatenate([p.prev_state for p in parts]),
                   np.concatenate([p.target for p in parts]),
                   window_len=w)


def fit_scaler(trajectories: list[Trajectory]) -> ScalerParams:
    """Per-channel min/max over all frames; fit on the training split only."""
    if not trajectories:
        raise ConfigError("cannot fit scaler on an empty trajectory list")
    s_min = np.full(N_SENSOR, np.inf)
    s_max = np.full(N_SENSOR, -np.inf)
    g_min = np.full(N_STATE, np.inf)
    g_max = np.full(N_STATE, -np.inf)
    for traj in trajectories:
        sc = traj.sensor_channels()
        st = traj.state_channels()
        s_min = np.minimum(s_min, sc.min(axis=0))
        s_max = np.maximum(s_max, sc.max(axis=0))
        g_min = np.minimum(g_min, st.min(axis=0))
        g_max = np.maximum(g_max, st.max(axis=0))
    for lo, hi, names in ((s_min, s_max, SENSOR_CHANNELS), (g_min, g_max, STATE_CHANNELS)):
        flat = np.flatnonzero(hi <= lo)
        if flat.size:
            raise ConfigError(
                f"constant channel(s) {[names[i] for i in flat]}: min == max, cannot scale")
    return ScalerParams(s_min, s_max, g_min, g_max)


def make_windows(traj: Trajectory, scaler: ScalerParams, w: int = 50,
                 stride: int = 1) -> WindowedDataset:
    """Slice one trajectory into scaled windowed samples.

    One sample per target index t in [w-1, N-1] (every `stride`-th when
    stride > 1); a trajectory shorter than w+1 frames yields no samples.
    """
    if w < 1:
        raise ConfigError(f"window length must be >= 1, got {w}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    n = len(traj)
    if n < w:
        return WindowedDataset.empty(w)
    sensors = scaler.scale_sensors(traj.sensor_channels())
    states = scaler.scale_state(traj.state_channels())

    targets_idx = np.arange(w - 1, n, stride)
    # window view: rows t-w+1 .. t for each target t
    win_view = np.lib.stride_tricks.sliding_window_view(sensors, (w, N_SENSOR))
    windows = win_view[targets_idx - (w - 1), 0].copy()
    prev = states[targets_idx - 1].copy()
    target = states[targets_idx].copy()
    return WindowedDataset(windows, prev, target, window_len=w)


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
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Add per-channel Gaussian noise to states given in physical units.

    Accepts a single 3-vector or an (N, 3) batch. Draws come from `rng` when
    given, otherwise from a generator seeded by spec.seed.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    prev_state = np.asarray(prev_state, dtype=np.float64)
    return prev_state + rng.normal(0.0, 1.0, prev_state.shape) * spec.stds()


# ---------------------------------------------------------------------------
# Binary sample cache + sidecar metadata
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHHHHQ")


def write_cache(ds: WindowedDataset, path) -> None:
    """Record-oriented binary cache: header then little-endian float64 rows."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, ds.window_len,
                              N_SENSOR, N_STATE, len(ds)))
        for i in range(len(ds)):
            fh.write(ds.windows[i].astype("<f8").tobytes())
            fh.write(ds.prev_state[i].astype("<f8").tobytes())
            fh.write(ds.target[i].astype("<f8").tobytes())


def read_cache(path) -> WindowedDataset:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DataFormatError(f"{path}: truncated cache header")
        magic, version, w, n_sensor, n_state, count = _HEADER.unpack(head)
        if magic != CACHE_MAGIC:
            raise DataFormatError(f"{path}: not a sample cache (bad magic {magic!r})")
        if version != CACHE_VERSION:
            raise DataFormatError(
                f"{path}: cache format version {version} unsupported (expected {CACHE_VERSION})")
        if n_sensor != N_SENSOR or n_state != N_STATE:
            raise DataFormatError(f"{path}: channel layout mismatch")
        rec = w * n_sensor + 2 * n_state
        payload = fh.read()
    expected = count * rec * 8
    if len(payload) != expected:
        raise DataFormatError(
            f"{path}: corrupt cache, expected {expected} payload bytes, found {len(payload)}")
    data = np.frombuffer(payload, dtype="<f8").reshape(count, rec)
    windows = data[:, : w * n_sensor].reshape(count, w, n_sensor).copy()
    prev = data[:, w * n_sensor: w * n_sensor + n_state].copy()
    target = data[:, w * n_sensor + n_state:].copy()
    return WindowedDataset(windows, prev, target, window_len=w)


def write_sidecar(path, scaler: ScalerParams, split_assignment: dict,
                  counts: dict, window_len: int, strides: dict,
                  noise: NoiseSpec, seed: int) -> None:
    """Human-readable companion to the caches."""
    doc = {
        "window_len": window_len,
        "strides": strides,
        "seed": seed,
        "state_noise": {"std_v_mps": noise.std_v_mps,
                        "std_yaw_rate_radps": noise.std_yaw_rate_radps},
        "counts": counts,
        "scaler": scaler.to_dict(),
        "split_assignment": split_assignment,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sidecar(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
            doc["scaler"] = ScalerParams.from_dict(doc["scaler"])
            for key in ("split_assignment", "counts"):
                if not isinstance(doc[key], dict):
                    raise TypeError(f"'{key}' must be a mapping")
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise DataFormatError(f"{path}: corrupt dataset sidecar ({exc!r})") from None
    return doc
