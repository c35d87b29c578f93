"""Core physical types, constants, and trajectory containers.

Conventions used everywhere in the package:
  - SI units, angles in radians (yaw rate in mrad/s appears only in
    evaluation reports).
  - z-axis up, positive yaw rate is counter-clockwise (left turn).
  - Wheel speed is the linear speed of the contact patch in m/s.
  - Sampling runs at 50 Hz (dt = 0.02 s).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError

G_MPS2 = 9.81
DT_S = 0.02

SENSOR_CHANNELS = ("ax", "ay", "yaw_rate", "wheel_speed_rr", "steering")
STATE_CHANNELS = ("vx", "vy", "yaw_rate")

# Column layout of Trajectory.sensors
S_T, S_AX, S_AY, S_YAWRATE, S_WHEEL, S_STEER = range(6)
# Column layout of Trajectory.truth
(G_T, G_X, G_Y, G_YAW, G_VX, G_VY, G_YAWRATE, G_AX, G_AY, G_BETA) = range(10)

CSV_HEADER = (
    "t,ax,ay,yaw_rate,wheel_speed_rr,steering,"
    "gt_x,gt_y,gt_yaw,gt_vx,gt_vy,gt_yaw_rate,gt_ax,gt_ay,gt_beta"
)


@dataclass(frozen=True)
class TireParams:
    """Magic-formula lateral coefficients; D multiplies the static vertical load."""

    stiffness_factor_b: float = 10.0
    shape_factor_c: float = 1.9
    peak_factor_d_per_n: float = 1.0

    def __post_init__(self):
        if self.stiffness_factor_b <= 0:
            raise ValueError(f"tire B must be > 0, got {self.stiffness_factor_b}")
        if not 1.0 < self.shape_factor_c < 2.0:
            raise ValueError(f"tire C must be in (1, 2), got {self.shape_factor_c}")
        if self.peak_factor_d_per_n <= 0:
            raise ValueError(f"tire D must be > 0, got {self.peak_factor_d_per_n}")


@dataclass(frozen=True)
class VehicleParams:
    """Physical constants of the test vehicle plus tire coefficients.

    Defaults describe the mid-size sedan used for all built-in maneuvers.
    """

    mass_kg: float = 1578.0
    lf_m: float = 1.134
    lr_m: float = 1.578
    track_m: float = 1.513
    inertia_z_kgm2: float = 2924.0
    tire_front: TireParams = field(default_factory=TireParams)
    tire_rear: TireParams = field(default_factory=TireParams)

    def __post_init__(self):
        for name in ("mass_kg", "lf_m", "lr_m", "track_m", "inertia_z_kgm2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def wheelbase_m(self) -> float:
        return self.lf_m + self.lr_m

    @property
    def static_load_front_n(self) -> float:
        return self.mass_kg * G_MPS2 * self.lr_m / self.wheelbase_m

    @property
    def static_load_rear_n(self) -> float:
        return self.mass_kg * G_MPS2 * self.lf_m / self.wheelbase_m


@dataclass(frozen=True)
class SensorFrame:
    """One 50 Hz sample of the in-car sensor suite."""

    t_s: float
    ax_mps2: float
    ay_mps2: float
    yaw_rate_radps: float
    wheel_speed_rr_mps: float
    steering_rad: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.t_s, self.ax_mps2, self.ay_mps2, self.yaw_rate_radps,
             self.wheel_speed_rr_mps, self.steering_rad]
        )


@dataclass(frozen=True)
class GroundTruthState:
    """One 50 Hz sample of the reference sensor (planar pose + velocities)."""

    t_s: float
    x_m: float
    y_m: float
    yaw_rad: float
    vx_mps: float
    vy_mps: float
    yaw_rate_radps: float
    ax_mps2: float
    ay_mps2: float
    beta_rad: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.t_s, self.x_m, self.y_m, self.yaw_rad, self.vx_mps,
             self.vy_mps, self.yaw_rate_radps, self.ax_mps2, self.ay_mps2,
             self.beta_rad]
        )


class Trajectory:
    """Time-aligned sensor and ground-truth streams of one maneuver.

    Stored as two float64 matrices (rows are 50 Hz samples, column layout in
    the S_*/G_* constants) so windowing and evaluation stay vectorized; the
    `frame` accessor materializes typed pairs on demand.
    """

    def __init__(self, sensors: np.ndarray, truth: np.ndarray, label: str = ""):
        sensors = np.asarray(sensors, dtype=np.float64)
        truth = np.asarray(truth, dtype=np.float64)
        if sensors.ndim != 2 or sensors.shape[1] != 6:
            raise ValueError(f"sensors must be (N, 6), got {sensors.shape}")
        if truth.ndim != 2 or truth.shape[1] != 10:
            raise ValueError(f"truth must be (N, 10), got {truth.shape}")
        if sensors.shape[0] != truth.shape[0]:
            raise ValueError(
                f"sensor/truth length mismatch: {sensors.shape[0]} vs {truth.shape[0]}"
            )
        self.sensors = sensors
        self.truth = truth
        self.label = label

    def __len__(self) -> int:
        return self.sensors.shape[0]

    def frame(self, i: int) -> tuple[SensorFrame, GroundTruthState]:
        s = self.sensors[i]
        g = self.truth[i]
        return (
            SensorFrame(s[S_T], s[S_AX], s[S_AY], s[S_YAWRATE], s[S_WHEEL], s[S_STEER]),
            GroundTruthState(*g),
        )

    @classmethod
    def from_frames(cls, frames, label: str = "") -> "Trajectory":
        """Build from an ordered list of (SensorFrame, GroundTruthState) pairs."""
        sensors = np.array([f.as_array() for f, _ in frames], dtype=np.float64)
        truth = np.array([g.as_array() for _, g in frames], dtype=np.float64)
        return cls(sensors.reshape(-1, 6), truth.reshape(-1, 10), label)

    def sensor_channels(self) -> np.ndarray:
        """(N, 5) matrix of the five sensor channels, time column dropped."""
        return self.sensors[:, 1:6]

    def state_channels(self) -> np.ndarray:
        """(N, 3) ground-truth (vx, vy, yaw_rate)."""
        return self.truth[:, [G_VX, G_VY, G_YAWRATE]]


def side_slip(vx: float, vy: float) -> float:
    """Angle between the velocity vector and the longitudinal axis.

    atan2 convention: (0, 0) maps to 0.
    """
    return math.atan2(vy, vx)


def accel_in_g(ay: float) -> float:
    """Magnitude of an acceleration expressed in multiples of g."""
    return abs(ay) / G_MPS2


def validate_trajectory(traj: Trajectory) -> list[str]:
    """Check timing, alignment, and finiteness invariants.

    Returns a list of human-readable violations; an empty list means the
    trajectory is well formed. Violations are data, not exceptions.
    """
    violations: list[str] = []
    n = len(traj)
    if n == 0:
        return ["empty trajectory"]

    bad_sensor = ~np.isfinite(traj.sensors).all(axis=1)
    bad_truth = ~np.isfinite(traj.truth).all(axis=1)
    for idx in np.flatnonzero(bad_sensor | bad_truth):
        violations.append(f"non-finite value at index {idx}")

    ts = traj.sensors[:, S_T]
    tg = traj.truth[:, G_T]
    misaligned = np.flatnonzero(np.abs(ts - tg) > 1e-9)
    for idx in misaligned:
        violations.append(f"sensor/truth time misalignment at index {idx}")

    gaps = np.diff(ts)
    for k in np.flatnonzero(np.abs(gaps - DT_S) > 1e-9):
        violations.append(f"timing violation at index {k + 1}: dt={gaps[k]:.6f}s")

    vx = traj.truth[:, G_VX]
    vy = traj.truth[:, G_VY]
    beta = traj.truth[:, G_BETA]
    moving = vx > 0.1
    if moving.any():
        expected = np.arctan2(vy[moving], vx[moving])
        bad = np.flatnonzero(np.abs(beta[moving] - expected) > 1e-9)
        for k in np.flatnonzero(moving)[bad]:
            violations.append(f"side-slip inconsistent with velocities at index {k}")

    return violations


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one row per 50 Hz sample in the documented 15-column format."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for i in range(len(traj)):
            s = traj.sensors[i]
            g = traj.truth[i]
            row = [s[S_T], s[S_AX], s[S_AY], s[S_YAWRATE], s[S_WHEEL], s[S_STEER],
                   g[G_X], g[G_Y], g[G_YAW], g[G_VX], g[G_VY], g[G_YAWRATE],
                   g[G_AX], g[G_AY], g[G_BETA]]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_trajectory_csv(path, label: str = "") -> Trajectory:
    """Read a trajectory written by `write_trajectory_csv`."""
    expected = CSV_HEADER.split(",")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty trajectory file") from None
        if header != expected:
            raise DataFormatError(f"{path}: bad header {header!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise DataFormatError(f"{path}:{lineno}: expected {len(expected)} columns")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: no samples")
    data = np.array(rows, dtype=np.float64)
    t = data[:, 0:1]
    sensors = np.hstack([t, data[:, 1:6]])
    truth = np.hstack([t, data[:, 6:15]])
    return Trajectory(sensors, truth, label=label or str(path))
