"""Core physical types, constants, and trajectory containers.

Conventions used everywhere in the package:
  - SI units, angles in radians (yaw rate in mrad/s appears only in
    evaluation reports).
  - z-axis up, positive yaw rate is counter-clockwise (left turn).
  - Wheel speed is the linear speed of the contact patch in m/s.
  - Sampling runs at 50 Hz (dt = 0.02 s).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_float_csv, write_csv
from .errors import DataFormatError

G_MPS2 = 9.81
DT_S = 0.02

SENSOR_CHANNELS = ("ax", "ay", "yaw_rate", "wheel_speed_rr", "steering")
STATE_CHANNELS = ("vx", "vy", "yaw_rate")

# Column layout of Trajectory.sensors
S_T, S_AX, S_AY, S_YAWRATE, S_WHEEL, S_STEER = range(6)
# Column layout of Trajectory.truth
(G_T, G_X, G_Y, G_YAW, G_VX, G_VY, G_YAWRATE, G_AX, G_AY, G_BETA) = range(10)

# Columns of a trajectory CSV: the sensor matrix, then the truth matrix
# without its time column
CSV_COLUMNS = ("t", "ax", "ay", "yaw_rate", "wheel_speed_rr", "steering",
               "gt_x", "gt_y", "gt_yaw", "gt_vx", "gt_vy", "gt_yaw_rate",
               "gt_ax", "gt_ay", "gt_beta")


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


class Trajectory:
    """Time-aligned sensor and ground-truth streams of one maneuver.

    Stored as two float64 matrices (rows are 50 Hz samples, column layout in
    the S_*/G_* constants) so windowing and evaluation stay vectorized.
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

    def sensor_channels(self) -> np.ndarray:
        """(N, 5) matrix of the five sensor channels, time column dropped."""
        return self.sensors[:, 1:6]

    def state_channels(self) -> np.ndarray:
        """(N, 3) ground-truth (vx, vy, yaw_rate)."""
        return self.truth[:, [G_VX, G_VY, G_YAWRATE]]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one row per 50 Hz sample in the documented 15-column format."""
    rows = np.hstack([traj.sensors, traj.truth[:, G_X:]])
    write_csv(path, CSV_COLUMNS, map(np.ndarray.tolist, rows))


def read_trajectory_csv(path, label: str = "") -> Trajectory:
    """Read a trajectory written by `write_trajectory_csv`."""
    data = read_float_csv(path, CSV_COLUMNS)
    if not len(data):
        raise DataFormatError(f"{path}:2: no samples after the header")
    return Trajectory(data[:, :6].copy(), np.hstack([data[:, :1], data[:, 6:]]),
                      label=label or str(path))
