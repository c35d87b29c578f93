"""Core physical types, constants, trajectory containers and their files.

The test vehicle is one set of module constants: the simulator drives it in
every maneuver and the bicycle-model EKF models it.

Conventions used everywhere in the package:
  - SI units, angles in radians (yaw rate in mrad/s appears only in
    evaluation reports).
  - z-axis up, positive yaw rate is counter-clockwise (left turn).
  - Wheel speed is the linear speed of the contact patch in m/s.
  - Sampling runs at 50 Hz (dt = 0.02 s).
"""

from __future__ import annotations

import numpy as np

from .artifacts import read_array, write_array

G_MPS2 = 9.81
DT_S = 0.02

SENSOR_CHANNELS = ("ax", "ay", "yaw_rate", "wheel_speed_rr", "steering")
STATE_CHANNELS = ("vx", "vy", "yaw_rate")

# Column layout of Trajectory.sensors
S_T, S_AX, S_AY, S_YAWRATE, S_WHEEL, S_STEER = range(6)
# Column layout of Trajectory.truth
(G_T, G_X, G_Y, G_YAW, G_VX, G_VY, G_YAWRATE, G_AX, G_AY, G_BETA) = range(10)

# Columns of a trajectory file's one float64 `.npy` array: the sensor
# matrix, then the truth matrix without its time column
TRAJECTORY_COLUMNS = ("t", "ax", "ay", "yaw_rate", "wheel_speed_rr", "steering",
                      "gt_x", "gt_y", "gt_yaw", "gt_vx", "gt_vy", "gt_yaw_rate",
                      "gt_ax", "gt_ay", "gt_beta")


# The one test vehicle, a mid-size sedan: every maneuver drives it and the
# EKF models it
MASS_KG = 1578.0
LF_M = 1.134  # CoG to front axle
LR_M = 1.578  # CoG to rear axle
TRACK_M = 1.513
INERTIA_Z_KGM2 = 2924.0
# its one tire, on both axles: magic-formula lateral coefficients B, C and D,
# where D multiplies the static vertical load
TIRE_B = 10.0
TIRE_C = 1.9
TIRE_D_PER_N = 1.0
WHEELBASE_M = LF_M + LR_M
STATIC_LOAD_FRONT_N = MASS_KG * G_MPS2 * LR_M / WHEELBASE_M
STATIC_LOAD_REAR_N = MASS_KG * G_MPS2 * LF_M / WHEELBASE_M


class Trajectory:
    """Time-aligned sensor and ground-truth streams of one maneuver.

    Stored as two float64 matrices (rows are 50 Hz samples, column layout in
    the S_*/G_* constants) so windowing and evaluation stay vectorized.
    `sha256` is the SHA-256 of the file it was read from, "" if none.
    """

    def __init__(self, sensors: np.ndarray, truth: np.ndarray, label: str = "",
                 sha256: str = ""):
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
        self.sha256 = sha256

    def __len__(self) -> int:
        return self.sensors.shape[0]

    def sensor_channels(self) -> np.ndarray:
        """(N, 5) matrix of the five sensor channels, time column dropped."""
        return self.sensors[:, 1:6]

    def state_channels(self) -> np.ndarray:
        """(N, 3) ground-truth (vx, vy, yaw_rate)."""
        return self.truth[:, [G_VX, G_VY, G_YAWRATE]]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `traj` as a trajectory file, one row per 50 Hz sample. The name
    is the benchmark's span name, kept until the benchmark renames it."""
    write_array(path, np.hstack([traj.sensors, traj.truth[:, G_X:]]))


def read_trajectory_csv(path, label: str = "") -> Trajectory:
    """Read a trajectory written by `write_trajectory_csv`. The name is the
    benchmark's span name, kept until the benchmark renames it."""
    data, sha256 = read_array(path, TRAJECTORY_COLUMNS, "trajectory array", "simulate")
    return Trajectory(data[:, :6].copy(), np.hstack([data[:, :1], data[:, 6:]]),
                      label=label or str(path), sha256=sha256)
