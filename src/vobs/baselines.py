"""Comparison observers: an extended Kalman filter on the dynamic bicycle
model with linear tires, and an end-to-end GRU observer without state
feedback.

The EKF models the one test vehicle of `domain`, the vehicle every simulated
maneuver drives: its mass, geometry and yaw inertia, and by default each
axle's cornering stiffness linearized from its tire at the static load.

The EKF state is the mean (vx, vy, yaw_rate) and its covariance, which both
filter steps take and return as plain arrays. One lateral model, `_lateral`,
feeds both predict and update. Prediction integrates the bicycle model over
one 50 Hz sample period `domain.DT_S` with measured ax and steering as
inputs (Euler, with the analytic Jacobian of the discrete map); the update
assimilates wheel speed, gyro yaw rate, and lateral acceleration through a
Joseph-form update. Process noise Q, a continuous intensity, becomes Q*DT_S.

Both observers take the `Trajectory` whose sensor stream they estimate
over; neither reads its ground truth. Each returns its (N, 3) estimates of
(vx, vy, yaw_rate). `run_gru` takes the same arguments, in the same order,
as `observer_lstm.run_closed_loop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .dataset import NoiseSpec, ScalerParams, WindowedDataset
from .domain import (DT_S, INERTIA_Z_KGM2, LF_M, LR_M, MASS_KG, S_AX, S_AY, S_STEER, S_WHEEL,
                     S_YAWRATE, STATIC_LOAD_FRONT_N, STATIC_LOAD_REAR_N, TIRE_B, TIRE_C,
                     TIRE_D_PER_N, TRACK_M, Trajectory)
from .errors import ConfigError, NumericalError
from .neural import RecurrentRegressor, TrainConfig
from .observer_lstm import observer_net, train_observer, window_features

MIN_SPEED_MPS = 0.5


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _identity(n: int) -> np.ndarray:
    return _read_only(np.eye(n))


@dataclass(frozen=True)
class EkfConfig:
    """Linear-tire stiffnesses plus diagonal noise matrices. The fields are
    the `ekf` observer's config keys; the config checks their values."""

    # N/rad; the tire's linearization B*C*D*Fz at each axle's static load
    cornering_stiffness_front: float = TIRE_B * TIRE_C * TIRE_D_PER_N * STATIC_LOAD_FRONT_N
    cornering_stiffness_rear: float = TIRE_B * TIRE_C * TIRE_D_PER_N * STATIC_LOAD_REAR_N
    # diagonals of the process noise intensity Q (per second), the noise R of
    # (wheel speed, yaw rate, ay) and the initial covariance P0, in squared SI
    # units; tuned once by grid search on low-acceleration synthetic data
    # with the standard sensor noise
    q: tuple = (0.05, 0.05, 0.02)
    r: tuple = (9e-4, 4e-6, 2.5e-3)
    p0: tuple = (0.25, 0.25, 0.01)

    # built once per config: the filter reads them on every sample
    @cached_property
    def q_matrix(self) -> np.ndarray:
        return _read_only(np.diag(self.q).astype(np.float64))

    @cached_property
    def r_matrix(self) -> np.ndarray:
        return _read_only(np.diag(self.r).astype(np.float64))

    def p0_matrix(self) -> np.ndarray:
        return np.diag(self.p0).astype(np.float64)


# ---------------------------------------------------------------------------
# Generic Kalman steps (shared by the bicycle EKF and any linear system)
# ---------------------------------------------------------------------------

def kf_predict_cov(p: np.ndarray, f_jac: np.ndarray, q: np.ndarray) -> np.ndarray:
    p_new = f_jac @ p @ f_jac.T + q
    return 0.5 * (p_new + p_new.T)


def _symmetric_cond(s: np.ndarray) -> float:
    """2-norm condition number of the symmetric matrix `s`, max |eigenvalue|
    over min |eigenvalue|: inf when an eigenvalue is zero, nan when `s` is
    not finite."""
    if not np.isfinite(s).all():
        return math.nan
    lam = np.abs(np.linalg.eigvalsh(s))
    lo = lam.min()
    return float(lam.max() / lo) if lo > 0 else math.inf


def kf_update_joseph(x: np.ndarray, p: np.ndarray, z: np.ndarray,
                     h_of_x: np.ndarray, h_jac: np.ndarray,
                     r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard gain + Joseph-form covariance update; raises on an
    ill-conditioned innovation covariance."""
    s = h_jac @ p @ h_jac.T + r
    cond = _symmetric_cond(s)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(
            f"innovation covariance ill-conditioned (cond={cond:.3e}, diag={np.diag(s)})")
    k = np.linalg.solve(s.T, (p @ h_jac.T).T).T
    x_new = x + k @ (z - h_of_x)
    ikh = _identity(len(x)) - k @ h_jac
    p_new = ikh @ p @ ikh.T + k @ r @ k.T
    return x_new, 0.5 * (p_new + p_new.T)


# ---------------------------------------------------------------------------
# Bicycle-model EKF
# ---------------------------------------------------------------------------

def _lateral(x: np.ndarray, delta: float, cfg: EkfConfig):
    """Lateral and yaw acceleration from the linear tire forces, and the
    gradient of each with respect to (vx, vy, r)."""
    vx, vy, r = x
    uf = vy + LF_M * r
    ur = vy - LR_M * r
    df = uf * uf + vx * vx
    dr = ur * ur + vx * vx
    dalpha_f = (uf / df, -vx / df, -LF_M * vx / df)
    dalpha_r = (ur / dr, -vx / dr, LR_M * vx / dr)
    cf = cfg.cornering_stiffness_front
    cr = cfg.cornering_stiffness_rear
    cos_d = math.cos(delta)
    fyf = cf * (delta + -math.atan2(uf, vx))
    fyr = cr * -math.atan2(ur, vx)
    ay = (fyf * cos_d + fyr) / MASS_KG
    yaw_acc = (LF_M * fyf * cos_d - LR_M * fyr) / INERTIA_Z_KGM2
    ay_grad = [(cf * cos_d * a + cr * b) / MASS_KG for a, b in zip(dalpha_f, dalpha_r)]
    yaw_grad = [(LF_M * cf * cos_d * a - LR_M * cr * b) / INERTIA_Z_KGM2
                for a, b in zip(dalpha_f, dalpha_r)]
    return ay, yaw_acc, ay_grad, yaw_grad


def _process_model(x: np.ndarray, ax_meas: float, delta: float, cfg: EkfConfig):
    """Continuous-time rates f(x, u) and their Jacobian wrt the state."""
    vx, vy, r = x
    ay, yaw_acc, ay_grad, yaw_grad = _lateral(x, delta, cfg)
    f = np.array([
        ax_meas + r * vy,
        ay - r * vx,
        yaw_acc,
    ])
    jac = np.array([
        [0.0, r, vy],
        [ay_grad[0] - r, ay_grad[1], ay_grad[2] - vx],
        yaw_grad,
    ])
    return f, jac


def _measurement_model(x: np.ndarray, delta: float, cfg: EkfConfig):
    """h(x) = (wheel speed at the rear-right patch, yaw rate, lateral
    acceleration from the linear tire forces) and its Jacobian."""
    vx, _, r = x
    ay, _, ay_grad, _ = _lateral(x, delta, cfg)
    h = np.array([
        vx + 0.5 * TRACK_M * r,
        r,
        ay,
    ])
    jac = np.array([
        [1.0, 0.0, 0.5 * TRACK_M],
        [0.0, 0.0, 1.0],
        ay_grad,
    ])
    return h, jac


def ekf_predict(x: np.ndarray, cov: np.ndarray, u: tuple[float, float],
                cfg: EkfConfig) -> tuple[np.ndarray, np.ndarray]:
    """Euler-discretized prediction of the mean `x` and covariance `cov` over
    one sample period `DT_S`, with u = (measured ax, steering).

    At or below `MIN_SPEED_MPS` the mean is held and the covariance inflated
    (slip angles are not usable).
    """
    q = cfg.q_matrix * DT_S
    if x[0] <= MIN_SPEED_MPS:
        return x, 0.5 * (cov + cov.T) + q
    ax_meas, delta = u
    f, jac = _process_model(x, ax_meas, delta, cfg)
    f_discrete = _identity(3) + DT_S * jac
    return x + DT_S * f, kf_predict_cov(cov, f_discrete, q)


def ekf_update(x: np.ndarray, cov: np.ndarray, z: np.ndarray, steering_rad: float,
               cfg: EkfConfig) -> tuple[np.ndarray, np.ndarray]:
    """Assimilate z = (wheel_speed_rr, yaw_rate_gyro, ay) into the mean `x`
    and covariance `cov`."""
    h, jac = _measurement_model(x, steering_rad, cfg)
    return kf_update_joseph(x, cov, z, h, jac, cfg.r_matrix)


def run_ekf(traj: Trajectory, initial_state, cfg: EkfConfig) -> np.ndarray:
    """Alternate predict and update over the 50 Hz sensor stream of `traj`,
    from the mean `initial_state` (vx, vy, yaw_rate) and `cfg`'s P0; returns
    the (N, 3) posterior means.

    The first frame is assimilated without a prediction (no time has
    passed); afterwards each frame's (ax, steering) drives the prediction
    over one sample period `DT_S` into its own timestamp before its
    measurements are assimilated.
    """
    n = len(traj)
    if n == 0:
        raise ConfigError("empty sensor stream")
    ax, steer = traj.sensors[:, S_AX], traj.sensors[:, S_STEER]
    z = traj.sensors[:, [S_WHEEL, S_YAWRATE, S_AY]]

    x, cov = np.array(initial_state, dtype=np.float64), cfg.p0_matrix()
    estimates = np.empty((n, 3))
    for k in range(n):
        if k > 0:
            x, cov = ekf_predict(x, cov, (ax[k], steer[k]), cfg)
        x, cov = ekf_update(x, cov, z[k], steer[k], cfg)
        estimates[k] = x
    return estimates


# ---------------------------------------------------------------------------
# End-to-end GRU observer (window in, state out, no feedback path)
# ---------------------------------------------------------------------------

def train_gru(train_ds: WindowedDataset, val_ds: WindowedDataset,
              scaler: ScalerParams, tc: TrainConfig):
    """Same optimization loop as the feedback observer, minus the state
    input — there is nothing to inject noise into."""
    return train_observer(train_ds, val_ds, scaler, NoiseSpec(0.0, 0.0), tc,
                          observer_net("gru", tc.seed))


def run_gru(traj: Trajectory, initial_state, net: RecurrentRegressor,
            scaler: ScalerParams, window_len: int) -> np.ndarray:
    """(N, 3) per-step estimates from the sensor window alone.

    Estimates are a pure function of the window; the first window_len - 1
    steps carry `initial_state` purely to keep traces length-aligned.
    """
    w = window_len
    estimates = np.empty((len(traj), 3))
    for lo, feats in window_features(traj.sensor_channels(), scaler, net, w):
        out = net.head_forward(feats, None)
        estimates[w - 1 + lo: w - 1 + lo + out.shape[0]] = scaler.unscale_state(out)
    estimates[: w - 1] = np.asarray(initial_state, dtype=np.float64).reshape(3)
    return estimates
