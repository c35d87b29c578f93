"""Comparison observers: an extended Kalman filter on the dynamic bicycle
model with linear tires, and an end-to-end GRU observer without state
feedback.

The EKF state is (vx, vy, yaw_rate). One lateral model, `_lateral`, feeds
both predict and update. Prediction integrates the bicycle model with
measured longitudinal acceleration and steering as inputs (Euler, with the
analytic Jacobian of the discrete map); the update assimilates wheel speed,
gyro yaw rate, and lateral acceleration through a Joseph-form covariance
update. Process noise is a continuous intensity, discretized as Q*dt over
the 50 Hz sample period `domain.DT_S`.

Both observers take the `Trajectory` whose sensor stream they estimate
over; neither reads its ground truth. `run_gru` takes the same arguments, in
the same order, as `observer_lstm.run_closed_loop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .dataset import NoiseSpec, ScalerParams, WindowedDataset
from .domain import DT_S, Trajectory, VehicleParams
from .errors import ConfigError, NumericalError
from .neural import RecurrentRegressor, TrainConfig, gru_observer_net
from .observer_lstm import EstimateTrace, train_observer, window_features

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _identity(n: int) -> np.ndarray:
    return _read_only(np.eye(n))


@dataclass(frozen=True)
class EkfConfig:
    """Linear-tire stiffnesses plus diagonal noise matrices."""

    cornering_stiffness_front_nprad: float
    cornering_stiffness_rear_nprad: float
    # the noise defaults were tuned once by grid search on low-acceleration
    # synthetic data with the standard sensor noise
    process_noise_q: tuple = (0.05, 0.05, 0.02)
    measurement_noise_r: tuple = (9e-4, 4e-6, 2.5e-3)
    initial_covariance_p0: tuple = (0.25, 0.25, 0.01)
    min_speed_mps: float = 0.5

    def __post_init__(self):
        for name in ("process_noise_q", "measurement_noise_r", "initial_covariance_p0"):
            vals = getattr(self, name)
            if len(vals) != 3 or any(v <= 0 for v in vals):
                raise ConfigError(f"{name} must be 3 positive diagonal entries")

    @classmethod
    def for_vehicle(cls, p: VehicleParams, **kwargs) -> "EkfConfig":
        """Stiffnesses from the tire model's linearization B*C*D*Fz per axle."""
        tf, tr = p.tire_front, p.tire_rear
        cf = tf.stiffness_factor_b * tf.shape_factor_c * tf.peak_factor_d_per_n \
            * p.static_load_front_n
        cr = tr.stiffness_factor_b * tr.shape_factor_c * tr.peak_factor_d_per_n \
            * p.static_load_rear_n
        return cls(cf, cr, **kwargs)

    # built once per config: the filter reads them on every sample
    @cached_property
    def q_matrix(self) -> np.ndarray:
        return _read_only(np.diag(self.process_noise_q).astype(np.float64))

    @cached_property
    def r_matrix(self) -> np.ndarray:
        return _read_only(np.diag(self.measurement_noise_r).astype(np.float64))

    def p0_matrix(self) -> np.ndarray:
        return np.diag(self.initial_covariance_p0).astype(np.float64)


@dataclass
class EkfState:
    """Filter mean (vx, vy, yaw_rate) and covariance."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64).reshape(3)
        self.p = np.asarray(self.p, dtype=np.float64).reshape(3, 3)


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

def _lateral(x: np.ndarray, delta: float, p: VehicleParams, cfg: EkfConfig):
    """Lateral and yaw acceleration from the linear tire forces, and the
    gradient of each with respect to (vx, vy, r)."""
    vx, vy, r = x
    uf = vy + p.lf_m * r
    ur = vy - p.lr_m * r
    df = uf * uf + vx * vx
    dr = ur * ur + vx * vx
    dalpha_f = (uf / df, -vx / df, -p.lf_m * vx / df)
    dalpha_r = (ur / dr, -vx / dr, p.lr_m * vx / dr)
    cf = cfg.cornering_stiffness_front_nprad
    cr = cfg.cornering_stiffness_rear_nprad
    cos_d = math.cos(delta)
    fyf = cf * (delta + -math.atan2(uf, vx))
    fyr = cr * -math.atan2(ur, vx)
    ay = (fyf * cos_d + fyr) / p.mass_kg
    yaw_acc = (p.lf_m * fyf * cos_d - p.lr_m * fyr) / p.inertia_z_kgm2
    ay_grad = [(cf * cos_d * a + cr * b) / p.mass_kg for a, b in zip(dalpha_f, dalpha_r)]
    yaw_grad = [(p.lf_m * cf * cos_d * a - p.lr_m * cr * b) / p.inertia_z_kgm2
                for a, b in zip(dalpha_f, dalpha_r)]
    return ay, yaw_acc, ay_grad, yaw_grad


def _process_model(x: np.ndarray, ax_meas: float, delta: float,
                   p: VehicleParams, cfg: EkfConfig):
    """Continuous-time rates f(x, u) and their Jacobian wrt the state."""
    vx, vy, r = x
    ay, yaw_acc, ay_grad, yaw_grad = _lateral(x, delta, p, cfg)
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


def _measurement_model(x: np.ndarray, delta: float, p: VehicleParams,
                       cfg: EkfConfig):
    """h(x) = (wheel speed at the rear-right patch, yaw rate, lateral
    acceleration from the linear tire forces) and its Jacobian."""
    vx, _, r = x
    ay, _, ay_grad, _ = _lateral(x, delta, p, cfg)
    h = np.array([
        vx + 0.5 * p.track_m * r,
        r,
        ay,
    ])
    jac = np.array([
        [1.0, 0.0, 0.5 * p.track_m],
        [0.0, 0.0, 1.0],
        ay_grad,
    ])
    return h, jac


def ekf_predict(s: EkfState, u: tuple[float, float], p: VehicleParams,
                cfg: EkfConfig, dt: float) -> EkfState:
    """Euler-discretized prediction with u = (measured ax, steering).

    Below the minimum-speed threshold the state is frozen and the
    covariance inflated (slip angles are not usable).
    """
    if dt < 0:
        raise ConfigError(f"dt must be >= 0, got {dt}")
    q = cfg.q_matrix * dt
    if s.x[0] <= cfg.min_speed_mps:
        return EkfState(s.x.copy(), 0.5 * (s.p + s.p.T) + q)
    ax_meas, delta = u
    f, jac = _process_model(s.x, ax_meas, delta, p, cfg)
    x_new = s.x + dt * f
    f_discrete = _identity(3) + dt * jac
    return EkfState(x_new, kf_predict_cov(s.p, f_discrete, q))


def ekf_update(s: EkfState, z, steering_rad: float, p: VehicleParams,
               cfg: EkfConfig) -> EkfState:
    """Assimilate z = (wheel_speed_rr, yaw_rate_gyro, ay)."""
    z = np.asarray(z, dtype=np.float64).reshape(3)
    h, jac = _measurement_model(s.x, steering_rad, p, cfg)
    x_new, p_new = kf_update_joseph(s.x, s.p, z, h, jac, cfg.r_matrix)
    return EkfState(x_new, p_new)


def process_jacobian(x, ax_meas, delta, p, cfg, dt) -> np.ndarray:
    """Jacobian of the discrete prediction map (for verification)."""
    _, jac = _process_model(np.asarray(x, dtype=np.float64), ax_meas, delta, p, cfg)
    return _identity(3) + dt * jac


def measurement_jacobian(x, delta, p, cfg) -> np.ndarray:
    _, jac = _measurement_model(np.asarray(x, dtype=np.float64), delta, p, cfg)
    return jac


def run_ekf(traj: Trajectory, initial_state, p: VehicleParams,
            cfg: EkfConfig) -> EstimateTrace:
    """Alternate predict and update over the 50 Hz sensor stream of `traj`,
    from the mean `initial_state` (vx, vy, yaw_rate) and `cfg`'s P0.

    The first frame is assimilated without a prediction (no time has
    passed); afterwards each frame's (ax, steering) drives the prediction
    over one sample period `DT_S` into its own timestamp before its
    measurements are assimilated.
    """
    raw = traj.sensor_channels()
    n = raw.shape[0]
    if n == 0:
        raise ConfigError("empty sensor stream")

    s = EkfState(np.array(initial_state, dtype=np.float64), cfg.p0_matrix())
    estimates = np.empty((n, 3))
    for k in range(n):
        ax_k, ay_k, gyro_k, wheel_k, steer_k = raw[k]
        if k > 0:
            s = ekf_predict(s, (ax_k, steer_k), p, cfg, DT_S)
        s = ekf_update(s, (wheel_k, gyro_k, ay_k), steer_k, p, cfg)
        estimates[k] = s.x
    return EstimateTrace(traj.sensors[:, 0].copy(), estimates)


# ---------------------------------------------------------------------------
# End-to-end GRU observer (window in, state out, no feedback path)
# ---------------------------------------------------------------------------

def train_gru(train_ds: WindowedDataset, val_ds: WindowedDataset,
              scaler: ScalerParams, tc: TrainConfig,
              net: RecurrentRegressor | None = None):
    """Same optimization loop as the feedback observer, minus the state
    input — there is nothing to inject noise into."""
    if net is None:
        net = gru_observer_net(seed=tc.seed)
    return train_observer(train_ds, val_ds, scaler, NoiseSpec(0.0, 0.0), tc, net=net)


def run_gru(traj: Trajectory, initial_state, net: RecurrentRegressor,
            scaler: ScalerParams, window_len: int) -> EstimateTrace:
    """Per-step estimates from the sensor window alone.

    Estimates are a pure function of the window; the first window_len - 1
    steps carry `initial_state` purely to keep traces length-aligned.
    """
    w = window_len
    estimates = np.empty((len(traj), 3))
    for lo, feats in window_features(traj.sensor_channels(), scaler, net, w):
        out = net.head_forward(feats, None)
        estimates[w - 1 + lo: w - 1 + lo + out.shape[0]] = scaler.unscale_state(out)
    estimates[: w - 1] = np.asarray(initial_state, dtype=np.float64).reshape(3)
    return EstimateTrace(traj.sensors[:, 0].copy(), estimates)
