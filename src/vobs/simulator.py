"""Planar vehicle simulator: nonlinear dynamic bicycle model with
magic-formula tires, scripted maneuvers from city driving up to ~0.8g,
and synthesis of noisy in-car sensor streams.

Integration runs RK4 at 500 Hz (dt = 0.002 s) on plain Python floats and is
decimated to the 50 Hz sample grid. Control laws are re-evaluated at the
integration rate (zero-order hold across one substep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import DT_S, G_MPS2, TireParams, Trajectory, VehicleParams
from .errors import ConfigError, NumericalError

MAX_STEERING_RAD = 0.6

MANEUVER_KINDS = (
    "city_mix",
    "step_steer",
    "double_lane_change",
    "u_turn",
    "slalom",
    "constant_radius_ramp",
)


@dataclass(frozen=True)
class SimState:
    """Planar rigid-body state: pose plus body-frame velocities."""

    x_m: float = 0.0
    y_m: float = 0.0
    yaw_rad: float = 0.0
    vx_mps: float = 10.0
    vy_mps: float = 0.0
    yaw_rate_radps: float = 0.0

    def as_tuple(self):
        return (self.x_m, self.y_m, self.yaw_rad,
                self.vx_mps, self.vy_mps, self.yaw_rate_radps)


@dataclass(frozen=True)
class ControlInput:
    """Road-wheel steering angle and net longitudinal force at the CoG."""

    steering_rad: float
    long_force_n: float


@dataclass(frozen=True)
class ManeuverScript:
    """Named control law over a fixed horizon, starting from `initial`."""

    name: str
    duration_s: float
    control_law: Callable[[float, SimState], ControlInput]
    initial: SimState

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ConfigError(f"script '{self.name}': duration must be > 0")


@dataclass(frozen=True)
class SensorNoiseSpec:
    """Additive Gaussian noise and constant bias per sensor channel."""

    std_ax: float = 0.05
    std_ay: float = 0.05
    std_yaw_rate: float = 0.002
    std_wheel_speed: float = 0.03
    std_steering: float = 0.001
    bias_ax: float = 0.0
    bias_ay: float = 0.0
    bias_yaw_rate: float = 0.0
    bias_wheel_speed: float = 0.0
    bias_steering: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("std_ax", "std_ay", "std_yaw_rate", "std_wheel_speed", "std_steering"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    @classmethod
    def zero(cls, seed: int = 0) -> "SensorNoiseSpec":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, seed=seed)


def pacejka_lateral_force(slip_rad: float, vertical_load_n: float,
                          tire: TireParams) -> float:
    """Lateral tire force D*Fz*sin(C*atan(B*slip)); odd in slip."""
    if vertical_load_n <= 0:
        raise ValueError(f"vertical load must be > 0, got {vertical_load_n}")
    return (tire.peak_factor_d_per_n * vertical_load_n
            * math.sin(tire.shape_factor_c
                       * math.atan(tire.stiffness_factor_b * slip_rad)))


def _derivatives(x, y, yaw, vx, vy, r, delta, fx, p: VehicleParams,
                 fzf: float, fzr: float):
    """Continuous-time bicycle-model derivatives; returns the 6 state rates
    plus the body-frame specific forces (accelerometer readings)."""
    alpha_f = delta - math.atan2(vy + p.lf_m * r, vx)
    alpha_r = -math.atan2(vy - p.lr_m * r, vx)
    tf = p.tire_front
    tr = p.tire_rear
    fyf = tf.peak_factor_d_per_n * fzf * math.sin(
        tf.shape_factor_c * math.atan(tf.stiffness_factor_b * alpha_f))
    fyr = tr.peak_factor_d_per_n * fzr * math.sin(
        tr.shape_factor_c * math.atan(tr.stiffness_factor_b * alpha_r))
    cos_d = math.cos(delta)
    ax_body = (fx - fyf * math.sin(delta)) / p.mass_kg
    ay_body = (fyf * cos_d + fyr) / p.mass_kg
    dvx = ax_body + r * vy
    dvy = ay_body - r * vx
    dr = (p.lf_m * fyf * cos_d - p.lr_m * fyr) / p.inertia_z_kgm2
    cos_y = math.cos(yaw)
    sin_y = math.sin(yaw)
    dx = vx * cos_y - vy * sin_y
    dy = vx * sin_y + vy * cos_y
    return dx, dy, r, dvx, dvy, dr, ax_body, ay_body


def _rk4_step(s, delta, fx, p, fzf, fzr, dt):
    """One RK4 step with the control held constant; s is a 6-tuple."""
    x, y, yaw, vx, vy, r = s
    k1 = _derivatives(x, y, yaw, vx, vy, r, delta, fx, p, fzf, fzr)[:6]
    h = dt * 0.5
    k2 = _derivatives(x + h * k1[0], y + h * k1[1], yaw + h * k1[2],
                      vx + h * k1[3], vy + h * k1[4], r + h * k1[5],
                      delta, fx, p, fzf, fzr)[:6]
    k3 = _derivatives(x + h * k2[0], y + h * k2[1], yaw + h * k2[2],
                      vx + h * k2[3], vy + h * k2[4], r + h * k2[5],
                      delta, fx, p, fzf, fzr)[:6]
    k4 = _derivatives(x + dt * k3[0], y + dt * k3[1], yaw + dt * k3[2],
                      vx + dt * k3[3], vy + dt * k3[4], r + dt * k3[5],
                      delta, fx, p, fzf, fzr)[:6]
    w = dt / 6.0
    return (x + w * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            y + w * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
            yaw + w * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
            vx + w * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]),
            vy + w * (k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4]),
            r + w * (k1[5] + 2 * k2[5] + 2 * k3[5] + k4[5]))


def synthesize_sensors(gt: np.ndarray, steering, p: VehicleParams,
                       noise: SensorNoiseSpec) -> np.ndarray:
    """Build the in-car sensor stream from the (N, 10) ground truth, in
    Trajectory.truth layout, and the steering trace.

    The accelerometer channels are the body-frame specific forces already
    carried by the ground truth; the wheel-speed channel is the longitudinal
    rigid-body velocity at the rear-right contact patch,
    vx + (track/2)*yaw_rate.  Each channel gets seeded Gaussian noise plus a
    constant bias. Returns an (N, 6) matrix in Trajectory.sensors layout.
    """
    if gt.shape[0] == 0:
        raise ValueError("empty ground-truth sequence")
    steering = np.asarray(steering, dtype=np.float64)
    if steering.shape != (gt.shape[0],):
        raise ValueError("steering trace length must match ground truth")

    t = gt[:, 0]
    ax = gt[:, 7]
    ay = gt[:, 8]
    yaw_rate = gt[:, 6]
    wheel = gt[:, 4] + 0.5 * p.track_m * yaw_rate

    n = gt.shape[0]
    rng = np.random.default_rng(noise.seed)
    sensors = np.empty((n, 6), dtype=np.float64)
    sensors[:, 0] = t
    sensors[:, 1] = ax + noise.bias_ax + rng.normal(0.0, 1.0, n) * noise.std_ax
    sensors[:, 2] = ay + noise.bias_ay + rng.normal(0.0, 1.0, n) * noise.std_ay
    sensors[:, 3] = (yaw_rate + noise.bias_yaw_rate
                     + rng.normal(0.0, 1.0, n) * noise.std_yaw_rate)
    sensors[:, 4] = (wheel + noise.bias_wheel_speed
                     + rng.normal(0.0, 1.0, n) * noise.std_wheel_speed)
    sensors[:, 5] = (steering + noise.bias_steering
                     + rng.normal(0.0, 1.0, n) * noise.std_steering)
    return sensors


CONTROL_PERIOD_S = 0.002


def run_maneuver(script: ManeuverScript, p: VehicleParams,
                 noise: SensorNoiseSpec, substep_s: float = 0.002) -> Trajectory:
    """Integrate a scripted maneuver and return the 50 Hz trajectory.

    Ground truth comes straight from the integrator; sensors from
    `synthesize_sensors`. Longitudinal force is saturated at mu*M*g and
    steering at +-0.6 rad before entering the dynamics. The control law
    always runs at the fixed 500 Hz rate (zero-order hold), independent of
    the integration substep, so refining the substep only refines the
    integration.
    """
    if substep_s <= 0:
        raise ConfigError(f"substep must be > 0, got {substep_s}")
    n_sub = CONTROL_PERIOD_S / substep_s
    if abs(n_sub - round(n_sub)) > 1e-9:
        raise ConfigError(
            f"substep {substep_s} does not divide the {CONTROL_PERIOD_S} s control period")
    n_sub = int(round(n_sub))
    ctrl_per_sample = int(round(DT_S / CONTROL_PERIOD_S))

    fzf = p.static_load_front_n
    fzr = p.static_load_rear_n
    mu = min(p.tire_front.peak_factor_d_per_n, p.tire_rear.peak_factor_d_per_n)
    fx_max = mu * p.mass_kg * G_MPS2

    n_samples = int(round(script.duration_s / DT_S))
    if n_samples < 1:
        raise ConfigError(f"script '{script.name}' shorter than one sample period")

    truth = np.empty((n_samples, 10), dtype=np.float64)
    steer_trace = np.empty(n_samples, dtype=np.float64)

    s = script.initial.as_tuple()
    law = script.control_law
    for k in range(n_samples):
        t = k * DT_S
        u = law(t, SimState(*s))
        delta = min(max(u.steering_rad, -MAX_STEERING_RAD), MAX_STEERING_RAD)
        fx = min(max(u.long_force_n, -fx_max), fx_max)

        d = _derivatives(s[0], s[1], s[2], s[3], s[4], s[5], delta, fx, p, fzf, fzr)
        vx, vy = s[3], s[4]
        truth[k] = (t, s[0], s[1], s[2], vx, vy, s[5], d[6], d[7],
                    math.atan2(vy, vx))
        steer_trace[k] = delta
        if not (math.isfinite(s[0]) and math.isfinite(s[3])
                and math.isfinite(s[4]) and math.isfinite(s[5])):
            raise NumericalError(
                f"integration diverged in '{script.name}' at t={t:.3f}s")

        for j in range(ctrl_per_sample):
            if j > 0:
                u = law(t + j * CONTROL_PERIOD_S, SimState(*s))
                delta = min(max(u.steering_rad, -MAX_STEERING_RAD), MAX_STEERING_RAD)
                fx = min(max(u.long_force_n, -fx_max), fx_max)
            for _ in range(n_sub):
                s = _rk4_step(s, delta, fx, p, fzf, fzr, substep_s)

    if not np.isfinite(truth).all():
        raise NumericalError(f"integration produced non-finite output in '{script.name}'")
    sensors = synthesize_sensors(truth, steer_trace, p, noise)
    return Trajectory(sensors, truth, label=script.name)


# ---------------------------------------------------------------------------
# Built-in maneuver scripts
# ---------------------------------------------------------------------------

_SPEED_GAIN_N_PER_MPS = 4000.0
_YAW_GAIN_RAD_PER_RADPS = 0.4

_DEFAULT_DURATION_S = {
    "city_mix": 600.0,
    "step_steer": 30.0,
    "double_lane_change": 30.0,
    "u_turn": 40.0,
    "slalom": 40.0,
    "constant_radius_ramp": 70.0,
}


def _target_ay(intensity: float) -> float:
    """Peak lateral acceleration the script aims for, ~0.1g..0.85g."""
    ay_g = 0.1 + 0.75 * (intensity - 0.1) / 0.9
    return max(ay_g, 0.03) * G_MPS2


def _speed_force(v_ref: float, vx: float) -> float:
    return _SPEED_GAIN_N_PER_MPS * (v_ref - vx)


def _ramp01(t: float, t0: float, ramp: float) -> float:
    """Linear 0..1 ramp starting at t0, clamped."""
    return min(max((t - t0) / ramp, 0.0), 1.0)


def _step_steer(intensity: float, duration: float, p: VehicleParams) -> ManeuverScript:
    v = 15.0
    ay = _target_ay(intensity)
    radius = v * v / ay
    delta_ff = p.wheelbase_m / radius

    def law(t: float, s: SimState) -> ControlInput:
        fx = _speed_force(v, s.vx_mps)
        if t < 3.0:
            return ControlInput(0.0, fx)
        shape = _ramp01(t, 3.0, 1.0)
        r_ref = shape * s.vx_mps / radius
        delta = (shape * delta_ff
                 + _YAW_GAIN_RAD_PER_RADPS * (r_ref - s.yaw_rate_radps))
        return ControlInput(delta, fx)

    return ManeuverScript(f"step_steer@{intensity:.2f}", duration, law,
                          SimState(vx_mps=v))


def _double_lane_change(intensity: float, duration: float,
                        p: VehicleParams) -> ManeuverScript:
    v = 16.0
    ay = _target_ay(intensity)
    # sine-steer amplitude; 1.12 compensates the yaw-response lag at this period
    delta0 = 1.12 * ay * p.wheelbase_m / (v * v)
    period = 12.0
    t_sine = 3.0

    def law(t: float, s: SimState) -> ControlInput:
        fx = _speed_force(v, s.vx_mps)
        tp = (t - 2.0) % period if t >= 2.0 else -1.0
        if 0.0 <= tp < t_sine:
            delta = delta0 * math.sin(2.0 * math.pi * tp / t_sine)
        elif t_sine + 1.0 <= tp < 2.0 * t_sine + 1.0:
            delta = -delta0 * math.sin(2.0 * math.pi * (tp - t_sine - 1.0) / t_sine)
        else:
            delta = 0.0
        return ControlInput(delta, fx)

    return ManeuverScript(f"double_lane_change@{intensity:.2f}", duration, law,
                          SimState(vx_mps=v))


def _u_turn(intensity: float, duration: float, p: VehicleParams) -> ManeuverScript:
    v = 10.0
    ay = _target_ay(intensity)
    radius = max(v * v / ay, 6.0)
    delta_ff = p.wheelbase_m / radius

    def law(t: float, s: SimState) -> ControlInput:
        fx = _speed_force(v, s.vx_mps)
        if t < 3.0 or s.yaw_rad >= math.pi:
            return ControlInput(0.0, fx)
        shape = _ramp01(t, 3.0, 2.0) * _ramp01(math.pi - s.yaw_rad, 0.0, 0.3)
        r_ref = shape * s.vx_mps / radius
        delta = (shape * delta_ff
                 + _YAW_GAIN_RAD_PER_RADPS * (r_ref - s.yaw_rate_radps))
        return ControlInput(delta, fx)

    return ManeuverScript(f"u_turn@{intensity:.2f}", duration, law,
                          SimState(vx_mps=v))


def _slalom(intensity: float, duration: float, p: VehicleParams) -> ManeuverScript:
    v = 17.0
    ay = _target_ay(intensity)
    # 1.09 compensates the yaw-response lag at this period
    delta0 = 1.09 * ay * p.wheelbase_m / (v * v)
    wave_period = 4.0

    def law(t: float, s: SimState) -> ControlInput:
        fx = _speed_force(v, s.vx_mps)
        if t < 3.0:
            return ControlInput(0.0, fx)
        delta = delta0 * math.sin(2.0 * math.pi * (t - 3.0) / wave_period)
        return ControlInput(delta, fx)

    return ManeuverScript(f"slalom@{intensity:.2f}", duration, law,
                          SimState(vx_mps=v))


def _constant_radius_ramp(intensity: float, duration: float,
                          p: VehicleParams) -> ManeuverScript:
    radius = 40.0
    # aim the end-of-ramp acceleration at ~0.8g for intensity 1.0
    ay_end = _target_ay(intensity) * (0.80 / 0.85)
    v0 = 6.0
    v_max = math.sqrt(ay_end * radius)
    ramp_rate = 1.2
    delta_ff = p.wheelbase_m / radius

    def law(t: float, s: SimState) -> ControlInput:
        if t < 3.0:
            v_ref = v0
        else:
            v_ref = min(v0 + ramp_rate * (t - 3.0), v_max)
        fx = _speed_force(v_ref, s.vx_mps)
        r_ref = s.vx_mps / radius
        delta = delta_ff + _YAW_GAIN_RAD_PER_RADPS * (r_ref - s.yaw_rate_radps)
        return ControlInput(delta, fx)

    return ManeuverScript(f"constant_radius_ramp@{intensity:.2f}", duration, law,
                          SimState(vx_mps=v0))


def _city_mix(intensity: float, duration: float, p: VehicleParams,
              seed: int) -> ManeuverScript:
    """Stylized urban driving: speed changes, gentle turns, lane changes,
    occasional tight corners, all below the script's intensity ceiling."""
    ay_cap = _target_ay(intensity)
    rng = np.random.default_rng(seed)

    # compile a deterministic segment plan covering the duration
    segments = []  # (t_end, v_ref, kind, param)
    t_acc = 0.0
    v_current = 12.0
    while t_acc < duration:
        choice = rng.integers(0, 5)
        if choice == 0:  # cruise straight
            seg_len = 6.0 + 8.0 * rng.random()
            segments.append((t_acc + seg_len, v_current, "straight", 0.0))
        elif choice == 1:  # speed change
            v_current = 5.0 + 12.0 * rng.random()
            seg_len = 8.0
            segments.append((t_acc + seg_len, v_current, "straight", 0.0))
        elif choice == 2:  # sweeping turn
            seg_len = 5.0 + 5.0 * rng.random()
            ay = ay_cap * (0.3 + 0.7 * rng.random())
            sign = 1.0 if rng.random() < 0.5 else -1.0
            segments.append((t_acc + seg_len, v_current, "turn", sign * ay))
        elif choice == 3:  # lane change
            seg_len = 6.0
            ay = ay_cap * (0.4 + 0.6 * rng.random())
            sign = 1.0 if rng.random() < 0.5 else -1.0
            segments.append((t_acc + seg_len, v_current, "lane", sign * ay))
        else:  # tight corner at lower speed
            v_corner = 5.0 + 3.0 * rng.random()
            seg_len = 8.0
            sign = 1.0 if rng.random() < 0.5 else -1.0
            segments.append((t_acc + seg_len, v_corner, "turn", sign * ay_cap * 0.9))
        t_acc += seg_len
    seg_starts = [0.0] + [s[0] for s in segments[:-1]]

    def law(t: float, s: SimState) -> ControlInput:
        idx = 0
        lo, hi = 0, len(segments) - 1  # binary search over segment ends
        while lo < hi:
            mid = (lo + hi) // 2
            if segments[mid][0] <= t:
                lo = mid + 1
            else:
                hi = mid
        idx = lo
        t_end, v_ref, kind, param = segments[idx]
        t0 = seg_starts[idx]
        fx = _speed_force(v_ref, s.vx_mps)
        vx = max(s.vx_mps, 3.0)
        if kind == "straight":
            delta = 0.0
        elif kind == "turn":
            shape = _ramp01(t, t0, 1.5) * _ramp01(t_end - t, 0.0, 1.5)
            r_ref = shape * param / vx
            delta = (shape * p.wheelbase_m * param / (vx * vx)
                     + _YAW_GAIN_RAD_PER_RADPS * (r_ref - s.yaw_rate_radps))
        else:  # lane change: one full sine of steering
            t_sine = 3.0
            tp = t - t0
            if tp < t_sine:
                delta = param * p.wheelbase_m / (vx * vx) * math.sin(
                    2.0 * math.pi * tp / t_sine)
            else:
                delta = 0.0
        return ControlInput(delta, fx)

    return ManeuverScript(f"city_mix@{intensity:.2f}", duration, law,
                          SimState(vx_mps=12.0))


def builtin_scripts(kind: str, intensity: float, duration_s: float | None = None,
                    params: VehicleParams | None = None,
                    seed: int = 0) -> ManeuverScript:
    """Parameterized maneuver library.

    `intensity` in (0, 1] scales the targeted peak lateral acceleration from
    roughly 0.1g up to roughly 0.85g. `seed` only affects the city_mix
    segment plan.
    """
    if kind not in MANEUVER_KINDS:
        raise ConfigError(f"unknown maneuver kind '{kind}' (known: {MANEUVER_KINDS})")
    if not 0.0 < intensity <= 1.0:
        raise ConfigError(f"intensity must be in (0, 1], got {intensity}")
    p = params or VehicleParams()
    duration = duration_s if duration_s is not None else _DEFAULT_DURATION_S[kind]
    if kind == "city_mix":
        return _city_mix(intensity, duration, p, seed)
    if kind == "step_steer":
        return _step_steer(intensity, duration, p)
    if kind == "double_lane_change":
        return _double_lane_change(intensity, duration, p)
    if kind == "u_turn":
        return _u_turn(intensity, duration, p)
    if kind == "slalom":
        return _slalom(intensity, duration, p)
    return _constant_radius_ramp(intensity, duration, p)
