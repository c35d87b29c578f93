"""Planar vehicle simulator: nonlinear dynamic bicycle model with
magic-formula tires, scripted maneuvers from city driving up to ~0.8g,
and synthesis of noisy in-car sensor streams.

Every maneuver drives the one test vehicle of `domain` (its mass, geometry
and tire constants); the EKF in `baselines` models the same vehicle.

Integration runs RK4 at 500 Hz (dt = 0.002 s) on plain Python floats and is
decimated to the 50 Hz sample grid. Control laws are re-evaluated at the
integration rate (zero-order hold across one substep). The model is bound
once per maneuver, with the RK4 stages inline (`bind_dynamics`).

A control law is `law(t, s) -> (steering_rad, long_force_n)`: `t` is the
time in seconds and `s` the plain 6-tuple state in `SimState`'s field order,
`(x_m, y_m, yaw_rad, vx_mps, vy_mps, yaw_rate_radps)`, so a law reads
`s[3]` for vx, `s[5]` for the yaw rate. It returns a plain pair and must be
a pure function of its arguments: `run_maneuver` calls it 500 times a
simulated second and builds no tuple type around either side.

The maneuver library is one table, `_MANEUVERS`: each kind's script builder
and default duration.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .domain import (DT_S, G_AX, G_AY, G_MPS2, G_T, G_VX, G_YAWRATE, INERTIA_Z_KGM2, LF_M,
                     LR_M, MASS_KG, S_AX, S_AY, S_STEER, S_T, S_WHEEL, S_YAWRATE,
                     STATIC_LOAD_FRONT_N, STATIC_LOAD_REAR_N, TIRE_B, TIRE_C, TIRE_D_PER_N,
                     TRACK_M, WHEELBASE_M, Trajectory)
from .errors import ConfigError, NumericalError

MAX_STEERING_RAD = 0.6


class SimState(NamedTuple):
    """Planar rigid-body state: pose plus body-frame velocities. A script's
    initial state; control laws see the same fields as a plain tuple."""

    x_m: float = 0.0
    y_m: float = 0.0
    yaw_rad: float = 0.0
    vx_mps: float = 10.0
    vy_mps: float = 0.0
    yaw_rate_radps: float = 0.0


@dataclass(frozen=True)
class ManeuverScript:
    """Named control law over a fixed horizon, starting from `initial`.

    `control_law(t, s)` takes the time and the plain 6-tuple state, in
    `SimState`'s field order, and returns the plain pair `(steering_rad,
    long_force_n)`: the road-wheel steering angle and the net longitudinal
    force at the CoG, before `run_maneuver` saturates them."""

    name: str
    duration_s: float
    control_law: Callable[[float, tuple], tuple[float, float]]
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


def pacejka_lateral_force(slip_rad: float, vertical_load_n: float) -> float:
    """Lateral force D*Fz*sin(C*atan(B*slip)) of the test vehicle's tire;
    odd in slip."""
    if vertical_load_n <= 0:
        raise ValueError(f"vertical load must be > 0, got {vertical_load_n}")
    return TIRE_D_PER_N * vertical_load_n * math.sin(TIRE_C * math.atan(TIRE_B * slip_rad))


def bind_dynamics(substep_s: float, n_sub: int):
    """The test vehicle's bicycle model, bound once: returns
    `(derivatives, advance)`.

    `derivatives(x, y, yaw, vx, vy, r, delta, fx)` gives the six state rates
    plus the body-frame specific forces (the accelerometer readings).
    `advance(s, delta, fx)` runs `n_sub` RK4 steps of `substep_s` from the
    6-tuple `s`. Its stages are `derivatives` inline, operation for operation
    and in the same order, so its output is bit-identical to RK4 over it.
    """
    atan2, atan, sin, cos = math.atan2, math.atan, math.sin, math.cos
    m, iz, lf, lr = MASS_KG, INERTIA_Z_KGM2, LF_M, LR_M
    bf, cf, dfzf = TIRE_B, TIRE_C, TIRE_D_PER_N * STATIC_LOAD_FRONT_N
    br, cr, dfzr = TIRE_B, TIRE_C, TIRE_D_PER_N * STATIC_LOAD_REAR_N
    dt, h, w = substep_s, substep_s * 0.5, substep_s / 6.0

    def derivatives(x, y, yaw, vx, vy, r, delta, fx):
        fyf = dfzf * sin(cf * atan(bf * (delta - atan2(vy + lf * r, vx))))
        fyr = dfzr * sin(cr * atan(br * -atan2(vy - lr * r, vx)))
        cos_d = cos(delta)
        ax = (fx - fyf * sin(delta)) / m
        ay = (fyf * cos_d + fyr) / m
        cy, sy = cos(yaw), sin(yaw)
        return (vx * cy - vy * sy, vx * sy + vy * cy, r, ax + r * vy, ay - r * vx,
                (lf * fyf * cos_d - lr * fyr) / iz, ax, ay)

    def advance(s, delta, fx):
        sin_d, cos_d = sin(delta), cos(delta)
        x, y, yaw, vx, vy, r = s
        for _ in range(n_sub):
            f = dfzf * sin(cf * atan(bf * (delta - atan2(vy + lf * r, vx))))
            g = dfzr * sin(cr * atan(br * -atan2(vy - lr * r, vx)))
            c, sn = cos(yaw), sin(yaw)
            dx1, dy1 = vx * c - vy * sn, vx * sn + vy * c
            du1 = (fx - f * sin_d) / m + r * vy
            dv1 = (f * cos_d + g) / m - r * vx
            dr1 = (lf * f * cos_d - lr * g) / iz

            a2, u, v, r2 = yaw + h * r, vx + h * du1, vy + h * dv1, r + h * dr1
            f = dfzf * sin(cf * atan(bf * (delta - atan2(v + lf * r2, u))))
            g = dfzr * sin(cr * atan(br * -atan2(v - lr * r2, u)))
            c, sn = cos(a2), sin(a2)
            dx2, dy2 = u * c - v * sn, u * sn + v * c
            du2 = (fx - f * sin_d) / m + r2 * v
            dv2 = (f * cos_d + g) / m - r2 * u
            dr2 = (lf * f * cos_d - lr * g) / iz

            a3, u, v, r3 = yaw + h * r2, vx + h * du2, vy + h * dv2, r + h * dr2
            f = dfzf * sin(cf * atan(bf * (delta - atan2(v + lf * r3, u))))
            g = dfzr * sin(cr * atan(br * -atan2(v - lr * r3, u)))
            c, sn = cos(a3), sin(a3)
            dx3, dy3 = u * c - v * sn, u * sn + v * c
            du3 = (fx - f * sin_d) / m + r3 * v
            dv3 = (f * cos_d + g) / m - r3 * u
            dr3 = (lf * f * cos_d - lr * g) / iz

            a4, u, v, r4 = yaw + dt * r3, vx + dt * du3, vy + dt * dv3, r + dt * dr3
            f = dfzf * sin(cf * atan(bf * (delta - atan2(v + lf * r4, u))))
            g = dfzr * sin(cr * atan(br * -atan2(v - lr * r4, u)))
            c, sn = cos(a4), sin(a4)
            x += w * (dx1 + 2 * dx2 + 2 * dx3 + (u * c - v * sn))
            y += w * (dy1 + 2 * dy2 + 2 * dy3 + (u * sn + v * c))
            yaw += w * (r + 2 * r2 + 2 * r3 + r4)
            vx += w * (du1 + 2 * du2 + 2 * du3 + ((fx - f * sin_d) / m + r4 * v))
            vy += w * (dv1 + 2 * dv2 + 2 * dv3 + ((f * cos_d + g) / m - r4 * u))
            r += w * (dr1 + 2 * dr2 + 2 * dr3 + (lf * f * cos_d - lr * g) / iz)
        return x, y, yaw, vx, vy, r

    return derivatives, advance


def synthesize_sensors(gt: np.ndarray, steering, noise: SensorNoiseSpec) -> np.ndarray:
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

    ax = gt[:, G_AX]
    ay = gt[:, G_AY]
    yaw_rate = gt[:, G_YAWRATE]
    wheel = gt[:, G_VX] + 0.5 * TRACK_M * yaw_rate

    n = gt.shape[0]
    rng = np.random.default_rng(noise.seed)
    sensors = np.empty((n, 6), dtype=np.float64)
    sensors[:, S_T] = gt[:, G_T]
    sensors[:, S_AX] = ax + noise.bias_ax + rng.normal(0.0, 1.0, n) * noise.std_ax
    sensors[:, S_AY] = ay + noise.bias_ay + rng.normal(0.0, 1.0, n) * noise.std_ay
    sensors[:, S_YAWRATE] = (yaw_rate + noise.bias_yaw_rate
                             + rng.normal(0.0, 1.0, n) * noise.std_yaw_rate)
    sensors[:, S_WHEEL] = (wheel + noise.bias_wheel_speed
                           + rng.normal(0.0, 1.0, n) * noise.std_wheel_speed)
    sensors[:, S_STEER] = (steering + noise.bias_steering
                           + rng.normal(0.0, 1.0, n) * noise.std_steering)
    return sensors


CONTROL_PERIOD_S = 0.002


def run_maneuver(script: ManeuverScript, noise: SensorNoiseSpec,
                 substep_s: float = CONTROL_PERIOD_S) -> Trajectory:
    """Integrate a scripted maneuver and return the 50 Hz trajectory.

    Ground truth comes straight from the integrator; sensors from
    `synthesize_sensors`. Longitudinal force is saturated at mu*M*g and
    steering at +-0.6 rad before entering the dynamics. The control law
    always runs at the fixed 500 Hz rate (zero-order hold), independent of
    the integration substep, so refining the substep only refines the
    integration. The dynamics are bound once per call (`bind_dynamics`);
    the trajectory is bit-identical to that of the unbound formula.
    Integration stops at the last sample row: no state past it is computed.
    """
    if substep_s <= 0:
        raise ConfigError(f"substep must be > 0, got {substep_s}")
    n_sub = CONTROL_PERIOD_S / substep_s
    if abs(n_sub - round(n_sub)) > 1e-9:
        raise ConfigError(
            f"substep {substep_s} does not divide the {CONTROL_PERIOD_S} s control period")
    n_sub = int(round(n_sub))
    ctrl_per_sample = int(round(DT_S / CONTROL_PERIOD_S))

    fx_max = TIRE_D_PER_N * MASS_KG * G_MPS2

    n_samples = _frames(script.duration_s)
    if n_samples < 1:
        raise ConfigError(f"script '{script.name}' shorter than one sample period")

    truth = np.empty((n_samples, 10), dtype=np.float64)
    steer_trace = np.empty(n_samples, dtype=np.float64)

    derivatives, advance = bind_dynamics(substep_s, n_sub)
    s = tuple(script.initial)
    law = script.control_law
    last = n_samples - 1
    for k in range(n_samples):
        t = k * DT_S
        for j in range(ctrl_per_sample):
            delta, fx = law(t + j * CONTROL_PERIOD_S, s)
            if delta < -MAX_STEERING_RAD:
                delta = -MAX_STEERING_RAD
            elif delta > MAX_STEERING_RAD:
                delta = MAX_STEERING_RAD
            if fx < -fx_max:
                fx = -fx_max
            elif fx > fx_max:
                fx = fx_max
            if j == 0:  # the sample row: state, specific forces, sideslip
                x, y, yaw, vx, vy, r = s
                d = derivatives(x, y, yaw, vx, vy, r, delta, fx)
                truth[k] = (t, x, y, yaw, vx, vy, r, d[6], d[7], math.atan2(vy, vx))
                steer_trace[k] = delta
                if not (math.isfinite(x) and math.isfinite(vx)
                        and math.isfinite(vy) and math.isfinite(r)):
                    raise NumericalError(
                        f"integration diverged in '{script.name}' at t={t:.3f}s")
                if k == last:  # no row reads the state past the last one
                    break
            s = advance(s, delta, fx)

    if not np.isfinite(truth).all():
        raise NumericalError(f"integration produced non-finite output in '{script.name}'")
    sensors = synthesize_sensors(truth, steer_trace, noise)
    return Trajectory(sensors, truth, label=script.name)


# ---------------------------------------------------------------------------
# Built-in maneuver scripts
# ---------------------------------------------------------------------------

_SPEED_GAIN_N_PER_MPS = 4000.0
_YAW_GAIN_RAD_PER_RADPS = 0.4


def _target_ay(intensity: float) -> float:
    """Peak lateral acceleration the script aims for, ~0.1g..0.85g."""
    ay_g = 0.1 + 0.75 * (intensity - 0.1) / 0.9
    return max(ay_g, 0.03) * G_MPS2


def _speed_force(v_ref: float, vx: float) -> float:
    return _SPEED_GAIN_N_PER_MPS * (v_ref - vx)


def _ramp01(t: float, t0: float, ramp: float) -> float:
    """Linear 0..1 ramp starting at t0, clamped."""
    return min(max((t - t0) / ramp, 0.0), 1.0)


def _step_steer(intensity: float, duration: float, seed: int) -> ManeuverScript:
    v = 15.0
    ay = _target_ay(intensity)
    radius = v * v / ay
    delta_ff = WHEELBASE_M / radius

    def law(t: float, s: tuple) -> tuple[float, float]:
        fx = _speed_force(v, s[3])
        if t < 3.0:
            return 0.0, fx
        shape = _ramp01(t, 3.0, 1.0)
        r_ref = shape * s[3] / radius
        delta = (shape * delta_ff
                 + _YAW_GAIN_RAD_PER_RADPS * (r_ref - s[5]))
        return delta, fx

    return ManeuverScript(f"step_steer@{intensity:.2f}", duration, law,
                          SimState(vx_mps=v))


def _double_lane_change(intensity: float, duration: float, seed: int) -> ManeuverScript:
    v = 16.0
    ay = _target_ay(intensity)
    # sine-steer amplitude; 1.12 compensates the yaw-response lag at this period
    delta0 = 1.12 * ay * WHEELBASE_M / (v * v)
    period = 12.0
    t_sine = 3.0

    def law(t: float, s: tuple) -> tuple[float, float]:
        fx = _speed_force(v, s[3])
        tp = (t - 2.0) % period if t >= 2.0 else -1.0
        if 0.0 <= tp < t_sine:
            delta = delta0 * math.sin(2.0 * math.pi * tp / t_sine)
        elif t_sine + 1.0 <= tp < 2.0 * t_sine + 1.0:
            delta = -delta0 * math.sin(2.0 * math.pi * (tp - t_sine - 1.0) / t_sine)
        else:
            delta = 0.0
        return delta, fx

    return ManeuverScript(f"double_lane_change@{intensity:.2f}", duration, law,
                          SimState(vx_mps=v))


def _u_turn(intensity: float, duration: float, seed: int) -> ManeuverScript:
    v = 10.0
    ay = _target_ay(intensity)
    radius = max(v * v / ay, 6.0)
    delta_ff = WHEELBASE_M / radius

    def law(t: float, s: tuple) -> tuple[float, float]:
        fx = _speed_force(v, s[3])
        if t < 3.0 or s[2] >= math.pi:
            return 0.0, fx
        shape = _ramp01(t, 3.0, 2.0) * _ramp01(math.pi - s[2], 0.0, 0.3)
        r_ref = shape * s[3] / radius
        delta = (shape * delta_ff
                 + _YAW_GAIN_RAD_PER_RADPS * (r_ref - s[5]))
        return delta, fx

    return ManeuverScript(f"u_turn@{intensity:.2f}", duration, law,
                          SimState(vx_mps=v))


def _slalom(intensity: float, duration: float, seed: int) -> ManeuverScript:
    v = 17.0
    ay = _target_ay(intensity)
    # 1.09 compensates the yaw-response lag at this period
    delta0 = 1.09 * ay * WHEELBASE_M / (v * v)
    wave_period = 4.0

    def law(t: float, s: tuple) -> tuple[float, float]:
        fx = _speed_force(v, s[3])
        if t < 3.0:
            return 0.0, fx
        delta = delta0 * math.sin(2.0 * math.pi * (t - 3.0) / wave_period)
        return delta, fx

    return ManeuverScript(f"slalom@{intensity:.2f}", duration, law,
                          SimState(vx_mps=v))


def _constant_radius_ramp(intensity: float, duration: float, seed: int) -> ManeuverScript:
    radius = 40.0
    # aim the end-of-ramp acceleration at ~0.8g for intensity 1.0
    ay_end = _target_ay(intensity) * (0.80 / 0.85)
    v0 = 6.0
    v_max = math.sqrt(ay_end * radius)
    ramp_rate = 1.2
    delta_ff = WHEELBASE_M / radius

    def law(t: float, s: tuple) -> tuple[float, float]:
        if t < 3.0:
            v_ref = v0
        else:
            v_ref = min(v0 + ramp_rate * (t - 3.0), v_max)
        fx = _speed_force(v_ref, s[3])
        r_ref = s[3] / radius
        delta = delta_ff + _YAW_GAIN_RAD_PER_RADPS * (r_ref - s[5])
        return delta, fx

    return ManeuverScript(f"constant_radius_ramp@{intensity:.2f}", duration, law,
                          SimState(vx_mps=v0))


def _city_mix(intensity: float, duration: float, seed: int) -> ManeuverScript:
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
    seg_ends = [s[0] for s in segments]
    seg_starts = [0.0] + seg_ends[:-1]
    last = len(segments) - 1

    def law(t: float, s: tuple) -> tuple[float, float]:
        idx = min(bisect_right(seg_ends, t), last)  # the first to end after t, or the last
        t_end, v_ref, kind, param = segments[idx]
        t0 = seg_starts[idx]
        fx = _speed_force(v_ref, s[3])
        vx = max(s[3], 3.0)
        if kind == "straight":
            delta = 0.0
        elif kind == "turn":
            shape = _ramp01(t, t0, 1.5) * _ramp01(t_end - t, 0.0, 1.5)
            r_ref = shape * param / vx
            delta = (shape * WHEELBASE_M * param / (vx * vx)
                     + _YAW_GAIN_RAD_PER_RADPS * (r_ref - s[5]))
        else:  # lane change: one full sine of steering
            t_sine = 3.0
            tp = t - t0
            if tp < t_sine:
                delta = param * WHEELBASE_M / (vx * vx) * math.sin(
                    2.0 * math.pi * tp / t_sine)
            else:
                delta = 0.0
        return delta, fx

    return ManeuverScript(f"city_mix@{intensity:.2f}", duration, law,
                          SimState(vx_mps=12.0))


# kind -> (script builder(intensity, duration_s, seed), default duration_s);
# only city_mix reads the seed. The order is MANEUVER_KINDS'.
_MANEUVERS = {
    "city_mix": (_city_mix, 600.0),
    "step_steer": (_step_steer, 30.0),
    "double_lane_change": (_double_lane_change, 30.0),
    "u_turn": (_u_turn, 40.0),
    "slalom": (_slalom, 40.0),
    "constant_radius_ramp": (_constant_radius_ramp, 70.0),
}
MANEUVER_KINDS = tuple(_MANEUVERS)


def _frames(duration_s: float) -> int:
    return int(round(duration_s / DT_S))


def maneuver_frames(kind: str, duration_s: float | None = None) -> int:
    """The number of 50 Hz samples `run_maneuver` produces for a `kind`
    script of `duration_s`, or of the kind's default duration when None."""
    return _frames(_MANEUVERS[kind][1] if duration_s is None else duration_s)


def builtin_scripts(kind: str, intensity: float, duration_s: float | None = None,
                    seed: int = 0) -> ManeuverScript:
    """Parameterized maneuver library for the test vehicle.

    `intensity` in (0, 1] scales the targeted peak lateral acceleration from
    roughly 0.1g up to roughly 0.85g. `seed` only affects the city_mix
    segment plan.
    """
    if kind not in _MANEUVERS:
        raise ConfigError(f"unknown maneuver kind '{kind}' (known: {MANEUVER_KINDS})")
    if not 0.0 < intensity <= 1.0:
        raise ConfigError(f"intensity must be in (0, 1], got {intensity}")
    build, default_duration_s = _MANEUVERS[kind]
    return build(intensity, default_duration_s if duration_s is None else duration_s, seed)
