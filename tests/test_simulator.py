import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import fsolve, minimize_scalar

from vobs import simulator
from vobs.domain import (
    DT_S,
    G_AX,
    G_AY,
    G_MPS2,
    G_VX,
    G_T,
    G_VY,
    G_X,
    G_YAWRATE,
    INERTIA_Z_KGM2,
    LR_M,
    MASS_KG,
    S_STEER,
    S_WHEEL,
    TIRE_B,
    TIRE_C,
    TIRE_D_PER_N,
)
from vobs.errors import ConfigError, NumericalError
from vobs.simulator import (
    MANEUVER_KINDS,
    ManeuverScript,
    SensorNoiseSpec,
    SimState,
    bind_dynamics,
    builtin_scripts,
    pacejka_lateral_force,
    run_maneuver,
    synthesize_sensors,
)

from conftest import ZERO_NOISE, circle_script, straight_script


def _peak_slip():
    """Slip angle of the magic formula's maximum: C*atan(B*slip) = pi/2."""
    return math.tan(math.pi / (2.0 * TIRE_C)) / TIRE_B


class TestPacejka:
    def test_zero_slip_zero_force(self):
        assert pacejka_lateral_force(0.0, 5000.0) == 0.0

    def test_peak_location_matches_closed_form(self):
        fz = 6000.0
        alpha_star = _peak_slip()
        res = minimize_scalar(lambda a: -pacejka_lateral_force(a, fz),
                              bounds=(0.0, 0.5), method="bounded",
                              options={"xatol": 1e-12})
        assert res.x == pytest.approx(alpha_star, abs=1e-6)
        assert pacejka_lateral_force(alpha_star, fz) == pytest.approx(
            TIRE_D_PER_N * fz, rel=1e-12)

    def test_odd_in_slip(self):
        alpha_star = _peak_slip()
        assert pacejka_lateral_force(-alpha_star, 6000.0) == pytest.approx(
            -pacejka_lateral_force(alpha_star, 6000.0), rel=1e-15)

    def test_linearization_slope(self):
        # dFy/dslip at 0 equals B*C*D*Fz, by central differences
        fz = 7000.0
        eps = 1e-7
        slope = (pacejka_lateral_force(eps, fz)
                 - pacejka_lateral_force(-eps, fz)) / (2 * eps)
        expected = TIRE_B * TIRE_C * TIRE_D_PER_N * fz
        assert slope == pytest.approx(expected, rel=1e-6)

    def test_rejects_nonpositive_load(self):
        with pytest.raises(ValueError):
            pacejka_lateral_force(0.1, 0.0)


class TestStepDynamicBicycle:
    def test_straight_rolling(self):
        # the second sample is 0.02 s of integration from the first
        traj = run_maneuver(straight_script(duration_s=0.04, speed=10.0),
                            ZERO_NOISE)
        end = traj.truth[1]
        assert end[G_VX] == pytest.approx(10.0, abs=1e-12)
        assert end[G_VY] == pytest.approx(0.0, abs=1e-12)
        assert end[G_YAWRATE] == pytest.approx(0.0, abs=1e-12)
        assert end[G_X] == pytest.approx(0.2, rel=1e-9)

    def test_steady_state_yaw_rate_matches_root_solver(self):
        # hold speed with a proportional force law, constant steering
        delta = 0.02
        speed = 10.0

        def law(t, s):  # s[3] is vx
            return delta, 4000.0 * (speed - s[3])

        script = ManeuverScript("ss", 30.0, law, SimState(vx_mps=speed))
        traj = run_maneuver(script, ZERO_NOISE)
        vx_end = traj.truth[-1, G_VX]
        r_end = traj.truth[-1, G_YAWRATE]

        derivatives, _ = bind_dynamics(0.002, 1)

        def residual(z):
            vy, r = z
            d = derivatives(0, 0, 0, vx_end, vy, r, delta, 0.0)
            return [d[4], d[5]]  # dvy, dr

        vy_ss, r_ss = fsolve(residual, [0.0, 0.07], xtol=1e-13)
        assert r_end == pytest.approx(r_ss, rel=1e-6)
        assert traj.truth[-1, G_VY] == pytest.approx(vy_ss, rel=1e-5, abs=1e-8)

    # (vx, vy, r, delta): slips from zero through past both tires' peaks
    STATES = [(10.0, 0.0, 0.0, 0.0), (10.0, 0.0, 0.0, 0.02), (15.0, -1.2, 0.4, 0.1),
              (6.0, 2.0, -0.8, -0.3), (25.0, 0.3, 0.05, -0.6), (3.0, -2.5, 1.5, 0.6)]

    @pytest.mark.parametrize("mass", [900.0, 1578.0, 2600.0])
    def test_inline_tire_law_is_pacejka_bit_for_bit(self, mass, monkeypatch):
        # bind_dynamics and pacejka_lateral_force read the vehicle constants
        # when called: bound to other vehicles (mass, lf, tire), the inline law
        # must follow them, not fixed numbers
        lf, wheelbase = 1.3, 1.3 + LR_M
        load_f = mass * G_MPS2 * LR_M / wheelbase
        load_r = mass * G_MPS2 * lf / wheelbase
        for name, value in [("MASS_KG", mass), ("LF_M", lf), ("STATIC_LOAD_FRONT_N", load_f),
                            ("STATIC_LOAD_REAR_N", load_r), ("TIRE_B", 8.0), ("TIRE_C", 1.6),
                            ("TIRE_D_PER_N", 0.9)]:
            monkeypatch.setattr(simulator, name, value)
        derivatives, _ = bind_dynamics(0.002, 1)
        fx = 500.0
        for vx, vy, r, delta in self.STATES:
            fyf = pacejka_lateral_force(delta - math.atan2(vy + lf * r, vx), load_f)
            fyr = pacejka_lateral_force(-math.atan2(vy - LR_M * r, vx), load_r)
            d = derivatives(0.0, 0.0, 0.3, vx, vy, r, delta, fx)
            assert d[6] == (fx - fyf * math.sin(delta)) / mass
            assert d[7] == (fyf * math.cos(delta) + fyr) / mass
            assert d[5] == (lf * fyf * math.cos(delta) - LR_M * fyr) / INERTIA_Z_KGM2

    @pytest.mark.parametrize("n_sub", [1, 2])
    def test_inline_stages_are_rk4_over_derivatives_bit_for_bit(self, n_sub):
        dt = 0.002 / n_sub
        derivatives, advance = bind_dynamics(dt, n_sub)
        h, w = dt * 0.5, dt / 6.0
        for vx, vy, r, delta in self.STATES:
            s = expected = (1.0, -2.0, 0.7, vx, vy, r)
            fx = -800.0

            def rates(*state):
                return derivatives(*state, delta, fx)[:6]

            for _ in range(n_sub):  # RK4 as one formula over `derivatives`
                k1 = rates(*expected)
                k2 = rates(*(a + h * k for a, k in zip(expected, k1)))
                k3 = rates(*(a + h * k for a, k in zip(expected, k2)))
                k4 = rates(*(a + dt * k for a, k in zip(expected, k3)))
                expected = tuple(a + w * (b + 2 * c + 2 * d + e)
                                 for a, b, c, d, e in zip(expected, k1, k2, k3, k4))
            assert advance(s, delta, fx) == expected

    def test_rejects_bad_dt(self):
        for substep in (0.0, -0.01):
            with pytest.raises(ConfigError):
                run_maneuver(straight_script(), ZERO_NOISE,
                             substep_s=substep)

    def test_rejects_nonfinite_state(self):
        with pytest.raises(NumericalError):
            run_maneuver(straight_script(speed=float("nan")),
                         ZERO_NOISE)


class TestRunManeuver:
    def test_straight_frame_count_and_vy(self, straight_traj):
        assert len(straight_traj) == 500
        assert np.abs(straight_traj.truth[:, G_VY]).max() < 1e-9

    def test_energy_sanity_vx_constant(self, straight_traj):
        vx = straight_traj.truth[:, G_VX]
        assert np.abs(vx - vx[0]).max() < 1e-9

    def test_steady_circle_ay_equals_vx_times_r(self):
        traj = run_maneuver(circle_script(), ZERO_NOISE)
        ay = traj.truth[-1, G_AY]
        vxr = traj.truth[-1, G_VX] * traj.truth[-1, G_YAWRATE]
        assert abs(ay - vxr) / abs(ay) < 0.01

    def test_rk4_substep_halving(self):
        script = builtin_scripts("slalom", 0.5, duration_s=10.0)
        coarse = run_maneuver(script, ZERO_NOISE, substep_s=0.002)
        fine = run_maneuver(script, ZERO_NOISE, substep_s=0.001)
        diff = np.abs(coarse.truth[-1] - fine.truth[-1]).max()
        assert diff < 1e-6

    def test_near_limits_ramp_peak(self):
        script = builtin_scripts("constant_radius_ramp", 1.0)
        traj = run_maneuver(script, ZERO_NOISE)
        peak = np.abs(traj.truth[:, G_AY]).max() / G_MPS2
        assert 0.75 <= peak <= 0.85

    def test_low_g_slalom_stays_normal(self):
        script = builtin_scripts("slalom", 0.22, duration_s=20.0)
        traj = run_maneuver(script, ZERO_NOISE)
        assert np.abs(traj.truth[:, G_AY]).max() < 0.5 * G_MPS2

    def test_controls_saturate(self):
        # steering beyond +-0.6 rad and force beyond mu*M*g, both signs, reach
        # the dynamics and the steering trace clamped
        def law(t, s):
            return (3.0, 2e4) if t < 0.09 else (-3.0, -2e4)

        traj = run_maneuver(ManeuverScript("saturate", 0.2, law, SimState(vx_mps=10.0)),
                            ZERO_NOISE)
        early = traj.truth[:, G_T] < 0.09
        assert early.sum() == 5 and len(traj) == 10
        delta = np.where(early, simulator.MAX_STEERING_RAD, -simulator.MAX_STEERING_RAD)
        np.testing.assert_array_equal(traj.sensors[:, S_STEER], delta)
        fx_max = TIRE_D_PER_N * MASS_KG * G_MPS2
        derivatives, _ = bind_dynamics(0.002, 1)
        ax = [derivatives(*row[1:7], d, fx_max if d > 0 else -fx_max)[6]
              for row, d in zip(traj.truth, delta)]
        np.testing.assert_array_equal(traj.truth[:, G_AX], ax)

    def test_invalid_substep_rejected(self):
        with pytest.raises(ConfigError):
            run_maneuver(straight_script(), ZERO_NOISE,
                         substep_s=0.003)


class TestGoldenBits:
    """SHA-256 of truth + sensor bytes for one short noisy run per maneuver
    kind. Any reordering of the integrator's float arithmetic changes them;
    they assume a libm whose sin, cos, atan and atan2 round as glibc's do."""

    DIGESTS = {
        ("city_mix", 0.002): "545a9adf628888b7b9eb8fdb52e729bc7212116b4b6910296bb5434f14da2f27",
        ("step_steer", 0.002): "c0d9e421ed06808ccfd0d792bd87444091b4c43385307ed69e4f4d6f604008ce",
        ("double_lane_change", 0.002):
            "e6b11922c0b8918b0f7769242c6ffac2ea268cc9c05ba2c4eaa60580654278ca",
        ("u_turn", 0.002): "b662ae8b9f9c029cad7a1275631cfbdfeb6b8e2f77436595a309b9c0d5c1a9f3",
        ("slalom", 0.002): "c2c9a1decba3f41f633b7103bdf6adba120d2918f62ca03442759ae47cef78df",
        ("slalom", 0.001): "da5f6e1eb4424ee898a9ae42e5f4dc2163a0942f021061287147095b3a7983f7",
        ("constant_radius_ramp", 0.002):
            "37ce9591436345507d004422a4492e281d8f4abbf083ad4ff8efab7b998122fd",
    }

    def test_every_kind_is_pinned(self):
        assert {kind for kind, _ in self.DIGESTS} == set(MANEUVER_KINDS)

    @pytest.mark.parametrize("kind,substep", sorted(DIGESTS))
    def test_run_is_bit_identical(self, kind, substep):
        script = builtin_scripts(kind, 0.9, duration_s=5.0, seed=7)
        traj = run_maneuver(script,
                            SensorNoiseSpec(seed=MANEUVER_KINDS.index(kind)),
                            substep_s=substep)
        digest = hashlib.sha256(traj.truth.tobytes() + traj.sensors.tobytes())
        assert digest.hexdigest() == self.DIGESTS[kind, substep]


class TestSynthesizeSensors:
    def test_wheel_speed_exact_on_straight(self, straight_traj):
        assert np.allclose(straight_traj.sensors[:, S_WHEEL],
                           straight_traj.truth[:, G_VX], atol=1e-12)

    def test_outer_wheel_faster_in_left_turn(self):
        traj = run_maneuver(circle_script(), ZERO_NOISE)
        # left turn: positive yaw rate; rear-right is the outer wheel
        steady = slice(250, None)
        assert (traj.truth[steady, G_YAWRATE] > 0).all()
        assert (traj.sensors[steady, S_WHEEL] > traj.truth[steady, G_VX]).all()

    def test_seeded_noise_reproducible(self, straight_traj):
        noise = SensorNoiseSpec(seed=123)
        steering = np.zeros(len(straight_traj))
        a = synthesize_sensors(straight_traj.truth, steering, noise)
        b = synthesize_sensors(straight_traj.truth, steering, noise)
        np.testing.assert_array_equal(a, b)

    def test_bias_applied(self, straight_traj):
        noise = SensorNoiseSpec(0, 0, 0, 0, 0, bias_wheel_speed=0.5)
        steering = np.zeros(len(straight_traj))
        out = synthesize_sensors(straight_traj.truth, steering, noise)
        assert np.allclose(out[:, S_WHEEL] - straight_traj.truth[:, G_VX], 0.5)


class TestBuiltinScripts:
    def test_u_turn_low_intensity_stays_below_03g(self):
        traj = run_maneuver(builtin_scripts("u_turn", 0.2),
                            ZERO_NOISE)
        assert np.abs(traj.truth[:, G_AY]).max() < 0.3 * G_MPS2

    def test_city_mix_duration(self):
        script = builtin_scripts("city_mix", 0.3)
        assert script.duration_s >= 600.0

    def test_intensity_scales_peak(self):
        peaks = []
        for intensity in (0.2, 0.6, 1.0):
            traj = run_maneuver(builtin_scripts("step_steer", intensity,
                                                duration_s=15.0), ZERO_NOISE)
            peaks.append(np.abs(traj.truth[:, G_AY]).max())
        assert peaks[0] < peaks[1] < peaks[2]
        assert peaks[2] > 0.75 * G_MPS2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            builtin_scripts("donuts", 0.5)

    def test_intensity_range_enforced(self):
        with pytest.raises(ConfigError):
            builtin_scripts("slalom", 0.0)
        with pytest.raises(ConfigError):
            builtin_scripts("slalom", 1.2)

    def test_friction_circle_coverage(self):
        # high-g samples present, mode of the accel distribution near zero
        # (proportions mirror the reference corpus: mostly city driving)
        trajs = [run_maneuver(builtin_scripts("city_mix", 0.3, duration_s=300.0), ZERO_NOISE),
                 run_maneuver(builtin_scripts("constant_radius_ramp", 1.0,
                                              duration_s=30.0), ZERO_NOISE)]
        mag = np.concatenate([np.hypot(t.truth[:, G_AX], t.truth[:, G_AY]) for t in trajs])
        assert (mag > 0.7 * G_MPS2).any()
        counts, edges = np.histogram(mag, bins=30, range=(0, G_MPS2))
        mode_center = 0.5 * (edges[np.argmax(counts)] + edges[np.argmax(counts) + 1])
        assert mode_center < 0.15 * G_MPS2
