import hashlib
import math

import numpy as np
import pytest

from vobs import baselines
from vobs.baselines import (
    MIN_SPEED_MPS,
    EkfConfig,
    ekf_predict,
    ekf_update,
    kf_predict_cov,
    kf_update_joseph,
    run_ekf,
    run_gru,
    train_gru,
    _measurement_model,
    _process_model,
    _symmetric_cond,
)
from vobs.domain import (DT_S, G_AY, G_MPS2, G_VX, G_VY, INERTIA_Z_KGM2, LF_M, LR_M, MASS_KG,
                         STATIC_LOAD_FRONT_N, STATIC_LOAD_REAR_N, TRACK_M)
from vobs.errors import NumericalError
from vobs.evaluation import mae
from vobs.neural import TrainConfig, gru_observer_net
from vobs.simulator import (
    ManeuverScript,
    SensorNoiseSpec,
    SimState,
    builtin_scripts,
    pacejka_lateral_force,
    run_maneuver,
)

from conftest import ZERO_NOISE, straight_script


@pytest.fixture(scope="module")
def ekf_cfg():
    return EkfConfig()


@pytest.mark.parametrize("axle, load", [("front", STATIC_LOAD_FRONT_N),
                                        ("rear", STATIC_LOAD_REAR_N)])
def test_default_stiffness_is_the_simulated_tire_slope(axle, load):
    # the EKF models the simulated vehicle: each axle's linear tire is the
    # simulator's tire linearized at zero slip and that axle's static load
    eps = 1e-7
    slope = (pacejka_lateral_force(eps, load) - pacejka_lateral_force(-eps, load)) / (2 * eps)
    assert getattr(EkfConfig(), f"cornering_stiffness_{axle}") == pytest.approx(slope, rel=1e-6)


class TestEkfPredict:
    def test_straight_drive_state_fixed_cov_grows_by_q(self, ekf_cfg):
        x = np.array([15.0, 0.0, 0.0])
        x_new, cov = ekf_predict(x, np.zeros((3, 3)), (0.0, 0.0), ekf_cfg)
        np.testing.assert_allclose(x_new, x, atol=1e-15)
        np.testing.assert_allclose(cov, ekf_cfg.q_matrix * DT_S, atol=1e-18)

    def test_low_speed_hold_and_inflate(self, ekf_cfg):
        for vx in (0.3, MIN_SPEED_MPS):  # the threshold itself holds
            x, cov = np.array([vx, 0.0, 0.0]), np.eye(3) * 0.1
            x_new, cov_new = ekf_predict(x, cov, (1.0, 0.2), ekf_cfg)
            np.testing.assert_array_equal(x_new, x)
            np.testing.assert_allclose(cov_new, cov + ekf_cfg.q_matrix * DT_S)

    def test_jacobian_matches_finite_differences(self, ekf_cfg):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            x = np.array([3 + 25 * rng.random(), rng.normal(0, 0.6),
                          rng.normal(0, 0.5)])
            ax, delta = rng.normal(0, 2), rng.normal(0, 0.15)
            # the Jacobian of the discrete map x + DT_S * f(x)
            jac = np.eye(3) + DT_S * _process_model(x, ax, delta, ekf_cfg)[1]
            fd = np.zeros((3, 3))
            eps = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = eps
                hi, _ = ekf_predict(x + e, np.eye(3), (ax, delta), ekf_cfg)
                lo, _ = ekf_predict(x - e, np.eye(3), (ax, delta), ekf_cfg)
                fd[:, j] = (hi - lo) / (2 * eps)
            worst = max(worst, np.abs(jac - fd).max())
        assert worst < 1e-6


class TestEkfUpdate:
    def test_zero_innovation_keeps_state(self, ekf_cfg):
        x = np.array([14.0, 0.2, 0.08])
        z, _ = _measurement_model(x, 0.03, ekf_cfg)
        x_new, _ = ekf_update(x, np.eye(3) * 0.2, z, 0.03, ekf_cfg)
        np.testing.assert_allclose(x_new, x, atol=1e-12)

    def test_huge_r_is_identity(self):
        cfg = EkfConfig(r=(1e12, 1e12, 1e12))
        x, cov = np.array([14.0, 0.2, 0.08]), np.eye(3) * 0.2
        x_new, cov_new = ekf_update(x, cov, np.array([20.0, 0.5, 3.0]), 0.0, cfg)
        assert np.abs(x_new - x).max() < 1e-6
        assert np.abs(cov_new - cov).max() < 1e-6

    def test_gain_vanishes_with_r(self, ekf_cfg):
        # update with enormous R equals pure prediction on a whole trace
        x = np.array([10.0, -0.1, 0.2])
        p = np.diag([0.3, 0.2, 0.05])
        h, jac = _measurement_model(x, 0.02, ekf_cfg)
        x2, p2 = kf_update_joseph(x, p, h + np.array([1.0, 1.0, 1.0]), h, jac,
                                  np.eye(3) * 1e12)
        assert np.abs(x2 - x).max() < 1e-9
        assert np.abs(p2 - p).max() < 1e-9

    def test_jacobian_matches_finite_differences(self, ekf_cfg):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            x = np.array([3 + 25 * rng.random(), rng.normal(0, 0.6),
                          rng.normal(0, 0.5)])
            delta = rng.normal(0, 0.15)
            _, jac = _measurement_model(x, delta, ekf_cfg)
            fd = np.zeros((3, 3))
            eps = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = eps
                fd[:, j] = (_measurement_model(x + e, delta, ekf_cfg)[0]
                            - _measurement_model(x - e, delta, ekf_cfg)[0]) / (2 * eps)
            worst = max(worst, np.abs(jac - fd).max())
        assert worst < 1e-6

    def test_singular_innovation_diagnosed(self):
        cfg = EkfConfig()
        x = np.array([10.0, 0.0, 0.0])
        tiny_r = np.zeros((3, 3))
        h, jac = _measurement_model(x, 0.0, cfg)
        with pytest.raises(NumericalError, match="cond"):
            kf_update_joseph(x, np.zeros((3, 3)), h, h, jac, tiny_r)

    def test_nonfinite_innovation_diagnosed(self, ekf_cfg):
        p = np.eye(3) * 0.1
        p[1, 1] = np.nan
        h, jac = _measurement_model(np.array([10.0, 0.0, 0.0]), 0.0, ekf_cfg)
        with pytest.raises(NumericalError, match="cond=nan"):
            kf_update_joseph(np.array([10.0, 0.0, 0.0]), p, h, h, jac, ekf_cfg.r_matrix)

    def test_condition_number_is_the_svd_one(self):
        # the eigenvalue form used on the symmetric innovation covariance
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rng.normal(size=(3, 3)) * rng.uniform(1e-3, 1e3, 3)
            s = a @ a.T
            assert _symmetric_cond(s) == pytest.approx(np.linalg.cond(s), rel=1e-6)
        assert _symmetric_cond(np.diag([1.0, 0.0, 2.0])) == math.inf
        assert _symmetric_cond(np.diag([-4.0, 1.0, 2.0])) == 4.0

    def test_noise_matrices_built_once(self, ekf_cfg):
        assert ekf_cfg.q_matrix is ekf_cfg.q_matrix
        assert ekf_cfg.r_matrix is ekf_cfg.r_matrix
        np.testing.assert_array_equal(ekf_cfg.r_matrix,
                                      np.diag(ekf_cfg.r))
        with pytest.raises(ValueError):
            ekf_cfg.q_matrix[0, 0] = 1.0


def _ref_slip_terms(x):
    vx, vy, r = x
    uf = vy + LF_M * r
    ur = vy - LR_M * r
    df = uf * uf + vx * vx
    dr = ur * ur + vx * vx
    alpha_f_grad = np.array([uf / df, -vx / df, -LF_M * vx / df])
    alpha_r_grad = np.array([ur / dr, -vx / dr, LR_M * vx / dr])
    return (-math.atan2(uf, vx), -math.atan2(ur, vx), alpha_f_grad, alpha_r_grad)


def _ref_process_model(x, ax_meas, delta, cfg):
    vx, vy, r = x
    alpha_f0, alpha_r, dalpha_f, dalpha_r = _ref_slip_terms(x)
    alpha_f = delta + alpha_f0
    cf = cfg.cornering_stiffness_front
    cr = cfg.cornering_stiffness_rear
    cos_d = math.cos(delta)
    fyf = cf * alpha_f
    fyr = cr * alpha_r
    f = np.array([
        ax_meas + r * vy,
        (fyf * cos_d + fyr) / MASS_KG - r * vx,
        (LF_M * fyf * cos_d - LR_M * fyr) / INERTIA_Z_KGM2,
    ])
    lat = (cf * cos_d * dalpha_f + cr * dalpha_r) / MASS_KG
    yaw = (LF_M * cf * cos_d * dalpha_f - LR_M * cr * dalpha_r) / INERTIA_Z_KGM2
    jac = np.array([
        [0.0, r, vy],
        [lat[0] - r, lat[1], lat[2] - vx],
        [yaw[0], yaw[1], yaw[2]],
    ])
    return f, jac


def _ref_measurement_model(x, delta, cfg):
    vx, vy, r = x
    alpha_f0, alpha_r, dalpha_f, dalpha_r = _ref_slip_terms(x)
    alpha_f = delta + alpha_f0
    cf = cfg.cornering_stiffness_front
    cr = cfg.cornering_stiffness_rear
    cos_d = math.cos(delta)
    h = np.array([
        vx + 0.5 * TRACK_M * r,
        r,
        (cf * alpha_f * cos_d + cr * alpha_r) / MASS_KG,
    ])
    lat = (cf * cos_d * dalpha_f + cr * dalpha_r) / MASS_KG
    jac = np.array([
        [1.0, 0.0, 0.5 * TRACK_M],
        [0.0, 0.0, 1.0],
        [lat[0], lat[1], lat[2]],
    ])
    return h, jac


def test_models_are_the_reference_formulas_bit_for_bit(ekf_cfg):
    """The process and measurement models, with their Jacobians, equal the
    formulas above (each written out on its own) bit for bit."""
    rng = np.random.default_rng(11)
    for _ in range(250):
        x = np.array([rng.uniform(0.6, 40.0), rng.uniform(-3.0, 3.0),
                      rng.uniform(-1.5, 1.5)])
        ax, delta = rng.normal(0, 3), rng.uniform(-0.6, 0.6)
        for got, want in ((_process_model(x, ax, delta, ekf_cfg),
                           _ref_process_model(x, ax, delta, ekf_cfg)),
                          (_measurement_model(x, delta, ekf_cfg),
                           _ref_measurement_model(x, delta, ekf_cfg))):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestLinearKfEquivalence:
    def test_matches_textbook_filter(self):
        """Drive the generic EKF core with a linear model; compare against a
        straight-line transcription of the textbook Kalman equations."""
        rng = np.random.default_rng(9)
        f_mat = np.array([[1.0, 0.02], [0.0, 1.0]])
        h_mat = np.array([[1.0, 0.0]])
        q = np.diag([1e-4, 1e-3])
        r = np.array([[0.04]])

        x_ekf = np.array([0.0, 1.0])
        p_ekf = np.eye(2)
        x_kf = x_ekf.copy()
        p_kf = p_ekf.copy()
        worst = 0.0
        for _ in range(200):
            z = np.array([rng.normal(0, 1)])
            # generic core, linear model functions
            x_ekf = f_mat @ x_ekf
            p_ekf = kf_predict_cov(p_ekf, f_mat, q)
            x_ekf, p_ekf = kf_update_joseph(x_ekf, p_ekf, z, h_mat @ x_ekf,
                                            h_mat, r)
            # textbook filter, written out directly
            x_kf = f_mat @ x_kf
            p_kf = f_mat @ p_kf @ f_mat.T + q
            p_kf = 0.5 * (p_kf + p_kf.T)
            s_kf = h_mat @ p_kf @ h_mat.T + r
            k_kf = p_kf @ h_mat.T @ np.linalg.inv(s_kf)
            x_kf = x_kf + (k_kf @ (z - h_mat @ x_kf)).ravel()
            ikh = np.eye(2) - k_kf @ h_mat
            p_kf = ikh @ p_kf @ ikh.T + k_kf @ r @ k_kf.T
            p_kf = 0.5 * (p_kf + p_kf.T)
            worst = max(worst, np.abs(x_ekf - x_kf).max(),
                        np.abs(p_ekf - p_kf).max())
        assert worst < 1e-10


class TestRunEkf:
    def test_zero_noise_straight_stays_exact(self, ekf_cfg):
        traj = run_maneuver(straight_script(duration_s=6.0),
                            ZERO_NOISE)
        est = run_ekf(traj, traj.state_channels()[0], ekf_cfg)
        assert est.shape == (len(traj), 3)
        vx_err = np.abs(est[:, 0] - traj.state_channels()[:, 0])
        assert vx_err.max() < 1e-6

    def test_small_slip_regime_vy_accurate(self, ekf_cfg):
        # gentle maneuver, zero sensor noise: linear tires are the true model
        traj = run_maneuver(builtin_scripts("slalom", 0.15, duration_s=20.0), ZERO_NOISE)
        est = run_ekf(traj, traj.state_channels()[0], ekf_cfg)
        err = mae(est, traj.state_channels())
        assert err[1] < 0.02

    def test_near_limits_error_grows(self, ekf_cfg):
        low = run_maneuver(builtin_scripts("slalom", 0.25, duration_s=25.0), SensorNoiseSpec(seed=1))
        high = run_maneuver(builtin_scripts("constant_radius_ramp", 1.0,
                                            duration_s=40.0), SensorNoiseSpec(seed=2))
        errs = {}
        for name, traj in (("low", low), ("high", high)):
            errs[name] = mae(run_ekf(traj, traj.state_channels()[0], ekf_cfg),
                             traj.state_channels())
        assert errs["high"][1] > 2.0 * errs["low"][1]

    def test_covariance_stays_psd(self, ekf_cfg):
        rng = np.random.default_rng(5)
        x, cov = np.array([15.0, 0.0, 0.0]), ekf_cfg.p0_matrix()
        min_eig = np.inf
        for _ in range(5000):
            x, cov = ekf_predict(x, cov, (rng.normal(0, 2), rng.normal(0, 0.1)), ekf_cfg)
            z = np.array([x[0] + rng.normal(0, 0.05),
                          x[2] + rng.normal(0, 0.002),
                          rng.normal(0, 1)])
            x, cov = ekf_update(x, cov, z, 0.0, ekf_cfg)
            x[0] = min(max(x[0], 2.0), 40.0)
            min_eig = min(min_eig, np.linalg.eigvalsh(cov).min())
        assert min_eig >= -1e-10


def _creep_script():
    """A braked creep from 1.5 m/s down to about 0.2 m/s with gentle
    steering, so the filter's mean crosses `MIN_SPEED_MPS`."""
    def law(t, s):
        v_ref = max(1.5 - 0.25 * t, 0.2)
        return 0.05 * math.sin(0.8 * t), 1500.0 * (v_ref - s[3])  # s[3] is vx
    return ManeuverScript("creep", 8.0, law, SimState(vx_mps=1.5))


class TestRunEkfGoldenBits:
    """SHA-256 of `run_ekf`'s estimates on two fixed noisy maneuvers: a
    normal-regime creep whose filter mean drops below `MIN_SPEED_MPS`, so
    predictions both hold and integrate, and a near-limits constant-radius
    ramp, where the linear-tire model is far from the simulator's tires. Any
    reordering of the filter's float arithmetic changes them; they assume a
    libm and LAPACK that round as the ones they were pinned with."""

    DIGESTS = {
        "creep": "54a7392302ffe79f81d098f883e3be33438c62293518f699d5fab82eb269b392",
        "ramp": "83664aef247c8f3b7e4a55d0cd083317170fa51942628cdcd99f6d13f06b2884",
    }

    @staticmethod
    def _traj(name):
        if name == "creep":
            return run_maneuver(_creep_script(), SensorNoiseSpec(seed=3))
        return run_maneuver(builtin_scripts("constant_radius_ramp", 1.0, duration_s=30.0), SensorNoiseSpec(seed=4))

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_estimates_are_bit_identical(self, ekf_cfg, name):
        traj = self._traj(name)
        est = run_ekf(traj, traj.state_channels()[0], ekf_cfg)
        assert hashlib.sha256(est.tobytes()).hexdigest() == self.DIGESTS[name]

    def test_maneuvers_cover_both_regimes_and_the_hold(self, ekf_cfg,
                                                       monkeypatch):
        held = []

        def spy(x, *args):
            held.append(x[0] <= MIN_SPEED_MPS)
            return ekf_predict(x, *args)

        monkeypatch.setattr(baselines, "ekf_predict", spy)
        peaks = {}
        for name in sorted(self.DIGESTS):
            traj = self._traj(name)
            held.clear()
            run_ekf(traj, traj.state_channels()[0], ekf_cfg)
            peaks[name] = np.abs(traj.truth[:, G_AY]).max() / G_MPS2
            if name == "creep":
                assert any(held) and not all(held)
                assert traj.truth[:, G_VX].min() < MIN_SPEED_MPS
        assert peaks["creep"] < 0.5 <= peaks["ramp"]


def _gru_toy():
    from test_observer_lstm import _toy_dataset
    return _toy_dataset()


class TestGruObserver:
    def test_training_learns(self):
        train, val, scaler = _gru_toy()
        tc = TrainConfig(epochs=2, batch_size=64, learning_rate=3e-3, seed=4)
        net, log = train_gru(train, val, scaler, tc)
        assert log[-1]["train_loss"] < log[0]["train_loss"]

    def test_estimates_pure_function_of_window(self):
        traj = run_maneuver(straight_script(duration_s=4.0),
                            SensorNoiseSpec(seed=6))
        _, _, scaler = _gru_toy()
        net = gru_observer_net(seed=2, in_dim=5, hidden=(3,), dense=(4,), out_dim=3)
        a = run_gru(traj, np.array([0.0, 0.0, 0.0]), net, scaler, 50)
        b = run_gru(traj, np.array([99.0, 9.0, 9.0]), net, scaler, 50)
        # feedback-free: only the warm-up padding can differ
        np.testing.assert_array_equal(a[49:], b[49:])
        assert not np.array_equal(a[:49], b[:49])

    def test_trace_length(self):
        traj = run_maneuver(straight_script(duration_s=3.0),
                            SensorNoiseSpec(seed=7))
        _, _, scaler = _gru_toy()
        net = gru_observer_net(seed=2, in_dim=5, hidden=(3,), dense=(4,), out_dim=3)
        initial = traj.state_channels()[0]
        est = run_gru(traj, initial, net, scaler, 50)
        assert est.shape == (len(traj), 3)
        np.testing.assert_array_equal(est[:49], np.tile(initial, (49, 1)))
