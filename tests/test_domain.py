import builtins
import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vobs.domain import (
    CSV_COLUMNS,
    DT_S,
    G_BETA,
    G_T,
    G_VX,
    G_VY,
    INERTIA_Z_KGM2,
    LF_M,
    LR_M,
    MASS_KG,
    S_T,
    STATIC_LOAD_FRONT_N,
    STATIC_LOAD_REAR_N,
    TRACK_M,
    WHEELBASE_M,
    read_trajectory_csv,
    write_trajectory_csv,
)
from vobs.errors import DataFormatError
from vobs.simulator import SensorNoiseSpec, run_maneuver

from conftest import ZERO_NOISE, circle_script, straight_script


class TestVehicleParams:
    """The test vehicle's constants."""

    def test_defaults_match_reference_vehicle(self):
        assert MASS_KG == 1578.0
        assert LF_M == 1.134
        assert LR_M == 1.578
        assert TRACK_M == 1.513
        assert INERTIA_Z_KGM2 == 2924.0

    def test_wheelbase_is_lf_plus_lr(self):
        assert WHEELBASE_M == pytest.approx(LF_M + LR_M, abs=0)

    def test_static_loads_sum_to_weight(self):
        total = STATIC_LOAD_FRONT_N + STATIC_LOAD_REAR_N
        assert total == pytest.approx(MASS_KG * 9.81, rel=1e-12)


def _coasting(vx, vy=0.0):
    """Half a second with zero controls from the velocity (vx, vy)."""
    return run_maneuver(straight_script(0.5, speed=vx, lateral_speed=vy),
                        ZERO_NOISE)


class TestSideSlip:
    """gt_beta, the side slip the simulator records with each sample."""

    def test_zero_lateral(self, straight_traj):
        assert (straight_traj.truth[:, G_BETA] == 0.0).all()

    def test_analytic_value(self):
        traj = _coasting(10.0, 1.0)
        assert traj.truth[0, G_BETA] == pytest.approx(0.09967, abs=1e-5)

    def test_degenerate_standstill(self):
        traj = _coasting(0.0)
        assert (traj.truth[:, G_BETA] == 0.0).all()

    @given(st.floats(0.5, 40), st.floats(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_odd_in_vy(self, vx, vy):
        # mirroring the initial lateral velocity mirrors the whole coast
        beta = _coasting(vx, vy).truth[:, G_BETA]
        mirrored = _coasting(vx, -vy).truth[:, G_BETA]
        np.testing.assert_allclose(mirrored, -beta, rtol=0, atol=1e-15)


class TestValidateTrajectory:
    def test_simulated_trajectory_is_valid(self, straight_traj,
                                           noisy_straight_traj):
        # finite, on the 0.02 s grid, sensor and truth time aligned, and
        # gt_beta = atan2(vy, vx) at every sample
        circle = run_maneuver(circle_script(duration_s=8.0),
                              SensorNoiseSpec(seed=5))
        for traj in (straight_traj, noisy_straight_traj, circle):
            assert np.isfinite(traj.sensors).all() and np.isfinite(traj.truth).all()
            np.testing.assert_array_equal(traj.sensors[:, S_T], traj.truth[:, G_T])
            np.testing.assert_allclose(np.diff(traj.truth[:, G_T]), DT_S,
                                       rtol=0, atol=1e-9)
            expected = [math.atan2(vy, vx)
                        for vx, vy in zip(traj.truth[:, G_VX], traj.truth[:, G_VY])]
            np.testing.assert_array_equal(traj.truth[:, G_BETA], expected)


class TestTrajectoryCsv:
    def test_round_trip_bit_exact(self, tmp_path, noisy_straight_traj):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(noisy_straight_traj, path)
        back = read_trajectory_csv(path)
        np.testing.assert_array_equal(back.sensors, noisy_straight_traj.sensors)
        np.testing.assert_array_equal(back.truth, noisy_straight_traj.truth)

    def test_one_read_parses_and_hashes(self, tmp_path, noisy_straight_traj, monkeypatch):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(noisy_straight_traj, path)
        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        back = read_trajectory_csv(path)
        monkeypatch.undo()
        assert opened == [str(path)]
        assert back.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    HEADER = ",".join(CSV_COLUMNS) + "\n"
    ROW = ",".join(["0.5"] * 15) + "\n"

    @pytest.mark.parametrize("text, line", [
        ("a,b,c\n1,2,3\n", 1),
        ("", 1),
        (HEADER, 2),
        (HEADER + ROW + ",".join(["0.5"] * 14) + "\n", 3),
        (HEADER + ",".join(["0.5"] * 14 + ["abc"]) + "\n", 2),
    ], ids=["bad_header", "empty", "no_samples", "field_count", "non_numeric"])
    def test_malformed_trajectory_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "traj.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"traj.csv:{line}:"):
            read_trajectory_csv(path)
