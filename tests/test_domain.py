import builtins
import hashlib
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vobs.domain import (
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
    TRAJECTORY_COLUMNS,
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


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def _with(array, row, col, value):
    out = array.copy()
    out[row, col] = value
    return out


_GOOD = np.full((4, 15), 0.5)


def _refused(array, extra=b""):
    """The bytes of `array` followed by `extra`, and the message refusing them."""
    data = _npy(array)
    return data + extra, (f"trajectory array of dtype {array.dtype} and shape {array.shape} "
                          f"in {len(data)} of {len(data + extra)} bytes, expected float64 "
                          f"of shape (N, 15), N > 0, filling the file")


class TestTrajectoryCsv:
    def test_round_trip_bit_exact(self, tmp_path, noisy_straight_traj):
        path = tmp_path / "traj.npy"
        write_trajectory_csv(noisy_straight_traj, path)
        back = read_trajectory_csv(path)
        np.testing.assert_array_equal(back.sensors, noisy_straight_traj.sensors)
        np.testing.assert_array_equal(back.truth, noisy_straight_traj.truth)

    def test_one_read_parses_and_hashes(self, tmp_path, noisy_straight_traj, monkeypatch):
        path = tmp_path / "traj.npy"
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

    # name -> (file bytes, the message after "<path>: ")
    CASES = {
        "bad_header": (_npy(_GOOD).replace(b"'shape'", b"'shope'"),
                       "corrupt trajectory array (Header does not contain the correct "
                       "keys: ['descr', 'fortran_order', 'shope'])"),
        "empty": (b"", "not a trajectory array; rerun 'simulate'"),
        "csv_text": ((",".join(TRAJECTORY_COLUMNS) + "\n" + ",".join(["0.5"] * 15)
                      + "\n").encode(), "not a trajectory array; rerun 'simulate'"),
        "truncated": (_npy(_GOOD)[:-1], "corrupt trajectory array (EOF: reading array "
                                         "data, expected 480 bytes got 479)"),
        "trailing_byte": _refused(_GOOD, b"\0"),
        "no_samples": _refused(np.empty((0, 15))),
        "field_count": _refused(_GOOD[:, :14]),
        "one_dim": _refused(_GOOD[0]),
        "float32": _refused(_GOOD.astype(np.float32)),
        "non_numeric": _refused(_GOOD.astype("U3")),
        "nan": (_npy(_with(_GOOD, 2, 1, np.nan)),
                "non-finite value nan in column 'ax' at row 2"),
        "inf": (_npy(_with(_GOOD, 3, 10, -np.inf)),
                "non-finite value -inf in column 'gt_vy' at row 3"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_malformed_trajectory_names_file_and_line(self, tmp_path, case):
        data, message = self.CASES[case]
        path = tmp_path / "traj.npy"
        path.write_bytes(data)
        with pytest.raises(DataFormatError) as raised:
            read_trajectory_csv(path)
        assert str(raised.value) == f"{path}: {message}"
