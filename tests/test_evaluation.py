import numpy as np
import pytest

from vobs.domain import DT_S, G_MPS2, Trajectory
from vobs.errors import ConfigError
from vobs.evaluation import (
    EvalReport,
    SegmentSpec,
    accel_distribution,
    aggregate_mae,
    compare_observers,
    format_report_text,
    friction_circle_hist,
    mae,
    read_report_csv,
    segment_label,
    write_report_csv,
)


def _traj_with_ay(peak_ay, n=100, label="m"):
    sensors = np.zeros((n, 6))
    sensors[:, 0] = np.arange(n) * DT_S
    truth = np.zeros((n, 10))
    truth[:, 0] = sensors[:, 0]
    truth[:, 8] = np.linspace(0, peak_ay, n)
    truth[:, 4] = 10.0
    return Trajectory(sensors, truth, label=label)


class TestMae:
    def test_exact_match_is_zero(self):
        est = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_array_equal(mae(est, est.copy()), np.zeros(3))

    def test_single_channel_example(self):
        est = np.zeros((3, 3))
        ref = np.zeros((3, 3))
        est[:, 0] = [1.0, 2.0, 3.0]
        ref[:, 0] = [1.0, 1.0, 5.0]
        err = mae(est, ref)
        assert err[0] == pytest.approx(1.0)

    def test_yaw_rate_in_mrad(self):
        est = np.zeros((4, 3))
        ref = np.zeros((4, 3))
        est[:, 2] = 0.005  # 5 mrad/s offset
        err = mae(est, ref)
        assert err[2] == pytest.approx(5.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        est = rng.normal(size=(50, 3))
        ref = rng.normal(size=(50, 3))
        perm = rng.permutation(50)
        a = mae(est, ref)
        b = mae(est[perm], ref[perm])
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_warmup_excluded(self):
        est = np.zeros((10, 3))
        ref = np.zeros((10, 3))
        est[:5, 0] = 100.0  # junk inside warm-up
        assert mae(est, ref, skip=5)[0] == 0.0
        assert mae(est, ref)[0] == pytest.approx(50.0)  # nothing skipped by default

    def test_explicit_skip_override(self):
        est = np.zeros((10, 3))
        ref = np.zeros((10, 3))
        est[:8, 0] = 1.0
        assert mae(est, ref, skip=8)[0] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            mae(np.zeros((5, 3)), np.zeros((6, 3)))

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(2)
        parts = []
        all_est = []
        all_ref = []
        for n in (30, 50, 20):
            est = rng.normal(size=(n, 3))
            ref = rng.normal(size=(n, 3))
            parts.append((mae(est, ref), n))
            all_est.append(est)
            all_ref.append(ref)
        concat = mae(np.concatenate(all_est), np.concatenate(all_ref))
        np.testing.assert_allclose(aggregate_mae(parts), concat, rtol=1e-12)


class TestSegmentation:
    def test_low_dynamic_peak_is_normal(self):
        assert segment_label(_traj_with_ay(2.10), SegmentSpec()) == "normal"

    def test_08g_is_near_limits(self):
        assert segment_label(_traj_with_ay(0.8 * G_MPS2), SegmentSpec()) == "near_limits"

    def test_boundary_inclusive(self):
        assert segment_label(_traj_with_ay(0.5 * G_MPS2), SegmentSpec()) == "near_limits"

    def test_exhaustive_and_exclusive(self):
        # every trajectory gets exactly one of the two segments
        trajs = [_traj_with_ay(p, label=f"t{i}")
                 for i, p in enumerate((1.0, 3.0, 5.0, 6.0, 8.0))]
        assert [segment_label(t, SegmentSpec()) for t in trajs] == [
            "normal", "normal", "near_limits", "near_limits", "near_limits"]

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SegmentSpec(normal_threshold_g=0.9, near_limits_max_g=0.8)


# verbatim published comparison values the ranking logic must reproduce
OVERALL = {
    "DBM": np.array([0.2, 0.052, 4.51]),
    "4WM": np.array([0.072, 0.038, 4.52]),
    "KN": np.array([0.045, 0.095, 4.54]),
    "GRU": np.array([0.054, 0.023, 4.68]),
    "Ours": np.array([0.040, 0.021, 2.94]),
}
NORMAL = {
    "DBM": np.array([0.12, 0.049, 2.15]),
    "4WM": np.array([0.084, 0.038, 2.48]),
    "KN": np.array([0.041, 0.055, 2.52]),
    "GRU": np.array([0.059, 0.014, 4.02]),
    "Ours": np.array([0.039, 0.011, 2.11]),
}
NEAR_LIMITS = {
    "DBM": np.array([0.48, 0.18, 15.8]),
    "4WM": np.array([0.13, 0.10, 17.0]),
    "KN": np.array([0.10, 0.10, 18.5]),
    "GRU": np.array([0.091, 0.068, 16.1]),
    "Ours": np.array([0.079, 0.065, 9.2]),
}


class TestCompareObservers:
    def test_overall_rankings(self):
        r = compare_observers(OVERALL)
        assert (r["vx"]["first"], r["vx"]["second"], r["vx"]["last"]) == \
            ("Ours", "KN", "DBM")
        assert (r["vy"]["first"], r["vy"]["second"], r["vy"]["last"]) == \
            ("Ours", "GRU", "KN")
        assert (r["yaw_rate"]["first"], r["yaw_rate"]["second"],
                r["yaw_rate"]["last"]) == ("Ours", "DBM", "GRU")

    def test_normal_rankings(self):
        r = compare_observers(NORMAL)
        assert (r["vx"]["first"], r["vx"]["second"], r["vx"]["last"]) == \
            ("Ours", "KN", "DBM")
        assert (r["vy"]["first"], r["vy"]["second"], r["vy"]["last"]) == \
            ("Ours", "GRU", "KN")
        assert (r["yaw_rate"]["first"], r["yaw_rate"]["second"],
                r["yaw_rate"]["last"]) == ("Ours", "DBM", "GRU")

    def test_near_limits_rankings(self):
        r = compare_observers(NEAR_LIMITS)
        assert (r["vx"]["first"], r["vx"]["second"], r["vx"]["last"]) == \
            ("Ours", "GRU", "DBM")
        assert (r["vy"]["first"], r["vy"]["second"], r["vy"]["last"]) == \
            ("Ours", "GRU", "DBM")
        assert (r["yaw_rate"]["first"], r["yaw_rate"]["second"],
                r["yaw_rate"]["last"]) == ("Ours", "DBM", "KN")

    def test_tie_breaks_lexicographic(self):
        r = compare_observers({"b": np.array([1.0, 1, 1]),
                               "a": np.array([1.0, 1, 1]),
                               "c": np.array([2.0, 2, 2])})
        assert r["vx"]["first"] == "a"
        assert r["vx"]["second"] == "b"
        assert r["vx"]["last"] == "c"

    def test_needs_two_observers(self):
        with pytest.raises(ConfigError):
            compare_observers({"only": np.zeros(3)})


class TestFrictionCircle:
    def test_single_sample_in_center_cell(self):
        traj = _traj_with_ay(0.0, n=1)
        counts, ax_edges, ay_edges = friction_circle_hist([traj], bins=11)
        assert counts.sum() == 1
        assert counts[5, 5] == 1

    def test_count_conservation(self):
        trajs = [_traj_with_ay(3.0, n=77), _traj_with_ay(7.0, n=33)]
        counts, _, _ = friction_circle_hist(trajs)
        assert counts.sum() == 110

    def test_low_g_mass_inside_half_g(self):
        traj = _traj_with_ay(2.0, n=200)
        counts, ax_edges, ay_edges = friction_circle_hist([traj], bins=41)
        ay_centers = 0.5 * (ay_edges[:-1] + ay_edges[1:])
        outside = np.abs(ay_centers) > 0.5 * G_MPS2
        assert counts[:, outside].sum() == 0

    def test_bins_validated(self):
        with pytest.raises(ConfigError):
            friction_circle_hist([_traj_with_ay(1.0)], bins=1)


class TestAccelDistribution:
    def test_constant_ay_collapses_quantiles(self):
        traj = _traj_with_ay(0.0, n=50)
        traj.truth[:, 8] = 3.0
        q = accel_distribution([traj])
        assert q["min"] == q["q25"] == q["median"] == q["q75"] == q["max"] == 3.0

    def test_quantiles_monotone(self):
        traj = _traj_with_ay(7.5, n=500)
        q = accel_distribution([traj])
        assert q["min"] <= q["q25"] <= q["median"] <= q["q75"] <= q["max"]

    def test_counts_cover_all_samples(self):
        traj = _traj_with_ay(7.5, n=500)
        q = accel_distribution([traj])
        assert q["counts"].sum() == 500


class TestReportIo:
    def _report(self):
        return EvalReport(
            table={"ekf": {"overall": np.array([0.1, 0.05, 3.0]),
                           "normal": np.array([0.08, 0.04, 2.0])},
                   "lstm": {"overall": np.array([0.05, 0.02, 2.0]),
                            "normal": np.array([0.04, 0.01, 1.5])}},
            counts={"overall": 1000, "normal": 600},
        )

    def test_csv_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        back = read_report_csv(path)
        for name in report.table:
            for seg in report.table[name]:
                np.testing.assert_allclose(back.table[name][seg],
                                           report.table[name][seg])
        assert back.counts["overall"] == 1000

    def test_text_rendering_marks_winner(self):
        text = format_report_text(self._report())
        assert "overall" in text and "lstm" in text
        assert "*" in text

    def test_ranking_helper(self):
        r = self._report().ranking("overall")
        assert r["vx"]["first"] == "lstm"
        assert r["vx"]["last"] == "ekf"
