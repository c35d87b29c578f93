"""Observer comparison protocol: per-channel MAE, segmentation of maneuvers
by peak lateral acceleration, ranking tables, and distribution statistics
for plotting.

Each observer's estimates are an (N, 3) array of (vx, vy, yaw_rate), one row
per sensor frame. Velocity errors are reported in m/s, yaw-rate errors in
mrad/s. Segmentation is decided per trajectory from the ground-truth peak
|ay|: at or above a `SegmentSpec`'s normal threshold (0.5g by default) a
maneuver counts as near-limits. The caller decides how many leading samples
`mae` skips; the evaluate stage skips the warm-up, the first window_len - 1
samples, which only repeat the provided initial state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import read_csv, write_csv
from .domain import G_AX, G_AY, G_MPS2, STATE_CHANNELS, Trajectory
from .errors import ConfigError, DataFormatError

CHANNEL_UNITS = ("m/s", "m/s", "mrad/s")
SEGMENTS = ("overall", "normal", "near_limits")
REPORT_COLUMNS = ("observer", "segment", "channel", "mae", "unit", "n_samples")
# the acceleration histograms: bins per axis (friction circle, |ay|), and the
# range in m/s^2 both cover
FRICTION_CIRCLE_BINS, ACCEL_BINS, HIST_RANGE_MPS2 = 41, 40, 1.05 * G_MPS2


@dataclass(frozen=True)
class SegmentSpec:
    """Regime thresholds in multiples of g."""

    normal_threshold_g: float = 0.5
    near_limits_max_g: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.normal_threshold_g < self.near_limits_max_g:
            raise ConfigError("need 0 < normal threshold < near-limits max")


def mae(est: np.ndarray, truth: np.ndarray, skip: int = 0) -> np.ndarray:
    """Per-channel mean absolute error (vx m/s, vy m/s, yaw rate mrad/s).

    `est` and `truth` are (N, 3) state matrices, an observer's estimates and
    the ground truth, aligned sample-for-sample; the first `skip` samples
    are left out.
    """
    if truth.shape != est.shape:
        raise ConfigError(
            f"length mismatch: trace {est.shape} vs reference {truth.shape}")
    if skip >= len(est):
        raise ConfigError("nothing left to evaluate after warm-up exclusion")
    err = np.abs(est[skip:] - truth[skip:]).mean(axis=0)
    return err * np.array([1.0, 1.0, 1000.0])


def segment_label(traj: Trajectory, spec: SegmentSpec) -> str:
    """`near_limits` iff the ground-truth peak |ay| reaches `spec.normal_threshold_g`."""
    peak = float(np.max(np.abs(traj.truth[:, G_AY])))
    return "near_limits" if peak >= spec.normal_threshold_g * G_MPS2 else "normal"


def compare_observers(reports: dict[str, np.ndarray]) -> dict[str, dict[str, str]]:
    """Rank observers per channel from a {name: per-channel MAE} table.

    Returns {channel: {"first", "second", "last"}}; ties break by observer
    name in lexicographic order.
    """
    if len(reports) < 2:
        raise ConfigError("ranking needs at least 2 observers")
    ranking: dict[str, dict[str, str]] = {}
    for ci, channel in enumerate(STATE_CHANNELS):
        order = sorted(reports, key=lambda name: (float(reports[name][ci]), name))
        ranking[channel] = {"first": order[0], "second": order[1], "last": order[-1]}
    return ranking


def friction_circle_hist(trajs: list[Trajectory]):
    """2D histogram of ground-truth (ax, ay) counts over all samples.

    Returns (counts, ax_edges, ay_edges); edges are in m/s^2.
    """
    ax = np.concatenate([t.truth[:, G_AX] for t in trajs])
    ay = np.concatenate([t.truth[:, G_AY] for t in trajs])
    lim = (-HIST_RANGE_MPS2, HIST_RANGE_MPS2)
    counts, ax_edges, ay_edges = np.histogram2d(
        ax, ay, bins=FRICTION_CIRCLE_BINS, range=[lim, lim])
    return counts, ax_edges, ay_edges


def accel_distribution(trajs: list[Trajectory]) -> dict:
    """Quantiles plus histogram counts of |ay|, the violin-plot ingredients."""
    if not trajs:
        raise ConfigError("empty trajectory list")
    ay = np.abs(np.concatenate([t.truth[:, G_AY] for t in trajs]))
    quantiles = np.quantile(ay, [0.0, 0.25, 0.5, 0.75, 1.0])
    counts, edges = np.histogram(ay, bins=ACCEL_BINS, range=(0.0, HIST_RANGE_MPS2))
    return {
        "min": float(quantiles[0]),
        "q25": float(quantiles[1]),
        "median": float(quantiles[2]),
        "q75": float(quantiles[3]),
        "max": float(quantiles[4]),
        "counts": counts,
        "edges": edges,
    }


# ---------------------------------------------------------------------------
# Aggregation across trajectories and report rendering
# ---------------------------------------------------------------------------

def aggregate_mae(per_trace: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Length-weighted mean of per-trace MAEs (equals the MAE of the
    concatenated traces)."""
    total = np.zeros(3)
    n = 0
    for err, count in per_trace:
        total += err * count
        n += count
    if n == 0:
        raise ConfigError("no samples to aggregate")
    return total / n


@dataclass
class EvalReport:
    """Per-observer, per-segment, per-channel MAE plus sample counts."""

    table: dict[str, dict[str, np.ndarray]]  # observer -> segment -> (3,) MAE
    counts: dict[str, int]                   # segment -> sample count

    def ranking(self, segment: str) -> dict[str, dict[str, str]]:
        reports = {name: segs[segment] for name, segs in self.table.items()
                   if segment in segs}
        return compare_observers(reports)


def write_report_csv(report: EvalReport, path) -> None:
    write_csv(path, REPORT_COLUMNS, (
        (observer, segment, channel, float(segs[segment][ci]), CHANNEL_UNITS[ci],
         report.counts.get(segment, 0))
        for observer, segs in sorted(report.table.items())
        for segment in SEGMENTS if segment in segs
        for ci, channel in enumerate(STATE_CHANNELS)))


def read_report_csv(path) -> EvalReport:
    """Read a report written by `write_report_csv`: one row for each channel
    of each observer in each segment it holds, and one sample count per
    segment."""
    table: dict[str, dict[str, np.ndarray]] = {}
    counts: dict[str, int] = {}
    for lineno, (observer, segment, channel, value, _, n) in enumerate(
            read_csv(path, REPORT_COLUMNS), 2):
        if segment not in SEGMENTS or channel not in STATE_CHANNELS:
            raise DataFormatError(
                f"{path}:{lineno}: unknown segment or channel '{segment},{channel}'")
        try:
            mae_value, n_samples = float(value), int(n)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        if not np.isfinite(mae_value):
            raise DataFormatError(f"{path}:{lineno}: non-finite MAE {value!r}")
        err = table.setdefault(observer, {}).setdefault(segment, np.full(3, np.nan))
        ci = STATE_CHANNELS.index(channel)
        if not np.isnan(err[ci]):
            raise DataFormatError(
                f"{path}:{lineno}: repeated row '{observer},{segment},{channel}'")
        err[ci] = mae_value
        if counts.setdefault(segment, n_samples) != n_samples:
            raise DataFormatError(
                f"{path}:{lineno}: n_samples {n_samples} for segment '{segment}', but "
                f"an earlier row gives {counts[segment]}")
    if not table:
        raise DataFormatError(f"{path}: no rows after the header")
    segments = {segment for segs in table.values() for segment in segs}
    missing = [f"{observer},{segment},{channel}" for observer, segs in table.items()
               for segment in sorted(segments)
               for channel, value in zip(STATE_CHANNELS, segs.get(segment, [np.nan] * 3))
               if np.isnan(value)]
    if missing:
        raise DataFormatError(f"{path}: no row '{missing[0]}'")
    return EvalReport(table, counts)


def format_report_text(report: EvalReport) -> str:
    """Aligned text tables (one per segment) with first/second/last marks."""
    lines = []
    for segment in SEGMENTS:
        observers = sorted(n for n, segs in report.table.items() if segment in segs)
        if not observers:
            continue
        reports = {n: report.table[n][segment] for n in observers}
        marks = {}
        if len(observers) >= 2:
            ranking = compare_observers(reports)
            for channel, spots in ranking.items():
                for spot, name in spots.items():
                    marks[(channel, name)] = {"first": "*", "second": "+", "last": "-"}[spot]
        width = max(max(len(n) for n in observers), 9) + 3
        label_w = max(len(f"{c} ({u})") for c, u in zip(STATE_CHANNELS, CHANNEL_UNITS)) + 2
        lines.append(f"== {segment} ({report.counts.get(segment, 0)} samples) ==")
        lines.append("state".ljust(label_w) + "".join(n.rjust(width) for n in observers))
        for ci, channel in enumerate(STATE_CHANNELS):
            row = f"{channel} ({CHANNEL_UNITS[ci]})".ljust(label_w)
            for name in observers:
                mark = marks.get((channel, name), " ")
                row += f"{reports[name][ci]:.4g}{mark}".rjust(width)
            lines.append(row)
        lines.append("")
    lines.append("marks: * lowest error, + second lowest, - highest")
    return "\n".join(lines) + "\n"
