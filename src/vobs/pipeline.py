"""Pipeline stages behind the CLI: simulate a corpus, build the windowed
dataset, train observers, evaluate and report.

Every stage is a pure function of (config, previously written artifacts);
all randomness flows from the master seed through named derivation, so a
rerun with the same config produces byte-identical outputs.
"""

from __future__ import annotations

import dataclasses
import functools
import os

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from .artifacts import read_json, write_csv, write_file, write_json
from .baselines import run_ekf, run_gru, train_gru
from .config import RunConfig
from .domain import (
    G_AY,
    G_MPS2,
    STATE_CHANNELS,
    Trajectory,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .errors import ConfigError, DataFormatError
from .neural import COMPUTE_DTYPE, load_weights, save_weights
from .observer_lstm import (STATE_INPUTS, observer_net, run_closed_loop, train_observer,
                            write_trace_csv, write_training_log)
from .pool import map_tasks
from .seeding import derive_seed
from .simulator import builtin_scripts, run_maneuver

MANIFEST_NAME = "manifest.json"
SIDECAR_NAME = "dataset/dataset.json"


def _jittered_intensity(base: float, index: int, count: int) -> float:
    """Deterministic per-repeat spread so repeated maneuvers are not
    ground-truth identical across splits."""
    offset = (index - (count - 1) / 2.0) * 0.02
    return min(max(base + offset, 0.05), 1.0)


def _simulate_job(jobs: list, index: int) -> Trajectory:
    """Run maneuver `index` of `jobs`."""
    _, _, label, script, noise = jobs[index]
    traj = run_maneuver(script, noise)
    traj.label = label
    return traj


def _corpus_jobs(cfg: RunConfig) -> list:
    """(kind, intensity, label, script, sensor noise) of each maneuver of the
    corpus; building the script validates it."""
    jobs = []
    for entry in cfg.corpus:
        for i in range(entry.count):
            label = f"{entry.label}#{i}"
            intensity = _jittered_intensity(entry.intensity, i, entry.count)
            noise = dataclasses.replace(
                cfg.sensor_noise, seed=derive_seed(cfg.master_seed, "sensors", label))
            script = builtin_scripts(entry.kind, intensity, duration_s=entry.duration_s,
                                     seed=derive_seed(cfg.master_seed, "script", label))
            jobs.append((entry.kind, intensity, label, script, noise))
    return jobs


def simulate_corpus(cfg: RunConfig) -> dict:
    """Generate every scripted maneuver and write trajectory arrays plus a
    corpus manifest. Scripts are all constructed (and validated) before any
    integration starts; outputs are written only after every maneuver ran.
    Forked workers inherit the scripts, so only a job index crosses a pipe."""
    jobs = _corpus_jobs(cfg)
    trajectories = map_tasks(functools.partial(_simulate_job, jobs), range(len(jobs)),
                             cfg.workers)

    entries = []
    for (kind, intensity, label, _, noise), traj in zip(jobs, trajectories):
        fname = label.replace("#", "-") + ".npy"
        write_trajectory_csv(traj, os.path.join(cfg.out_dir, "trajectories", fname))
        entries.append({
            "file": f"trajectories/{fname}",
            "label": label,
            "kind": kind,
            "intensity": intensity,
            "n_frames": len(traj),
            "peak_ay_g": float(np.max(np.abs(traj.truth[:, G_AY]))) / G_MPS2,
            "sensor_seed": noise.seed,
        })
    regimes = {ev.segment_label(traj, cfg.segments) for traj in trajectories}
    manifest = {
        "master_seed": cfg.master_seed,
        "trajectories": entries,
        "totals": {"n_trajectories": len(entries),
                   "n_frames": sum(e["n_frames"] for e in entries)},
        "regimes": {"low_g": "normal" in regimes, "high_g": "near_limits" in regimes},
    }
    write_json(os.path.join(cfg.out_dir, MANIFEST_NAME), manifest)
    return manifest


def _load_manifest(cfg: RunConfig) -> dict:
    path = os.path.join(cfg.out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise DataFormatError(f"no corpus manifest at {path}; run 'simulate' first")
    manifest = read_json(path, "corpus manifest")
    entries = manifest.get("trajectories") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("file"), str)
            and isinstance(e.get("label"), str) for e in entries):
        raise DataFormatError(
            f"{path}: corrupt corpus manifest ('trajectories' must list entries "
            f"with a 'file' and a 'label')")
    return manifest


def _load_trajectories(cfg: RunConfig, entries: list[dict]) -> list[Trajectory]:
    return [read_trajectory_csv(os.path.join(cfg.out_dir, e["file"]), label=e["label"])
            for e in entries]


def build_dataset(cfg: RunConfig) -> dict:
    """Split the corpus, fit the scaler on the training split, window all
    three splits, and write caches plus the sidecar metadata file; returns
    the sidecar's counts."""
    manifest = _load_manifest(cfg)
    trajectories = _load_trajectories(cfg, manifest["trajectories"])
    split_spec = dataclasses.replace(cfg.split, seed=derive_seed(cfg.master_seed, "split"))
    splits = dict(zip(("train", "val", "test"), ds.split_dataset(trajectories, split_spec)))
    scaler = ds.fit_scaler(splits["train"])

    out_dir = os.path.join(cfg.out_dir, "dataset")
    strides = {"train": cfg.train_stride, "val": cfg.val_stride, "test": 1}
    counts = {}
    for name in ("train", "val"):
        windowed = ds.make_windows(splits[name], scaler, cfg.window_len, stride=strides[name])
        ds.write_cache(windowed, os.path.join(out_dir, f"{name}.cache"))
        counts[name] = len(windowed)
    counts["test_trajectories"] = len(splits["test"])

    assignment = {t.label: name for name, group in splits.items() for t in group}
    ds.write_sidecar(os.path.join(cfg.out_dir, SIDECAR_NAME), scaler, assignment,
                     counts, cfg.window_len, strides, cfg.state_noise, cfg.master_seed,
                     {t.label: t.sha256 for t in trajectories})
    return counts


def _load_sidecar(cfg: RunConfig) -> dict:
    path = os.path.join(cfg.out_dir, SIDECAR_NAME)
    if not os.path.exists(path):
        raise DataFormatError(f"no dataset sidecar at {path}; run 'dataset' first")
    sidecar = ds.read_sidecar(path)
    if sidecar.get("window_len") != cfg.window_len:
        raise DataFormatError(
            f"{path}: dataset built with window_len {sidecar.get('window_len')!r}, "
            f"but the config sets window_len {cfg.window_len}; rerun 'dataset'")
    return sidecar


def _read_split_cache(cfg: RunConfig, sidecar: dict, split: str) -> ds.WindowedDataset:
    """The `split` window cache, refused unless its window length and window
    count are the ones the sidecar records."""
    path = os.path.join(cfg.out_dir, "dataset", f"{split}.cache")
    data = ds.read_cache(path)
    if data.window_len != sidecar["window_len"]:
        raise DataFormatError(
            f"{path}: cache holds windows of window_len {data.window_len}, but the "
            f"sidecar records window_len {sidecar['window_len']!r}; rerun 'dataset'")
    expected = sidecar["counts"].get(split)
    if len(data) != expected:
        raise DataFormatError(
            f"{path}: cache holds {len(data)} windows, but the sidecar counts "
            f"{expected!r} {split} windows; rerun 'dataset'")
    return data


def weights_path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, "models", f"{name}.weights")


def train_observer_model(cfg: RunConfig, name: str) -> dict:
    """Train one configured learned observer and write weights + log."""
    if name not in cfg.observers:
        raise ConfigError(f"no observer named '{name}' in the config")
    spec = cfg.observers[name]
    if not spec.trainable:
        raise ConfigError(f"observer '{name}' ({spec.type}) does not train")

    sidecar = _load_sidecar(cfg)
    scaler: ds.ScalerParams = sidecar["scaler"]
    train_ds = _read_split_cache(cfg, sidecar, "train")
    val_ds = _read_split_cache(cfg, sidecar, "val")

    tc = dataclasses.replace(cfg.train, seed=derive_seed(cfg.master_seed, "train", name))
    if spec.type == "lstm":
        if spec.state_noise:
            noise = dataclasses.replace(
                cfg.state_noise, seed=derive_seed(cfg.master_seed, "state-noise", name))
        else:
            noise = ds.NoiseSpec(0.0, 0.0)
        net, log = train_observer(train_ds, val_ds, scaler, noise, tc,
                                  observer_net("lstm", tc.seed))
    else:
        net, log = train_gru(train_ds, val_ds, scaler, tc)

    save_weights(net, weights_path(cfg, name))
    write_training_log(log, os.path.join(cfg.out_dir, "models", f"{name}.trainlog.csv"))
    best = min(entry["val_loss"] for entry in log)
    return {"observer": name, "epochs": len(log), "best_val_loss": best}


def train_all(cfg: RunConfig, names: list[str] | None = None) -> list[dict]:
    """Train the observers `names`, by default every trainable one in config
    order, one observer per task of `map_tasks`; each task writes its own
    weights and trainlog. `train_observer_model` is looked up here, at call
    time, so a wrapper set on this module's global (perfbench's tracer) is
    the one that runs."""
    if names is None:
        names = [name for name, spec in cfg.observers.items() if spec.trainable]
    return map_tasks(functools.partial(train_observer_model, cfg), names, cfg.workers)


def _trace_task(cfg: RunConfig, trajs: list[Trajectory], nets: dict,
                scaler: ds.ScalerParams, task):
    """(N, 3) estimates of one (observer name, test trajectory index) pair."""
    name, index = task
    spec = cfg.observers[name]
    traj = trajs[index]
    initial = traj.state_channels()[0]
    if spec.type == "lstm":
        return run_closed_loop(traj, initial, nets[name], scaler, cfg.window_len)
    if spec.type == "gru":
        return run_gru(traj, initial, nets[name], scaler, cfg.window_len)
    return run_ekf(traj, initial, spec.ekf)


def evaluate_run(cfg: RunConfig) -> str:
    """Run every configured observer over the test split, write the report
    bundle (CSV + text tables + rankings + plot data + traces) and return the text
    tables.

    Each loaded network is cast once to `COMPUTE_DTYPE`, so the window stacks
    and the closed-loop head run in float32; traces store float64 estimates
    and the EKF stays float64 throughout.

    Warm-up is decided here alone: with a windowed observer configured, every
    trace is scored without its first `cfg.window_len - 1` samples, so all
    observers are scored on the same samples.

    Each test trajectory file must hash to the SHA-256 the sidecar records.
    Each (observer, test trajectory) pair is one `map_tasks` task, which
    inherits the trajectories and nets this process read; scoring and every
    file write stay in this process."""
    manifest = _load_manifest(cfg)
    sidecar = _load_sidecar(cfg)
    scaler: ds.ScalerParams = sidecar["scaler"]
    assignment = sidecar["split_assignment"]
    if {e["label"] for e in manifest["trajectories"]} != assignment.keys():
        raise DataFormatError(
            f"{os.path.join(cfg.out_dir, MANIFEST_NAME)} and "
            f"{os.path.join(cfg.out_dir, SIDECAR_NAME)} list different trajectory "
            f"labels: the corpus changed after the dataset was built; rerun 'dataset'")
    test_entries = [e for e in manifest["trajectories"] if assignment[e["label"]] == "test"]
    test_trajs = _load_trajectories(cfg, test_entries)
    digests = sidecar.get("trajectory_sha256")
    for e, traj in zip(test_entries, test_trajs):
        if not isinstance(digests, dict) or digests.get(traj.label) != traj.sha256:
            raise DataFormatError(
                f"{os.path.join(cfg.out_dir, e['file'])} is not the file that "
                f"{os.path.join(cfg.out_dir, SIDECAR_NAME)} records the SHA-256 of: "
                f"the trajectory changed after the dataset was built; rerun 'dataset'")
    nets = {}
    for name, spec in cfg.observers.items():
        if spec.trainable:
            path = weights_path(cfg, name)
            if not os.path.exists(path):
                raise DataFormatError(
                    f"observer '{name}': missing weight file {path}; run 'train' first")
            net = load_weights(path)
            found = (net.kind, net.cells[0].in_dim, net.state_dim, net.head[-1].out_dim)
            wanted = (spec.type, ds.N_SENSOR, STATE_INPUTS[spec.type], ds.N_STATE)
            if found != wanted:
                raise DataFormatError(
                    f"observer '{name}': weight file {path} holds a network of (kind, "
                    f"inputs, state inputs, outputs) {found}, expected {wanted}; "
                    f"run 'train' for this config")
            nets[name] = net.astype(COMPUTE_DTYPE)

    skip = cfg.window_len - 1 if nets else 0  # a windowed observer is configured

    eval_dir = os.path.join(cfg.out_dir, "eval")

    seg_of = {t.label: ev.segment_label(t, cfg.segments) for t in test_trajs}
    tasks = [(name, i) for name in cfg.observers for i in range(len(test_trajs))]
    trace_task = functools.partial(_trace_task, cfg, test_trajs, nets, scaler)
    computed = iter(map_tasks(trace_task, tasks, cfg.workers))
    traces: dict[str, dict[str, np.ndarray]] = {name: {} for name in cfg.observers}
    table: dict[str, dict[str, np.ndarray]] = {}
    for name in cfg.observers:
        per_segment: dict[str, list] = {"overall": [], "normal": [], "near_limits": []}
        for traj in test_trajs:
            trace = next(computed)
            traces[name][traj.label] = trace
            item = (ev.mae(trace, traj.state_channels(), skip), len(trace) - skip)
            per_segment["overall"].append(item)
            per_segment[seg_of[traj.label]].append(item)
        table[name] = {seg: ev.aggregate_mae(items)
                       for seg, items in per_segment.items() if items}
    # every observer scores the same samples, so the last one's counts serve
    counts = {seg: sum(n for _, n in items) for seg, items in per_segment.items() if items}

    report = ev.EvalReport(table, counts)
    ev.write_report_csv(report, os.path.join(eval_dir, "report.csv"))
    text = _write_tables(report, eval_dir)
    _write_plot_data(cfg, report, test_trajs, seg_of, traces, skip, eval_dir)
    _write_distributions(test_trajs, seg_of, eval_dir)

    for name in cfg.observers:
        for traj in test_trajs:
            write_trace_csv(traces[name][traj.label], os.path.join(
                eval_dir, "traces", name, traj.label.replace("#", "-") + ".csv"),
                traj.sensors[:, 0])
    return text


def _write_tables(report: ev.EvalReport, eval_dir: str) -> str:
    """Write `report`'s text tables (report.txt) and rankings; return the text."""
    text = ev.format_report_text(report)
    write_file(os.path.join(eval_dir, "report.txt"), text)
    spots = ("first", "second", "last")
    rows = []
    for segment in ev.SEGMENTS:
        if sum(segment in segs for segs in report.table.values()) >= 2:
            ranking = report.ranking(segment)
            rows += [(segment, channel, *(ranking[channel][s] for s in spots))
                     for channel in STATE_CHANNELS]
    write_csv(os.path.join(eval_dir, "ranking.csv"), ("segment", "channel") + spots, rows)
    return text


def _pick_ours(cfg: RunConfig) -> str:
    if "lstm" in cfg.observers and cfg.observers["lstm"].type == "lstm":
        return "lstm"
    for name, spec in cfg.observers.items():
        if spec.type == "lstm" and spec.state_noise:
            return name
    return next(iter(cfg.observers))


def _write_plot_data(cfg, report, test_trajs, seg_of, traces, skip, eval_dir) -> None:
    """Time-series overlays: reference vs our observer vs the next best,
    for the highest-acceleration trajectory of each segment."""
    ours = _pick_ours(cfg)
    for segment in ("normal", "near_limits"):
        candidates = [t for t in test_trajs if seg_of[t.label] == segment]
        if not candidates or len(cfg.observers) < 2 or segment not in report.table.get(ours, {}):
            continue
        rep = max(candidates,
                  key=lambda t: float(np.max(np.abs(t.truth[:, G_AY]))))
        ranking = report.ranking(segment)
        for ci, channel in enumerate(STATE_CHANNELS):
            spots = ranking[channel]
            other = spots["second"] if spots["first"] == ours else spots["first"]
            ref = rep.state_channels()[skip:, ci]
            t = rep.sensors[skip:, 0]
            ours_est = traces[ours][rep.label][skip:, ci]
            other_est = traces[other][rep.label][skip:, ci]
            rows = np.column_stack([t, ref, ours_est, other_est])
            write_csv(os.path.join(eval_dir, "plots", f"{segment}_{channel}.csv"),
                      ("t", "ref", ours, other), map(np.ndarray.tolist, rows))


def _write_distributions(test_trajs, seg_of, eval_dir) -> None:
    groups = {"all": test_trajs,
              "normal": [t for t in test_trajs if seg_of[t.label] == "normal"],
              "near_limits": [t for t in test_trajs if seg_of[t.label] == "near_limits"]}
    dists = {name: ev.accel_distribution(group) for name, group in groups.items() if group}
    write_csv(os.path.join(eval_dir, "accel_distribution.csv"),
              ("set", "min", "q25", "median", "q75", "max"),
              [(name, q["min"], q["q25"], q["median"], q["q75"], q["max"])
               for name, q in dists.items()])
    write_csv(os.path.join(eval_dir, "accel_histogram.csv"),
              ("set", "bin_lo", "bin_hi", "count"),
              ((name, lo, hi, c) for name, q in dists.items()
               for lo, hi, c in zip(q["edges"][:-1].tolist(), q["edges"][1:].tolist(),
                                    q["counts"].tolist())))
    counts, ax_edges, ay_edges = ev.friction_circle_hist(test_trajs)
    ax_centers = 0.5 * (ax_edges[:-1] + ax_edges[1:])
    ay_centers = 0.5 * (ay_edges[:-1] + ay_edges[1:])
    write_csv(os.path.join(eval_dir, "friction_circle.csv"),
              ("ax_center", "ay_center", "count"),
              ((axc, ayc, int(counts[i, j])) for i, axc in enumerate(ax_centers.tolist())
               for j, ayc in enumerate(ay_centers.tolist())))


def render_report(out_dir: str) -> str:
    """Re-render the text tables and rankings from a stored report.csv."""
    path = os.path.join(out_dir, "eval", "report.csv")
    if not os.path.exists(path):
        raise DataFormatError(f"no evaluation report at {path}; run 'evaluate' first")
    return _write_tables(ev.read_report_csv(path), os.path.join(out_dir, "eval"))

