"""Pipeline stages behind the CLI: simulate a corpus, build the windowed
dataset, train observers, evaluate and report.

Every stage is a pure function of (config, previously written artifacts);
all randomness flows from the master seed through named derivation, so a
rerun with the same config produces byte-identical outputs.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from .baselines import EkfConfig, EkfState, run_ekf, run_gru, train_gru
from .config import RunConfig
from .domain import (
    G_AY,
    G_MPS2,
    VehicleParams,
    Trajectory,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .errors import ConfigError, DataFormatError, VobsError
from .neural import (
    COMPUTE_DTYPE,
    TrainConfig,
    load_weights,
    lstm_observer_net,
    save_weights,
    gradient_check,
    write_gradcheck_csv,
)
from .observer_lstm import (
    ObserverConfig,
    run_closed_loop,
    train_observer,
    write_trace_csv,
    write_training_log,
)
from .seeding import derive_seed
from .simulator import builtin_scripts, run_maneuver

MANIFEST_NAME = "manifest.json"
SIDECAR_NAME = "dataset/dataset.json"


def _jittered_intensity(base: float, index: int, count: int) -> float:
    """Deterministic per-repeat spread so repeated maneuvers are not
    ground-truth identical across splits."""
    offset = (index - (count - 1) / 2.0) * 0.02
    return min(max(base + offset, 0.05), 1.0)


# the (fn, shared) of the pool `_map_tasks` is running; its forked workers
# inherit it, so only the tasks and results cross a pipe
_pool_job: tuple = ()


def _set_blas_threads(n: int) -> int | None:
    """Set numpy's bundled OpenBLAS to `n` threads; return the previous
    count, or None, changing nothing, without the library or its symbols.
    Outputs do not depend on the BLAS thread count, only the speed does."""
    libs = os.path.dirname(os.path.abspath(np.__file__)) + ".libs"
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        previous = get()
        put(n)
        return previous
    return None


def _pool_task(task):
    fn, shared = _pool_job
    return fn(*shared, task)


def _map_tasks(fn, tasks: list, workers: int, shared: tuple = ()) -> list:
    """`[fn(*shared, t) for t in tasks]`, in task order.

    With more than one worker (capped at the task count) the tasks run in a
    pool of forked processes. `fn` and `shared` reach the workers by
    inheritance; a worker that dies is a `VobsError`.

    This process holds numpy's OpenBLAS at one thread while the pool forks,
    so each worker inherits one thread and never starts another; the count
    is restored afterwards. Setting it inside a forked worker instead would
    restart OpenBLAS's thread pool there, whose idle thread spins for about
    0.1 s of CPU time."""
    global _pool_job
    n_workers = min(workers, len(tasks))
    if n_workers <= 1:
        return [fn(*shared, task) for task in tasks]
    _pool_job = (fn, shared)
    blas_threads = _set_blas_threads(1)
    try:
        pool = ProcessPoolExecutor(max_workers=n_workers,
                                   mp_context=multiprocessing.get_context("fork"))
        try:
            return list(pool.map(_pool_task, tasks))
        finally:
            pool.shutdown(cancel_futures=True)
    except BrokenProcessPool as exc:
        raise VobsError("a worker process died before finishing its tasks") from exc
    finally:
        _pool_job = ()
        if blas_threads is not None:
            _set_blas_threads(blas_threads)


def _simulate_job(job):
    """Build and run one maneuver."""
    kind, intensity, duration_s, label, script_seed, noise = job
    script = builtin_scripts(kind, intensity, duration_s=duration_s,
                             seed=script_seed)
    traj = run_maneuver(script, VehicleParams(), noise)
    traj.label = label
    return traj


def _corpus_jobs(cfg: RunConfig):
    jobs = []
    for entry in cfg.corpus:
        for i in range(entry.count):
            label = f"{entry.label}#{i}"
            intensity = _jittered_intensity(entry.intensity, i, entry.count)
            noise = dataclasses.replace(
                cfg.sensor_noise, seed=derive_seed(cfg.master_seed, "sensors", label))
            jobs.append((entry.kind, intensity, entry.duration_s, label,
                         derive_seed(cfg.master_seed, "script", label), noise))
    return jobs


def simulate_corpus(cfg: RunConfig) -> dict:
    """Generate every scripted maneuver and write trajectory CSVs plus a
    corpus manifest. Scripts are all constructed (and validated) before any
    integration starts; outputs are written only after every maneuver ran."""
    jobs = _corpus_jobs(cfg)
    for kind, intensity, duration_s, label, seed, _ in jobs:
        builtin_scripts(kind, intensity, duration_s=duration_s, seed=seed)

    trajectories = _map_tasks(_simulate_job, jobs, cfg.workers)

    traj_dir = os.path.join(cfg.out_dir, "trajectories")
    os.makedirs(traj_dir, exist_ok=True)
    entries = []
    total_frames = 0
    has_low = False
    has_high = False
    for job, traj in zip(jobs, trajectories):
        kind, intensity, _, label, _, noise = job
        fname = label.replace("#", "-") + ".csv"
        write_trajectory_csv(traj, os.path.join(traj_dir, fname))
        peak_g = float(np.max(np.abs(traj.truth[:, G_AY]))) / G_MPS2
        has_low = has_low or peak_g < 0.5
        has_high = has_high or peak_g >= 0.5
        total_frames += len(traj)
        entries.append({
            "file": f"trajectories/{fname}",
            "label": label,
            "kind": kind,
            "intensity": intensity,
            "n_frames": len(traj),
            "peak_ay_g": peak_g,
            "sensor_seed": noise.seed,
        })
    manifest = {
        "master_seed": cfg.master_seed,
        "trajectories": entries,
        "totals": {"n_trajectories": len(entries), "n_frames": total_frames},
        "regimes": {"low_g": has_low, "high_g": has_high},
    }
    with open(os.path.join(cfg.out_dir, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _load_manifest(cfg: RunConfig) -> dict:
    path = os.path.join(cfg.out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise DataFormatError(f"no corpus manifest at {path}; run 'simulate' first")
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: corrupt corpus manifest ({exc})") from None
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
    three splits, and write caches plus the sidecar metadata file."""
    manifest = _load_manifest(cfg)
    trajectories = _load_trajectories(cfg, manifest["trajectories"])
    split_spec = ds.SplitSpec(cfg.split.train, cfg.split.val, cfg.split.test,
                              seed=derive_seed(cfg.master_seed, "split"))
    train, val, test = ds.split_dataset(trajectories, split_spec)
    scaler = ds.fit_scaler(train)

    out_dir = os.path.join(cfg.out_dir, "dataset")
    os.makedirs(out_dir, exist_ok=True)
    strides = {"train": cfg.train_stride, "val": cfg.val_stride, "test": 1}
    counts = {}
    for name, group, stride in (("train", train, cfg.train_stride),
                                ("val", val, cfg.val_stride)):
        windowed = ds.WindowedDataset.concatenate(
            [ds.make_windows(t, scaler, w=cfg.window_len, stride=stride)
             for t in group])
        ds.write_cache(windowed, os.path.join(out_dir, f"{name}.cache"))
        counts[name] = len(windowed)
    counts["test_trajectories"] = len(test)

    assignment = {}
    for name, group in (("train", train), ("val", val), ("test", test)):
        for t in group:
            assignment[t.label] = name
    noise = ds.NoiseSpec(cfg.state_noise.std_v_mps,
                         cfg.state_noise.std_yaw_rate_radps)
    ds.write_sidecar(os.path.join(cfg.out_dir, SIDECAR_NAME), scaler, assignment,
                     counts, cfg.window_len, strides, noise, cfg.master_seed)
    return {"counts": counts, "assignment": assignment}


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
    train_ds = ds.read_cache(os.path.join(cfg.out_dir, "dataset", "train.cache"))
    val_ds = ds.read_cache(os.path.join(cfg.out_dir, "dataset", "val.cache"))

    tc = TrainConfig(epochs=cfg.train.epochs, batch_size=cfg.train.batch_size,
                     learning_rate=cfg.train.learning_rate,
                     seed=derive_seed(cfg.master_seed, "train", name),
                     shuffle=cfg.train.shuffle)
    if spec.type == "lstm":
        if spec.state_noise:
            noise = ds.NoiseSpec(cfg.state_noise.std_v_mps,
                                 cfg.state_noise.std_yaw_rate_radps,
                                 seed=derive_seed(cfg.master_seed, "state-noise", name))
        else:
            noise = ds.NoiseSpec(0.0, 0.0)
        ocfg = ObserverConfig(scaler=scaler, noise=noise, window_len=cfg.window_len)
        net, log = train_observer(train_ds, val_ds, ocfg, tc)
    else:
        net, log = train_gru(train_ds, val_ds, scaler, tc)

    os.makedirs(os.path.join(cfg.out_dir, "models"), exist_ok=True)
    save_weights(net, weights_path(cfg, name))
    write_training_log(log, os.path.join(cfg.out_dir, "models", f"{name}.trainlog.csv"))
    best = min(entry["val_loss"] for entry in log)
    return {"observer": name, "epochs": len(log), "best_val_loss": best}


def train_all(cfg: RunConfig) -> list[dict]:
    return [train_observer_model(cfg, name)
            for name, spec in cfg.observers.items() if spec.trainable]


def _ekf_config(spec, params: VehicleParams) -> EkfConfig:
    kwargs = {}
    o = spec.ekf_overrides
    if "q" in o:
        kwargs["process_noise_q"] = tuple(float(v) for v in o["q"])
    if "r" in o:
        kwargs["measurement_noise_r"] = tuple(float(v) for v in o["r"])
    if "p0" in o:
        kwargs["initial_covariance_p0"] = tuple(float(v) for v in o["p0"])
    if "cornering_stiffness_front" in o and "cornering_stiffness_rear" in o:
        return EkfConfig(float(o["cornering_stiffness_front"]),
                         float(o["cornering_stiffness_rear"]), **kwargs)
    return EkfConfig.for_vehicle(params, **kwargs)


def _trace_task(cfg: RunConfig, trajs: list[Trajectory], nets: dict,
                scaler: ds.ScalerParams, params: VehicleParams, task):
    """Estimate trace of one (observer name, test trajectory index) pair."""
    name, index = task
    spec = cfg.observers[name]
    traj = trajs[index]
    initial = traj.state_channels()[0]
    if spec.type == "lstm":
        ocfg = ObserverConfig(scaler=scaler, window_len=cfg.window_len)
        return run_closed_loop(traj, initial, nets[name], ocfg)
    if spec.type == "gru":
        return run_gru(traj, nets[name], scaler, initial_state=initial,
                       window_len=cfg.window_len)
    ekf_cfg = _ekf_config(spec, params)
    return run_ekf(traj, EkfState(initial, ekf_cfg.p0_matrix()), params, ekf_cfg)


def evaluate_run(cfg: RunConfig, write_traces: bool = True) -> ev.EvalReport:
    """Run every configured observer over the test split and write the
    report bundle (CSV + text tables + rankings + plot data).

    Each loaded network is cast once to `COMPUTE_DTYPE`, so the window stacks
    and the closed-loop head run in float32; traces store float64 estimates
    and the EKF stays float64 throughout.

    Each (observer, test trajectory) pair is an independent task. With
    `cfg.workers > 1` the tasks run in forked worker processes, each with a
    single BLAS thread, which inherit the trajectories and nets this process
    read; scoring and every file write stay in this process, and the outputs
    are byte-identical for any number of workers."""
    manifest = _load_manifest(cfg)
    sidecar = _load_sidecar(cfg)
    scaler: ds.ScalerParams = sidecar["scaler"]
    assignment = sidecar["split_assignment"]
    test_entries = [e for e in manifest["trajectories"]
                    if assignment.get(e["label"]) == "test"]
    if not test_entries:
        raise ConfigError("test split is empty")
    test_trajs = _load_trajectories(cfg, test_entries)
    nets = {}
    for name, spec in cfg.observers.items():
        if spec.trainable:
            path = weights_path(cfg, name)
            if not os.path.exists(path):
                raise DataFormatError(
                    f"observer '{name}': missing weight file {path}; run 'train' first")
            nets[name] = load_weights(path).astype(COMPUTE_DTYPE)
    params = VehicleParams()

    any_windowed = any(s.type in ("lstm", "gru") for s in cfg.observers.values())
    skip = cfg.window_len - 1 if any_windowed else 0

    eval_dir = os.path.join(cfg.out_dir, "eval")
    os.makedirs(eval_dir, exist_ok=True)

    seg_of = {t.label: ev.segment_label(t, cfg.segments) for t in test_trajs}
    counts: dict[str, int] = {"overall": 0, "normal": 0, "near_limits": 0}
    for traj in test_trajs:
        counts["overall"] += len(traj) - skip
        counts[seg_of[traj.label]] += len(traj) - skip
    counts = {seg: n for seg, n in counts.items() if n > 0}

    tasks = [(name, i) for name in cfg.observers for i in range(len(test_trajs))]
    computed = iter(_map_tasks(_trace_task, tasks, cfg.workers,
                               shared=(cfg, test_trajs, nets, scaler, params)))
    traces: dict[str, dict[str, object]] = {name: {} for name in cfg.observers}
    table: dict[str, dict[str, np.ndarray]] = {}
    for name in cfg.observers:
        per_segment: dict[str, list] = {"overall": [], "normal": [], "near_limits": []}
        for traj in test_trajs:
            trace = next(computed)
            traces[name][traj.label] = trace
            err = ev.mae(trace, traj, skip_warmup=True, skip=skip)
            n_eff = len(trace) - skip
            per_segment["overall"].append((err, n_eff))
            per_segment[seg_of[traj.label]].append((err, n_eff))
        table[name] = {seg: ev.aggregate_mae(items)
                       for seg, items in per_segment.items() if items}

    report = ev.EvalReport(table, counts)
    ev.write_report_csv(report, os.path.join(eval_dir, "report.csv"))
    with open(os.path.join(eval_dir, "report.txt"), "w") as fh:
        fh.write(ev.format_report_text(report))
    _write_rankings(report, os.path.join(eval_dir, "ranking.csv"))
    _write_plot_data(cfg, report, test_trajs, seg_of, traces, skip, eval_dir)
    _write_distributions(test_trajs, seg_of, eval_dir)

    if write_traces:
        for name in cfg.observers:
            tdir = os.path.join(eval_dir, "traces", name)
            os.makedirs(tdir, exist_ok=True)
            for label, trace in traces[name].items():
                write_trace_csv(trace, os.path.join(
                    tdir, label.replace("#", "-") + ".csv"))
    return report


def _write_rankings(report: ev.EvalReport, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("segment,channel,first,second,last\n")
        for segment in ev.SEGMENTS:
            named = {n for n, segs in report.table.items() if segment in segs}
            if len(named) < 2:
                continue
            ranking = report.ranking(segment)
            for channel in ev.CHANNELS:
                spots = ranking[channel]
                fh.write(f"{segment},{channel},{spots['first']},"
                         f"{spots['second']},{spots['last']}\n")


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
    plot_dir = os.path.join(eval_dir, "plots")
    os.makedirs(plot_dir, exist_ok=True)
    for segment in ("normal", "near_limits"):
        candidates = [t for t in test_trajs if seg_of[t.label] == segment]
        if not candidates or len(cfg.observers) < 2 or segment not in report.table.get(ours, {}):
            continue
        rep = max(candidates,
                  key=lambda t: float(np.max(np.abs(t.truth[:, G_AY]))))
        ranking = report.ranking(segment)
        for ci, channel in enumerate(ev.CHANNELS):
            spots = ranking[channel]
            other = spots["second"] if spots["first"] == ours else spots["first"]
            ref = rep.state_channels()[skip:, ci]
            t = rep.sensors[skip:, 0]
            ours_est = traces[ours][rep.label].estimates[skip:, ci]
            other_est = traces[other][rep.label].estimates[skip:, ci]
            with open(os.path.join(plot_dir, f"{segment}_{channel}.csv"), "w") as fh:
                fh.write(f"t,ref,{ours},{other}\n")
                for row in zip(t, ref, ours_est, other_est):
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_distributions(test_trajs, seg_of, eval_dir) -> None:
    groups = {"all": test_trajs,
              "normal": [t for t in test_trajs if seg_of[t.label] == "normal"],
              "near_limits": [t for t in test_trajs if seg_of[t.label] == "near_limits"]}
    dists = {name: ev.accel_distribution(group) for name, group in groups.items() if group}
    with open(os.path.join(eval_dir, "accel_distribution.csv"), "w") as fh:
        fh.write("set,min,q25,median,q75,max\n")
        for name, q in dists.items():
            fh.write(f"{name},{q['min']!r},{q['q25']!r},{q['median']!r},"
                     f"{q['q75']!r},{q['max']!r}\n")
    with open(os.path.join(eval_dir, "accel_histogram.csv"), "w") as fh:
        fh.write("set,bin_lo,bin_hi,count\n")
        for name, q in dists.items():
            for lo, hi, c in zip(q["edges"][:-1], q["edges"][1:], q["counts"]):
                fh.write(f"{name},{float(lo)!r},{float(hi)!r},{int(c)}\n")
    counts, ax_edges, ay_edges = ev.friction_circle_hist(test_trajs)
    ax_centers = 0.5 * (ax_edges[:-1] + ax_edges[1:])
    ay_centers = 0.5 * (ay_edges[:-1] + ay_edges[1:])
    with open(os.path.join(eval_dir, "friction_circle.csv"), "w") as fh:
        fh.write("ax_center,ay_center,count\n")
        for i, axc in enumerate(ax_centers):
            for j, ayc in enumerate(ay_centers):
                fh.write(f"{float(axc)!r},{float(ayc)!r},{int(counts[i, j])}\n")


def render_report(out_dir: str) -> str:
    """Re-render the text tables and rankings from a stored report.csv."""
    path = os.path.join(out_dir, "eval", "report.csv")
    if not os.path.exists(path):
        raise DataFormatError(f"no evaluation report at {path}; run 'evaluate' first")
    report = ev.read_report_csv(path)
    text = ev.format_report_text(report)
    with open(os.path.join(out_dir, "eval", "report.txt"), "w") as fh:
        fh.write(text)
    _write_rankings(report, os.path.join(out_dir, "eval", "ranking.csv"))
    return text


def run_gradient_check(out_dir: str, corrupt: bool = False,
                       n_networks: int = 5) -> float:
    """Gradient verification on small randomized networks; writes the
    per-coordinate CSV and returns the worst relative error."""
    os.makedirs(out_dir, exist_ok=True)
    all_rows = []
    worst = 0.0
    group_worst: dict[str, float] = {}
    for seed in range(n_networks):
        net = lstm_observer_net(seed=seed, in_dim=5, hidden=(3, 4), dense=(4,),
                                out_dim=3, state_dim=3)
        rng = np.random.default_rng(derive_seed(seed, "gradcheck-data"))
        windows = rng.uniform(0, 1, (2, 5, 5))
        prev = rng.uniform(0, 1, (2, 3))
        targets = rng.uniform(0, 1, (2, 3))
        err, rows = gradient_check(net, windows, prev, targets,
                                   corrupt_forget_gate=corrupt)
        worst = max(worst, err)
        for coord, analytic, numeric, rel in rows:
            all_rows.append((f"net{seed}:{coord}", analytic, numeric, rel))
            group = coord.split("[")[0]
            group_worst[group] = max(group_worst.get(group, 0.0), rel)
    write_gradcheck_csv(all_rows, os.path.join(out_dir, "gradcheck.csv"))
    print("worst relative error per parameter group:")
    for group in sorted(group_worst, key=group_worst.get, reverse=True):
        print(f"  {group:12s} {group_worst[group]:.3e}")
    return worst
