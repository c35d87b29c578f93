"""Stage benchmark for vobs.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload simulate_corpus --seed 1 --seconds 16 --trace 0

Each workload times one group of pipeline stages exactly as users run them:
``vobs.cli.main`` in a fresh interpreter per timed run, on a corpus with the
reference config's shape. Every command's outputs are checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from a separate traced run with ``--trace 1``). A full record with
provenance, per-run timings and the span summary is written under
``.perfbench_runs/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_runs"

DEADLINE_S = 170.0   # the whole invocation must end within 180 s
MIN_SETUPS = 3       # set-ups per invocation, at least; setup_s is their median
SETUP_SHARE = 0.25   # more set-ups while they take under this share of --seconds
MIN_REPS = 2         # timed runs per invocation, so determinism is checked
EPOCHS = 1
SENSOR_NOISE = {"ax": 0.05, "ay": 0.05, "yaw_rate": 0.002,
                "wheel_speed": 0.03, "steering": 0.001}
OBSERVERS = {"lstm": {"type": "lstm", "state_noise": True},
             "lstm_plain": {"type": "lstm", "state_noise": False},
             "gru": {"type": "gru"},
             "ekf": {"type": "ekf"}}
TRAINED = ("lstm", "lstm_plain", "gru")

# The reference config's ten corpus blocks (kind, intensity) with shortened
# durations in seconds: every maneuver kind, both regimes, three repeats per
# block (one per split). "tiny" exists only for the self-tests.
BLOCKS = (("city_mix", 0.30), ("slalom", 0.35), ("slalom", 0.95),
          ("double_lane_change", 0.40), ("double_lane_change", 0.90),
          ("u_turn", 0.35), ("step_steer", 0.50), ("step_steer", 1.00),
          ("constant_radius_ramp", 0.80), ("constant_radius_ramp", 1.00))
DURATIONS_S = {"full": (8, 5, 5, 5, 5, 5, 5, 5, 5, 5),
               "tiny": (3,) * 10}

# stage -> (files digested for the determinism check, relative to the run dir)
DIGESTED = {
    "simulate": ["manifest.json"],
    "dataset": ["dataset/train.cache", "dataset/val.cache"],
    "train": [f"models/{n}.weights" for n in TRAINED]
             + [f"models/{n}.trainlog.csv" for n in TRAINED],
    "evaluate": ["eval/report.csv"],
}

# workload -> (set-up commands, timed commands, commands run afterwards for
# the accuracy metrics). The simulate_corpus set-up only validates the config.
WORKLOADS = {
    "simulate_corpus": ((), ("simulate", "dataset"), ("train", "evaluate")),
    "train_observers": (("simulate", "dataset"), ("train",), ("evaluate",)),
    "evaluate_test_split": (("simulate", "dataset", "train"), ("evaluate",), ()),
}

MAE_METRICS = (("vy", "lstm"), ("vy", "lstm_plain"), ("vy", "gru"), ("vy", "ekf"),
               ("vx", "lstm"), ("yaw_rate", "lstm"))
END_TO_END = (
    [("setup_s", "s", "lower"), ("wall_s", "s", "lower"),
     ("samples_per_s", "1/s", "higher"), ("peak_rss_mb", "MB", "lower")]
    + [(f"val_loss.{n}", "scaled_mse", "lower") for n in TRAINED]
    + [(f"mae_{ch}.{n}", "mrad/s" if ch == "yaw_rate" else "m/s", "lower")
       for ch, n in MAE_METRICS])
UNITS = {name: unit for name, unit, _ in END_TO_END}


def bench_config(size: str, seed: int) -> dict:
    """The run config for one workload seed.

    The master seed stays at the reference config's value, so the scripted
    ground truth, the split and the network initialisation are the same for
    every workload seed; the seed draws each sensor channel's noise level
    (within 10% of the reference) and bias (a quarter of that level, normal).
    """
    rng = random.Random(seed)
    noise = {}
    for channel, std in SENSOR_NOISE.items():
        noise[f"std_{channel}"] = std * rng.uniform(0.9, 1.1)
        noise[f"bias_{channel}"] = rng.gauss(0.0, 0.25 * std)
    return {
        "master_seed": 1,
        "workers": 2,
        "corpus": [{"kind": kind, "intensity": intensity, "count": 3, "duration_s": d}
                   for (kind, intensity), d in zip(BLOCKS, DURATIONS_S[size])],
        "sensor_noise": noise,
        "split": {"train": 0.6, "val": 0.2, "test": 0.2},
        "dataset": {"window_len": 50, "train_stride": 5, "val_stride": 10},
        "state_noise": {"std_v_mps": 0.03, "std_yaw_rate_radps": 0.003},
        "train": {"epochs": EPOCHS, "batch_size": 256, "learning_rate": 0.001,
                  "shuffle": True},
        "observers": OBSERVERS,
        "evaluation": {"normal_threshold_g": 0.5, "near_limits_max_g": 0.8},
    }


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------

def check_simulate(run_dir: Path, ref: dict) -> list[str]:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    problems = []
    totals = manifest["totals"]
    if totals != {"n_trajectories": ref["n_trajectories"], "n_frames": ref["n_frames"]}:
        problems.append(f"manifest totals {totals}")
    if manifest["regimes"] != ref["regimes"]:
        problems.append(f"manifest regimes {manifest['regimes']}")
    peaks = {e["label"]: e["peak_ay_g"] for e in manifest["trajectories"]}
    if set(peaks) != set(ref["peak_ay_g"]):
        problems.append("manifest trajectory labels differ from the reference")
    for label, peak in sorted(peaks.items()):
        want = ref["peak_ay_g"].get(label)
        if want is not None and abs(peak - want) > ref["peak_ay_g_tolerance"]:
            problems.append(f"{label}: peak_ay_g {peak!r}, reference {want!r}")
    return problems


def check_dataset(run_dir: Path, ref: dict) -> list[str]:
    from vobs.dataset import read_cache
    sidecar = json.loads((run_dir / "dataset" / "dataset.json").read_text())
    problems = []
    if sidecar["counts"] != ref["windows"]:
        problems.append(f"dataset counts {sidecar['counts']}, expected {ref['windows']}")
    for split in ("train", "val"):
        n = len(read_cache(run_dir / "dataset" / f"{split}.cache"))
        if n != ref["windows"][split]:
            problems.append(f"{split}.cache holds {n} windows")
    return problems


def check_train(run_dir: Path, ref: dict) -> list[str]:
    from vobs.neural import load_weights
    problems = []
    for name in TRAINED:
        try:
            load_weights(run_dir / "models" / f"{name}.weights")
        except Exception as exc:  # any failure to read back is the finding
            problems.append(f"{name}.weights does not load: {exc}")
        rows = (run_dir / "models" / f"{name}.trainlog.csv").read_text().split()
        if rows[0] != "epoch,train_loss,val_loss" or len(rows) != EPOCHS + 1:
            problems.append(f"{name}.trainlog.csv: expected one row per epoch")
            continue
        for epoch, row in enumerate(rows[1:], start=1):
            fields = row.split(",")
            if int(fields[0]) != epoch or not all(math.isfinite(float(v)) for v in fields[1:]):
                problems.append(f"{name}.trainlog.csv: bad row {row!r}")
    return problems


def check_evaluate(run_dir: Path, ref: dict) -> list[str]:
    rows = (run_dir / "eval" / "report.csv").read_text().split()
    problems = []
    if rows[0] != "observer,segment,channel,mae,unit,n_samples":
        return ["report.csv: bad header"]
    seen = set()
    for row in rows[1:]:
        observer, segment, channel, value, _, n = row.split(",")
        seen.add((observer, segment, channel))
        if not math.isfinite(float(value)):
            problems.append(f"report.csv: non-finite MAE in {row!r}")
        if int(n) != ref["n_samples"].get(segment):
            problems.append(f"report.csv: {segment} has n_samples {n}, "
                            f"expected {ref['n_samples'].get(segment)}")
    want = {(o, s, c) for o in OBSERVERS for s in ref["n_samples"]
            for c in ("vx", "vy", "yaw_rate")}
    if seen != want:
        problems.append(f"report.csv rows: missing {sorted(want - seen)}, "
                        f"unexpected {sorted(seen - want)}")
    return problems


CHECKS = {"simulate": check_simulate, "dataset": check_dataset,
          "train": check_train, "evaluate": check_evaluate}


def digest(run_dir: Path, stage: str) -> str:
    h = hashlib.sha256()
    for rel in DIGESTED[stage]:
        h.update(rel.encode())
        h.update((run_dir / rel).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Running stage commands
# ---------------------------------------------------------------------------

def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def load_average() -> float:
    return os.getloadavg()[0]


class Bench:
    """One benchmark invocation: runs commands, checks, counts failures."""

    def __init__(self, size: str, seed: int, work: Path, ref: dict):
        self.work = work
        self.ref = ref
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.records: list[dict] = []   # per timed run, for the result record
        self.config_path = work / "config.yaml"
        self.config_text = json.dumps(bench_config(size, seed), indent=1)  # YAML superset
        self._n = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def invoke(self, stages, run_dir: Path, trace=False, workers=None,
               validate=False) -> dict | None:
        """Run ``stages`` in order in one fresh interpreter; check and digest
        the outputs of each. Returns the child's report plus its wall time,
        or None when any command failed."""
        self._n += 1
        run_dir.mkdir(parents=True, exist_ok=True)
        extra = ["--workers", str(workers)] if workers else []
        commands = [[s, "--config", str(self.config_path), "--out", str(run_dir)] + extra
                    for s in stages]
        spec_path = self.work / f"spec{self._n}.json"
        report_path = self.work / f"report{self._n}.json"
        spec_path.write_text(json.dumps({
            "commands": commands, "trace": trace, "report": str(report_path),
            "validate_config": str(self.config_path) if validate else None}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        attempted = len(commands) + (1 if validate else 0)
        self.attempted += attempted
        load_start = load_average()
        with open(self.work / f"stdout{self._n}.log", "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "stage.py"), str(spec_path)],
                                    stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env,
                                    start_new_session=True)
            # a timer enforces the deadline, because Popen.wait(timeout=...)
            # polls and would round every wall time up to 50 ms steps
            timer = threading.Timer(max(self.remaining(), 1.0), kill_group, (proc.pid,))
            timer.start()
            try:
                proc.wait()
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                kill_group(proc.pid)  # pool workers left behind by a failed command
        if not report_path.exists():
            tail = (self.work / f"stdout{self._n}.log").read_text()[-2000:]
            self.failed += attempted
            self.problems.append(f"{' '.join(stages) or 'config check'}: interpreter "
                                 f"exited with {proc.returncode} and no report:\n{tail}")
            return None
        report = json.loads(report_path.read_text())
        report.update(wall_s=wall, load_start=load_start, load_end=load_average())
        done = [c for c in report["commands"] if c["exit_code"] == 0]
        if report["error"] or len(done) != len(commands):
            self.failed += attempted - len(done)
            last = report["commands"][-1] if report["commands"] else None
            self.problems.append(
                f"{' '.join(stages) or 'config check'}: "
                + (report["error"] or f"exit code {last['exit_code']} from {last['argv'][0]}"))
            return None
        ok = True
        for stage in stages:
            try:
                problems = CHECKS[stage](run_dir, self.ref)
                value = digest(run_dir, stage)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems, value = [f"unreadable output: {exc!r}"], None
            first = self.digests.setdefault(stage, value)
            if value != first:
                problems.append(f"digest {value} differs from the first run's {first}")
            if problems:
                self.fail(f"{stage}: " + "; ".join(problems))
                ok = False
        return report if ok else None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def accuracy_metrics(run_dir: Path) -> dict[str, float]:
    out = {}
    for name in TRAINED:
        rows = (run_dir / "models" / f"{name}.trainlog.csv").read_text().split()[1:]
        out[f"val_loss.{name}"] = min(float(r.split(",")[2]) for r in rows)
    for row in (run_dir / "eval" / "report.csv").read_text().split()[1:]:
        observer, segment, channel, value, _, _ = row.split(",")
        if segment == "overall" and (channel, observer) in MAE_METRICS:
            out[f"mae_{channel}.{observer}"] = float(value)
    return out


def work_done(workload: str, run_dir: Path) -> float:
    """Samples behind samples_per_s (see README): corpus samples simulated;
    training windows x epochs x trained observers; scored test samples x
    observers."""
    if workload == "simulate_corpus":
        return json.loads((run_dir / "manifest.json").read_text())["totals"]["n_frames"]
    if workload == "train_observers":
        counts = json.loads((run_dir / "dataset" / "dataset.json").read_text())["counts"]
        return counts["train"] * EPOCHS * len(TRAINED)
    rows = (run_dir / "eval" / "report.csv").read_text().split()[1:]
    return sum(int(r.split(",")[5]) for r in rows
               if r.split(",")[1:3] == ["overall", "vx"])


def provenance(seed: int, workers: int) -> dict:
    import numpy
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            loose = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if loose.exists():
                commit = loose.read_text().strip()
            elif packed.exists():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + ref[5:])), ref)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed, "commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                       "OpenBLAS default (one per core)"),
        "workers": workers,
    }


def run_untraced(bench: Bench, workload: str, seconds: float) -> dict[str, float]:
    """Set-ups, timed runs and accuracy commands, interleaved so that the
    timed runs spread over the whole invocation: this machine's speed drifts
    over tens of seconds, and spreading the samples averages the drift.
    Cheap set-ups are repeated before more timed runs, for a steadier
    median."""
    setup, timed, post = WORKLOADS[workload]
    setup_times, reps, post_left = [], [], list(post)
    post_dir = None

    def set_up(i: int) -> bool:
        t0 = time.perf_counter()
        bench.config_path.write_text(bench.config_text)
        if bench.invoke(setup, bench.work / f"setup{i}", validate=not setup) is None:
            return False
        setup_times.append(time.perf_counter() - t0)
        return True

    def timed_s() -> float:
        return sum(r["wall_s"] for r in reps)

    while len(reps) < MIN_REPS or timed_s() < seconds:
        i = len(reps)
        if reps and bench.remaining() < 3 * max(r["wall_s"] for r in reps):
            break  # keep time for the remaining set-ups and accuracy commands
        cheap = setup_times and sum(setup_times) + setup_times[-1] <= SETUP_SHARE * seconds
        if (len(setup_times) < MIN_SETUPS or cheap) and not set_up(len(setup_times)):
            return {}
        run_dir = bench.work / (f"setup{i % len(setup_times)}" if setup else f"rep{i}")
        report = bench.invoke(timed, run_dir)
        if report is None:
            return {}
        reps.append(report)
        bench.records.append({k: report[k] for k in
                              ("wall_s", "peak_rss_mb", "load_start", "load_end")})
        done = len(post) - len(post_left)
        if post_left and timed_s() >= seconds * (done + 1) / (len(post) + 1):
            post_dir = post_dir or run_dir
            if bench.invoke([post_left.pop(0)], post_dir) is None:
                return {}
    while len(setup_times) < MIN_SETUPS:
        if not set_up(len(setup_times)):
            return {}
    post_dir = post_dir or run_dir
    if post_left and bench.invoke(post_left, post_dir) is None:
        return {}

    wall = statistics.median(r["wall_s"] for r in reps)
    metrics = {"setup_s": statistics.median(setup_times), "wall_s": wall,
               "samples_per_s": work_done(workload, post_dir) / wall,
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}
    metrics.update(accuracy_metrics(post_dir))
    return metrics


def run_traced(bench: Bench, workload: str, seconds: float) -> dict[str, float]:
    """One set-up, then pairs of timed runs, one untraced and one traced,
    until the traced runs total ``seconds``. Both use workers 1, so every
    traced call happens in one process. Per-layer values are medians over
    the traced runs; the overhead is the ratio of the two median walls."""
    setup, timed, _ = WORKLOADS[workload]
    bench.config_path.write_text(bench.config_text)
    if bench.invoke(setup, bench.work / "setup0", validate=not setup) is None:
        return {}
    plain, traced = [], []
    while not traced or sum(r["wall_s"] for r in traced) < seconds:
        if traced and bench.remaining() < 3 * max(r["wall_s"] for r in traced):
            break
        for runs, trace in ((plain, False), (traced, True)):
            run_dir = bench.work / ("setup0" if setup else f"rep{len(plain) + len(traced)}")
            report = bench.invoke(timed, run_dir, workers=1, trace=trace)
            if report is None:
                return {}
            runs.append(report)
        check = traced[-1]["span_check"]
        if check["child_outside_parent"] or check["negative_self"]:
            bench.fail(f"inconsistent trace: {check}")
            return {}
        bench.records.append({"untraced_wall_s": plain[-1]["wall_s"],
                              "traced_wall_s": traced[-1]["wall_s"],
                              "span_check": check, "spans": traced[-1]["spans"]})
    per_run = [tracing.layer_metrics(r["spans"]) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                       / statistics.median(r["wall_s"] for r in plain))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum total time of the timed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(DURATIONS_S), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running stage command is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "vobs" / "cli.py").is_file():
        print(f"error: no vobs sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = json.loads((HERE / "reference.json").read_text())[args.size]

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.size, args.seed, work, ref)
    record = {"workload": args.workload, "size": args.size, "trace": args.trace,
              "provenance": provenance(args.seed, 1 if args.trace else 2),
              "load_start": load_average()}
    try:
        if args.trace:
            metrics = run_traced(bench, args.workload, args.seconds)
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        else:
            metrics = run_untraced(bench, args.workload, args.seconds)
            units = UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(load_end=load_average(), runs=bench.records, digests=bench.digests,
                  problems=bench.problems, metrics=metrics)
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{work.name}-{int(time.time())}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    correct = bench.failed == 0 and not bench.problems and set(metrics) == set(units)
    for problem in bench.problems:
        print(f"FAILED: {problem}")
    for name in units:
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"provenance: {json.dumps(record['provenance'])}")
    print(f"record: {out}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
