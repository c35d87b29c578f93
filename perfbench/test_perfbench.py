"""Self-tests of the benchmark at a tiny size.

Run from the root of a source checkout:

    python3 -m pytest perfbench -q

They run every workload untraced and traced on the "tiny" corpus (about two
minutes on two cores) and check the benchmark's own contract: metric names,
every metric present, every layer traced, spans nested consistently, output
checks that catch bad outputs, and a refusal to run outside a checkout.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))  # the output checks read artifacts with vobs itself

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
LAYERS = ("pipeline", "simulator", "domain", "dataset", "neural.layers", "neural.network",
          "neural.adam", "neural.weights_io", "observer_lstm", "baselines", "evaluation")


def bench(workload: str, trace: int, cwd: Path = run.ROOT, size: str = "tiny"):
    """Run the benchmark; returns (exit code, stdout lines, record or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(Path(line[len("record: "):]).read_text())
                   for line in lines if line.startswith("record: ")), None)
    return proc.returncode, lines, record


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def untraced(request):
    return request.param, bench(request.param, 0)


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in sorted(run.WORKLOADS)}


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.LAYER_METRICS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_untraced_run_reports_every_end_to_end_metric(untraced):
    workload, (code, lines, record) = untraced
    result = json.loads(lines[-1])
    assert code == 0, record["problems"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _, _ in run.END_TO_END}
    for name, unit, _ in run.END_TO_END:
        value = result["metrics"][name]["value"]
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(value) and value > 0, (workload, name)
    prov = record["provenance"]
    for key in ("seed", "commit", "nproc", "cpu_model", "python", "numpy", "blas",
                "blas_threads", "workers"):
        assert key in prov
    assert all("load_start" in r and "load_end" in r for r in record["runs"])


def test_traced_runs_cover_every_layer(traced):
    moved = set()
    for workload, (code, lines, record) in traced.items():
        result = json.loads(lines[-1])
        assert code == 0 and result["correct"], record["problems"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert set(metrics) == {name for name, _, _ in tracing.LAYER_METRICS}
        assert all(NAME.fullmatch(k) for k in metrics)
        assert metrics["trace.coverage"] >= 0.9, workload
        assert metrics["trace.overhead_ratio"] > 0
        moved |= {k for k, v in metrics.items() if v > 0}
    for layer in LAYERS:
        assert any(k.startswith(layer + ".") for k in moved), layer


def test_layers_move_only_on_their_workloads(traced):
    def value(workload, name):
        return json.loads(traced[workload][1][-1])["metrics"][name]["value"]

    assert value("simulate_corpus", "simulator.run_maneuver.calls") == 30
    assert value("train_observers", "simulator.run_maneuver.calls") == 0
    assert value("evaluate_test_split", "simulator.run_maneuver.calls") == 0
    assert value("train_observers", "neural.layers.lstm3.backward_seq.s") > 0
    assert value("evaluate_test_split", "neural.layers.lstm3.backward_seq.s") == 0
    assert value("simulate_corpus", "neural.layers.lstm0.forward_seq.s") == 0
    assert value("evaluate_test_split", "baselines.ekf_update.calls") > 0
    assert value("train_observers", "baselines.ekf_update.calls") == 0
    assert value("train_observers", "neural.adam.step.calls") > 0
    assert value("evaluate_test_split", "neural.adam.step.calls") == 0


def test_spans_nest_inside_their_parents(traced):
    for code, lines, record in traced.values():
        run_record = record["runs"][-1]
        assert run_record["span_check"]["child_outside_parent"] == 0
        assert run_record["span_check"]["negative_self"] == 0
        for entry in run_record["spans"].values():
            assert entry["self_s"] >= -1e-9 and entry["self_s"] <= entry["s"] + 1e-9


def test_tracer_self_time_and_consistency_check():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["s"] - summary["inner"]["s"], abs=1e-12)
    assert tracer.check() == {"spans": 3, "child_outside_parent": 0, "negative_self": 0}
    tracer.spans[1][2] = tracer.spans[0][2] + 1.0  # a child that outlives its parent
    assert tracer.check()["child_outside_parent"] == 1
    assert tracer.check()["negative_self"] == 1


def test_output_checks_catch_bad_outputs(tmp_path):
    ref = json.loads((run.HERE / "reference.json").read_text())["tiny"]
    (tmp_path / "eval").mkdir()
    rows = ["observer,segment,channel,mae,unit,n_samples"]
    rows += [f"{o},{s},{c},0.5,m/s,{ref['n_samples'][s]}"
             for o in run.OBSERVERS for s in ref["n_samples"] for c in ("vx", "vy", "yaw_rate")]
    (tmp_path / "eval" / "report.csv").write_text("\n".join(rows) + "\n")
    assert run.check_evaluate(tmp_path, ref) == []
    rows[1] = rows[1].replace(",0.5,", ",nan,")
    rows[2] = rows[2].rsplit(",", 1)[0] + ",7"
    (tmp_path / "eval" / "report.csv").write_text("\n".join(rows[:-1]) + "\n")
    problems = run.check_evaluate(tmp_path, ref)
    assert any("non-finite" in p for p in problems)
    assert any("n_samples 7" in p for p in problems)
    assert any("missing" in p for p in problems)

    (tmp_path / "models").mkdir()
    for name in run.TRAINED:
        (tmp_path / "models" / f"{name}.weights").write_text("vobs-weights 1\n")
        (tmp_path / "models" / f"{name}.trainlog.csv").write_text(
            "epoch,train_loss,val_loss\n1,inf,0.1\n")
    problems = run.check_train(tmp_path, ref)
    assert sum("does not load" in p for p in problems) == 3
    assert sum("bad row" in p for p in problems) == 3

    manifest = {"totals": {"n_trajectories": 29, "n_frames": ref["n_frames"]},
                "regimes": ref["regimes"],
                "trajectories": [{"label": label, "peak_ay_g": peak + 0.01}
                                 for label, peak in ref["peak_ay_g"].items()]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    problems = run.check_simulate(tmp_path, ref)
    assert any("totals" in p for p in problems)
    assert sum("peak_ay_g" in p for p in problems) == len(ref["peak_ay_g"])


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, record = bench("simulate_corpus", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
