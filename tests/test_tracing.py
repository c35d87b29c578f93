import os
import subprocess
import sys

import vobs

SRC = os.path.dirname(os.path.dirname(vobs.__file__))
PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")


def test_benchmark_tracer_installs():
    # the benchmark's tracer wraps vobs functions by name; a rename or
    # deletion in src/ must fail here, not only in the slow benchmark suite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, PERFBENCH]))
    done = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_features_records_layer_spans():
    # evaluate's per-layer timing is the tracer's forward_seq spans inside
    # features; if the inference pass stopped calling forward_seq, the
    # benchmark's layer metrics would read 0 without any other failure
    script = "\n".join([
        "import numpy as np, tracing",
        "tracer = tracing.Tracer()",
        "tracing.install(tracer)",
        "from vobs.neural import build_net",
        "net = build_net('lstm', 0, 5, (3, 4), (4,), 3, 3)",
        "net.features(np.zeros((5, 7, 5)))",
        "spans = tracer.summary()",
        "print(spans['neural.layers.lstm0.forward_seq']['calls'],",
        "      spans['neural.layers.lstm1.forward_seq']['calls'],",
        "      spans['neural.network.features']['calls'])",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, PERFBENCH]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1", "1"]


def test_trajectory_io_records_one_span_per_file(tmp_path):
    # the benchmark's trajectory write and read spans are the functions
    # simulate and dataset call for each trajectory file; if either stage
    # stopped calling them through `pipeline`, its I/O metrics would read 0
    config = tmp_path / "cfg.yaml"
    config.write_text("\n".join([
        f"out_dir: {tmp_path / 'run'}",
        "corpus:",
        "  - {kind: slalom, intensity: 0.5, count: 3, duration_s: 4}",
        "  - {kind: double_lane_change, intensity: 0.9, count: 3, duration_s: 4}",
        "dataset: {window_len: 20}",
        "observers: {ekf: {type: ekf}}",
    ]) + "\n")
    script = "\n".join([
        "import tracing",
        "tracer = tracing.Tracer()",
        "tracing.install(tracer)",
        "from vobs.cli import main",
        f"assert main(['simulate', '--config', {str(config)!r}]) == 0",
        f"assert main(['dataset', '--config', {str(config)!r}]) == 0",
        "spans = tracer.summary()",
        "for name in ('domain.write_trajectory_csv', 'domain.read_trajectory_csv'):",
        "    print(spans[name]['calls'], spans[name]['mb'] > 0)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, PERFBENCH]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-3:] == ["6 True", "6 True", ""]


def test_benchmark_output_checks_pass_on_a_tiny_run(tmp_path):
    # the benchmark's own dataset and train checks, on the bench config's
    # tiny corpus: `check_dataset` reads each cache by path alone through
    # `read_cache`, and `check_train` loads each weight file by path alone
    script = "\n".join([
        "import json, sys",
        "from pathlib import Path",
        "import run",
        "from vobs.cli import main",
        "out = Path(sys.argv[1])",
        "config = out.with_suffix('.yaml')",
        "config.write_text(json.dumps(dict(run.bench_config('tiny', 1), out_dir=str(out),",
        "                                  workers=1)))",
        "for stage in ('simulate', 'dataset', 'train'):",
        "    assert main([stage, '--config', str(config)]) == 0, stage",
        "ref = json.loads((run.HERE / 'reference.json').read_text())['tiny']",
        "print(json.dumps([run.check_dataset(out, ref), run.check_train(out, ref)]))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, PERFBENCH]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[[], []]"
