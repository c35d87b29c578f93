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
