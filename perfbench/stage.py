"""Run vobs stage commands in this (fresh) interpreter and report on them.

Usage: python3 perfbench/stage.py <spec.json>

The spec names the commands (argument lists for ``vobs.cli.main``, which
is found on PYTHONPATH), a config to validate first if any, whether to trace,
and where to write the report. The report holds each command's exit code and
wall time, any exception, the process's peak resident memory and, when
traced, the span summary. Command output goes to this process's stdout,
which the benchmark redirects to a log file.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    tracer = None
    report = {"commands": [], "error": None}
    try:
        if spec.get("trace"):
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        if spec.get("validate_config"):
            from vobs.config import load_config
            load_config(spec["validate_config"])
        from vobs.cli import main as vobs_main
        for argv in spec["commands"]:
            t0 = time.perf_counter()
            code = vobs_main(argv)
            report["commands"].append(
                {"argv": argv, "exit_code": code, "s": time.perf_counter() - t0})
            sys.stdout.flush()
            if code != 0:
                break
    except Exception:  # reported to the benchmark, which counts it as a failure
        report["error"] = traceback.format_exc()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["span_check"] = tracer.check()
    tmp = spec["report"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh)
    os.replace(tmp, spec["report"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
