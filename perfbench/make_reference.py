"""Regenerate perfbench/reference.json, the expected outputs the benchmark
checks against: corpus totals and regimes, each trajectory's peak lateral
acceleration, dataset window counts and the test samples per report segment.

Usage (from the root of a source checkout):

    python3 perfbench/make_reference.py

Run it only when the benchmark's corpus changes, on a commit whose simulator
is trusted. It builds the corpus for two workload seeds and refuses to write
unless they agree, since the ground truth must not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run

TEST_SKIP = 49  # window_len - 1 warm-up samples are not scored


def expected(size: str, seed: int) -> dict:
    from vobs.cli import main as vobs_main
    work = run.WORK_ROOT / f"reference-{size}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.yaml"
    config.write_text(json.dumps(run.bench_config(size, seed)))
    for stage in ("simulate", "dataset"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = vobs_main([stage, "--config", str(config), "--out", str(work)])
        if code != 0:
            sys.exit(f"{stage} failed with exit code {code}")
    manifest = json.loads((work / "manifest.json").read_text())
    sidecar = json.loads((work / "dataset" / "dataset.json").read_text())
    shutil.rmtree(work)

    n_samples = {"overall": 0}
    for entry in manifest["trajectories"]:
        if sidecar["split_assignment"][entry["label"]] == "test":
            segment = "near_limits" if entry["peak_ay_g"] >= 0.5 else "normal"
            n = entry["n_frames"] - TEST_SKIP
            n_samples["overall"] += n
            n_samples[segment] = n_samples.get(segment, 0) + n
    return {
        "n_trajectories": manifest["totals"]["n_trajectories"],
        "n_frames": manifest["totals"]["n_frames"],
        "regimes": manifest["regimes"],
        "peak_ay_g": {e["label"]: e["peak_ay_g"] for e in manifest["trajectories"]},
        "peak_ay_g_tolerance": 1e-4,
        "windows": sidecar["counts"],
        "n_samples": n_samples,
    }


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for size in run.DURATIONS_S:
        first, second = expected(size, 1), expected(size, 2)
        if first != second:
            sys.exit(f"{size}: ground truth depends on the workload seed")
        reference[size] = first
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
