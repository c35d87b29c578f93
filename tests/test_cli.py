import json
import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest
import yaml

import vobs
from vobs import pipeline
from vobs.cli import main
from vobs.neural import load_weights, save_weights

BASE_CONFIG = {
    "master_seed": 3,
    "corpus": [
        {"kind": "slalom", "intensity": 0.3, "count": 4, "duration_s": 16},
        {"kind": "step_steer", "intensity": 0.95, "count": 4, "duration_s": 16},
    ],
    "dataset": {"window_len": 50, "train_stride": 4, "val_stride": 8},
    "train": {"epochs": 1, "batch_size": 128},
    "observers": {
        "lstm": {"type": "lstm", "state_noise": True},
        "ekf": {"type": "ekf"},
    },
}


def _write_config(tmp_path, overrides=None, name="cfg.yaml"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["out_dir"] = str(tmp_path / "run")
    for key, value in (overrides or {}).items():
        doc[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full simulate/dataset/train pass shared by the read-only tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["dataset", "--config", cfg]) == 0
    assert main(["train", "--config", cfg]) == 0
    return tmp_path, cfg


@pytest.fixture
def run_copy(pipeline_run, tmp_path):
    """A private copy of the shared run, for tests that change or add files."""
    src_tmp, _ = pipeline_run
    shutil.copytree(src_tmp / "run", tmp_path / "run")
    return tmp_path, _write_config(tmp_path)


class _PoolRequested(Exception):
    """Raised by `_refuse_pool` with the requested worker count; `options`
    holds the pool's other arguments."""


def _refuse_pool(max_workers, **kwargs):
    """Stands in for ProcessPoolExecutor: records the request, starts nothing."""
    requested = _PoolRequested(max_workers)
    requested.options = kwargs
    raise requested


class TestSimulate:
    def test_manifest_totals(self, pipeline_run):
        tmp_path, _ = pipeline_run
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["totals"]["n_trajectories"] == 8
        # 16 s at 50 Hz = 800 frames each
        assert manifest["totals"]["n_frames"] == 8 * 800
        assert manifest["regimes"]["low_g"] and manifest["regimes"]["high_g"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        first = (tmp_path / "run" / "manifest.json").read_bytes()
        files = sorted((tmp_path / "run" / "trajectories").iterdir())
        first_traj = files[0].read_bytes()
        assert main(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "run" / "manifest.json").read_bytes() == first
        assert files[0].read_bytes() == first_traj

    def test_workers_flag_gives_same_output(self, tmp_path):
        cfg1 = _write_config(tmp_path, name="w1.yaml")
        assert main(["simulate", "--config", cfg1]) == 0
        serial = (tmp_path / "run" / "manifest.json").read_bytes()
        assert main(["simulate", "--config", cfg1, "--workers", "2"]) == 0
        assert (tmp_path / "run" / "manifest.json").read_bytes() == serial

    def test_pool_capped_at_job_count(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path)
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _refuse_pool)
        with pytest.raises(_PoolRequested) as requested:
            main(["simulate", "--config", cfg, "--workers", "64"])
        assert requested.value.args == (8,)  # 2 corpus blocks x 4 repeats


class TestDatasetCommand:
    def test_outputs_exist(self, pipeline_run):
        tmp_path, _ = pipeline_run
        ds_dir = tmp_path / "run" / "dataset"
        assert (ds_dir / "train.cache").exists()
        assert (ds_dir / "val.cache").exists()
        sidecar = json.loads((ds_dir / "dataset.json").read_text())
        assert sidecar["window_len"] == 50
        assert set(sidecar["split_assignment"].values()) == {"train", "val", "test"}


class TestTrainCommand:
    def test_weights_and_log_written(self, pipeline_run):
        tmp_path, _ = pipeline_run
        models = tmp_path / "run" / "models"
        assert (models / "lstm.weights").exists()
        log = (models / "lstm.trainlog.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,val_loss"
        assert len(log) == 2  # one epoch

    def test_unknown_observer_is_config_error(self, pipeline_run):
        _, cfg = pipeline_run
        assert main(["train", "--config", cfg, "--observer", "nope"]) == 1

    def test_ekf_is_not_trainable(self, pipeline_run):
        _, cfg = pipeline_run
        assert main(["train", "--config", cfg, "--observer", "ekf"]) == 1


class TestEvaluateCommand:
    def test_report_bundle_written(self, pipeline_run):
        tmp_path, cfg = pipeline_run
        assert main(["evaluate", "--config", cfg]) == 0
        eval_dir = tmp_path / "run" / "eval"
        for name in ("report.csv", "report.txt", "ranking.csv",
                     "accel_distribution.csv", "friction_circle.csv"):
            assert (eval_dir / name).exists(), name
        assert (eval_dir / "traces" / "lstm").is_dir()
        assert (eval_dir / "traces" / "ekf").is_dir()

    def test_missing_weights_names_observer(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["dataset", "--config", cfg]) == 0
        code = main(["evaluate", "--config", cfg])
        assert code == 3
        err = capsys.readouterr().err
        assert "lstm" in err and "weight" in err

    def test_rerun_report_is_byte_identical(self, pipeline_run):
        tmp_path, cfg = pipeline_run
        report = tmp_path / "run" / "eval" / "report.csv"
        assert main(["evaluate", "--config", cfg, "--no-traces"]) == 0
        first = report.read_bytes()
        assert main(["evaluate", "--config", cfg, "--no-traces"]) == 0
        assert report.read_bytes() == first

    def test_workers_flag_gives_same_output(self, run_copy):
        tmp_path, cfg = run_copy
        eval_dir = tmp_path / "run" / "eval"
        blas_env = os.environ.get("OPENBLAS_NUM_THREADS")

        def outputs():
            files = [eval_dir / "report.csv", *sorted((eval_dir / "traces").rglob("*.csv"))]
            return {f.relative_to(eval_dir).as_posix(): f.read_bytes() for f in files}

        assert main(["evaluate", "--config", cfg, "--workers", "1"]) == 0
        serial = outputs()
        shutil.rmtree(eval_dir)
        assert main(["evaluate", "--config", cfg, "--workers", "2"]) == 0
        assert len(serial) > 2  # the report and traces of both observers
        assert outputs() == serial
        assert os.environ.get("OPENBLAS_NUM_THREADS") == blas_env
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_worker_failure_keeps_numeric_exit(self, run_copy, workers, capsys):
        tmp_path, cfg = run_copy
        weights = tmp_path / "run" / "models" / "lstm.weights"
        net = load_weights(weights)
        net.cells[0].wx[0, 0] = np.nan
        save_weights(net, weights)
        assert main(["evaluate", "--config", cfg, "--workers", workers]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_pool_capped_at_task_count(self, run_copy, monkeypatch):
        tmp_path, cfg = run_copy
        sidecar = json.loads((tmp_path / "run" / "dataset" / "dataset.json").read_text())
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _refuse_pool)
        with pytest.raises(_PoolRequested) as requested:
            main(["evaluate", "--config", cfg, "--workers", "64"])
        n_observers = len(BASE_CONFIG["observers"])
        assert requested.value.args == (n_observers * sidecar["counts"]["test_trajectories"],)

    def test_worker_startup_data_is_small(self, run_copy, monkeypatch):
        # workers read trajectories and weights from the run directory; the
        # initializer's arguments stay far below a pipe buffer's worth
        _, cfg = run_copy
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _refuse_pool)
        with pytest.raises(_PoolRequested) as requested:
            main(["evaluate", "--config", cfg, "--workers", "2"])
        assert len(pickle.dumps(requested.value.options["initargs"])) < 64 * 1024

    def test_unguarded_script_exits_instead_of_hanging(self, run_copy):
        tmp_path, cfg = run_copy
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import sys\n"
            "from vobs.cli import main\n"
            f"sys.exit(main(['evaluate', '--config', {cfg!r}, '--workers', '2']))\n")
        src = os.path.dirname(os.path.dirname(vobs.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("evaluate hung after its workers died at start-up")
        assert proc.returncode == 1, err
        assert 'if __name__ == "__main__":' in err

    def test_report_command_rerenders(self, pipeline_run):
        tmp_path, cfg = pipeline_run
        assert main(["evaluate", "--config", cfg]) == 0
        text_before = (tmp_path / "run" / "eval" / "report.txt").read_text()
        (tmp_path / "run" / "eval" / "report.txt").unlink()
        assert main(["report", "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "eval" / "report.txt").read_text() == text_before


class TestGradcheckCommand:
    def test_passes_and_writes_csv(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--out", str(out)]) == 0
        header = (out / "gradcheck.csv").read_text().splitlines()[0]
        assert header == "coordinate,analytic,numeric,rel_error"

    def test_corrupt_flag_fails_with_numeric_exit(self, tmp_path):
        assert main(["gradcheck", "--out", str(tmp_path), "--corrupt"]) == 2


class TestExitCodes:
    def test_missing_config_file_is_io_error(self):
        assert main(["simulate", "--config", "/nonexistent/cfg.yaml"]) == 3

    def test_invalid_config_value(self, tmp_path):
        cfg = _write_config(tmp_path, overrides={
            "corpus": [{"kind": "warp_drive", "intensity": 0.5}]})
        assert main(["simulate", "--config", cfg]) == 1

    def test_bad_flag_usage(self, capsys):
        assert main(["simulate"]) == 1  # --config required

    @pytest.mark.parametrize("value", [0, -2, "two", 2.5, True])
    def test_invalid_workers_is_config_error(self, tmp_path, value, capsys):
        cfg = _write_config(tmp_path, overrides={"workers": value})
        assert main(["simulate", "--config", cfg]) == 1
        assert "workers" in capsys.readouterr().err

    def test_zero_workers_flag_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--workers", "0"]) == 1
        assert "workers" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        base = (tmp_path / "run" / "manifest.json").read_text()
        assert main(["simulate", "--config", cfg, "--seed", "99"]) == 0
        assert (tmp_path / "run" / "manifest.json").read_text() != base


class TestCorruptStageMetadata:
    """A corrupt manifest or sidecar is a data error (exit 3) naming the file."""

    def test_corrupt_manifest(self, run_copy, capsys):
        tmp_path, cfg = run_copy
        manifest = tmp_path / "run" / "manifest.json"
        manifest.write_text(manifest.read_text()[:40])
        assert main(["dataset", "--config", cfg]) == 3
        assert "manifest.json" in capsys.readouterr().err

    def test_sidecar_without_scaler(self, run_copy, capsys):
        tmp_path, cfg = run_copy
        sidecar = tmp_path / "run" / "dataset" / "dataset.json"
        doc = json.loads(sidecar.read_text())
        del doc["scaler"]
        sidecar.write_text(json.dumps(doc))
        assert main(["train", "--config", cfg]) == 3
        assert "dataset.json" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, name, key, value", [
        ("dataset", "manifest.json", "trajectories", None),
        ("evaluate", "manifest.json", "file", None),
        ("train", "dataset/dataset.json", "counts", None),
        ("evaluate", "dataset/dataset.json", "split_assignment", None),
        ("evaluate", "dataset/dataset.json", "split_assignment", []),
    ])
    def test_missing_or_mistyped_key(self, run_copy, capsys, stage, name, key, value):
        tmp_path, cfg = run_copy
        path = tmp_path / "run" / name
        doc = json.loads(path.read_text())
        if key == "file":
            del doc["trajectories"][0]["file"]
        elif value is None:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        assert main([stage, "--config", cfg]) == 3
        assert os.path.basename(name) in capsys.readouterr().err


class TestMalformedReport:
    """A malformed report.csv is a data error (exit 3) naming file and line."""

    HEADER = "observer,segment,channel,mae,unit,n_samples\n"
    GOOD = "ekf,overall,vx,0.25,m/s,5\n"

    @pytest.mark.parametrize("text, line", [
        ("observer,segment,channel,mae,unit\n" + GOOD, 1),
        (HEADER + GOOD + "lstm,overall,vx,0.5,m/s\n", 3),
        (HEADER + GOOD + "lstm,overall,vx,abc,m/s,5\n", 3),
        (HEADER + GOOD + "lstm,overall,vz,0.5,m/s,5\n", 3),
    ], ids=["bad_header", "field_count", "non_numeric", "unknown_channel"])
    def test_malformed_report_exits_3(self, tmp_path, capsys, text, line):
        eval_dir = tmp_path / "run" / "eval"
        eval_dir.mkdir(parents=True)
        (eval_dir / "report.csv").write_text(text)
        assert main(["report", "--out", str(tmp_path / "run")]) == 3
        assert f"report.csv:{line}:" in capsys.readouterr().err


class TestEnvDefaultRoot:
    def test_out_root_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VOBS_OUT", str(tmp_path / "envroot"))
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["observers"]["lstm"]  # keep it cheap: EKF only
        doc["corpus"] = [{"kind": "slalom", "intensity": 0.3, "count": 3,
                          "duration_s": 10}]
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(path)]) == 0
        assert (tmp_path / "envroot" / "seed3" / "manifest.json").exists()
