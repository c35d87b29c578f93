import argparse
import ast
import ctypes
import dataclasses
import glob
import json
import multiprocessing
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest
import yaml

import vobs
from vobs import pipeline, pool
from vobs.cli import build_parser, main
from vobs.baselines import EkfConfig
from vobs.artifacts import read_csv, write_csv
from vobs.config import EKF_OVERRIDE_KEYS, build_config, load_config
from vobs.dataset import read_cache, write_cache
from vobs.errors import ConfigError, NumericalError
from vobs.domain import TRAJECTORY_COLUMNS, read_trajectory_csv
from vobs.neural import RecurrentRegressor, build_net, load_weights, save_weights
from vobs.observer_lstm import TRACE_COLUMNS, observer_net
from vobs.simulator import SensorNoiseSpec

from test_dataset import _v1_cache
from test_domain import _npy

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


# two trainable observers, so that train with more than one worker forks
TWO_TRAINABLE = {
    "lstm": {"type": "lstm", "state_noise": True},
    "lstm_plain": {"type": "lstm", "state_noise": False},
}


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


def _subprocess_env(**overrides):
    """This environment with the tested vobs package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(vobs.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **overrides)


class _PoolRequested(Exception):
    """Raised by `_refuse_pool` with the requested worker count."""


def _refuse_pool(max_workers, **kwargs):
    """Stands in for ProcessPoolExecutor: records the request, starts nothing."""
    raise _PoolRequested(max_workers)


def _openblas_get_num_threads():
    """numpy's bundled OpenBLAS thread-count getter, or None without one."""
    libs = os.path.dirname(os.path.abspath(np.__file__)) + ".libs"
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        return get
    return None


def _blas_threads(_task):
    return _openblas_get_num_threads()()


def _file_bytes(run):
    """The bytes of every file under `run`, by path relative to it."""
    return {p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()}


class TestSimulate:
    def test_manifest_totals(self, pipeline_run):
        tmp_path, _ = pipeline_run
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["totals"]["n_trajectories"] == 8
        # 16 s at 50 Hz = 800 frames each
        assert manifest["totals"]["n_frames"] == 8 * 800
        assert manifest["regimes"]["low_g"] and manifest["regimes"]["high_g"]

    def test_regimes_follow_the_configured_threshold(self, pipeline_run, tmp_path):
        src_tmp, _ = pipeline_run
        manifest = json.loads((src_tmp / "run" / "manifest.json").read_text())
        peak = max(e["peak_ay_g"] for e in manifest["trajectories"])
        cfg = _write_config(tmp_path, overrides={"evaluation": {
            "normal_threshold_g": peak + 0.1, "near_limits_max_g": peak + 0.2}})
        assert main(["simulate", "--config", cfg, "--workers", "2"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["regimes"] == {"low_g": True, "high_g": False}

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        first = _file_bytes(tmp_path / "run")
        assert len(first) == 9  # the manifest and 8 trajectories
        assert main(["simulate", "--config", cfg]) == 0
        assert _file_bytes(tmp_path / "run") == first

    def test_workers_flag_gives_same_output(self, tmp_path):
        cfg1 = _write_config(tmp_path, name="w1.yaml")
        assert main(["simulate", "--config", cfg1]) == 0
        serial = _file_bytes(tmp_path / "run")
        assert len(serial) == 9  # the manifest and 8 trajectories
        assert main(["simulate", "--config", cfg1, "--workers", "2"]) == 0
        assert _file_bytes(tmp_path / "run") == serial

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_maneuver_writes_nothing(self, run_copy, monkeypatch, capsys, workers):
        # outputs are written only after every maneuver ran: a corpus with a
        # third block, whose last maneuver fails, leaves the run as it was
        tmp_path, _ = run_copy
        cfg = _write_config(tmp_path, overrides={"corpus": BASE_CONFIG["corpus"] + [
            {"kind": "slalom", "intensity": 0.6, "count": 2, "duration_s": 16}]})
        before = _file_bytes(tmp_path / "run")
        victim = pipeline._corpus_jobs(load_config(cfg))[-1][4].seed
        run_maneuver = pipeline.run_maneuver

        def failing(script, noise):
            if noise.seed == victim:
                raise NumericalError("integration diverged")
            return run_maneuver(script, noise)

        monkeypatch.setattr(pipeline, "run_maneuver", failing)
        assert main(["simulate", "--config", cfg, "--workers", workers]) == 2
        assert "numerical failure: integration diverged" in capsys.readouterr().err
        assert _file_bytes(tmp_path / "run") == before
        assert multiprocessing.active_children() == []

    def test_pool_capped_at_job_count(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path)
        monkeypatch.setattr(pool, "ProcessPoolExecutor", _refuse_pool)
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

    def test_output_independent_of_blas_threads(self, pipeline_run, tmp_path):
        # every train and val batch has an odd width, which fills no BLAS
        # kernel block evenly, where a split across threads could change the
        # last bits of a product; --workers 2 trains each observer in a
        # forked worker with one BLAS thread
        src_tmp, _ = pipeline_run
        batch = 101
        counts = json.loads((src_tmp / "run" / "dataset" / "dataset.json").read_text())["counts"]
        widths = [min(batch, counts[split] - lo) for split in ("train", "val")
                  for lo in range(0, counts[split], batch)]
        assert all(width % 2 for width in widths), widths
        models = {}
        for threads, workers in (("1", "1"), ("2", "1"), ("2", "2")):
            run = tmp_path / f"run{threads}{workers}"
            shutil.copytree(src_tmp / "run", run)
            shutil.rmtree(run / "models")
            doc = json.loads(json.dumps(BASE_CONFIG))
            doc["out_dir"] = str(run)
            doc["train"]["batch_size"] = batch
            doc["observers"] = TWO_TRAINABLE
            cfg = tmp_path / f"cfg{threads}{workers}.yaml"
            cfg.write_text(yaml.safe_dump(doc))
            subprocess.run([sys.executable, "-m", "vobs.cli", "train", "--config", str(cfg),
                            "--workers", workers],
                           env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
                           check=True, capture_output=True, timeout=300)
            models[threads, workers] = {p.name: p.read_bytes()
                                        for p in (run / "models").iterdir()}
        assert sorted(models["1", "1"]) == ["lstm.trainlog.csv", "lstm.weights",
                                            "lstm_plain.trainlog.csv", "lstm_plain.weights"]
        assert models["1", "1"] == models["2", "1"] == models["2", "2"]

    def test_one_observer_trains_in_this_process(self, run_copy, monkeypatch):
        tmp_path, _ = run_copy
        cfg = _write_config(tmp_path, {"observers": TWO_TRAINABLE})
        monkeypatch.setattr(pool, "ProcessPoolExecutor", _refuse_pool)
        assert main(["train", "--config", cfg, "--observer", "lstm_plain",
                     "--workers", "2"]) == 0
        assert (tmp_path / "run" / "models" / "lstm_plain.weights").exists()

    def test_pool_capped_at_observer_count(self, run_copy, monkeypatch):
        tmp_path, _ = run_copy
        cfg = _write_config(tmp_path, {"observers": {**TWO_TRAINABLE, "ekf": {"type": "ekf"}}})
        monkeypatch.setattr(pool, "ProcessPoolExecutor", _refuse_pool)
        with pytest.raises(_PoolRequested) as requested:
            main(["train", "--config", cfg, "--workers", "64"])
        assert requested.value.args == (len(TWO_TRAINABLE),)


def _eval_outputs(eval_dir):
    """Bytes of the report and of every trace under `eval_dir`, by relative path."""
    files = [eval_dir / "report.csv", *sorted((eval_dir / "traces").rglob("*.csv"))]
    return {f.relative_to(eval_dir).as_posix(): f.read_bytes() for f in files}


class TestEvaluateCommand:
    def test_report_bundle_written(self, run_copy):
        tmp_path, _ = run_copy
        run = tmp_path / "run"
        # an untrained GRU, so that every observer type writes traces
        save_weights(observer_net("gru", 0), run / "models" / "gru.weights")
        cfg = _write_config(tmp_path, name="three.yaml", overrides={"observers": {
            **BASE_CONFIG["observers"], "gru": {"type": "gru"}}})
        assert main(["evaluate", "--config", cfg]) == 0
        eval_dir = run / "eval"
        for name in ("report.csv", "report.txt", "ranking.csv",
                     "accel_distribution.csv", "friction_circle.csv"):
            assert (eval_dir / name).exists(), name
        manifest = json.loads((run / "manifest.json").read_text())
        split = json.loads((run / "dataset" / "dataset.json").read_text())["split_assignment"]
        test_files = [e["file"] for e in manifest["trajectories"]
                      if split[e["label"]] == "test"]
        assert test_files
        for observer in ("lstm", "gru", "ekf"):
            traces = eval_dir / "traces" / observer
            assert sorted(p.name for p in traces.iterdir()) == sorted(
                pathlib.Path(f).stem + ".csv" for f in test_files)
            for f in test_files:
                t_s = read_trajectory_csv(run / f).sensors[:, 0]
                trace = np.array(read_csv(traces / (pathlib.Path(f).stem + ".csv"),
                                          TRACE_COLUMNS), dtype=np.float64)
                assert trace.shape == (len(t_s), 4)
                np.testing.assert_array_equal(trace[:, 0], t_s)

    def test_missing_weights_names_observer(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["dataset", "--config", cfg]) == 0
        code = main(["evaluate", "--config", cfg])
        assert code == 3
        err = capsys.readouterr().err
        assert "lstm" in err and "weight" in err

    def test_rerun_report_is_byte_identical(self, run_copy):
        tmp_path, cfg = run_copy
        eval_dir = tmp_path / "run" / "eval"

        assert main(["evaluate", "--config", cfg]) == 0
        first = _eval_outputs(eval_dir)
        assert len(first) > 1  # the traces are written too
        assert main(["evaluate", "--config", cfg]) == 0
        assert _eval_outputs(eval_dir) == first

    def test_workers_flag_gives_same_output(self, run_copy):
        tmp_path, cfg = run_copy
        eval_dir = tmp_path / "run" / "eval"
        blas_env = os.environ.get("OPENBLAS_NUM_THREADS")

        assert main(["evaluate", "--config", cfg, "--workers", "1"]) == 0
        serial = _eval_outputs(eval_dir)
        shutil.rmtree(eval_dir)
        assert main(["evaluate", "--config", cfg, "--workers", "2"]) == 0
        assert len(serial) > 2  # the report and traces of both observers
        assert _eval_outputs(eval_dir) == serial
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

    @pytest.mark.parametrize("observer_type, net", [
        # a GRU file evaluated as the LSTM observer
        ("lstm", lambda: observer_net("gru", 0)),
        # the trained LSTM file evaluated as a GRU observer
        ("gru", None),
        # an LSTM file without the state input the closed loop feeds
        ("lstm", lambda: build_net("lstm", 0, 5, (4,), (4,), 3, 0)),
        # windows carry 5 sensor channels, and traces 3 state channels
        ("lstm", lambda: build_net("lstm", 0, 4, (4,), (4,), 3, 3)),
        ("gru", lambda: build_net("gru", 0, 5, (4,), (4,), 2, 0)),
    ], ids=["gru_as_lstm", "lstm_as_gru", "lstm_without_state", "lstm_over_4_inputs",
            "gru_with_2_outputs"])
    def test_weights_that_do_not_fit_the_observer_refused(self, run_copy, capsys,
                                                          observer_type, net):
        tmp_path, _ = run_copy
        shutil.rmtree(tmp_path / "run" / "eval", ignore_errors=True)
        weights = tmp_path / "run" / "models" / "lstm.weights"
        if net is not None:
            save_weights(net(), weights)
        cfg = _write_config(tmp_path, name="swapped.yaml", overrides={"observers": {
            "lstm": {"type": observer_type}, "ekf": {"type": "ekf"}}})
        assert main(["evaluate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "observer 'lstm'" in err and str(weights) in err
        assert not (tmp_path / "run" / "eval").exists()

    def test_corpus_changed_after_dataset_refused(self, run_copy, capsys):
        # it used to score the test trajectories whose labels survived
        tmp_path, _ = run_copy
        corpus = json.loads(json.dumps(BASE_CONFIG["corpus"]))
        corpus[0]["intensity"] = 0.31
        cfg = _write_config(tmp_path, {"corpus": corpus})
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'run' / 'manifest.json'} and " \
               f"{tmp_path / 'run' / 'dataset' / 'dataset.json'}" in err
        assert "rerun 'dataset'" in err

    @pytest.mark.parametrize("change", ["resimulate", "sidecar_without_hashes"])
    def test_trajectories_changed_after_dataset_refused(self, run_copy, capsys, change):
        # same labels, new sensor noise: it used to score them with the old
        # scaler and models
        tmp_path, cfg = run_copy
        run = tmp_path / "run"
        shutil.rmtree(run / "eval", ignore_errors=True)
        sidecar = run / "dataset" / "dataset.json"
        if change == "resimulate":
            cfg = _write_config(tmp_path, {"sensor_noise": {
                "std_ax": 3 * SensorNoiseSpec().std_ax}})
            assert main(["simulate", "--config", cfg]) == 0
        else:
            doc = json.loads(sidecar.read_text())
            del doc["trajectory_sha256"]
            sidecar.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"{run / 'trajectories'}" in err and str(sidecar) in err
        assert "rerun 'dataset'" in err
        assert not (run / "eval").exists()

    def test_pool_capped_at_task_count(self, run_copy, monkeypatch):
        tmp_path, cfg = run_copy
        sidecar = json.loads((tmp_path / "run" / "dataset" / "dataset.json").read_text())
        monkeypatch.setattr(pool, "ProcessPoolExecutor", _refuse_pool)
        with pytest.raises(_PoolRequested) as requested:
            main(["evaluate", "--config", cfg, "--workers", "64"])
        n_observers = len(BASE_CONFIG["observers"])
        assert requested.value.args == (n_observers * sidecar["counts"]["test_trajectories"],)

    def test_unguarded_script_runs_parallel_evaluate(self, run_copy):
        # forked workers do not import the calling script, so it needs no
        # 'if __name__ == "__main__":' guard
        tmp_path, cfg = run_copy
        report = tmp_path / "run" / "eval" / "report.csv"
        assert main(["evaluate", "--config", cfg, "--workers", "1"]) == 0
        serial = report.read_bytes()
        shutil.rmtree(tmp_path / "run" / "eval")
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import sys\n"
            "from vobs.cli import main\n"
            f"sys.exit(main(['evaluate', '--config', {cfg!r}, '--workers', '2']))\n")
        proc = subprocess.Popen([sys.executable, str(script)], env=_subprocess_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("an unguarded script's parallel evaluate hung")
        assert proc.returncode == 0, err
        assert report.read_bytes() == serial

    def test_report_command_rerenders(self, pipeline_run):
        tmp_path, cfg = pipeline_run
        assert main(["evaluate", "--config", cfg]) == 0
        text_before = (tmp_path / "run" / "eval" / "report.txt").read_text()
        (tmp_path / "run" / "eval" / "report.txt").unlink()
        assert main(["report", "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "eval" / "report.txt").read_text() == text_before


class TestWorkerPool:
    @pytest.mark.parametrize("stage, victim", [("simulate", "run_maneuver"),
                                               ("train", "train_observer"),
                                               ("evaluate", "run_ekf")])
    def test_dead_worker_exits_1(self, run_copy, monkeypatch, capsys, stage, victim):
        # forked workers inherit the patch, so each one dies at its first such task
        tmp_path, cfg = run_copy
        if stage == "train":  # one trainable observer would train in this process
            cfg = _write_config(tmp_path, {"observers": TWO_TRAINABLE})
        monkeypatch.setattr(pipeline, victim, lambda *args, **kwargs: os._exit(1))
        assert main([stage, "--config", cfg, "--workers", "2"]) == 1
        assert "worker process died" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_workers_run_one_blas_thread(self):
        get_threads = _openblas_get_num_threads()
        if get_threads is None:
            pytest.skip("numpy has no bundled OpenBLAS exposing its thread count")
        before = get_threads()
        assert pool.map_tasks(_blas_threads, [0, 1], 2) == [1, 1]
        assert get_threads() == before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("diverge", [False, True])
    def test_pooled_train_leaves_no_state_behind(self, run_copy, monkeypatch, capsys,
                                                 diverge):
        tmp_path, _ = run_copy
        cfg = _write_config(tmp_path, {"observers": TWO_TRAINABLE})
        get_threads = _openblas_get_num_threads()
        blas_before = get_threads() if get_threads else None
        threads_before = threading.active_count()
        calls = tmp_path / "calls.txt"
        original = RecurrentRegressor.loss_and_gradients

        def spy(self, *args):
            # the forked workers' appends reach this process through the file
            with open(calls, "a") as fh:
                fh.write(f"{os.getpid()} {get_threads() if get_threads else 1}\n")
            loss, grads = original(self, *args)
            return (float("nan") if diverge else loss), grads

        monkeypatch.setattr(RecurrentRegressor, "loss_and_gradients", spy)
        code = main(["train", "--config", cfg, "--workers", "2"])
        assert code == (2 if diverge else 0)
        if diverge:
            assert "training diverged" in capsys.readouterr().err
        # every loss was computed in a forked worker, with OpenBLAS at one thread
        records = [line.split() for line in calls.read_text().splitlines()]
        assert records and all(int(pid) != os.getpid() and n == "1" for pid, n in records)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads_before
        assert (get_threads() if get_threads else None) == blas_before

    def test_pool_that_fails_to_start_restores_state(self, monkeypatch):
        get_threads = _openblas_get_num_threads()
        before = get_threads() if get_threads else None
        monkeypatch.setattr(pool, "ProcessPoolExecutor", _refuse_pool)
        with pytest.raises(_PoolRequested):
            pool.map_tasks(_blas_threads, [0, 1], 2)
        assert pool._job is None
        assert (get_threads() if get_threads else None) == before


class TestCsvDialect:
    def test_every_csv_of_a_run_is_plain(self, run_copy):
        # no quotes, no "\r", and each reads back under its own header line
        tmp_path, cfg = run_copy
        run = tmp_path / "run"
        assert main(["evaluate", "--config", cfg]) == 0
        texts = {p.relative_to(run): p.read_bytes().decode() for p in run.rglob("*.csv")}
        assert {p.parts[0] for p in texts} == {"models", "eval"}  # trajectories are .npy
        assert [str(p) for p, text in texts.items() if '"' in text or "\r" in text] == []
        for path, text in texts.items():
            rows = read_csv(run / path, text.split("\n", 1)[0].split(","))
            assert len(rows) == text.count("\n") - 1


class TestExitCodes:
    def test_missing_config_file_is_io_error(self):
        assert main(["simulate", "--config", "/nonexistent/cfg.yaml"]) == 3

    def test_invalid_config_value(self, tmp_path):
        cfg = _write_config(tmp_path, overrides={
            "corpus": [{"kind": "warp_drive", "intensity": 0.5}]})
        assert main(["simulate", "--config", cfg]) == 1

    def test_bad_flag_usage(self, capsys):
        assert main(["simulate"]) == 1  # --config required

    def test_removed_no_traces_flag_is_usage_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["evaluate", "--config", cfg, "--no-traces"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: vobs evaluate ")
        assert "unrecognized arguments: --no-traces" in err

    def test_repeated_top_level_key_is_config_error(self, tmp_path, capsys):
        # YAML kept the last value, so this config ran with 1 worker
        cfg = _write_config(tmp_path, overrides={"workers": 2})
        with open(cfg, "a") as fh:
            fh.write("workers: 1\n")
        line = len(pathlib.Path(cfg).read_text().splitlines())
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: invalid YAML (found duplicate key 'workers'" in err
        assert f"line {line}," in err
        assert not (tmp_path / "run").exists()

    def test_repeated_observer_name_is_config_error(self, tmp_path, capsys):
        # YAML kept the last of the two 'gru' entries
        cfg = _write_config(tmp_path)
        doc = yaml.safe_load(pathlib.Path(cfg).read_text())
        del doc["observers"]
        pathlib.Path(cfg).write_text(yaml.safe_dump(doc) + "observers:\n"
                                     "  gru: {type: gru}\n"
                                     "  ekf: {type: ekf}\n"
                                     "  gru: {type: gru}\n")
        line = len(pathlib.Path(cfg).read_text().splitlines())
        assert main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: invalid YAML (found duplicate key 'gru'" in err
        assert f"line {line}," in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [0, -2, "two", 2.5, True])
    def test_invalid_workers_is_config_error(self, tmp_path, value, capsys):
        cfg = _write_config(tmp_path, overrides={"workers": value})
        assert main(["simulate", "--config", cfg]) == 1
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("window_len", 0), ("train_stride", -3),
                                           ("val_stride", 0)])
    def test_nonpositive_window_key_is_config_error(self, tmp_path, key, value, capsys):
        cfg = _write_config(tmp_path, overrides={
            "dataset": dict(BASE_CONFIG["dataset"], **{key: value})})
        assert main(["simulate", "--config", cfg]) == 1
        assert f"dataset.{key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, value, message", [
        # each split sums to 1, and used to split every stratum 1/1/1
        ("split", {"train": 1.2, "val": -0.1, "test": -0.1}, "split.val must be >= 0"),
        ("split", {"train": -0.2, "val": 0.6, "test": 0.6}, "split.train must be >= 0"),
        ("split", {"train": 0.7, "val": 0.4, "test": -0.1}, "split.test must be >= 0"),
        # a negative rate trains uphill
        ("train", dict(BASE_CONFIG["train"], learning_rate=0), "learning_rate must be > 0"),
        ("train", dict(BASE_CONFIG["train"], learning_rate=-0.001),
         "learning_rate must be > 0"),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, section, value,
                                                message):
        cfg = _write_config(tmp_path, overrides={section: value})
        assert main(["simulate", "--config", cfg]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"state_noise": {"std_v_mps": -1}}, "state_noise: noise stds must be >= 0"),
        ({"corpus": [BASE_CONFIG["corpus"][0], {"kind": "slalom", "intensity": 1.5}]},
         "corpus entry 1: intensity must be in (0, 1], got 1.5"),
        ({"corpus": [{"kind": "slalom", "intensity": 0.3, "count": 0}]},
         "corpus entry 0: count must be >= 1, got 0"),
        ({"sensor_noise": {"std_ay": -0.1}}, "sensor_noise: std_ay must be >= 0"),
        ({"train": {"batch_size": 0}}, "train: batch_size must be >= 1, got 0"),
        ({"evaluation": {"normal_threshold_g": 0.9}},
         "evaluation: need 0 < normal threshold < near-limits max"),
        ({"split": {"train": 0.5, "val": 0.2, "test": 0.2}},
         "split: split fractions must sum to 1"),
    ], ids=["state_noise", "corpus_intensity", "corpus_count", "sensor_noise", "train",
            "evaluation", "split"])
    def test_range_error_names_file_and_section(self, tmp_path, capsys, overrides, message):
        cfg = _write_config(tmp_path, overrides=overrides)
        assert main(["simulate", "--config", cfg]) == 1
        assert f"error: {cfg}: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_epochs_flag_named_when_it_set_the_value(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, overrides={"train": {"epochs": 0, "batch_size": 128}})
        assert load_config(cfg, epochs=2).train.epochs == 2  # the flag wins, as before
        assert main(["train", "--config", cfg, "--epochs", "0"]) == 1
        assert "error: --epochs: epochs must be >= 1, got 0\n" in capsys.readouterr().err
        cfg = _write_config(tmp_path, overrides={"train": {"batch_size": 0}})
        assert main(["train", "--config", cfg, "--epochs", "2"]) == 1
        assert f"error: {cfg}: train: batch_size must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("frames", [50, 49])
    def test_corpus_entry_must_hold_one_window(self, tmp_path, capsys, frames):
        # window_len 50: a 50-frame trajectory is one window through every
        # stage; a 49-frame one is refused at config load, before simulate
        cfg = _write_config(tmp_path, overrides={"corpus": [
            {"kind": "slalom", "intensity": 0.3, "count": 4, "duration_s": 4},
            {"kind": "step_steer", "intensity": 0.95, "count": 4,
             "duration_s": frames * 0.02}]})
        stages = ("simulate", "dataset", "train", "evaluate")
        if frames == 50:
            for stage in stages:
                assert main([stage, "--config", cfg]) == 0, stage
            return
        for stage in stages:
            assert main([stage, "--config", cfg]) == 1, stage
            err = capsys.readouterr().err
            assert "corpus[1].duration_s" in err and "dataset.window_len" in err
            assert "49 frames" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("corpus", [
        # intensities 0.351 and 0.349 both print as slalom@0.35
        [{"kind": "slalom", "intensity": 0.351, "count": 3, "duration_s": 2},
         {"kind": "slalom", "intensity": 0.349, "count": 3, "duration_s": 3}],
        [{"kind": "step_steer", "intensity": 0.5, "count": 2},
         {"kind": "slalom", "intensity": 0.3, "count": 2},
         {"kind": "step_steer", "intensity": 0.5, "count": 2}],
    ], ids=["near_duplicate", "exact_duplicate"])
    def test_corpus_labels_must_differ(self, tmp_path, capsys, corpus):
        # entries that share a label would share sensor seeds, trajectory
        # files and a split stratum
        cfg = _write_config(tmp_path, overrides={"corpus": corpus})
        assert main(["simulate", "--config", cfg]) == 1
        label = f"{corpus[0]['kind']}@{corpus[0]['intensity']:.2f}"
        assert f"corpus[0] and corpus[{len(corpus) - 1}] share the label '{label}'" \
            in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [5, ["run"], ""], ids=["int", "list", "empty"])
    def test_out_dir_must_be_a_nonempty_string(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)  # where a relative out_dir would land
        cfg = _write_config(tmp_path, overrides={"out_dir": value})
        assert main(["simulate", "--config", cfg]) == 1
        assert f"out_dir must be a non-empty string, got {value!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    @pytest.mark.parametrize("file_out_dir", [True, False], ids=["file_out_dir", "default"])
    def test_empty_out_flag_is_config_error(self, tmp_path, capsys, monkeypatch,
                                            file_out_dir):
        # an empty --out used to fall back to the file's out_dir or runs/seed<N>
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("VOBS_OUT", raising=False)
        cfg = _write_config(tmp_path)
        if not file_out_dir:
            doc = yaml.safe_load(pathlib.Path(cfg).read_text())
            del doc["out_dir"]
            pathlib.Path(cfg).write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", cfg, "--out", ""]) == 1
        assert "--out must be a non-empty path" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    @pytest.mark.parametrize("command", ["simulate", "train", "evaluate"])
    def test_empty_observers_is_config_error(self, tmp_path, capsys, command):
        # train used to exit 0 having trained nothing, and evaluate to die
        # after writing part of the report
        cfg = _write_config(tmp_path, overrides={"observers": {}})
        assert main([command, "--config", cfg]) == 1
        assert "observers must be a non-empty mapping" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_default_duration_counts_against_window_len(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, overrides={
            "corpus": [{"kind": "step_steer", "intensity": 0.5}],
            "dataset": {"window_len": 1501}})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "corpus[0].duration_s (unset, so the step_steer default)" in err
        assert "1500 frames" in err

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


class TestUnknownConfigKeys:
    """A key no section knows is a config error (exit 1) naming section and key."""

    @pytest.mark.parametrize("section, key, edit", [
        ("the top level", "master_sed", lambda d: d.update(master_sed=1)),
        ("corpus entry 1", "repeats", lambda d: d["corpus"][1].update(repeats=2)),
        ("sensor_noise", "std_axx", lambda d: d.update(sensor_noise={"std_axx": 0.1})),
        ("split", "tset", lambda d: d.update(split={"tset": 0.2})),
        ("dataset", "window", lambda d: d["dataset"].update(window=20)),
        ("state_noise", "std_v", lambda d: d.update(state_noise={"std_v": 0.1})),
        ("train", "epoch", lambda d: d["train"].update(epoch=1)),
        ("observer 'ekf'", "Q", lambda d: d["observers"]["ekf"].update(Q=[1, 1, 1])),
        ("evaluation", "normal_g", lambda d: d.update(evaluation={"normal_g": 0.4})),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, section, key, edit):
        doc = json.loads(json.dumps(BASE_CONFIG))
        edit(doc)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(path)]) == 1
        assert f"unknown key '{key}' in {section}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unconvertible_value_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["train"]["epochs"] = "many"
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(path)]) == 1
        assert "train.epochs must be int, got 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, edit", [
        ("corpus entry 0.count", lambda d: d["corpus"][0].update(count=2.7)),
        ("corpus entry 0.count", lambda d: d["corpus"][0].update(count=True)),
        ("dataset.window_len", lambda d: d["dataset"].update(window_len=50.9)),
        ("train.epochs", lambda d: d["train"].update(epochs=1.5)),
        ("train.shuffle", lambda d: d["train"].update(shuffle="false")),
        ("train.learning_rate", lambda d: d["train"].update(learning_rate=float("nan"))),
        ("split.train", lambda d: d.update(split={"train": float("nan")})),
        ("master_seed", lambda d: d.update(master_seed=2.9)),
        ("observers.lstm.state_noise",
         lambda d: d["observers"]["lstm"].update(state_noise="no")),
    ])
    def test_value_of_another_type_rejected(self, tmp_path, capsys, key, edit):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["out_dir"] = str(tmp_path / "run")
        edit(doc)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(path)]) == 1
        assert f"{path}: {key} must be " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_every_documented_key_accepted(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = load_config(os.path.join(root, "configs", "reference.yaml"))
        assert cfg.segments.near_limits_max_g == 0.8
        ekf = {"type": "ekf", "q": [0.1, 0.1, 0.1], "r": [1e-3, 1e-5, 1e-2],
               "p0": [1, 1, 1], "cornering_stiffness_front": 6e4,
               "cornering_stiffness_rear": 7e4}
        doc = dict(BASE_CONFIG, observers={"ekf": ekf})
        assert build_config(doc).observers["ekf"].ekf == EkfConfig(
            q=(0.1, 0.1, 0.1), r=(1e-3, 1e-5, 1e-2), p0=(1.0, 1.0, 1.0),
            cornering_stiffness_front=6e4, cornering_stiffness_rear=7e4)

    def test_reference_documents_every_ekf_key(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        text = pathlib.Path(root, "configs", "reference.yaml").read_text()
        assert [key for key in EKF_OVERRIDE_KEYS if f"\n  #   {key}: " not in text] == []


class TestMissingRequiredKey:
    """A missing required key is a config error that names the file first,
    like every other config error."""

    @pytest.mark.parametrize("key, section, edit", [
        ("type", "observer 'e'", lambda d: d.update(observers={"e": {}})),
        ("kind", "corpus entry 0", lambda d: d["corpus"][0].pop("kind")),
        ("intensity", "corpus entry 0", lambda d: d["corpus"][0].pop("intensity")),
        ("observers", "the config", lambda d: d.pop("observers")),
    ], ids=["observer_type", "corpus_kind", "corpus_intensity", "observers"])
    def test_message_names_the_file(self, key, section, edit):
        doc = json.loads(json.dumps(BASE_CONFIG))
        edit(doc)
        with pytest.raises(ConfigError) as err:
            build_config(doc, where="cfg.yaml")
        assert str(err.value) == f"cfg.yaml: missing '{key}' in {section}"


class TestObserverValidation:
    """Observer names and EKF overrides are checked at config load (exit 1)."""

    @pytest.mark.parametrize("ekf, key", [
        ({"q": "abc"}, "q"),
        ({"q": 5}, "q"),
        ({"r": [1e-3, 0, 1e-2]}, "r"),
        ({"cornering_stiffness_front": 6e4}, "cornering_stiffness_front"),
    ], ids=["q_text", "q_number", "r_zero_entry", "front_stiffness_alone"])
    def test_bad_ekf_override_rejected(self, tmp_path, capsys, ekf, key):
        cfg = _write_config(tmp_path, overrides={"observers": {"ekf": {"type": "ekf", **ekf}}})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "observer 'ekf'" in err and key in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["../../escape", "a,b", ".", "..", "a b", "", "x/y"],
                             ids=["escape", "comma", "dot", "dotdot", "space", "empty", "slash"])
    def test_bad_observer_name_rejected(self, tmp_path, capsys, name):
        cfg = _write_config(tmp_path, overrides={"observers": {name: {"type": "ekf"}}})
        assert main(["simulate", "--config", cfg]) == 1
        assert f"observer name {name!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_name_alphabet_accepted(self):
        doc = dict(BASE_CONFIG, observers={"Lstm_v2.1-a": {"type": "ekf"}})
        assert list(build_config(doc).observers) == ["Lstm_v2.1-a"]

    @pytest.mark.parametrize("spec, key", [
        ({"type": "gru", "q": [1, 1, 1]}, "q"),
        ({"type": "gru", "state_noise": False}, "state_noise"),
        ({"type": "lstm", "cornering_stiffness_front": 6e4,
          "cornering_stiffness_rear": 7e4}, "cornering_stiffness_front"),
        ({"type": "ekf", "state_noise": True}, "state_noise"),
    ], ids=["gru_q", "gru_state_noise", "lstm_stiffness", "ekf_state_noise"])
    def test_key_of_another_type_rejected(self, tmp_path, capsys, spec, key):
        cfg = _write_config(tmp_path, overrides={"observers": {"obs": spec}})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"key '{key}' in observer 'obs' does not apply to type '{spec['type']}'" in err
        assert not (tmp_path / "run").exists()

    def test_shipped_observer_sets_load(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        reference = load_config(os.path.join(root, "configs", "reference.yaml"))
        assert list(reference.observers) == ["lstm", "lstm_plain", "gru", "ekf"]
        # the benchmark's observer set, read from its source without importing it
        tree = ast.parse(pathlib.Path(root, "perfbench", "run.py").read_text())
        bench = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and getattr(node.targets[0], "id", None) == "OBSERVERS")
        doc = dict(BASE_CONFIG, observers=bench)
        assert list(build_config(doc).observers) == list(bench)


class TestPickOurs:
    """The observer the plots show against the runner-up: `lstm` when it is
    an LSTM, else the first noise-injected LSTM, else the first observer."""

    @pytest.mark.parametrize("observers, ours", [
        ({"ekf": {"type": "ekf"}, "plain": {"type": "lstm", "state_noise": False},
          "noisy": {"type": "lstm"}}, "noisy"),
        ({"gru": {"type": "gru"}, "plain": {"type": "lstm", "state_noise": False}}, "gru"),
        ({"ekf": {"type": "ekf"}, "lstm": {"type": "gru"}}, "ekf"),
    ], ids=["noisy_lstm", "first_without_noisy_lstm", "lstm_name_of_another_type"])
    def test_fallbacks(self, observers, ours):
        cfg = build_config(dict(BASE_CONFIG, observers=observers))
        assert pipeline._pick_ours(cfg) == ours


class TestEkfConfig:
    """Each configured EKF override reaches the `EkfConfig` that config load
    builds."""

    def _ekf_config(self, **overrides):
        doc = dict(BASE_CONFIG, observers={"ekf": {"type": "ekf", **overrides}})
        return build_config(doc).observers["ekf"].ekf

    def test_fields_are_the_config_keys(self):
        assert {f.name for f in dataclasses.fields(EkfConfig)} == set(EKF_OVERRIDE_KEYS)

    @pytest.mark.parametrize("key", ["q", "r", "p0"])
    def test_noise_override_lands_in_its_own_field(self, key):
        cfg = self._ekf_config(**{key: [1, 0.2, 0.3]})
        assert cfg == dataclasses.replace(EkfConfig(), **{key: (1.0, 0.2, 0.3)})
        assert all(type(v) is float for v in getattr(cfg, key))

    def test_stiffness_pair_used_when_given(self):
        cfg = self._ekf_config(cornering_stiffness_front=60000,
                               cornering_stiffness_rear=7e4, q=[0.1, 0.2, 0.3])
        assert cfg == EkfConfig(cornering_stiffness_front=6e4, cornering_stiffness_rear=7e4,
                                q=(0.1, 0.2, 0.3))
        assert type(cfg.cornering_stiffness_front) is float

    def test_vehicle_stiffnesses_used_otherwise(self):
        assert self._ekf_config() == EkfConfig()


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

    def test_bad_array_line_in_weights(self, run_copy, capsys):
        tmp_path, cfg = run_copy
        shutil.rmtree(tmp_path / "run" / "eval", ignore_errors=True)
        path = tmp_path / "run" / "models" / "lstm.weights"
        data = path.read_bytes()
        # swapped dims keep the byte count and the payload's SHA-256
        start = data.index(b"\narray lstm0.wx ") + 1
        end = data.index(b"\n", start)
        rows, cols = data[start:end].split()[2:]
        path.write_bytes(data[:start] + b"array lstm0.wx " + cols + b" " + rows + data[end:])
        assert main(["evaluate", "--config", cfg]) == 3
        assert "lstm.weights" in capsys.readouterr().err
        assert not (tmp_path / "run" / "eval").exists()

    @pytest.mark.parametrize("stage", ["train", "evaluate"])
    def test_window_len_differs_from_sidecar(self, run_copy, capsys, stage):
        tmp_path, _ = run_copy
        dataset = dict(BASE_CONFIG["dataset"], window_len=20)
        cfg = _write_config(tmp_path, overrides={"dataset": dataset}, name="w20.yaml")
        assert main([stage, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "dataset.json" in err
        assert "window_len 50" in err and "window_len 20" in err

    @staticmethod
    def _w20_caches(tmp_path):
        """Caches of the same corpus built with window_len 20."""
        other = tmp_path / "w20"
        other.mkdir()
        shutil.copy(tmp_path / "run" / "manifest.json", other)
        shutil.copytree(tmp_path / "run" / "trajectories", other / "trajectories")
        cfg = _write_config(tmp_path, name="w20.yaml", overrides={
            "dataset": dict(BASE_CONFIG["dataset"], window_len=20), "out_dir": str(other)})
        assert main(["dataset", "--config", cfg]) == 0
        return other / "dataset"

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_cache_window_len_differs_from_sidecar(self, run_copy, capsys, split):
        tmp_path, cfg = run_copy
        shutil.copy(self._w20_caches(tmp_path) / f"{split}.cache",
                    tmp_path / "run" / "dataset")
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"{split}.cache" in err
        assert "window_len 20" in err and "window_len 50" in err

    @pytest.mark.parametrize("split, other", [("train", "val"), ("val", "train")])
    def test_cache_count_differs_from_sidecar(self, run_copy, capsys, split, other):
        tmp_path, cfg = run_copy
        dataset = tmp_path / "run" / "dataset"
        counts = json.loads((dataset / "dataset.json").read_text())["counts"]
        shutil.copy(dataset / f"{other}.cache", dataset / f"{split}.cache")
        assert main(["train", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"{split}.cache" in err
        assert f"{counts[other]} windows" in err and f"{counts[split]} {split}" in err


def _snapshot(run):
    """Bytes and modification time of every file under `run`."""
    return {p.relative_to(run): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in run.rglob("*") if p.is_file()}


class TestNonFiniteTrajectory:
    """A trajectory array holding nan or inf is a data error (exit 3) naming
    file, column and row, and the stage reading it writes nothing."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("stage", ["dataset", "evaluate"])
    def test_exits_3_and_writes_nothing(self, run_copy, capsys, stage, value):
        tmp_path, cfg = run_copy
        run = tmp_path / "run"
        sidecar = json.loads((run / "dataset" / "dataset.json").read_text())
        label = next(label for label, split in sidecar["split_assignment"].items()
                     if split == "test")  # evaluate reads only the test split
        path = run / "trajectories" / (label.replace("#", "-") + ".npy")
        data = np.load(path)
        data[9, 1] = float(value)  # the ax field of row 9
        np.save(path, data)
        before = _snapshot(run)
        assert main([stage, "--config", cfg]) == 3
        assert f"{path}: non-finite value {value} in column 'ax' at row 9" \
            in capsys.readouterr().err
        assert _snapshot(run) == before


class TestMalformedTrajectory:
    """A trajectory file that is not one (N, 15) float64 array with N > 0
    and nothing after it is a data error (exit 3) naming the file."""

    CASES = {
        "truncated": lambda data: _npy(data)[:-1],
        "trailing_byte": lambda data: _npy(data) + b"\0",
        "field_count": lambda data: _npy(data[:, :14]),
        "no_samples": lambda data: _npy(data[:0]),
        "float32": lambda data: _npy(data.astype(np.float32)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_dataset_exits_3_naming_the_file(self, run_copy, capsys, case):
        tmp_path, cfg = run_copy
        run = tmp_path / "run"
        path = sorted((run / "trajectories").glob("*.npy"))[0]
        path.write_bytes(self.CASES[case](np.load(path)))
        before = _snapshot(run)
        assert main(["dataset", "--config", cfg]) == 3
        assert f"i/o error: {path}: " in capsys.readouterr().err
        assert _snapshot(run) == before


class TestCsvTrajectoryRun:
    """A run simulated when trajectories were CSV text is refused: its first
    trajectory read exits 3 asking to rerun simulate."""

    @pytest.mark.parametrize("stage", ["dataset", "evaluate"])
    def test_exits_3_asking_to_rerun_simulate(self, run_copy, capsys, stage):
        tmp_path, cfg = run_copy
        run = tmp_path / "run"
        manifest = json.loads((run / "manifest.json").read_text())
        for entry in manifest["trajectories"]:
            traj = read_trajectory_csv(run / entry["file"])
            os.remove(run / entry["file"])
            entry["file"] = entry["file"].rsplit(".", 1)[0] + ".csv"
            write_csv(run / entry["file"], TRAJECTORY_COLUMNS,
                      np.hstack([traj.sensors, traj.truth[:, 1:]]).tolist())
        (run / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True)
                                           + "\n")
        split = json.loads((run / "dataset" / "dataset.json").read_text())["split_assignment"]
        first = next(e["file"] for e in manifest["trajectories"]
                     if stage == "dataset" or split[e["label"]] == "test")
        before = _snapshot(run)
        assert main([stage, "--config", cfg]) == 3
        assert f"i/o error: {run / first}: not a trajectory array; rerun 'simulate'" \
            in capsys.readouterr().err
        assert _snapshot(run) == before


class TestNonFiniteCache:
    """A cache holding nan or inf is a data error (exit 3) naming the file and
    the first bad frame, and train writes no weights."""

    FRAME = 5 + 3  # float64 fields per frame: sensors, state

    @pytest.mark.parametrize("split, window, lag, field, value", [
        ("val", 3, 0, 5 + 1, "nan"),  # the vy target of window 3
        ("train", 2, 7, 2, "inf"),    # a sensor field of window 2
    ], ids=["nan_target", "inf_window_field"])
    def test_exits_3_and_writes_nothing(self, run_copy, capsys, split, window, lag, field,
                                        value):
        tmp_path, cfg = run_copy
        run = tmp_path / "run"
        shutil.rmtree(run / "models")
        path = run / "dataset" / f"{split}.cache"
        store = read_cache(path)
        frame = store.targets[window] - lag
        data = bytearray(path.read_bytes())
        at = len(data) - 8 * self.FRAME * (len(store.states) - frame) + 8 * field
        data[at: at + 8] = np.array(float(value), dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        before = _snapshot(run)
        assert main(["train", "--config", cfg]) == 3
        assert f"{path.name}: non-finite value in frame {frame}" in capsys.readouterr().err
        assert _snapshot(run) == before


class TestCacheLayout:
    """A cache that train cannot index is a data error (exit 3) naming the
    file, and train writes no weights."""

    @staticmethod
    def _train_fails(run, cfg, capsys, path):
        shutil.rmtree(run / "models")
        before = _snapshot(run)
        assert main(["train", "--config", cfg]) == 3
        assert _snapshot(run) == before
        err = capsys.readouterr().err
        assert f"{path}:" in err
        return err

    def test_version_1_cache_asks_for_dataset(self, run_copy, capsys):
        tmp_path, cfg = run_copy
        run = tmp_path / "run"
        path = run / "dataset" / "train.cache"
        path.write_bytes(_v1_cache(read_cache(path)))
        err = self._train_fails(run, cfg, capsys, path)
        assert "cache format version 1 unsupported" in err and "rerun 'dataset'" in err

    def test_target_past_the_frames(self, run_copy, capsys):
        tmp_path, cfg = run_copy
        run = tmp_path / "run"
        path = run / "dataset" / "val.cache"
        store = read_cache(path)
        store.targets[-1] = len(store.states)
        write_cache(store, path)
        err = self._train_fails(run, cfg, capsys, path)
        assert f"window targets must increase within frames 49 .. {len(store.states) - 1}" in err


class TestMalformedReport:
    """A malformed report.csv is a data error (exit 3) naming file and line."""

    HEADER = "observer,segment,channel,mae,unit,n_samples\n"
    GOOD = "ekf,overall,vx,0.25,m/s,5\n"

    @pytest.mark.parametrize("text, line", [
        ("observer,segment,channel,mae,unit\n" + GOOD, 1),
        (HEADER + GOOD + "lstm,overall,vx,0.5,m/s\n", 3),
        (HEADER + GOOD + "lstm,overall,vx,abc,m/s,5\n", 3),
        (HEADER + GOOD + "lstm,overall,vz,0.5,m/s,5\n", 3),
        (HEADER + "ekf,overall,vx,nan,m/s,5\n", 2),
        (HEADER + GOOD + "lstm,overall,vx,inf,m/s,5\n", 3),
    ], ids=["bad_header", "field_count", "non_numeric", "unknown_channel", "nan", "inf"])
    def test_malformed_report_exits_3(self, tmp_path, capsys, text, line):
        eval_dir = tmp_path / "run" / "eval"
        eval_dir.mkdir(parents=True)
        (eval_dir / "report.csv").write_text(text)
        assert main(["report", "--out", str(tmp_path / "run")]) == 3
        assert f"report.csv:{line}:" in capsys.readouterr().err

    FULL = "".join(f"ekf,overall,{c},0.25,m/s,5\n" for c in ("vx", "vy", "yaw_rate"))

    @pytest.mark.parametrize("text, message", [
        (HEADER + GOOD + "ekf,overall,yaw_rate,0.5,mrad/s,5\n",
         "report.csv: no row 'ekf,overall,vy'"),
        (HEADER + FULL + FULL.replace("ekf", "lstm") + FULL.replace("overall", "normal"),
         "report.csv: no row 'lstm,normal,vx'"),
        (HEADER + FULL + "ekf,overall,vy,0.5,m/s,5\n",
         "report.csv:5: repeated row 'ekf,overall,vy'"),
        (HEADER + FULL + "lstm,overall,vx,0.5,m/s,4\n",
         "report.csv:5: n_samples 4 for segment 'overall', but an earlier row gives 5"),
        (HEADER, "report.csv: no rows after the header"),
    ], ids=["missing_channel", "missing_segment", "repeated_row", "mixed_n_samples", "header_only"])
    def test_inconsistent_report_exits_3(self, tmp_path, capsys, text, message):
        # a missing row used to read as an MAE of 0 and rank first
        eval_dir = tmp_path / "run" / "eval"
        eval_dir.mkdir(parents=True)
        (eval_dir / "report.csv").write_text(text)
        assert main(["report", "--out", str(tmp_path / "run")]) == 3
        assert message in capsys.readouterr().err
        assert not (eval_dir / "report.txt").exists()


class TestCliSurface:
    """Every subcommand's options: (flag, default, required, type, action)."""

    STAGE = [("--config", None, True, None, "_StoreAction"),
             ("--seed", None, False, int, "_StoreAction"),
             ("--out", None, False, None, "_StoreAction"),
             ("--workers", None, False, int, "_StoreAction")]
    SURFACE = {
        "simulate": STAGE,
        "dataset": STAGE,
        "train": STAGE + [("--observer", None, False, None, "_StoreAction"),
                          ("--epochs", None, False, int, "_StoreAction")],
        "evaluate": STAGE,
        "report": [("--out", None, True, None, "_StoreAction")],
    }

    def test_options_of_every_subcommand(self):
        subs, = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        assert subs.required
        surface = {name: [(*a.option_strings, a.default, a.required, a.type,
                           type(a).__name__)
                          for a in sub._actions if not isinstance(a, argparse._HelpAction)]
                   for name, sub in subs.choices.items()}
        assert surface == self.SURFACE


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

    def test_empty_environment_root_is_config_error(self, tmp_path, monkeypatch, capsys):
        # it used to put the run in seed<N> under the working directory
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("VOBS_OUT", "")
        doc = json.loads(json.dumps(BASE_CONFIG))
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(path)]) == 1
        assert "VOBS_OUT must be a non-empty path, got ''" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]
        # the variable is only read when neither out_dir nor --out is given
        assert load_config(path, out_dir="run").out_dir == "run"
