import ast
import errno
import os
import pathlib

import numpy as np
import pytest

import vobs
from vobs import artifacts
from vobs.dataset import WindowedDataset, read_cache, write_cache
from vobs.domain import Trajectory, read_trajectory_csv, write_trajectory_csv
from vobs.errors import DataFormatError
from vobs.evaluation import EvalReport, read_report_csv, write_report_csv
from vobs.neural import load_weights, lstm_observer_net, save_weights
from vobs.observer_lstm import TRACE_COLUMNS, write_trace_csv


class _DiskFull:
    """Writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _trajectory(seed):
    rng = np.random.default_rng(seed)
    t = np.arange(8) * 0.02
    return Trajectory(np.column_stack([t, rng.normal(size=(8, 5))]),
                      np.column_stack([t, rng.normal(size=(8, 9))]))


def _estimates(seed):
    return np.random.default_rng(seed).normal(size=(6, 3))


def _report(seed):
    err = np.random.default_rng(seed).uniform(size=3)
    return EvalReport({"ekf": {"overall": err}}, {"overall": 100})


def _windows(seed):
    rng = np.random.default_rng(seed)
    return WindowedDataset(rng.uniform(size=(8, 5)), rng.uniform(size=(8, 3)),
                           np.arange(4, 8), window_len=5)


def _net(seed):
    return lstm_observer_net(seed=seed, in_dim=5, hidden=(3, 4), dense=(4,),
                             out_dim=3, state_dim=3)


# artifact -> (file name, write the artifact of a seed to a path, read a path)
WRITERS = {
    "save_weights": ("w.weights", lambda seed, path: save_weights(_net(seed), path),
                     load_weights),
    "write_trajectory_csv": ("traj.csv", lambda seed, path: write_trajectory_csv(
        _trajectory(seed), path), read_trajectory_csv),
    "write_trace_csv": ("trace.csv", lambda seed, path: write_trace_csv(
        _estimates(seed), path, np.arange(6) * 0.02),
        lambda path: artifacts.read_float_csv(path, TRACE_COLUMNS)),
    "write_report_csv": ("report.csv", lambda seed, path: write_report_csv(
        _report(seed), path), read_report_csv),
    "manifest": ("manifest.json", lambda seed, path: artifacts.write_json(
        path, {"master_seed": seed}), lambda path: artifacts.read_json(path, "manifest")),
    "write_cache": ("train.cache", lambda seed, path: write_cache(_windows(seed), path),
                    read_cache),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        name, write, read = WRITERS[writer]
        path = tmp_path / name
        write(21, path)
        old = path.read_bytes()
        monkeypatch.setattr(artifacts, "open",
                            lambda p, mode: _DiskFull(open(p, mode)), raising=False)
        with pytest.raises(OSError):
            write(22, path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == [name]
        assert path.read_bytes() == old
        read(path)
        write(22, path)  # the write that failed changes the file when it succeeds
        assert path.read_bytes() != old

    def test_failing_rows_leave_no_file(self, tmp_path):
        def rows():
            yield (1.0, 2.0)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            artifacts.write_csv(tmp_path / "a.csv", ("x", "y"), rows())
        assert os.listdir(tmp_path) == []


class TestCsvFormat:
    def test_floats_round_trip_bit_exact(self, tmp_path):
        values = np.random.default_rng(3).normal(size=(5, 3)) * 10.0 ** np.arange(-8, 7, 5)
        path = tmp_path / "m.csv"
        artifacts.write_csv(path, ("a", "b", "c"), values.tolist())
        np.testing.assert_array_equal(artifacts.read_float_csv(path, ("a", "b", "c")), values)
        assert path.read_bytes().count(b"\r") == 0

    def test_header_only_is_an_empty_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        artifacts.write_csv(path, ("a", "b"), [])
        assert path.read_text() == "a,b\n"
        assert artifacts.read_float_csv(path, ("a", "b")).shape == (0, 2)

    def test_json_layout(self, tmp_path):
        path = tmp_path / "d.json"
        artifacts.write_json(path, {"b": [1, 2.5], "a": "x"})
        assert path.read_text() == '{\n  "a": "x",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'

    def test_corrupt_json_names_file(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"a": ')
        with pytest.raises(DataFormatError, match="d.json: corrupt sidecar"):
            artifacts.read_json(path, "sidecar")


SRC = pathlib.Path(vobs.__file__).parent
_OS_WRITES = ("replace", "rename", "makedirs", "mkdir")


def _writes(source: str):
    """(line, what) of every call in `source` that opens a file to write,
    moves one over another or creates a directory; an `open` whose mode is
    not a literal counts."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                        or set(mode.value) & set("wax"):
                    yield node.lineno, "open for writing"
        elif isinstance(func, ast.Attribute) and func.attr in _OS_WRITES \
                and isinstance(func.value, ast.Name) and func.value.id == "os":
            yield node.lineno, f"os.{func.attr}"


def test_only_the_artifact_module_writes_files():
    assert sorted(what for _, what in _writes((SRC / "artifacts.py").read_text())) == [
        "open for writing", "os.makedirs", "os.replace"]
    found = [f"{path.relative_to(SRC)}:{line}: {what}"
             for path in sorted(SRC.rglob("*.py")) if path != SRC / "artifacts.py"
             for line, what in _writes(path.read_text())]
    assert found == []
