import ast
import errno
import hashlib
import os
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vobs
from vobs import artifacts
from vobs.dataset import WindowedDataset, read_cache, write_cache
from vobs.domain import Trajectory, read_trajectory_csv, write_trajectory_csv
from vobs.errors import DataFormatError
from vobs.evaluation import EvalReport, read_report_csv, write_report_csv
from vobs.neural import build_net, load_weights, save_weights
from vobs.observer_lstm import TRACE_COLUMNS, write_trace_csv
from vobs.simulator import SensorNoiseSpec, builtin_scripts, run_maneuver


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
    return build_net("lstm", seed, 5, (3, 4), (4,), 3, 3)


# artifact -> (file name, write the artifact of a seed to a path, read a path)
WRITERS = {
    "save_weights": ("w.weights", lambda seed, path: save_weights(_net(seed), path),
                     load_weights),
    "write_trajectory_csv": ("traj.npy", lambda seed, path: write_trajectory_csv(
        _trajectory(seed), path), read_trajectory_csv),
    "write_trace_csv": ("trace.csv", lambda seed, path: write_trace_csv(
        _estimates(seed), path, np.arange(6) * 0.02),
        lambda path: artifacts.read_csv(path, TRACE_COLUMNS)),
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


# the values at the edges of float64 and of its shortest repr: signed zero,
# the smallest subnormal, near the largest finite, integral values and both
# sides of 1e16, where repr switches to an exponent
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
               1.7976931348623157e308, 1.0, -3.0, 123456789.0, 9999999999999998.0, 1e16,
               1.0000000000000002e16, -1e16, 0.1, 1e-7, 1e22)


def _matrices():
    return st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(EDGE_FLOATS)), min_size=cols, max_size=cols),
        min_size=1, max_size=8).map(lambda rows: (cols, rows)))


class TestCsvFormat:
    @given(_matrices())
    @example((3, [list(EDGE_FLOATS[i:i + 3]) for i in range(0, len(EDGE_FLOATS), 3)]))
    @example((3, (np.random.default_rng(3).normal(size=(5, 3))
                  * 10.0 ** np.arange(-8, 7, 5)).tolist()))
    @settings(max_examples=150, deadline=None)
    def test_floats_round_trip_bit_exact(self, tmp_path_factory, matrix):
        # each field is the float's shortest repr, which `float` reads back
        cols, rows = matrix
        header = tuple(f"c{i}" for i in range(cols))
        path = tmp_path_factory.mktemp("float_csv") / "m.csv"
        artifacts.write_csv(path, header, rows)
        back = [[float(field) for field in fields]
                for fields in artifacts.read_csv(path, header)]
        assert np.array(back).tobytes() == np.array(rows, dtype=np.float64).tobytes()
        assert path.read_bytes().count(b"\r") == 0

    def test_header_only_is_an_empty_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        artifacts.write_csv(path, ("a", "b"), [])
        assert path.read_text() == "a,b\n"
        assert artifacts.read_csv(path, ("a", "b")) == []

    def test_json_layout(self, tmp_path):
        path = tmp_path / "d.json"
        artifacts.write_json(path, {"b": [1, 2.5], "a": "x"})
        assert path.read_text() == '{\n  "a": "x",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'

    def test_corrupt_json_names_file(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"a": ')
        with pytest.raises(DataFormatError, match="d.json: corrupt sidecar"):
            artifacts.read_json(path, "sidecar")

    def test_trajectory_csv_bytes_are_pinned(self, tmp_path):
        # the trajectory file format (an `.npy` header, then the float64
        # matrix) of one noisy 4 s slalom; TestGoldenBits pins the arrays
        traj = run_maneuver(builtin_scripts("slalom", 0.9, duration_s=4.0),
                            SensorNoiseSpec(seed=5))
        path = tmp_path / "slalom.npy"
        write_trajectory_csv(traj, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "9f2021d11eaec5579f68d900cbe57308b033e98d0968f7fa4545d4b0fc1ab639"


_DIALECT = ", but fields are never quoted and lines end in '\\n'"


class TestReadFloatCsv:
    """A CSV of floats (a trace, plot data, `report.csv`) reads through
    `read_csv`, which refuses a malformed file naming its line."""

    @given(_matrices())
    @example((3, [list(EDGE_FLOATS[i:i + 3]) for i in range(0, len(EDGE_FLOATS), 3)]))
    @settings(max_examples=150, deadline=None)
    def test_bulk_parse_is_bit_equal_to_float(self, tmp_path_factory, matrix):
        # `read_array` loads a whole matrix at once; it gives the bits that a
        # per-field `float` of the same matrix written as CSV gives
        cols, rows = matrix
        header = tuple(f"c{i}" for i in range(cols))
        directory = tmp_path_factory.mktemp("float_csv")
        artifacts.write_array(directory / "m.npy", np.array(rows, dtype=np.float64))
        data, _ = artifacts.read_array(directory / "m.npy", header, "matrix", "test")
        artifacts.write_csv(directory / "m.csv", header, rows)
        expected = np.array([[float(field) for field in fields] for fields in
                             artifacts.read_csv(directory / "m.csv", header)])
        assert data.shape == expected.shape == (len(rows), cols)
        assert data.tobytes() == expected.tobytes()

    # name -> (file text, the message or fields); a `"` or `\r` is refused
    # on the line that holds it
    CASES = {
        "bad_header": ("a,c\n1.0,2.0\n",
                       ":1: expected the header 'a,b', found ['a', 'c']"),
        "empty_file": ("", ":1: expected the header 'a,b', found None"),
        "short_row": ("a,b\n1.0,2.0\n3.0\n", ":3: expected 2 fields, found 1"),
        "long_row": ("a,b\n1.0,2.0\n3.0,4.0,5.0\n", ":3: expected 2 fields, found 3"),
        "every_row_long": ("a,b\n1.0,2.0,0.0\n3.0,4.0,5.0\n",
                           ":2: expected 2 fields, found 3"),
        "blank_line": ("a,b\n1.0,2.0\n\n3.0,4.0\n", ":3: expected 2 fields, found 0"),
        "quoted_comma": ('a,b\n1.0,2.0\n"3.0,4.0"\n', f":3: found '\"'{_DIALECT}"),
        "quoted": ('a,b\n1.0,2.0\n"3.0",4.0\n', f":3: found '\"'{_DIALECT}"),
        "crlf": ("a,b\r\n1.0,2.0\r\n3.0,4.0\r\n", f":1: found '\\r'{_DIALECT}"),
        "crlf_in_body": ("a,b\n1.0,2.0\r\n3.0,4.0\n", f":2: found '\\r'{_DIALECT}"),
        "cr_ends_a_row": ("a,b\n1.0\r,2.0\n", f":2: found '\\r'{_DIALECT}"),
        "lone_cr": ("a,b\n1.0,2.0\r3.0,4.0\n", f":2: found '\\r'{_DIALECT}"),
        "no_final_newline": ("a,b\n1.0,2.0\n3.0,4.0", [["1.0", "2.0"], ["3.0", "4.0"]]),
        "header_only_no_newline": ("a,b", []),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_malformed_input_reads_as_before(self, tmp_path, case):
        text, expected = self.CASES[case]
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(DataFormatError) as raised:
                artifacts.read_csv(path, ("a", "b"))
            assert str(raised.value) == f"{path}{expected}"
        else:
            assert artifacts.read_csv(path, ("a", "b")) == expected

    def test_one_column_blank_line_is_a_short_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a\n1.0\n\n2.0\n")
        with pytest.raises(DataFormatError, match=r"m.csv:3: expected 1 fields, found 0"):
            artifacts.read_csv(path, ("a",))

    @pytest.mark.parametrize("read", [artifacts.read_csv])
    def test_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path, read):
        path = tmp_path / "m.csv"
        path.write_bytes(b"a,b\n1.0,2.0\n3.0,4.0\xff\n")
        with pytest.raises(DataFormatError) as raised:
            read(path, ("a", "b"))
        assert str(raised.value) == (f"{path}:3: not UTF-8 ('utf-8' codec can't decode "
                                     f"byte 0xff in position 19: invalid start byte)")


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
