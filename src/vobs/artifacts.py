"""Reading and writing of run artifacts; the only module that opens one for
writing.

  - CSV, one dialect: a header line of column names, then one line per row,
    `\\n` line ends, fields joined with "," and never quoted. Each field is
    written with `str`, so a float is its shortest round-trip repr (`float`
    reads it back bit-exact) and an int its digits. `write_csv` renders the
    whole file to one string and writes it in one call.
  - CSV reads: `read_csv` reads the file once, refuses any `"` or `\\r` and
    splits it on `\\n` and ",".
  - Arrays: one `.npy` file (NEP 1) each, written by `np.save` with
    `allow_pickle=False`; `read_array` reads it once, hashes those bytes and
    accepts only a finite float64 (N > 0, width) matrix and no byte after it.
  - JSON: `json.dumps(doc, indent=2, sort_keys=True)` and a newline.
  - Atomic writes: `write_file` creates the target's directory if it is
    missing, writes `.<name>.<pid>.tmp` there, then moves it over the target
    with `os.replace`; on any exception it removes the temporary file, so the
    target keeps its old bytes and no reader sees a half-written artifact.
  - Errors: a malformed artifact raises `DataFormatError` naming the file,
    as `<path>:<line>: ...` for a CSV (the header is line 1) and as
    `<path>: corrupt <what> (...)` for JSON and as `<path>: ...` for an array.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from itertools import chain

import numpy as np

from .errors import DataFormatError


def write_file(path, data) -> None:
    """Write `data` to `path` atomically: bytes, str (written as UTF-8), or an
    iterable of such chunks, written one by one."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in (data,) if isinstance(data, (bytes, str)) else data:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """The `header` names, then each row of `rows` (Python floats, ints or
    strings), rendered to one string and written at once."""
    write_file(path, "".join([",".join(map(str, row)) + "\n" for row in chain([header], rows)]))


def write_json(path, doc) -> None:
    write_file(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_csv(path, header) -> list[list[str]]:
    """The fields of each line after the header line of CSV `path`, which must
    hold the `header` names; row i is line i + 2. An empty line has no fields."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}:{lineno}: not UTF-8 ({exc})") from None
    if '"' in text or "\r" in text:
        at = min(i for i in (text.find('"'), text.find("\r")) if i >= 0)
        lineno = text.count("\n", 0, at) + 1
        raise DataFormatError(f"{path}:{lineno}: found {text[at]!r}, but fields are "
                              f"never quoted and lines end in '\\n'")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the final line end, or all of an empty file
    rows = [line.split(",") if line else [] for line in lines]
    found = rows.pop(0) if rows else None
    if found != list(header):
        raise DataFormatError(f"{path}:1: expected the header {','.join(header)!r}, "
                              f"found {found!r}")
    for lineno, fields in enumerate(rows, 2):
        if len(fields) != len(header):
            raise DataFormatError(f"{path}:{lineno}: expected {len(header)} fields, "
                                  f"found {len(fields)}")
    return rows


def write_array(path, array) -> None:
    """`array` in `.npy` format, written at once."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=False)
    write_file(path, buf.getvalue())


def read_array(path, columns, what: str, stage: str) -> tuple[np.ndarray, str]:
    """(N, len(columns)) float64 matrix of finite values in `.npy` file `path` and
    the hex SHA-256 of its bytes; errors name it `what` and its writer `stage`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"\x93NUMPY"):  # else numpy calls any text pickled data
        raise DataFormatError(f"{path}: not a {what}; rerun '{stage}'")
    buf = io.BytesIO(raw)
    try:
        data = np.load(buf, allow_pickle=False)
    except Exception as exc:  # a bad header or too few bytes: numpy raises many types
        raise DataFormatError(f"{path}: corrupt {what} ({exc})") from None
    if data.dtype != np.float64 or data.shape[1:] != (len(columns),) or not len(data) \
            or buf.tell() != len(raw):
        raise DataFormatError(f"{path}: {what} of dtype {data.dtype} and shape {data.shape} "
                              f"in {buf.tell()} of {len(raw)} bytes, expected float64 of "
                              f"shape (N, {len(columns)}), N > 0, filling the file")
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise DataFormatError(f"{path}: non-finite value {float(data[row, col])} in "
                              f"column '{columns[col]}' at row {row}")
    return data, hashlib.sha256(raw).hexdigest()


def read_json(path, what: str):
    """The JSON document at `path`; `what` names it in the error."""
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise DataFormatError(f"{path}: corrupt {what} ({exc})") from None
