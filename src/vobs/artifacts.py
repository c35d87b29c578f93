"""Reading and writing of run artifacts; the only module that opens one for
writing.

  - CSV, one dialect: a header line of column names, then one line per row,
    `\\n` line ends, fields joined with "," and never quoted. Each field is
    written with `str`, so a float is its shortest round-trip repr (`float`
    reads it back bit-exact) and an int its digits. `write_csv` renders the
    whole file to one string and writes it in one call.
  - CSV reads: `read_csv` reads the file once, refuses any `"` or `\\r` and
    splits it on `\\n` and ","; `read_float_csv` does the same, hashes the
    bytes of that one read, and converts all its fields in one
    `np.array(..., dtype=np.float64)`, which accepts and rounds each string
    as `float` does, and only when that fails or gives a non-finite value
    looks through the rows for the line of the first such field.
  - JSON: `json.dumps(doc, indent=2, sort_keys=True)` and a newline.
  - Atomic writes: `write_file` creates the target's directory if it is
    missing, writes `.<name>.<pid>.tmp` there, then moves it over the target
    with `os.replace`; on any exception it removes the temporary file, so the
    target keeps its old bytes and no reader sees a half-written artifact.
  - Errors: a malformed artifact raises `DataFormatError` naming the file,
    as `<path>:<line>: ...` for a CSV (the header is line 1) and as
    `<path>: corrupt <what> (...)` for JSON. A float CSV field must be finite.
"""

from __future__ import annotations

import hashlib
import json
import math
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
        return _split_csv(path, fh.read(), header)


def _split_csv(path, data: bytes, header) -> list[list[str]]:
    """`read_csv`'s rows of `data`, the bytes of CSV `path`."""
    header = list(header)
    text = data.decode()
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
    if found != header:
        raise DataFormatError(f"{path}:1: expected the header {','.join(header)!r}, "
                              f"found {found!r}")
    for lineno, fields in enumerate(rows, 2):
        if len(fields) != len(header):
            raise DataFormatError(f"{path}:{lineno}: expected {len(header)} fields, "
                                  f"found {len(fields)}")
    return rows


def read_float_csv(path, header) -> tuple[np.ndarray, str]:
    """(rows, columns) float64 matrix of a CSV of finite floats, and the hex
    SHA-256 of the file's bytes, from one read of the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    rows = _split_csv(path, raw, header)
    try:
        data = np.array(rows, dtype=np.float64).reshape(-1, len(header))
        if np.isfinite(data).all():
            return data, hashlib.sha256(raw).hexdigest()
    except ValueError:  # a field `float` rejects
        pass
    for lineno, fields in enumerate(rows, 2):  # only now, name the first bad field's line
        for name, field in zip(header, fields):
            try:
                if math.isfinite(float(field)):
                    continue
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            raise DataFormatError(f"{path}:{lineno}: non-finite value {field!r} "
                                  f"in column '{name}'")
    raise AssertionError(f"{path}: numpy rejects a field that float accepts")


def read_json(path, what: str):
    """The JSON document at `path`; `what` names it in the error."""
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise DataFormatError(f"{path}: corrupt {what} ({exc})") from None
