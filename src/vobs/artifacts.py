"""Reading and writing of run artifacts; the only module that opens one for
writing.

  - CSV: a header line of column names, then one line per row, `\\n` line
    ends, fields joined with "," and never quoted. Each field is written
    with `str`, so a float is its shortest round-trip repr (`float` reads it
    back bit-exact) and an int its digits. `gradcheck.csv` alone is rendered
    by `csv.writer` (quoted coordinates, `\\r\\n` line ends).
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

import csv
import json
import os
from itertools import chain, islice

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
    strings), written line by line."""
    write_file(path, (",".join(map(str, row)) + "\n" for row in chain([header], rows)))


def write_json(path, doc) -> None:
    write_file(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_csv(path, header):
    """(line number, fields) of each line of CSV `path` after its header,
    which must be the `header` names; every line must have as many fields."""
    header = list(header)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise DataFormatError(f"{path}:1: expected the header "
                                  f"{','.join(header)!r}, found {found!r}")
        for fields in reader:
            if len(fields) != len(header):
                raise DataFormatError(f"{path}:{reader.line_num}: expected "
                                      f"{len(header)} fields, found {len(fields)}")
            yield reader.line_num, fields


def read_float_csv(path, header) -> np.ndarray:
    """(rows, columns) float64 matrix of a CSV of finite floats."""
    rows = []
    for lineno, fields in read_csv(path, header):
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    data = np.array(rows, dtype=np.float64).reshape(-1, len(header))
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):  # read the file again, only now, for the offending line's number
        row, col = bad[0]
        lineno, fields = next(islice(read_csv(path, header), row, None))
        raise DataFormatError(f"{path}:{lineno}: non-finite value {fields[col]!r} "
                              f"in column '{header[col]}'")
    return data


def read_json(path, what: str):
    """The JSON document at `path`; `what` names it in the error."""
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise DataFormatError(f"{path}: corrupt {what} ({exc})") from None
