"""Deterministic CSV writing for run outputs.

Floats are rendered with Python's shortest round-trip repr so files are
bitwise reproducible across runs and parse back to the exact same doubles.
"""

from __future__ import annotations

import csv
import io

import numpy as np


def format_value(x) -> str:
    if type(x) is float:
        return repr(x)
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def render_csv(header, rows) -> str:
    """CSV text of a header and rows; a numeric ndarray renders as floats.

    An ndarray is rendered row by row from lists of Python floats: the same
    text its numpy scalars give, without building one scalar per cell and
    without a second copy of the whole table.
    """
    if isinstance(rows, np.ndarray):
        rows = map(np.ndarray.tolist, rows.astype(float, copy=False))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(x) for x in row])
    return buf.getvalue()


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_csv(header, rows))


def read_csv(path):
    """Read back a CSV written by write_csv: (header, list of string rows).

    A file without a header row raises ValueError naming the file.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV file, no header row")
        return header, [row for row in reader]
