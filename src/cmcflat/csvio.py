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
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def render_csv(header, rows) -> str:
    """CSV text of a header and rows; a numeric ndarray renders as floats.

    An ndarray row is written as the joined reprs of its Python floats: the
    text that ``csv.writer`` and ``format_value`` give its numpy scalars (a
    float repr never needs quoting), without a second copy of the table.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray):
        for row in rows.astype(float, copy=False):
            buf.write(",".join(map(repr, row.tolist())) + "\n")
    else:
        writer.writerows([format_value(x) for x in row] for row in rows)
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
