"""Deterministic CSV writing for run outputs.

Floats are rendered with Python's shortest round-trip repr so files are
bitwise reproducible across runs and parse back to the exact same doubles.
The module does not import numpy: it renders numpy values once a caller has
loaded numpy, and plain Python values without it.
"""

from __future__ import annotations

import csv
import io
import numbers
import sys


def format_value(x) -> str:
    if type(x) is float:
        return repr(x)
    if isinstance(x, str):
        return x
    # a numpy bool is no Python bool, and can exist only once numpy is loaded
    np = sys.modules.get("numpy")
    if isinstance(x, bool) or (np is not None and isinstance(x, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return repr(float(x))


def render_csv(header, rows) -> str:
    """CSV text of a header and rows.

    A row of floats is written as the joined reprs of its cells: the text
    that ``csv.writer`` and ``format_value`` give it (a float repr never
    needs quoting), without a list of strings per row.  Any other row goes
    through ``csv.writer`` and ``format_value``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        try:
            # float.__repr__ takes floats and their subclasses, numpy's float64 among them
            line = ",".join(map(float.__repr__, row))
        except TypeError:
            writer.writerow([format_value(x) for x in row])
        else:
            buf.write(line + "\n")
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
