"""Shared output plumbing for the CSV writers."""

from __future__ import annotations

import csv
from contextlib import contextmanager


@contextmanager
def csv_sink(path):
    """Yield a writable text handle; `path` may be a path or open file."""
    if hasattr(path, "write"):
        yield path
        return
    fh = open(path, "w", newline="")
    try:
        yield fh
    finally:
        fh.close()


def _fmt(value) -> str:
    """CSV text of one value: bools as 0/1, floats as their shortest repr."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(path, header, rows, meta=()) -> None:
    """Write the `meta` lines as given, then the header row, then `rows`,
    each value formatted by `_fmt`."""
    with csv_sink(path) as fh:
        for line in meta:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
