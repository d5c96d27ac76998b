"""Tests of the shared output plumbing: the table writer and the fork helper."""

import csv
import io
import math
import os

import pytest

from agvlink._io import _fmt, write_shares, write_table
from agvlink.analysis import MONTECARLO_COLUMNS, SWEEP_COLUMNS
from agvlink.stability import STABILITY_COLUMNS

from conftest import needs_fork

# every flag `instability_probability` and `_sweep_point` can put in a row
FLAGS = ["", "nmax_zero", "nmax_capped", "nmax_zero;nmax_capped",
         "error:ParameterError", "error:NumericConsistencyError"]
FLOATS = [0.0, -0.0, 1.5, -2.75e-7, 1e16, 1.2345678901234568e17, 5e-324,
          math.nan, math.inf, -math.inf]


def _csv_writer_table(header, rows, meta) -> str:
    """Reference: the meta lines, then a csv.writer row per `_fmt`ed row."""
    fh = io.StringIO()
    for line in meta:
        fh.write(line + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return fh.getvalue()


def test_write_table_matches_csv_writer():
    # csv.writer quotes what needs it; plain joins must give the same text
    rows = [(i, i % 2 == 1, x, -i, flag)
            for i, (x, flag) in enumerate(zip(FLOATS * 2, FLAGS * 4))]
    headers = [SWEEP_COLUMNS, MONTECARLO_COLUMNS, STABILITY_COLUMNS,
               ["n", "R", "gamma_th", "rho", "phi", "P1", "Pbb", "Pe(n)"]]
    meta = ["# version = 0", "# config.ts = 0.001"]
    for header in headers:
        got = io.StringIO()
        write_table(got, header, iter(rows), meta)
        assert got.getvalue() == _csv_writer_table(header, rows, meta)
        assert got.getvalue().count("\n") == len(meta) + 1 + len(rows)


def _numbers(out, lo, hi):
    out.writelines(f"{i}\n" for i in range(lo, hi))


@needs_fork
@pytest.mark.parametrize("items, cpus, worth", [
    (2, 3, 5),      # capped by the items
    (10, 3, 9),     # by the CPUs
    (10, 3, 2),     # by the worth
    (10, 3, 0),     # worth less than one share: one process
    (10, 1, 9),
    (1, 3, 9),
    (0, 3, 9),
])
def test_write_shares_fork_count(forks, monkeypatch, items, cpus, worth):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    out = io.StringIO()
    write_shares(out, items, worth, _numbers, "writing numbers")
    assert len(forks) == max(1, min(items, cpus, worth)) - 1
    assert out.getvalue() == "".join(f"{i}\n" for i in range(items))


def test_write_shares_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    out = io.StringIO()
    write_shares(out, 10, 9, _numbers, "writing numbers")
    assert out.getvalue() == "".join(f"{i}\n" for i in range(10))
