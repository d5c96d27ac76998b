"""Tests of the shared output plumbing: the table writer, the block
formatter and the fork helper."""

import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agvlink._io import _fmt, write_shares, write_table
from agvlink._rows import format_rows
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


def assert_repr_text(values) -> None:
    """format_rows writes a column of floats as repr writes each value,
    4096 rows at a time."""
    values = np.asarray(values, dtype=np.float64)
    for lo in range(0, len(values), 4096):
        block = values[lo:lo + 4096]
        got = format_rows([block]).split("\n")
        for value, line in zip(block.tolist(), got):   # name the first miss
            assert line == repr(value), value.hex()
        assert len(got) == len(block) + 1 and got[-1] == ""


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=40))
def test_format_rows_matches_repr(values):
    assert_repr_text(values)


def test_format_rows_matches_repr_on_subnormals():
    # every subnormal significand 1..2^17, of both signs: few digits, and
    # 5e-324 and 8e-323 keep one and two digits (no 4.9e-324 or 7.9e-323)
    bits = np.arange(1, 2**17 + 1, dtype=np.uint64)
    assert_repr_text(np.concatenate([bits, bits | 1 << 63]).view(np.float64))


def test_format_rows_matches_repr_at_binade_edges():
    # 2^e and 1 or 2 ulp to either side, for every e, of both signs: at a
    # power of two the gap below is half the gap above
    powers = np.arange(1, 2047, dtype=np.uint64) << 52
    bits = np.concatenate([powers + d for d in (0, 1, 2)]
                          + [powers - d for d in (1, 2)])
    assert_repr_text(np.concatenate([bits, bits | 1 << 63]).view(np.float64))


def test_format_rows_matches_repr_on_random_bits():
    bits = np.random.default_rng(20).integers(
        0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    assert_repr_text(bits.view(np.float64))


def test_format_rows_writes_integer_columns():
    # a column of single digits (flags), floats, integers up to 17 digits
    # long between floats, then integers whose windows cross their rows' ends
    ints = np.array([0, 7, 10, 99, 12345678901234567, 10**16 - 1, 5])
    flags = np.array([1, 0, 0, 1, 1, 0, 1], dtype=np.uint8)
    floats = np.array([0.5, -0.0, 1e-7, math.nan, 1e300, -123.25, 2.0])
    want = "".join(f"{f},{x!r},{i},{-x!r},{i}\n" for f, x, i in zip(
        flags.tolist(), floats.tolist(), ints.tolist()))
    assert format_rows([flags, floats, ints, -floats, ints]) == want
    assert format_rows([ints[:0], floats[:0]]) == ""


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
