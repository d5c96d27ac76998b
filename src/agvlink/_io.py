"""Shared output plumbing for the CSV writers, and the one fork helper that
decides how many processes a job gets and splits the trajectory rows or the
Monte-Carlo runs over them."""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import traceback
from contextlib import nullcontext


def csv_sink(path):
    """A context manager giving a writable text handle; `path` may be a path,
    which it opens and closes, or an open file, which it leaves open."""
    return (nullcontext(path) if hasattr(path, "write")
            else open(path, "w", newline=""))


def _fmt(value) -> str:
    """CSV text of one value: bools as 0/1, floats as their shortest repr."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(path, header, rows, meta=()) -> None:
    """Write the `meta` lines as given, then the header row, then `rows`,
    each value formatted by `_fmt` and the values joined by commas.

    Nothing is quoted: the package writes numbers, fixed names and flags,
    none of which holds a comma, a quote or a line break.
    """
    with csv_sink(path) as fh:
        fh.writelines(line + "\n" for line in meta)
        fh.writelines(",".join(map(_fmt, row)) + "\n"
                      for row in (header, *rows))


def _fork_share(work, lo: int, hi: int):
    """Fork a child that runs work(file, lo, hi) into a temporary text file.

    Returns (pid, file). The child leaves by `os._exit`, so it flushes no
    buffer and runs no cleanup of the parent's; it prints the traceback of
    a failure and exits with status 1.
    """
    tmp = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    try:
        pid = os.fork()
    except BaseException:
        tmp.close()
        raise
    if pid == 0:
        status = 1
        try:
            work(tmp, lo, hi)
            tmp.flush()
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    return pid, tmp


def write_shares(fh, items: int, worth: int, work, what: str) -> None:
    """Write the text of items 0..items-1 to `fh` in order, split over as
    many processes as the work is worth.

    `work(file, lo, hi)` writes the text of items lo..hi-1. The work is worth
    `worth` shares, and it gets that many processes but at most one per
    usable CPU and one per item, and one where there is no `os.fork`. The
    items are cut into that many contiguous shares. A forked child runs each
    share after the first into a temporary file, while this process writes
    the first straight to `fh`; the children's files are then appended in
    order, so the text does not depend on the split. `work` must take no
    lock that another thread could hold at the fork, and its text must not
    depend on which process runs it. If this process fails, every child is
    killed; either way every child is reaped, and a child that failed makes
    this call raise RuntimeError, naming `what` it was doing.
    """
    shares = 1
    if hasattr(os, "fork"):
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:      # not offered on every platform
            cpus = os.cpu_count() or 1
        shares = max(1, min(cpus, items, worth))
    bounds = [items * i // shares for i in range(shares + 1)]
    children = []       # (pid, temporary file) of shares 1, 2, ...
    try:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                children.append(_fork_share(work, lo, hi))
            work(fh, 0, bounds[1])
        except BaseException:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for pid, _ in children]
        for lo, code in zip(bounds[1:], codes):
            if code != 0:
                raise RuntimeError(f"the process {what} from {lo} exited "
                                   f"with status {code}")
        for _, tmp in children:
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh)
    finally:
        for _, tmp in children:
            tmp.close()
