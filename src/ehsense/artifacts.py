"""Artifact files: every one starts with a `# config=<hash>` line.

All writers go through `open_artifact`, so the header line is written in
one place; CSV artifacts add one header row and their data rows, ended by
`\\r\\n` as `csv.writer` ends them.  `write_csv_artifact` writes any rows;
`write_grid_csv` writes a table with one row per (battery, belief) cell,
formatting each column of a battery row in one pass and reusing texts: a
first-column cell bit-equal to a later cell of its line (a value equals
one of its Q values) reuses that cell's text, and the lines of a
one-column integer table (the regions) are read from a table of
`belief,code` texts.  Large tables are formatted on every core of the
affinity set by forked worker processes, and the parent writes the
battery rows in order as they arrive.
"""
from __future__ import annotations

import csv
import os
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

# Battery rows per task sent to a worker process: about 16k lines (2 MB of
# text for a value table on the 1001-point grid) per round trip.
_TASK_ROWS = 16

# Float cells from which `write_grid_csv` formats on worker processes.  Set
# from `ehsense solve` runs on 2 cores that timed the value table's write
# forced inline and forced to fan out, in alternating pairs, each run a fresh
# process so the lazy pool imports count (medians): 153k cells 150 -> 153 ms
# (4 of 10 pairs won), 234k 222 -> 171 ms (9 of 10), 306k 324 -> 248 ms
# (9 of 10), 606k 545 -> 335 ms (10 of 10).
_FANOUT_MIN_FLOAT_CELLS = 200_000

# Code range up to which a one-column integer table reads its lines from a
# (belief x code) table of `belief,code` texts; a wider one, rare (the action
# codes are 0-4), formats each cell.
_MAX_CODES = 64

# CPython 3.11.1 and later fork every worker of a fork-context pool at its
# first submit, before the pool's manager thread starts (gh-90622); earlier
# releases may fork them on demand while that thread runs, which can
# deadlock a child, so there the table is formatted inline.  The workers run
# no BLAS routine, so the parent's BLAS threads do not matter.
_POOL_FORKS_UP_FRONT = sys.version_info >= (3, 11, 1)

# The table a worker process formats, set in the worker by `_adopt`.  The
# pool forks, so the arrays reach the workers without being pickled.
_ADOPTED = None


@contextmanager
def open_artifact(path, config_hash: str = ""):
    """Open `path` for writing, making its directory; it starts with
    `# config=<hash>` when a hash is given."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        if config_hash:
            f.write(f"# config={config_hash}\n")
        yield f


def write_csv_artifact(path, config_hash: str, header, rows) -> None:
    """CSV artifact: the config line, `header`, then `rows` (any iterable)."""
    with open_artifact(path, config_hash) as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _format_column(cells: np.ndarray) -> list:
    """repr of every cell of a 1-d array; NaN (infeasible) cells are ""."""
    feasible = ~np.isnan(cells) if cells.dtype.kind == "f" else None
    if feasible is None or feasible.all():
        return list(map(repr, cells.tolist()))
    text = np.full(cells.size, "", dtype=object)
    text[feasible] = list(map(repr, cells[feasible].tolist()))
    return text.tolist()


def _reused_texts(first: np.ndarray, rest: list, texts: list) -> list:
    """Texts of the cells of `first`: a cell bit-equal to the same cell of
    an array in `rest` (whose texts are `texts`) reuses that text, so -0.0
    and 0.0 keep their own; the other cells are formatted."""
    n = first.size
    at = np.arange(n)
    src = np.full(n, -1)  # index of the cell's text in `flat`
    if first.dtype == np.float64:
        bits = first.view(np.int64)
        for k, col in enumerate(rest):
            if col.dtype == np.float64:
                np.copyto(src, at + k * n, where=bits == col.view(np.int64))
    left = np.flatnonzero(src < 0)
    src[left] = len(rest) * n + np.arange(left.size)
    flat = list(chain(*texts, _format_column(first[left])))
    return list(map(flat.__getitem__, src.tolist()))


def _format_row(table, b: int) -> str:
    """CSV lines of battery row b of `table` (see `_grid_table`)."""
    beliefs, columns, fragments = table
    if fragments is not None:
        texts, base = fragments
        lines = texts[base + columns[0][b]].tolist()
    else:
        first, *rest = (col[b] for col in columns)
        texts = [_format_column(col) for col in rest]
        lines = map(",".join, zip(beliefs, _reused_texts(first, rest, texts), *texts))
    return f"{b}," + f"\r\n{b},".join(lines) + "\r\n"


def _grid_table(points, columns) -> tuple:
    """(belief texts, columns, fragments) of a grid table, as `_format_row`
    reads it.  For one integer column of at most _MAX_CODES codes from lo,
    fragments is (texts, base): the object array texts holds the
    `belief,code` text of belief j and code c at j * codes + c - lo, and
    base[j] = j * codes - lo; otherwise fragments is None."""
    beliefs = list(map(repr, np.asarray(points).tolist()))
    col = columns[0]
    if (len(columns) != 1 or col.dtype.kind not in "iu"
            or not np.can_cast(col.dtype, np.intp)):
        return beliefs, columns, None
    lo, hi = int(col.min()), int(col.max())
    codes = hi - lo + 1
    if codes > _MAX_CODES:
        return beliefs, columns, None
    texts = np.array([f"{p},{c}" for p in beliefs for c in range(lo, hi + 1)],
                     dtype=object)
    base = np.arange(len(beliefs), dtype=np.intp) * codes - lo
    return beliefs, columns, (texts, base)


def _adopt(table) -> None:
    global _ADOPTED
    _ADOPTED = table


def _format_adopted_row(b: int) -> str:
    return _format_row(_ADOPTED, b)


def _workers(float_cells: int, rows: int) -> int:
    """Worker processes to format a table of `rows` battery rows; 0: inline.

    A table of one task stays inline: one worker would format all of it.
    """
    tasks = -(-rows // _TASK_ROWS)
    if (float_cells < _FANOUT_MIN_FLOAT_CELLS or tasks < 2
            or not _POOL_FORKS_UP_FRONT):
        return 0
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else 1
    if cores < 2:
        return 0
    import multiprocessing
    return min(cores, tasks) if "fork" in multiprocessing.get_all_start_methods() else 0


def write_grid_csv(path, config_hash: str, header, points, columns) -> None:
    """CSV artifact with one row per (battery, belief) cell, battery-major.

    The row of cell (b, j) is b, repr(points[j]), then repr(col[b, j]) for
    each array in `columns` (each of shape (b_max + 1, len(points))); a NaN
    cell, an infeasible action, is left empty.  The bytes are those of a
    `csv.writer` writing these rows.
    """
    columns = [np.asarray(col) for col in columns]
    table = _grid_table(points, columns)
    rows = range(len(columns[0]))
    workers = _workers(sum(col.size for col in columns if col.dtype.kind == "f"),
                       len(rows))
    with open_artifact(path, config_hash) as f:
        csv.writer(f).writerow(header)
        if not workers:
            f.writelines(_format_row(table, b) for b in rows)
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers,
                                 multiprocessing.get_context("fork"),
                                 initializer=_adopt, initargs=(table,)) as pool:
            f.writelines(pool.map(_format_adopted_row, rows, chunksize=_TASK_ROWS))
