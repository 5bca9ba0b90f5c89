"""Artifact files: every one starts with a `# config=<hash>` line.

All writers go through `open_artifact`, so the header line is written in
one place; CSV artifacts add one header row and their data rows, ended by
`\\r\\n` as `csv.writer` ends them.  `write_csv_artifact` writes any rows.
Each grid table, one row per (battery, belief) cell, has its own writer.
`write_value_csv` reads Q one block of battery rows (`row_blocks`) at a
time and formats each column of a battery row in one pass, a value cell
reusing the text of the Q cell it is bit-equal to; large tables are
formatted by forked worker processes, one block per task, on every core of
the affinity set, and the parent writes the blocks in order as they arrive.
`write_region_csv` reads each line from a belief x code table of
`belief,code` texts.
"""
from __future__ import annotations

import csv
import os
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .model import Action

# Battery rows per block (`row_blocks`), one task of a worker process: about
# 16k lines (2 MB of text for a value table on the 1001-point grid).
_TASK_ROWS = 16

# Float cells from which `write_value_csv` formats on worker processes.  Set
# from `ehsense solve` runs on 2 cores that timed the value table's write
# forced inline and forced to fan out, in alternating pairs, each run a fresh
# process so the lazy pool imports count (medians): 153k cells 150 -> 153 ms
# (4 of 10 pairs won), 234k 222 -> 171 ms (9 of 10), 306k 324 -> 248 ms
# (9 of 10), 606k 545 -> 335 ms (10 of 10).
_FANOUT_MIN_FLOAT_CELLS = 200_000

# CPython 3.11.1 and later fork every worker of a fork-context pool at its
# first submit, before the pool's manager thread starts (gh-90622); earlier
# releases may fork them on demand while that thread runs, which can
# deadlock a child, so there the table is formatted inline.  The workers run
# no BLAS routine, so the parent's BLAS threads do not matter.
_POOL_FORKS_UP_FRONT = sys.version_info >= (3, 11, 1)

# The value table a worker process formats, set in the worker by `_adopt`.
# The pool forks, so it reaches the workers without being pickled.
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
    """repr of every cell of a 1-d float array; NaN (infeasible) cells are ""."""
    feasible = ~np.isnan(cells)
    if feasible.all():
        return list(map(repr, cells.tolist()))
    text = np.full(cells.size, "", dtype=object)
    text[feasible] = list(map(repr, cells[feasible].tolist()))
    return text.tolist()


def row_blocks(rows: int) -> list:
    """Slices of _TASK_ROWS battery rows, the last maybe shorter, over `rows`."""
    return [slice(b, min(b + _TASK_ROWS, rows)) for b in range(0, rows, _TASK_ROWS)]


def _format_block(table, rows: slice):
    """CSV lines of each battery row in `rows` of the value table (beliefs,
    values, q_block), reading the block's Q once.

    A value cell bit-equal to a Q cell of its line reuses that cell's text,
    so -0.0 and 0.0 keep their own; the other value cells are formatted.
    """
    beliefs, values, q_block = table
    for b, q in zip(range(rows.start, rows.stop), q_block(rows).swapaxes(0, 1)):
        texts = [_format_column(col) for col in q]
        match = q.view(np.int64) == values[b].view(np.int64)
        src = match.argmax(0) * q.shape[1] + np.arange(q.shape[1])  # into `flat`
        left = np.flatnonzero(~match.any(0))
        src[left] = q.size + np.arange(left.size)
        flat = list(chain(*texts, _format_column(values[b, left])))
        lines = map(",".join, zip(beliefs, map(flat.__getitem__, src.tolist()), *texts))
        yield f"{b}," + f"\r\n{b},".join(lines) + "\r\n"


def _adopt(table) -> None:
    global _ADOPTED
    _ADOPTED = table


def _format_adopted_block(rows: slice) -> str:
    return "".join(_format_block(_ADOPTED, rows))


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


def write_value_csv(path, config_hash: str, points, values, q_block) -> None:
    """Value table, battery-major: the row of cell (b, j) is b, repr(points[j]),
    repr(values[b, j]), then repr(q_block(rows)[a, b - rows.start, j]) per
    action a (column `q_<code>`), a NaN cell (an infeasible action) left
    empty; the bytes are those of a `csv.writer` writing these rows."""
    values = np.asarray(values, dtype=np.float64)
    blocks = row_blocks(len(values))
    workers = _workers(values.size * (1 + len(Action)), len(values))
    table = (list(map(repr, np.asarray(points).tolist())), values, q_block)
    with open_artifact(path, config_hash) as f:
        csv.writer(f).writerow(["battery", "belief", "value"]
                               + [f"q_{a.code}" for a in Action])
        if not workers:
            f.writelines(chain.from_iterable(_format_block(table, r) for r in blocks))
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers,
                                 multiprocessing.get_context("fork"),
                                 initializer=_adopt, initargs=(table,)) as pool:
            f.writelines(pool.map(_format_adopted_block, blocks))


def write_region_csv(path, config_hash: str, points, actions) -> None:
    """Region table: the row of cell (b, j) is b, repr(points[j]) and the
    code of the action at actions[b, j], battery-major; a code outside
    0..len(Action)-1 is a ValueError."""
    actions = np.asarray(actions)
    codes = len(Action)
    if actions.size and not 0 <= actions.min() <= actions.max() < codes:
        raise ValueError(f"action codes must lie in 0..{codes - 1}, got "
                         f"{actions.min()}..{actions.max()}")
    texts = np.array([f"{p},{c}" for p in map(repr, np.asarray(points).tolist())
                      for c in range(codes)], dtype=object)
    base = np.arange(actions.shape[1]) * codes
    with open_artifact(path, config_hash) as f:
        csv.writer(f).writerow(["battery", "belief", "action"])
        f.writelines(f"{b}," + f"\r\n{b},".join(texts[base + row].tolist()) + "\r\n"
                     for b, row in enumerate(actions))
