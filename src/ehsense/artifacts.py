"""Artifact files: every one starts with a `# config=<hash>` line.

All writers go through `open_artifact`, so the header line is written in
one place; CSV artifacts add one header row and their data rows, ended by
`\\r\\n` as `csv.writer` ends them.  `write_csv_artifact` writes any rows.
Each grid table, one row per (battery, belief) cell, has its own writer.
`write_value_csv` formats the value and margin columns of each battery row
in one pass each; `write_region_csv` reads each line from a belief x code
table of `belief,code` texts.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .model import Action


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


def _format_margins(cells: np.ndarray) -> list:
    """repr of every cell of a 1-d float array; inf cells (no runner-up) are ""."""
    finite = np.isfinite(cells)
    if finite.all():
        return list(map(repr, cells.tolist()))
    text = np.full(cells.size, "", dtype=object)
    text[finite] = list(map(repr, cells[finite].tolist()))
    return text.tolist()


def write_value_csv(path, config_hash: str, points, values, margins) -> None:
    """Value table, battery-major: the row of cell (b, j) is b, repr(points[j]),
    repr(values[b, j]) and repr(margins[b, j]), an inf margin (a cell with
    one action backed up) left empty; the bytes are those of a `csv.writer`
    writing these rows."""
    beliefs = list(map(repr, np.asarray(points).tolist()))
    with open_artifact(path, config_hash) as f:
        csv.writer(f).writerow(["battery", "belief", "value", "margin"])
        for b, (row, margin) in enumerate(zip(np.asarray(values, dtype=np.float64),
                                              np.asarray(margins, dtype=np.float64))):
            lines = map(",".join, zip(beliefs, map(repr, row.tolist()),
                                      _format_margins(margin)))
            f.write(f"{b}," + f"\r\n{b},".join(lines) + "\r\n")


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
