"""Artifact files: every one starts with a `# config=<hash>` line.

All writers go through `open_artifact`, so the header line is written in
one place; CSV artifacts add one header row and their data rows, ended by
`\\r\\n` as `csv.writer` ends them.  `write_csv_artifact` writes any rows.
Each grid table, one row per (battery, belief) cell, has its own writer.
`write_value_csv` splits the battery rows over the usable cores;
`write_region_csv` reads each line from a belief x code table of
`belief,code` texts.
"""
from __future__ import annotations

import csv
import shutil
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from .cores import on_cores, usable_cores
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


def _value_lines(beliefs: list, values, margins, rows: range):
    """The text of each battery row in `rows`; an inf margin is left empty."""
    for b in rows:
        lines = map(",".join, zip(beliefs, map(repr, values[b].tolist()),
                                  map(repr, margins[b].tolist())))
        yield (f"{b}," + f"\r\n{b},".join(lines) + "\r\n").replace(",inf\r", ",\r")


def write_value_csv(path, config_hash: str, points, values, margins) -> None:
    """Value table, battery-major: the row of cell (b, j) is b, repr(points[j]),
    repr(values[b, j]) and repr(margins[b, j]), an inf margin (a cell with
    one action backed up) left empty; the bytes are those of a `csv.writer`
    writing these rows.  `on_cores` writes one contiguous part of the battery
    rows per usable core: this process the header and the first part
    straight into the file, which opens once every child is forked, and each
    later one into an unlinked temporary file, appended in turn."""
    beliefs = list(map(repr, np.asarray(points).tolist()))
    parts = min(usable_cores(), len(values)) or 1
    cuts = [len(values) * i // parts for i in range(parts + 1)]
    with ExitStack() as files:
        texts = [None] + [files.enter_context(tempfile.TemporaryFile("w+", newline=""))
                          for _ in cuts[2:]]

        def write_part(i):  # part 0 runs in this process, after every fork
            if i == 0:
                texts[0] = files.enter_context(open_artifact(path, config_hash))
                csv.writer(texts[0]).writerow(["battery", "belief", "value", "margin"])
            texts[i].writelines(_value_lines(beliefs, values, margins,
                                             range(*cuts[i:i + 2])))
            texts[i].flush()

        list(on_cores(write_part, range(parts)))
        for part in texts[1:]:
            part.seek(0)
            shutil.copyfileobj(part, texts[0])


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
