"""Artifact files: every one starts with a `# config=<hash>` line.

All writers go through `open_artifact`, so the header line is written in
one place; CSV artifacts add one header row and their data rows.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager


@contextmanager
def open_artifact(path, config_hash: str = ""):
    """Open `path` for writing; it starts with `# config=<hash>` when a hash is given."""
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
