"""The grid CSV writers against a plain `csv.writer` loop over the cells."""
import csv
import math
import os
import time

import numpy as np
import pytest

from ehsense import Action, artifacts, extract_policy, value_iteration
from ehsense.artifacts import open_artifact, write_region_csv, write_value_csv

VALUE_HEADER = ["battery", "belief", "value", "margin"]
REGION_HEADER = ["battery", "belief", "action"]


def reference_grid_csv(path, config_hash, header, points, columns):
    """One `csv.writer` row per (battery, belief) cell; non-finite cells empty."""
    with open_artifact(path, config_hash) as f:
        w = csv.writer(f)
        w.writerow(header)
        for b in range(len(columns[0])):
            for j, p in enumerate(points.tolist()):
                cells = [col[b, j].item() for col in columns]
                w.writerow([b, repr(p)] + [repr(c) if math.isfinite(c) else ""
                                           for c in cells])


def assert_same_values(tmp_path, points, values, margins):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_value_csv(got, "abc123", points, values, margins)
    reference_grid_csv(want, "abc123", VALUE_HEADER, points, [values, margins])
    assert got.read_bytes() == want.read_bytes()


def assert_same_regions(tmp_path, points, actions):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_region_csv(got, "abc123", points, actions)
    reference_grid_csv(want, "abc123", REGION_HEADER, points, [actions])
    assert got.read_bytes() == want.read_bytes()


def assert_same_value_table(tmp_path, params, grid):
    table = value_iteration(params, grid)
    lone = np.isinf(table.margins)  # one action backed up: an empty margin
    assert lone.any() and not lone.all()
    assert_same_values(tmp_path, grid.points, table.values, table.margins)


def test_single_rate_value_table(tmp_path, tiny_params, coarse_grid):
    assert_same_value_table(tmp_path, tiny_params, coarse_grid)


def test_two_rate_value_table(tmp_path, tiny_two_rate, coarse_grid):
    assert_same_value_table(tmp_path, tiny_two_rate, coarse_grid)


def test_region_table(tmp_path, tiny_two_rate, coarse_grid):
    actions = extract_policy(value_iteration(tiny_two_rate, coarse_grid)).actions
    assert actions.dtype == np.int8
    assert_same_regions(tmp_path, coarse_grid.points, actions)


def random_cells(shape):
    """(values, margins) with -0.0, 0.0, ties, inf margins and an all-inf row."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=shape)
    values[:, ::5] = -0.0
    values[2, 3] = 0.0
    margins = np.abs(rng.normal(size=shape))
    margins[rng.random(shape) < 0.3] = np.inf
    margins[:, 1::5] = 0.0  # tied top two
    margins[4] = np.inf  # a whole row with one action
    return values, margins


def test_value_and_margin_cells(tmp_path):
    assert_same_values(tmp_path, np.linspace(0.0, 1.0, 37),
                       *random_cells((20, 37)))


def usable_cores(monkeypatch, cores):
    """Make the writer see `cores` usable cores; the list it returns gets
    one entry per fork."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cores", [1, 2, 3, 64])
def test_rows_split_over_the_usable_cores(tmp_path, monkeypatch, tiny_two_rate,
                                          coarse_grid, cores):
    forks = usable_cores(monkeypatch, cores)
    table = value_iteration(tiny_two_rate, coarse_grid)
    rows = len(table.values)
    assert_same_values(tmp_path, coarse_grid.points, table.values, table.margins)
    assert len(forks) == min(cores, rows) - 1  # one child per later part
    values, margins = random_cells((20, 37))
    assert_same_values(tmp_path, np.linspace(0.0, 1.0, 37), values[2:3],
                       margins[2:3])
    assert len(forks) == min(cores, rows) - 1  # one row: no child
    assert_no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["got.csv", "want.csv"]


@pytest.mark.parametrize("fails_in, error, message", [
    ("child", OSError, "no space left in the child"),
    ("parent", OSError, "no space left in the parent"),
    ("fork", OSError, "no second child")], ids=["child", "parent", "fork"])
def test_a_failed_part_raises_and_leaves_no_child(tmp_path, monkeypatch,
                                                  fails_in, error, message):
    forks = usable_cores(monkeypatch, 3)
    parent, lines, fork, waitpid = (os.getpid(), artifacts._value_lines,
                                    os.fork, os.waitpid)
    reaped = []

    def value_lines(*args):
        here = "parent" if os.getpid() == parent else "child"
        if here == fails_in:
            raise OSError(f"no space left in the {here}")
        if fails_in == "fork" and here == "child":
            time.sleep(60)  # only a kill ends the first child in time
        return lines(*args)

    def second_fork_fails():
        if forks:
            raise OSError("no second child")
        return fork()

    def recorded_waitpid(pid, options):
        done = waitpid(pid, options)
        reaped.append(done[1])
        return done

    monkeypatch.setattr(artifacts, "_value_lines", value_lines)
    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    if fails_in == "fork":
        monkeypatch.setattr(os, "fork", second_fork_fails)
    out = tmp_path / "out"
    with pytest.raises(error, match=message):
        write_value_csv(out / "values.csv", "abc123", np.linspace(0.0, 1.0, 37),
                        *random_cells((20, 37)))
    assert_no_child_left()
    if fails_in == "fork":  # the first child was killed; the file never opened
        assert len(reaped) == 1 and os.WTERMSIG(reaped[0]) == 9
        assert not out.exists()
    else:
        assert len(reaped) == 2
        assert [p.name for p in out.iterdir()] == ["values.csv"]


def test_region_codes(tmp_path):
    points = np.linspace(0.0, 1.0, 41)
    codes = np.random.default_rng(5).integers(0, len(Action), size=(18, 41),
                                              dtype=np.int8)
    codes[0, :len(Action)] = list(Action)  # every code
    assert_same_regions(tmp_path, points, codes)
    some = np.where(codes % 2 == 0, codes, 0).astype(np.int8)  # codes 1, 3 lack
    assert_same_regions(tmp_path, points, some)


@pytest.mark.parametrize("bad", [-1, len(Action), 127])
def test_region_code_out_of_range_rejected(tmp_path, bad):
    codes = np.zeros((4, 11), dtype=np.int8)
    codes[2, 5] = bad  # would otherwise read a neighbouring belief's text
    with pytest.raises(ValueError, match="action codes"):
        write_region_csv(tmp_path / "r.csv", "abc123",
                         np.linspace(0.0, 1.0, 11), codes)
