"""The grid CSV writer against a plain `csv.writer` loop over the cells."""
import csv

import numpy as np
import pytest

from ehsense import Action, extract_policy, value_iteration
from ehsense import artifacts
from ehsense.artifacts import open_artifact, write_grid_csv


def reference_grid_csv(path, config_hash, header, points, columns):
    """One `csv.writer` row per (battery, belief) cell; NaN cells empty."""
    with open_artifact(path, config_hash) as f:
        w = csv.writer(f)
        w.writerow(header)
        for b in range(len(columns[0])):
            for j, p in enumerate(points.tolist()):
                cells = [col[b, j].item() for col in columns]
                w.writerow([b, repr(p)] + ["" if c != c else repr(c)
                                           for c in cells])


def assert_same_bytes(tmp_path, header, points, columns):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_grid_csv(got, "abc123", header, points, columns)
    reference_grid_csv(want, "abc123", header, points, columns)
    assert got.read_bytes() == want.read_bytes()


def value_columns(table):
    header = ["battery", "belief", "value"] + [f"q_{a.code}" for a in Action]
    return header, [table.values] + [table.q_values[a] for a in Action]


def test_single_rate_value_table(tmp_path, tiny_params, coarse_grid):
    table = value_iteration(tiny_params, coarse_grid)
    assert np.isnan(table.q_values[Action.LOW_RATE]).all()
    header, columns = value_columns(table)
    assert_same_bytes(tmp_path, header, coarse_grid.points, columns)


@pytest.fixture(params=["inline", "fan-out"])
def path_taken(request, monkeypatch):
    if request.param == "fan-out":
        if not artifacts._workers(artifacts._FANOUT_MIN_FLOAT_CELLS, 10**4):
            pytest.skip("one core, no fork start method or a pool that may "
                        "fork on demand: always inline")
        monkeypatch.setattr(artifacts, "_FANOUT_MIN_FLOAT_CELLS", 1)
        monkeypatch.setattr(artifacts, "_TASK_ROWS", 2)  # several tasks
    else:
        monkeypatch.setattr(artifacts, "_FANOUT_MIN_FLOAT_CELLS", 10**12)
    return request.param


def test_two_rate_value_table(tmp_path, tiny_two_rate, coarse_grid, path_taken):
    table = value_iteration(tiny_two_rate, coarse_grid)
    header, columns = value_columns(table)
    partly_nan = [np.isnan(c).any() and not np.isnan(c).all() for c in columns]
    assert sum(partly_nan) >= 2
    assert_same_bytes(tmp_path, header, coarse_grid.points, columns)


def test_region_table(tmp_path, tiny_two_rate, coarse_grid):
    actions = extract_policy(value_iteration(tiny_two_rate, coarse_grid)).actions
    assert actions.dtype == np.int8
    assert_same_bytes(tmp_path, ["battery", "belief", "action"],
                      coarse_grid.points, [actions])


def test_small_tables_one_task_old_pools_and_one_core_stay_inline(monkeypatch):
    many_rows = 100 * artifacts._TASK_ROWS
    assert artifacts._workers(artifacts._FANOUT_MIN_FLOAT_CELLS - 1, many_rows) == 0
    assert artifacts._workers(10**9, artifacts._TASK_ROWS) == 0
    monkeypatch.setattr(artifacts, "_POOL_FORKS_UP_FRONT", False)
    assert artifacts._workers(10**9, many_rows) == 0
    monkeypatch.undo()
    monkeypatch.setattr(artifacts.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert artifacts._workers(10**9, many_rows) == 0


def test_workers_never_outnumber_tasks(monkeypatch):
    if not artifacts._workers(10**9, 10**4):
        pytest.skip("one core, no fork start method or a pool that may "
                    "fork on demand: always inline")
    monkeypatch.setattr(artifacts.os, "sched_getaffinity",
                        lambda pid: set(range(64)), raising=False)
    assert artifacts._workers(10**9, 3 * artifacts._TASK_ROWS) == 3


def test_first_column_reuses_only_bit_equal_texts(tmp_path, path_taken):
    rng = np.random.default_rng(7)
    shape = (20, 37)
    later = [rng.normal(size=shape) for _ in range(3)]
    later[1][rng.random(shape) < 0.3] = np.nan
    later[2][:, ::5] = 0.0
    first = rng.normal(size=shape)
    pick = rng.integers(0, 4, size=shape)  # 3: no later column matches
    for k in range(3):
        first[pick == k] = later[k][pick == k]
    first[:, ::5][pick[:, ::5] == 3] = -0.0  # against 0.0 in later[2]
    nan_payload = np.array(0x7FF8000000000123, dtype=np.int64).view(np.float64)
    first[3, :4] = nan_payload  # NaN against a NaN or a number
    later[1][3, :2] = np.nan
    assert (np.signbit(first) & (first == 0.0)).any()
    columns = [first] + later
    assert_same_bytes(tmp_path, ["battery", "belief", "first", "a", "b", "c"],
                      np.linspace(0.0, 1.0, 37), columns)


@pytest.mark.parametrize("dtype, low, high", [
    (np.int8, -7, 4), (np.int8, -128, 127), (np.int16, -300, 400),
    (np.int64, -2**63, -2**63 + 5), (np.uint64, 2**64 - 6, 2**64 - 1)])
def test_integer_code_ranges(tmp_path, path_taken, monkeypatch, dtype, low, high):
    if path_taken == "fan-out":  # a table without float cells, too
        monkeypatch.setattr(artifacts, "_FANOUT_MIN_FLOAT_CELLS", 0)
    codes = np.random.default_rng(5).integers(low, high, size=(18, 41),
                                              dtype=dtype, endpoint=True)
    codes[0, :2] = low, high
    assert_same_bytes(tmp_path, ["battery", "belief", "action"],
                      np.linspace(0.0, 1.0, 41), [codes])
