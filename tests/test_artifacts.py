"""The grid CSV writers against a plain `csv.writer` loop over the cells."""
import csv

import numpy as np
import pytest

from ehsense import Action, extract_policy, value_iteration
from ehsense import artifacts
from ehsense.artifacts import open_artifact, write_region_csv, write_value_csv

VALUE_HEADER = ["battery", "belief", "value"] + [f"q_{a.code}" for a in Action]
REGION_HEADER = ["battery", "belief", "action"]


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


def assert_same_values(tmp_path, points, values, q_values, q_block=None):
    """write_value_csv reading `q_block` (slices of `q_values` by default)
    against the reference writer of `q_values`."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_value_csv(got, "abc123", points, values,
                    q_block or (lambda rows: q_values[:, rows]))
    reference_grid_csv(want, "abc123", VALUE_HEADER, points, [values, *q_values])
    assert got.read_bytes() == want.read_bytes()


def assert_same_regions(tmp_path, points, actions):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_region_csv(got, "abc123", points, actions)
    reference_grid_csv(want, "abc123", REGION_HEADER, points, [actions])
    assert got.read_bytes() == want.read_bytes()


def test_single_rate_value_table(tmp_path, tiny_params, coarse_grid):
    table = value_iteration(tiny_params, coarse_grid)
    q = table.q_block(slice(None))
    assert np.isnan(q[Action.LOW_RATE]).all()
    assert_same_values(tmp_path, coarse_grid.points, table.values, q)


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
    q = table.q_block(slice(None))
    columns = [table.values, *q]
    partly_nan = [np.isnan(c).any() and not np.isnan(c).all() for c in columns]
    assert sum(partly_nan) >= 2
    assert_same_values(tmp_path, coarse_grid.points, table.values, q, table.q_block)


def test_region_table(tmp_path, tiny_two_rate, coarse_grid):
    actions = extract_policy(value_iteration(tiny_two_rate, coarse_grid)).actions
    assert actions.dtype == np.int8
    assert_same_regions(tmp_path, coarse_grid.points, actions)


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
    q = rng.normal(size=(len(Action),) + shape)
    q[1][rng.random(shape) < 0.3] = np.nan
    q[2][:, ::5] = 0.0
    values = rng.normal(size=shape)
    pick = rng.integers(0, len(Action) + 1, size=shape)  # len(Action): no match
    for k in range(len(Action)):
        values[pick == k] = q[k][pick == k]
    values[:, ::5][pick[:, ::5] == len(Action)] = -0.0  # against 0.0 in q[2]
    nan_payload = np.array(0x7FF8000000000123, dtype=np.int64).view(np.float64)
    values[3, :4] = nan_payload  # NaN against a NaN or a number
    q[1][3, :2] = np.nan
    assert (np.signbit(values) & (values == 0.0)).any()
    assert_same_values(tmp_path, np.linspace(0.0, 1.0, 37), values, q)


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
