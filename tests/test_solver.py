import csv
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ehsense import (Action, BeliefGrid, BellmanOperator, ConvergenceError,
                     InfeasibleActionError, ValueTable, backup, bellman_step,
                     value_iteration, zero_table)
from ehsense.belief import belief_update_no_obs
from ehsense.config import load_config
from ehsense.model import feasible_actions
from ehsense.policies import SINGLE_THRESHOLD_ACTIONS, extract_policy
from ehsense.solver import Q_TIE_TOL, default_max_iter, greedy_actions

# Every sweep point of the shipped configs.  perfbench/configs/tiny/
# two_rate_regions.yaml is left out: its 51-point grid puts lambda0 = 0.81
# off-grid, where the operator reads the reset continuation at the nearest
# grid point but `backup` interpolates, so the two disagree there (ROADMAP,
# "Off-grid reset reads").
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED_POINTS = [
    pytest.param(cfg, params, id=f"{path.stem}-{label}" if label else path.stem)
    for path in sorted(CONFIGS.glob("*.yaml"))
    for cfg in [load_config(path)]
    for label, params in cfg.sweep_points()]
# the region model with both transition probabilities off its 1001-point grid
OFF_GRID_POINT = pytest.param(
    load_config(CONFIGS / "policy_regions.yaml"),
    load_config(CONFIGS / "policy_regions.yaml").model.replace(
        lambda0=0.6004, lambda1=0.9004), id="policy_regions-off_grid")


def table_with(params, grid, values):
    t = zero_table(params, grid)
    t.values = values
    return t


class TestScalarBackups:
    def test_defer_single_atom_harvest(self, tiny_two_rate, coarse_grid):
        p = tiny_two_rate.replace(energy_pmf=(1.0,))
        rng = np.random.default_rng(0)
        t = table_with(p, coarse_grid, rng.random((p.b_max + 1, 101)))
        for b in (0, 3, 6):
            for x in (0.0, 0.41, 1.0):
                j = p.lambda0 * (1 - x) + p.lambda1 * x
                expect = p.beta * float(coarse_grid.interp(t.values[b], j))
                assert backup(t, Action.DEFER, b, x) == pytest.approx(expect)

    def test_defer_two_point_harvest_from_empty(self, coarse_grid, tiny_two_rate):
        p = tiny_two_rate.replace(energy_pmf=(0.9, 0.0, 0.1), b_max=10, e_tx=4,
                                  e_sense=2)
        rng = np.random.default_rng(1)
        t = table_with(p, coarse_grid, rng.random((11, 101)))
        x = 0.3
        j = p.lambda0 * (1 - x) + p.lambda1 * x
        expect = p.beta * (0.9 * float(coarse_grid.interp(t.values[0], j))
                           + 0.1 * float(coarse_grid.interp(t.values[2], j)))
        assert backup(t, Action.DEFER, 0, x) == pytest.approx(expect)

    def test_myopic_closed_forms(self, tiny_two_rate, coarse_grid):
        p = tiny_two_rate.replace(beta=0.0)
        t = zero_table(p, coarse_grid)
        assert backup(t, Action.LOW_RATE, 2, 0.3) == pytest.approx(p.r_low)
        assert backup(t, Action.HIGH_RATE, 2, 1.0) == pytest.approx(p.r_high)
        assert backup(t, Action.HIGH_RATE, 2, 0.0) == 0.0
        assert backup(t, Action.HIGH_RATE, 2, 0.5) == pytest.approx(1.5)
        assert backup(t, Action.SENSE_TRANSMIT, 2, 0.0) == pytest.approx(0.5 * 1.0)
        assert backup(t, Action.SENSE_TRANSMIT, 2, 1.0) == pytest.approx(0.5 * 3.0)
        assert backup(t, Action.SENSE_TRANSMIT, 2, 0.5) == pytest.approx(0.5 * 2.0)
        assert backup(t, Action.SENSE_DEFER, 2, 1.0) == pytest.approx(0.5 * 3.0)
        assert backup(t, Action.SENSE_DEFER, 2, 0.0) == 0.0
        assert backup(t, Action.SENSE_DEFER, 1, 0.7) == 0.0  # sense-only band, no reward

    def test_low_rate_at_exact_cost_drains_battery(self, tiny_two_rate, coarse_grid):
        p = tiny_two_rate.replace(energy_pmf=(1.0,))
        rng = np.random.default_rng(2)
        t = table_with(p, coarse_grid, rng.random((p.b_max + 1, 101)))
        x = 0.25
        j = p.lambda0 * (1 - x) + p.lambda1 * x
        expect = p.r_low + p.beta * float(coarse_grid.interp(t.values[0], j))
        assert backup(t, Action.LOW_RATE, p.e_tx, x) == pytest.approx(expect)

    def test_infeasible_raises(self, tiny_two_rate, coarse_grid):
        t = zero_table(tiny_two_rate, coarse_grid)
        with pytest.raises(InfeasibleActionError):
            backup(t, Action.HIGH_RATE, 1, 0.5)
        with pytest.raises(InfeasibleActionError):
            backup(t, Action.LOW_RATE, 1, 0.5)
        with pytest.raises(InfeasibleActionError):
            backup(t, Action.SENSE_TRANSMIT, 1, 0.5)
        with pytest.raises(InfeasibleActionError):
            backup(t, Action.SENSE_DEFER, 0, 0.5)


class TestBellmanStep:
    def test_action_set_without_defer_is_rejected(self, tiny_two_rate, coarse_grid):
        with pytest.raises(ValueError, match="must contain DEFER"):
            BellmanOperator(tiny_two_rate, coarse_grid, allowed=(Action.HIGH_RATE,))

    def test_matches_scalar_backups_on_random_table(self, tiny_two_rate, coarse_grid):
        rng = np.random.default_rng(3)
        t = table_with(tiny_two_rate, coarse_grid,
                       rng.random((tiny_two_rate.b_max + 1, 101)) * 5)
        stepped = bellman_step(t)
        q_all = BellmanOperator(tiny_two_rate, coarse_grid).q_tables(t.values)
        for b in range(tiny_two_rate.b_max + 1):
            for j in range(0, 101, 17):
                x = float(coarse_grid.points[j])
                vals = []
                for a in Action:
                    q = q_all[a, b, j]
                    try:
                        want = backup(t, a, b, x)
                    except InfeasibleActionError:
                        assert np.isnan(q)
                        continue
                    assert q == pytest.approx(want, abs=1e-12)
                    vals.append(want)
                assert stepped.values[b, j] == pytest.approx(max(vals), abs=1e-12)

    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS)
    def test_matches_scalar_backups_on_shipped_configs(self, cfg, params):
        resolution = cfg.grid_resolution
        grid = BeliefGrid.from_resolution(resolution)
        rng = np.random.default_rng(7)
        t = table_with(params, grid, rng.random((params.b_max + 1, resolution)) * 5)
        q = BellmanOperator(params, grid).q_tables(t.values)
        batteries = rng.choice(params.b_max + 1, size=12, replace=False)
        beliefs = rng.choice(resolution, size=12, replace=False)
        for b in map(int, batteries):
            for j in map(int, beliefs):
                for a in Action:
                    try:
                        want = backup(t, a, b, float(grid.points[j]))
                    except InfeasibleActionError:
                        assert np.isnan(q[a, b, j])
                        continue
                    assert q[a, b, j] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("fixture", ["tiny_params", "tiny_two_rate"])
    def test_step_is_the_max_of_q_tables(self, fixture, coarse_grid, request):
        params = request.getfixturevalue(fixture)
        rng = np.random.default_rng(5)
        for allowed in (None, (Action.DEFER, Action.HIGH_RATE)):
            op = BellmanOperator(params, coarse_grid, allowed=allowed)
            for _ in range(5):
                V = rng.random((params.b_max + 1, 101)) * 10
                q = op.q_tables(V)
                assert np.array_equal(np.fmax.reduce([q[a] for a in op.actions]),
                                      op.step(V))

    @pytest.mark.parametrize("fixture", ["tiny_params", "tiny_two_rate"])
    def test_step_and_q_tables_return_fresh_arrays(self, fixture, coarse_grid,
                                                    request):
        params = request.getfixturevalue(fixture)
        op = BellmanOperator(params, coarse_grid)
        V = np.random.default_rng(6).random((params.b_max + 1, 101)) * 10
        for backup_of in (op.step, op.q_tables):
            first, second = backup_of(V), backup_of(V)
            assert first is not second and not np.shares_memory(first, second)
            kept = second.copy()
            first[...] = -1.0
            assert np.array_equal(second, kept, equal_nan=True)

    @pytest.mark.parametrize("fixture", ["tiny_params", "tiny_two_rate", "region_params"])
    def test_recording_keeps_the_max_and_fills_only_its_columns(self, fixture,
                                                                coarse_grid, request):
        # the running top two gives the plain max's bits, and records actions
        # and margins on the stepped columns alone (all 101 are two chunks)
        params = request.getfixturevalue(fixture)
        op = BellmanOperator(params, coarse_grid)
        shape = (params.b_max + 1, 101)
        for V in (np.zeros(shape), np.random.default_rng(13).random(shape) * 10):
            q_all = op.q_tables(V)
            for cols in (np.arange(101), np.arange(3, 101, 7)):
                actions, margins = np.full(shape, -1, dtype=np.int8), np.full(shape, np.nan)
                assert (op.step(V, cols, actions, margins).tobytes()
                        == op.step(V, cols).tobytes())
                rest = np.setdiff1d(np.arange(101), cols)
                assert (actions[:, rest] == -1).all() and np.isnan(margins[:, rest]).all()
                q = q_all[:, :, cols]
                assert np.array_equal(actions[:, cols], tie_rule(q))
                assert margins[:, cols].tobytes() == runner_up_rule(q).tobytes()

    def test_column_chunks_leave_every_bit(self, tiny_two_rate, coarse_grid,
                                           monkeypatch):
        from ehsense import solver
        op = BellmanOperator(tiny_two_rate, coarse_grid)
        V = np.random.default_rng(9).random((tiny_two_rate.b_max + 1, 101)) * 10
        cols, none = np.arange(3, 101, 7), np.array([], dtype=int)
        whole = [op.q_tables(V), op.step(V), op.step(V, cols)]
        assert op.step(V, none).shape == (tiny_two_rate.b_max + 1, 0)
        monkeypatch.setattr(solver, "_CHUNK_COLUMNS", 3)
        assert len(op.compile()._chunks) > 1
        chunked = [op.q_tables(V), op.step(V), op.step(V, cols)]
        for a, b in zip(whole, chunked):
            assert a.tobytes() == b.tobytes()

    def test_myopic_step_from_zero(self, coarse_grid, tiny_two_rate):
        stepped = bellman_step(zero_table(tiny_two_rate, coarse_grid))
        p = coarse_grid.points
        tau = tiny_two_rate.tau
        want = np.maximum.reduce([
            np.full_like(p, tiny_two_rate.r_low),
            p * tiny_two_rate.r_high,
            (1 - tau) * p * tiny_two_rate.r_high,
            (1 - tau) * (p * tiny_two_rate.r_high + (1 - p) * tiny_two_rate.r_low),
        ]) * tiny_two_rate.beta ** 0  # horizon-1 values
        for b in range(tiny_two_rate.e_tx, tiny_two_rate.b_max + 1):
            assert np.allclose(stepped.values[b], want)
        assert np.all(stepped.values[:tiny_two_rate.e_tx] == 0.0)

    def test_single_rate_myopic_example(self, coarse_grid):
        from conftest import two_point_pmf
        from ehsense import SystemParams
        params = SystemParams(lambda0=0.6, lambda1=0.9,
                              energy_pmf=two_point_pmf(0.1, 10), b_max=50,
                              e_tx=10, e_sense=2, r_low=0.0, r_high=3.0, beta=0.98)
        t = zero_table(params, coarse_grid)
        stepped = bellman_step(t)
        j = list(coarse_grid.points).index(0.5)
        assert stepped.values[10, j] == pytest.approx(max(0.0, 1.5, 1.2))
        assert stepped.margins[10, j] == pytest.approx(1.5 - 1.2)
        q = BellmanOperator(params, coarse_grid).q_tables(t.values)
        assert np.isnan(q[Action.LOW_RATE, 10, j])
        assert np.isnan(q[Action.SENSE_TRANSMIT, 10, j])

    def test_contraction_in_sup_norm(self, tiny_two_rate, coarse_grid):
        rng = np.random.default_rng(4)
        op = BellmanOperator(tiny_two_rate, coarse_grid)
        for _ in range(10):
            u = rng.random((7, 101)) * 10
            w = rng.random((7, 101)) * 10
            lhs = np.max(np.abs(op.step(u) - op.step(w)))
            assert lhs <= tiny_two_rate.beta * np.max(np.abs(u - w)) + 1e-12


class TestValueIteration:
    def test_monotone_iterates_from_zero(self, tiny_two_rate, coarse_grid):
        op = BellmanOperator(tiny_two_rate, coarse_grid)
        v = np.zeros((7, 101))
        for _ in range(30):
            nxt = op.step(v)
            assert np.all(nxt >= v - 1e-12)
            v = nxt

    def test_zero_discount_converges_in_two_sweeps(self, tiny_two_rate, coarse_grid):
        t = value_iteration(tiny_two_rate.replace(beta=0.0), coarse_grid)
        assert t.iterations == 2
        assert t.span == 0.0
        assert t.bound == 0.0

    def test_no_energy_no_value_at_empty_battery(self, tiny_params, coarse_grid):
        starved = tiny_params.replace(energy_pmf=(1.0,))
        t = value_iteration(starved, coarse_grid)
        assert np.all(t.values[0] == 0.0)
        assert np.all(t.values[1] == 0.0)  # below e_tx, sensing earns nothing

    def test_value_bounded_by_reward_stream(self, tiny_two_rate, coarse_grid):
        t = value_iteration(tiny_two_rate, coarse_grid)
        assert np.all(t.values >= 0)
        assert np.all(t.values <= tiny_two_rate.r_high / (1 - tiny_two_rate.beta))

    def test_nonconvergence_raises_with_residual(self, tiny_two_rate, coarse_grid):
        with pytest.raises(ConvergenceError) as err:
            value_iteration(tiny_two_rate, coarse_grid, tol=1e-12, max_iter=3)
        assert err.value.span > 2e-12
        assert err.value.iterations == 3

    def test_sup_norm_rule_is_recorded(self, tiny_two_rate, coarse_grid):
        beta = tiny_two_rate.beta
        t = value_iteration(tiny_two_rate, coarse_grid, tol=1e-9)
        assert t.span <= 2e-9
        assert t.bound == beta / (1 - beta) * t.span / 2
        assert t.bound <= beta / (1 - beta) * 1e-9

    def test_span_rule_is_recorded(self, tiny_two_rate, coarse_grid):
        params = replace(tiny_two_rate, beta=0.999)
        t = value_iteration(params, coarse_grid, tol=1e-5, span_tol=1e-6)
        assert t.span <= 1e-6  # binding: 2 * tol would allow 2e-5
        assert t.bound <= 0.999 / 0.001 * 1e-6 / 2
        assert value_iteration(params, coarse_grid, tol=1e-5).iterations < t.iterations

    @pytest.mark.parametrize("kwargs", [
        {"tol": float("nan")}, {"tol": 0.0}, {"tol": -1e-9}, {"tol": float("inf")},
        {"span_tol": float("nan")}, {"span_tol": -1.0}, {"span_tol": 0.0},
        {"span_tol": float("inf")},
        {"v_init": np.zeros((7, 1001))}, {"v_init": np.zeros((8, 101))},
        {"v_init": np.zeros((6, 101))}, {"v_init": np.zeros(101)},
        {"max_iter": 0}],
        ids=["tol_nan", "tol_zero", "tol_negative", "tol_inf", "span_tol_nan",
             "span_tol_negative", "span_tol_zero", "span_tol_inf",
             "v_init_columns", "v_init_extra_row", "v_init_missing_row",
             "v_init_1d", "max_iter_zero"])
    def test_rejects_bad_arguments(self, kwargs, tiny_two_rate, coarse_grid):
        with pytest.raises(ValueError):
            value_iteration(tiny_two_rate, coarse_grid, **kwargs)

    def test_default_budget_scales_with_discount(self):
        assert default_max_iter(0.0) == 100
        assert default_max_iter(0.98) == 5000
        assert default_max_iter(0.999) == 100000

    def test_warm_start_reaches_same_fixed_point(self, tiny_two_rate, coarse_grid):
        cold = value_iteration(tiny_two_rate, coarse_grid, tol=1e-10)
        v_init = cold.values + 3.0
        warm = value_iteration(tiny_two_rate, coarse_grid, tol=1e-10,
                               v_init=v_init)
        assert np.array_equal(v_init, cold.values + 3.0)  # left unchanged
        assert np.max(np.abs(warm.values - cold.values)) < 1e-8
        assert warm.iterations < cold.iterations

    @pytest.mark.parametrize("beta", [0.9, 0.98, 0.99])
    @pytest.mark.parametrize("allowed", [None, SINGLE_THRESHOLD_ACTIONS])
    @pytest.mark.parametrize("fixture", ["tiny_params", "tiny_two_rate"])
    def test_values_lie_within_the_bound_of_the_fixed_point(
            self, fixture, allowed, beta, coarse_grid, request):
        # the referee iterates plain sweeps to a sup-norm change <= 1e-13,
        # independent of value_iteration's stop rule; its own error, at most
        # beta / (1 - beta) * 1e-13 <= 1e-11, is far below the bounds checked
        params = request.getfixturevalue(fixture).replace(beta=beta)
        op = BellmanOperator(params, coarse_grid, allowed=allowed)
        v_star = np.zeros((params.b_max + 1, 101))
        for _ in range(10_000):
            nxt = op.step(v_star)
            change = np.max(np.abs(nxt - v_star))
            v_star = nxt
            if change <= 1e-13:
                break
        assert change <= 1e-13
        cold = value_iteration(params, coarse_grid, allowed=allowed)
        warm = value_iteration(params, coarse_grid, allowed=allowed,
                               v_init=cold.values + 3.0)
        for t in (cold, warm):
            assert np.max(np.abs(t.values - v_star)) <= t.bound + 1e-12
            assert t.bound <= beta / (1 - beta) * 1e-9

    def test_restricted_action_set_never_beats_full(self, tiny_two_rate, coarse_grid):
        full = value_iteration(tiny_two_rate, coarse_grid)
        no_sense = value_iteration(tiny_two_rate, coarse_grid,
                                   allowed=(Action.DEFER, Action.HIGH_RATE))
        assert np.all(no_sense.values <= full.values + 1e-9)


def runner_up_rule(q) -> np.ndarray:
    """Best minus runner-up of each cell of the backups q [action, battery,
    belief], NaN where not backed up: inf where one action is."""
    ranked = np.sort(np.where(np.isnan(q), -np.inf, q), axis=0)
    return ranked[-1] - ranked[-2]


def tie_rule(q) -> np.ndarray:
    """Greedy actions of the backups q, NaN where not backed up: an action
    within Q_TIE_TOL of the max ties, and the later action wins."""
    tied = q >= np.fmax.reduce(q) - Q_TIE_TOL  # NaN: False
    actions = np.zeros(q.shape[1:], dtype=np.int8)
    for a in Action:
        actions[tied[a]] = a
    return actions


def assert_recorded_from(table, q):
    """The table's values, margins and actions are those of the backups q."""
    assert table.values.tobytes() == np.fmax.reduce(q).tobytes()
    assert table.margins.tobytes() == runner_up_rule(q).tobytes()
    assert table.actions.dtype == np.int8
    assert np.array_equal(table.actions, tie_rule(q))


def full_grid_solve(params, grid, tol, span_tol=None):
    """value_iteration's stop rule and midpoint on plain sweeps of
    `BellmanOperator.step` over every belief column, from zero; values,
    greedy actions and margins from one `q_tables` of the result."""
    op = BellmanOperator(params, grid)
    v = np.zeros((params.b_max + 1, grid.resolution))
    limit = 2.0 * tol if span_tol is None else min(2.0 * tol, span_tol)
    for sweeps in range(1, default_max_iter(params.beta) + 1):
        nxt = op.step(v)
        change = nxt - v
        hi, lo = float(change.max()), float(change.min())
        v = nxt
        if hi - lo <= limit:
            break
    c = params.beta / (1.0 - params.beta)
    q = op.q_tables(v + c * (hi + lo) / 2.0)
    values = np.fmax.reduce(q)
    return ValueTable(values=values, actions=greedy_actions(q, values),
                      margins=runner_up_rule(q), grid=grid, params=params,
                      iterations=sweeps, span=hi - lo, bound=c * (hi - lo) / 2.0)


def core_loop_solve(params, grid, tol, span_tol=None, allowed=None):
    """value_iteration as a loop over the full table: sweeps of
    `BellmanOperator.step` on the core columns, the same stop rule and
    midpoint, then one step per depth layer.  Returns the `q_tables` of the
    result and the number of sweeps."""
    op = BellmanOperator(params, grid, allowed=allowed)
    depth = op.depths()
    core = np.flatnonzero(depth == 0)
    values = np.zeros((params.b_max + 1, grid.resolution))
    limit = 2.0 * tol if span_tol is None else min(2.0 * tol, span_tol)
    for sweeps in range(1, default_max_iter(params.beta) + 1):
        new = op.step(values, core)
        change = new - values[:, core]
        hi, lo = float(change.max()), float(change.min())
        values[:, core] = new
        if hi - lo <= limit:
            break
    c = params.beta / (1.0 - params.beta)
    values[:, core] = new + c * (hi + lo) / 2.0
    for d in range(1, depth.max() + 1):
        cols = np.flatnonzero(depth == d)
        values[:, cols] = op.step(values, cols)
    return op.q_tables(values), sweeps


def assert_is_the_core_loop(params, grid, tol, span_tol=None, allowed=None):
    """value_iteration takes the core loop's sweeps to its values; returns
    the table and the core loop's backups."""
    t = value_iteration(params, grid, tol=tol, span_tol=span_tol, allowed=allowed)
    q, sweeps = core_loop_solve(params, grid, tol, span_tol, allowed)
    assert t.iterations == sweeps
    assert t.values.tobytes() == np.fmax.reduce(q).tobytes()
    return t, q


class TestCore:
    """value_iteration iterates the core columns and backs up the rest once."""

    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_compact_core_is_the_core_loop_bit_for_bit(self, cfg, params):
        assert_is_the_core_loop(params, BeliefGrid.from_resolution(cfg.grid_resolution),
                                cfg.tol, cfg.span_tol)

    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_no_sensing_core_is_the_core_loop_bit_for_bit(self, cfg, params):
        assert_is_the_core_loop(params, BeliefGrid.from_resolution(cfg.grid_resolution),
                                cfg.tol, cfg.span_tol, SINGLE_THRESHOLD_ACTIONS)

    @pytest.mark.parametrize("lambdas", [(0.0, 1.0), (1.0, 0.0), (0.0005, 0.9995)])
    def test_whole_grid_core_is_the_core_loop_bit_for_bit(self, lambdas, tiny_two_rate,
                                                          coarse_grid):
        params = tiny_two_rate.replace(lambda0=lambdas[0], lambda1=lambdas[1])
        assert_recorded_from(*assert_is_the_core_loop(params, coarse_grid, 1e-9))

    def test_compiled_columns_must_be_closed(self, tiny_two_rate, coarse_grid):
        op = BellmanOperator(tiny_two_rate, coarse_grid)
        core = np.flatnonzero(op.depths() == 0)
        op.compile(core, at=core)
        rest = np.flatnonzero(op.depths() > 0)
        with pytest.raises(ValueError, match="outside the table"):
            op.compile(rest, at=rest)

    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_core_is_closed_and_the_rest_reads_shallower(self, cfg, params):
        grid = BeliefGrid.from_resolution(cfg.grid_resolution)
        depth = BellmanOperator(params, grid).depths()
        lo, _ = grid.locate(belief_update_no_obs(grid.points, params))
        core = depth == 0
        assert core[grid.nearest_index(params.lambda0)]
        assert core[grid.nearest_index(params.lambda1)]
        assert np.all(core[lo[core]]) and np.all(core[lo[core] + 1])
        rest = ~core
        assert np.all(depth[rest] > depth[lo[rest]])
        assert np.all(depth[rest] > depth[lo[rest] + 1])
        assert np.count_nonzero(core) < grid.resolution // 10

    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_matches_the_full_grid_loop(self, cfg, params):
        grid = BeliefGrid.from_resolution(cfg.grid_resolution)
        t = value_iteration(params, grid, tol=cfg.tol, span_tol=cfg.span_tol)
        ref = full_grid_solve(params, grid, cfg.tol, cfg.span_tol)
        assert np.max(np.abs(t.values - ref.values)) <= t.bound + ref.bound
        assert np.array_equal(extract_policy(t).actions,
                              extract_policy(ref).actions)
        assert t.core_columns == np.count_nonzero(
            BellmanOperator(params, grid).depths() == 0)

    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_step_on_columns_is_the_full_step_there(self, cfg, params):
        grid = BeliefGrid.from_resolution(cfg.grid_resolution)
        op = BellmanOperator(params, grid)
        rng = np.random.default_rng(8)
        V = rng.random((params.b_max + 1, grid.resolution)) * 10
        full = op.step(V)
        depth = op.depths()
        subsets = [np.flatnonzero(depth == d) for d in range(depth.max() + 1)]
        subsets.append(rng.permutation(grid.resolution)[:37])  # unsorted
        for cols in subsets:
            assert op.step(V, cols).tobytes() == full[:, cols].tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.537, 1.0])
    def test_a_memoryless_channel_has_a_two_column_core(self, lam, tiny_two_rate,
                                                         coarse_grid):
        params = tiny_two_rate.replace(lambda0=lam, lambda1=lam)
        t = value_iteration(params, coarse_grid)
        assert t.core_columns == 2
        ref = full_grid_solve(params, coarse_grid, 1e-9)
        assert np.max(np.abs(t.values - ref.values)) <= t.bound + ref.bound

    @pytest.mark.parametrize("lambdas", [(0.0, 1.0), (1.0, 0.0), (0.0005, 0.9995)])
    def test_whole_grid_core_runs_the_full_grid_loop(self, lambdas, tiny_two_rate,
                                                     coarse_grid):
        params = tiny_two_rate.replace(lambda0=lambdas[0], lambda1=lambdas[1])
        t = value_iteration(params, coarse_grid)
        ref = full_grid_solve(params, coarse_grid, 1e-9)
        assert t.core_columns == coarse_grid.resolution
        assert t.iterations == ref.iterations
        assert np.array_equal(t.values, ref.values)
        assert np.array_equal(t.actions, ref.actions)
        assert t.margins.tobytes() == ref.margins.tobytes()


class TestQValues:
    """`q_tables` is NaN exactly where an action is infeasible or not
    allowed, and a table's values, margins and greedy actions are those of
    the `q_tables` of the values its last sweep read."""

    @pytest.mark.parametrize("allowed", [None, SINGLE_THRESHOLD_ACTIONS])
    def test_value_iteration_table(self, tiny_two_rate, coarse_grid, allowed):
        t = value_iteration(tiny_two_rate, coarse_grid, allowed=allowed)
        op = BellmanOperator(tiny_two_rate, coarse_grid, allowed=allowed)
        q = op.q_tables(t.values)
        self.check_shape(q, tiny_two_rate)
        kept = tiny_two_rate.actions() if allowed is None else allowed
        for a in Action:
            assert np.isnan(q[a]).all() == (a not in kept)
        # the margin is inf exactly where one action is backed up
        assert np.array_equal(np.isinf(t.margins),
                              np.count_nonzero(~np.isnan(q), axis=0) == 1)

    @pytest.mark.parametrize("fixture", ["tiny_params", "tiny_two_rate"])
    def test_bellman_step_table(self, fixture, coarse_grid, request, tmp_path):
        params = request.getfixturevalue(fixture)
        op = BellmanOperator(params, coarse_grid)
        t = zero_table(params, coarse_grid)
        assert t.margins is None
        with pytest.raises(ValueError, match="no margins"):
            t.write_csv(tmp_path / "values.csv")
        stepped = bellman_step(t)
        q = op.q_tables(t.values)
        self.check_shape(q, params)
        assert_recorded_from(stepped, q)
        # the first backup of zero is NaN exactly where an action is
        # infeasible
        feasible = np.zeros((len(Action), params.b_max + 1, 101), dtype=bool)
        for b in range(params.b_max + 1):
            feasible[list(feasible_actions(b, params)), b] = True
        assert np.array_equal(np.isnan(q), ~feasible)
        assert_recorded_from(bellman_step(stepped), op.q_tables(stepped.values))

    def check_shape(self, q, params):
        assert isinstance(q, np.ndarray) and q.dtype == float
        assert q.shape == (len(Action), params.b_max + 1, 101)


class TestGreedyActions:
    """A table's greedy actions, kept from its last backup, are the ones the
    tie rule gives on that backup's Q values, and always allowed ones."""

    @pytest.mark.parametrize("allowed", [None, SINGLE_THRESHOLD_ACTIONS])
    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_value_iteration_tables(self, cfg, params, allowed):
        # the depth pass and the final core step back up the core loop's
        # table; their actions reach the policy, their margins the table
        grid = BeliefGrid.from_resolution(cfg.grid_resolution)
        t = value_iteration(params, grid, tol=cfg.tol, span_tol=cfg.span_tol,
                            allowed=allowed)
        q, _ = core_loop_solve(params, grid, cfg.tol, cfg.span_tol, allowed)
        assert t.actions.dtype == np.int8
        assert np.array_equal(extract_policy(t).actions, tie_rule(q))
        assert t.margins.tobytes() == runner_up_rule(q).tobytes()

    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_bellman_step_tables(self, cfg, params):
        # the first backup of zero ties wherever actions pay the same bits
        grid = BeliefGrid.from_resolution(cfg.grid_resolution)
        op = BellmanOperator(params, grid)
        rng = np.random.default_rng(12)
        for t in (zero_table(params, grid),
                  table_with(params, grid, rng.random((params.b_max + 1, grid.resolution)))):
            assert_recorded_from(bellman_step(t), op.q_tables(t.values))

    @pytest.mark.parametrize("fixture", ["region_params", "tiny_two_rate"])
    def test_no_sensing_baseline_never_senses(self, fixture, coarse_grid, request):
        params = request.getfixturevalue(fixture)
        t = value_iteration(params, coarse_grid, allowed=SINGLE_THRESHOLD_ACTIONS)
        outside = [a for a in Action if a not in SINGLE_THRESHOLD_ACTIONS]
        assert {Action.SENSE_DEFER, Action.SENSE_TRANSMIT} <= set(outside)
        assert not np.isin(extract_policy(t).actions, outside).any()

    def test_zero_table_has_no_actions(self, tiny_two_rate, coarse_grid):
        t = zero_table(tiny_two_rate, coarse_grid)
        assert t.actions is None
        with pytest.raises(ValueError, match="no greedy actions"):
            extract_policy(t)


def test_solve_extract_and_write_never_hold_a_whole_q_table(tmp_path, tiny_two_rate):
    params = tiny_two_rate.replace(b_max=60, e_tx=10, e_sense=3,
                                   energy_pmf=(0.5, 0.0, 0.0, 0.5))
    grid = BeliefGrid.from_resolution(501)
    t = value_iteration(params, grid)
    extract_policy(t)  # warm caches outside the trace
    tracemalloc.start()
    try:
        t = value_iteration(params, grid)
        extract_policy(t)
        t.write_csv(tmp_path / "values.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the solve's values, margins, out and one chunk's work arrays stay
    # below 6x values.nbytes here; a whole [action, battery, belief] array
    # would add 5x on its own (10x in all, as when value_iteration kept one)
    assert peak < 8 * t.values.nbytes


class TestOracleAgreement:
    def test_truncations_match_exact_recursion(self, tiny_params, fine_grid):
        from ehsense import compare_with_solver
        for n in (1, 2, 4):
            res = compare_with_solver(tiny_params, fine_grid, n)
            assert res.max_abs_gap_vs_solver <= 10 * fine_grid.step * n * tiny_params.r_high

    def test_two_rate_truncations_match(self, tiny_two_rate, fine_grid):
        from ehsense import compare_with_solver
        res = compare_with_solver(tiny_two_rate, fine_grid, 3)
        assert res.max_abs_gap_vs_solver <= 10 * fine_grid.step * 3 * tiny_two_rate.r_high

    def test_frozen_two_step_values_via_grid(self, tiny_params, fine_grid):
        # 0.3 and J(0.3)=0.45 are on the 1001-point grid: agreement is exact
        t = bellman_step(bellman_step(zero_table(tiny_params, fine_grid)))
        j = fine_grid.nearest_index(0.3)
        for b, want in [(1, 0.2025), (2, 0.405), (3, 0.5025), (4, 0.705)]:
            assert t.values[b, j] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("allowed", [None, SINGLE_THRESHOLD_ACTIONS])
@pytest.mark.parametrize("fixture", ["tiny_params", "tiny_two_rate"])
def test_csv_export_roundtrip(tmp_path, coarse_grid, fixture, allowed, request):
    params = request.getfixturevalue(fixture)
    t = value_iteration(params, coarse_grid, allowed=allowed)
    path = tmp_path / "values.csv"
    t.write_csv(path, config_hash="abc123")
    with open(path, newline="") as f:
        assert f.readline() == "# config=abc123\n"
        header, *rows = csv.reader(f)
    assert header == ["battery", "belief", "value", "margin"]
    shape = t.values.shape
    assert len(rows) == t.values.size
    assert [(int(b), float(p)) for b, p, _, _ in rows] == [
        (b, float(p)) for b in range(shape[0]) for p in coarse_grid.points]
    values = np.array([float(v) for _, _, v, _ in rows]).reshape(shape)
    assert values.tobytes() == t.values.tobytes()
    # an empty margin is a cell with one feasible (and allowed) action
    kept = params.actions() if allowed is None else allowed
    lone = [len(set(feasible_actions(b, params)) & set(kept)) == 1
            for b in range(shape[0])]
    empty = np.array([m == "" for _, _, _, m in rows]).reshape(shape)
    assert np.array_equal(empty, np.repeat(lone, shape[1]).reshape(shape))
    assert empty.any() and not empty.all()
    margins = np.array([float(m) if m else np.inf for _, _, _, m in rows])
    assert margins.reshape(shape).tobytes() == t.margins.tobytes()
