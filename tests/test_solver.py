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
from ehsense.artifacts import row_blocks
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
    def test_matches_scalar_backups_on_random_table(self, tiny_two_rate, coarse_grid):
        rng = np.random.default_rng(3)
        t = table_with(tiny_two_rate, coarse_grid,
                       rng.random((tiny_two_rate.b_max + 1, 101)) * 5)
        stepped = bellman_step(t)
        q_all = stepped.q_block(slice(None))
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
        stepped = bellman_step(zero_table(params, coarse_grid))
        j = list(coarse_grid.points).index(0.5)
        assert stepped.values[10, j] == pytest.approx(max(0.0, 1.5, 1.2))
        q = stepped.q_block(slice(10, 11))
        assert np.isnan(q[Action.LOW_RATE, 0, j])
        assert np.isnan(q[Action.SENSE_TRANSMIT, 0, j])

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
        {"v_init": np.zeros((6, 101))}, {"v_init": np.zeros(101)}],
        ids=["tol_nan", "tol_zero", "tol_negative", "tol_inf", "span_tol_nan",
             "span_tol_negative", "span_tol_zero", "span_tol_inf",
             "v_init_columns", "v_init_extra_row", "v_init_missing_row",
             "v_init_1d"])
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


def full_grid_solve(params, grid, tol, span_tol=None):
    """value_iteration's stop rule and midpoint on plain sweeps of
    `BellmanOperator.step` over every belief column, from zero; values and
    greedy actions from one `q_tables` of the result."""
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
    source = v + c * (hi + lo) / 2.0
    q = op.q_tables(source)
    values = np.fmax.reduce(q)
    return ValueTable(values=values, source=source, actions=greedy_actions(q, values),
                      operator=op, grid=grid, params=params,
                      iterations=sweeps, span=hi - lo, bound=c * (hi - lo) / 2.0)


def core_loop_solve(params, grid, tol, span_tol=None):
    """value_iteration as a loop over the full table: sweeps of
    `BellmanOperator.step` on the core columns, the same stop rule and
    midpoint, then one step per depth layer and a final `q_tables`."""
    op = BellmanOperator(params, grid)
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
    q = op.q_tables(values)
    return np.fmax.reduce(q), q, sweeps


def assert_is_the_core_loop(params, grid, tol, span_tol=None):
    t = value_iteration(params, grid, tol=tol, span_tol=span_tol)
    values, q, sweeps = core_loop_solve(params, grid, tol, span_tol)
    assert t.iterations == sweeps
    assert t.values.tobytes() == values.tobytes()
    assert t.q_block(slice(None)).tobytes() == q.tobytes()


class TestCore:
    """value_iteration iterates the core columns and backs up the rest once."""

    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_compact_core_is_the_core_loop_bit_for_bit(self, cfg, params):
        assert_is_the_core_loop(params, BeliefGrid.from_resolution(cfg.grid_resolution),
                                cfg.tol, cfg.span_tol)

    @pytest.mark.parametrize("lambdas", [(0.0, 1.0), (1.0, 0.0), (0.0005, 0.9995)])
    def test_whole_grid_core_is_the_core_loop_bit_for_bit(self, lambdas, tiny_two_rate,
                                                          coarse_grid):
        params = tiny_two_rate.replace(lambda0=lambdas[0], lambda1=lambdas[1])
        assert_is_the_core_loop(params, coarse_grid, 1e-9)

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
        assert np.array_equal(t.q_block(slice(None)), ref.q_block(slice(None)),
                              equal_nan=True)


class TestQValues:
    """A table renders its Q values block by block from `source`: each block
    is the same rows of `BellmanOperator.q_tables(source)`, and the table's
    values are their NaN-skipping max over actions."""

    @pytest.mark.parametrize("allowed", [None, SINGLE_THRESHOLD_ACTIONS])
    def test_value_iteration_table(self, tiny_two_rate, coarse_grid, allowed):
        t = value_iteration(tiny_two_rate, coarse_grid, allowed=allowed)
        self.check(t, tiny_two_rate, allowed)

    @pytest.mark.parametrize("fixture", ["tiny_params", "tiny_two_rate"])
    def test_bellman_step_table(self, fixture, coarse_grid, request):
        params = request.getfixturevalue(fixture)
        t = zero_table(params, coarse_grid)
        with pytest.raises(ValueError, match="no Q values"):
            t.q_block(slice(None))
        stepped = bellman_step(t)
        self.check(stepped, params, None)
        # the first backup of zero is NaN exactly where an action is
        # infeasible
        feasible = np.zeros((len(Action), params.b_max + 1, 101), dtype=bool)
        for b in range(params.b_max + 1):
            feasible[list(feasible_actions(b, params)), b] = True
        assert np.array_equal(np.isnan(stepped.q_block(slice(None))), ~feasible)
        self.check(bellman_step(stepped), params, None)

    def check_shape(self, q, params):
        assert isinstance(q, np.ndarray) and q.dtype == float
        assert q.shape == (len(Action), params.b_max + 1, 101)

    def check(self, table, params, allowed):
        q = table.q_block(slice(None))
        self.check_shape(q, params)
        assert table.values.tobytes() == np.fmax.reduce(q).tobytes()
        kept = params.actions() if allowed is None else allowed
        for a in Action:
            assert np.isnan(q[a]).all() == (a not in kept)


def some_blocks(n: int) -> list:
    """The writer's blocks of an n-row table, and partial first and last
    blocks that do not start or end on a block edge."""
    return row_blocks(n) + [slice(0, 1), slice(0, 5), slice(5, 21),
                            slice(n - 3, n), slice(n - 1, n), slice(0, n)]


def assert_blocks_are_the_q_tables(table, op):
    whole = op.q_tables(table.source)
    for rows in some_blocks(table.params.b_max + 1):
        assert table.q_block(rows).tobytes() == whole[:, rows].tobytes()


class TestQBlocks:
    """Every block a table renders is byte for byte the same rows of one
    `q_tables` call on the whole table."""

    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_blocks_on_shipped_points(self, cfg, params):
        grid = BeliefGrid.from_resolution(cfg.grid_resolution)
        rng = np.random.default_rng(10)
        t = bellman_step(table_with(params, grid,
                                    rng.random((params.b_max + 1, grid.resolution))))
        assert_blocks_are_the_q_tables(t, BellmanOperator(params, grid))

    @pytest.mark.parametrize("fixture", ["region_params", "tiny_two_rate"])
    def test_blocks_of_the_no_sensing_baseline(self, fixture, coarse_grid, request):
        params = request.getfixturevalue(fixture)
        t = value_iteration(params, coarse_grid, allowed=SINGLE_THRESHOLD_ACTIONS)
        assert t.operator.actions == SINGLE_THRESHOLD_ACTIONS
        assert_blocks_are_the_q_tables(
            t, BellmanOperator(params, coarse_grid, allowed=SINGLE_THRESHOLD_ACTIONS))

    def test_blocks_read_only_the_batteries_they_reach(self, region_params,
                                                       coarse_grid):
        # a block's backups read its own rows, shifted by the harvest and the
        # debits: every other row of the source may hold anything
        t = bellman_step(table_with(region_params, coarse_grid,
                                    np.random.default_rng(11).random((51, 101))))
        rows = slice(20, 36)
        want = t.q_block(rows)
        reached = np.zeros(51, dtype=bool)
        reached[rows.start - region_params.e_tx:rows.stop + 10] = True
        t.source = np.where(reached[:, None], t.source, np.nan)
        assert t.q_block(rows).tobytes() == want.tobytes()


def block_rule(table) -> np.ndarray:
    """Greedy actions by the tie rule applied to `q_block`, one writer block
    at a time: an action within Q_TIE_TOL of the value ties, and the later
    action wins."""
    actions = np.zeros(table.values.shape, dtype=np.int8)
    for rows in row_blocks(len(actions)):
        tied = table.q_block(rows) >= table.values[rows] - Q_TIE_TOL  # NaN: False
        for a in Action:
            actions[rows][tied[a]] = a
    return actions


class TestGreedyActions:
    """A table's greedy actions, kept from its last backup, are the ones the
    tie rule gives on the Q blocks it renders."""

    @pytest.mark.parametrize("allowed", [None, SINGLE_THRESHOLD_ACTIONS])
    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_value_iteration_tables(self, cfg, params, allowed):
        grid = BeliefGrid.from_resolution(cfg.grid_resolution)
        t = value_iteration(params, grid, tol=cfg.tol, span_tol=cfg.span_tol,
                            allowed=allowed)
        assert t.actions.dtype == np.int8
        assert np.array_equal(extract_policy(t).actions, block_rule(t))

    @pytest.mark.parametrize("cfg, params", SHIPPED_POINTS + [OFF_GRID_POINT])
    def test_bellman_step_tables(self, cfg, params):
        # the first backup of zero ties wherever actions pay the same bits
        grid = BeliefGrid.from_resolution(cfg.grid_resolution)
        rng = np.random.default_rng(12)
        for t in (zero_table(params, grid),
                  table_with(params, grid, rng.random((params.b_max + 1, grid.resolution)))):
            stepped = bellman_step(t)
            assert np.array_equal(extract_policy(stepped).actions, block_rule(stepped))

    def test_zero_table_has_no_actions(self, tiny_two_rate, coarse_grid):
        t = zero_table(tiny_two_rate, coarse_grid)
        assert t.actions is None
        with pytest.raises(ValueError, match="no greedy actions"):
            extract_policy(t)


def test_solve_extract_and_write_never_hold_a_whole_q_table(tmp_path, tiny_two_rate):
    # b_max 60 on 501 beliefs: 183k float cells, so the writer stays inline
    # and all of it runs in this process
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
    # the solve's values, source, out and one chunk's work arrays reach about
    # 6x values.nbytes here; a whole [action, battery, belief] array would
    # add 5x on its own (10x in all, as when value_iteration kept one)
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


def test_csv_export_roundtrip(tmp_path, tiny_two_rate, coarse_grid):
    t = value_iteration(tiny_two_rate, coarse_grid)
    path = tmp_path / "values.csv"
    t.write_csv(path, config_hash="abc123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config=abc123"
    assert lines[1].split(",")[:3] == ["battery", "belief", "value"]
    assert len(lines) == 2 + 7 * 101
    first = lines[2].split(",")
    assert first[0] == "0" and float(first[2]) == t.values[0, 0]
