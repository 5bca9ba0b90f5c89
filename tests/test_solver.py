from dataclasses import replace

import numpy as np
import pytest

from ehsense import (Action, BellmanOperator, ConvergenceError,
                     InfeasibleActionError, backup, bellman_step,
                     value_iteration, zero_table)
from ehsense.policies import SINGLE_THRESHOLD_ACTIONS
from ehsense.solver import default_max_iter


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
        for b in range(tiny_two_rate.b_max + 1):
            for j in range(0, 101, 17):
                x = float(coarse_grid.points[j])
                vals = []
                for a in Action:
                    q = stepped.q_values[a][b, j]
                    try:
                        want = backup(t, a, b, x)
                    except InfeasibleActionError:
                        assert np.isnan(q)
                        continue
                    assert q == pytest.approx(want, abs=1e-12)
                    vals.append(want)
                assert stepped.values[b, j] == pytest.approx(max(vals), abs=1e-12)

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
        assert np.isnan(stepped.q_values[Action.LOW_RATE][10, j])
        assert np.isnan(stepped.q_values[Action.SENSE_TRANSMIT][10, j])

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

    def test_default_budget_scales_with_discount(self):
        assert default_max_iter(0.0) == 100
        assert default_max_iter(0.98) == 5000
        assert default_max_iter(0.999) == 100000

    def test_warm_start_reaches_same_fixed_point(self, tiny_two_rate, coarse_grid):
        cold = value_iteration(tiny_two_rate, coarse_grid, tol=1e-10)
        warm = value_iteration(tiny_two_rate, coarse_grid, tol=1e-10,
                               v_init=cold.values + 3.0)
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


class TestQValues:
    """q_values is one [action, battery, belief] array whose NaN-skipping
    max over actions is the table's values."""

    @pytest.mark.parametrize("allowed", [None, SINGLE_THRESHOLD_ACTIONS])
    def test_value_iteration_table(self, tiny_two_rate, coarse_grid, allowed):
        t = value_iteration(tiny_two_rate, coarse_grid, allowed=allowed)
        self.check(t, tiny_two_rate, allowed)

    @pytest.mark.parametrize("fixture", ["tiny_params", "tiny_two_rate"])
    def test_bellman_step_table(self, fixture, coarse_grid, request):
        params = request.getfixturevalue(fixture)
        t = zero_table(params, coarse_grid)
        self.check(t, params, None)
        stepped = bellman_step(t)
        # zero_table's Q-values are zero exactly where the operator backs up
        assert np.array_equal(np.isnan(t.q_values), np.isnan(stepped.q_values))
        assert np.all(t.q_values[~np.isnan(t.q_values)] == 0.0)
        self.check(bellman_step(stepped), params, None)

    def check_shape(self, q, params):
        assert isinstance(q, np.ndarray) and q.dtype == float
        assert q.shape == (len(Action), params.b_max + 1, 101)

    def check(self, table, params, allowed):
        q = table.q_values
        self.check_shape(q, params)
        assert np.array_equal(table.values, np.fmax.reduce(q))
        kept = params.actions() if allowed is None else allowed
        for a in Action:
            assert np.isnan(q[a]).all() == (a not in kept)


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
