"""The exact finite-horizon recursion is validated here against hand-computed
values and structural properties, then frozen: the grid solver is tested
against it, never the other way around.
"""
import numpy as np
import pytest

from ehsense import (BeliefGrid, SystemParams, bellman_step,
                     exact_finite_horizon, reachable_beliefs, stationary_belief,
                     zero_table)
from ehsense.oracle import _exact_values


def myopic_value(params, b, p):
    """Horizon-1 optimum, written out independently of the recursion."""
    if b < params.e_tx:
        return 0.0
    tau = params.e_sense / params.e_tx
    return max(params.r_low,
               p * params.r_high,
               (1 - tau) * p * params.r_high,
               (1 - tau) * (p * params.r_high + (1 - p) * params.r_low))


class TestHorizonOne:
    def test_below_transmit_cost_is_zero(self, tiny_params):
        for b in (0, 1):
            for p in (0.0, 0.3, 1.0):
                assert exact_finite_horizon(tiny_params, b, p, 1) == 0.0

    def test_matches_myopic_formula(self, tiny_two_rate):
        for b in (2, 4, 6):
            for p in np.linspace(0, 1, 7):
                got = exact_finite_horizon(tiny_two_rate, b, float(p), 1)
                assert got == pytest.approx(myopic_value(tiny_two_rate, b, p))

    def test_horizon_zero_rejected(self, tiny_params):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            exact_finite_horizon(tiny_params, 0, 0.5, 0)


class TestHorizonTwoFrozen:
    """Hand-expanded two-step values for the tiny single-rate instance
    (lambda0=0.3, lambda1=0.8, arrivals {0,1} w.p. 1/2, e_tx=2, e_sense=1,
    r_high=1, beta=0.9).  At p=0.3 the propagated belief is 0.45.
    """

    CASES = [
        (0, 0.3, 0.0),
        (1, 0.3, 0.2025),   # defer: 0.9 * 0.5 * J(0.3)
        (2, 0.3, 0.405),    # defer: 0.9 * J(0.3)
        (3, 0.3, 0.5025),   # high rate: 0.3*(1+0.9*0.5*0.8) + 0.7*0.9*0.5*0.3
        (4, 0.3, 0.705),    # high rate: 0.3*(1+0.9*0.8) + 0.7*0.9*0.3
        (2, 0.8, 0.8),      # high rate dominates defer (0.63) and sensing
    ]

    @pytest.mark.parametrize("b,p,expected", CASES)
    def test_frozen_values(self, tiny_params, b, p, expected):
        assert exact_finite_horizon(tiny_params, b, p, 2) == pytest.approx(expected)


class TestProperties:
    def test_nondecreasing_in_horizon(self, tiny_params):
        for b in range(5):
            values = [exact_finite_horizon(tiny_params, b, 0.45, n)
                      for n in range(1, 9)]
            assert all(v1 >= v0 - 1e-12 for v0, v1 in zip(values, values[1:]))

    def test_nondecreasing_in_battery(self, tiny_two_rate):
        for p in (0.1, 0.5, 0.9):
            values = [exact_finite_horizon(tiny_two_rate, b, p, 5)
                      for b in range(7)]
            assert all(v1 >= v0 - 1e-12 for v0, v1 in zip(values, values[1:]))

    def test_convex_in_belief_on_chords(self, tiny_params):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p0, p1 = np.sort(rng.random(2))
            a = rng.random()
            mid = a * p0 + (1 - a) * p1
            for b in (1, 2, 4):
                v_mid = exact_finite_horizon(tiny_params, b, float(mid), 4)
                v_chord = (a * exact_finite_horizon(tiny_params, b, float(p0), 4)
                           + (1 - a) * exact_finite_horizon(tiny_params, b, float(p1), 4))
                assert v_mid <= v_chord + 1e-12

    def test_discount_zero_is_myopic(self, tiny_two_rate):
        p = tiny_two_rate.replace(beta=0.0)
        for b in (0, 1, 3):
            for x in (0.2, 0.9):
                assert exact_finite_horizon(p, b, x, 6) \
                    == pytest.approx(myopic_value(p, b, x))


def test_horizon_beyond_ten(tiny_params):
    assert exact_finite_horizon(tiny_params, 2, 0.5, 12) > 0


@pytest.mark.parametrize("lambdas", [(0.3, 0.8), (0.4, 0.4)])
def test_long_horizon_has_no_depth_limit(tiny_params, lambdas):
    # 600 slots is beyond what a recursion of a frame or two per slot can
    # reach; the i.i.d. channel holds only two beliefs
    params = tiny_params.replace(lambda0=lambdas[0], lambda1=lambdas[1])
    v300 = exact_finite_horizon(params, 2, 0.5, 300)
    v600 = exact_finite_horizon(params, 2, 0.5, 600)
    tail = params.beta ** 300 * params.r_high / (1.0 - params.beta)
    assert v300 <= v600 <= v300 + tail


def test_reachable_belief_count_matches_memo_need(tiny_params):
    # every belief the depth-4 recursion touches is in the reachable set
    beliefs = reachable_beliefs(0.5, 4, tiny_params)
    assert len(beliefs) <= 3 * 5
    assert any(abs(b - 0.3) < 1e-12 for b in beliefs)
    assert any(abs(b - 0.8) < 1e-12 for b in beliefs)


# On-grid instances: lambda0, lambda1 and the stationary belief lie on both
# grids.  test_01's instance, one with b_max 12 and 4 arrival levels, and a
# two-rate one with b_max 12; on each the largest gap measured is 2.7e-15.
ON_GRID_INSTANCES = {
    "test_01": dict(energy_pmf=(0.5, 0.5), b_max=4, e_tx=2, r_low=0.0,
                    r_high=1.0),
    "four_arrivals": dict(energy_pmf=(0.4, 0.3, 0.2, 0.1), b_max=12, e_tx=3,
                          r_low=0.0, r_high=1.0),
    "two_rate": dict(energy_pmf=(0.4, 0.3, 0.2, 0.1), b_max=12, e_tx=3,
                     r_low=1.0, r_high=2.0),
}


@pytest.mark.parametrize("instance", sorted(ON_GRID_INSTANCES))
@pytest.mark.parametrize("resolution", [101, 1001])
def test_grid_matches_exact_on_grid_transition_rows(resolution, instance):
    # on the reachable beliefs the grid solve agrees with the exact recursion
    # to rounding, so this catches regressions that test_01's bound of
    # 10 * step * n lets through
    params = SystemParams(lambda0=0.3, lambda1=0.8, e_sense=1, beta=0.9,
                          **ON_GRID_INSTANCES[instance])
    grid = BeliefGrid.from_resolution(resolution)
    beliefs = reachable_beliefs(stationary_belief(params), 8, params)
    table = zero_table(params, grid)
    for n in range(1, 9):
        table = bellman_step(table)
        exact = _exact_values(params, beliefs, n)  # exact_finite_horizon's
        for b in range(params.b_max + 1):
            for p in beliefs:
                gap = abs(exact[float(p)][b]
                          - float(grid.interp(table.values[b], float(p))))
                assert gap <= 1e-12, (n, b, p, gap)
