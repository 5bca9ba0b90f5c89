import numpy as np
import pytest

from ehsense import (BeliefGrid, ParameterError, SystemParams,
                     belief_update_no_obs, orbits, reachable_beliefs,
                     stationary_belief)


def chain(lambda0, lambda1):
    return SystemParams(lambda0=lambda0, lambda1=lambda1, energy_pmf=(0.5, 0.5),
                        b_max=4, e_tx=2, e_sense=1, r_low=0.0, r_high=1.0,
                        beta=0.9)


class TestPropagation:
    def test_endpoints_hit_transition_rows(self):
        p = chain(0.6, 0.9)
        assert belief_update_no_obs(0.0, p) == pytest.approx(0.6)
        assert belief_update_no_obs(1.0, p) == pytest.approx(0.9)

    def test_midpoint(self):
        assert belief_update_no_obs(0.5, chain(0.6, 0.9)) == pytest.approx(0.75)

    def test_range_and_monotonicity(self):
        p = chain(0.2, 0.8)
        xs = np.linspace(0, 1, 101)
        ys = belief_update_no_obs(xs, p)
        assert np.all(np.diff(ys) >= 0)
        assert ys.min() >= 0.2 - 1e-12 and ys.max() <= 0.8 + 1e-12

    def test_geometric_convergence_to_fixed_point(self):
        p = chain(0.6, 0.9)
        star = stationary_belief(p)
        x, rate = 0.05, abs(p.lambda1 - p.lambda0)
        for _ in range(25):
            nxt = belief_update_no_obs(x, p)
            assert abs(nxt - star) <= rate * abs(x - star) + 1e-12
            x = nxt


class TestStationary:
    def test_closed_form(self):
        assert stationary_belief(chain(0.6, 0.9)) == pytest.approx(0.6 / 0.7)

    def test_iid_channel(self):
        assert stationary_belief(chain(0.5, 0.5)) == pytest.approx(0.5)

    def test_absorbing_bad(self):
        assert stationary_belief(chain(0.0, 0.9)) == 0.0

    def test_fixed_point_property(self):
        p = chain(0.37, 0.81)
        star = stationary_belief(p)
        assert belief_update_no_obs(star, p) == pytest.approx(star, abs=1e-12)

    def test_degenerate_chain_rejected(self):
        with pytest.raises(ParameterError):
            stationary_belief(chain(0.0, 1.0))


class TestReachable:
    def test_depth_zero_is_roots(self):
        got = reachable_beliefs(0.5, 0, chain(0.6, 0.9))
        assert sorted(got) == pytest.approx([0.5, 0.6, 0.9])

    def test_depth_one_from_transition_row(self):
        # J(0.6) = 0.6*0.4 + 0.9*0.6 = 0.78, J(0.9) = 0.6*0.1 + 0.9*0.9 = 0.87
        got = reachable_beliefs(0.6, 1, chain(0.6, 0.9))
        assert sorted(got) == pytest.approx([0.6, 0.78, 0.87, 0.9])

    def test_constant_propagation_collapses(self):
        got = reachable_beliefs(0.25, 5, chain(0.5, 0.5))
        assert sorted(got) == pytest.approx([0.25, 0.5])

    def test_size_bound(self):
        p = chain(0.6, 0.9)
        for depth in range(6):
            # orbits of the two transition rows plus the query point
            assert len(reachable_beliefs(0.5, depth, p)) <= 3 * depth + 3
            assert len(reachable_beliefs(p.lambda0, depth, p)) <= 2 * depth + 3

    def test_negative_depth_rejected(self):
        with pytest.raises(ParameterError, match="depth must be >= 0"):
            reachable_beliefs(0.5, -1, chain(0.6, 0.9))


def assert_successors_walk_the_recursion(p, roots, length):
    beliefs, successor, root_index = orbits(p, roots, length)
    walks = []
    for root in roots:
        walk = [root]
        for _ in range(length - 1):
            walk.append(belief_update_no_obs(walk[-1], p))
        walks.append(walk)
    assert sorted(beliefs.tolist()) == sorted(set().union(*walks))
    assert successor.dtype == np.intp
    for walk, j in zip(walks, root_index):
        for belief in walk:  # the successor walk is the float recursion
            assert beliefs[j] == belief
            j = successor[j]


class TestOrbits:
    @pytest.mark.parametrize("lam0", [0.7, 0.9995])
    def test_root_two_steps_deep_in_another_orbit(self, lam0):
        # f(1) = lambda1 = 0 and f(0) = lambda0: both resets lie on the start
        # belief's orbit, lambda0 two steps deep
        assert_successors_walk_the_recursion(chain(lam0, 0.0), (1.0, lam0, 0.0), 60)

    @pytest.mark.parametrize("length", [1, 2, 5000])
    @pytest.mark.parametrize("lam0, lam1", [
        (0.0005, 0.9995),  # sticky: the orbits are cut at the length
        (1.0, 0.0),        # a 2-cycle: lambda0 and lambda1 swap every step
        (0.5, 0.5),        # i.i.d.: every root lands on 0.5 in one step
        (0.0, 0.7)],       # lambda0 = 0 is the fixed point
        ids=["sticky", "2-cycle", "iid", "lambda0=0"])
    def test_successors_on_the_hard_channels(self, lam0, lam1, length):
        p = chain(lam0, lam1)
        roots = (stationary_belief(p), lam0, lam1)
        assert_successors_walk_the_recursion(p, roots, length)


class TestGrid:
    def test_from_resolution(self):
        g = BeliefGrid.from_resolution(11)
        assert g.resolution == 11
        assert g.step == pytest.approx(0.1)
        assert g.points[0] == 0.0 and g.points[-1] == 1.0

    def test_is_built_from_its_resolution_only(self):
        with pytest.raises(TypeError):  # a points array is not a resolution
            BeliefGrid(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ParameterError):
            BeliefGrid.from_resolution(1)
        g = BeliefGrid.from_resolution(np.int64(5))
        assert type(g.resolution) is int  # the solver reads its bit_length
        assert g == BeliefGrid(5)
        assert np.array_equal(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_interp_recovers_linear_functions(self):
        g = BeliefGrid.from_resolution(101)
        vals = 2.0 * g.points + 1.0
        for x in (0.0, 0.123, 0.5, 0.999, 1.0):
            assert float(g.interp(vals, x)) == pytest.approx(2 * x + 1, abs=1e-12)

    def test_interp_vectorized_matches_scalar(self):
        g = BeliefGrid.from_resolution(51)
        rng = np.random.default_rng(3)
        vals = rng.random(51)
        xs = rng.random(20)
        batch = g.interp(vals, xs)
        for x, got in zip(xs, batch):
            assert float(g.interp(vals, float(x))) == pytest.approx(float(got))

    def test_nearest_index_exact_on_grid(self):
        g = BeliefGrid.from_resolution(1001)
        assert g.nearest_index(0.6) == 600
        assert g.nearest_index(0.9) == 900
        assert g.nearest_index(1.0) == 1000
