"""Checks-of-the-checks: the structure suite and dominance report must detect
injected faults and pass where the properties provably hold.
"""
import numpy as np

from ehsense import (check_good_state_dominance, check_value_structure,
                     value_iteration, zero_table, bellman_step)


def solved(params, grid):
    return value_iteration(params, grid, tol=1e-9)


class TestValueStructureChecks:
    def test_sound_structural_checks_pass(self, region_params, coarse_grid):
        table = solved(region_params, coarse_grid)
        by_name = {r.name: r for r in check_value_structure(table)}
        assert by_name["convexity_in_belief"].passed
        assert by_name["monotone_in_battery"].passed
        assert by_name["monotone_in_belief"].passed

    def test_corrupted_cell_detected_and_located(self, region_params, coarse_grid):
        table = solved(region_params, coarse_grid)
        table.values[30, 50] -= 0.05
        failed = {r.name: r for r in check_value_structure(table) if not r.passed}
        assert "convexity_in_belief" in failed or "monotone_in_battery" in failed
        report = failed.get("monotone_in_battery") or failed["convexity_in_belief"]
        b, p = report.worst_state
        assert b in (30, 31)
        # second differences implicate the cell or a direct neighbor
        assert abs(p - coarse_grid.points[50]) <= 1.5 * coarse_grid.step

    def test_myopic_table_convex_exactly(self, tiny_two_rate, coarse_grid):
        myopic = tiny_two_rate.replace(beta=0.0)
        table = bellman_step(zero_table(myopic, coarse_grid))
        by_name = {r.name: r for r in check_value_structure(table)}
        assert by_name["convexity_in_belief"].passed
        assert by_name["convexity_in_belief"].worst_value >= -1e-12

    def test_belief_monotonicity_skipped_on_a_negatively_correlated_channel(
            self, tiny_params, coarse_grid):
        table = solved(tiny_params.replace(lambda0=0.8, lambda1=0.3), coarse_grid)
        rep, = [r for r in check_value_structure(table)
                if r.name == "monotone_in_belief"]
        assert rep.passed
        assert rep.worst_value == 0.0
        assert rep.worst_state == ()
        assert rep.detail == "skipped: lambda1 < lambda0"

    def test_gap_bound_reports_boundary_premium(self, region_params, coarse_grid):
        # crossing the transmit-feasibility boundary is worth nearly a full
        # high-rate reward here, which exceeds the claimed (1-tau)*r_high cap
        table = solved(region_params, coarse_grid)
        by_name = {r.name: r for r in check_value_structure(table)}
        rep = by_name["battery_gap_bound"]
        assert not rep.passed
        assert rep.worst_value < -0.3  # measured premium overshoot
        assert rep.worst_state[1] > 0.9  # worst near certainty


class TestDominance:
    def test_margin_zero_at_zero_belief(self, tiny_params, coarse_grid):
        table = solved(tiny_params, coarse_grid)
        rep = check_good_state_dominance(table, min_belief=0.0)
        # at p=0 both sides coincide, so the worst margin cannot be positive
        assert rep.worst_value <= 1e-9

    def test_myopic_margin_is_exact(self, tiny_params, coarse_grid):
        from ehsense.solver import sense_defer_on_good_backups
        myopic = tiny_params.replace(beta=0.0)
        table = bellman_step(bellman_step(zero_table(myopic, coarse_grid)))
        q_od, q_ot, q_odd, q_otd = sense_defer_on_good_backups(table)
        p = coarse_grid.points
        tau = myopic.tau
        want = p * (1 - tau) * myopic.r_high
        got = (q_od - q_odd)[myopic.e_tx:]
        assert np.allclose(got, want[None, :], atol=1e-12)

    def test_dominance_holds_under_abundant_energy(self, coarse_grid):
        from ehsense import SystemParams
        abundant = SystemParams(lambda0=0.81, lambda1=0.98,
                                energy_pmf=(0.05, 0, 0, 0, 0.95), b_max=12,
                                e_tx=4, e_sense=1, r_low=0.0, r_high=1.0,
                                beta=0.95)
        rep = check_good_state_dominance(solved(abundant, coarse_grid),
                                         min_belief=0.05)
        assert rep.passed
