from itertools import combinations

import numpy as np
import pytest

from ehsense import (Action, BeliefGrid, ParameterError, StructureViolationError,
                     encode_rows, extract_policy, extract_thresholds, greedy_policy,
                     opportunistic_policy, value_iteration)
from ehsense.policies import (SINGLE_THRESHOLD_ACTIONS, PolicyRow, PolicyTable,
                              ThresholdPolicy)
from conftest import two_point_pmf


def single_threshold_policy(params, grid):
    """The no-sensing baseline, built as the CLI builds it."""
    return encode_rows(extract_policy(
        value_iteration(params, grid, allowed=SINGLE_THRESHOLD_ACTIONS)))


class TestExtractPolicy:
    def test_empty_battery_always_defers(self, tiny_two_rate, coarse_grid):
        table = value_iteration(tiny_two_rate, coarse_grid)
        pol = extract_policy(table)
        assert np.all(pol.actions[0] == int(Action.DEFER))

    def test_certain_good_transmits_high(self, tiny_params, coarse_grid):
        table = value_iteration(tiny_params, coarse_grid)
        pol = extract_policy(table)
        for b in range(tiny_params.e_tx, tiny_params.b_max + 1):
            assert pol.actions[b, -1] == int(Action.HIGH_RATE)

    def test_myopic_argmax_hand_case(self, coarse_grid):
        from ehsense import SystemParams, zero_table, bellman_step
        params = SystemParams(lambda0=0.6, lambda1=0.9,
                              energy_pmf=two_point_pmf(0.1, 10), b_max=20,
                              e_tx=10, e_sense=2, r_low=0.0, r_high=3.0, beta=0.0)
        pol = extract_policy(bellman_step(zero_table(params, coarse_grid)))
        j = list(coarse_grid.points).index(0.5)
        assert pol.actions[10, j] == int(Action.HIGH_RATE)  # 1.5 > 1.2 > 0

    @pytest.mark.parametrize("gap, later_wins", [
        (0.0, True), (5e-13, True), (1e-11, False), (-1e-11, True)])
    @pytest.mark.parametrize("earlier, later", list(combinations(Action, 2)))
    def test_ties_prefer_later_action(self, tiny_two_rate, coarse_grid,
                                      earlier, later, gap, later_wins):
        # at (4, 50) every action is feasible; put the pair above the rest,
        # the later action `gap` below the earlier one
        table = value_iteration(tiny_two_rate, coarse_grid)
        q = table.q_values
        top = np.nanmax(q[:, 4, 50]) + 1.0
        q[earlier, 4, 50], q[later, 4, 50] = top, top - gap
        pol = extract_policy(table)
        assert pol.actions[4, 50] == (later if later_wins else earlier)

    def test_scaling_rewards_leaves_policy_unchanged(self, tiny_two_rate, coarse_grid):
        t1 = value_iteration(tiny_two_rate, coarse_grid)
        scaled = tiny_two_rate.replace(r_low=tiny_two_rate.r_low * 7.0,
                                       r_high=tiny_two_rate.r_high * 7.0)
        t2 = value_iteration(scaled, coarse_grid)
        assert np.array_equal(extract_policy(t1).actions,
                              extract_policy(t2).actions)


class TestThresholdEncoding:
    def grid5(self):
        return BeliefGrid.from_resolution(5)

    def make_table(self, rows, params):
        return PolicyTable(actions=np.array(rows, dtype=np.int8),
                           grid=self.grid5(), params=params)

    def test_run_length_midpoints(self, tiny_params):
        D, O, H = int(Action.DEFER), int(Action.SENSE_DEFER), int(Action.HIGH_RATE)
        rows = [[D] * 5, [D] * 5, [D, D, O, O, H], [D, D, O, O, H], [D, D, O, O, H]]
        tp = encode_rows(self.make_table(rows, tiny_params))
        assert tp.rows[2].breakpoints == pytest.approx((0.375, 0.875))
        assert tp.rows[2].labels == (Action.DEFER, Action.SENSE_DEFER,
                                     Action.HIGH_RATE)

    def test_all_defer_row(self, tiny_params):
        tp = encode_rows(self.make_table([[0] * 5] * 5, tiny_params))
        for row in tp.rows:
            assert row.breakpoints == ()
            assert row.labels == (Action.DEFER,)

    def test_action_at_interval_semantics(self, tiny_params):
        row = PolicyRow(breakpoints=(0.4, 0.8),
                        labels=(Action.DEFER, Action.SENSE_DEFER, Action.HIGH_RATE))
        assert row.action_at(0.0) == Action.DEFER
        assert row.action_at(0.4) == Action.SENSE_DEFER   # left-closed
        assert row.action_at(0.79) == Action.SENSE_DEFER
        assert row.action_at(0.8) == Action.HIGH_RATE
        assert row.action_at(1.0) == Action.HIGH_RATE

    def test_structure_violation_raises_with_row(self, tiny_params):
        D, O, H = int(Action.DEFER), int(Action.SENSE_DEFER), int(Action.HIGH_RATE)
        bad = [[D] * 5, [D] * 5, [H, H, D, D, H], [D] * 5, [D] * 5]
        with pytest.raises(StructureViolationError, match="battery 2"):
            extract_thresholds(self.make_table(bad, tiny_params))

    def test_single_cell_runs_are_slack(self, tiny_params):
        D, O, H = int(Action.DEFER), int(Action.SENSE_DEFER), int(Action.HIGH_RATE)
        # the lone O cell inside the H suffix is one grid step of noise
        rows = [[D] * 5, [D] * 5, [D, O, O, H, H], [D, O, H, H, H], [D, D, O, H, H]]
        rows[3][2] = O  # noqa: row stays valid
        rows_bad_cell = [r[:] for r in rows]
        rows_bad_cell[2] = [D, O, H, O, H]
        tp = extract_thresholds(self.make_table(rows_bad_cell, tiny_params))
        assert tp.rows[2].labels[0] == Action.DEFER

    def test_two_rate_checks_sensing_and_suffix(self, tiny_two_rate):
        D, L, OD, OT, H = (int(a) for a in Action)
        grid9 = BeliefGrid.from_resolution(9)
        # defer/low-rate regions may fragment freely
        good = [[D] * 9, [D] * 9, [D, D, L, L, OD, OD, OT, OT, H],
                [L, L, D, D, L, L, D, H, H], [D, D, L, L, D, D, OT, OT, H],
                [L, L, L, D, D, OT, OT, H, H], [D, L, L, D, D, L, L, H, H]]
        tp = extract_thresholds(PolicyTable(actions=np.array(good, dtype=np.int8),
                                            grid=grid9, params=tiny_two_rate))
        assert tp.rows[3].labels == (Action.LOW_RATE, Action.DEFER, Action.LOW_RATE,
                                     Action.DEFER, Action.HIGH_RATE)
        split_sensing = [r[:] for r in good]
        split_sensing[4] = [OT, OT, D, D, OT, OT, H, H, H]
        with pytest.raises(StructureViolationError, match="battery 4"):
            extract_thresholds(PolicyTable(actions=np.array(split_sensing, dtype=np.int8),
                                           grid=grid9, params=tiny_two_rate))
        inner_high = [r[:] for r in good]
        inner_high[5] = [D, D, H, H, D, D, H, H, H]
        with pytest.raises(StructureViolationError, match="battery 5"):
            extract_thresholds(PolicyTable(actions=np.array(inner_high, dtype=np.int8),
                                           grid=grid9, params=tiny_two_rate))

    def test_infeasible_label_rejected(self, tiny_params):
        with pytest.raises(ParameterError):
            ThresholdPolicy(rows=tuple([PolicyRow((), (Action.HIGH_RATE,))]
                                       + [PolicyRow((), (Action.DEFER,))] * 4),
                            params=tiny_params)


class TestBaselines:
    def test_greedy_transmits_iff_affordable(self, region_params):
        pol = greedy_policy(region_params)
        assert pol.action_at(10, 0.0) == Action.HIGH_RATE
        assert pol.action_at(9, 1.0) == Action.DEFER
        assert pol.action_at(0, 1.0) == Action.DEFER

    def test_opportunistic_senses_whenever_possible(self, region_params):
        pol = opportunistic_policy(region_params)
        assert pol.action_at(50, 0.5) == Action.SENSE_DEFER
        assert pol.action_at(2, 0.5) == Action.SENSE_DEFER  # sense-only band
        assert pol.action_at(1, 0.5) == Action.DEFER

    def test_baselines_feasible_everywhere(self, region_params):
        from ehsense import feasible_actions
        for pol in (greedy_policy(region_params), opportunistic_policy(region_params)):
            for b in range(region_params.b_max + 1):
                for a in pol.rows[b].labels:
                    assert a in feasible_actions(b, region_params)

    def test_single_threshold_never_senses(self, tiny_params, coarse_grid):
        pol = single_threshold_policy(tiny_params, coarse_grid)
        labels = {a for row in pol.rows for a in row.labels}
        assert Action.SENSE_DEFER not in labels
        assert Action.SENSE_TRANSMIT not in labels

    def test_single_threshold_transmits_when_certain(self, tiny_params, coarse_grid):
        pol = single_threshold_policy(tiny_params, coarse_grid)
        for b in range(tiny_params.e_tx, tiny_params.b_max + 1):
            assert pol.action_at(b, 1.0) == Action.HIGH_RATE
        for b in range(tiny_params.e_tx):
            assert pol.rows[b].labels == (Action.DEFER,)

    def test_single_threshold_myopic_transmits_everywhere_positive(self, coarse_grid,
                                                                   tiny_params):
        pol = single_threshold_policy(tiny_params.replace(beta=0.0), coarse_grid)
        for b in range(tiny_params.e_tx, tiny_params.b_max + 1):
            assert pol.action_at(b, 0.5) == Action.HIGH_RATE


def test_padded_arrays_lookup_matches_rows(tiny_params, coarse_grid):
    table = value_iteration(tiny_params, coarse_grid)
    tp = encode_rows(extract_policy(table))
    breaks, labels = tp.breaks, tp.labels
    rng = np.random.default_rng(5)
    for _ in range(200):
        b = int(rng.integers(0, tiny_params.b_max + 1))
        p = float(rng.random())
        k = int(np.sum(p >= breaks[b]))
        assert Action(int(labels[b, k])) == tp.action_at(b, p)


def test_region_csv_contract(tmp_path, tiny_params, coarse_grid):
    pol = extract_policy(value_iteration(tiny_params, coarse_grid))
    path = tmp_path / "regions.csv"
    pol.write_csv(path, config_hash="deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config=deadbeef"
    assert lines[1] == "battery,belief,action"
    codes = {int(line.split(",")[2]) for line in lines[2:]}
    assert codes <= {0, 1, 2, 3, 4}


def test_threshold_text_export(tmp_path, tiny_params, coarse_grid):
    tp = encode_rows(extract_policy(value_iteration(tiny_params, coarse_grid)))
    path = tmp_path / "thresholds.txt"
    tp.write_text(path, config_hash="cafe")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config=cafe"
    assert lines[1].startswith("battery=0: [0,1]->D")
    assert len(lines) == 2 + tiny_params.b_max