import re
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from ehsense import (Action, BeliefGrid, BellmanOperator, ParameterError, StructureViolationError,
                     check_row_form, encode_rows, extract_policy, extract_thresholds,
                     feasible_actions, greedy_policy, opportunistic_policy,
                     value_iteration)
from ehsense.policies import (NO_REGION, SINGLE_THRESHOLD_ACTIONS, PolicyRow,
                              PolicyTable, ThresholdPolicy, policy_from_rho,
                              rho_from_policy, row_from_rho)
from ehsense.solver import greedy_actions
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
        # (the tie rule reads Q as q_tables gives it, NaN where an action is
        # not backed up, and as a sweep's frame holds it, -inf there)
        table = value_iteration(tiny_two_rate, coarse_grid)
        q = BellmanOperator(tiny_two_rate, coarse_grid).q_tables(table.values)
        top = np.nanmax(q[:, 4, 50]) + 1.0
        q[earlier, 4, 50], q[later, 4, 50] = top, top - gap
        for backups in (q, np.where(np.isnan(q), -np.inf, q)):
            actions = greedy_actions(backups, np.fmax.reduce(q))
            assert actions[4, 50] == (later if later_wins else earlier)

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

    def test_rows_equal_by_value_hash_alike(self):
        import pickle
        row = PolicyRow((0.4,), (Action.DEFER, Action.HIGH_RATE))
        same = PolicyRow((np.float64(0.4),), (0, 4))
        other = PolicyRow((0.4,), (Action.DEFER, Action.SENSE_DEFER))
        copied = pickle.loads(pickle.dumps(row))
        assert row == same == copied and hash(row) == hash(same) == hash(copied)
        assert row != other
        assert len({row: 0, same: 1, copied: 2, other: 3}) == 2

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

    @pytest.mark.parametrize("build", [
        lambda params: PolicyRow((0.5,), (Action.DEFER,)),  # label count
        lambda params: PolicyRow((0.0,), (Action.DEFER, Action.HIGH_RATE)),
        lambda params: PolicyRow((1.0,), (Action.DEFER, Action.HIGH_RATE)),
        lambda params: PolicyRow((0.6, 0.4),
                                 (Action.DEFER, Action.SENSE_DEFER, Action.DEFER)),
        lambda params: PolicyRow((0.5, 0.5),
                                 (Action.DEFER, Action.SENSE_DEFER, Action.DEFER)),
        lambda params: PolicyRow((0.5,), (Action.DEFER, Action.DEFER)),
        lambda params: ThresholdPolicy(rows=(PolicyRow((), (Action.DEFER,)),) * 4,
                                       params=params),  # b_max is 4
    ])
    def test_malformed_rows_rejected(self, tiny_params, build):
        # threshold texts are read back through these constructors
        with pytest.raises(ParameterError):
            build(tiny_params)

    def test_infeasible_label_rejected(self, tiny_params):
        with pytest.raises(ParameterError):
            ThresholdPolicy(rows=tuple([PolicyRow((), (Action.HIGH_RATE,))]
                                       + [PolicyRow((), (Action.DEFER,))] * 4),
                            params=tiny_params)


D, L, OD, OT, H = Action


class TestRowForm:
    """`check_row_form` judges a row's interval labels; every interval
    counts.  Only grid extraction drops single-cell runs first."""

    def test_single_rate_template_per_battery_band(self, search_params):
        # b_max 10, e_sense 1, e_tx 5
        for b, labels in [(0, (D,)), (1, (D, OD, D)), (4, (OD, D)),
                          (5, (D, OD, D, H)), (10, (OD, H)), (10, (H,))]:
            check_row_form(labels, b, search_params)
        with pytest.raises(StructureViolationError,
                           match=r"^battery 4: intervals D\|OD\|D\|OD do not fit "
                                 r"D\|OD\|D$"):
            check_row_form((D, OD, D, OD), 4, search_params)

    def test_one_interval_run_counts_on_labels(self, search_params):
        b = search_params.b_max
        with pytest.raises(StructureViolationError,
                           match=r"^battery 10: intervals D\|OD\|D\|H\|OD\|H do not "
                                 r"fit D\|OD\|D\|H$"):
            check_row_form((D, OD, D, H, OD, H), b, search_params)
        # the same row on a grid, its second OD run one cell wide, is slack
        rows = [[int(D)] * 12] * b + [[int(a) for a in
                                       (D, D, OD, OD, D, D, H, H, OD, H, H, H)]]
        tp = extract_thresholds(PolicyTable(actions=np.array(rows, dtype=np.int8),
                                            grid=BeliefGrid.from_resolution(12),
                                            params=search_params))
        assert tp.rows[b].labels == (D, OD, D, H, OD, H)
        with pytest.raises(StructureViolationError, match="battery 10:"):
            rho_from_policy(tp, search_params)
        with pytest.raises(ParameterError, match="battery 10:"):
            rho_from_policy(tp, search_params)

    def test_two_rate_sensing_once_and_high_rate_last(self, tiny_two_rate):
        check_row_form((L, D, L, OD, D, OT, L, H), 6, tiny_two_rate)
        check_row_form((L, D, L), 6, tiny_two_rate)
        with pytest.raises(StructureViolationError,
                           match="^battery 6: OD occupies 2 intervals$"):
            check_row_form((D, OD, D, OD, H), 6, tiny_two_rate)
        with pytest.raises(StructureViolationError,
                           match=r"^battery 6: high-rate region is not a suffix "
                                 r"\(D\|H\|L\)$"):
            check_row_form((D, H, L), 6, tiny_two_rate)


# Every nondecreasing threshold triple over these values.
RHO_VALUES = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, NO_REGION)
TRIPLES = list(combinations_with_replacement(RHO_VALUES, 3))


class TestThresholdCodec:
    def test_row_cuts_the_pattern_at_rho(self, search_params):
        for rho in TRIPLES:
            r1, r2, r3 = rho
            cuts = sorted({0.0, 1.0, *(r for r in rho if r < 1.0)})
            xs = cuts[:-1] + [(x0 + x1) / 2 for x0, x1 in zip(cuts, cuts[1:])]
            for b in range(search_params.b_max + 1):
                ok = feasible_actions(b, search_params)
                row = row_from_rho(b, rho, search_params)
                for x in xs:
                    if Action.HIGH_RATE in ok and x >= r3:
                        want = Action.HIGH_RATE
                    elif Action.SENSE_DEFER in ok and r1 <= x < r2:
                        want = Action.SENSE_DEFER
                    else:
                        want = Action.DEFER
                    assert row.action_at(x) == want, (rho, b, x)

    def test_triples_round_trip(self, search_params):
        for rho in TRIPLES:
            pol = policy_from_rho(np.tile(rho, (search_params.b_max + 1, 1)),
                                  search_params)
            assert policy_from_rho(rho_from_policy(pol, search_params),
                                   search_params) == pol, rho


class TestBaselines:
    @pytest.mark.parametrize("fixture", ["search_params", "tiny_two_rate"])
    def test_rows_are_pinned(self, fixture, request):
        params = request.getfixturevalue(fixture)
        D, O, H = Action.DEFER, Action.SENSE_DEFER, Action.HIGH_RATE
        levels = range(params.b_max + 1)
        assert greedy_policy(params).rows == tuple(
            PolicyRow((), (H if b >= params.e_tx else D,)) for b in levels)
        assert opportunistic_policy(params).rows == tuple(
            PolicyRow((), (O if b >= params.e_sense else D,)) for b in levels)

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

def test_threshold_text_round_trips_the_breakpoints(tmp_path, tiny_params):
    # 0.4916019200000001 is a search candidate at lambda = (0.2, 0.8);
    # written as 0.491602 it put a reachable belief on the other side
    rows = [PolicyRow((), (Action.DEFER,))] * 2 + [
        PolicyRow((0.4916019200000001,), (Action.DEFER, Action.HIGH_RATE)),
        PolicyRow((1e-05, 0.25, 0.7500000000000001),
                  (Action.DEFER, Action.SENSE_DEFER, Action.DEFER,
                   Action.HIGH_RATE)),
        PolicyRow((), (Action.HIGH_RATE,))]
    tp = ThresholdPolicy(rows=tuple(rows), params=tiny_params)
    path = tmp_path / "thresholds.txt"
    tp.write_text(path)
    lines = path.read_text().splitlines()
    assert lines[2] == "battery=2: [0,0.4916019200000001)->D | [0.4916019200000001,1]->H"
    for line, row in zip(lines, rows):
        edges = re.findall(r"\[([^,]+),([^\])]+)[\])]", line)
        assert tuple(float(lo) for lo, _ in edges[1:]) == row.breakpoints
        assert (edges[0][0], edges[-1][1]) == ("0", "1")
