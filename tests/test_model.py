import numpy as np
import pytest

from ehsense import (Action, InfeasibleActionError, ParameterError, SystemParams,
                     feasible_actions, next_battery, slot_outcomes)
from conftest import two_point_pmf


def make_params(**overrides):
    base = dict(lambda0=0.6, lambda1=0.9, energy_pmf=two_point_pmf(0.1, 10),
                b_max=50, e_tx=10, e_sense=2, r_low=1.0, r_high=3.0, beta=0.98)
    base.update(overrides)
    return SystemParams(**base)


class TestParams:
    def test_valid_roundtrip(self):
        p = make_params()
        assert p.tau == pytest.approx(0.2)
        assert p.n_arrivals == 11
        assert p.harvest_support == ((0, 0.9), (10, pytest.approx(0.1)))

    @pytest.mark.parametrize("bad", [
        dict(energy_pmf=(0.5, 0.6)),
        dict(energy_pmf=(-0.1, 1.1)),
        dict(energy_pmf=()),
        dict(e_sense=0),
        dict(e_sense=10),           # must be strictly below e_tx
        dict(e_tx=60),              # exceeds capacity
        dict(e_sense=2.5),          # fractional energy unit
        dict(r_low=3.0),            # r_low must stay below r_high
        dict(beta=1.0),
        dict(lambda0=1.2),
        dict(e_sense=True),         # a bool is not an energy count
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ParameterError):
            make_params(**bad)

    def test_integral_floats_accepted(self):
        p = make_params(e_tx=10.0, e_sense=2.0, b_max=50.0)
        assert (p.e_tx, p.e_sense, p.b_max) == (10, 2, 50)

    def test_single_rate_action_set(self):
        assert make_params(r_low=0.0).actions() == \
            (Action.DEFER, Action.SENSE_DEFER, Action.HIGH_RATE)
        assert len(make_params().actions()) == 5

    def test_with_harvest_rebuilds_two_point_pmf(self):
        p = make_params().with_harvest(0.7)
        assert p.energy_pmf[0] == pytest.approx(0.3)
        assert p.energy_pmf[10] == pytest.approx(0.7)


class TestFeasibleActions:
    def test_empty_battery_can_only_defer(self):
        assert feasible_actions(0, make_params()) == (Action.DEFER,)

    def test_sense_only_band(self):
        assert feasible_actions(5, make_params()) == \
            (Action.DEFER, Action.SENSE_DEFER)

    def test_full_set_at_transmit_cost(self):
        assert set(feasible_actions(10, make_params())) == set(Action)

    def test_single_rate_drops_low_and_sense_transmit(self):
        acts = feasible_actions(10, make_params(r_low=0.0))
        assert acts == (Action.DEFER, Action.SENSE_DEFER, Action.HIGH_RATE)

    def test_battery_outside_the_range_is_rejected(self):
        p = make_params()
        for b in (-1, p.b_max + 1):
            with pytest.raises(ParameterError, match=f"battery {b} outside "):
                feasible_actions(b, p)


def expected_reward(battery, p, action, params):
    """Expected bits of one slot at belief p: p * good + (1 - p) * bad."""
    (bad, _), (good, _) = slot_outcomes(params).legs(
        action, int(battery >= params.e_tx))
    return p * good + (1.0 - p) * bad


class TestExpectedReward:
    def test_infeasible_high_rate_earns_nothing(self):
        p = make_params()
        assert expected_reward(5, 0.9, Action.HIGH_RATE, p) == 0.0

    def test_high_rate_scales_with_belief(self):
        p = make_params()
        assert expected_reward(10, 0.5, Action.HIGH_RATE, p) \
            == pytest.approx(1.5)

    def test_sense_transmit_mixes_both_rates(self):
        p = make_params()
        got = expected_reward(10, 0.5, Action.SENSE_TRANSMIT, p)
        assert got == pytest.approx(0.8 * (0.5 * 1.0 + 0.5 * 3.0))

    def test_sense_defer_certain_good(self):
        p = make_params()
        got = expected_reward(10, 1.0, Action.SENSE_DEFER, p)
        assert got == pytest.approx(2.4)

    def test_defer_is_free(self):
        p = make_params()
        assert expected_reward(50, 1.0, Action.DEFER, p) == 0.0

    def test_linear_in_belief(self):
        p = make_params()
        rng = np.random.default_rng(0)
        for action in (Action.HIGH_RATE, Action.SENSE_DEFER, Action.SENSE_TRANSMIT):
            lo = expected_reward(20, 0.0, action, p)
            hi = expected_reward(20, 1.0, action, p)
            for x in rng.random(20):
                mid = expected_reward(20, float(x), action, p)
                assert mid == pytest.approx(x * hi + (1 - x) * lo, abs=1e-12)


class TestNextBattery:
    def test_high_rate_debits_full_transmission(self):
        assert next_battery(10, 10, Action.HIGH_RATE, True, make_params()) == 10

    def test_defer_clamps_at_capacity(self):
        assert next_battery(49, 10, Action.DEFER, False, make_params()) == 50

    def test_sense_defer_bad_state_saves_the_remainder(self):
        assert next_battery(10, 0, Action.SENSE_DEFER, False, make_params()) == 8

    def test_sense_only_band_spends_sensing_cost_regardless(self):
        assert next_battery(5, 0, Action.SENSE_DEFER, True, make_params()) == 3

    def test_infeasible_action_raises(self):
        with pytest.raises(InfeasibleActionError):
            next_battery(5, 0, Action.HIGH_RATE, True, make_params())

    def test_bad_harvest_rejected(self):
        with pytest.raises(ParameterError):
            next_battery(10, 11, Action.DEFER, True, make_params())

    def test_result_stays_in_range(self):
        p = make_params()
        rng = np.random.default_rng(1)
        for _ in range(300):
            b = int(rng.integers(0, p.b_max + 1))
            m = int(rng.integers(0, p.n_arrivals))
            g = bool(rng.integers(2))
            for a in feasible_actions(b, p):
                nb = next_battery(b, m, a, g, p)
                assert 0 <= nb <= p.b_max

    def test_energy_debit_accounting(self):
        p = make_params()
        for b, g in [(10, True), (10, False), (5, True), (5, False), (0, False)]:
            for a in feasible_actions(b, p):
                debit = b + 7 - next_battery(b, 7, a, g, p)  # harvest 7 never clamps here
                if a == Action.DEFER:
                    assert debit == 0
                elif a == Action.SENSE_DEFER and b >= p.e_tx:
                    assert debit == p.e_sense + (p.e_tx - p.e_sense) * g
                elif a == Action.SENSE_DEFER:
                    assert debit == p.e_sense
                else:
                    assert debit == p.e_tx
