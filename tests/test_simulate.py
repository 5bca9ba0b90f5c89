import tracemalloc
from dataclasses import FrozenInstanceError
from functools import reduce
from operator import add

import numpy as np
import pytest

from ehsense import (Action, BeliefGrid, InfeasibleActionError, ParameterError,
                     SimState, SystemParams, belief_update_no_obs,
                     discounted_return, episode_rng,
                     greedy_policy, opportunistic_policy, orbits, run_episodes,
                     run_trace, step, stationary_belief, value_iteration,
                     extract_policy, encode_rows)
from ehsense import cli
from ehsense.policies import PolicyRow, ThresholdPolicy
from ehsense.simulate import _CHUNK, _channel_path, _points, _slot_tables
from conftest import two_point_pmf
from test_cli import small_config, write_config


def all_defer(params):
    return ThresholdPolicy(rows=tuple(PolicyRow((), (Action.DEFER,))
                                      for _ in range(params.b_max + 1)),
                           params=params)


def certain_good_params(**overrides):
    base = dict(lambda0=1.0, lambda1=1.0, energy_pmf=two_point_pmf(1.0, 10),
                b_max=50, e_tx=10, e_sense=2, r_low=0.0, r_high=2.0, beta=0.9)
    base.update(overrides)
    return SystemParams(**base)


class TestStep:
    @pytest.mark.parametrize("channel", [0, 1], ids=["BAD", "GOOD"])
    @pytest.mark.parametrize("action", list(Action), ids=lambda a: a.code)
    def test_next_belief(self, tiny_two_rate, action, channel):
        # In the paper a high-rate transmission (by its ACK/NACK) and sensing
        # reveal the slot's channel, so the next belief is a transition row;
        # deferring and the low rate learn nothing, so the belief propagates.
        p, belief = tiny_two_rate, 0.37
        state = SimState(battery=4, belief=belief, channel=channel)
        nxt, _ = step(state, action, episode_rng(0, 0), p)
        if action in (Action.HIGH_RATE, Action.SENSE_DEFER, Action.SENSE_TRANSMIT):
            assert nxt.belief == (p.lambda1 if channel else p.lambda0)
        else:
            assert action in (Action.DEFER, Action.LOW_RATE)
            assert nxt.belief == pytest.approx(
                p.lambda0 * (1 - belief) + p.lambda1 * belief, abs=1e-15)

    def test_high_rate_reveals_the_channel(self, region_params):
        for good, want_bits, want_belief in [
                (1, region_params.r_high, region_params.lambda1),
                (0, 0.0, region_params.lambda0)]:
            state = SimState(battery=20, belief=0.5, channel=good)
            nxt, bits = step(state, Action.HIGH_RATE, episode_rng(0, 0),
                             region_params)
            assert bits == want_bits
            assert nxt.belief == want_belief
            assert nxt.battery == 20 - region_params.e_tx  # harvest 0 w.p. 0.9

    def test_low_rate_always_delivers(self, tiny_two_rate):
        rng = episode_rng(1, 0)
        state = SimState(battery=4, belief=0.5, channel=0)
        nxt, bits = step(state, Action.LOW_RATE, rng, tiny_two_rate)
        assert bits == tiny_two_rate.r_low
        j = tiny_two_rate.lambda0 * 0.5 + tiny_two_rate.lambda1 * 0.5
        assert nxt.belief == pytest.approx(j)

    def test_sense_defer_bad_spends_sense_cost_only(self, region_params):
        p = region_params.replace(energy_pmf=(1.0,))
        rng = episode_rng(2, 0)
        state = SimState(battery=20, belief=0.5, channel=0)
        nxt, bits = step(state, Action.SENSE_DEFER, rng, p)
        assert bits == 0.0
        assert nxt.battery == 20 - p.e_sense

    def test_sense_only_band_never_transmits(self, region_params):
        p = region_params.replace(energy_pmf=(1.0,))
        state = SimState(battery=5, belief=0.9, channel=1)  # GOOD revealed
        nxt, bits = step(state, Action.SENSE_DEFER, episode_rng(2, 0), p)
        assert bits == 0.0
        assert nxt.battery == 5 - p.e_sense
        assert nxt.belief == p.lambda1

    def test_infeasible_action_is_a_policy_bug(self, region_params):
        with pytest.raises(InfeasibleActionError):
            step(SimState(battery=5, belief=0.5, channel=0),
                 Action.HIGH_RATE, episode_rng(0, 0), region_params)


class TestRunEpisodes:
    def test_all_defer_earns_exactly_zero(self, region_params):
        stats = run_episodes(all_defer(region_params), region_params,
                             episodes=3, horizon=200, seed=1)
        assert stats.mean_bits_per_slot == 0.0
        assert stats.std_error == 0.0

    def test_starved_battery_earns_zero(self, region_params):
        starved = region_params.replace(energy_pmf=(1.0,))
        stats = run_episodes(greedy_policy(starved), starved,
                             episodes=3, horizon=200, seed=1)
        assert stats.mean_bits_per_slot == 0.0

    # The channel is always GOOD and e_tx arrives every slot: slot 0 starts
    # with an empty battery and defers, and every later slot spends e_tx.
    def test_always_good_greedy_cycles_deterministically(self):
        p = certain_good_params()
        stats = run_episodes(greedy_policy(p), p, episodes=2, horizon=500,
                             seed=3)
        assert stats.mean_bits_per_slot == pytest.approx(p.r_high * 499 / 500)

    def test_always_good_opportunistic_pays_the_sensing_time(self):
        p = certain_good_params()
        stats = run_episodes(opportunistic_policy(p), p, episodes=2, horizon=500,
                             seed=3)
        assert stats.mean_bits_per_slot == pytest.approx(
            (1 - p.tau) * p.r_high * 499 / 500)

    @pytest.mark.parametrize("episodes, horizon", [(0, 10), (2, 0)])
    def test_empty_run_is_rejected(self, region_params, episodes, horizon):
        with pytest.raises(ValueError, match="episodes and horizon must be >= 1"):
            run_episodes(greedy_policy(region_params), region_params, episodes,
                         horizon, seed=0)

    def test_takes_no_start(self, region_params):
        # every lane starts at battery 0 with the stationary belief
        with pytest.raises(TypeError):
            run_episodes(greedy_policy(region_params), region_params, 2, 10,
                         seed=0, initial_battery=0)

    def test_empty_policy_sequence_runs_no_lane(self, region_params):
        assert run_episodes([], region_params, 2, 10, seed=0) == []
        assert run_episodes([], [], 2, 10, seed=0) == []

    def test_trace_starts_where_every_lane_does(self, region_params):
        trace = run_trace(greedy_policy(region_params), region_params, 10, seed=0)
        assert trace.belief[0] == stationary_belief(region_params)
        with pytest.raises(TypeError):
            run_trace(greedy_policy(region_params), region_params, 10, seed=0,
                      initial_battery=0)

    def test_deterministic_and_seed_sensitive(self, region_params):
        pol = greedy_policy(region_params)
        a = run_episodes(pol, region_params, 4, 300, seed=9)
        b = run_episodes(pol, region_params, 4, 300, seed=9)
        c = run_episodes(pol, region_params, 4, 300, seed=10)
        assert a == b
        assert a.mean_bits_per_slot != c.mean_bits_per_slot

    def test_mean_bounded_by_high_rate(self, region_params):
        stats = run_episodes(opportunistic_policy(region_params), region_params,
                             4, 500, seed=11)
        assert 0.0 <= stats.mean_bits_per_slot <= region_params.r_high


class TestScalarVectorAgreement:
    def test_trace_totals_match_vectorized_episode(self, region_params):
        pol = opportunistic_policy(region_params)
        episodes, horizon = 3, 400
        stats = run_episodes(pol, region_params, episodes, horizon, seed=21)
        means = []
        for e in range(episodes):
            trace = run_trace(pol, region_params, horizon, seed=21, episode=e)
            means.append(trace.bits.sum() / horizon)
        assert np.mean(means) == pytest.approx(stats.mean_bits_per_slot, abs=1e-12)

    def test_trace_matches_for_solved_policy(self, tiny_params, coarse_grid):
        pol = encode_rows(extract_policy(value_iteration(tiny_params, coarse_grid)))
        stats = run_episodes(pol, tiny_params, 2, 300, seed=5)
        totals = [run_trace(pol, tiny_params, 300, seed=5, episode=e).bits.sum()
                  for e in range(2)]
        assert np.mean(totals) / 300 == pytest.approx(stats.mean_bits_per_slot)


class TestStatisticalCalibration:
    def test_channel_marginal_matches_stationary(self, region_params):
        pol = all_defer(region_params)
        traces = [run_trace(pol, region_params, 2000, seed=31, episode=e)
                  for e in range(8)]
        freqs = [t.channel.mean() for t in traces]
        star = stationary_belief(region_params)
        se = np.std(freqs, ddof=1) / np.sqrt(len(freqs))
        assert abs(np.mean(freqs) - star) <= 3 * se + 1e-3

    def test_belief_is_calibrated(self, region_params):
        # among slots with belief in a bin, GOOD frequency ~ bin center
        pol = encode_rows(extract_policy(value_iteration(
            region_params, BeliefGrid.from_resolution(201))))
        beliefs, channels = [], []
        for e in range(6):
            t = run_trace(pol, region_params, 4000, seed=77, episode=e)
            beliefs.append(t.belief)
            channels.append(t.channel)
        beliefs = np.concatenate(beliefs)
        channels = np.concatenate(channels)
        for lo in (0.6, 0.7, 0.8):
            mask = (beliefs >= lo) & (beliefs < lo + 0.1)
            if mask.sum() < 500:
                continue
            freq = channels[mask].mean()
            center = beliefs[mask].mean()
            assert abs(freq - center) < 4.0 / np.sqrt(mask.sum()) + 0.01

    def test_discounted_return_matches_value_table(self, tiny_params, fine_grid):
        table = value_iteration(tiny_params, fine_grid)
        pol = encode_rows(extract_policy(table))
        mean, se = discounted_return(pol, tiny_params, episodes=400, seed=13)
        want = table.value_at(0, stationary_belief(tiny_params))
        assert abs(mean - want) <= 4 * se + 0.01


def test_episode_streams_are_independent_of_batching(region_params):
    pol = greedy_policy(region_params)
    full = run_episodes(pol, region_params, 4, 200, seed=8)
    singles = [run_trace(pol, region_params, 200, seed=8, episode=e).bits.sum() / 200
               for e in range(4)]
    assert np.mean(singles) == pytest.approx(full.mean_bits_per_slot, abs=1e-12)


def lane_total(policy, params, horizon, seed, **kw):
    """Bits of episode 0 summed slot by slot, as a simulator lane sums them."""
    return reduce(add, run_trace(policy, params, horizon, seed, **kw).bits.tolist(),
                  0.0)


def mixed_policies(params, grid):
    return [greedy_policy(params), all_defer(params), opportunistic_policy(params),
            encode_rows(extract_policy(value_iteration(params, grid)))]


class TestBatchedLanes:
    def test_batch_equals_one_call_per_policy(self, tiny_params, coarse_grid):
        pols = mixed_policies(tiny_params, coarse_grid)
        stats = run_episodes(pols, tiny_params, 4, 700, seed=5)
        assert len(stats) == len(pols)
        for pol, s in zip(pols, stats):
            s1 = run_episodes(pol, tiny_params, 4, 700, seed=5)
            assert s == s1

    def test_batched_lane_totals_equal_run_trace(self, region_params):
        pols = mixed_policies(region_params, BeliefGrid.from_resolution(101))
        stats = run_episodes(pols, region_params, 1, 900, seed=3)
        for pol, s in zip(pols, stats):
            assert s.mean_bits_per_slot == lane_total(pol, region_params, 900, 3) / 900

    def test_trials_sharing_rows_equal_run_trace(self, region_params):
        # a search batch: trials that each move one row of the incumbent,
        # and a copy whose rows are equal to the incumbent's by value only
        p = region_params
        incumbent = encode_rows(extract_policy(
            value_iteration(p, BeliefGrid.from_resolution(101))))
        moved = [(0, PolicyRow((), (Action.DEFER,))),  # the incumbent's own
                 # a breakpoint on an orbit belief: lambda0 is a reset
                 (10, PolicyRow((p.lambda0,), (Action.DEFER, Action.HIGH_RATE))),
                 (10, PolicyRow((0.5, 0.86), (Action.DEFER, Action.SENSE_DEFER,
                                              Action.HIGH_RATE))),
                 (20, PolicyRow((), (Action.HIGH_RATE,)))]
        trials = [ThresholdPolicy(rows=incumbent.rows[:b] + (row,)
                                  + incumbent.rows[b + 1:], params=p)
                  for b, row in moved]
        copy = ThresholdPolicy(rows=tuple(PolicyRow(r.breakpoints, r.labels)
                                          for r in incumbent.rows), params=p)
        assert copy.rows == incumbent.rows
        assert all(c is not r for c, r in zip(copy.rows, incumbent.rows))
        pols = [incumbent, *trials, copy]

        row_at = _slot_tables(pols, *_points(pols, p), stationary_belief(p),
                              600)[0]
        row_at = row_at.reshape(len(pols), p.b_max + 1)
        assert np.array_equal(row_at[-1], row_at[0])  # one block per value
        for (b, row), at in zip(moved, row_at[1:-1]):
            same = np.arange(p.b_max + 1) != b
            assert np.array_equal(at[same], row_at[0][same])
            assert (at[b] == row_at[0][b]) == (row == incumbent.rows[b])

        stats = run_episodes(pols, p, 2, 600, seed=9)
        assert len({s.mean_bits_per_slot for s in stats}) == 3
        for pol, s in zip(pols, stats):
            totals = np.array([lane_total(pol, p, 600, 9, episode=e)
                               for e in range(2)])
            assert s.mean_bits_per_slot == float((totals / 600).mean())

    @pytest.mark.parametrize("horizon", [1, _CHUNK, 2 * _CHUNK + 7])
    def test_horizons_around_the_chunk(self, tiny_params, horizon):
        pols = [greedy_policy(tiny_params), opportunistic_policy(tiny_params)]
        stats = run_episodes(pols, tiny_params, 1, horizon, seed=12)
        for pol, s in zip(pols, stats):
            want = lane_total(pol, tiny_params, horizon, 12)
            assert s.mean_bits_per_slot == want / horizon

    @pytest.mark.parametrize("lam0, lam1", [
        (0.4, 0.4),          # i.i.d. channel: the orbits end after a step or two
        (1.0, 0.0),          # the no-observation belief alternates 1, 0, 1, ...
        (0.0005, 0.9995),    # slow contraction: the orbits are cut at the horizon
    ])
    def test_orbit_edge_cases(self, lam0, lam1):
        p = SystemParams(lambda0=lam0, lambda1=lam1, energy_pmf=(0.5, 0.5),
                         b_max=6, e_tx=2, e_sense=1, r_low=0.0, r_high=1.0,
                         beta=0.9)
        horizon = 60
        p0 = stationary_belief(p)
        beliefs, successor, (j0, *reset) = orbits(p, (p0, lam0, lam1), horizon)
        assert j0 == 0
        assert len(beliefs) == len(set(beliefs.tolist()))
        for root, j in ((p0, j0), (lam0, reset[0]), (lam1, reset[1])):
            belief = root
            for _ in range(horizon):  # the successor walk is the float recursion
                assert beliefs[j] == belief
                j, belief = successor[j], belief_update_no_obs(belief, p)
        if lam0 == 1.0:
            assert sorted(beliefs.tolist()) == [0.0, 0.5, 1.0]
        if lam0 == 0.0005:
            assert len(beliefs) > 2 * horizon - 2
            last = successor[reset[0] + horizon - 1]
            assert last == reset[0] + horizon - 1
        pols = [greedy_policy(p), opportunistic_policy(p)]
        stats = run_episodes(pols, p, 1, horizon, seed=2)
        for pol, s in zip(pols, stats):
            assert s.mean_bits_per_slot == lane_total(pol, p, horizon, 2) / horizon

    def test_root_deep_in_an_earlier_orbit_is_walked_to_the_horizon(self):
        # With lambda0 = 1, lambda1 = f(lambda0) sits one step deep in
        # lambda0's orbit, which is cut at the horizon.  lambda1's own walk
        # must follow the float recursion for all 60 steps, not freeze where
        # lambda0's orbit was cut.
        p = SystemParams(lambda0=1.0, lambda1=0.0005, energy_pmf=(0.5, 0.5),
                         b_max=50, e_tx=2, e_sense=1, r_low=0.5, r_high=1.0,
                         beta=0.9)
        p0 = stationary_belief(p)
        beliefs, successor, (_, _, j) = orbits(p, (p0, p.lambda0, p.lambda1), 60)
        belief = p.lambda1
        for _ in range(60):
            assert beliefs[j] == belief
            j, belief = successor[j], belief_update_no_obs(belief, p)
        # H near p*, which reveals the channel; L elsewhere, which does not
        transmit = PolicyRow((0.4, 0.6),
                             (Action.LOW_RATE, Action.HIGH_RATE, Action.LOW_RATE))
        pol = ThresholdPolicy(rows=tuple(
            transmit if b >= p.e_tx else PolicyRow((), (Action.DEFER,))
            for b in range(p.b_max + 1)), params=p)
        stats = run_episodes(pol, p, 4, 60, seed=1)
        for e in range(4):
            # one reset to lambda0 or lambda1 early on, then a walk
            # without observation that never comes back near p*
            trace = run_trace(pol, p, 60, seed=1, episode=e)
            t = int(np.argmax(np.abs(trace.belief - p0) > 0.1))
            assert 0 < t < 10 and trace.belief[t] in (p.lambda0, p.lambda1)
            belief = trace.belief[t]
            for got in trace.belief[t:].tolist():
                assert got == belief
                belief = belief_update_no_obs(belief, p)
        totals = np.array([lane_total(pol, p, 60, 1, episode=e) for e in range(4)])
        assert stats.mean_bits_per_slot == float((totals / 60).mean())

    @pytest.mark.parametrize("lam0, lam1", [(0.2, 0.8), (0.9, 0.3), (0.4, 0.4),
                                            (1.0, 0.0), (0.0, 1.0)])
    def test_channel_path_is_the_slot_recursion(self, lam0, lam1):
        p = SystemParams(lambda0=lam0, lambda1=lam1, energy_pmf=(0.5, 0.5),
                         b_max=6, e_tx=2, e_sense=1, r_low=0.0, r_high=1.0,
                         beta=0.9)
        rng = np.random.default_rng(4)
        stay = rng.random((300, 5))
        stay[rng.random(stay.shape) < 0.1] = lam0  # ties with a transition row
        start = np.array([0, 1, 0, 1, 1])
        want, chan = [], start
        for row in stay:
            chan = (row < np.where(chan == 1, lam1, lam0)).astype(int)
            want.append(chan)
        assert np.array_equal(_channel_path(start, stay, p), want)

    def test_memory_does_not_grow_with_the_horizon(self, region_params):
        tracemalloc.start()
        try:
            run_episodes(opportunistic_policy(region_params), region_params,
                         30, 100_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6  # the whole-horizon uniforms alone were 48 MB

    def test_memory_of_long_orbits_is_one_block_per_distinct_row(self,
                                                                 region_params):
        # a sticky channel: about 15 000 orbit points in 5000 slots, and the
        # two policies hold four distinct rows among their 102
        p = region_params.replace(lambda0=0.0005, lambda1=0.9995)
        tracemalloc.start()
        try:
            run_episodes([greedy_policy(p), opportunistic_policy(p)], p,
                         2, 5000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6  # one table row per (policy, battery) takes 11.5 MB

    def test_label_mutated_after_construction_is_rejected(self, region_params):
        pol = greedy_policy(region_params)
        before = run_episodes(pol, region_params, 2, 10, seed=0)
        with pytest.raises(FrozenInstanceError):
            pol.rows[0].labels = (Action.HIGH_RATE,)
        with pytest.raises(FrozenInstanceError):
            pol.rows = pol.rows[::-1]
        assert run_episodes(pol, region_params, 2, 10, seed=0) == before

    def test_policy_for_other_costs_is_rejected(self, region_params):
        cheaper = greedy_policy(region_params.replace(e_tx=5))
        with pytest.raises(ParameterError):
            run_episodes([greedy_policy(region_params), cheaper], region_params,
                         2, 10, seed=0)

    def test_cmd_simulate_makes_one_call_for_every_sweep_point(self, tmp_path,
                                                               monkeypatch):
        calls = []

        def counting(policy, params, *args, **kwargs):
            calls.append((len(policy), len(params)))
            return run_episodes(policy, params, *args, **kwargs)

        monkeypatch.setattr(cli, "run_episodes", counting)
        path = write_config(tmp_path, small_config(sweep={"q": [0.2, 0.6]}))
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "sim"), "--quiet"]) == 0
        assert calls == [(8, 8)]  # 2 points x 4 policies, one params each


def sweep(p, grid, axis):
    """(params, policies) per point of a q, tau or q x tau sweep of `p`."""
    qs = (0.1, 0.5, 0.9) if "q" in axis else (None,)
    costs = (1, 2, 5) if "tau" in axis else (None,)
    points = []
    for q in qs:
        for e_sense in costs:
            pt = p if q is None else p.with_harvest(q)
            pt = pt if e_sense is None else pt.replace(e_sense=e_sense)
            points.append((pt, [greedy_policy(pt), opportunistic_policy(pt),
                                encode_rows(extract_policy(
                                    value_iteration(pt, grid)))]))
    return points


class TestSweepPointLanes:
    @pytest.mark.parametrize("axis", ["q", "tau", "q_tau"])
    def test_one_call_equals_a_call_per_point(self, region_params, coarse_grid,
                                              axis):
        points = sweep(region_params, coarse_grid, axis)
        want = [s for pt, pols in points
                for s in run_episodes(pols, pt, 4, 700, seed=5)]
        got = run_episodes([pol for _, pols in points for pol in pols],
                           [pt for pt, pols in points for _ in pols],
                           4, 700, seed=5)
        assert got == want
        assert len({s.mean_bits_per_slot for s in got}) > len(got) // 2

    def test_points_with_unequal_policy_counts(self, region_params,
                                               coarse_grid):
        # pmf runs of 3, 1 and 2 policies: harvest blocks of one policy
        (a, pa), (b, pb), (c, pc) = sweep(region_params, coarse_grid, "q")
        pols, params = pa + pb[:1] + pc[:2], [a] * 3 + [b] + [c] * 2
        got = run_episodes(pols, params, 1, 600, seed=2)
        for pol, pt, s in zip(pols, params, got):
            assert s.mean_bits_per_slot == lane_total(pol, pt, 600, 2) / 600

    @pytest.mark.parametrize("field, value", [
        ("lambda0", 0.5), ("lambda1", 0.95), ("b_max", 60), ("e_sense", 1),
        ("e_tx", 12)])
    def test_entry_for_another_model_is_rejected(self, region_params, field,
                                                 value):
        p = region_params
        other = p.replace(**{field: value})
        with pytest.raises(ParameterError):  # the policy was built for p
            run_episodes([greedy_policy(p)] * 2, [p, other], 2, 10, seed=0)
        own = [greedy_policy(p), greedy_policy(other)]
        if field in ("e_sense", "e_tx"):  # a cost sweep: each lane its own
            run_episodes(own, [p, other], 2, 10, seed=0)
        else:  # the channel and the battery size are shared by every lane
            with pytest.raises(ParameterError):
                run_episodes(own, [p, other], 2, 10, seed=0)

    def test_one_entry_per_policy(self, region_params):
        with pytest.raises(ParameterError):
            run_episodes([greedy_policy(region_params)] * 2, [region_params],
                         2, 10, seed=0)

    def test_memory_of_five_points_does_not_grow_with_the_horizon(
            self, region_params):
        points = [region_params.with_harvest(q) for q in (0.1, 0.3, 0.5, 0.7,
                                                          0.9)]
        tracemalloc.start()
        try:
            run_episodes([opportunistic_policy(p) for p in points], points,
                         30, 100_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6  # the harvest is one row per pmf, not per lane
