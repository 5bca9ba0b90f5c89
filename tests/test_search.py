import numpy as np
import pytest

from ehsense import (Action, ParameterError, SearchConfig, default_candidates,
                     encode_rows, extract_policy, feasible_actions,
                     greedy_policy, run_episodes, search_thresholds,
                     value_iteration)
from ehsense import search as search_module
from ehsense.policies import NO_REGION, PolicyRow, ThresholdPolicy
from ehsense.search import policy_from_rho, rho_from_policy
from conftest import two_point_pmf

CANDS = np.array([0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9])


@pytest.fixture
def search_params():
    """Single-rate instance small enough for fast search evaluations."""
    from ehsense import SystemParams
    return SystemParams(lambda0=0.2, lambda1=0.8, energy_pmf=two_point_pmf(0.4, 5),
                        b_max=10, e_tx=5, e_sense=1, r_low=0.0, r_high=2.0,
                        beta=0.95)


def vi_thresholds(params, grid):
    return encode_rows(extract_policy(value_iteration(params, grid, tol=1e-8)))


def flat_threshold_policy(params, rho3):
    """Defer below rho3, transmit above, never sense; every threshold at rho3."""
    rho = np.full((params.b_max + 1, 3), NO_REGION)
    rho[:, 0] = rho[:, 1] = rho3
    rho[params.e_tx:, 2] = rho3
    return policy_from_rho(rho, params)


class TestRhoRoundtrip:
    def test_roundtrip_through_breakpoints(self, search_params, coarse_grid):
        tp = vi_thresholds(search_params, coarse_grid)
        rho = rho_from_policy(tp, search_params)
        back = policy_from_rho(rho, search_params)
        rng = np.random.default_rng(0)
        for _ in range(300):
            b = int(rng.integers(0, search_params.b_max + 1))
            p = float(rng.random())
            assert back.action_at(b, p) == tp.action_at(b, p)

    def test_ordering_always_valid(self, search_params, coarse_grid):
        rho = rho_from_policy(vi_thresholds(search_params, coarse_grid),
                              search_params)
        assert np.all(rho[:, 0] <= rho[:, 1] + 1e-12)
        assert np.all(rho[:, 1] <= rho[:, 2] + 1e-12)

    def test_two_rate_model_rejected(self, tiny_two_rate):
        pol = greedy_policy(tiny_two_rate)
        with pytest.raises(ParameterError):
            rho_from_policy(pol, tiny_two_rate)

    @pytest.mark.parametrize("labels", [
        (Action.DEFER, Action.SENSE_DEFER, Action.DEFER, Action.SENSE_DEFER),
        (Action.HIGH_RATE, Action.DEFER),
        (Action.SENSE_DEFER, Action.HIGH_RATE, Action.DEFER)])
    def test_row_outside_threshold_form_rejected(self, search_params, labels):
        b = search_params.e_tx
        bps = tuple(np.linspace(0.0, 1.0, len(labels) + 1)[1:-1])
        rows = [PolicyRow(breakpoints=(), labels=(Action.DEFER,))] \
            * (search_params.b_max + 1)
        rows[b] = PolicyRow(breakpoints=bps, labels=labels)
        pol = ThresholdPolicy(rows=tuple(rows), params=search_params)
        with pytest.raises(ParameterError, match=f"battery {b}:"):
            rho_from_policy(pol, search_params)


class TestCandidates:
    def test_defaults_cover_reachable_beliefs(self, search_params):
        cands = default_candidates(search_params)
        assert np.all((cands > 0) & (cands <= 1))
        for x in (search_params.lambda0, search_params.lambda1):
            assert np.min(np.abs(cands - x)) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SearchConfig(candidates=[1.5], episodes=2, horizon=10)
        with pytest.raises(ParameterError):
            SearchConfig(episodes=0, horizon=10)


class TestSearch:
    def test_single_candidate_per_threshold_returns_init(self, search_params):
        # rows that can transmit hold 0.5 in every threshold, so their windows
        # are empty; rows in [e_sense, e_tx) anchor rho1 = rho2 = 1.0, so 0.5
        # is tried there, but the start never visits them (its battery stays
        # a multiple of e_tx) and each trial scores exactly the start's estimate
        init = flat_threshold_policy(search_params, 0.5)
        cfg = SearchConfig(candidates=[0.5], episodes=3, horizon=200, seed=2,
                           max_passes=4)
        start = run_episodes(init, search_params, cfg.episodes, cfg.horizon,
                             cfg.seed)
        res = search_thresholds(search_params, cfg, init)
        assert np.array_equal(rho_from_policy(res.policy, search_params),
                              rho_from_policy(init, search_params))
        assert res.passes == 1
        assert res.log_rows  # the trials at the unvisited rows
        assert not any(accepted for *_, accepted in res.log_rows)
        assert all(val == start.mean_bits_per_slot
                   for *_, val, _ in res.log_rows)

    def test_improves_a_deliberately_bad_start(self, search_params):
        # "transmit only when almost certain" wastes most of the harvest
        init = flat_threshold_policy(search_params, 0.9)
        cfg = SearchConfig(candidates=CANDS, episodes=4, horizon=400, seed=3,
                           max_passes=2)
        base = run_episodes(init, search_params, cfg.episodes, cfg.horizon,
                            cfg.seed)
        res = search_thresholds(search_params, cfg, init)
        assert res.stats.mean_bits_per_slot > base.mean_bits_per_slot

    def test_monotone_accepted_estimates(self, search_params, coarse_grid):
        cfg = SearchConfig(candidates=CANDS, episodes=3, horizon=250, seed=5,
                           max_passes=2)
        res = search_thresholds(search_params, cfg,
                                vi_thresholds(search_params, coarse_grid))
        accepted = [row[4] for row in res.log_rows if row[5]]
        assert all(b > a for a, b in zip(accepted, accepted[1:]))

    def test_deterministic(self, search_params, coarse_grid):
        cfg = SearchConfig(candidates=CANDS, episodes=3, horizon=250, seed=6,
                           max_passes=2)
        init = vi_thresholds(search_params, coarse_grid)
        r1 = search_thresholds(search_params, cfg, init)
        r2 = search_thresholds(search_params, cfg, init)
        assert np.array_equal(rho_from_policy(r1.policy, search_params),
                              rho_from_policy(r2.policy, search_params))
        assert r1.stats == r2.stats
        assert r1.log_rows == r2.log_rows

    def test_output_keeps_interval_structure(self, search_params, coarse_grid):
        cfg = SearchConfig(candidates=CANDS, episodes=3, horizon=250, seed=7,
                           max_passes=2)
        res = search_thresholds(search_params, cfg,
                                vi_thresholds(search_params, coarse_grid))
        rho = rho_from_policy(res.policy, search_params)
        assert np.all(rho[:, 0] <= rho[:, 1] + 1e-12)
        assert np.all(rho[:, 1] <= rho[:, 2] + 1e-12)

    def test_static_channel_settles_quickly(self, coarse_grid):
        from ehsense import SystemParams
        params = SystemParams(lambda0=0.5, lambda1=0.5,
                              energy_pmf=two_point_pmf(0.4, 5), b_max=10,
                              e_tx=5, e_sense=1, r_low=0.0, r_high=2.0, beta=0.95)
        cfg = SearchConfig(candidates=CANDS, episodes=3, horizon=300, seed=8,
                           max_passes=6)
        res = search_thresholds(params, cfg, vi_thresholds(params, coarse_grid))
        # belief is pinned at 0.5, so only which side of 0.5 each breakpoint
        # falls on matters; row interactions may add a pass or two
        assert res.passes <= 3


def test_search_log_csv(tmp_path, search_params, coarse_grid):
    from ehsense.search import write_search_log
    cfg = SearchConfig(candidates=CANDS, episodes=2, horizon=150, seed=9,
                       max_passes=1)
    res = search_thresholds(search_params, cfg,
                            vi_thresholds(search_params, coarse_grid))
    path = tmp_path / "log.csv"
    write_search_log(res.log_rows, path, config_hash="99")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config=99"
    assert lines[1] == "pass,battery,threshold,candidate,throughput,accepted"
    assert len(lines) == 2 + len(res.log_rows)


def one_coordinate_search(params, config, init):
    """The search with one run_episodes call per (battery, threshold)
    coordinate: (log_rows, policy, stats, passes, window sizes tried)."""
    candidates = default_candidates(params) if config.candidates is None \
        else config.candidates
    rho = rho_from_policy(init, params)

    def evaluate(policies):
        return run_episodes(policies, params, config.episodes, config.horizon,
                            config.seed)

    stats = evaluate(policy_from_rho(rho, params))
    best = stats.mean_bits_per_slot
    log, widths, passes = [], [], 0
    for sweep in range(1, config.max_passes + 1):
        passes = sweep
        improved = False
        for b in range(params.b_max + 1):
            ok = feasible_actions(b, params)
            for k, a in enumerate((Action.SENSE_DEFER, Action.SENSE_DEFER,
                                   Action.HIGH_RATE)):
                if a not in ok:
                    continue
                lo = rho[b, k - 1] if k > 0 else 0.0
                hi = min(rho[b, k + 1], 1.0) if k < 2 else 1.0
                window = [c for c in candidates
                          if lo <= c <= hi and c != rho[b, k]]
                if not window:
                    continue
                widths.append(len(window))
                trials = []
                for cand in window:
                    moved = rho.copy()
                    moved[b, k] = cand
                    trials.append(moved)
                scored = evaluate([policy_from_rho(r, params) for r in trials])
                winner = None
                for cand, moved, st in zip(window, trials, scored):
                    accepted = st.mean_bits_per_slot > best
                    log.append((sweep, b, k, float(cand), st.mean_bits_per_slot,
                                accepted))
                    if accepted:
                        winner, best = (moved, st), st.mean_bits_per_slot
                if winner is not None:
                    rho, stats = winner
                    improved = True
        if not improved:
            break
    return log, policy_from_rho(rho, params), stats, passes, widths


class TestBatchedSearchReferee:
    """search_thresholds scores several coordinates per simulator pass; it
    must reproduce the one-coordinate-per-pass search exactly."""

    def run_both(self, params, cfg, init, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return run_episodes(*args, **kwargs)

        monkeypatch.setattr(search_module, "run_episodes", counted)
        res = search_thresholds(params, cfg, init)
        log, policy, stats, passes, widths = one_coordinate_search(params, cfg,
                                                                   init)
        assert res.log_rows == log
        assert np.array_equal(rho_from_policy(res.policy, params),
                              rho_from_policy(policy, params))
        assert res.stats == stats
        assert res.passes == passes
        return res, calls, widths

    def test_many_accepted_moves(self, search_params, monkeypatch):
        # test_improves_a_deliberately_bad_start's setup
        init = flat_threshold_policy(search_params, 0.9)
        cfg = SearchConfig(candidates=CANDS, episodes=4, horizon=400, seed=3,
                           max_passes=2)
        res, calls, widths = self.run_both(search_params, cfg, init, monkeypatch)
        assert sum(row[-1] for row in res.log_rows) >= 4
        # calls[0] scores the start; each later call holds several coordinates
        assert len(calls) - 1 < len(widths)
        # and trials were dropped: a move was accepted mid-batch
        assert sum(len(trials) for trials in calls[1:]) > len(res.log_rows)

    def test_windows_wider_than_the_lane_budget(self, search_params,
                                                monkeypatch):
        cfg = SearchConfig(episodes=12, horizon=150, seed=4, max_passes=1)
        init = flat_threshold_policy(search_params, 0.5)
        _, _, widths = self.run_both(search_params, cfg, init, monkeypatch)
        assert max(widths) * cfg.episodes > search_module._BATCH_LANES

    def test_two_passes(self, search_params, coarse_grid, monkeypatch):
        cfg = SearchConfig(candidates=CANDS, episodes=3, horizon=250, seed=5,
                           max_passes=2)
        res, _, _ = self.run_both(search_params, cfg,
                                  vi_thresholds(search_params, coarse_grid),
                                  monkeypatch)
        assert res.passes == 2
