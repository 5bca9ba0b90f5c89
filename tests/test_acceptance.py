"""End-to-end acceptance gate.

Each test implements one release criterion at its stated tolerance and
prints a PASS/FAIL line (run with -s to see them on success).  Criteria 2
(its battery-gap clause) and 3 assert claims that the solved model
genuinely violates; they are implemented faithfully and expected to stay
red.  The measured violation is cross-validated by the exact finite-horizon
recursion and by Monte Carlo policy evaluation; see the repository notes.
"""
import time

import numpy as np
import pytest
import yaml

from ehsense import (Action, BeliefGrid, SearchConfig, SystemParams,
                     bellman_step, encode_rows, exact_finite_horizon,
                     extract_policy, extract_thresholds, greedy_policy,
                     opportunistic_policy, reachable_beliefs, run_episodes,
                     search_thresholds, stationary_belief, value_iteration,
                     zero_table)
from ehsense.solver import sense_defer_on_good_backups
from conftest import two_point_pmf

GRID = BeliefGrid.from_resolution(1001)
SEED = 20240601


def report(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return passed


@pytest.fixture(scope="module")
def region_instance():
    """Single-rate slow-harvest instance used by criteria 2-5."""
    params = SystemParams(lambda0=0.6, lambda1=0.9,
                          energy_pmf=two_point_pmf(0.1, 10), b_max=50,
                          e_tx=10, e_sense=2, r_low=0.0, r_high=3.0, beta=0.98)
    t0 = time.perf_counter()
    table = value_iteration(params, GRID, tol=1e-9)
    return params, table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def throughput_instance():
    """Benchmark instance and simulated stats used by criteria 7-8."""
    base = SystemParams(lambda0=0.2, lambda1=0.8,
                        energy_pmf=two_point_pmf(0.1, 10), b_max=50,
                        e_tx=10, e_sense=2, r_low=0.0, r_high=2.0, beta=0.999)
    qs = (0.1, 0.3, 0.5, 0.7, 0.9)
    t0 = time.perf_counter()
    stats = {}
    warm = {}
    for q in qs:
        params = base.with_harvest(q)
        opt = value_iteration(params, GRID, tol=1e-5, span_tol=1e-6,
                              v_init=warm.get("optimal"))
        warm["optimal"] = opt.values
        single = value_iteration(params, GRID, tol=1e-5, span_tol=1e-6,
                                 v_init=warm.get("single"),
                                 allowed=(Action.DEFER, Action.HIGH_RATE))
        warm["single"] = single.values
        policies = {
            "optimal": encode_rows(extract_policy(opt)),
            "single_threshold": encode_rows(extract_policy(single)),
            "greedy": greedy_policy(params),
            "opportunistic": opportunistic_policy(params),
        }
        # one pass for all four: each result equals its single-policy call
        batch = run_episodes(list(policies.values()), params, episodes=30,
                             horizon=100_000, seed=SEED)
        stats[q] = dict(zip(policies, batch))
    return base, qs, stats, time.perf_counter() - t0


def test_01_oracle_equivalence():
    params = SystemParams(lambda0=0.3, lambda1=0.8, energy_pmf=(0.5, 0.5),
                          b_max=4, e_tx=2, e_sense=1, r_low=0.0, r_high=1.0,
                          beta=0.9)
    t0 = time.perf_counter()
    beliefs = reachable_beliefs(stationary_belief(params), 8, params)
    table = zero_table(params, GRID)
    worst = 0.0
    ok = True
    for n in range(1, 9):
        table = bellman_step(table)
        tol = 10 * GRID.step * n * params.r_high
        for b in range(params.b_max + 1):
            for p in beliefs:
                gap = abs(exact_finite_horizon(params, b, float(p), n)
                          - float(GRID.interp(table.values[b], float(p))))
                worst = max(worst, gap)
                ok = ok and gap <= tol
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert report(1, "oracle_equivalence", ok,
                  f"worst gap {worst:.2e}, {elapsed:.1f} s")


def test_02_value_structure(region_instance):
    params, table, solve_time = region_instance
    t0 = time.perf_counter()
    V = table.values

    d2 = V[:, :-2] - 2.0 * V[:, 1:-1] + V[:, 2:]
    convex = bool(np.min(d2) >= -1e-6 * params.r_high)
    mono_b = bool(np.min(V[1:] - V[:-1]) >= -1e-9)
    mono_p = bool(np.min(V[:, 1:] - V[:, :-1]) >= -1e-9)

    shift = params.e_tx - params.e_sense                    # 8 units
    bound = (1.0 - params.tau) * params.r_high              # 2.4 bits
    hi = params.b_max - shift
    gaps = V[1 + shift:1 + shift + hi] - V[1:1 + hi]
    gap_ok = bool(np.max(gaps) < bound + 1e-9)

    elapsed = solve_time + (time.perf_counter() - t0)
    report(2, "structure_convexity_in_belief", convex, f"min d2 {np.min(d2):.1e}")
    report(2, "structure_monotone_in_battery", mono_b)
    report(2, "structure_monotone_in_belief", mono_p)
    report(2, "structure_battery_gap_bound", gap_ok,
           f"max gap {np.max(gaps):.3f} vs bound {bound}")
    ok = all([convex, mono_b, mono_p, gap_ok, elapsed < 60.0])
    assert report(2, "value_structure_suite", ok, f"{elapsed:.1f} s")


def test_03_good_state_dominance(region_instance):
    params, table, _ = region_instance
    q_od, q_ot, q_odd, q_otd = sense_defer_on_good_backups(table)
    rows = slice(params.e_tx, None)
    cols = GRID.points > 0.05
    p = GRID.points[cols]
    floor = p * (1.0 - params.beta) * (1.0 - params.tau) * params.r_high
    margin = np.minimum((q_od - q_odd)[rows][:, cols],
                        (q_ot - q_otd)[rows][:, cols]) - floor
    ok = bool(np.min(margin) >= -1e-6)
    assert report(3, "good_state_dominance", ok,
                  f"min margin-floor {np.min(margin):.3f}")


def test_04_threshold_structure(region_instance):
    params, table, _ = region_instance
    policy = extract_policy(table)
    thresholds = extract_thresholds(policy)  # raises on pattern violations
    row = thresholds.rows[20]
    single = len(row.breakpoints) == 1 and row.labels == (Action.DEFER,
                                                          Action.HIGH_RATE)
    near = single and abs(row.breakpoints[0] - 0.80) <= 0.05
    assert report(4, "threshold_structure", near,
                  f"b=20 row {'|'.join(a.code for a in row.labels)} "
                  f"at {row.breakpoints}")


def test_05_staircase_value_function(region_instance):
    params, table, _ = region_instance
    star = stationary_belief(params)
    jumps = [table.value_at(10 * n, star) - table.value_at(10 * n - 1, star)
             for n in range(1, 6)]
    within = [abs(table.value_at(b + 1, star) - table.value_at(b, star))
              for b in range(params.b_max)
              if b % params.e_tx not in (0, params.e_tx - 1)]
    ok = np.mean(jumps) > 3.0 * np.mean(within)
    assert report(5, "staircase_value_function", ok,
                  f"jump {np.mean(jumps):.3f} vs within {np.mean(within):.4f}")


def test_06_region_sensitivity():
    base = SystemParams(lambda0=0.4, lambda1=0.8,
                        energy_pmf=two_point_pmf(0.8, 10), b_max=50,
                        e_tx=10, e_sense=1, r_low=0.0, r_high=3.0, beta=0.9)
    h_cells = {}
    v = None
    for q in (0.8, 0.2):
        t = value_iteration(base.with_harvest(q), GRID, tol=1e-9, v_init=v)
        v = t.values
        h_cells[q] = extract_policy(t).cell_count(Action.HIGH_RATE)
    harvest_ok = h_cells[0.8] > h_cells[0.2]

    sense_cells = {}
    for e_sense in (2, 3):
        t = value_iteration(base.replace(e_sense=e_sense), GRID, tol=1e-9)
        sense_cells[e_sense] = extract_policy(t).cell_count(Action.SENSE_DEFER)
    sense_ok = sense_cells[2] > sense_cells[3]

    ok = harvest_ok and sense_ok
    assert report(6, "region_sensitivity", ok,
                  f"H cells {h_cells[0.8]}>{h_cells[0.2]}, "
                  f"sense cells {sense_cells[2]}>{sense_cells[3]}")


def test_07_throughput_ordering(throughput_instance):
    _, qs, stats, elapsed = throughput_instance
    ok = elapsed < 300.0
    details = [f"{elapsed:.0f} s"]
    for q in qs:
        s = stats[q]
        cse_os = np.hypot(s["optimal"].std_error, s["single_threshold"].std_error)
        cse_sg = np.hypot(s["single_threshold"].std_error, s["greedy"].std_error)
        ok &= s["optimal"].mean_bits_per_slot \
            >= s["single_threshold"].mean_bits_per_slot - 2 * cse_os
        ok &= s["single_threshold"].mean_bits_per_slot \
            >= s["greedy"].mean_bits_per_slot - 2 * cse_sg
        ok &= s["opportunistic"].mean_bits_per_slot \
            < s["single_threshold"].mean_bits_per_slot
    ok &= stats[0.9]["opportunistic"].mean_bits_per_slot \
        < stats[0.9]["greedy"].mean_bits_per_slot
    details.append("optimal>=single>=greedy at all q, opportunistic dominated")
    assert report(7, "throughput_ordering", bool(ok), "; ".join(details))


def test_08_policy_search_matches_value_iteration():
    base = SystemParams(lambda0=0.2, lambda1=0.8,
                        energy_pmf=two_point_pmf(0.1, 10), b_max=50,
                        e_tx=10, e_sense=1, r_low=0.0, r_high=2.0, beta=0.999)
    orbit = reachable_beliefs(base.lambda0, 8, base)
    candidates = orbit[(orbit > 0) & (orbit <= 1)]
    ok = True
    details = []
    for q in (0.3, 0.7):
        params = base.with_harvest(q)
        table = value_iteration(params, GRID, tol=1e-5, span_tol=1e-6)
        init = extract_thresholds(extract_policy(table))
        cfg = SearchConfig(candidates=candidates, episodes=8, horizon=2500,
                           seed=777, max_passes=1)
        result = search_thresholds(params, cfg, init)
        eval_kw = dict(episodes=12, horizon=30_000, seed=31415)
        s_init = run_episodes(init, params, **eval_kw)
        s_out = run_episodes(result.policy, params, **eval_kw)
        ok &= s_out.mean_bits_per_slot \
            >= s_init.mean_bits_per_slot - s_init.std_error
        details.append(f"q={q}: search {s_out.mean_bits_per_slot:.4f} vs "
                       f"vi {s_init.mean_bits_per_slot:.4f} "
                       f"(se {s_init.std_error:.4f})")
    assert report(8, "policy_search_vs_value_iteration", bool(ok),
                  "; ".join(details))


def test_09_simulation_determinism(tmp_path):
    from ehsense.cli import main
    cfg = {
        "model": {"lambda0": 0.2, "lambda1": 0.8,
                  "energy_pmf": {0: 0.5, 10: 0.5}, "b_max": 20, "e_tx": 10,
                  "e_sense": 2, "r_low": 0.0, "r_high": 2.0, "beta": 0.95},
        "grid": {"resolution": 201},
        "solver": {"tol": 1e-8},
        "simulation": {"episodes": 3, "horizon": 2000, "seed": 99},
        "policies": ["optimal", "greedy", "single_threshold", "opportunistic"],
        "sweep": {"q": [0.2, 0.8]},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    outs = []
    for d in ("run1", "run2"):
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / d), "--quiet"]) == 0
        outs.append((tmp_path / d / "throughput.csv").read_bytes())
    ok = outs[0] == outs[1]
    assert report(9, "simulation_determinism", ok,
                  f"{len(outs[0])} bytes, byte-identical reruns")


def test_10_two_rate_structure():
    pmf = [0.0] * 202
    pmf[0], pmf[201] = 0.9, 0.1
    params = SystemParams(lambda0=0.81, lambda1=0.98, energy_pmf=tuple(pmf),
                          b_max=800, e_tx=200, e_sense=7, r_low=2.91,
                          r_high=3.0, beta=0.7)
    table = value_iteration(params, GRID, tol=1e-9)
    policy = extract_policy(table)
    thresholds = extract_thresholds(policy)  # checks suffix/sensing intervals
    max_bp = max(len(r.breakpoints) for r in thresholds.rows)
    fragmented = sum(
        1 for r in thresholds.rows
        if list(r.labels).count(Action.DEFER) > 1
        or list(r.labels).count(Action.LOW_RATE) > 1)
    ok = max_bp <= 3
    assert report(10, "two_rate_structure", ok,
                  f"max {max_bp} thresholds/row, {fragmented} rows with "
                  f"fragmented defer/low-rate regions")
