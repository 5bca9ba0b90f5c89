"""Independent brute-force finite-horizon solver and solver certification checks.

The finite-horizon recursion here works over the exact reachable beliefs
(no grid, no interpolation), memoized on (battery, belief, slots left), so
an n-slot query is backward induction over at most
(b_max + 1) * 3(n + 1) * n states.  It is the reference the grid solver is
tested against and it never shares code with the solver's backup path.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SystemParams
from .belief import belief_update_no_obs


def _exact_solver(params: SystemParams):
    """solve(b, p, h): the optimal h-slot value from (b, p) under `params`.

    The returned function keeps one memo for all its queries.  A value
    depends on the belief only through its float, so the float is an exact
    key; the beliefs reached are the query's, lambda0 and lambda1, each
    propagated by `belief_update_no_obs` fewer than h times.
    """
    support = params.harvest_support
    beta = params.beta
    e_tx, e_sense, b_max = params.e_tx, params.e_sense, params.b_max
    r1, r2 = params.r_low, params.r_high
    one_minus_tau = 1.0 - params.tau
    two_rate = params.two_rate
    after_good, after_bad = params.lambda1, params.lambda0
    memo = {}

    def cont(h: int, b: int, debit: int, p: float) -> float:
        # expected next-stage value after spending `debit`, before clamping
        acc = 0.0
        for m, q in support:
            acc += q * solve(min(b + m - debit, b_max), p, h)
        return beta * acc

    def solve(b: int, p: float, h: int) -> float:
        if h == 0:
            return 0.0
        key = (b, p, h)
        got = memo.get(key)
        if got is not None:
            return got
        propagated = belief_update_no_obs(p, params)
        best = cont(h - 1, b, 0, propagated)  # defer
        if b >= e_sense and b < e_tx:
            # sense without the energy to transmit afterwards
            v = (p * cont(h - 1, b, e_sense, after_good)
                 + (1.0 - p) * cont(h - 1, b, e_sense, after_bad))
            best = max(best, v)
        if b >= e_tx:
            good_tx = cont(h - 1, b, e_tx, after_good)
            bad_tx = cont(h - 1, b, e_tx, after_bad)
            bad_sense = cont(h - 1, b, e_sense, after_bad)
            high = p * (r2 + good_tx) + (1.0 - p) * bad_tx
            sense_defer = (p * (one_minus_tau * r2 + good_tx)
                           + (1.0 - p) * bad_sense)
            best = max(best, high, sense_defer)
            if two_rate:
                low = r1 + cont(h - 1, b, e_tx, propagated)
                sense_tx = (p * (one_minus_tau * r2 + good_tx)
                            + (1.0 - p) * (one_minus_tau * r1 + bad_tx))
                best = max(best, low, sense_tx)
        memo[key] = best
        return best

    return solve


def exact_finite_horizon(params: SystemParams, b0: int, p0: float, n: int) -> float:
    """Optimal n-slot expected discounted reward from (b0, p0), computed exactly."""
    if n < 1:
        raise ValueError("horizon must be >= 1")
    return _exact_solver(params)(b0, p0, n)


@dataclass
class OracleResult:
    """Comparison of exact finite-horizon values against solver truncations."""

    horizon: int
    values: dict = field(repr=False)                # (battery, belief) -> exact value
    max_abs_gap_vs_solver: float = float("nan")


def compare_with_solver(params: SystemParams, grid, n: int) -> OracleResult:
    """Exact n-step values vs. n applications of the solver's backup operator.

    Interpolates the truncated grid table at each belief reachable from the
    stationary one within n slots; the gap is the maximum absolute
    difference over all batteries and those beliefs.
    """
    from .solver import BellmanOperator
    from .belief import reachable_beliefs, stationary_belief

    beliefs = reachable_beliefs(stationary_belief(params), n, params)
    op = BellmanOperator(params, grid)
    values = np.zeros((params.b_max + 1, grid.resolution))
    for _ in range(n):
        values = op.step(values)
    solve = _exact_solver(params)  # one memo for every (b, p) query
    exact = {}
    gap = 0.0
    for b in range(params.b_max + 1):
        for p in beliefs:
            v = solve(b, float(p), n)
            exact[(b, float(p))] = v
            gap = max(gap, abs(v - float(grid.interp(values[b], float(p)))))
    return OracleResult(horizon=n, values=exact, max_abs_gap_vs_solver=gap)


@dataclass
class CheckReport:
    """Outcome of one structural check on a converged value table."""

    name: str
    passed: bool
    worst_value: float
    worst_state: tuple
    detail: str = ""

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        loc = f" at (b={self.worst_state[0]}, p={self.worst_state[1]:.4f})" \
            if self.worst_state else ""
        extra = f" [{self.detail}]" if self.detail else ""
        return f"{status} {self.name}: worst={self.worst_value:.3e}{loc}{extra}"


def _argmin_state(metric: np.ndarray, batteries, points) -> tuple:
    i, j = np.unravel_index(np.argmin(metric), metric.shape)
    return (int(batteries[i]), float(points[j]))


def check_value_structure(table) -> list:
    """Structural checks on a converged table.

    convexity_in_belief       second differences along the belief axis >= 0
                              (tolerance 1e-6 * r_high per point)
    monotone_in_battery       values nondecreasing in battery (>= -1e-9)
    monotone_in_belief        values nondecreasing in belief when
                              lambda1 >= lambda0 (>= -1e-9)
    battery_gap_bound         V(b + e_tx - e_sense, p) - V(b, p) stays below
                              (1 - tau) * r_high for all b >= 1
    """
    params, grid, V = table.params, table.grid, table.values
    pts = grid.points
    bats = np.arange(params.b_max + 1)
    reports = []

    d2 = V[:, :-2] - 2.0 * V[:, 1:-1] + V[:, 2:]
    tol = 1e-6 * params.r_high
    reports.append(CheckReport(
        "convexity_in_belief", bool(np.min(d2) >= -tol), float(np.min(d2)),
        _argmin_state(d2, bats, pts[1:-1]), f"tolerance {-tol:.1e}"))

    db = V[1:] - V[:-1]
    reports.append(CheckReport(
        "monotone_in_battery", bool(np.min(db) >= -1e-9), float(np.min(db)),
        _argmin_state(db, bats[1:], pts)))

    if params.lambda1 >= params.lambda0:
        dp = V[:, 1:] - V[:, :-1]
        reports.append(CheckReport(
            "monotone_in_belief", bool(np.min(dp) >= -1e-9), float(np.min(dp)),
            _argmin_state(dp, bats, pts[1:])))
    else:
        reports.append(CheckReport(
            "monotone_in_belief", True, 0.0, (), "skipped: lambda1 < lambda0"))

    gap_units = params.e_tx - params.e_sense
    bound = (1.0 - params.tau) * params.r_high
    hi = params.b_max - gap_units
    if hi >= 1:
        slack = bound - (V[1 + gap_units:1 + gap_units + hi] - V[1:1 + hi])
        reports.append(CheckReport(
            "battery_gap_bound", bool(np.min(slack) >= -1e-9), float(np.min(slack)),
            _argmin_state(slack, bats[1:1 + hi], pts),
            f"bound {bound:.4f}"))
    else:
        reports.append(CheckReport(
            "battery_gap_bound", True, 0.0, (), "skipped: capacity too small"))
    return reports


def check_good_state_dominance(table, min_belief: float = 0.0,
                               tol: float = 1e-6) -> CheckReport:
    """Transmitting on a revealed GOOD state beats saving the energy.

    Compares the sensing backups against their defer-on-GOOD variants on the
    converged table, for batteries that can afford a full transmission.  The
    margin must be at least p * (1 - beta) * (1 - tau) * r_high at each
    grid state, up to `tol`.
    """
    from .solver import sense_defer_on_good_backups

    params, grid = table.params, table.grid
    q_od, q_ot, q_odd, q_otd = sense_defer_on_good_backups(table)
    rows = slice(params.e_tx, params.b_max + 1)
    cols = grid.points >= min_belief
    p = grid.points[cols]
    floor = p * (1.0 - params.beta) * (1.0 - params.tau) * params.r_high
    margin = np.minimum(q_od[rows][:, cols] - q_odd[rows][:, cols],
                        q_ot[rows][:, cols] - q_otd[rows][:, cols]) - floor
    worst = float(np.min(margin))
    bats = np.arange(params.e_tx, params.b_max + 1)
    return CheckReport(
        "sense_then_transmit_dominance", worst >= -tol, worst,
        _argmin_state(margin, bats, p),
        f"floor p*(1-beta)*(1-tau)*r_high, tol {tol:.0e}")
