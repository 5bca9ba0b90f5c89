"""Independent brute-force finite-horizon solver and solver certification checks.

The finite-horizon values here are computed over the exact reachable
beliefs (no grid, no interpolation) by backward induction: the beliefs with
h slots left are those with h + 1 left propagated once, plus lambda0 and
lambda1, and each stage is evaluated from the one after it for every
battery.  It is the reference the grid solver is tested against and it
never shares code with the solver's backup path.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import SystemParams
from .belief import belief_update_no_obs


def _exact_values(params: SystemParams, roots, n: int) -> dict:
    """{p: the optimal n-slot values from (b, p), b = 0..b_max} per root p.

    A value depends on the belief only through its float, so the float is
    an exact key.  Stage 0 is zero everywhere.
    """
    beta, e_tx, e_sense, b_max = params.beta, params.e_tx, params.e_sense, params.b_max
    r1, r2, one_minus_tau = params.r_low, params.r_high, 1.0 - params.tau
    after_good, after_bad = params.lambda1, params.lambda0
    b = np.arange(b_max + 1)
    # next battery per harvest level after each debit; the rows that cannot
    # afford the debit read row 0 and are dropped below
    nxt = {debit: [(np.minimum(b + m - debit, b_max).clip(min=0), q)
                   for m, q in params.harvest_support]
           for debit in (0, e_sense, e_tx)}
    stages = [{float(p) for p in roots}]  # stages[k]: n - k slots left
    for _ in range(n):
        stages.append({belief_update_no_obs(p, params) for p in stages[-1]}
                      | {after_good, after_bad})
    later = dict.fromkeys(stages.pop(), np.zeros(b_max + 1))

    def cont(debit: int, p: float) -> np.ndarray:
        # expected next-stage value after spending `debit`, per battery
        acc = 0.0
        for idx, q in nxt[debit]:
            acc = acc + q * later[p][idx]
        return beta * acc

    band, tx = slice(e_sense, e_tx), slice(e_tx, None)
    while stages:
        good_tx, bad_tx = cont(e_tx, after_good)[tx], cont(e_tx, after_bad)[tx]
        good_sense, bad_sense = cont(e_sense, after_good), cont(e_sense, after_bad)
        now = {}
        for p in stages.pop():
            propagated = belief_update_no_obs(p, params)
            best = now[p] = cont(0, propagated)  # defer
            # sense without the energy to transmit afterwards
            best[band] = np.maximum(best[band], p * good_sense[band]
                                    + (1.0 - p) * bad_sense[band])
            sensed_good = p * (one_minus_tau * r2 + good_tx)
            best[tx] = np.maximum.reduce([
                best[tx], p * (r2 + good_tx) + (1.0 - p) * bad_tx,  # high rate
                sensed_good + (1.0 - p) * bad_sense[tx]])  # sense, defer on BAD
            if params.two_rate:
                best[tx] = np.maximum.reduce([
                    best[tx], r1 + cont(e_tx, propagated)[tx],  # low rate
                    sensed_good + (1.0 - p) * (one_minus_tau * r1 + bad_tx)])
        later = now
    return later


def exact_finite_horizon(params: SystemParams, b0: int, p0: float, n: int) -> float:
    """Optimal n-slot expected discounted reward from (b0, p0), computed exactly."""
    if n < 1:
        raise ValueError("horizon must be >= 1")
    return float(_exact_values(params, [p0], n)[float(p0)][b0])


@dataclass
class OracleResult:
    """Comparison of exact finite-horizon values against solver truncations;
    `passed` iff the gap is within `bound` = 10 * grid step * n * r_high."""

    horizon: int
    values: dict = field(repr=False)                # (battery, belief) -> exact value
    max_abs_gap_vs_solver: float = float("nan")
    bound: float = float("nan")
    passed: bool = False


def compare_with_solver(params: SystemParams, grid, n: int) -> OracleResult:
    """Exact n-step values vs. n applications of the solver's backup operator.

    Interpolates the truncated grid table at each belief reachable from the
    stationary one within n slots; the gap is the maximum absolute
    difference over all batteries and those beliefs.
    """
    from .solver import BellmanOperator
    from .belief import reachable_beliefs, stationary_belief

    beliefs = reachable_beliefs(stationary_belief(params), n, params).tolist()
    op = BellmanOperator(params, grid)
    values = np.zeros((params.b_max + 1, grid.resolution))
    for _ in range(n):
        values = op.step(values)
    induced = _exact_values(params, beliefs, n)  # one induction for every query
    exact = np.stack([induced[p] for p in beliefs], axis=1)  # (battery, belief)
    gap = float(np.max(np.abs(exact - grid.interp(values, np.array(beliefs)))))
    bound = 10 * grid.step * n * params.r_high
    return OracleResult(n, {(b, p): v for b, row in enumerate(exact.tolist())
                            for p, v in zip(beliefs, row)},
                        gap, bound, gap <= bound)


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


def _margin(name: str, margin: np.ndarray, floor: float, batteries, points,
            detail: str = "") -> CheckReport:
    """The check `name` passes iff min(margin) >= floor; the report carries
    that minimum at the (battery, belief) of its first occurrence, with
    margin[i, j] read at (batteries[i], points[j]).  An empty margin, no
    state to check, is reported as skipped."""
    if not margin.size:
        return CheckReport(name, True, 0.0, (), "skipped: no state to check")
    i, j = np.unravel_index(np.argmin(margin), margin.shape)
    worst = float(margin[i, j])
    return CheckReport(name, worst >= floor, worst,
                       (int(batteries[i]), float(points[j])), detail)


def check_value_structure(table) -> list:
    """Structural checks on a converged table.

    convexity_in_belief       second differences along the belief axis >= 0
                              (tolerance 1e-6 * r_high per point); skipped
                              on a grid of fewer than 3 points
    monotone_in_battery       values nondecreasing in battery (>= -1e-9)
    monotone_in_belief        values nondecreasing in belief when
                              lambda1 >= lambda0 (>= -1e-9)
    battery_gap_bound         V(b + e_tx - e_sense, p) - V(b, p) stays below
                              (1 - tau) * r_high for all b >= 1
    """
    params, V = table.params, table.values
    pts = table.grid.points
    bats = np.arange(params.b_max + 1)
    tol = 1e-6 * params.r_high
    reports = [
        _margin("convexity_in_belief", V[:, :-2] - 2.0 * V[:, 1:-1] + V[:, 2:],
                -tol, bats, pts[1:-1], f"tolerance {-tol:.1e}"),
        _margin("monotone_in_battery", V[1:] - V[:-1], -1e-9, bats[1:], pts)]
    if params.lambda1 >= params.lambda0:
        reports.append(_margin("monotone_in_belief", V[:, 1:] - V[:, :-1],
                               -1e-9, bats, pts[1:]))
    else:
        reports.append(CheckReport(
            "monotone_in_belief", True, 0.0, (), "skipped: lambda1 < lambda0"))
    # SystemParams keeps 0 < e_sense < e_tx <= b_max: 1 <= shift < b_max
    shift = params.e_tx - params.e_sense
    bound = (1.0 - params.tau) * params.r_high
    reports.append(_margin("battery_gap_bound",
                           bound - (V[1 + shift:] - V[1:-shift]), -1e-9,
                           bats[1:-shift], pts, f"bound {bound:.4f}"))
    return reports


def check_good_state_dominance(table, min_belief: float = 0.0) -> CheckReport:
    """Transmitting on a revealed GOOD state beats saving the energy.

    Compares the sensing backups against their defer-on-GOOD variants on the
    converged table, for batteries that can afford a full transmission.  The
    margin must be at least p * (1 - beta) * (1 - tau) * r_high at each
    grid state, up to 1e-6.
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
    tol = 1e-6
    return _margin("sense_then_transmit_dominance", margin, -tol,
                   np.arange(params.e_tx, params.b_max + 1), p,
                   f"floor p*(1-beta)*(1-tau)*r_high, tol {tol:.0e}")
