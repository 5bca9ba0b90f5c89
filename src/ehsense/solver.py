"""Value iteration over the (battery, belief) grid.

The Bellman operator is precomputed into gather indices and interpolation
weights so one sweep is a handful of vectorized array operations.  The
scalar `backup` is the readable reference the vectorized path is tested
against.  Both read each action's slot outcome (bits, energy debit, whether
the channel is revealed) from `model.slot_outcomes`; only
`oracle.exact_finite_horizon` restates it, to stay independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (Action, InfeasibleActionError, SystemParams, feasible_actions,
                    slot_outcomes)
from .artifacts import write_grid_csv
from .belief import BeliefGrid, belief_update_no_obs

DEFAULT_TOL = 1e-9
Q_TIE_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Value iteration ran out of sweeps before the span of the change met
    its limit; `span` is the span of the last change."""

    def __init__(self, span: float, iterations: int):
        super().__init__(
            f"no convergence after {iterations} sweeps, span {span:.3e}")
        self.span = span
        self.iterations = iterations


@dataclass
class ValueTable:
    """Converged (or truncated) values plus per-action values on the grid.

    values[b, j] approximates the optimal discounted reward from battery b
    and belief grid.points[j].  q_values[a, b, j] is the backup of action a
    there (0 in a zero_table), NaN wherever the action is infeasible or not
    allowed, and values = np.fmax.reduce(q_values).
    `span` is the span of the last change value_iteration saw, and `bound` =
    beta / (1 - beta) * span / 2 the certified sup-norm distance of `values`
    to the grid's fixed point (both inf for tables value_iteration did not
    make).
    """

    values: np.ndarray = field(repr=False)
    q_values: np.ndarray = field(repr=False)
    grid: BeliefGrid
    params: SystemParams
    iterations: int
    span: float = math.inf
    bound: float = math.inf

    def value_at(self, battery: int, p: float) -> float:
        return float(self.grid.interp(self.values[battery], p))

    def write_csv(self, path, config_hash: str = "") -> None:
        header = ["battery", "belief", "value"] + [f"q_{a.code}" for a in Action]
        write_grid_csv(path, config_hash, header, self.grid.points,
                       [self.values, *self.q_values])


class BellmanOperator:
    """One-sweep backup operator with precomputed transition structure.

    The slot semantics come from `model.slot_outcomes`: at construction each
    allowed action is planned as the battery blocks where it is feasible,
    one per can-transmit value, and `backups` evaluates that plan.  `step`
    (max over actions) and `q_tables` (per-action values) are both built
    from it.  `allowed` restricts the action set (used by the no-sensing
    baseline); by default it is the model's own action set.
    """

    def __init__(self, params: SystemParams, grid: BeliefGrid, allowed=None):
        self.params = params
        self.grid = grid
        self.actions = tuple(allowed) if allowed is not None else params.actions()
        if Action.DEFER not in self.actions:
            raise ValueError("the action set must contain DEFER")

        b = np.arange(params.b_max + 1)
        support = params.harvest_support
        arrivals = np.array([m for m, _ in support])
        self._probs = np.array([q for _, q in support])
        outcomes = slot_outcomes(params)
        # next-battery indices per harvest level for each energy debit
        self._idx = {
            debit: np.minimum(b[:, None] + arrivals[None, :] - debit,
                              params.b_max).clip(min=0)
            for debit in map(int, np.unique(outcomes.debit))
        }
        j_of = belief_update_no_obs(grid.points, params)
        self._j_lo, self._j_w = grid.locate(j_of)
        self._j_hi = self._j_lo + 1
        self._j_w_lo = 1.0 - self._j_w
        # observation backups always land on the transition rows; those are
        # read at the nearest grid point so repeated resets stay exact
        self._i0 = grid.nearest_index(params.lambda0)
        self._i1 = grid.nearest_index(params.lambda1)
        self._p = grid.points
        self._not_p = 1.0 - grid.points
        # scratch for one sweep: reusing it spares page faults on fresh
        # arrays; np.take writes into it with mode="clip" because the default
        # mode="raise" goes through a buffer (all indices are in range)
        self._vj, self._buf, self._tmp = (np.empty(b.shape + grid.points.shape)
                                          for _ in range(3))
        self._plan = []  # (action, rows, SlotOutcomes.legs, reveals)
        for a in self.actions:
            for can_tx, band in ((0, b[:params.e_tx]), (1, b[params.e_tx:])):
                ok = [i for i in band if a in feasible_actions(i, params)]
                if ok:
                    self._plan.append((a, slice(ok[0], ok[-1] + 1),
                                       outcomes.legs(a, can_tx),
                                       bool(outcomes.reveals[a])))

    def _expect(self, values, idx, out=None, tmp=None) -> np.ndarray:
        """Harvest-averaged next values; idx[:, s] holds the next rows after
        harvest level s."""
        for s, q in enumerate(self._probs):
            nxt = np.take(values, idx[:, s], axis=0, out=tmp, mode="clip")
            if s == 0:
                out = np.multiply(q, nxt, out=out)
            else:
                np.add(out, np.multiply(q, nxt, out=tmp), out=out)
        return out

    def backups(self, values: np.ndarray, plan=None):
        """Yield (action, rows, Q-values on those rows) per planned block.

        A revealing action backs up p * (good bits + continuation at
        lambda1) + (1 - p) * (bad bits + continuation at lambda0); any
        other action its bits plus the continuation at the propagated
        belief.  `plan` defaults to the operator's own.  The yielded arrays
        are scratch, overwritten by the next block.
        """
        beta = self.params.beta
        vj, buf, tmp = self._vj, self._buf, self._tmp
        np.multiply(np.take(values, self._j_lo, axis=1, out=tmp, mode="clip"),
                    self._j_w_lo, out=vj)
        np.add(vj, np.multiply(np.take(values, self._j_hi, axis=1, out=tmp,
                                       mode="clip"), self._j_w, out=tmp), out=vj)
        revealed = (values[:, self._i0], values[:, self._i1])  # BAD, GOOD
        conts = {}

        def cont(good: int, debit: int) -> np.ndarray:
            if (good, debit) not in conts:
                conts[good, debit] = beta * self._expect(
                    revealed[good], self._idx[debit])[:, None]
            return conts[good, debit]

        for a, rows, legs, reveals in plan or self._plan:
            (bits_bad, debit_bad), (bits_good, debit_good) = legs
            q = buf[rows]
            if reveals:
                np.multiply(self._p, bits_good + cont(1, debit_good)[rows], out=q)
                np.add(q, np.multiply(self._not_p, bits_bad + cont(0, debit_bad)[rows],
                                      out=tmp[rows]), out=q)
            else:
                self._expect(vj, self._idx[debit_bad][rows], q, tmp[rows])
                np.multiply(beta, q, out=q)
                if bits_bad:  # skipped when 0: a full-array add for nothing
                    np.add(bits_bad, q, out=q)
            yield a, rows, q

    def q_tables(self, values: np.ndarray) -> np.ndarray:
        """Backups of `values` as one [action, battery, belief] array; NaN
        where the action is infeasible or not allowed."""
        q = np.full((len(Action),) + values.shape, np.nan)
        for a, rows, qa in self.backups(values):
            q[a, rows] = qa
        return q

    def step(self, values: np.ndarray) -> np.ndarray:
        """Max over the feasible action backups, without q_tables' NaN frames."""
        out = np.full(values.shape, -np.inf)
        for _, rows, q in self.backups(values):
            np.maximum(out[rows], q, out=out[rows])
        return out


def _cont(table: ValueTable, b: int, debit: int, next_belief: float) -> float:
    params = table.params
    acc = 0.0
    for m, q in params.harvest_support:
        nb = min(b + m - debit, params.b_max)
        acc += q * table.value_at(nb, next_belief)
    return params.beta * acc


def backup(table: ValueTable, action: Action, b: int, p: float) -> float:
    """Scalar backup of `action` at (b, p), read from `slot_outcomes`.

    It loops over the harvest support and interpolates with
    `table.value_at`, so it is an independent check on the operator's
    gather indices and interpolation.
    """
    params = table.params
    if action not in feasible_actions(b, params):
        raise InfeasibleActionError(f"{action.code} infeasible at battery {b}")
    outcomes = slot_outcomes(params)
    (bits_bad, debit_bad), (bits_good, debit_good) = outcomes.legs(
        action, int(b >= params.e_tx))
    if not outcomes.reveals[action]:
        return bits_bad + _cont(table, b, debit_bad, belief_update_no_obs(p, params))
    return (p * (bits_good + _cont(table, b, debit_good, params.lambda1))
            + (1.0 - p) * (bits_bad + _cont(table, b, debit_bad, params.lambda0)))


def bellman_step(table: ValueTable) -> ValueTable:
    """One sweep of the backup operator, returning a fresh table with Q-values."""
    q = BellmanOperator(table.params, table.grid).q_tables(table.values)
    return ValueTable(values=np.fmax.reduce(q), q_values=q, grid=table.grid,
                      params=table.params, iterations=table.iterations + 1)


def zero_table(params: SystemParams, grid: BeliefGrid) -> ValueTable:
    """All-zero values; q_values are 0 where an action is feasible, else NaN."""
    shape = (params.b_max + 1, grid.resolution)
    q = np.full((len(Action),) + shape, np.nan)
    for b in range(params.b_max + 1):
        q[list(feasible_actions(b, params)), b] = 0.0
    return ValueTable(values=np.zeros(shape), q_values=q, grid=grid,
                      params=params, iterations=0)


def default_max_iter(beta: float) -> int:
    return 100 * math.ceil(1.0 / (1.0 - beta))


def value_iteration(params: SystemParams, grid: BeliefGrid,
                    tol: float = DEFAULT_TOL, max_iter: int | None = None, *,
                    allowed=None, v_init: np.ndarray | None = None,
                    span_tol: float | None = None) -> ValueTable:
    """Iterate the backup operator until the span of the change is small.

    Starts from zero (monotone iterates) unless `v_init` warm-starts the
    run.  With change D = V_n - V_{n-1}, the MacQueen bounds V_n + c * min D
    <= V* <= V_n + c * max D, c = beta / (1 - beta), hold after every sweep
    (Puterman 1994, 6.6.3).  The run stops once max D - min D <= 2 * tol
    (or `span_tol`, when smaller) and moves the iterate to the bounds'
    midpoint, which is then within c * tol of the fixed point: the accuracy
    a sup-norm change <= tol certifies, reached without waiting for the
    constant part of the change to decay like beta^n.  A final backup gives
    `values` and `q_values`.  Values are discounted bits, so the fixed point
    is below r_high / (1 - beta).

    Raises ConvergenceError when max_iter sweeps are exhausted first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = default_max_iter(params.beta)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    op = BellmanOperator(params, grid, allowed=allowed)
    values = np.zeros((params.b_max + 1, grid.resolution)) if v_init is None \
        else np.array(v_init, dtype=float)
    limit = 2.0 * tol if span_tol is None else min(2.0 * tol, span_tol)
    for sweeps in range(1, max_iter + 1):
        new_values = op.step(values)
        # the change overwrites the old iterate: no fresh full-grid arrays
        change = np.subtract(new_values, values, out=values)
        hi, lo = float(change.max()), float(change.min())
        values = new_values
        if hi - lo <= limit:
            break
    else:
        raise ConvergenceError(hi - lo, max_iter)
    c = params.beta / (1.0 - params.beta)
    values += c * (hi + lo) / 2.0
    q = op.q_tables(values)
    return ValueTable(values=np.fmax.reduce(q), q_values=q, grid=grid, params=params,
                      iterations=sweeps, span=hi - lo, bound=c * (hi - lo) / 2.0)


def sense_defer_on_good_backups(table: ValueTable):
    """Sensing backups and their defer-after-GOOD variants on a converged table.

    Returns (q_sense_defer, q_sense_transmit, q_defer_on_good,
    q_transmit_low_on_bad_defer_on_good), each over batteries >= e_tx on the
    full grid.  The variants bank the transmission energy even when the
    sensed state is GOOD (0 bits, a debit of e_sense on the GOOD leg); they
    are used to certify that transmitting on a revealed GOOD state dominates.
    """
    params = table.params
    outcomes = slot_outcomes(params)
    legs = [outcomes.legs(a, 1) for a in (Action.SENSE_DEFER, Action.SENSE_TRANSMIT)]
    legs += [(bad, (0.0, params.e_sense)) for bad, _ in legs]
    plan = [(None, slice(None), leg, True) for leg in legs]
    op = BellmanOperator(params, table.grid)
    return tuple(q.copy() for _, _, q in op.backups(table.values, plan))
