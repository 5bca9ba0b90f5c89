"""Value iteration over the (battery, belief) grid.

The Bellman operator is precomputed into gather indices and interpolation
weights so one sweep is a handful of vectorized array operations.  The
scalar `backup` is the readable reference the vectorized path is tested
against.  Both read each action's slot outcome (bits, energy debit, whether
the channel is revealed) from `model.slot_outcomes`; only
`oracle.exact_finite_horizon` restates it, to stay independent.

A backup of belief column j reads only the interpolation bracket of
f(p_j) and the two reset columns, so `value_iteration` iterates only the
core: the columns closed under those reads (`BellmanOperator.depths`),
usually a few dozen of the grid's.  Every other column is then backed up
once, after all the columns it reads are final.  Each backup reads the one
full value table and returns fresh arrays over the columns asked for.
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
    `span` is the span of the last change value_iteration saw on its core
    cells, `bound` = beta / (1 - beta) * span / 2 the certified sup-norm
    distance of `values` to the grid's fixed point on every cell, and
    `core_columns` the number of belief columns it iterated (inf, inf and 0
    for tables value_iteration did not make).
    """

    values: np.ndarray = field(repr=False)
    q_values: np.ndarray = field(repr=False)
    grid: BeliefGrid
    params: SystemParams
    iterations: int
    span: float = math.inf
    bound: float = math.inf
    core_columns: int = 0

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
    baseline); by default it is the model's own action set.  `backups` and
    `step` read the whole value table and return only the belief columns
    `cols` (all of them by default).
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
        # observation backups always land on the transition rows; those are
        # read at the nearest grid point so repeated resets stay exact
        self._i0 = grid.nearest_index(params.lambda0)
        self._i1 = grid.nearest_index(params.lambda1)
        self._plan = []  # (action, rows, SlotOutcomes.legs, reveals)
        for a in self.actions:
            for can_tx, band in ((0, b[:params.e_tx]), (1, b[params.e_tx:])):
                ok = [i for i in band if a in feasible_actions(i, params)]
                if ok:
                    self._plan.append((a, slice(ok[0], ok[-1] + 1),
                                       outcomes.legs(a, can_tx),
                                       bool(outcomes.reveals[a])))

    def depths(self) -> np.ndarray:
        """Each belief column's depth: 0 on the core, else 1 + the largest
        depth of the columns its backup reads.

        A backup of column j reads the bracket (lo, lo + 1) of f(p_j) and the
        reset columns.  The core is the closure of the reset columns under
        those reads, grown by the closure of every cycle of reads that never
        reaches it (such as the self-loops of a sticky channel).  So the core
        is closed, and every other column reads only shallower ones.
        """
        lo, hi = self._j_lo, self._j_lo + 1
        core = np.zeros(self.grid.resolution, dtype=bool)
        seeds = np.array([self._i0, self._i1])
        while True:
            while seeds.size:
                core[seeds] = True
                seeds = np.union1d(lo[seeds], hi[seeds])
                seeds = seeds[~core[seeds]]
            depth = np.where(core, 0, -1)
            while True:
                todo = depth < 0
                ready = todo & (depth[lo] >= 0) & (depth[hi] >= 0)
                if not ready.any():
                    break
                depth[ready] = 1 + np.maximum(depth[lo], depth[hi])[ready]
            if not todo.any():
                return depth
            # each column left reads another one left: following such reads
            # 2**k >= resolution times lands on a cycle, which joins the core
            nxt = np.where(todo[lo], lo, hi)
            for _ in range(self.grid.resolution.bit_length()):
                nxt = nxt[nxt]
            seeds = np.unique(nxt[todo])

    def _expect(self, values, idx) -> np.ndarray:
        """Harvest-averaged next values; idx[:, s] holds the next rows after
        harvest level s."""
        out = self._probs[0] * values[idx[:, 0]]
        for s in range(1, len(self._probs)):
            out += self._probs[s] * values[idx[:, s]]
        return out

    def backups(self, values: np.ndarray, cols=slice(None), plan=None):
        """Yield (action, rows, Q-values on those rows) per planned block, a
        fresh array over the belief columns `cols` of the full table `values`.

        A revealing action backs up p * (good bits + continuation at
        lambda1) + (1 - p) * (bad bits + continuation at lambda0); any
        other action its bits plus the continuation at the propagated
        belief.  `plan` defaults to the operator's own.
        """
        beta = self.params.beta
        p = self.grid.points[cols]
        lo, w = self._j_lo[cols], self._j_w[cols]
        vj = values[:, lo] * (1.0 - w) + values[:, lo + 1] * w
        revealed = (values[:, self._i0], values[:, self._i1])  # BAD, GOOD
        conts = {}

        def cont(good: int, debit: int) -> np.ndarray:
            if (good, debit) not in conts:
                conts[good, debit] = beta * self._expect(
                    revealed[good], self._idx[debit])[:, None]
            return conts[good, debit]

        for a, rows, legs, reveals in plan or self._plan:
            (bits_bad, debit_bad), (bits_good, debit_good) = legs
            if reveals:
                q = p * (bits_good + cont(1, debit_good)[rows])
                q += (1.0 - p) * (bits_bad + cont(0, debit_bad)[rows])
            else:
                q = self._expect(vj, self._idx[debit_bad][rows])
                q *= beta
                q += bits_bad
            yield a, rows, q

    def q_tables(self, values: np.ndarray) -> np.ndarray:
        """Backups of `values` as one [action, battery, belief] array; NaN
        where the action is infeasible or not allowed."""
        q = np.full((len(Action),) + values.shape, np.nan)
        for a, rows, qa in self.backups(values):
            q[a, rows] = qa
        return q

    def step(self, values: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Max over the feasible action backups on the belief columns `cols`,
        without q_tables' NaN frames."""
        out = np.full((len(values), self.grid.points[cols].size), -np.inf)
        for _, rows, q in self.backups(values, cols):
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
    """Iterate the backup operator on the core until the span of the change
    is small, then back up every other belief column once.

    The core (`BellmanOperator.depths`) is closed under the operator, so it
    is a beta-discounted problem of its own.  One (b_max + 1) x resolution
    table holds the iterate, and each sweep overwrites its core columns.
    `v_init`, of that shape, warm-starts the run (else it starts from zero:
    monotone iterates) and is read only on the core.  With change
    D = V_n - V_{n-1} on the core cells, the MacQueen bounds
    V_n + c * min D <= V* <= V_n + c * max D, c = beta / (1 - beta), hold
    after every sweep (Puterman 1994, 6.6.3).  The run stops once
    max D - min D <= 2 * tol (or `span_tol`, when smaller) and moves the
    iterate to the bounds' midpoint, which is then within c * tol of the
    fixed point: the accuracy a sup-norm change <= tol certifies, reached
    without waiting for the constant part of the change to decay like
    beta^n.  The other columns are backed up in order of depth, each after
    every column it reads is final; a backup of inputs within c * tol of the
    fixed point is within beta * c * tol of it, so they keep the
    certificate.  A final backup of the whole grid gives `values` and
    `q_values`.  Values are discounted bits, so the fixed point is below
    r_high / (1 - beta).

    Raises ValueError unless tol and span_tol are finite and positive and
    v_init has the table's shape, and ConvergenceError when max_iter sweeps
    are exhausted first.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if span_tol is not None and not (math.isfinite(span_tol) and span_tol > 0):
        raise ValueError(f"span_tol must be finite and positive, got {span_tol}")
    if max_iter is None:
        max_iter = default_max_iter(params.beta)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    shape = (params.b_max + 1, grid.resolution)
    values = np.zeros(shape) if v_init is None else np.array(v_init, dtype=float)
    if values.shape != shape:
        raise ValueError(f"v_init has shape {values.shape}, expected {shape}")
    op = BellmanOperator(params, grid, allowed=allowed)
    depth = op.depths()
    core = np.flatnonzero(depth == 0)
    limit = 2.0 * tol if span_tol is None else min(2.0 * tol, span_tol)
    for sweeps in range(1, max_iter + 1):
        new = op.step(values, core)
        change = new - values[:, core]
        hi, lo = float(change.max()), float(change.min())
        values[:, core] = new
        if hi - lo <= limit:
            break
    else:
        raise ConvergenceError(hi - lo, max_iter)
    c = params.beta / (1.0 - params.beta)
    values[:, core] = new + c * (hi + lo) / 2.0
    for d in range(1, depth.max() + 1):
        cols = np.flatnonzero(depth == d)
        values[:, cols] = op.step(values, cols)
    q = op.q_tables(values)
    return ValueTable(values=np.fmax.reduce(q), q_values=q, grid=grid, params=params,
                      iterations=sweeps, span=hi - lo, bound=c * (hi - lo) / 2.0,
                      core_columns=core.size)


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
    return tuple(q for _, _, q in op.backups(table.values, plan=plan))
