"""Value iteration over the (battery, belief) grid.

The Bellman operator is precomputed into gather indices and interpolation
weights, stacked over all actions, so one sweep is a handful of vectorized
array operations.  The scalar `backup` is the readable reference the
vectorized path is tested against.  Both read each action's slot outcome
(bits, energy debit, whether the channel is revealed) from
`model.slot_outcomes`; only `oracle.exact_finite_horizon` restates it, to
stay independent.

A backup of belief column j reads only the interpolation bracket of
f(p_j) and the two reset columns, so `value_iteration` iterates only the
core: the columns closed under those reads (`BellmanOperator.depths`),
usually a few dozen of the grid's, held as one compact array.  Every other
column is then backed up once, after all the columns it reads are final.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import (Action, InfeasibleActionError, SystemParams, feasible_actions,
                    slot_outcomes)
from .artifacts import write_value_csv
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
    """Converged (or truncated) values on the grid.

    values[b, j] approximates the optimal discounted reward from battery b
    and belief grid.points[j]; actions[b, j] (int8) is the greedy action of
    the last backup of that cell (`greedy_actions`) and margins[b, j] its
    best backup minus the runner-up, inf where one action is backed up
    (actions and margins are None in a zero_table: no backups).  `span` is
    the span of the last change value_iteration saw on its core cells,
    `bound` = beta / (1 - beta) * span / 2 the certified sup-norm distance
    of `values` to the grid's fixed point on every cell, and `core_columns`
    the number of belief columns it iterated (inf, inf and 0 for tables
    value_iteration did not make).
    """

    values: np.ndarray = field(repr=False)
    actions: np.ndarray | None = field(repr=False)
    margins: np.ndarray | None = field(repr=False)
    grid: BeliefGrid
    params: SystemParams
    iterations: int
    span: float = math.inf
    bound: float = math.inf
    core_columns: int = 0

    def value_at(self, battery: int, p: float) -> float:
        return float(self.grid.interp(self.values[battery], p))

    def write_csv(self, path, config_hash: str = "") -> None:
        if self.margins is None:
            raise ValueError("a table without backups has no margins")
        write_value_csv(path, config_hash, self.grid.points, self.values,
                        self.margins)


class BellmanOperator:
    """One-sweep backup operator with precomputed transition structure.

    The slot semantics come from `model.slot_outcomes`: at construction each
    allowed action is planned as the battery blocks where it is feasible,
    one per can-transmit value, and the blocks are stacked into one row set
    of non-revealing actions and one of revealing ones.  `compile` fixes
    that plan on belief columns; `step` (max over actions) and `q_tables`
    (per-action values) both evaluate it.  `allowed` restricts the action
    set (used by the no-sensing baseline); by default it is the model's own
    action set.  `step` reads the whole value table
    and returns a fresh array over the belief columns `cols` (all of them by
    default).
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
            for debit in set(outcomes.debit.ravel().tolist())
        }
        j_of = belief_update_no_obs(grid.points, params)
        self._j_lo, self._j_w = grid.locate(j_of)
        # observation backups always land on the transition rows; those are
        # read at the nearest grid point so repeated resets stay exact
        self._i0 = grid.nearest_index(params.lambda0)
        self._i1 = grid.nearest_index(params.lambda1)
        blocks = []  # (action, batteries, SlotOutcomes.legs, reveals)
        for a in self.actions:
            for can_tx, band in ((0, b[:params.e_tx]), (1, b[params.e_tx:])):
                ok = [i for i in band if a in feasible_actions(i, params)]
                if ok:
                    blocks.append((a, b[ok[0]:ok[-1] + 1], outcomes.legs(a, can_tx),
                                   bool(outcomes.reveals[a])))
        self._plan = self._stack(blocks)

    def _stack(self, blocks) -> tuple:
        """The (non-revealing, revealing) row sets of plan blocks (slot,
        batteries, legs, reveals); None for no blocks.

        A set is (slot, battery, nxt, bits): row n backs up slot[n] at
        battery[n] from leg g, reading nxt[s, g, n] after harvest level s and
        adding bits[g, n].  A non-revealing row has one leg, its BAD one,
        read in the table interpolated at the propagated belief.  A
        revealing row has its BAD and GOOD legs, read at flat (battery, leg)
        indices of the pair of reset columns."""
        kinds = []
        for reveals, sides in ((False, (0,)), (True, (0, 1))):
            parts = [(np.full(len(bats), s), bats,
                      np.stack([self._idx[legs[g][1]][bats].T * len(sides) + g
                                for g in sides], 1),
                      np.array([np.full(len(bats), legs[g][0]) for g in sides]))
                     for s, bats, legs, r in blocks if r == reveals]
            kinds.append(tuple(np.concatenate(part, axis=-1) for part in zip(*parts))
                         if parts else None)
        return tuple(kinds)

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
                read = np.zeros_like(core)
                read[lo[seeds]] = read[hi[seeds]] = True
                seeds = np.flatnonzero(read & ~core)
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
            seeds = nxt[todo]

    def compile(self, cols=slice(None), at=None) -> "_Sweep":
        """The plan on belief columns `cols`, reading a table whose column k
        holds grid column at[k] (default: all)."""
        return _Sweep(self, self._plan, len(Action), cols, at)

    def q_tables(self, values: np.ndarray) -> np.ndarray:
        """Backups of `values`, one [action, battery, belief] array; NaN where
        an action is infeasible or not allowed."""
        return self.compile().frame(values)

    def step(self, values: np.ndarray, cols=slice(None), actions=None,
             margins=None) -> np.ndarray:
        """Max over the feasible action backups on the belief columns `cols`,
        without q_tables' NaN frames; `actions` and `margins` as in
        `_Sweep.step`."""
        return self.compile(cols).step(values, actions, margins)


# belief columns per chunk of a `_Sweep`: wide enough that a core (a few
# dozen columns) is one chunk and numpy's per-row cost is spread over many
# columns, narrow enough that a big grid's work arrays stay a few MB
_CHUNK_COLUMNS = 64


class _Sweep:
    """A stacked plan compiled on fixed belief columns.

    Backups read a table whose column k holds grid column at[k], so
    value_iteration can iterate its compact core (closed, so its reads stay
    inside).  The frame has `slots` slots on every battery row; columns go
    in chunks.  Each element is computed in the order of the scalar
    recursion (interpolated values, the harvest sum left to right, times
    beta, plus the bits), so every path gives the same bits.  Plan row dest
    lands on row dest of a [slot * battery, column] frame: NaN where no row
    writes for `frame`, -inf for `step`'s max.
    """

    def __init__(self, op: BellmanOperator, plan, slots: int, cols=slice(None),
                 at=None):
        res, n = op.grid.resolution, op.params.b_max + 1
        cols = np.arange(res)[cols]
        at = np.arange(res) if at is None else np.asarray(at)
        pos = np.full(res, -1)
        pos[at] = np.arange(len(at))
        self._cols = cols
        self._lo, self._hi = pos[op._j_lo[cols]], pos[op._j_lo[cols] + 1]
        self._reset = pos[[op._i0, op._i1]]  # BAD, GOOD
        if (np.concatenate([self._lo, self._hi, self._reset]) < 0).any():
            raise ValueError("a backup reads a column outside the table")
        self._w, self._p = op._j_w[cols], op.grid.points[cols]
        self._omw, self._omp = 1.0 - self._w, 1.0 - self._p
        self._beta, self._probs = op.params.beta, op._probs
        # the plan row of (slot, battery) lands on frame row slot * n + battery
        nonrev, rev = (None if kind is None else (kind[0] * n + kind[1], *kind[2:])
                       for kind in plan)
        if nonrev:  # one leg, its BAD one
            nonrev = nonrev[0], nonrev[1][:, 0], nonrev[2][0]
        self._plan = nonrev, rev
        self._shape = (slots, n, len(cols))
        self._width = max(1, min(len(cols), _CHUNK_COLUMNS))
        self._chunks = [slice(k, min(k + self._width, len(cols)))
                        for k in range(0, len(cols), self._width)]
        # arrays of one chunk, reused by every chunk and call, so a sweep
        # allocates nothing big (fresh ones cost hundreds of minor page
        # faults a sweep on the 801-row grid)
        self._terms = np.empty((len(self._probs), len(nonrev[0]) if nonrev else 0,
                                self._width))
        self._legs = np.empty((2, len(rev[0]) if rev else 0, self._width))

    @cached_property
    def _buf(self) -> np.ndarray:  # step's frame: chunks write the same rows
        return np.full((self._shape[0] * self._shape[1], self._width), -np.inf)

    @cached_property
    def _top_two(self) -> np.ndarray:  # step's top two and their scratch
        return np.empty((3, self._shape[1], self._width))

    def _rows(self, values, cols: slice) -> list:
        """(dest, backups) of each kind of stacked row on the chunk `cols`;
        the backups are views of the work arrays, valid until the next call."""
        nonrev, rev = self._plan
        width = cols.stop - cols.start
        out = []
        if nonrev:
            dest, nxt, bits = nonrev
            vj = (values[:, self._lo[cols]] * self._omw[cols]
                  + values[:, self._hi[cols]] * self._w[cols])
            terms = self._terms[:, :, :width]
            np.take(vj, nxt, axis=0, out=terms, mode="clip")  # in range
            for term, prob in zip(terms, self._probs):
                term *= prob
            q = terms[0]
            for term in terms[1:]:
                q += term
            q *= self._beta
            q += bits[:, None]
            out.append((dest, q))
        if rev:
            dest, nxt, bits = rev
            e = values[:, self._reset].ravel()[nxt] * self._probs[:, None, None]
            bad, good = sum(e[1:], e[0]) * self._beta + bits
            q, q_bad = self._legs[:, :, :width]
            np.multiply.outer(good, self._p[cols], out=q)
            q += np.multiply.outer(bad, self._omp[cols], out=q_bad)
            out.append((dest, q))
        return out

    def frame(self, values: np.ndarray) -> np.ndarray:
        """A fresh [slot, battery, column] array of the backups of `values`,
        NaN where no row writes."""
        out = np.full(self._shape, np.nan)
        flat = out.reshape(-1, self._shape[2])
        for cols in self._chunks:
            for dest, q in self._rows(values, cols):
                flat[dest, cols] = q
        return out

    def step(self, values: np.ndarray, actions=None, margins=None) -> np.ndarray:
        """A fresh [battery, column] array of the max over the backups of
        `values`.  Given `actions` (int8) and `margins` (float), two
        [battery, grid column] arrays, fills this sweep's columns of them
        with each cell's `greedy_actions` and its best backup minus the
        runner-up (inf where one action is backed up)."""
        slots, n, _ = self._shape
        out = np.empty(self._shape[1:])
        for cols in self._chunks:
            width = cols.stop - cols.start
            buf = self._buf[:, :width]
            for dest, q in self._rows(values, cols):
                buf[dest] = q
            q = buf.reshape(slots, n, -1)
            if actions is None:
                q.max(axis=0, out=out[:, cols])
                continue
            # a running top two, in contiguous arrays (twice as fast as in a
            # strided view of out); the max is exact, so top is q.max's bits
            top, second, low = self._top_two[:, :, :width]
            np.copyto(top, q[0])
            second.fill(-np.inf)
            for qs in q[1:]:
                np.minimum(top, qs, out=low)
                np.maximum(second, low, out=second)
                np.maximum(top, qs, out=top)
            out[:, cols] = top
            actions[:, self._cols[cols]] = greedy_actions(q, top)
            margins[:, self._cols[cols]] = np.subtract(top, second, out=second)
        return out


def greedy_actions(q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The greedy action (int8) of each cell of the backups q [action,
    battery, belief] (NaN or -inf where not backed up): the latest action in
    `Action`'s order within Q_TIE_TOL of the cell's value, so ties go to the
    later action and region plots are reproducible (0 if none is)."""
    codes = np.arange(len(q), dtype=np.int8)[:, None, None]
    return ((q >= values - Q_TIE_TOL) * codes).max(axis=0)  # NaN: False


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
    """One sweep of the backup operator: a fresh table of the backups of
    `table.values`."""
    op = BellmanOperator(table.params, table.grid)
    shape = table.values.shape
    actions, margins = np.empty(shape, dtype=np.int8), np.empty(shape)
    return ValueTable(values=op.step(table.values, actions=actions, margins=margins),
                      actions=actions, margins=margins, grid=table.grid,
                      params=table.params, iterations=table.iterations + 1)


def zero_table(params: SystemParams, grid: BeliefGrid) -> ValueTable:
    """All-zero values, with no backups behind them (no actions)."""
    return ValueTable(values=np.zeros((params.b_max + 1, grid.resolution)),
                      actions=None, margins=None, grid=grid, params=params,
                      iterations=0)


def default_max_iter(beta: float) -> int:
    return 100 * math.ceil(1.0 / (1.0 - beta))


def value_iteration(params: SystemParams, grid: BeliefGrid,
                    tol: float = DEFAULT_TOL, max_iter: int | None = None, *,
                    allowed=None, v_init: np.ndarray | None = None,
                    span_tol: float | None = None) -> ValueTable:
    """Iterate the backup operator on the core until the span of the change
    is small, then back up every other belief column once.

    The core (`BellmanOperator.depths`) is closed under the operator, so it
    is a beta-discounted problem of its own.  The iterate is one compact
    (b_max + 1) x |core| array, swept by the operator compiled on the core
    (`BellmanOperator.compile`).  `v_init`, of shape (b_max + 1) x
    resolution, warm-starts the run (else it starts from zero: monotone
    iterates) and is read only on the core.  With change
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
    certificate.  Off the core, a backup of that table is the table itself,
    so only the core is backed up again, in place, and the depth pass and
    that backup give the greedy `actions` and their `margins`.  Values are discounted
    bits, so the fixed point is below r_high / (1 - beta).

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
    sweep = op.compile(core, at=core)
    v = values[:, core]
    limit = 2.0 * tol if span_tol is None else min(2.0 * tol, span_tol)
    for sweeps in range(1, max_iter + 1):
        new = sweep.step(v)
        change = new - v
        hi, lo = float(change.max()), float(change.min())
        v = new
        if hi - lo <= limit:
            break
    else:
        raise ConvergenceError(hi - lo, max_iter)
    c = params.beta / (1.0 - params.beta)
    values[:, core] = new + c * (hi + lo) / 2.0
    actions, margins = np.empty(shape, dtype=np.int8), np.empty(shape)
    for d in range(1, depth.max() + 1):
        cols = np.flatnonzero(depth == d)
        values[:, cols] = op.step(values, cols, actions, margins)
    values[:, core] = sweep.step(values[:, core], actions, margins)
    return ValueTable(values=values, actions=actions, margins=margins, grid=grid,
                      params=params, iterations=sweeps, span=hi - lo,
                      bound=c * (hi - lo) / 2.0, core_columns=core.size)


def sense_defer_on_good_backups(table: ValueTable):
    """Sensing backups and their defer-after-GOOD variants on a converged table.

    Returns (q_sense_defer, q_sense_transmit, q_defer_on_good,
    q_transmit_low_on_bad_defer_on_good), each a [battery, belief] array on
    the full grid, built from the can-transmit legs, so only its rows
    b >= e_tx are backups of a feasible action.  The variants bank the
    transmission energy even when the sensed state is GOOD (0 bits, a debit
    of e_sense on the GOOD leg); they are used to certify that transmitting
    on a revealed GOOD state dominates.
    """
    params = table.params
    outcomes = slot_outcomes(params)
    legs = [outcomes.legs(a, 1) for a in (Action.SENSE_DEFER, Action.SENSE_TRANSMIT)]
    legs += [(bad, (0.0, params.e_sense)) for bad, _ in legs]
    op = BellmanOperator(params, table.grid)
    b = np.arange(params.b_max + 1)
    plan = op._stack([(k, b, leg, True) for k, leg in enumerate(legs)])
    return tuple(_Sweep(op, plan, len(legs)).frame(table.values))
