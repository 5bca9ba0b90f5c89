"""Policy representations: grid tables, per-battery threshold intervals,
greedy extraction and the two fixed baseline policies.

A threshold policy stores, for every battery level, a partition of the
belief interval into labeled action intervals.  That form is what the
simulator consumes and what the threshold search optimizes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import open_artifact, write_grid_csv
from .model import Action, ParameterError, SystemParams, feasible_actions
from .belief import BeliefGrid
from .solver import Q_TIE_TOL, ValueTable

# Canonical single-rate interval pattern: what an optimal row may look like
# (as a subsequence) once the low-rate code is disabled.
PATTERN_FULL = (Action.DEFER, Action.SENSE_DEFER, Action.DEFER, Action.HIGH_RATE)

# The no-sensing baseline's action set: the `single_threshold` policy is the
# model solved over these actions only.
SINGLE_THRESHOLD_ACTIONS = (Action.DEFER, Action.HIGH_RATE)

NO_REGION = 2.0  # sentinel breakpoint meaning "interval is empty"


class StructureViolationError(ValueError):
    """An extracted policy row contradicts the proven interval structure."""


@dataclass
class PolicyTable:
    """Greedy action per (battery, belief grid point)."""

    actions: np.ndarray = field(repr=False)  # int8, shape (b_max + 1, resolution)
    grid: BeliefGrid
    params: SystemParams

    def write_csv(self, path, config_hash: str = "") -> None:
        write_grid_csv(path, config_hash, ["battery", "belief", "action"],
                       self.grid.points, [self.actions])

    def cell_count(self, action: Action) -> int:
        return int(np.count_nonzero(self.actions == int(action)))


def extract_policy(table: ValueTable) -> PolicyTable:
    """Greedy policy: the argmax over actions of `table.q_values`.

    Ties within 1e-12 go to the action latest in `Action`'s order (DEFER <
    LOW_RATE < SENSE_DEFER < SENSE_TRANSMIT < HIGH_RATE), so region plots
    are reproducible.
    """
    q = table.q_values
    best = np.fmax.reduce(q)
    actions = np.zeros(best.shape, dtype=np.int8)
    for a in Action:
        actions[q[a] >= best - Q_TIE_TOL] = a  # NaN compares False
    return PolicyTable(actions=actions, grid=table.grid, params=table.params)


@dataclass(frozen=True)
class PolicyRow:
    """One battery level's action intervals.

    Interval i covers [t_i, t_{i+1}) with t_0 = 0 and t_k = 1; the last
    interval is closed at 1.  `breakpoints` holds the interior t's.
    """

    breakpoints: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.breakpoints) + 1:
            raise ParameterError("need exactly one label per interval")
        bp = tuple(float(t) for t in self.breakpoints)
        if any(not 0.0 < t < 1.0 for t in bp):
            raise ParameterError("interior breakpoints must lie in (0, 1)")
        if any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise ParameterError("breakpoints must be strictly increasing")
        if any(l1 == l0 for l0, l1 in zip(self.labels, self.labels[1:])):
            raise ParameterError("adjacent intervals must have distinct labels")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "labels", tuple(Action(a) for a in self.labels))

    def action_at(self, p: float) -> Action:
        return self.labels[int(np.searchsorted(self.breakpoints, p, side="right"))]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-battery piecewise-constant action rule on the belief interval.

    Immutable, and every label is affordable at its battery level
    (`feasible_actions`).  `breaks` (b_max + 1, W - 1) and `labels`
    (b_max + 1, W), with W the most intervals of any row, are read-only
    arrays for vectorized lookup: breakpoints are padded with the NO_REGION
    sentinel, so a padded column never matches a belief in [0, 1], and labels
    (int8 action codes) by repeating the last label.  The interval of belief
    p at battery b is the count of breaks[b] <= p.
    """

    rows: tuple
    params: SystemParams
    breaks: np.ndarray = field(init=False, repr=False, compare=False)
    labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        params = self.params
        if len(rows) != params.b_max + 1:
            raise ParameterError("need one row per battery level")
        width = max(len(r.labels) for r in rows)
        labels = np.array([r.labels + r.labels[-1:] * (width - len(r.labels))
                           for r in rows], dtype=np.int8)
        pad = max(width - 1, 1)
        breaks = np.array([r.breakpoints + (NO_REGION,) * (pad - len(r.breakpoints))
                           for r in rows])
        # feasible_actions is constant on its three battery bands
        firsts = (0, params.e_sense, params.e_tx)
        ok = np.zeros((len(firsts), len(Action)), dtype=bool)
        for band, b in enumerate(firsts):
            ok[band, list(feasible_actions(b, params))] = True
        band = np.searchsorted(firsts, np.arange(len(rows)), side="right") - 1
        bad = np.argwhere(~ok[band[:, None], labels])
        if bad.size:
            b, i = bad[0]
            raise ParameterError(
                f"label {Action(labels[b, i]).code} infeasible at battery {b}")
        breaks.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "labels", labels)

    def action_at(self, battery: int, p: float) -> Action:
        return self.rows[battery].action_at(p)

    def write_text(self, path, config_hash: str = "") -> None:
        with open_artifact(path, config_hash) as f:
            for b, row in enumerate(self.rows):
                edges = (0.0,) + row.breakpoints + (1.0,)
                parts = [
                    f"[{edges[i]:.6g},{edges[i + 1]:.6g}{']' if i == len(row.labels) - 1 else ')'}"
                    f"->{row.labels[i].code}"
                    for i in range(len(row.labels))
                ]
                f.write(f"battery={b}: " + " | ".join(parts) + "\n")


def _runs(actions: np.ndarray):
    """Run-length encoding of one grid row: (last, labels), where run k
    ends at cell last[k] and holds labels[k]."""
    last = np.append(np.nonzero(actions[1:] != actions[:-1])[0], len(actions) - 1)
    return last, [Action(int(actions[i])) for i in last]


def encode_rows(policy: PolicyTable) -> ThresholdPolicy:
    """Run-length encode a grid policy into intervals.

    Breakpoints are midpoints between adjacent grid cells whose actions
    differ; no structural validation is applied here.
    """
    pts = policy.grid.points
    rows = []
    for acts in policy.actions:
        last, labels = _runs(acts)
        breakpoints = tuple((pts[i] + pts[i + 1]) / 2.0 for i in last[:-1])
        rows.append(PolicyRow(breakpoints=breakpoints, labels=tuple(labels)))
    return ThresholdPolicy(rows=tuple(rows), params=policy.params)


def _merged(labels) -> list:
    """`labels` with each run of equal neighbours merged into one."""
    return [a for k, a in enumerate(labels) if k == 0 or a != labels[k - 1]]


def _significant_labels(actions: np.ndarray):
    """Run labels with single-cell runs dropped (grid-step slack) and merged."""
    last, labels = _runs(actions)
    return _merged([a for a, length in zip(labels, np.diff(last, prepend=-1))
                    if length > 1])


def _is_subsequence(seq, template) -> bool:
    it = iter(template)
    return all(any(a == t for t in it) for a in seq)


def validate_single_rate_row(actions: np.ndarray, battery: int,
                             params: SystemParams) -> None:
    """Check one grid row against the canonical single-rate pattern.

    A row may look like any subsequence of the actions of D|O|D|H that its
    battery affords: D|O|D|H where it can transmit, D|O|D in the sense-only
    band, D below the sensing cost.  Runs of a single grid cell are ignored
    as discretization slack.
    """
    labels = _significant_labels(actions)
    affordable = feasible_actions(battery, params)
    template = _merged([a for a in PATTERN_FULL if a in affordable])
    if not _is_subsequence(labels, template):
        raise StructureViolationError(
            f"battery {battery}: intervals {'|'.join(a.code for a in labels)} "
            f"do not fit {'|'.join(a.code for a in template)}")


def validate_two_rate_row(actions: np.ndarray, battery: int,
                          params: SystemParams) -> None:
    """Interval checks that hold in the two-rate model.

    The high-rate region must be a single suffix and each sensing action
    must occupy at most one interval; defer and low-rate regions may
    fragment.  Single-cell runs are ignored as discretization slack.
    """
    labels = _significant_labels(actions)
    for a in (Action.SENSE_DEFER, Action.SENSE_TRANSMIT):
        if labels.count(a) > 1:
            raise StructureViolationError(
                f"battery {battery}: {a.code} occupies {labels.count(a)} intervals")
    if Action.HIGH_RATE in labels and labels.index(Action.HIGH_RATE) != len(labels) - 1:
        raise StructureViolationError(
            f"battery {battery}: high-rate region is not a suffix "
            f"({'|'.join(a.code for a in labels)})")


def extract_thresholds(policy: PolicyTable) -> ThresholdPolicy:
    """Structure-check and run-length encode a grid policy.

    A violation raises rather than being silently repaired: it signals a
    solver bug or an insufficient grid resolution.  `encode_rows` is the
    unchecked form.
    """
    check = validate_two_rate_row if policy.params.two_rate \
        else validate_single_rate_row
    for b in range(policy.params.b_max + 1):
        check(policy.actions[b], b, policy.params)
    return encode_rows(policy)


def _uniform_rows(params: SystemParams, action: Action) -> ThresholdPolicy:
    """`action` at every battery level that affords it, DEFER elsewhere."""
    rows = []
    for b in range(params.b_max + 1):
        a = action if action in feasible_actions(b, params) else Action.DEFER
        rows.append(PolicyRow(breakpoints=(), labels=(a,)))
    return ThresholdPolicy(rows=tuple(rows), params=params)


def greedy_policy(params: SystemParams) -> ThresholdPolicy:
    """Transmit at the high rate whenever the battery allows it."""
    return _uniform_rows(params, Action.HIGH_RATE)


def opportunistic_policy(params: SystemParams) -> ThresholdPolicy:
    """Sense every slot the battery allows; transmission follows the sensed state."""
    return _uniform_rows(params, Action.SENSE_DEFER)

