"""Policy representations: grid tables, per-battery threshold intervals,
greedy extraction, the threshold-form rule, the single-rate threshold
codec and the two baselines.

A threshold policy stores, for every battery level, a partition of the
belief interval into labeled action intervals.  That form is what the
simulator consumes; a single-rate row is also the triple of points at
which it cuts PATTERN_FULL, the form the threshold search optimizes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import open_artifact, write_region_csv
from .model import Action, ParameterError, SystemParams, feasible_actions
from .belief import BeliefGrid
from .solver import ValueTable

# Canonical single-rate interval pattern: what an optimal row may look like
# (as a subsequence) once the low-rate code is disabled.
PATTERN_FULL = (Action.DEFER, Action.SENSE_DEFER, Action.DEFER, Action.HIGH_RATE)

# The no-sensing baseline's action set: the `single_threshold` policy is the
# model solved over these actions only.
SINGLE_THRESHOLD_ACTIONS = (Action.DEFER, Action.HIGH_RATE)

NO_REGION = 2.0  # sentinel threshold meaning "interval is empty"


class StructureViolationError(ParameterError):
    """A policy row contradicts the proven interval structure."""


@dataclass
class PolicyTable:
    """Greedy action per (battery, belief grid point)."""

    actions: np.ndarray = field(repr=False)  # int8, shape (b_max + 1, resolution)
    grid: BeliefGrid
    params: SystemParams

    def write_csv(self, path, config_hash: str = "") -> None:
        write_region_csv(path, config_hash, self.grid.points, self.actions)

    def cell_count(self, action: Action) -> int:
        return int(np.count_nonzero(self.actions == int(action)))


def extract_policy(table: ValueTable) -> PolicyTable:
    """Greedy policy: the actions of the table's last backup
    (`solver.greedy_actions`); a zero_table has none: ValueError."""
    if table.actions is None:
        raise ValueError("a table without backups has no greedy actions")
    return PolicyTable(actions=table.actions, grid=table.grid, params=table.params)


@dataclass(frozen=True)
class PolicyRow:
    """One battery level's action intervals.

    Interval i covers [t_i, t_{i+1}) with t_0 = 0 and t_k = 1; the last
    interval is closed at 1.  `breakpoints` holds the interior t's.  The
    hash is computed once per row: the simulator keys its tables by row.
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
        object.__setattr__(self, "_hash", hash((bp, self.labels)))

    def __hash__(self) -> int:
        return self._hash

    def action_at(self, p: float) -> Action:
        return self.labels[int(np.searchsorted(self.breakpoints, p, side="right"))]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-battery piecewise-constant action rule on the belief interval.

    `rows` holds one PolicyRow per battery level.  Immutable, and every
    label is affordable at its battery level (`feasible_actions`).
    """

    rows: tuple
    params: SystemParams

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.params.b_max + 1:
            raise ParameterError("need one row per battery level")
        # feasibility changes only at e_sense and e_tx: one set per band
        e_sense, e_tx = self.params.e_sense, self.params.e_tx
        bands = [feasible_actions(b, self.params) for b in (0, e_sense, e_tx)]
        for b, row in enumerate(rows):
            ok = bands[(b >= e_sense) + (b >= e_tx)]
            for a in row.labels:
                if a not in ok:
                    raise ParameterError(f"label {a.code} infeasible at battery {b}")

    def action_at(self, battery: int, p: float) -> Action:
        return self.rows[battery].action_at(p)

    def write_text(self, path, config_hash: str = "") -> None:
        """One line per battery level; the interior breakpoints are written
        with repr, so the text parses back to exactly this policy."""
        with open_artifact(path, config_hash) as f:
            for b, row in enumerate(self.rows):
                edges = ("0", *map(repr, row.breakpoints), "1")
                parts = [
                    f"[{edges[i]},{edges[i + 1]}{']' if i == len(row.labels) - 1 else ')'}"
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


def _template(b: int, params: SystemParams) -> tuple:
    """PATTERN_FULL with each action battery b cannot afford read as DEFER."""
    ok = feasible_actions(b, params)
    return tuple(a if a in ok else Action.DEFER for a in PATTERN_FULL)


def check_row_form(labels, battery: int, params: SystemParams) -> None:
    """Raise StructureViolationError unless a row's interval labels have the
    threshold form; every interval counts, however narrow.

    Single-rate: the labels are a subsequence of D|OD|D|H with each action
    the battery cannot afford read as D: D|OD|D in the sense-only band, D
    below the sensing cost.  Two-rate: each sensing action holds at most
    one interval and a high-rate interval is the last; defer and low-rate
    intervals may fragment.
    """
    if not params.two_rate:
        template = _merged(_template(battery, params))
        rest = iter(template)
        if not all(any(a == t for t in rest) for a in labels):
            raise StructureViolationError(
                f"battery {battery}: intervals {'|'.join(a.code for a in labels)} "
                f"do not fit {'|'.join(a.code for a in template)}")
        return
    for a in (Action.SENSE_DEFER, Action.SENSE_TRANSMIT):
        if labels.count(a) > 1:
            raise StructureViolationError(
                f"battery {battery}: {a.code} occupies {labels.count(a)} intervals")
    if Action.HIGH_RATE in labels[:-1]:
        raise StructureViolationError(
            f"battery {battery}: high-rate region is not a suffix "
            f"({'|'.join(a.code for a in labels)})")


def extract_thresholds(policy: PolicyTable) -> ThresholdPolicy:
    """Structure-check and run-length encode a grid policy.

    Each grid row's labels must pass `check_row_form` once its single-cell
    runs are dropped as grid-step slack, the only place that slack applies.
    A violation raises rather than being silently repaired: it signals a
    solver bug or an insufficient grid resolution.  `encode_rows` is the
    unchecked form.
    """
    for b, actions in enumerate(policy.actions):
        check_row_form(_significant_labels(actions), b, policy.params)
    return encode_rows(policy)


def rho_from_policy(policy: ThresholdPolicy, params: SystemParams) -> np.ndarray:
    """(b_max + 1, 3) breakpoint triples from a single-rate threshold policy.

    Row semantics: defer on [0, rho1), sense on [rho1, rho2), defer on
    [rho2, rho3), high rate on [rho3, 1].  Rows that cannot transmit carry
    the NO_REGION sentinel as rho3; rows that cannot sense have rho1 == rho2.
    A row outside the threshold form (`check_row_form`) raises
    StructureViolationError.
    """
    if params.two_rate:
        raise ParameterError("threshold search requires the single-rate model")
    rho = np.full((params.b_max + 1, 3), NO_REGION)
    for b, row in enumerate(policy.rows):
        labels = row.labels
        check_row_form(labels, b, params)
        edges = (0.0,) + row.breakpoints + (1.0,)
        r3 = edges[-2] if labels[-1] == Action.HIGH_RATE else NO_REGION
        if Action.SENSE_DEFER in labels:
            i = labels.index(Action.SENSE_DEFER)
            r1, r2 = edges[i], edges[i + 1]
        else:
            r1 = r2 = min(r3, 1.0)  # no sensing: both at the high-rate edge, or 1
        rho[b] = (r1, r2, r3)
    return rho


def row_from_rho(b: int, rho, params: SystemParams) -> PolicyRow:
    """Battery b's row: PATTERN_FULL cut at the triple rho.

    rho must be nondecreasing; each threshold is clamped to 1, so NO_REGION
    as rho3 leaves no high-rate interval.  The cuts give [0, rho1),
    [rho1, rho2), [rho2, rho3) and [rho3, 1]; an action battery b cannot
    afford reads as DEFER, empty intervals are dropped and equal
    neighbours merged.
    """
    edges = (0.0, *(min(float(r), 1.0) for r in rho), 1.0)
    bps, labels = [], []
    for lo, hi, a in zip(edges, edges[1:], _template(b, params)):
        if hi <= lo or (labels and a == labels[-1]):
            continue
        if labels:
            bps.append(lo)
        labels.append(a)
    return PolicyRow(breakpoints=tuple(bps), labels=tuple(labels))


def policy_from_rho(rho: np.ndarray, params: SystemParams) -> ThresholdPolicy:
    """Inverse of rho_from_policy: one row_from_rho per battery level."""
    return ThresholdPolicy(rows=tuple(row_from_rho(b, rho[b], params)
                                      for b in range(params.b_max + 1)),
                           params=params)


def greedy_policy(params: SystemParams) -> ThresholdPolicy:
    """Transmit at the high rate whenever the battery allows it."""
    return policy_from_rho(np.tile((0.0, 0.0, 0.0), (params.b_max + 1, 1)), params)


def opportunistic_policy(params: SystemParams) -> ThresholdPolicy:
    """Sense every slot the battery allows; transmission follows the sensed state."""
    return policy_from_rho(np.tile((0.0, 1.0, NO_REGION), (params.b_max + 1, 1)),
                           params)
