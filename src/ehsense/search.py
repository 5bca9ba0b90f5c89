"""Direct threshold optimization against simulated average throughput.

The proven interval structure of the single-rate model lets a policy be
summarized by three breakpoints per battery level.  Coordinate ascent
sweeps the battery rows, tries every candidate breakpoint under common
random numbers and keeps strict improvements, so the objective estimate is
nondecreasing and the whole run is deterministic for a fixed seed.  The
candidates of several consecutive coordinates share one batched
`run_episodes` pass; since each trial scores what it would alone, the
result is that of scoring one coordinate at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv_artifact
from .model import Action, ParameterError, SystemParams, feasible_actions
from .belief import reachable_beliefs
from .policies import (NO_REGION, PATTERN_FULL, PolicyRow, ThresholdPolicy,
                       _is_subsequence)
from .simulate import ThroughputStats, run_episodes

_ORBIT_DEPTH = 20


def default_candidates(params: SystemParams) -> np.ndarray:
    """Breakpoint candidates: reachable beliefs plus a coarse uniform mesh.

    Only belief values the process can actually visit matter for where a
    threshold falls; the mesh adds robustness at negligible cost.
    """
    orbit = reachable_beliefs(params.lambda0, _ORBIT_DEPTH, params)
    mesh = np.linspace(0.0, 1.0, 21)
    cands = np.unique(np.concatenate([orbit, mesh]))
    return cands[(cands > 0.0) & (cands <= 1.0)]


@dataclass
class SearchConfig:
    """Budget and candidate set for the coordinate-ascent threshold search."""

    candidates: np.ndarray = field(default=None, repr=False)
    episodes: int = 16
    horizon: int = 3000
    seed: int = 0
    max_passes: int = 2

    def __post_init__(self):
        for name in ("episodes", "horizon", "seed", "max_passes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"search.{name} must be an integer, got {value!r}")
        if min(self.episodes, self.horizon, self.max_passes) < 1:
            raise ParameterError("episodes, horizon and max_passes must be >= 1")
        if self.candidates is not None:
            c = np.unique(np.asarray(self.candidates, dtype=float))
            if c.size == 0 or not np.all((c >= 0.0) & (c <= 1.0)):
                raise ParameterError("candidates must be a nonempty subset of [0, 1]")
            self.candidates = c


@dataclass
class SearchResult:
    policy: ThresholdPolicy
    stats: ThroughputStats
    log_rows: list = field(repr=False)
    passes: int = 0


def rho_from_policy(policy: ThresholdPolicy, params: SystemParams) -> np.ndarray:
    """(b_max + 1, 3) breakpoint triples from a single-rate threshold policy.

    Row semantics: defer on [0, rho1), sense on [rho1, rho2), defer on
    [rho2, rho3), high rate on [rho3, 1].  Rows that cannot transmit carry
    the NO_REGION sentinel as rho3; rows that cannot sense have rho1 == rho2.
    A row must fit D|OD|D|H, the single-rate threshold form.
    """
    if params.two_rate:
        raise ParameterError("threshold search requires the single-rate model")
    rho = np.full((params.b_max + 1, 3), NO_REGION)
    for b, row in enumerate(policy.rows):
        labels = row.labels
        if not _is_subsequence(labels, PATTERN_FULL):
            raise ParameterError(
                f"battery {b}: intervals {'|'.join(a.code for a in labels)} "
                f"are not in threshold form D|OD|D|H")
        edges = (0.0,) + row.breakpoints + (1.0,)
        r3 = edges[-2] if labels[-1] == Action.HIGH_RATE else NO_REGION
        if Action.SENSE_DEFER in labels:
            i = labels.index(Action.SENSE_DEFER)
            r1, r2 = edges[i], edges[i + 1]
        else:
            r1 = r2 = min(r3, 1.0)  # no sensing: both at the high-rate edge, or 1
        rho[b] = (r1, r2, r3)
    return rho


def _row_from_rho(b: int, r, params: SystemParams) -> PolicyRow:
    """Battery b's row from its breakpoint triple; degenerate intervals are
    dropped."""
    r1, r2, r3 = r
    ok = feasible_actions(b, params)
    pieces = [(0.0, Action.DEFER)]
    if Action.SENSE_DEFER in ok and r2 > r1:
        pieces.append((r1, Action.SENSE_DEFER))
        pieces.append((r2, Action.DEFER))
    if Action.HIGH_RATE in ok and r3 <= 1.0:
        pieces.append((r3, Action.HIGH_RATE))
    bps, labels = [], []
    for start, a in pieces:
        if labels and labels[-1] == a:
            continue
        if labels and start >= 1.0:
            break
        if labels:
            if start <= (bps[-1] if bps else 0.0):
                # zero-width interval: the later label wins
                labels[-1] = a
                continue
            bps.append(start)
        labels.append(a)
    return PolicyRow(breakpoints=tuple(bps), labels=tuple(labels))


def policy_from_rho(rho: np.ndarray, params: SystemParams) -> ThresholdPolicy:
    """Inverse of rho_from_policy; degenerate intervals are dropped."""
    return ThresholdPolicy(rows=tuple(_row_from_rho(b, rho[b], params)
                                      for b in range(params.b_max + 1)),
                           params=params)


def _thresholds_for(b: int, params: SystemParams):
    """Searchable threshold indices at battery b: rho1 and rho2 bound the
    sensing interval, rho3 the high-rate one; an unaffordable action has none."""
    ok = feasible_actions(b, params)
    return tuple(k for k, a in enumerate((Action.SENSE_DEFER, Action.SENSE_DEFER,
                                          Action.HIGH_RATE)) if a in ok)


def _window(candidates: np.ndarray, rho: np.ndarray, b: int, k: int):
    """Candidates for rho[b, k] that keep row b ordered, bar its current value."""
    lo = rho[b, k - 1] if k > 0 else 0.0
    hi = min(rho[b, k + 1], 1.0) if k < 2 else 1.0
    window = candidates[(candidates >= lo) & (candidates <= hi)]
    return window[window != rho[b, k]]


# Lanes (trials x episodes) one run_episodes call scores at most, unless one
# coordinate's window alone is wider.  A call's cost is mostly per slot, not
# per lane, so fewer, wider calls are faster; but each trial adds its lookup
# table (about 65 kB on a 51-battery model) to the peak memory.  On
# perfbench's `search` job (12 episodes, 500 slots, 2-vCPU Xeon guest) the
# search took 0.64 s scoring one coordinate per call, 0.33 s at 192 lanes,
# 0.22-0.29 s at 384-768 and 0.53 s at 4000; peak RSS rose 0.7 MB at 192
# lanes and 1.8 MB at 384, against 41.3 MB for the whole job.
_BATCH_LANES = 192


def search_thresholds(params: SystemParams, config: SearchConfig,
                      init: ThresholdPolicy) -> SearchResult:
    """Coordinate ascent on per-battery breakpoints under common random numbers.

    Sweeps the (battery, threshold) coordinates in order; every candidate
    that keeps the row ordered is evaluated with the same seed, and the best
    strict improvement over the running estimate is kept.  Stops after a
    full pass with no accepted move, or after max_passes.  The returned
    stats are those of the final policy's own evaluation.

    The trials of consecutive coordinates, all moves away from the current
    policy, are scored in one simulator pass of up to _BATCH_LANES lanes.
    Under common random numbers each trial scores what it would alone, so
    the batch is walked coordinate by coordinate as if each had been scored
    in turn; at the first accepted move the rest of the batch, built on the
    old policy, is dropped and rebuilt from the next coordinate.

    Every row is tried.  Under common random numbers a trial that moves only
    a row the current policy never reaches follows it slot for slot and
    scores exactly its estimate, so the strict comparison never accepts it.
    """
    candidates = default_candidates(params) if config.candidates is None \
        else config.candidates
    rho = rho_from_policy(init, params)
    coords = [(b, k) for b in range(params.b_max + 1)
              for k in _thresholds_for(b, params)]

    def evaluate(policies):
        """Stats of one policy, or per policy of a sequence, in one pass."""
        return run_episodes(policies, params, config.episodes, config.horizon,
                            config.seed)

    def trial(b, k, cand):
        """The current policy with row b's threshold k moved to `cand`."""
        row = rho[b].copy()
        row[k] = cand
        rows = policy.rows[:b] + (_row_from_rho(b, row, params),) \
            + policy.rows[b + 1:]
        return ThresholdPolicy(rows=rows, params=params)

    policy = policy_from_rho(rho, params)
    stats = evaluate(policy)
    best = stats.mean_bits_per_slot
    log = []
    passes = 0
    for sweep in range(1, config.max_passes + 1):
        passes = sweep
        improved = False
        pos = 0
        while pos < len(coords):
            batch, trials = [], []  # batch: (next index, b, k, window)
            while pos < len(coords):
                b, k = coords[pos]
                window = _window(candidates, rho, b, k)
                if trials and (len(trials) + window.size) * config.episodes \
                        > _BATCH_LANES:
                    break
                pos += 1
                if window.size:
                    batch.append((pos, b, k, window))
                    trials += [trial(b, k, cand) for cand in window]
            if not trials:
                break
            scored = zip(trials, evaluate(trials))
            for after, b, k, window in batch:
                winner = None
                for cand, (pol, st) in zip(window, scored):
                    accepted = st.mean_bits_per_slot > best
                    log.append((sweep, b, k, float(cand), st.mean_bits_per_slot,
                                accepted))
                    if accepted:
                        winner, best = (cand, pol, st), st.mean_bits_per_slot
                if winner is not None:
                    rho[b, k], policy, stats = winner
                    improved = True
                    pos = after  # the later trials moved the old policy
                    break
        if not improved:
            break

    return SearchResult(policy=policy, stats=stats, log_rows=log, passes=passes)


def write_search_log(rows, path, config_hash: str = "") -> None:
    write_csv_artifact(
        path, config_hash,
        ["pass", "battery", "threshold", "candidate", "throughput", "accepted"],
        ([sweep, b, k, repr(cand), repr(val), int(accepted)]
         for sweep, b, k, cand, val, accepted in rows))
