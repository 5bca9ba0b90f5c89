"""Belief-state dynamics and the belief discretization grid.

The channel-state posterior ("belief") is the probability that the channel
is GOOD at the start of the current slot.  Without feedback it propagates
through the channel's one-step transition, `belief_update_no_obs`; an action
that reveals the channel (`model.slot_outcomes`) resets it to lambda1 on
GOOD and lambda0 on BAD.  `orbits` builds the beliefs a process can hold, once, for the
simulator and for `reachable_beliefs`.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .model import ParameterError, SystemParams

_DEDUP_TOL = 1e-12


def belief_update_no_obs(p: float, params: SystemParams) -> float:
    """One-step belief propagation when no channel feedback was obtained."""
    return params.lambda0 * (1.0 - p) + params.lambda1 * p


def stationary_belief(params: SystemParams) -> float:
    """Fixed point of the no-observation update; also the long-run P[GOOD]."""
    denom = 1.0 - params.lambda1 + params.lambda0
    if denom == 0.0:
        raise ParameterError("no stationary belief: lambda1 - lambda0 == 1")
    return params.lambda0 / denom


def orbits(params: SystemParams, roots, length: int):
    """Every belief within `length - 1` no-observation steps of some root.

    Without an observation the belief moves to f(p) = belief_update_no_obs(p);
    an observation resets it to lambda0 or lambda1.  So with the roots (start
    belief, lambda0, lambda1) these are all the beliefs of the first `length`
    slots.  Each belief is walked on from the fewest steps it lies from any
    root.  Returns (beliefs, successor, root_index): root_index[i] is the
    index of roots[i], and beliefs[successor[j]] is f(beliefs[j]) as the walk
    computed it, or successor[j] = j when f(beliefs[j]) is not in the set;
    that happens only `length - 1` steps deep, for a belief that only the
    last slot holds.
    """
    walked = {}  # belief -> (fewest steps from any root, f(belief)); index order
    for root in roots:
        p = float(root)
        for k in range(length):
            if p in walked and walked[p][0] <= k:
                break  # this walk already went on from here, as deep or deeper
            image = belief_update_no_obs(p, params)
            walked[p], p = (k, image), image
    index = {p: j for j, p in enumerate(walked)}
    images = (image for _, image in walked.values())
    successor = np.fromiter(map(index.get, images, range(len(index))), np.intp)
    return np.array(list(walked)), successor, [index[float(r)] for r in roots]


def reachable_beliefs(p0: float, depth: int, params: SystemParams) -> np.ndarray:
    """All beliefs reachable from p0 within `depth` no-observation steps.

    The `orbits` of {p0, lambda0, lambda1}, sorted, at most 3 * (depth + 1)
    points; values closer than 1e-12 are merged.
    """
    if depth < 0:
        raise ParameterError("depth must be >= 0")
    roots = (p0, params.lambda0, params.lambda1)
    points = np.sort(orbits(params, roots, depth + 1)[0]).tolist()
    out = [points[0]]
    for p in points[1:]:
        if p - out[-1] > _DEDUP_TOL:
            out.append(p)
    return np.array(out)


@dataclass(frozen=True)
class BeliefGrid:
    """Uniform discretization of the belief interval [0, 1]: `resolution`
    evenly spaced `points` from 0 to 1."""

    resolution: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        resolution = operator.index(self.resolution)  # an int, never an array
        if resolution < 2:
            raise ParameterError("resolution must be >= 2")
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "points", np.linspace(0.0, 1.0, resolution))

    @classmethod
    def from_resolution(cls, resolution: int) -> "BeliefGrid":
        """BeliefGrid(resolution); kept for perfbench/checks.py, its caller."""
        return cls(resolution)

    @property
    def step(self) -> float:
        return 1.0 / (self.resolution - 1)

    def locate(self, p) -> tuple:
        """Lower bracket index and interpolation weight for belief(s) p."""
        t = np.clip(np.asarray(p, dtype=float), 0.0, 1.0) * (self.resolution - 1)
        lo = np.minimum(t.astype(int), self.resolution - 2)
        return lo, t - lo

    def nearest_index(self, p: float) -> int:
        """Index of the grid point closest to p (exact when p is on-grid)."""
        return int(round(float(p) * (self.resolution - 1)))

    def interp(self, values: np.ndarray, p):
        """Linearly interpolate `values` (last axis indexed by grid point) at p."""
        values = np.asarray(values)
        lo, w = self.locate(p)
        return values[..., lo] * (1.0 - w) + values[..., lo + 1] * w
