"""Core model: parameters, actions, slot outcomes and battery transitions.

Everything here is a pure function over immutable data; the solver,
simulator and policy modules all build on this module.  The per-slot
outcome of every action (bits delivered, energy debit, whether the channel
state is revealed) is written down once, in `slot_outcomes`; the Bellman
operator, the scalar backup and the simulator all read it.  Only
`oracle.exact_finite_horizon` restates these semantics, on purpose, so that
it stays an independent reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache

import numpy as np

PMF_TOL = 1e-12


class ParameterError(ValueError):
    """Raised when a parameter set violates a model invariant."""


class InfeasibleActionError(ValueError):
    """Raised when an action is applied at a battery level that cannot afford it."""


class Action(IntEnum):
    """Per-slot decisions of the transmitter.

    The integer values are the wire codes used in exported region CSVs.
    """

    DEFER = 0            # idle, save energy, no feedback
    LOW_RATE = 1         # reliable low-rate transmission, uninformative ACK
    SENSE_DEFER = 2      # sense; transmit high rate on GOOD, defer on BAD
    SENSE_TRANSMIT = 3   # sense; transmit high rate on GOOD, low rate on BAD
    HIGH_RATE = 4        # blind high-rate transmission, ACK/NACK reveals state

    @property
    def code(self) -> str:
        return _ACTION_CODES[self]


_ACTION_CODES = {
    Action.DEFER: "D",
    Action.LOW_RATE: "L",
    Action.SENSE_DEFER: "OD",
    Action.SENSE_TRANSMIT: "OT",
    Action.HIGH_RATE: "H",
}

ACTION_BY_CODE = {c: a for a, c in _ACTION_CODES.items()}


def _is_integral(x) -> bool:
    x = float(x)
    return bool(np.isfinite(x)) and x == int(x)


@dataclass(frozen=True)
class SystemParams:
    """All model constants for one problem instance.

    lambda0    Pr[channel GOOD | previously BAD]
    lambda1    Pr[channel GOOD | previously GOOD]
    energy_pmf probabilities of harvesting 0..M-1 energy units per slot
    b_max      battery capacity in energy units
    e_tx       energy cost of a (full-slot) transmission
    e_sense    energy cost of sensing; the sensing slot fraction is
               tau = e_sense / e_tx
    r_low      bits per slot of the reliable low-rate code (0 disables
               the LOW_RATE and SENSE_TRANSMIT actions)
    r_high     bits per slot of the high-rate code (succeeds only on GOOD)
    beta       discount factor in [0, 1)
    """

    lambda0: float
    lambda1: float
    energy_pmf: tuple = field(repr=False)
    b_max: int
    e_tx: int
    e_sense: int
    r_low: float
    r_high: float
    beta: float

    def __post_init__(self):
        pmf = np.asarray(self.energy_pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ParameterError("energy_pmf must be a non-empty vector")
        if not np.all(pmf >= 0):  # NaN fails this test too
            raise ParameterError("energy_pmf entries must be nonnegative numbers")
        if abs(pmf.sum() - 1.0) > PMF_TOL:
            raise ParameterError(f"energy_pmf sums to {pmf.sum()!r}, expected 1")
        object.__setattr__(self, "energy_pmf", tuple(float(q) for q in pmf))

        for name in ("b_max", "e_tx", "e_sense"):
            v = getattr(self, name)
            if not _is_integral(v):
                raise ParameterError(f"{name} must be an integer number of energy units")
            object.__setattr__(self, name, int(v))
        if not (0 < self.e_sense < self.e_tx <= self.b_max):
            raise ParameterError(
                f"need 0 < e_sense < e_tx <= b_max, got "
                f"e_sense={self.e_sense}, e_tx={self.e_tx}, b_max={self.b_max}"
            )
        if not (0.0 <= self.lambda0 <= 1.0 and 0.0 <= self.lambda1 <= 1.0):
            raise ParameterError("lambda0 and lambda1 must lie in [0, 1]")
        if not (0.0 <= self.r_low < self.r_high < np.inf):
            raise ParameterError("need 0 <= r_low < r_high < inf")
        if not (0.0 <= self.beta < 1.0):
            raise ParameterError("beta must lie in [0, 1)")

    @property
    def tau(self) -> float:
        """Fraction of the slot spent sensing. Stored only as the e_sense/e_tx ratio."""
        return self.e_sense / self.e_tx

    @property
    def n_arrivals(self) -> int:
        return len(self.energy_pmf)

    @property
    def two_rate(self) -> bool:
        """True when the low-rate code is usable (r_low > 0)."""
        return self.r_low > 0.0

    @property
    def harvest_support(self):
        """(arrival, probability) pairs with nonzero probability."""
        return tuple((m, q) for m, q in enumerate(self.energy_pmf) if q > 0.0)

    def actions(self) -> tuple:
        """Model's action set; LOW_RATE/SENSE_TRANSMIT exist only with two rates."""
        if self.two_rate:
            return (Action.DEFER, Action.LOW_RATE, Action.SENSE_DEFER,
                    Action.SENSE_TRANSMIT, Action.HIGH_RATE)
        return (Action.DEFER, Action.SENSE_DEFER, Action.HIGH_RATE)

    def with_harvest(self, q: float) -> "SystemParams":
        """Two-point harvest pmf: the largest arrival w.p. q, nothing otherwise."""
        if self.n_arrivals < 2:
            raise ParameterError("a harvest sweep needs an energy_pmf with at "
                                 "least two arrival levels")
        pmf = [0.0] * self.n_arrivals
        pmf[0] = 1.0 - q
        pmf[-1] += q
        return self.replace(energy_pmf=tuple(pmf))

    def replace(self, **changes) -> "SystemParams":
        from dataclasses import replace

        return replace(self, **changes)


def feasible_actions(battery: int, params: SystemParams) -> tuple:
    """Actions affordable at the given battery level.

    Below e_sense only deferring is possible; between e_sense and e_tx the
    transmitter can still sense (without transmitting afterwards); from e_tx
    upward the full action set is available.
    """
    if battery < 0 or battery > params.b_max:
        raise ParameterError(f"battery {battery} outside [0, {params.b_max}]")
    if battery < params.e_sense:
        return (Action.DEFER,)
    if battery < params.e_tx:
        return (Action.DEFER, Action.SENSE_DEFER)
    return params.actions()


@dataclass(frozen=True)
class SlotOutcomes:
    """Per-slot outcome of each action, indexed [action, channel, can_tx].

    channel is 1 when the slot's channel is GOOD; can_tx is 1 when the
    battery affords a full transmission.  `bits` and `debit` (energy units)
    are what the slot delivers and spends; `reveals[action]` says whether
    the channel state is learned, which resets the next belief to lambda1
    (GOOD) or lambda0 (BAD).  Entries for infeasible (action, can_tx)
    pairs carry 0 bits, so reading them is harmless.
    """

    bits: np.ndarray = field(repr=False)
    debit: np.ndarray = field(repr=False)
    reveals: np.ndarray = field(repr=False)

    def legs(self, action: Action, can_tx: int) -> tuple:
        """((bits, debit) on BAD, (bits, debit) on GOOD) for one action."""
        return tuple((float(self.bits[action, g, can_tx]),
                      int(self.debit[action, g, can_tx])) for g in (0, 1))


@lru_cache(maxsize=64)
def slot_outcomes(params: SystemParams) -> SlotOutcomes:
    """The outcome table of `params`; its arrays are read-only."""
    e_tx, e_sense = params.e_tx, params.e_sense
    sensed_high = (1.0 - params.tau) * params.r_high
    sensed_low = (1.0 - params.tau) * params.r_low
    bits = np.zeros((len(Action), 2, 2))
    debit = np.zeros((len(Action), 2, 2), dtype=np.int64)
    debit[[Action.LOW_RATE, Action.SENSE_TRANSMIT, Action.HIGH_RATE]] = e_tx
    debit[Action.SENSE_DEFER] = [[e_sense, e_sense], [e_sense, e_tx]]
    # only a battery that can transmit delivers bits (column can_tx = 1)
    bits[Action.LOW_RATE, :, 1] = params.r_low
    bits[Action.HIGH_RATE, 1, 1] = params.r_high
    bits[Action.SENSE_DEFER, 1, 1] = sensed_high
    bits[Action.SENSE_TRANSMIT, :, 1] = (sensed_low, sensed_high)
    reveals = np.zeros(len(Action), dtype=bool)
    reveals[[Action.SENSE_DEFER, Action.SENSE_TRANSMIT, Action.HIGH_RATE]] = True
    for a in (bits, debit, reveals):
        a.flags.writeable = False
    return SlotOutcomes(bits=bits, debit=debit, reveals=reveals)


def next_battery(battery: int, harvest: int, action: Action,
                 channel_good: bool, params: SystemParams) -> int:
    """Battery level at the start of the next slot.

    The harvest arrives at the end of the slot and the total is clamped at
    capacity; the debit comes from `slot_outcomes`.
    """
    if not 0 <= harvest < params.n_arrivals:
        raise ParameterError(f"harvest {harvest} outside [0, {params.n_arrivals - 1}]")
    if action not in feasible_actions(battery, params):
        raise InfeasibleActionError(
            f"action {action.code} infeasible at battery {battery} "
            f"(e_sense={params.e_sense}, e_tx={params.e_tx})"
        )
    spent = slot_outcomes(params).debit[action, int(channel_good),
                                        int(battery >= params.e_tx)]
    return min(battery - int(spent) + harvest, params.b_max)
