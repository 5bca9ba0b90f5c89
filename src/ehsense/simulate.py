"""Monte Carlo simulation of policies against the two-state channel.

Episodes draw from counter-based Philox streams keyed by (seed, episode),
so results are bit-identical regardless of execution order and common
random numbers across policies come for free: the channel and harvest
processes are exogenous, so two policies evaluated under the same seed see
exactly the same realizations.  What each action delivers, spends and
reveals in a slot is read from `model.slot_outcomes`, the table the solver
uses too; only `oracle.exact_finite_horizon` restates it, on purpose.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv_artifact
from .model import (Action, InfeasibleActionError, SystemParams,
                    feasible_actions, next_battery, slot_outcomes)
from .belief import (belief_after_observation, belief_update_no_obs,
                     observation_for, stationary_belief)


def episode_rng(seed: int, episode: int) -> np.random.Generator:
    """Independent per-episode stream from a counter-based generator."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(episode)])
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimState:
    """Simulator state at a slot start: battery, belief, and the slot's true
    channel state (the belief is the posterior P[channel == GOOD])."""

    battery: int
    belief: float
    channel: int


@dataclass
class ThroughputStats:
    """Average-throughput estimate from independent episodes."""

    mean_bits_per_slot: float
    std_error: float
    episodes: int
    horizon: int
    seed: int


@dataclass
class EpisodeTrace:
    """Per-slot log of one episode: everything needed to audit the run."""

    channel: np.ndarray = field(repr=False)      # true state during the slot
    harvest: np.ndarray = field(repr=False)      # energy arriving at slot end
    battery: np.ndarray = field(repr=False)      # battery at slot start
    belief: np.ndarray = field(repr=False)       # belief at slot start
    action: np.ndarray = field(repr=False)
    observation: np.ndarray = field(repr=False)
    bits: np.ndarray = field(repr=False)         # bits actually delivered

    def __len__(self):
        return len(self.bits)

    def write_csv(self, path, config_hash: str = "") -> None:
        write_csv_artifact(
            path, config_hash,
            ["slot", "channel", "harvest", "battery", "belief", "action",
             "observation", "bits"],
            ([t, int(self.channel[t]), int(self.harvest[t]), int(self.battery[t]),
              repr(float(self.belief[t])), int(self.action[t]),
              int(self.observation[t]), repr(float(self.bits[t]))]
             for t in range(len(self))))


def step(state: SimState, action: Action, rng: np.random.Generator,
         params: SystemParams):
    """Advance one slot: execute the action against the slot's channel state,
    then sample the next channel state and the harvest.

    Returns (next state, delivered bits, trace row dict).  `next_battery`
    raises InfeasibleActionError if the policy chose an unaffordable action;
    that is a policy bug, not a recoverable condition.
    """
    good = bool(state.channel)
    stay = params.lambda1 if good else params.lambda0
    next_good = bool(rng.random() < stay)
    harvest = min(int(np.searchsorted(_harvest_cdf(params), rng.random(),
                                      side="right")), params.n_arrivals - 1)
    bits = float(slot_outcomes(params).bits[action, int(good),
                                            int(state.battery >= params.e_tx)])
    obs = observation_for(action, good)
    nxt = SimState(
        battery=next_battery(state.battery, harvest, action, good, params),
        belief=belief_after_observation(obs, state.belief, params),
        channel=int(next_good),
    )
    row = {"channel": state.channel, "harvest": harvest, "battery": state.battery,
           "belief": state.belief, "action": int(action),
           "observation": int(obs), "bits": bits}
    return nxt, bits, row


_CDF_CACHE = {}


def _harvest_cdf(params: SystemParams) -> np.ndarray:
    cdf = _CDF_CACHE.get(params.energy_pmf)
    if cdf is None:
        cdf = np.cumsum(np.asarray(params.energy_pmf))
        _CDF_CACHE[params.energy_pmf] = cdf
    return cdf


def _initial_state(params: SystemParams, rng_u0: float, initial_battery: int,
                   initial_belief, g0):
    """First-slot state; by default the channel is drawn from the initial
    belief so the posterior is calibrated from the very first slot."""
    belief = stationary_belief(params) if initial_belief is None \
        else float(initial_belief)
    p_good = belief if g0 is None else float(g0)
    return initial_battery, belief, int(rng_u0 < p_good)


def run_trace(policy, params: SystemParams, horizon: int, seed: int,
              episode: int = 0, initial_battery: int = 0,
              initial_belief=None, g0=None) -> EpisodeTrace:
    """Scalar reference episode; consumes the same stream as run_episodes."""
    rng = episode_rng(seed, episode)
    b0, p0, g_first = _initial_state(params, rng.random(), initial_battery,
                                     initial_belief, g0)
    state = SimState(battery=b0, belief=p0, channel=g_first)
    cols = {k: [] for k in ("channel", "harvest", "battery", "belief",
                            "action", "observation", "bits")}
    for _ in range(horizon):
        action = policy.action_at(state.battery, state.belief)
        state, _, row = step(state, action, rng, params)
        for k, v in row.items():
            cols[k].append(v)
    return EpisodeTrace(**{k: np.asarray(v) for k, v in cols.items()})


def energy_audit(trace: EpisodeTrace, params: SystemParams) -> bool:
    """Replay every battery transition through the model; True iff all match."""
    for t in range(len(trace) - 1):
        expected = next_battery(int(trace.battery[t]), int(trace.harvest[t]),
                                Action(int(trace.action[t])),
                                bool(trace.channel[t]), params)
        if expected != int(trace.battery[t + 1]):
            return False
    return True


def _validate_policy(policy, params: SystemParams) -> None:
    for b in range(params.b_max + 1):
        ok = feasible_actions(b, params)
        for a in policy.rows[b].labels:
            if a not in ok:
                raise InfeasibleActionError(
                    f"policy labels {a.code} at battery {b}")


def run_episodes(policy, params: SystemParams, episodes: int, horizon: int,
                 seed: int, initial_battery: int = 0, initial_belief=None,
                 g0=None, collect_visits: bool = False):
    """Vectorized throughput estimate over independent episodes.

    Returns ThroughputStats; with collect_visits also a per-battery visit
    count array (used by the threshold search to skip untouched rows).
    Episode e draws from the (seed, e) stream, so the result is independent
    of how episodes are batched.
    """
    if horizon < 1 or episodes < 1:
        raise ValueError("episodes and horizon must be >= 1")
    _validate_policy(policy, params)
    breaks, labels = policy.padded_arrays()

    u0 = np.empty(episodes)
    u = np.empty((episodes, horizon, 2))
    for e in range(episodes):
        rng = episode_rng(seed, e)
        u0[e] = rng.random()
        u[e] = rng.random((horizon, 2))

    p_star = stationary_belief(params)
    belief0 = p_star if initial_belief is None else float(initial_belief)
    belief = np.full(episodes, belief0)
    p_good0 = belief0 if g0 is None else float(g0)
    good = (u0 < p_good0).astype(np.intp)  # the first slot's channel state
    battery = np.full(episodes, int(initial_battery))
    # harvest is exogenous: draw the whole matrix up front
    cdf = _harvest_cdf(params)
    harvest = np.minimum(np.searchsorted(cdf, u[:, :, 1], side="right"),
                         params.n_arrivals - 1)

    lam = np.array([params.lambda0, params.lambda1])
    e_tx, b_max = params.e_tx, params.b_max
    out = slot_outcomes(params)
    bits_tab, spend_tab, sensed_tab = out.bits, out.debit, out.reveals
    total_bits = np.zeros(episodes)
    visits = np.zeros(b_max + 1, dtype=np.int64) if collect_visits else None

    for t in range(horizon):
        if collect_visits:
            np.add.at(visits, battery, 1)
        k = np.sum(belief[:, None] >= breaks[battery], axis=1)
        act = labels[battery, k]
        can_tx = (battery >= e_tx).astype(np.intp)
        total_bits += bits_tab[act, good, can_tx]
        battery = np.minimum(battery - spend_tab[act, good, can_tx]
                             + harvest[:, t], b_max)
        belief = np.where(sensed_tab[act], lam[good],
                          belief_update_no_obs(belief, params))
        good = (u[:, t, 0] < lam[good]).astype(np.intp)  # next slot's channel

    per_episode = total_bits / horizon
    stderr = float(per_episode.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    stats = ThroughputStats(mean_bits_per_slot=float(per_episode.mean()),
                            std_error=stderr, episodes=episodes,
                            horizon=horizon, seed=seed)
    return (stats, visits) if collect_visits else stats


def discounted_return(policy, params: SystemParams, b0: int, p0: float,
                      episodes: int, seed: int, horizon: int | None = None):
    """Simulated discounted reward from (b0, p0); cross-checks the value table.

    The initial true channel state is drawn from the initial belief, which
    is what makes the comparison against the solver's value meaningful.
    Returns (mean, standard error).
    """
    beta = params.beta
    if horizon is None:
        # beta^horizon * max value < 1e-6 of the value scale
        horizon = max(1, int(np.ceil(np.log(1e-6) / np.log(max(beta, 1e-12)))))
    _validate_policy(policy, params)
    returns = np.empty(episodes)
    for e in range(episodes):
        rng = episode_rng(seed, e)
        g0 = int(rng.random() < p0)  # channel drawn from the stated belief
        state = SimState(battery=b0, belief=p0, channel=g0)
        total, disc = 0.0, 1.0
        for _ in range(horizon):
            action = policy.action_at(state.battery, state.belief)
            state, bits, _ = step(state, action, rng, params)
            total += disc * bits
            disc *= beta
        returns[e] = total
    stderr = float(returns.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    return float(returns.mean()), stderr
