"""Monte Carlo simulation of policies against the two-state channel.

Episodes draw from counter-based Philox streams keyed by (seed, episode),
so results are bit-identical regardless of execution order and common
random numbers across policies come for free: the channel and harvest
processes are exogenous, so two policies evaluated under the same seed see
exactly the same realizations.  `run_episodes` uses this to run several
policies in one pass: its lanes are (policy, episode) pairs, the channel and
harvest of a slot are computed once per episode and shared by every policy,
and the uniforms are drawn a chunk of slots at a time, so memory does not
grow with the horizon.  A lane's belief is kept as an index into
`belief.orbits`, the beliefs that the no-observation update reaches from
the start belief, lambda0 and lambda1 within the horizon; this makes each
slot's action a lookup in a (policy, battery, orbit index) table.  What
each action delivers, spends and reveals in a slot is read from
`model.slot_outcomes`, by `run_episodes` and the scalar `step` alike, and
the solver reads the same table; only `oracle.exact_finite_horizon`
restates it, on purpose.  The scalar `step`, `run_trace` and
`discounted_return` follow the float recursion slot by slot and referee the
vectorized path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import (Action, ParameterError, SystemParams, next_battery,
                    slot_outcomes)
from .belief import belief_update_no_obs, orbits, stationary_belief
from .policies import ThresholdPolicy


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
    bits: np.ndarray = field(repr=False)         # bits actually delivered

    def __len__(self):
        return len(self.bits)


def step(state: SimState, action: Action, rng: np.random.Generator,
         params: SystemParams):
    """Advance one slot: execute the action against the slot's channel state,
    then sample the next channel state and the harvest.

    The bits and whether the action reveals the channel come from
    `slot_outcomes`: a revealed channel resets the next belief to lambda1
    (GOOD) or lambda0 (BAD), otherwise it propagates.  Returns (next state,
    delivered bits, trace row dict).  `next_battery` raises
    InfeasibleActionError if the policy chose an unaffordable action; that
    is a policy bug, not a recoverable condition.
    """
    good = bool(state.channel)
    to_good = params.lambda1 if good else params.lambda0  # P[next slot GOOD]
    next_good = bool(rng.random() < to_good)
    harvest = min(int(np.searchsorted(_harvest_cdf(params.energy_pmf),
                                      rng.random(), side="right")),
                  params.n_arrivals - 1)
    out = slot_outcomes(params)
    bits = float(out.bits[action, int(good), int(state.battery >= params.e_tx)])
    nxt = SimState(
        battery=next_battery(state.battery, harvest, action, good, params),
        belief=(to_good if out.reveals[action]  # the channel was learned
                else belief_update_no_obs(state.belief, params)),
        channel=int(next_good),
    )
    row = {"channel": state.channel, "harvest": harvest, "battery": state.battery,
           "belief": state.belief, "action": int(action), "bits": bits}
    return nxt, bits, row


@lru_cache(maxsize=64)
def _harvest_cdf(energy_pmf: tuple) -> np.ndarray:
    """Read-only cumulative harvest pmf; arrivals are drawn by searchsorted."""
    cdf = np.cumsum(energy_pmf)
    cdf.flags.writeable = False
    return cdf


def episode_start(params: SystemParams, initial_battery: int, initial_belief,
                  g0):
    """(belief, P[channel GOOD]) at the first slot of an episode.

    The belief defaults to the stationary one and the first channel is drawn
    from it, so the posterior is calibrated from the very first slot; `g0`
    overrides the probability of that draw.  Raises ParameterError for a
    battery outside [0, b_max] or a probability outside [0, 1].
    """
    if not 0 <= initial_battery <= params.b_max:
        raise ParameterError(
            f"initial battery {initial_battery} outside [0, {params.b_max}]")
    belief = stationary_belief(params) if initial_belief is None \
        else float(initial_belief)
    p_good = belief if g0 is None else float(g0)
    if not (0.0 <= belief <= 1.0 and 0.0 <= p_good <= 1.0):
        raise ParameterError(
            f"initial belief {belief} and g0 {p_good} must lie in [0, 1]")
    return belief, p_good


def run_trace(policy, params: SystemParams, horizon: int, seed: int,
              episode: int = 0, initial_battery: int = 0,
              initial_belief=None, g0=None) -> EpisodeTrace:
    """Scalar reference episode; consumes the same stream as run_episodes."""
    rng = episode_rng(seed, episode)
    belief, p_good = episode_start(params, initial_battery, initial_belief, g0)
    state = SimState(battery=initial_battery, belief=belief,
                     channel=int(rng.random() < p_good))
    cols = {k: [] for k in ("channel", "harvest", "battery", "belief",
                            "action", "bits")}
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


# Uniforms are drawn this many slots at a time: memory grows with lanes times
# this, not with the horizon, and chunked Philox draws equal one whole draw.
_CHUNK = 512


def _channel_path(start, stay, params: SystemParams) -> np.ndarray:
    """Channel of slots 1..n from the channel `start` of slot 0 and the
    (n, episodes) uniforms `stay`: slot t + 1 is GOOD iff
    stay[t] < lambda of slot t's channel.

    A uniform below min(lambda0, lambda1) makes the next slot GOOD and one
    at or above the max makes it BAD, whatever the channel; one in between
    keeps the channel when lambda1 > lambda0 and flips it when
    lambda0 > lambda1.  So a slot's channel is the value forced by the last
    such uniform (or `start`), flipped once per later slot in the second
    case: a whole chunk in a few array operations instead of a slot loop.
    """
    lo, hi = sorted((params.lambda0, params.lambda1))
    t = np.arange(len(stay))[:, None]
    last = np.maximum.accumulate(np.where((stay < lo) | (stay >= hi), t, -1))
    forced = np.take_along_axis(stay, np.maximum(last, 0), axis=0) < lo
    chan = np.where(last >= 0, forced, start)
    if params.lambda0 > params.lambda1:
        chan ^= (t - last) & 1
    return chan


def _slot_tables(policies, params: SystemParams, belief0: float, horizon: int):
    """Flat lookup tables of the slot loop: (code, bits, drop, j_next, n_j, s).

    A lane carries pb = policy * (b_max + 1) + battery and j, the index of
    its belief in `belief.orbits` of (belief0, lambda0, lambda1), where
    belief0, the first root, has index 0.  code[pb * n_j + j] is the lane's
    action as c = 2 * action * s; adding channel * s gives its (action,
    channel) row, where bits[c + pb] and drop[c + pb] (pb minus the energy
    debit) hold the slot outcome from `slot_outcomes` and j_next[c + j] the
    next belief index.  The stride s is the larger of the pb and j ranges.  The
    action table holds (policies x batteries x n_j) words; n_j is a few
    hundred unless |lambda1 - lambda0| is close to 1, and at most
    3 * horizon.
    """
    n_pol, n_b = len(policies), params.b_max + 1
    beliefs, successor, (_, *reset) = orbits(
        params, (belief0, params.lambda0, params.lambda1), horizon)
    n_j, n_pb = len(beliefs), n_pol * n_b
    s = max(n_pb, n_j)
    code = np.empty((n_pol, n_b, n_j), dtype=np.intp)
    for pol, block in zip(policies, code):
        k = np.zeros((n_b, n_j), dtype=np.int8)  # interval of each belief
        for col in pol.breaks.T:
            k += beliefs >= col[:, None]
        block[:] = np.take_along_axis(pol.labels, k, axis=1)
    code = code.ravel()
    code *= 2 * s

    out = slot_outcomes(params)
    can_tx = np.tile(np.arange(n_b) >= params.e_tx, n_pol).astype(np.intp)
    rows = (len(Action), 2, s)  # action, channel, pb or j
    bits = np.zeros(rows)
    drop, j_next = np.zeros(rows, dtype=np.intp), np.zeros(rows, dtype=np.intp)
    bits[:, :, :n_pb] = out.bits[:, :, can_tx]
    drop[:, :, :n_pb] = np.arange(n_pb) - out.debit[:, :, can_tx]
    j_next[:, :, :n_j] = successor
    for g in (0, 1):
        j_next[out.reveals, g, :n_j] = reset[g]
    return code, bits.ravel(), drop.ravel(), j_next.ravel(), n_j, s


def run_episodes(policy, params: SystemParams, episodes: int, horizon: int,
                 seed: int, initial_battery: int = 0, initial_belief=None,
                 g0=None):
    """Vectorized throughput estimate over independent episodes.

    `policy` is one ThresholdPolicy or a sequence of them.  For one policy
    it returns ThroughputStats; for a sequence, a list of them in policy
    order.  All policies run in one pass over a (policy x episode) lane
    array and read the same uniforms, so each result equals its
    single-policy call.  Episode e draws
    from the (seed, e) stream, so the result is independent of how episodes
    are batched.
    """
    if horizon < 1 or episodes < 1:
        raise ValueError("episodes and horizon must be >= 1")
    belief0, p_good0 = episode_start(params, initial_battery, initial_belief, g0)
    single = isinstance(policy, ThresholdPolicy)
    policies = [policy] if single else list(policy)
    costs = (params.b_max, params.e_sense, params.e_tx)
    if any((p.params.b_max, p.params.e_sense, p.params.e_tx) != costs
           for p in policies):
        # a policy's labels are affordable under its own params only
        raise ParameterError("policy built for another battery size or cost")
    n_pol, n_b = len(policies), params.b_max + 1
    code, bits, drop, j_next, n_j, stride = _slot_tables(policies, params,
                                                         belief0, horizon)
    cdf = _harvest_cdf(params.energy_pmf)

    first = np.arange(n_pol) * n_b
    pb = np.repeat(first + int(initial_battery), episodes)
    cap = np.repeat(first + params.b_max, episodes)
    j = np.zeros_like(pb)
    c, i = np.empty_like(pb), np.empty_like(pb)
    # (policy, episode) views: a slot's channel and harvest row per episode
    # is added to every policy's lanes by broadcasting
    c_lanes, pb_lanes = c.reshape(n_pol, episodes), pb.reshape(n_pol, episodes)
    slot_bits = np.empty(pb.shape)
    total_bits = np.zeros(pb.shape)

    rngs = [episode_rng(seed, e) for e in range(episodes)]
    chan = (np.array([rng.random() for rng in rngs]) < p_good0).astype(np.intp)
    for t0 in range(0, horizon, _CHUNK):
        u = np.stack([rng.random((min(_CHUNK, horizon - t0), 2)) for rng in rngs])
        n = u.shape[1]
        # channel and harvest are exogenous: computed once per episode
        path = _channel_path(chan, u[:, :, 0].T, params)
        chan_c = np.vstack([chan, path[:-1]]) * stride
        chan = path[-1]  # the next chunk's first slot
        harvest = np.minimum(np.searchsorted(cdf, u[:, :, 1].T, side="right"),
                             params.n_arrivals - 1)
        for t in range(n):  # mode="clip": the indices are in range by construction
            np.multiply(pb, n_j, out=i)
            i += j
            code.take(i, out=c, mode="clip")
            c_lanes += chan_c[t]
            np.add(c, pb, out=i)
            total_bits += bits.take(i, out=slot_bits, mode="clip")
            drop.take(i, out=pb, mode="clip")
            pb_lanes += harvest[t]
            np.minimum(pb, cap, out=pb)
            np.add(c, j, out=i)
            j_next.take(i, out=j, mode="clip")

    per_episode = (total_bits / horizon).reshape(n_pol, episodes)
    stats = [ThroughputStats(
        mean_bits_per_slot=float(row.mean()),
        std_error=float(row.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0,
        episodes=episodes, horizon=horizon, seed=seed)
        for row in per_episode]
    return stats[0] if single else stats


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
    returns = np.empty(episodes)
    for e in range(episodes):
        total, disc = 0.0, 1.0
        trace = run_trace(policy, params, horizon, seed, episode=e,
                          initial_battery=b0, initial_belief=p0)
        for bits in trace.bits.tolist():
            total += disc * bits
            disc *= beta
        returns[e] = total
    stderr = float(returns.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    return float(returns.mean()), stderr
