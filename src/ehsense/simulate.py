"""Monte Carlo simulation of policies against the two-state channel.

Episodes draw from counter-based Philox streams keyed by (seed, episode),
so results are bit-identical regardless of execution order and common
random numbers across policies come for free: the channel and harvest
processes are exogenous, so two policies evaluated under the same seed see
exactly the same realizations.  `run_episodes` uses this to run several
policies, at several points of a harvest-rate or sensing-cost sweep, in one
pass: its lanes are (point, policy, episode) triples, and every point reads
the same uniforms, so the channel of a slot is computed once per episode and
shared by every lane, and the harvest once per episode and block of
consecutive lanes with one harvest pmf, and shared by the block's lanes.
The uniforms are drawn a chunk of slots at a time, so memory does not grow
with the horizon.  A lane's belief is kept as an index into
`belief.orbits`, the beliefs that the no-observation update reaches from
the stationary belief, lambda0 and lambda1 within the horizon; this makes each
slot's action a lookup in a table that holds one row of actions over the
orbit beliefs per distinct `PolicyRow`, so policies that share a row, like
the trials of a search batch, share its table row.  What each action
delivers, spends and reveals in a slot is read from `model.slot_outcomes`,
by `run_episodes` and the scalar `step` alike, and the solver reads the
same table; only `oracle.exact_finite_horizon` restates it, on purpose.
The scalar `step`, `run_trace` and `discounted_return` follow the float
recursion slot by slot and referee the vectorized path.
"""
from __future__ import annotations

import math
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
    """Per-slot log of one episode."""

    channel: np.ndarray = field(repr=False)      # true state during the slot
    belief: np.ndarray = field(repr=False)       # belief at slot start
    bits: np.ndarray = field(repr=False)         # bits actually delivered


def step(state: SimState, action: Action, rng: np.random.Generator,
         params: SystemParams):
    """Advance one slot: execute the action against the slot's channel state,
    then sample the next channel state and the harvest.

    The bits and whether the action reveals the channel come from
    `slot_outcomes`: a revealed channel resets the next belief to lambda1
    (GOOD) or lambda0 (BAD), otherwise it propagates.  Returns (next state,
    delivered bits).  `next_battery` raises
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
    return nxt, bits


@lru_cache(maxsize=64)
def _harvest_cdf(energy_pmf: tuple) -> np.ndarray:
    """Read-only cumulative harvest pmf; arrivals are drawn by searchsorted."""
    cdf = np.cumsum(energy_pmf)
    cdf.flags.writeable = False
    return cdf


def run_trace(policy, params: SystemParams, horizon: int, seed: int,
              episode: int = 0) -> EpisodeTrace:
    """Scalar reference episode; consumes the same stream as run_episodes
    and starts where its lanes do, at battery 0 with the stationary belief,
    from which the first channel is drawn."""
    belief = stationary_belief(params)
    rng = episode_rng(seed, episode)
    state = SimState(battery=0, belief=belief, channel=int(rng.random() < belief))
    channel, beliefs, bits = [], [], []
    for _ in range(horizon):
        channel.append(state.channel)
        beliefs.append(state.belief)
        action = policy.action_at(state.battery, state.belief)
        state, slot_bits = step(state, action, rng, params)
        bits.append(slot_bits)
    return EpisodeTrace(np.asarray(channel), np.asarray(beliefs), np.asarray(bits))


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


def _slot_tables(policies, points, point_of, belief0: float, horizon: int):
    """Flat lookup tables of the slot loop: (row_at, code, bits, drop, j_next, s).

    A lane carries pb = policy * (b_max + 1) + battery and j, the index of
    its belief in `belief.orbits` of (belief0, lambda0, lambda1), where
    belief0, the first root, has index 0.  code[row_at[pb] + j] is the
    lane's action as c = 2 * action * s; adding channel * s gives its
    (action, channel) row, where bits[c + pb] and drop[c + pb] (pb minus the
    energy debit) hold the slot outcome from `slot_outcomes` of the policy's
    own params, points[point_of[policy]], and j_next[c + j] the next belief
    index.  The stride s is the larger of the pb and j ranges.  `code` holds
    one block of n_j actions per distinct PolicyRow (rows are compared by
    value, so policies that share a row share its block), and row_at[pb] is
    the offset of pb's block; n_j is a few hundred unless |lambda1 - lambda0|
    is close to 1, and at most 3 * horizon.
    """
    params = points[0]  # its channel and battery size are every point's
    n_pol, n_b = len(policies), params.b_max + 1
    beliefs, successor, (_, *reset) = orbits(
        params, (belief0, params.lambda0, params.lambda1), horizon)
    n_j, n_pb = len(beliefs), n_pol * n_b
    s = max(n_pb, n_j)
    block = {}  # distinct row -> its block index, in order of first use
    row_at = np.array([block.setdefault(row, len(block))
                       for pol in policies for row in pol.rows], dtype=np.intp)
    row_at *= n_j
    code = np.concatenate([  # PolicyRow.action_at's rule, for every belief
        np.array(row.labels, dtype=np.intp)[
            np.searchsorted(row.breakpoints, beliefs, side="right")]
        for row in block])
    code *= 2 * s

    outs = [slot_outcomes(p) for p in points]
    # pb's column, 2 * point + can_tx, of the points' outcomes side by side
    battery = np.arange(n_b)
    col = np.array([2 * g + (battery >= p.e_tx)
                    for g, p in enumerate(points)])[point_of].ravel()
    rows = (len(Action), 2, s)  # action, channel, pb or j
    bits = np.zeros(rows)
    drop, j_next = np.zeros(rows, dtype=np.intp), np.zeros(rows, dtype=np.intp)
    bits[:, :, :n_pb] = np.concatenate([o.bits for o in outs], axis=2)[:, :, col]
    drop[:, :, :n_pb] = np.arange(n_pb) - np.concatenate(
        [o.debit for o in outs], axis=2)[:, :, col]
    j_next[:, :, :n_j] = successor
    for g in (0, 1):
        j_next[outs[0].reveals, g, :n_j] = reset[g]
    return row_at, code, bits.ravel(), drop.ravel(), j_next.ravel(), s


def _points(policies, params):
    """(distinct params, index of each policy's params among them).

    `params` is one SystemParams shared by every policy or a sequence with
    one entry per policy.  Raises ParameterError unless the entries share
    the channel (lambda0, lambda1) and the battery size, and each policy was
    built for its own entry's battery size and costs.
    """
    if isinstance(params, SystemParams):
        points, point_of = [params], [0] * len(policies)
    else:
        entries = list(params)
        if len(entries) != len(policies):
            raise ParameterError(f"{len(entries)} params entries for "
                                 f"{len(policies)} policies")
        index = {}  # distinct params -> its point index, in order of first use
        point_of = [index.setdefault(p, len(index)) for p in entries]
        points = list(index)
    if len({(p.lambda0, p.lambda1, p.b_max) for p in points}) > 1:
        raise ParameterError("params entries differ in lambda0, lambda1 or "
                             "b_max; only harvest, costs and rates may differ")
    costs = [(p.b_max, p.e_sense, p.e_tx) for p in points]
    if any((pol.params.b_max, pol.params.e_sense, pol.params.e_tx) != costs[i]
           for pol, i in zip(policies, point_of)):
        # a policy's labels are affordable under its own params only
        raise ParameterError("policy built for another battery size or cost")
    return points, point_of


def _harvest_blocks(points, point_of):
    """(cdfs, k): the lanes run in blocks of k consecutive policies that
    share one harvest pmf, and cdfs[r] is block r's cumulative pmf.

    k is as large as the layout allows: all policies when they share one
    pmf, and a sweep point's policies (all of its tau points' too, for a
    q x tau grid) when points come in turn.  A slot's harvest is drawn once
    per block and broadcast over its policies, never once per lane.
    """
    pmf = [points[i].energy_pmf for i in point_of]
    k = math.gcd(len(pmf), *(i for i in range(1, len(pmf))
                             if point_of[i] != point_of[i - 1]
                             and pmf[i] != pmf[i - 1]))
    return [_harvest_cdf(q) for q in pmf[::k]], k


def run_episodes(policy, params, episodes: int, horizon: int, seed: int):
    """Vectorized throughput estimate over independent episodes.

    `policy` is one ThresholdPolicy or a sequence of them.  `params` is one
    SystemParams or a sequence with one entry per policy; the entries share
    lambda0, lambda1 and b_max and may differ in the harvest pmf, the costs
    and the rates, so one call runs every point of a q or tau sweep.  For
    one policy it returns ThroughputStats; for a sequence, a list of them in
    policy order.  All policies run in one pass over a (policy x episode)
    lane array, a policy's lanes reading the slot outcomes and harvest pmf
    of its own params, and every lane of episode e reads the same uniforms,
    so each result equals its single-policy, single-params call.  Episode e
    draws from the (seed, e) stream, so the result is independent of how
    episodes are batched.  Every lane starts at battery 0 with the
    stationary belief, from which its first channel is drawn.
    """
    if horizon < 1 or episodes < 1:
        raise ValueError("episodes and horizon must be >= 1")
    single = isinstance(policy, ThresholdPolicy)
    policies = [policy] if single else list(policy)
    points, point_of = _points(policies, params)
    if not policies:
        return []
    model = points[0]  # its channel and battery size are every lane's
    belief0 = stationary_belief(model)
    n_pol, n_b = len(policies), model.b_max + 1
    row_at, code, bits, drop, j_next, stride = _slot_tables(
        policies, points, point_of, belief0, horizon)
    cdfs, k = _harvest_blocks(points, point_of)

    first = np.arange(n_pol) * n_b
    pb = np.repeat(first, episodes)
    cap = np.repeat(first + model.b_max, episodes)
    j = np.zeros_like(pb)
    c, i = np.empty_like(pb), np.empty_like(pb)
    # (policy, episode) and (block, policy in block, episode) views: a slot's
    # channel row per episode is added to every lane, and its harvest row
    # per (block, episode) to every lane of the block
    c_lanes = c.reshape(n_pol, episodes)
    pb_blocks = pb.reshape(len(cdfs), k, episodes)
    slot_bits = np.empty(pb.shape)
    total_bits = np.zeros(pb.shape)

    rngs = [episode_rng(seed, e) for e in range(episodes)]
    chan = (np.array([rng.random() for rng in rngs]) < belief0).astype(np.intp)
    for t0 in range(0, horizon, _CHUNK):
        u = np.stack([rng.random((min(_CHUNK, horizon - t0), 2)) for rng in rngs])
        n = u.shape[1]
        # channel and harvest are exogenous: computed once per episode, and
        # the harvest once per block of lanes with one pmf
        path = _channel_path(chan, u[:, :, 0].T, model)
        chan_c = np.vstack([chan, path[:-1]]) * stride
        chan = path[-1]  # the next chunk's first slot
        # (slot, block, 1, episode): broadcast over the policies of a block
        harvest = np.stack([
            np.minimum(np.searchsorted(cdf, u[:, :, 1].T, side="right"),
                       len(cdf) - 1) for cdf in cdfs], axis=1)[:, :, None]
        for t in range(n):  # mode="clip": the indices are in range by construction
            row_at.take(pb, out=i, mode="clip")
            i += j
            code.take(i, out=c, mode="clip")
            c_lanes += chan_c[t]
            np.add(c, pb, out=i)
            total_bits += bits.take(i, out=slot_bits, mode="clip")
            drop.take(i, out=pb, mode="clip")
            pb_blocks += harvest[t]
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


def discounted_return(policy, params: SystemParams, episodes: int, seed: int):
    """Simulated discounted reward from the start state of `run_trace`, the
    first channel drawn from the stationary belief, which is what makes the
    comparison against the solver's value at (0, p*) meaningful.  Episodes
    run until beta^horizon < 1e-6.  Returns (mean, standard error).
    """
    beta = params.beta
    horizon = max(1, int(np.ceil(np.log(1e-6) / np.log(max(beta, 1e-12)))))
    returns = np.empty(episodes)
    for e in range(episodes):
        total, disc = 0.0, 1.0
        for bits in run_trace(policy, params, horizon, seed, episode=e).bits.tolist():
            total += disc * bits
            disc *= beta
        returns[e] = total
    stderr = float(returns.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    return float(returns.mean()), stderr
