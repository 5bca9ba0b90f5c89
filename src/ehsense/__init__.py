"""Solver and simulation toolkit for an energy-harvesting transmitter that
can sense a two-state (Gilbert-Elliot) channel.

The package computes optimal transmit/sense/defer policies by value
iteration over the (battery, belief) state space, extracts and optimizes
per-battery belief thresholds, and benchmarks policies with a common
random number Monte Carlo simulator.
"""

from .model import (Action, InfeasibleActionError, ParameterError, SystemParams,
                    feasible_actions, next_battery, slot_outcomes)
from .belief import (BeliefGrid, belief_update_no_obs, orbits, reachable_beliefs,
                     stationary_belief)
from .solver import (BellmanOperator, ConvergenceError, ValueTable, backup,
                     bellman_step, value_iteration, zero_table)
from .policies import (PolicyRow, PolicyTable, StructureViolationError,
                       ThresholdPolicy, check_row_form, encode_rows,
                       extract_policy, extract_thresholds, greedy_policy,
                       opportunistic_policy)
from .simulate import (EpisodeTrace, SimState, ThroughputStats, discounted_return,
                       episode_rng, run_episodes, run_trace, step)
from .search import (SearchConfig, SearchResult, default_candidates,
                     search_thresholds)
from .oracle import (CheckReport, OracleResult, check_good_state_dominance,
                     check_value_structure, compare_with_solver,
                     exact_finite_horizon)

__version__ = "0.1.0"
