"""Span recording around the public entry points of each ehsense module.

The wrappers live here, in the benchmark, and are installed at run time by
replacing every reference to an entry point in the loaded `ehsense.*`
modules; the program itself is not modified.  Spans are kept in memory as
(id, name, start, end, parent, counters) and handed back at the end of the
run.  Layer metrics are derived from them afterwards.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time


def _arg(sig, args, kwargs, name):
    return sig.bind(*args, **kwargs).arguments[name]


def _solver_counts(sig, args, kwargs, table):
    return {"sweeps": int(table.iterations), "cells": int(table.values.size)}


def _simulate_counts(sig, args, kwargs, result):
    episodes = int(_arg(sig, args, kwargs, "episodes"))
    horizon = int(_arg(sig, args, kwargs, "horizon"))
    return {"lane_slots": episodes * horizon, "horizon": horizon}


def _search_counts(sig, args, kwargs, result):
    rows = result.log_rows
    return {"evaluations": len(rows), "accepted": sum(int(r[-1]) for r in rows)}


def _oracle_counts(sig, args, kwargs, result):
    return {"exact_values": len(result.values)}


def _write_counts(sig, args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(sig, args, kwargs, "path"))}


# (span name, module, attribute, counter); "Class.method" attributes are
# patched on the class, plain functions wherever a module holds them.
ENTRY_POINTS = (
    ("config.load_config", "ehsense.config", "load_config", None),
    ("solver.value_iteration", "ehsense.solver", "value_iteration", _solver_counts),
    ("policies.extract_policy", "ehsense.policies", "extract_policy", None),
    ("policies.extract_thresholds", "ehsense.policies", "extract_thresholds", None),
    ("policies.encode_rows", "ehsense.policies", "encode_rows", None),
    ("simulate.run_episodes", "ehsense.simulate", "run_episodes", _simulate_counts),
    ("search.search_thresholds", "ehsense.search", "search_thresholds", _search_counts),
    ("oracle.compare_with_solver", "ehsense.oracle", "compare_with_solver", _oracle_counts),
    ("oracle.check_value_structure", "ehsense.oracle", "check_value_structure", None),
    ("oracle.check_good_state_dominance", "ehsense.oracle",
     "check_good_state_dominance", None),
    ("cli.write_csv", "ehsense.policies", "PolicyTable.write_csv", _write_counts),
    ("cli.write_csv", "ehsense.solver", "ValueTable.write_csv", _write_counts),
    ("cli.write_text", "ehsense.policies", "ThresholdPolicy.write_text", _write_counts),
    ("cli.write_search_log", "ehsense.search", "write_search_log", _write_counts),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []   # [id, name, start, end, parent, counters]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [len(self.spans), name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                rec[5] = counter(sig, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every entry point in ENTRY_POINTS; ehsense must be imported."""
        modules = [m for n, m in sys.modules.items()
                   if n == "ehsense" or n.startswith("ehsense.")]
        for name, module, attr, counter in ENTRY_POINTS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), counter))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(spans) -> dict:
    """Per-layer times and counts of one traced run, from its spans."""
    by_id = {s[0]: s for s in spans}

    def outermost(prefixes):
        """Spans named with a prefix whose ancestors carry none of them."""
        out = []
        for s in spans:
            if not s[1].startswith(prefixes):
                continue
            p = s[4]
            while p is not None and not by_id[p][1].startswith(prefixes):
                p = by_id[p][4]
            if p is None:
                out.append(s)
        return out

    def total(prefixes):
        return sum(s[3] - s[2] for s in outermost(prefixes))

    def count(prefixes, key):
        return sum(s[5].get(key, 0) for s in outermost(prefixes))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    own = self_times(spans)
    solver = outermost(("solver.",))
    sim = outermost(("simulate.",))
    search_s = total(("search.",))
    evaluations = count(("search.",), "evaluations")
    accepted = count(("search.",), "accepted")
    write_s = total(("cli.write",))
    write_bytes = count(("cli.write",), "bytes")
    solver_s = total(("solver.",))
    sweeps = count(("solver.",), "sweeps")
    cells = max((s[5]["cells"] for s in solver), default=0)
    sim_s = total(("simulate.",))
    lane_slots = count(("simulate.",), "lane_slots")
    slot_steps = count(("simulate.",), "horizon")
    return {
        "config.load_s": total(("config.",)),
        "solver.value_iteration_s": solver_s,
        "solver.calls": len(solver),
        "solver.sweeps": sweeps,
        "solver.ms_per_sweep": ratio(solver_s, sweeps, 1e3),
        "solver.cells": cells,
        "solver.bytes_per_sweep": 2 * 8 * cells,
        "policies.extract_s": total(("policies.",)),
        "simulate.run_s": sim_s,
        "simulate.calls": len(sim),
        "simulate.lane_slots": lane_slots,
        "simulate.ns_per_lane_slot": ratio(sim_s, lane_slots, 1e9),
        "simulate.us_per_slot_step": ratio(sim_s, slot_steps, 1e6),
        "search.run_s": search_s,
        "search.self_s": sum(own[s[0]] for s in outermost(("search.",))),
        "search.evaluations": evaluations,
        "search.accepted": accepted,
        "search.accept_ratio": ratio(accepted, evaluations),
        "search.ms_per_evaluation": ratio(search_s, evaluations, 1e3),
        "oracle.compare_s": total(("oracle.compare",)),
        "oracle.checks_s": total(("oracle.check",)),
        "oracle.exact_values": count(("oracle.compare",), "exact_values"),
        "cli.write_s": write_s,
        "cli.write_mb_per_s": ratio(write_bytes, write_s, 1e-6),
        "cli.self_s": sum(own[s[0]] for s in spans if s[1] == "cli.main"),
    }
