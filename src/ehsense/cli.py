"""Command-line experiment runner.

Subcommands: solve, simulate, search, verify, export-regions.  Each reads a
YAML config, writes figure-ready CSV artifacts into the output directory,
and uses exit codes 0 (ok), 1 (bad config), 2 (solver did not converge),
3 (verification failed).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .artifacts import write_csv_artifact
from .model import ParameterError, SystemParams
from .belief import BeliefGrid
from .solver import ConvergenceError, value_iteration
from .policies import (SINGLE_THRESHOLD_ACTIONS, StructureViolationError,
                       encode_rows, extract_policy, extract_thresholds,
                       greedy_policy, opportunistic_policy)
from .simulate import run_episodes
from .search import search_thresholds, write_search_log
from .config import ConfigError, ExperimentConfig, load_config
from .oracle import (check_good_state_dominance, check_value_structure,
                     compare_with_solver)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3

# solved benchmark policies and their action sets (None: the model's own)
_SOLVED_POLICIES = {"optimal": None, "single_threshold": SINGLE_THRESHOLD_ACTIONS}

THROUGHPUT_HEADER = ["policy", "q", "tau", "mean_bits_per_slot", "std_error",
                     "episodes", "horizon", "seed"]


class _Runner:
    def __init__(self, cfg: ExperimentConfig, out_dir: Path, quiet: bool):
        self.cfg = cfg
        self.out = out_dir
        self.quiet = quiet
        self.grid = BeliefGrid.from_resolution(cfg.grid_resolution)
        out_dir.mkdir(parents=True, exist_ok=True)

    def say(self, msg: str) -> None:
        if not self.quiet:
            print(msg)

    def path(self, stem: str, label: str, ext: str) -> Path:
        name = f"{stem}_{label}.{ext}" if label else f"{stem}.{ext}"
        return self.out / name

    def solve_point(self, params: SystemParams, warm: dict, name="optimal"):
        """Solve for the solved policy `name`, warm-started from warm[name]
        (values of an earlier sweep point) and saving its values there."""
        table = value_iteration(params, self.grid, tol=self.cfg.tol,
                                max_iter=self.cfg.max_iter, v_init=warm.get(name),
                                span_tol=self.cfg.span_tol,
                                allowed=_SOLVED_POLICIES[name])
        warm[name] = table.values
        return table

    def policy_for(self, name: str, params: SystemParams, warm: dict):
        """Benchmark policy by name; warm caches value tables across sweep points."""
        if name == "greedy":
            return greedy_policy(params)
        if name == "opportunistic":
            return opportunistic_policy(params)
        return encode_rows(extract_policy(self.solve_point(params, warm, name)))

    def write_throughput(self, stem: str, rows) -> Path:
        path = self.path(stem, "", "csv")
        write_csv_artifact(path, self.cfg.config_hash, THROUGHPUT_HEADER, rows)
        return path


def _throughput_row(name: str, params: SystemParams, stats) -> list:
    return [name, repr(float(params.energy_pmf[-1])), repr(float(params.tau)),
            repr(stats.mean_bits_per_slot), repr(stats.std_error),
            stats.episodes, stats.horizon, stats.seed]


def cmd_solve(runner: _Runner, regions_only: bool = False) -> int:
    cfg = runner.cfg
    warm: dict = {}
    for label, params in cfg.sweep_points():
        runner.say(f"solving {label or 'model'} "
                   f"(grid {runner.grid.resolution}, tol {cfg.tol:g})")
        table = runner.solve_point(params, warm)
        policy = extract_policy(table)
        policy.write_csv(runner.path("regions", label, "csv"), cfg.config_hash)
        if regions_only:
            continue
        table.write_csv(runner.path("values", label, "csv"), cfg.config_hash)
        thresholds = extract_thresholds(policy)
        thresholds.write_text(runner.path("thresholds", label, "txt"),
                              cfg.config_hash)
        runner.say(f"  converged in {table.iterations} sweeps, values within "
                   f"{table.bound:.1e} of the fixed point")
    return EXIT_OK


def cmd_simulate(runner: _Runner) -> int:
    cfg = runner.cfg
    rows = []
    warm: dict = {}
    for label, params in cfg.sweep_points():
        policies = [runner.policy_for(name, params, warm) for name in cfg.policies]
        # one pass for all policies: they share the point's uniforms
        all_stats = run_episodes(policies, params, cfg.sim.episodes,
                                 cfg.sim.horizon, cfg.sim.seed,
                                 initial_battery=cfg.sim.initial_battery,
                                 initial_belief=cfg.sim.initial_belief,
                                 g0=cfg.sim.g0)
        for name, stats in zip(cfg.policies, all_stats):
            rows.append(_throughput_row(name, params, stats))
            runner.say(f"  {label or 'model'} {name}: "
                       f"{stats.mean_bits_per_slot:.4f} "
                       f"+/- {stats.std_error:.4f} bits/slot")
    runner.say(f"wrote {runner.write_throughput('throughput', rows)}")
    return EXIT_OK


def cmd_search(runner: _Runner) -> int:
    cfg = runner.cfg
    rows = []
    warm: dict = {}
    for label, params in cfg.sweep_points():
        runner.say(f"searching thresholds for {label or 'model'}")
        table = runner.solve_point(params, warm)
        init = extract_thresholds(extract_policy(table))
        result = search_thresholds(params, cfg.search, init)
        result.policy.write_text(runner.path("search_thresholds", label, "txt"),
                                 cfg.config_hash)
        write_search_log(result.log_rows,
                         runner.path("search_log", label, "csv"),
                         cfg.config_hash)
        rows.append(_throughput_row("search", params, result.stats))
        runner.say(f"  {result.passes} passes, final "
                   f"{result.stats.mean_bits_per_slot:.4f} bits/slot")
    runner.write_throughput("search_throughput", rows)
    return EXIT_OK


def cmd_verify(runner: _Runner) -> int:
    cfg = runner.cfg
    reports = []  # (passed, text) pairs; text carries its own PASS/FAIL

    grid = BeliefGrid.from_resolution(1001)
    res = compare_with_solver(cfg.model, grid, n=4)
    bound = 10 * grid.step * res.horizon * cfg.model.r_high
    ok = res.max_abs_gap_vs_solver <= bound
    reports.append((ok, f"{'PASS' if ok else 'FAIL'} oracle_agreement: "
                        f"gap {res.max_abs_gap_vs_solver:.2e} (bound {bound:.2e})"))

    for label, params in cfg.sweep_points():
        tag = label or "model"
        table = runner.solve_point(params, {})
        for rep in check_value_structure(table):
            reports.append((rep.passed, f"[{tag}] {rep}"))
        dom = check_good_state_dominance(table, min_belief=0.05)
        reports.append((dom.passed, f"[{tag}] {dom}"))
        try:
            extract_thresholds(extract_policy(table))
            reports.append((True, f"[{tag}] PASS threshold_structure"))
        except StructureViolationError as exc:
            reports.append((False, f"[{tag}] FAIL threshold_structure: {exc}"))

    failures = sum(1 for ok, _ in reports if not ok)
    for _, text in reports:
        print(text)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehsense",
        description="Solve, benchmark and verify transmit/sense scheduling "
                    "policies for an energy-harvesting transmitter.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("solve", "value iteration; writes value, region and threshold files"),
            ("simulate", "Monte Carlo throughput benchmark of the configured policies"),
            ("search", "direct threshold optimization (single-rate model)"),
            ("verify", "solver certification checks; exit 3 on failure"),
            ("export-regions", "solve and write only the policy-region CSV")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None,
                       help="simulation seed override")
        p.add_argument("--quiet", action="store_true", help="suppress progress")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "search" and cfg.model.two_rate:
        # refused before the runner makes the output directory
        print("search requires the single-rate model (r_low = 0)",
              file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
    runner = _Runner(cfg, out_dir, args.quiet)
    try:
        if args.command == "solve":
            return cmd_solve(runner)
        if args.command == "export-regions":
            return cmd_solve(runner, regions_only=True)
        if args.command == "simulate":
            return cmd_simulate(runner)
        if args.command == "search":
            return cmd_search(runner)
        if args.command == "verify":
            return cmd_verify(runner)
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except StructureViolationError as exc:
        print(f"policy structure violation: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
