"""Command-line experiment runner.

Subcommands: solve, simulate, search, verify, export-regions.  Each is a
function of (config, output directory, progress printer); all but verify
write figure-ready artifacts, and the directory is made by the first one
written.  Exit codes: 0 (ok), 1 (bad config), 2 (solver did not converge),
3 (verification failed).
"""
from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from .artifacts import write_csv_artifact
from .cores import on_cores
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
# the fixed baseline policies, built from the parameters alone
_BASELINES = {"greedy": greedy_policy, "opportunistic": opportunistic_policy}

THROUGHPUT_HEADER = ["policy", "q", "tau", "mean_bits_per_slot", "std_error",
                     "episodes", "horizon", "seed"]


def _file(out: Path, stem: str, label: str, ext: str) -> Path:
    return out / (f"{stem}_{label}.{ext}" if label else f"{stem}.{ext}")


def _solver(cfg: ExperimentConfig):
    """solve(params, name="optimal"): the solved policy `name` at `params`,
    solved cold, so each sweep point's artifacts depend on that point alone
    and not on which core solved it, or after which other point."""
    grid = BeliefGrid(cfg.grid_resolution)

    def solve(params: SystemParams, name: str = "optimal"):
        return value_iteration(params, grid, tol=cfg.tol, max_iter=cfg.max_iter,
                               span_tol=cfg.span_tol,
                               allowed=_SOLVED_POLICIES[name])
    return solve


def _throughput_row(name: str, params: SystemParams, stats) -> list:
    return [name, repr(float(params.energy_pmf[-1])), repr(float(params.tau)),
            repr(stats.mean_bits_per_slot), repr(stats.std_error),
            stats.episodes, stats.horizon, stats.seed]


def cmd_solve(cfg: ExperimentConfig, out: Path, say,
              regions_only: bool = False) -> int:
    solve = _solver(cfg)

    def work(label, params) -> str:  # the point's progress text
        text = (f"solving {label or 'model'} "
                f"(grid {cfg.grid_resolution}, tol {cfg.tol:g})")
        table = solve(params)
        policy = extract_policy(table)
        policy.write_csv(_file(out, "regions", label, "csv"), cfg.config_hash)
        if regions_only:
            return text
        table.write_csv(_file(out, "values", label, "csv"), cfg.config_hash)
        extract_thresholds(policy).write_text(
            _file(out, "thresholds", label, "txt"), cfg.config_hash)
        uncertified = int((table.margins <= 2.0 * table.bound).sum())
        return (f"{text}\n  converged in {table.iterations} sweeps on "
                f"{table.core_columns} of {cfg.grid_resolution} belief columns, "
                f"values within {table.bound:.1e} of the fixed point; "
                f"{uncertified} cells have a margin <= {2.0 * table.bound:.1e}")

    for text in on_cores(lambda point: work(*point), cfg.sweep_points()):
        say(text)
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, out: Path, say) -> int:
    solve = _solver(cfg)
    lanes = [(label, params, name) for label, params in cfg.sweep_points()
             for name in cfg.policies]
    solved = [(params, name) for _, params, name in lanes if name not in _BASELINES]
    encoded = on_cores(lambda lane: encode_rows(extract_policy(solve(*lane))), solved)
    policies = [_BASELINES[name](params) if name in _BASELINES else next(encoded)
                for _, params, name in lanes]
    # one pass for every (point, policy): the points share the uniforms
    all_stats = run_episodes(policies, [params for _, params, _ in lanes],
                             cfg.sim.episodes, cfg.sim.horizon, cfg.sim.seed)
    rows = []
    for (label, params, name), stats in zip(lanes, all_stats):
        rows.append(_throughput_row(name, params, stats))
        say(f"  {label or 'model'} {name}: {stats.mean_bits_per_slot:.4f} "
            f"+/- {stats.std_error:.4f} bits/slot")
    path = _file(out, "throughput", "", "csv")
    write_csv_artifact(path, cfg.config_hash, THROUGHPUT_HEADER, rows)
    say(f"wrote {path}")
    return EXIT_OK


def cmd_search(cfg: ExperimentConfig, out: Path, say) -> int:
    if cfg.model.two_rate:
        raise ConfigError("search requires the single-rate model (r_low = 0)")
    solve = _solver(cfg)

    def work(label, params):
        init = extract_thresholds(extract_policy(solve(params)))
        result = search_thresholds(params, cfg.search, init)
        result.policy.write_text(_file(out, "search_thresholds", label, "txt"),
                                 cfg.config_hash)
        write_search_log(result.log_rows, _file(out, "search_log", label, "csv"),
                         cfg.config_hash)
        return (f"searching thresholds for {label or 'model'}\n  {result.passes} "
                f"passes, final {result.stats.mean_bits_per_slot:.4f} bits/slot",
                _throughput_row("search", params, result.stats))

    rows = []
    for text, row in on_cores(lambda point: work(*point), cfg.sweep_points()):
        say(text)
        rows.append(row)
    write_csv_artifact(_file(out, "search_throughput", "", "csv"),
                       cfg.config_hash, THROUGHPUT_HEADER, rows)
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out: Path, say) -> int:
    """Print one PASS/FAIL line per check; writes no file."""
    res = compare_with_solver(cfg.model, BeliefGrid(1001), n=4)
    # (passed, text) pairs; text carries its own PASS/FAIL
    reports = [(res.passed, f"{'PASS' if res.passed else 'FAIL'} oracle_agreement: "
                f"gap {res.max_abs_gap_vs_solver:.2e} (bound {res.bound:.2e})")]
    solve = _solver(cfg)

    def work(label, params) -> list:  # the point's reports
        tag, table = label or "model", solve(params)
        found = [(rep.passed, f"[{tag}] {rep}")
                 for rep in [*check_value_structure(table),
                             check_good_state_dominance(table, min_belief=0.05)]]
        try:
            extract_thresholds(extract_policy(table))
            found.append((True, f"[{tag}] PASS threshold_structure"))
        except StructureViolationError as exc:
            found.append((False, f"[{tag}] FAIL threshold_structure: {exc}"))
        return found

    for found in on_cores(lambda point: work(*point), cfg.sweep_points()):
        reports += found
    for _, text in reports:
        print(text)
    return EXIT_OK if all(ok for ok, _ in reports) else EXIT_VERIFY_FAILED


COMMANDS = {"solve": cmd_solve,
            "export-regions": partial(cmd_solve, regions_only=True),
            "simulate": cmd_simulate, "search": cmd_search, "verify": cmd_verify}


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
        if name in ("simulate", "search"):  # the rest simulate nothing
            p.add_argument("--seed", type=int, default=None,
                           help="simulation seed override")
        p.add_argument("--quiet", action="store_true", help="suppress progress")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=getattr(args, "seed", None))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    say = (lambda msg: None) if args.quiet else print
    try:
        return COMMANDS[args.command](cfg, out, say)
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except StructureViolationError as exc:
        print(f"policy structure violation: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
