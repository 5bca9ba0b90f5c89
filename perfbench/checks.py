"""Correctness checks on a workload's artifacts, and the held-out policy score.

Reference values were recorded at the seed commit by `record_reference.py`
into `reference.json`.  Checks are semantic: region action grids must be
equal, throughput means must lie within 4 standard errors of a
high-precision reference, a searched policy must be in threshold form and
score at least its initial policy, and `verify` must fail exactly the
known-red checks.  Byte digests are compared too, but a mismatch only
counts towards `artifacts_changed`: artifacts may change if a change says so.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from ehsense.belief import BeliefGrid
from ehsense.config import load_config
from ehsense.model import ACTION_BY_CODE, ParameterError
from ehsense.policies import (PolicyRow, PolicyTable, ThresholdPolicy,
                              encode_rows, extract_policy, extract_thresholds)
from ehsense.search import rho_from_policy
from ehsense.simulate import run_episodes
from ehsense.solver import value_iteration

from workloads import BENCH_DIR, ROOT

REFERENCE_PATH = BENCH_DIR / "reference.json"
THROUGHPUT_SE_LIMIT = 4.0
EVAL_LANES = 64
EVAL_HORIZON = 10_000
HELD_OUT_OFFSET = 1_000_003            # evaluation seed = workload seed + this


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_digests(out_dir: Path) -> dict:
    return {p.relative_to(out_dir).as_posix(): digest(p)
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def rle_rows(actions: np.ndarray) -> list:
    """Run-length code per battery row, e.g. "0x120,2x30,4x851"."""
    rows = []
    for row in actions:
        change = np.flatnonzero(row[1:] != row[:-1]) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [len(row)]])
        rows.append(",".join(f"{row[s]}x{e - s}" for s, e in zip(starts, ends)))
    return rows


def rle_decode(rows: list) -> np.ndarray:
    out = []
    for text in rows:
        row = []
        for run in text.split(","):
            a, n = run.split("x")
            row += [int(a)] * int(n)
        out.append(row)
    return np.array(out, dtype=np.int64)


def read_region_grid(path: Path, params, resolution: int) -> np.ndarray:
    """Action grid of a region CSV; raises ValueError if the layout is off."""
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    shape = (params.b_max + 1, resolution)
    if data.shape != (shape[0] * shape[1], 3):
        raise ValueError(f"{path.name}: {data.shape[0]} rows, "
                         f"expected {shape[0] * shape[1]}")
    points = BeliefGrid.from_resolution(resolution).points
    if not (np.array_equal(data[:, 0], np.repeat(np.arange(shape[0]), shape[1]))
            and np.allclose(data[:, 1], np.tile(points, shape[0]),
                            rtol=0, atol=1e-12)):
        raise ValueError(f"{path.name}: battery/belief columns out of order")
    return data[:, 2].astype(np.int64).reshape(shape)


def region_files(cfg_path: str):
    """(artifact name, params, resolution) per sweep point of a config."""
    cfg = load_config(ROOT / cfg_path)
    for label, params in cfg.sweep_points():
        name = f"regions_{label}.csv" if label else "regions.csv"
        yield name, params, cfg.grid_resolution


def read_throughput(path: Path) -> dict:
    """"policy,q,tau" -> (mean, standard error) from a throughput CSV."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    return {f"{r['policy']},{r['q']},{r['tau']}":
            (float(r["mean_bits_per_slot"]), float(r["std_error"])) for r in rows}


_PART = re.compile(r"\[([^,\]]+),([^\])]+)[\])]->(\w+)")


def read_threshold_policy(path: Path, params) -> ThresholdPolicy:
    """Parse a thresholds text file (as ThresholdPolicy.write_text writes it)."""
    rows = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            parts = _PART.findall(line.split(":", 1)[1])
            rows.append(PolicyRow(
                breakpoints=tuple(float(lo) for lo, _, _ in parts[1:]),
                labels=tuple(ACTION_BY_CODE[code] for _, _, code in parts)))
    return ThresholdPolicy(rows=tuple(rows), params=params)


def add(checks: list, name: str, passed, detail: str = "") -> None:
    checks.append((name, bool(passed), detail))


def _check_grids(checks, job_dir, cfg_path, ref_grids):
    for name, params, res in region_files(cfg_path):
        key = f"{job_dir.name}/{name}"
        try:
            grid = read_region_grid(job_dir / name, params, res)
        except (OSError, ValueError) as exc:
            add(checks, f"grid {key}", False, str(exc))
            continue
        diff = int(np.count_nonzero(grid != rle_decode(ref_grids[key])))
        add(checks, f"grid {key}", diff == 0, f"{diff} cells differ")


def _check_verify(checks, output, ref):
    outcomes = re.findall(r"\b(PASS|FAIL) (\w+)", output)
    failing = sorted({n for s, n in outcomes if s == "FAIL"})
    ok = failing == ref["verify_failures"] and len(outcomes) == ref["verify_checks"]
    add(checks, "verify outcome", ok,
        f"{len(outcomes)} checks, failing {failing}")


def _check_throughput(checks, job_dir, ref):
    try:
        got = read_throughput(job_dir / "throughput.csv")
    except (OSError, KeyError, ValueError) as exc:
        add(checks, "throughput.csv", False, str(exc))
        return
    for key, (ref_mean, ref_se) in ref["throughput"].items():
        if key not in got:
            add(checks, f"throughput {key}", False, "row missing")
            continue
        mean, se = got[key]
        limit = THROUGHPUT_SE_LIMIT * math.hypot(se, ref_se)
        add(checks, f"throughput {key}", abs(mean - ref_mean) <= limit,
            f"{mean:.5f} vs {ref_mean:.5f} (limit {limit:.5f})")
    add(checks, "throughput rows", set(got) == set(ref["throughput"]),
        f"{len(got)} rows")


def _initial_search_policy(cfg, params):
    grid = BeliefGrid.from_resolution(cfg.grid_resolution)
    table = value_iteration(params, grid, tol=cfg.tol, max_iter=cfg.max_iter,
                            span_tol=cfg.span_tol)
    return extract_thresholds(extract_policy(table))


def _check_search(checks, job_dir, cfg_path, seed):
    cfg = load_config(ROOT / cfg_path, seed_override=seed)
    try:
        found = read_throughput(job_dir / "search_throughput.csv")
    except (OSError, KeyError, ValueError) as exc:
        add(checks, "search_throughput.csv", False, str(exc))
        return
    for label, params in cfg.sweep_points():
        name = f"search_thresholds_{label}.txt" if label else "search_thresholds.txt"
        try:
            rho_from_policy(read_threshold_policy(job_dir / name, params), params)
            add(checks, f"threshold form {name}", True)
        except (OSError, ParameterError, KeyError, IndexError) as exc:
            add(checks, f"threshold form {name}", False, str(exc))
        init = run_episodes(_initial_search_policy(cfg, params), params,
                            cfg.search.episodes, cfg.search.horizon,
                            cfg.search.seed).mean_bits_per_slot
        key = f"search,{float(params.energy_pmf[-1])!r},{float(params.tau)!r}"
        final = found.get(key, (float("-inf"), 0.0))[0]
        add(checks, f"search improves {key}", final >= init - 1e-12,
            f"{final:.5f} vs initial {init:.5f}")


def run_checks(workload, size: str, seed: int, out_dir: Path, exit_codes,
               outputs) -> tuple:
    """(checks, artifacts_changed) for one run's output directory.

    Each check is (name, passed, detail).  artifacts_changed counts the
    artifacts whose digest differs from the one recorded for this seed; it
    is 0 when no digest was recorded for the seed.
    """
    ref = load_reference()[size][workload.name]
    checks = []
    for i, ((cmd, cfg_path), rc) in enumerate(zip(workload.jobs_for(size),
                                                  exit_codes)):
        job_dir = out_dir / f"job{i}"
        want = ref["verify_exit"] if cmd == "verify" else 0
        add(checks, f"exit {cmd} {cfg_path}", rc == want, f"{rc} (want {want})")
        if cmd in ("export-regions", "solve"):
            _check_grids(checks, job_dir, cfg_path, ref["grids"])
        elif cmd == "verify":
            _check_verify(checks, outputs[i], ref)
        elif cmd == "simulate":
            _check_throughput(checks, job_dir, ref)
        elif cmd == "search":
            _check_search(checks, job_dir, cfg_path, seed)
    want = ref["digests"].get("*" if not workload.seeded else str(seed))
    changed = 0
    if want is not None:
        got = artifact_digests(out_dir)
        changed = sum(got.get(k) != v for k, v in want.items()) \
            + len(set(got) - set(want))
    return checks, changed


def policy_bits_per_slot(workload, size: str, seed: int, out_dir: Path) -> float:
    """Long-run bits/slot of the policies a run produced, on a held-out seed.

    Region workloads score the policy in each region CSV, `search` the
    searched thresholds, and `throughput` the optimal policy per sweep
    point, solved again from its config as the CLI solves it.
    """
    held_out = seed + HELD_OUT_OFFSET
    policies = []
    for i, (cmd, cfg_path) in enumerate(workload.jobs_for(size)):
        job_dir = out_dir / f"job{i}"
        if cmd in ("export-regions", "solve"):
            for name, params, res in region_files(cfg_path):
                table = PolicyTable(
                    actions=read_region_grid(job_dir / name, params, res),
                    grid=BeliefGrid.from_resolution(res), params=params)
                policies.append((encode_rows(table), params))
        elif cmd == "search":
            cfg = load_config(ROOT / cfg_path)
            for label, params in cfg.sweep_points():
                name = f"search_thresholds_{label}.txt" if label \
                    else "search_thresholds.txt"
                policies.append((read_threshold_policy(job_dir / name, params),
                                 params))
        elif cmd == "simulate":
            cfg = load_config(ROOT / cfg_path)
            grid = BeliefGrid.from_resolution(cfg.grid_resolution)
            v_init = None
            for _, params in cfg.sweep_points():
                table = value_iteration(params, grid, tol=cfg.tol,
                                        max_iter=cfg.max_iter, v_init=v_init,
                                        span_tol=cfg.span_tol)
                v_init = table.values
                policies.append((encode_rows(extract_policy(table)), params))
    return float(np.mean([run_episodes(pol, params, EVAL_LANES, EVAL_HORIZON,
                                       held_out).mean_bits_per_slot
                          for pol, params in policies]))
