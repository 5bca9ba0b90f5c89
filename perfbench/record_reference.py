"""Record the reference values the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from a checkout of the commit whose outputs are the reference; writes
`perfbench/reference.json`.  For every size and workload it stores the
region action grids (run-length coded), the `verify` outcome, artifact
digests (per seed in REFERENCE_SEEDS for seeded workloads), and for
`throughput` a high-precision run with THROUGHPUT_EPISODE_FACTOR times the
episodes, whose standard errors are small next to a benchmark run's.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import yaml

from ehsense.cli import main as cli_main

from checks import (REFERENCE_PATH, artifact_digests, read_region_grid,
                    read_throughput, region_files, rle_rows)
from workloads import ROOT, SIZES, WORKLOADS, job_argv

REFERENCE_SEEDS = range(10)
THROUGHPUT_SEED = 987_654_321
THROUGHPUT_EPISODE_FACTOR = 20


def _run_jobs(workload, size, seed, out):
    outputs = []
    for argv in job_argv(workload, size, seed, out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv)
        outputs.append((argv[0], rc, buf.getvalue()))
    return outputs


def _throughput_reference(cfg_path: Path, tmp: Path) -> dict:
    data = yaml.safe_load(cfg_path.read_text())
    data["simulation"]["episodes"] *= THROUGHPUT_EPISODE_FACTOR
    big = tmp / "throughput_reference.yaml"
    big.write_text(yaml.safe_dump(data))
    rc = cli_main(["simulate", "--config", str(big), "--out", str(tmp / "ref"),
                   "--seed", str(THROUGHPUT_SEED), "--quiet"])
    if rc != 0:
        raise SystemExit(f"reference simulate exited {rc}")
    return read_throughput(tmp / "ref" / "throughput.csv")


def record_workload(workload, size: str, tmp: Path) -> dict:
    ref = {"grids": {}, "digests": {}}
    seeds = REFERENCE_SEEDS if workload.seeded else [0]
    for seed in seeds:
        out = tmp / f"{workload.name}-{size}-{seed}"
        runs = _run_jobs(workload, size, seed, out)
        ref["digests"][str(seed) if workload.seeded else "*"] = \
            artifact_digests(out)
        if seed != seeds[0]:
            continue
        for i, ((cmd, cfg), (_, rc, text)) in enumerate(
                zip(workload.jobs_for(size), runs)):
            if cmd in ("export-regions", "solve"):
                for name, params, res in region_files(cfg):
                    grid = read_region_grid(out / f"job{i}" / name, params, res)
                    ref["grids"][f"job{i}/{name}"] = rle_rows(grid)
            elif cmd == "verify":
                outcomes = re.findall(r"\b(PASS|FAIL) (\w+)", text)
                ref["verify_exit"] = rc
                ref["verify_checks"] = len(outcomes)
                ref["verify_failures"] = sorted({n for s, n in outcomes
                                                 if s == "FAIL"})
            elif cmd == "simulate":
                ref["throughput"] = _throughput_reference(ROOT / cfg, tmp)
    return ref


def main() -> int:
    reference = {}
    (ROOT / ".perfbench_runs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_runs") as tmp:
        for size in SIZES:
            reference[size] = {}
            for name, workload in WORKLOADS.items():
                print(f"recording {size} {name}", file=sys.stderr)
                reference[size][name] = record_workload(
                    workload, size, Path(tmp) / size)
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
