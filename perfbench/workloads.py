"""Workload definitions: which CLI subcommands run on which configs.

Each workload is one `ehsense.cli.main` call per job, run back to back in a
fresh process; BENCHMARK.json records why each workload was chosen.
`size="tiny"` swaps every config for its counterpart under
`perfbench/configs/tiny/`, for smoke tests; reference values exist for both
sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple          # (subcommand, config path relative to the checkout)
    seeded: bool         # whether --seed reaches the program

    def jobs_for(self, size: str) -> tuple:
        if size == "full":
            return self.jobs
        return tuple((cmd, f"perfbench/configs/tiny/{Path(cfg).name}")
                     for cmd, cfg in self.jobs)


WORKLOADS = {w.name: w for w in (
    Workload("regions",
             (("export-regions", "configs/policy_regions.yaml"),
              ("export-regions", "configs/regions_harvest_sweep.yaml"),
              ("export-regions", "configs/regions_sense_cost_sweep.yaml"),
              ("verify", "configs/policy_regions.yaml")),
             seeded=False),
    Workload("two_rate", (("solve", "configs/two_rate_regions.yaml"),),
             seeded=False),
    Workload("throughput", (("simulate", "perfbench/configs/throughput.yaml"),),
             seeded=True),
    Workload("search", (("search", "perfbench/configs/search.yaml"),),
             seeded=True),
)}


def job_argv(workload: Workload, size: str, seed: int, out_dir: Path) -> list:
    """argv lists for `ehsense.cli.main`, one per job, each job in its own dir.

    Only seeded workloads get --seed: the override enters the config hash,
    so passing it to the others would change their artifacts for nothing.
    """
    argvs = []
    for i, (cmd, cfg) in enumerate(workload.jobs_for(size)):
        argv = [cmd, "--config", str(ROOT / cfg),
                "--out", str(out_dir / f"job{i}"), "--quiet"]
        if workload.seeded:
            argv += ["--seed", str(seed)]
        argvs.append(argv)
    return argvs
