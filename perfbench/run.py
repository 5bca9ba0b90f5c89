"""The ehsense benchmark.

    python3 perfbench/run.py --workload regions --seed 1 --seconds 25 --trace 0

Run from a source checkout (the program is imported from its `src/`).  Each
repetition of the workload runs in a fresh process (`worker.py rep`), right
after a set-up-only process (`worker.py probe`); reps continue until
--seconds are used, then a few more probes add set-up samples and, without
tracing, one process scores the produced policies on a held-out seed.  Every rep's artifacts are checked against the
references in `reference.json`.  Medians over reps are reported.

Times are reported in reference-speed seconds.  On a shared 2-vCPU KVM
guest (Intel Xeon, 2 MiB L2 per core) the speed changed by up to half for
tens of seconds at a time, so every process also times a fixed kernel (`worker.reference_kernel`), and a
measured time t becomes t * REFERENCE_KERNEL_S / kernel time.  A set-up
time is scaled by its own process's kernel time, a rep's wall time by the
mean of the kernel times just before it (in its probe) and just after it.
The measured times are printed and saved as well.

With --trace 1, untraced and traced reps alternate: the traced ones give
the per-layer metrics (from spans recorded around each module's entry
points) and the difference of the median walls is the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Full results, with the environment and the spans, go to
`.perfbench_runs/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

from workloads import ROOT, SIZES, WORKLOADS

MIN_REPS = 2
REFERENCE_KERNEL_S = 0.5  # the kernel's time at reference speed
SETUP_PROBES = 2         # after the reps, each of which has its own probe
DEADLINE_S = 170          # the whole run, children included, ends before this
RUNS_DIR = ROOT / ".perfbench_runs"
WORKER = Path(__file__).resolve().parent / "worker.py"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "policy_bits_per_slot": "bits/slot"}
LAYER_UNITS = {
    "config.load_s": "s",
    "solver.value_iteration_s": "s", "solver.calls": "count",
    "solver.sweeps": "count", "solver.ms_per_sweep": "ms",
    "solver.cells": "count", "solver.bytes_per_sweep": "B_computed",
    "policies.extract_s": "s",
    "simulate.run_s": "s", "simulate.calls": "count",
    "simulate.lane_slots": "count", "simulate.ns_per_lane_slot": "ns",
    "simulate.us_per_slot_step": "us",
    "search.run_s": "s", "search.self_s": "s", "search.evaluations": "count",
    "search.accepted": "count", "search.accept_ratio": "ratio",
    "search.ms_per_evaluation": "ms",
    "oracle.compare_s": "s", "oracle.checks_s": "s",
    "oracle.exact_values": "count",
    "cli.write_s": "s", "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s", "cli.self_s": "s",
    "cli.artifacts_changed": "count",
    "trace.overhead_s": "s",
}


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def environment(nproc: int, threads: str) -> dict:
    """Machine and software record; caches and CPU are read, never changed."""
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    return {"git_sha": sha, "nproc": nproc, "cpu_model": cpu,
            "l2": caches.get("L2", "unknown"), "l3": caches.get("L3", "unknown"),
            "python": platform.python_version(), "numpy": version("numpy"),
            "blas_omp_threads": threads}


class Runner:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, args, tmp: Path, env: dict):
        self.args = args
        self.tmp = tmp
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, mode: str, *extra) -> dict:
        a = self.args
        cmd = [sys.executable, str(WORKER), mode, "--workload", a.workload,
               "--seed", str(a.seed), "--size", a.size, *extra]
        if mode != "eval":
            cmd += ["--t-spawn", repr(time.monotonic())]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n"
                               f"{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args, runner: Runner) -> dict:
    reps, traced, probes = [], [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        is_traced = bool(args.trace) and len(reps) % 2 == 1
        probes.append(runner.worker("probe"))
        out = runner.tmp / f"rep{len(reps) + len(traced)}"
        result = runner.worker("rep", "--out", str(out),
                               *(["--trace"] if is_traced else []))
        result["kernel_s"] = (result["kernel_s"] + probes[-1]["kernel_s"]) / 2
        (traced if is_traced else reps).append(result)
        longest = max(longest, time.monotonic() - t0)
        if (len(reps) + len(traced) >= MIN_REPS
                and time.monotonic() - start + longest > args.seconds):
            break
        shutil.rmtree(out)  # before the next rep, so its pages are not flushed then
    probes += [runner.worker("probe") for _ in range(SETUP_PROBES)]
    score = None if args.trace else runner.worker("eval", "--out", str(out))
    return {"reps": reps, "traced": traced, "probes": probes, "score": score}


def measured(samples: dict) -> dict:
    """Medians of the measured times, before scaling to reference speed."""
    timed = samples["reps"] + samples["traced"] + samples["probes"]
    return {"setup_s": statistics.median(r["setup_s"] for r in timed),
            "wall_s": statistics.median(r["wall_s"] for r in samples["reps"]),
            "kernel_s": statistics.median(r["kernel_s"] for r in timed)}


def scaled(samples, key: str) -> float:
    """Median of key * REFERENCE_KERNEL_S / kernel_s over the samples."""
    return statistics.median(r[key] * REFERENCE_KERNEL_S / r["kernel_s"]
                             for r in samples)


def end_to_end(samples: dict) -> dict:
    reps = samples["reps"]
    return {
        "setup_s": scaled(reps + samples["probes"], "setup_s"),
        "wall_s": scaled(reps, "wall_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "policy_bits_per_slot": samples["score"]["policy_bits_per_slot"],
    }


def per_layer(samples: dict) -> dict:
    traced = samples["traced"]
    layers = {k: statistics.median(t["layers"][k] for t in traced)
              for k in traced[0]["layers"]}
    layers["cli.bytes_written"] = traced[-1]["bytes_written"]
    layers["cli.artifacts_changed"] = max(r["artifacts_changed"]
                                          for r in samples["reps"] + traced)
    layers["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced)
        - statistics.median(r["wall_s"] for r in samples["reps"]))
    return layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1].strip())
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="tiny swaps in the smoke-test configs")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ehsense" / "cli.py").is_file():
        print(f"no ehsense source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    missing = [cfg for _, cfg in WORKLOADS[args.workload].jobs_for(args.size)
               if not (ROOT / cfg).is_file()]
    if missing:
        print(f"missing configs: {missing}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = str(nproc)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    record = environment(nproc, threads)

    RUNS_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        samples = run(args, Runner(args, tmp, env))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    checks = [c for r in samples["reps"] + samples["traced"] for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    if args.trace:
        values, units = per_layer(samples), LAYER_UNITS
    else:
        values, units = end_to_end(samples), END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"reps {len(samples['reps'])} untraced, {len(samples['traced'])} traced, "
          f"{len(samples['probes'])} set-up probes")
    for key, value in record.items():
        print(f"  env {key}: {value}")
    for c in failed:
        print(f"  FAILED CHECK {c[0]}: {c[2]}")
    print(f"  checks_failed_frac {len(failed) / len(checks):.6g} "
          f"({len(failed)} of {len(checks)})")
    for name, value in measured(samples).items():
        print(f"  measured {name:19s} {value:.6g} s")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(RUNS_DIR / name, "w") as f:
        json.dump({"args": vars(args), "env": record, "metrics": metrics,
                   "samples": samples}, f)
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
