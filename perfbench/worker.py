"""One benchmark process: set up, run a workload's CLI jobs, check, report.

    python3 perfbench/worker.py rep   --workload W --seed N --size S --out DIR --t-spawn T [--trace]
    python3 perfbench/worker.py probe --workload W --seed N --size S --t-spawn T
    python3 perfbench/worker.py eval  --workload W --seed N --size S --out DIR

`rep` times set-up (process start to configs parsed) and the CLI calls,
times the reference kernel right after, then checks the artifacts; `probe`
sets up and times the kernel; `eval` scores the policies a finished rep left
in DIR.  `run.py` starts these with `src/` first on
PYTHONPATH and prints the aggregate; each prints one JSON line last.
"""
import time  # first, so set-up timing starts as early as possible

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path

from workloads import ROOT, SIZES, WORKLOADS, job_argv


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of work, to gauge the machine's speed.

    The mix resembles the workloads: an interpreter loop, numpy gathers on
    a cache-resident 51x1001 array and on an 801x1001 one beyond L2, and
    float formatting.  It never calls the program, so a change to the
    program cannot move it; changing it rescales every reported time.
    """
    import numpy as np
    t0 = time.perf_counter()
    small = np.linspace(0.0, 1.0, 51 * 1001).reshape(51, 1001)
    big = np.linspace(0.0, 1.0, 801 * 1001).reshape(801, 1001)
    flip = np.arange(1001)[::-1]
    acc = 0
    for _ in range(6):
        for k in range(60_000):
            acc += k & 7
        for _ in range(60):
            s = small[:, flip] * 0.5 + small * 0.5
            np.maximum(s, small, out=s)
        for _ in range(3):
            b = big[:, flip] * 0.5 + big * 0.5
            np.maximum(b, big, out=b)
        for row in small[:12]:
            ",".join(map(repr, row.tolist()))
    return time.perf_counter() - t0


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("rep", "probe", "eval"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=SIZES, default="full")
    p.add_argument("--out", type=Path)
    p.add_argument("--t-spawn", type=float)
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def _import_cli():
    import ehsense.cli
    src = (ROOT / "src").resolve()
    if src not in Path(ehsense.cli.__file__).resolve().parents:
        raise SystemExit(f"ehsense imported from {ehsense.cli.__file__}, "
                         f"not from {src}")
    return ehsense.cli


def _set_up(args, trace):
    """Import the CLI and parse the workload's configs, as a CLI call would."""
    cli = _import_cli()
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    for _, cfg in workload.jobs_for(args.size):
        cli.load_config(ROOT / cfg,
                        seed_override=args.seed if workload.seeded else None)
    return cli, tracer, time.monotonic() - args.t_spawn


def rep(args):
    cli, tracer, setup_s = _set_up(args, args.trace)
    workload = WORKLOADS[args.workload]
    argvs = job_argv(workload, args.size, args.seed, args.out)
    exit_codes, outputs = [], []
    t0 = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                exit_codes.append(cli.main(argv))
            else:
                with tracer.span("cli.main"):
                    exit_codes.append(cli.main(argv))
        outputs.append(buf.getvalue())
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = list(tracer.spans) if tracer is not None else None  # not the checks'
    kernel_s = reference_kernel()

    import checks
    found, changed = checks.run_checks(workload, args.size, args.seed, args.out,
                                       exit_codes, outputs)
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "kernel_s": kernel_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": found, "artifacts_changed": changed,
        "bytes_written": sum(p.stat().st_size for p in args.out.rglob("*")
                             if p.is_file()),
    }
    if spans is not None:
        from spans import layer_metrics
        result["spans"] = spans
        result["layers"] = layer_metrics(spans)
    return result


def probe(args):
    setup_s = _set_up(args, False)[2]
    return {"setup_s": setup_s, "kernel_s": reference_kernel()}


def evaluate(args):
    _import_cli()
    import checks
    return {"policy_bits_per_slot": checks.policy_bits_per_slot(
        WORKLOADS[args.workload], args.size, args.seed, args.out)}


def main(argv=None):
    args = _parse(argv)
    result = {"rep": rep, "probe": probe, "eval": evaluate}[args.mode](args)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
