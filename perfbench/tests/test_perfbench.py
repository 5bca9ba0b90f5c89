"""Tests of the benchmark itself: BENCHMARK.json, the result line, the
checks and the span arithmetic.  Run with `python3 -m pytest perfbench/tests`.
"""
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import pytest

import checks
from run import END_TO_END_UNITS, LAYER_UNITS
from spans import layer_metrics
from workloads import BENCH_DIR, ROOT, WORKLOADS, job_argv

from ehsense.cli import main as cli_main

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def test_benchmark_json_matches_the_benchmark():
    spec = benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == END_TO_END_UNITS
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in e2e.values())
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == LAYER_UNITS
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u in list(layers.values()) + list(END_TO_END_UNITS.values()))


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_a_correct_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    saved = json.loads((ROOT / ".perfbench_runs" /
                        f"{workload}-seed5-trace{trace}-tiny.json").read_text())
    assert {"git_sha", "nproc", "cpu_model", "l2", "l3", "python", "numpy",
            "blas_omp_threads"} <= set(saved["env"])
    if trace:
        spans = [s for t in saved["samples"]["traced"] for s in t["spans"]]
        assert spans and all(len(s) == 6 for s in spans)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regions", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def run_tiny(name, tmp_path, seed=5):
    workload = WORKLOADS[name]
    codes, outputs = [], []
    for argv in job_argv(workload, "tiny", seed, tmp_path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli_main(argv))
        outputs.append(buf.getvalue())
    return workload, codes, outputs


def failing(workload, tmp_path, codes, outputs, seed=5):
    found, _ = checks.run_checks(workload, "tiny", seed, tmp_path, codes, outputs)
    return [name for name, ok, _ in found if not ok]


def test_corrupted_region_grid_fails_its_check(tmp_path):
    workload, codes, outputs = run_tiny("regions", tmp_path)
    assert failing(workload, tmp_path, codes, outputs) == []
    path = tmp_path / "job1" / "regions_q0.2.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = lines[2 + 30 * 101 + 100]            # battery 30, belief 1.0
    lines[2 + 30 * 101 + 100] = row[:-2] + ("0" if row[-2] != "0" else "4") + "\n"
    path.write_text("".join(lines))
    assert failing(workload, tmp_path, codes, outputs) == ["grid job1/regions_q0.2.csv"]


def test_unexpected_verify_outcome_fails_its_check(tmp_path):
    workload, codes, outputs = run_tiny("regions", tmp_path)
    outputs[3] = outputs[3].replace("FAIL battery_gap_bound", "PASS battery_gap_bound")
    assert failing(workload, tmp_path, codes, outputs) == ["verify outcome"]


def test_corrupted_throughput_mean_fails_its_check(tmp_path):
    workload, codes, outputs = run_tiny("throughput", tmp_path)
    assert failing(workload, tmp_path, codes, outputs) == []
    path = tmp_path / "job0" / "throughput.csv"
    text = path.read_text().splitlines(keepends=True)
    cells = text[2].split(",")
    cells[3] = repr(float(cells[3]) + 0.5)
    text[2] = ",".join(cells)
    path.write_text("".join(text))
    assert failing(workload, tmp_path, codes, outputs) == [f"throughput {','.join(cells[:3])}"]


def test_searched_policy_out_of_threshold_form_fails_its_check(tmp_path):
    workload, codes, outputs = run_tiny("search", tmp_path)
    assert failing(workload, tmp_path, codes, outputs) == []
    path = tmp_path / "job0" / "search_thresholds.txt"
    text = re.sub(r"battery=50: .*", "battery=50: [0,0.5)->H | [0.5,1]->D",
                  path.read_text())
    path.write_text(text)
    assert failing(workload, tmp_path, codes, outputs) == \
        ["threshold form search_thresholds.txt"]


def test_layer_self_times_come_from_spans():
    spans = [
        [0, "cli.main", 0.0, 12.0, None, {}],
        [1, "search.search_thresholds", 1.0, 11.0, 0,
         {"evaluations": 4, "accepted": 1}],
        [2, "simulate.run_episodes", 2.0, 4.0, 1, {"lane_slots": 100, "horizon": 10}],
        [3, "simulate.run_episodes", 5.0, 9.0, 1, {"lane_slots": 100, "horizon": 10}],
        [4, "cli.write_text", 11.0, 11.5, 0, {"bytes": 1_000_000}],
    ]
    m = layer_metrics(spans)
    assert m["search.run_s"] == 10.0 and m["search.self_s"] == 4.0
    assert m["simulate.run_s"] == 6.0 and m["simulate.calls"] == 2
    assert m["simulate.ns_per_lane_slot"] == pytest.approx(6.0 / 200 * 1e9)
    assert m["simulate.us_per_slot_step"] == pytest.approx(6.0 / 20 * 1e6)
    assert m["search.accept_ratio"] == 0.25
    assert m["search.ms_per_evaluation"] == 2500.0
    assert m["cli.write_s"] == 0.5 and m["cli.write_mb_per_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(1.5)
