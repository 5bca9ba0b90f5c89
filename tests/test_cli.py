import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import ehsense
from ehsense import BeliefGrid, StructureViolationError, compare_with_solver
from ehsense.cli import _solver, build_parser, main
from ehsense.config import (KNOWN_POLICIES, ConfigError, SimSettings,
                            load_config, parse_config)
from ehsense.model import SystemParams

REPO = Path(__file__).resolve().parents[1]


def small_config(**overrides):
    cfg = {
        "model": {
            "lambda0": 0.3, "lambda1": 0.8, "energy_pmf": {0: 0.5, 2: 0.5},
            "b_max": 6, "e_tx": 2, "e_sense": 1, "r_low": 0.0, "r_high": 1.0,
            "beta": 0.9,
        },
        "grid": {"resolution": 201},
        "solver": {"tol": 1e-8},
        "simulation": {"episodes": 2, "horizon": 300, "seed": 11},
        "policies": ["optimal", "greedy", "single_threshold", "opportunistic"],
        "output_dir": "out",
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def _two_point(p0, top, q):
    """A harvest pmf with mass p0 at 0 and q at `top`."""
    return (p0,) + (0.0,) * (top - 1) + (q,)


def _bench_model(p0, q):
    return SystemParams(0.2, 0.8, _two_point(p0, 10, q), 50, 10, 1, 0.0, 2.0,
                        0.999)


def _sweep_model(e_sense):
    return SystemParams(0.4, 0.8, _two_point(0.2, 10, 0.8), 50, 10, e_sense,
                        0.0, 3.0, 0.9)


_REGIONS_MODEL = SystemParams(0.6, 0.9, _two_point(0.9, 10, 0.1), 50, 10, 2,
                              0.0, 3.0, 0.98)
_TWO_RATE_MODEL = SystemParams(0.81, 0.98, _two_point(0.9, 201, 0.1), 800,
                               200, 7, 2.91, 3.0, 0.7)
_SEED = 20240601
_BENCH_ORDER = ("optimal", "single_threshold", "greedy", "opportunistic")
_SPAN_STOP = {"tol": 1e-5, "span_tol": 1e-6}

# sim: SimSettings' fields in order; search: episodes, horizon, seed,
# max_passes and candidates
SHIPPED_DEFAULTS = {
    "grid_resolution": 1001, "tol": 1e-9, "max_iter": None, "span_tol": None,
    "sim": (30, 100_000, 0), "search": (16, 3000, 0, 2, None),
    "policies": KNOWN_POLICIES, "sweep_q": (), "sweep_tau": ()}
# path: (config_hash, the settings that differ from SHIPPED_DEFAULTS)
SHIPPED_CONFIGS = {
    "configs/policy_regions.yaml": ("37bc97c45e59", {
        "model": _REGIONS_MODEL, "output_dir": "out/policy_regions"}),
    "configs/regions_harvest_sweep.yaml": ("223f243cf8f6", {
        "model": _sweep_model(1), "sweep_q": (0.8, 0.2),
        "output_dir": "out/harvest_sweep"}),
    "configs/regions_sense_cost_sweep.yaml": ("4774928f6ada", {
        "model": _sweep_model(2), "sweep_tau": (0.2, 0.3),
        "output_dir": "out/sense_cost_sweep"}),
    "configs/throughput_benchmark.yaml": ("3304852af9a5", {
        "model": _bench_model(0.9, 0.1), **_SPAN_STOP,
        "sim": (30, 100_000, _SEED),
        "search": (12, 3000, _SEED, 2, None), "policies": _BENCH_ORDER,
        "sweep_q": (0.1, 0.3, 0.5, 0.7, 0.9), "output_dir": "out/throughput"}),
    "configs/two_rate_regions.yaml": ("372c75e2e157", {
        "model": _TWO_RATE_MODEL, "output_dir": "out/two_rate"}),
    "perfbench/configs/search.yaml": ("0f44d0bccd5f", {
        "model": _bench_model(0.7, 0.3), **_SPAN_STOP,
        "sim": (30, 100_000, _SEED),
        "search": (12, 500, _SEED, 1, [0.2, 0.4, 0.6, 0.8]),
        "output_dir": "out/search"}),
    "perfbench/configs/throughput.yaml": ("4e27f060e6d6", {
        "model": _bench_model(0.9, 0.1), **_SPAN_STOP,
        "sim": (30, 4000, _SEED),
        "search": (16, 3000, _SEED, 2, None), "policies": _BENCH_ORDER,
        "sweep_q": (0.1, 0.3, 0.5, 0.7, 0.9), "output_dir": "out/throughput"}),
    "perfbench/configs/tiny/policy_regions.yaml": ("32f3803894c5", {
        "model": _REGIONS_MODEL, "grid_resolution": 101,
        "output_dir": "out/tiny"}),
    "perfbench/configs/tiny/regions_harvest_sweep.yaml": ("8a8a8f30084f", {
        "model": _sweep_model(1), "grid_resolution": 101, "sweep_q": (0.8, 0.2),
        "output_dir": "out/tiny"}),
    "perfbench/configs/tiny/regions_sense_cost_sweep.yaml": ("7be5a725639c", {
        "model": _sweep_model(2), "grid_resolution": 101,
        "sweep_tau": (0.2, 0.3), "output_dir": "out/tiny"}),
    "perfbench/configs/tiny/search.yaml": ("c9e91a37f98a", {
        "model": _bench_model(0.7, 0.3), "grid_resolution": 101, **_SPAN_STOP,
        "sim": (30, 100_000, _SEED),
        "search": (4, 100, _SEED, 1, [0.3, 0.7]), "output_dir": "out/tiny"}),
    "perfbench/configs/tiny/throughput.yaml": ("cd50f60fd393", {
        "model": _bench_model(0.9, 0.1), "grid_resolution": 101, **_SPAN_STOP,
        "sim": (8, 300, _SEED),
        "search": (16, 3000, _SEED, 2, None), "policies": _BENCH_ORDER,
        "sweep_q": (0.3, 0.7), "output_dir": "out/tiny"}),
    "perfbench/configs/tiny/two_rate_regions.yaml": ("b8f8ecf32876", {
        "model": _TWO_RATE_MODEL, "grid_resolution": 51,
        "output_dir": "out/tiny"}),
}


class TestConfigParsing:
    def test_pmf_map_and_list_equivalent(self):
        a = parse_config(small_config())
        listed = small_config()
        listed["model"]["energy_pmf"] = [0.5, 0.0, 0.5]
        b = parse_config(listed)
        assert a.model == b.model

    def test_seed_override_changes_hash(self):
        a = parse_config(small_config())
        b = parse_config(small_config(), seed_override=999)
        assert b.sim.seed == 999
        assert a.config_hash != b.config_hash

    def test_sweep_points_rebuild_pmf(self):
        cfg = parse_config(small_config(sweep={"q": [0.25, 0.75]}))
        points = cfg.sweep_points()
        assert [label for label, _ in points] == ["q0.25", "q0.75"]
        assert points[0][1].energy_pmf[2] == pytest.approx(0.25)
        assert points[1][1].energy_pmf[0] == pytest.approx(0.25)

    def test_tau_sweep_rescales_sense_cost(self):
        cfg = parse_config(small_config(sweep={"tau": [0.5]}))
        (_, params), = cfg.sweep_points()
        assert params.e_sense == 1

    def test_fractional_sense_cost_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(small_config(sweep={"tau": [0.3]}))  # 0.6 units

    @pytest.mark.parametrize("mutate", [
        lambda c: c["model"].pop("energy_pmf"),
        lambda c: c["model"].update(beta=1.5),
        lambda c: c.update(policies=["optimal", "mystery"]),
        lambda c: c.update(sweep={"q": []}),
        lambda c: c["solver"].update(tol=-1),
        lambda c: c.update(search={"episodes": 0}),
        lambda c: c.update(search={"candidates": [0.5, 1.5]}),
        lambda c: c["simulation"].update(horizon=0),
        lambda c: c["simulation"].update(episodes=-1),
        lambda c: c["simulation"].update(seed=0.5),
        lambda c: c.update(simulation=5),
        lambda c: c.update(search={"episodes": -2, "horizon": -3}),
        lambda c: c["grid"].update(resolution="abc"),
        lambda c: c["grid"].update(resolution=51.7),
        lambda c: c["solver"].update(tol="abc"),
        lambda c: c["solver"].update(max_iter=0),
        lambda c: c["solver"].update(span_tol=-1),
        lambda c: c.update(search={"max_passes": 0}),
        lambda c: c.update(search={"max_passes": -3}),
        lambda c: c.update(sweep={"q": ["abc"]}),
        lambda c: c.update(sweep={"tau": ["abc"]}),
        lambda c: c.update(sweep={"q": 0.3}),
        lambda c: c.update(solver={"tolerance": 1e-3}),
        lambda c: c.update(grid={"resolutoin": 11}),
        lambda c: c.update(sweep={"qs": [0.3]}),
        lambda c: c.update(polices=["greedy"]),
        lambda c: c["model"].update(energy_pmf=[float("nan"), 1.0]),
        lambda c: c["model"].update(energy_pmf={0: 0.5, 1.7: 0.5}),
        lambda c: c["model"].update(energy_pmf={0: 0.5, float("inf"): 0.5}),
        lambda c: c["model"].update(r_high=float("inf")),
        lambda c: c["model"].update(b_max=float("nan")),
        lambda c: c["model"].update(b_max=float("inf")),
        lambda c: c["model"].update(b_max="abc"),
        lambda c: c.update(sweep={"q": [float("nan")]}),
        lambda c: c.update(sweep={"tau": [float("nan")]}),
        lambda c: c.update(sweep={"tau": [float("inf")]}),
        lambda c: c["solver"].update(tol=float("inf")),
        lambda c: c["solver"].update(span_tol=float("inf")),
        lambda c: c.update(search={"candidates": [0.5, float("nan")]}),
        lambda c: c.update(policies=None),
        lambda c: c.update(policies=5),
        lambda c: c.update(policies="greedy"),
        lambda c: c["model"].update(energy_pmf=["a", "b"]),
        lambda c: c["model"].update(energy_pmf={}),
        lambda c: c.update(sweep={"q": [0.3, 0.3]}),
        lambda c: c.update(sweep={"q": [0.3, 0.3000001]}),
        lambda c: c.update(sweep={"tau": [0.5, 0.5]}),
        lambda c: (c["model"].update(energy_pmf=[1.0]),
                   c.update(sweep={"q": [0.3]})),
        lambda c: c.update(output_dir=None),
        lambda c: c.update(output_dir=5),
        lambda c: c.update(output_dir=["a"]),
        lambda c: c.update(policies=[]),
        lambda c: c.update(grid=5),
        lambda c: c["model"].update(energy_pmf=5),
        lambda c: c["model"].update(energy_pmf={-1: 1.0}),
        lambda c: c["simulation"].update(episodes=0),
        lambda c: c.pop("model"),
        lambda c: c["model"].update(e_sense=True),
    ])
    def test_bad_configs_rejected(self, mutate):
        cfg = small_config()
        mutate(cfg)
        with pytest.raises(ConfigError):
            parse_config(cfg)

    @pytest.mark.parametrize("section", ["simulation", "search"])
    @pytest.mark.parametrize("field, value", [
        ("seed", "abc"), ("episodes", 2.5), ("horizon", "300"),
        ("episodes", True)])
    def test_badly_typed_integer_exits_at_parse(self, tmp_path, capsys,
                                                section, field, value):
        cfg = small_config()
        cfg.setdefault(section, {})[field] = value
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{section}.{field}" in err
        assert not out.exists()  # failed before any solve

    @pytest.mark.parametrize("name, value", [
        ("b_max", "6"), ("e_tx", "2.0"), ("e_sense", "abc"), ("b_max", 6.5)])
    def test_badly_typed_energy_count_exits_at_parse(self, tmp_path, capsys,
                                                    name, value):
        cfg = small_config()
        cfg["model"][name] = value
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"config error: invalid model: {name} must be an integer number "
            f"of energy units, got {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("mutate, field", [
        (lambda c: c["solver"].update(tol=True), "solver.tol"),
        (lambda c: c["model"].update(energy_pmf={0: False, 2: True}),
         "model.energy_pmf[0]"),
        (lambda c: c["model"].update(energy_pmf={0: 0.5, True: 0.5}),
         "model.energy_pmf arrival level"),
        (lambda c: c.update(search={"candidates": [True, 0.5]}),
         "search.candidates"),
    ])
    def test_bool_where_a_number_is_expected_exits_at_parse(
            self, tmp_path, capsys, mutate, field):
        cfg = small_config()
        mutate(cfg)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {field} must be")
        assert not out.exists()

    def test_resolution_beyond_the_ceiling_exits_at_parse(self, tmp_path, capsys):
        cfg = small_config(grid={"resolution": 10**24})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["export-regions", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: grid.resolution must be an integer >= 2 and "
            "<= 1000000, got 1000000000000000000000000\n")
        assert not out.exists()

    def test_arrival_level_beyond_the_ceiling_exits_at_parse(self, tmp_path,
                                                             capsys):
        # checked before the pmf list is built, so no OverflowError
        cfg = small_config()
        cfg["model"]["energy_pmf"] = {0: 0.9, 10**24: 0.1}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["export-regions", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: model.energy_pmf arrival level must be an integer "
            ">= 0 and <= 1000000, got 1000000000000000000000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", [10**24, 1.0e30], ids=["int", "float"])
    def test_energy_count_beyond_the_ceiling_exits_at_parse(self, tmp_path,
                                                            capsys, value):
        # numpy can neither hold the int (the integral rule's isfinite) nor
        # allocate tables for the float
        cfg = small_config()
        cfg["model"]["b_max"] = value
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["export-regions", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"config error: model.b_max must be at most 1000000 energy units "
            f"in magnitude, got {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("g0", 0.5), ("initial_battery", 0), ("initial_belief", 0.5)])
    def test_start_override_is_an_unknown_key(self, tmp_path, capsys, key,
                                              value):
        # every episode starts at battery 0 with the stationary belief
        path = write_config(tmp_path, small_config(simulation={key: value}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"config error: unknown keys ['{key}'] in section 'simulation'; "
            f"valid: ['episodes', 'horizon', 'seed']\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "search"])
    def test_channel_that_never_changes_state_exits_at_parse(
            self, tmp_path, capsys, command):
        # lambda0 = 0, lambda1 = 1 has no stationary belief, the start
        # belief of verify's oracle and of the search's episodes
        cfg = small_config()
        cfg["model"].update(lambda0=0.0, lambda1=1.0)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: invalid model: no stationary belief: "
            "lambda1 - lambda0 == 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["episodes", "horizon", "max_passes"])
    def test_search_range_error_names_the_field(self, field):
        with pytest.raises(ConfigError, match=rf"^search\.{field} must be an "
                                              rf"integer >= 1, got 0$"):
            parse_config(small_config(search={field: 0}))

    @pytest.mark.parametrize("section", [
        "model", "grid", "solver", "simulation", "search", "sweep"])
    def test_unknown_key_is_named_with_its_section(self, section):
        cfg = small_config()
        cfg[section] = dict(cfg.get(section) or {}, episdoes=3)
        with pytest.raises(ConfigError, match=rf"^unknown keys \['episdoes'\] "
                                              rf"in section '{section}'; valid: "):
            parse_config(cfg)

    def test_missing_model_key_is_named(self):
        cfg = small_config()
        del cfg["model"]["beta"], cfg["model"]["energy_pmf"]
        with pytest.raises(ConfigError, match=r"^missing keys \['energy_pmf', "
                                              r"'beta'\] in section 'model'$"):
            parse_config(cfg)

    def test_numeric_string_reads_as_its_number(self):
        # YAML reads 1e-9, which has no dot, as a string
        tol = parse_config(small_config(solver={"tol": "1e-9"})).tol
        assert type(tol) is float and tol == 1e-9

    def test_null_is_a_key_left_out(self):
        nulls = small_config(grid={"resolution": None},
                             solver={"tol": None, "max_iter": None},
                             simulation={"episodes": None, "seed": None},
                             search={"seed": None, "candidates": None},
                             sweep={"q": None})
        bare = small_config(grid={}, solver={}, simulation={}, search={},
                            sweep={})
        a, b = parse_config(nulls), parse_config(bare)
        assert (a.grid_resolution, a.tol, a.sim, a.search.seed, a.sweep_q) \
            == (b.grid_resolution, b.tol, b.sim, b.search.seed, b.sweep_q)

    def test_exponent_form_model_floats_read_as_numbers(self, tmp_path):
        dotted = small_config()
        dotted["model"]["lambda0"] = 0.6
        text = yaml.safe_dump(dotted)
        for number, exponent in [("lambda0: 0.6", "lambda0: 6e-1"),
                                 ("lambda1: 0.8", "lambda1: 8e-1"),
                                 ("r_low: 0.0", "r_low: 0e0"),
                                 ("r_high: 1.0", "r_high: 1e0"),
                                 ("beta: 0.9", "beta: 9e-1")]:
            assert number in text
            text = text.replace(number, exponent)
        assert yaml.safe_load(text)["model"]["lambda0"] == "6e-1"  # no dot
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert load_config(path).model == parse_config(dotted).model

    @pytest.mark.parametrize("name, value", [
        ("lambda0", "abc"), ("lambda1", None), ("r_low", [0.0]),
        ("r_high", True), ("beta", {"x": 1})])
    def test_non_number_model_float_names_its_field(self, name, value):
        cfg = small_config()
        cfg["model"][name] = value
        with pytest.raises(ConfigError, match=rf"^model\.{name} must be a number"):
            parse_config(cfg)

    def test_repeated_policy_exits_at_parse(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(policies=["greedy", "greedy"]))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: policies must not repeat a name")
        assert not out.exists()

    @pytest.mark.parametrize("policies", [None, 5, "greedy"])
    def test_policies_must_be_a_list(self, tmp_path, capsys, policies):
        path = write_config(tmp_path, small_config(policies=policies))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: policies must be a list of names")

    @pytest.mark.parametrize("path", sorted(
        p.relative_to(REPO).as_posix() for d in ("configs", "perfbench/configs")
        for p in (REPO / d).rglob("*.yaml")))
    def test_shipped_configs_parse(self, path):
        """Each shipped config parses to its pinned settings and hash; the
        hash is the first line of every artifact it writes."""
        digest, pinned = SHIPPED_CONFIGS[path]
        want = {**SHIPPED_DEFAULTS, **pinned}
        *search, candidates = want.pop("search")
        cfg = load_config(REPO / path)
        assert cfg.config_hash == digest
        assert cfg.sim == SimSettings(*want.pop("sim"))
        assert {k: getattr(cfg, k) for k in want} == want
        got = cfg.search
        assert [got.episodes, got.horizon, got.seed, got.max_passes] == search
        assert (candidates is None and got.candidates is None
                or np.array_equal(got.candidates, candidates))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_malformed_yaml_exits_at_parse(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("model: [lambda0: 0.3\n")
        assert main(["solve", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: config is not valid YAML")


class TestSolveCommand:
    def test_writes_artifacts_and_exits_zero(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "values.csv").exists()
        assert (out / "regions.csv").exists()
        assert (out / "thresholds.txt").exists()
        header = (out / "regions.csv").read_text().splitlines()
        assert header[0].startswith("# config=")
        assert header[1] == "battery,belief,action"

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg = small_config(solver={"tol": 1e-12, "max_iter": 2})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 2
        assert not out.exists()  # failed before its first artifact

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = small_config()
        cfg["model"]["e_sense"] = 5
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", str(path), "--quiet"]) == 1

    @pytest.mark.parametrize("beta, solver, limit", [
        (0.9, {"tol": 1e-8}, 2e-8),
        (0.999, {"tol": 1e-5, "span_tol": 1e-6}, 1e-6)])
    def test_stop_message_names_the_rule(self, tmp_path, capsys, beta, solver,
                                         limit):
        cfg = small_config(solver=solver)
        cfg["model"]["beta"] = beta
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        found = re.fullmatch(r"solving model \(grid \d+, tol \S+\)\n"
                             r"  converged in \d+ sweeps on \d+ of \d+ belief "
                             r"columns, values within "
                             r"(\d\.\de[-+]\d+) of the fixed point; "
                             r"(\d+) cells have a margin <= "
                             r"(\d\.\de[-+]\d+)\n", out)
        assert found
        # the printed bound, rounded to 2 digits, is beta/(1-beta) * span/2
        assert float(found[1]) <= 1.05 * beta / (1 - beta) * limit / 2
        # the count is of the solve's cells whose margin is at most 2 * bound
        parsed = parse_config(cfg)
        table = _solver(parsed)(parsed.model)
        assert found[1] == f"{table.bound:.1e}"
        assert found[3] == f"{2 * table.bound:.1e}"
        assert int(found[2]) == np.count_nonzero(table.margins <= 2 * table.bound)

    def test_export_regions_only(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "regions_only"
        assert main(["export-regions", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "regions.csv").exists()
        assert not (out / "values.csv").exists()


class TestSimulateCommand:
    def test_throughput_csv_schema(self, tmp_path):
        path = write_config(tmp_path, small_config(sweep={"q": [0.2, 0.6]}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "throughput.csv").read_text().splitlines()
        assert lines[1].split(",")[:5] == ["policy", "q", "tau",
                                           "mean_bits_per_slot", "std_error"]
        assert len(lines) == 2 + 2 * 4  # two sweep points, four policies

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, small_config(sweep={"q": [0.2, 0.6]}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(out1),
                     "--quiet"]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out2),
                     "--quiet"]) == 0
        assert (out1 / "throughput.csv").read_bytes() \
            == (out2 / "throughput.csv").read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "search"])
    def test_seed_parses_where_episodes_are_simulated(self, command):
        args = build_parser().parse_args([command, "--config", "c.yaml",
                                          "--seed", "5"])
        assert args.seed == 5

    @pytest.mark.parametrize("command", ["solve", "export-regions", "verify"])
    def test_seed_is_rejected_where_nothing_is_simulated(self, tmp_path, capsys,
                                                         command):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--out", str(out),
                  "--seed", "5", "--quiet"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_results(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(path), "--out", str(out1), "--quiet"])
        main(["simulate", "--config", str(path), "--out", str(out2), "--seed",
              "4242", "--quiet"])
        assert (out1 / "throughput.csv").read_bytes() \
            != (out2 / "throughput.csv").read_bytes()


class TestSearchCommand:
    TWO_RATE_ERROR = \
        "config error: search requires the single-rate model (r_low = 0)\n"

    def test_search_artifacts(self, tmp_path):
        cfg = small_config()
        cfg["search"] = {"episodes": 2, "horizon": 150, "max_passes": 1,
                         "candidates": [0.3, 0.5, 0.8]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "search"
        assert main(["search", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "search_thresholds.txt").exists()
        assert (out / "search_log.csv").exists()
        assert (out / "search_throughput.csv").exists()

    def test_two_rate_model_rejected(self, tmp_path, capsys):
        cfg = small_config()
        cfg["model"]["r_low"] = 0.5
        path = write_config(tmp_path, cfg)
        out = tmp_path / "search_out"
        assert main(["search", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == self.TWO_RATE_ERROR
        assert not out.exists()

    def test_shipped_two_rate_config_rejected(self, tmp_path, capsys):
        path = REPO / "perfbench/configs/tiny/two_rate_regions.yaml"
        out = tmp_path / "search_out"
        assert main(["search", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == self.TWO_RATE_ERROR
        assert not out.exists()


class TestVerifyCommand:
    def test_verify_reports_each_check(self, tmp_path, capsys):
        # The battery-gap bound genuinely fails on instances like this one
        # (crossing the transmit-feasibility boundary is worth nearly a full
        # high-rate reward, see the bundled notes); verify must report that
        # honestly and exit nonzero while the sound checks pass.
        path = write_config(tmp_path, small_config())
        assert main(["verify", "--config", str(path), "--out",
                     str(tmp_path / "v"), "--quiet"]) == 3
        assert not (tmp_path / "v").exists()  # verify writes no file
        out = capsys.readouterr().out
        assert "PASS oracle_agreement" in out
        assert "PASS convexity_in_belief" in out
        assert "PASS monotone_in_battery" in out
        assert "PASS monotone_in_belief" in out
        assert "FAIL battery_gap_bound" in out
        assert "PASS threshold_structure" in out

    # every shipped config violates the battery-gap claim at each of its
    # points, and the region-plot model the dominance claim too; every other
    # check passes
    KNOWN_FAILURES = {
        "policy_regions": ["battery_gap_bound", "sense_then_transmit_dominance"],
        "regions_harvest_sweep": ["battery_gap_bound"] * 2,
        "regions_sense_cost_sweep": ["battery_gap_bound"] * 2,
        "throughput_benchmark": ["battery_gap_bound"] * 5,
        "two_rate_regions": ["battery_gap_bound"],
    }

    @pytest.mark.parametrize("name", KNOWN_FAILURES)
    def test_shipped_policy_regions_fails_exactly_the_known_checks(self, capsys,
                                                                    name):
        assert main(["verify", "--config",
                     str(REPO / "configs" / f"{name}.yaml")]) == 3
        failed = re.findall(r"FAIL (\w+)", capsys.readouterr().out)
        assert sorted(failed) == self.KNOWN_FAILURES[name]

    def test_shipped_policy_regions_output_is_pinned(self, capsys):
        assert main(["verify", "--config",
                     str(REPO / "configs" / "policy_regions.yaml")]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "PASS oracle_agreement: gap 1.78e-15 (bound 1.20e-01)",
            "[model] PASS convexity_in_belief: worst=-3.435e-10 at "
            "(b=20, p=0.6000) [tolerance -3.0e-06]",
            "[model] PASS monotone_in_battery: worst=0.000e+00 at "
            "(b=1, p=0.0000)",
            "[model] PASS monotone_in_belief: worst=1.851e-05 at "
            "(b=8, p=0.0020)",
            "[model] FAIL battery_gap_bound: worst=-5.912e-01 at "
            "(b=8, p=1.0000) [bound 2.4000]",
            "[model] FAIL sense_then_transmit_dominance: worst=-2.838e-01 at "
            "(b=18, p=1.0000) [floor p*(1-beta)*(1-tau)*r_high, tol 1e-06]",
            "[model] PASS threshold_structure",
        ]

    def test_two_point_grid_skips_convexity(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(grid={"resolution": 2}))
        assert main(["verify", "--config", str(path), "--quiet"]) in (0, 3)
        assert ("[model] PASS convexity_in_belief: worst=0.000e+00 "
                "[skipped: no state to check]"
                in capsys.readouterr().out.splitlines())

    def test_structure_violation_fails_verify_and_solve(self, tmp_path,
                                                        capsys, monkeypatch):
        def violated(policy):
            raise StructureViolationError("battery 3: intervals D|H|D")

        monkeypatch.setattr("ehsense.cli.extract_thresholds", violated)
        path = write_config(tmp_path, small_config())
        assert main(["verify", "--config", str(path), "--quiet"]) == 3
        assert ("[model] FAIL threshold_structure: battery 3: intervals D|H|D"
                in capsys.readouterr().out.splitlines())
        assert main(["solve", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "policy structure violation: battery 3: intervals D|H|D\n")

    def test_search_from_a_row_outside_the_form_exits_3(self, tmp_path, capsys,
                                                        monkeypatch):
        # a one-cell run passes grid extraction, but the codec reads every
        # interval: the row's second OD interval leaves the threshold form
        D, _, OD, _, H = ehsense.Action

        def one_cell_run(policy):
            init = ehsense.extract_thresholds(policy)
            rows = init.rows[:-1] + (ehsense.PolicyRow(
                (0.2, 0.4, 0.6, 0.7, 0.8), (D, OD, D, H, OD, H)),)
            return ehsense.ThresholdPolicy(rows=rows, params=init.params)

        monkeypatch.setattr("ehsense.cli.extract_thresholds", one_cell_run)
        path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["search", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "policy structure violation: battery 6: intervals D|OD|D|H|OD|H "
            "do not fit D|OD|D|H\n")
        assert not out.exists()

    def test_oracle_agreement_checks_the_configs_own_model(self, tmp_path,
                                                           capsys):
        # b_max 12 and r_high 2.0: the bound is 10 * 0.001 * 4 * 2.0
        cfg = small_config()
        cfg["model"].update(b_max=12, r_high=2.0)
        path = write_config(tmp_path, cfg)
        main(["verify", "--config", str(path), "--out", str(tmp_path / "v"),
              "--quiet"])
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if "oracle_agreement" in ln]
        grid = BeliefGrid.from_resolution(1001)
        res = compare_with_solver(parse_config(cfg).model, grid, n=4)
        assert line == (f"PASS oracle_agreement: gap "
                        f"{res.max_abs_gap_vs_solver:.2e} (bound 8.00e-02)")


# SHA-256 of every artifact of `solve`, `simulate` and `search` on
# small_config(), and on a two-point q sweep of it; a change that alters an
# artifact updates its digest here and says why.  search_log.csv: the search
# tries the battery rows the incumbent never visits too (404 -> 884 trial
# rows); none of the added trials is accepted, and every other artifact is
# unchanged.  The threshold texts: interior breakpoints are written with
# repr, not .6g.  The values files: value_iteration iterates only the core
# belief columns and backs up the others once, so the values move within the
# solve's certified bound (no region cell changes).  values_q0.6.csv: every
# sweep point is solved cold, no longer warm-started from the values at
# q0.2, so its values move within the solve's bound (no region cell changes).
# Every values file: its columns became battery, belief, value, margin (the
# best backup minus the runner-up) in place of one Q column per action; the
# first three columns are byte-identical.
ARTIFACT_DIGESTS = {
    "regions.csv": "b8d0d3ebddd84a6fcb332cac74eafccf57c093908b42dc0ac44d920671b65890",
    "search_log.csv": "55bcac50e50d7d0358f8811e8e0793808481ed5a679f1f04ed92c5182be5c68e",
    "search_thresholds.txt": "a0d29ff8ade6557b31c2300f6b5486fb673a5f5f0110df54fc070db127911d87",
    "search_throughput.csv": "d3c7483a542e8f89f31257590ab96bed01afe560412cf5f81858d815be05f7c6",
    "thresholds.txt": "5c06c0139bdfef8d6eaa5108477f1e92b219c8da6e116a45854ba77f10ef4e11",
    "throughput.csv": "d49663a30ab7f51528934461a0d8e26d27bd06116493c078c97efad6770c46e8",
    "values.csv": "021ec758bd781765c1eafff497ed57bc2199bf92914f1e978548fdb41c44fc5a",
}
SWEPT_DIGESTS = {
    "regions_q0.2.csv": "4adbe4996be51e88d62133c37d628145c72851e802f2f8a5e2e1c39818d396f3",
    "regions_q0.6.csv": "8aeb9e6c060174efcbdee331076ad355516a012e05bde6fe4acb9e5402c37be9",
    "search_log_q0.2.csv": "d1805e3d2f317401962fcb90f48ffff6cf374bb8983619a638e057c8a995ee90",
    "search_log_q0.6.csv": "1f8703cc5bddd32235b168c62d2802cc889746b9ec6c2dfa7404db3d67478897",
    "search_thresholds_q0.2.txt": "aa48ce8fcc976ac220bc2b4e5137dc5f71c55050bb9815e11a79d581005f6ccb",
    "search_thresholds_q0.6.txt": "58158d2a2a5fb4b096bcad7347af196d176ef2649a974da82ed12fefa2c9fc73",
    "search_throughput.csv": "43be2a4dab6b377b55aa06bb47a2cd1e3d59aad55f7000a10c48a01b9830b616",
    "thresholds_q0.2.txt": "5999c52eadc47aa45a0263c7352cc79d35aba9a8f01318bca4b0037e8c639ae9",
    "thresholds_q0.6.txt": "83d3a818f36407fe410482bda47555d252dfbfbddfc1bd663c5839ba3b35b375",
    "throughput.csv": "cfd40f6da2d39ceda7cd892ac159fb3142f732495c4841d16262217d27774418",
    "values_q0.2.csv": "37ed5342bdf91a41735ccd7bca50bc2765394c45fbc878587bd9b0e37a75cfc9",
    "values_q0.6.csv": "128228606c25138df2785d370c09bc5006bf283895755f3112d76f2c59ff7da4",
}


# The tau sweeps need a sensing cost that tau * e_tx keeps integral (e_tx
# 10), and a shorter search keeps their runs short.
TAU_CASE = {"model": dict(small_config()["model"], b_max=20, e_tx=10,
                          e_sense=2, energy_pmf={0: 0.5, 10: 0.5}),
            "search": {"horizon": 300, "max_passes": 1}}
TAU_DIGESTS = {
    "regions_tau0.2.csv": "2c15bb7d1985a3a3fa80b9d32af049b3eca777a316d689e9710f352522e94015",
    "regions_tau0.3.csv": "1e315a7e443a9f257001ee5ce887783fcb380b1988dc16b875b4a49e83a7a4cc",
    "search_log_tau0.2.csv": "dc50ca9be060e1a0bd58c3dafeac65355b8d4a111ff2f993b58c85f8cf04c2da",
    "search_log_tau0.3.csv": "2199ced7a71d9f2620601e9ee40e8ff7441153f91d25e4c96b6ab29fa6b3fda6",
    "search_thresholds_tau0.2.txt": "362c88de00df91d13997c1753ed49d575132443d930bab50e6ba454677d08a61",
    "search_thresholds_tau0.3.txt": "a69a32855cf0eedcf7f9b48fd30b8f5d905b0109588b718a98a657f6fb20a8ce",
    "search_throughput.csv": "d1a58dcffeca6f126170955b112e71e32cd8485f6b203a5b1c78f556c7387c74",
    "thresholds_tau0.2.txt": "3fcd1e6b3d48cd769c18b6184ff7896e76936a7cfefd4b87ab954eeb71429700",
    "thresholds_tau0.3.txt": "bd691c5d5b58a279e69715b074d97e4a086b7b61ee629b6198002cbb77f77cec",
    "throughput.csv": "f735802829913e764a2b8bf49afad366648bedfadabb9266521fbf3904f687a3",
    "values_tau0.2.csv": "c88668278e5151696462ee7927f98dd446960f218bdad45f01ae8eabd286352b",
    "values_tau0.3.csv": "42e822cac11b5f694c60763ce34b73332f690ff522e81412978ba00478e6359a",
}
Q_TAU_DIGESTS = {
    "regions_q0.2_tau0.2.csv": "3bcba91faec6c13cf439ad038bba5d5c764b29efe85eaed83727bd20347aad48",
    "regions_q0.2_tau0.3.csv": "2f1a5e86f479a4b4d20e358dde096a975ae95ce0d5cc6ba1f1ff6a13a1f2838d",
    "regions_q0.6_tau0.2.csv": "60d3ead9f7a3363e13793aa95a735a1fa5b7a96c32f139cc8cf3bb0d0c91bcbe",
    "regions_q0.6_tau0.3.csv": "0c2291de33b6f9b176e32051a9578a3e3c91a6da2e1d31887a9e660e871f3104",
    "search_log_q0.2_tau0.2.csv": "d09ec1ac87d9d6f9ac142291e54d676f6093af6bfaf4b6a61e11d18d07b4ecb2",
    "search_log_q0.2_tau0.3.csv": "abe91af5f0a23f8f3171ac5beacd57a45a2c6696ec9b4129b8f8ebc55855de04",
    "search_log_q0.6_tau0.2.csv": "9c1b9b2e84c1c87497418cca611a5e81026bcb1455d4f32aa3dd828de4798632",
    "search_log_q0.6_tau0.3.csv": "f96d1d85e8c18f939279a71b3728944d6a2532ce68094207252138b990b44abd",
    "search_thresholds_q0.2_tau0.2.txt": "8a6effcbce4aea7c59d13dfd053ea8e8ef13ce5b61b17b19e4327cac453a24e8",
    "search_thresholds_q0.2_tau0.3.txt": "c13a1becf70f4859acd0531efa5ddb2ac0620e8b1f2a1cf9ba2606d7ca744238",
    "search_thresholds_q0.6_tau0.2.txt": "0fb926748af787b87c61a9415d9e952f84333ed8852f55559f06f202269ffb2b",
    "search_thresholds_q0.6_tau0.3.txt": "b6825b8d6e86e2aae8ecf2aefbc885fd4243ef00854f7899f767b26c1b542590",
    "search_throughput.csv": "10200a7c5b0f1c8a0874bde919893cfa8d4a5ac8e023001dc4afb7add94368dd",
    "thresholds_q0.2_tau0.2.txt": "9d3801c3946febe1588f9a60d0c7839d0d709988a779b73db159d0693ebd6c95",
    "thresholds_q0.2_tau0.3.txt": "a4308e38b949a71b8e8da238257078a8a186b65e5e95c9710ac467aa5fff72da",
    "thresholds_q0.6_tau0.2.txt": "c7b02fe06d4200a8bb9ae207a7210c8c6cd15338b7b17ea4d4dd7f857a81db23",
    "thresholds_q0.6_tau0.3.txt": "223837897773ebd16787ef66314d5759a4706fad611593fe7265fdb0cc9369a8",
    "throughput.csv": "2dee57f8192e0230769cc43aecb5b2eb0eb028602d7d5c409fe13f07dd861bda",
    "values_q0.2_tau0.2.csv": "01df509418cbc7ab3e60f383ac156019669b76cc878396493f56d7cb808d4eaa",
    "values_q0.2_tau0.3.csv": "00cd18130fb3a13989c49dc610622986d61a7766a41d47287069a021e8e9882c",
    "values_q0.6_tau0.2.csv": "352c5dce2fd5e72127e837f0513e22b5cb80ca3356a14fc9bd7912a301075885",
    "values_q0.6_tau0.3.csv": "0f76d3a3029bcf5c086da5efa3acb5d38e80b8b6667757f660e307cd5fb5f64c",
}


@pytest.mark.parametrize("overrides, digests", [
    ({}, ARTIFACT_DIGESTS),
    ({"sweep": {"q": [0.2, 0.6]}}, SWEPT_DIGESTS),
    (dict(TAU_CASE, sweep={"tau": [0.2, 0.3]}), TAU_DIGESTS),
    (dict(TAU_CASE, sweep={"q": [0.2, 0.6], "tau": [0.2, 0.3]}), Q_TAU_DIGESTS)], ids=["single", "swept", "tau_swept", "q_tau_swept"])
def test_artifact_bytes_are_pinned(tmp_path, overrides, digests):
    path = write_config(tmp_path, small_config(**overrides))
    out = tmp_path / "out"
    for cmd in ("solve", "simulate", "search"):
        assert main([cmd, "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in out.iterdir()}
    assert got == digests


# SHA-256 of `solve`'s artifacts on a two-rate instance (a 51-point copy of
# configs/two_rate_regions.yaml): unlike small_config(), its value table has
# LOW_RATE values, and battery rows of empty margins (one feasible action)
# beside rows of filled ones.
# values.csv moved within the solve's bound when value_iteration began to
# iterate only the core belief columns, and took a margin column in place of
# the Q columns (its first three columns unchanged).
TWO_RATE_DIGESTS = {
    "regions.csv": "a32639df0b0c3de05a4c6d945189736f4ef88b363e0eaf4d379b45ab94cec38f",
    "thresholds.txt": "6780d2f6cf725df6da86aee56bf1c9c97d9d4f35d768e48f21c3073387d907aa",
    "values.csv": "4e0cf5e90725b0b1d7ee6cfc1607ca0b00327ed41dc76de3305818c26f6d89c1",
}


def test_two_rate_artifact_bytes_are_pinned(tmp_path):
    cfg = {
        "model": {"lambda0": 0.81, "lambda1": 0.98,
                  "energy_pmf": {0: 0.9, 201: 0.1}, "b_max": 800, "e_tx": 200,
                  "e_sense": 7, "r_low": 2.91, "r_high": 3.0, "beta": 0.7},
        "solver": {"tol": 1.0e-9},
        "output_dir": "out/tiny",
        "grid": {"resolution": 51},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out),
                 "--quiet"]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in out.iterdir()}
    assert got == TWO_RATE_DIGESTS


@pytest.mark.parametrize("command, search", [
    ("solve", {}), ("simulate", {}), ("verify", {}),
    ("search", {"episodes": 2, "horizon": 150, "max_passes": 1}),
    ("search", {"episodes": 2, "horizon": 150, "max_passes": 1,
                "candidates": [0.8, 0.3, 0.5, 0.3]})],
    ids=["solve", "simulate", "verify", "search", "search_candidates"])
def test_commands_do_not_import_numpy_ma(tmp_path, command, search):
    # np.unique and np.union1d import numpy.ma (about 15 ms and 1 MB)
    path = write_config(tmp_path, small_config(search=search))
    code = ("import sys; from ehsense.cli import main; "
            f"main([{command!r}, '--config', {str(path)!r}, '--out', "
            f"{str(tmp_path / 'out')!r}, '--quiet']); "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(ehsense.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "False"
