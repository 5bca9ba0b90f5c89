import hashlib
import re
from pathlib import Path

import pytest
import yaml

from ehsense import BeliefGrid, compare_with_solver
from ehsense.cli import main
from ehsense.config import ConfigError, load_config, parse_config

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
        lambda c: c["simulation"].update(initial_belief=1.5),
        lambda c: c["simulation"].update(g0=-0.3),
        lambda c: c["simulation"].update(initial_battery=7),  # b_max is 6
        lambda c: c["simulation"].update(initial_battery=-1),
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
        cfg = load_config(REPO / path)
        assert isinstance(cfg.output_dir, str) and cfg.output_dir

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")


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
                             r"(\d\.\de[-+]\d+) of the fixed point\n", out)
        assert found
        # the printed bound, rounded to 2 digits, is beta/(1-beta) * span/2
        assert float(found[1]) <= 1.05 * beta / (1 - beta) * limit / 2

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

    def test_seed_override_changes_results(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(path), "--out", str(out1), "--quiet"])
        main(["simulate", "--config", str(path), "--out", str(out2), "--seed",
              "4242", "--quiet"])
        assert (out1 / "throughput.csv").read_bytes() \
            != (out2 / "throughput.csv").read_bytes()


class TestSearchCommand:
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

    def test_two_rate_model_rejected(self, tmp_path):
        cfg = small_config()
        cfg["model"]["r_low"] = 0.5
        path = write_config(tmp_path, cfg)
        out = tmp_path / "search_out"
        assert main(["search", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
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

    def test_shipped_policy_regions_fails_exactly_the_known_checks(self, capsys):
        # the solved region-plot model violates two of the paper's claims;
        # every other check passes
        assert main(["verify", "--config",
                     str(REPO / "configs" / "policy_regions.yaml")]) == 3
        failed = re.findall(r"FAIL (\w+)", capsys.readouterr().out)
        assert sorted(failed) == ["battery_gap_bound",
                                  "sense_then_transmit_dominance"]

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
ARTIFACT_DIGESTS = {
    "regions.csv": "b8d0d3ebddd84a6fcb332cac74eafccf57c093908b42dc0ac44d920671b65890",
    "search_log.csv": "55bcac50e50d7d0358f8811e8e0793808481ed5a679f1f04ed92c5182be5c68e",
    "search_thresholds.txt": "a0d29ff8ade6557b31c2300f6b5486fb673a5f5f0110df54fc070db127911d87",
    "search_throughput.csv": "d3c7483a542e8f89f31257590ab96bed01afe560412cf5f81858d815be05f7c6",
    "thresholds.txt": "5c06c0139bdfef8d6eaa5108477f1e92b219c8da6e116a45854ba77f10ef4e11",
    "throughput.csv": "d49663a30ab7f51528934461a0d8e26d27bd06116493c078c97efad6770c46e8",
    "values.csv": "19a85afc93b52aa7e4d0626830b018192c2c195b0a1568aa957a5bcf95f3dbfe",
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
    "values_q0.2.csv": "edea9b429420cb28568eea0e4f6c1f57e6d552a3db6f4303b5553b46517b2a9d",
    "values_q0.6.csv": "74af1ca5d2e59032577460e57ddc84022134eda16774831994197719763df738",
}


@pytest.mark.parametrize("overrides, digests", [
    ({}, ARTIFACT_DIGESTS),
    ({"sweep": {"q": [0.2, 0.6]}}, SWEPT_DIGESTS)], ids=["single", "swept"])
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
# LOW_RATE values and both empty and filled Q cells on the same rows.
# values.csv moved within the solve's bound when value_iteration began to
# iterate only the core belief columns.
TWO_RATE_DIGESTS = {
    "regions.csv": "a32639df0b0c3de05a4c6d945189736f4ef88b363e0eaf4d379b45ab94cec38f",
    "thresholds.txt": "6780d2f6cf725df6da86aee56bf1c9c97d9d4f35d768e48f21c3073387d907aa",
    "values.csv": "e70192d80b2f421fa05c8324db5349eba4eb3169a88a7875fb95375045f1cfaa",
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
