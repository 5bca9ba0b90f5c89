"""Experiment configuration: YAML schema, validation, sweep expansion.

One config file describes a model instance, solver and simulation settings,
optional sweep axes (`q` rebuilds the two-point harvest pmf, `tau` rescales
the sensing cost) and the policies to benchmark.  An unknown key, at the top
level or in any section, is a ConfigError.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import yaml

from .model import ParameterError, SystemParams
from .search import SearchConfig
from .simulate import episode_start
from .solver import DEFAULT_TOL

# Every benchmark policy, in the default order (the row order of throughput.csv).
KNOWN_POLICIES = ("optimal", "greedy", "single_threshold", "opportunistic")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


@dataclass
class SimSettings:
    episodes: int = 30
    horizon: int = 100_000
    seed: int = 0
    initial_battery: int = 0
    initial_belief: float | None = None
    g0: float | None = None

    def __post_init__(self):
        for name in ("episodes", "horizon", "seed", "initial_battery"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"simulation.{name} must be an integer, "
                                f"got {value!r}")
        if self.episodes < 1 or self.horizon < 1:
            raise ValueError("simulation episodes and horizon must be >= 1")


@dataclass
class ExperimentConfig:
    """A parsed config; `parse_config` builds it and sets every default."""

    model: SystemParams
    grid_resolution: int
    tol: float
    max_iter: int | None
    span_tol: float | None
    sim: SimSettings
    search: SearchConfig
    policies: tuple
    sweep_q: tuple
    sweep_tau: tuple
    output_dir: str
    config_hash: str

    def sweep_points(self):
        """(label, params) per sweep point; cartesian when both axes are set.

        Labels are stable file-name fragments like "q0.3" or "q0.3_tau0.2";
        a config without sweep axes yields one unlabeled point.  Two points
        with one label would write one set of files: a ConfigError.
        """
        qs = self.sweep_q or (None,)
        taus = self.sweep_tau or (None,)
        points = []
        for q in qs:
            for tau in taus:
                params = self.model
                tags = []
                if q is not None:
                    params = params.with_harvest(q)
                    tags.append(f"q{q:g}")
                if tau is not None:
                    e_sense = tau * params.e_tx
                    if abs(e_sense - round(e_sense)) > 1e-9:
                        raise ConfigError(
                            f"tau={tau} gives non-integral sensing cost "
                            f"{e_sense} at e_tx={params.e_tx}")
                    params = params.replace(e_sense=int(round(e_sense)))
                    tags.append(f"tau{tau:g}")
                points.append(("_".join(tags), params))
        labels = [label for label, _ in points]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"two sweep values share a label: {labels}")
        return points


def _parse_pmf(raw) -> tuple:
    """energy_pmf, a list or an {arrival: prob} map, as a tuple."""
    if isinstance(raw, (list, tuple)):
        raw = dict(enumerate(raw))
    if not isinstance(raw, dict):
        raise ConfigError("energy_pmf must be a list or an {arrival: prob} map")
    try:
        items = {int(k): float(v) for k, v in raw.items()}
        fractional = [k for k in raw if float(k) != int(k)]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad energy_pmf: {exc}") from None
    if fractional:
        raise ConfigError(f"energy_pmf arrival levels must be integers, "
                          f"got {fractional}")
    if min(items, default=0) < 0:
        raise ConfigError("energy_pmf arrival levels must be >= 0")
    pmf = [0.0] * (max(items, default=-1) + 1)
    for m, p in items.items():
        pmf[m] = p
    return tuple(pmf)


_TOP_KEYS = ("model", "grid", "solver", "simulation", "search", "policies",
             "sweep", "output_dir")


def _check_keys(mapping: dict, where: str, known: tuple) -> None:
    unknown = [k for k in mapping if k not in known]
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}; valid: {list(known)}")


def _section(data, name, keys=None) -> dict:
    """data[name] as a mapping, {} when absent; with `keys`, no other key."""
    sect = data.get(name, {})
    if sect is None:
        sect = {}
    if not isinstance(sect, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    if keys is not None:
        _check_keys(sect, f"section '{name}'", keys)
    return sect


def _integer(sect: dict, section: str, name: str, default, least: int):
    """sect[name], an integer >= least, or `default` when absent or null."""
    value = sect.get(name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{section}.{name} must be an integer >= {least}, "
                          f"got {value!r}")
    return value


def _float(value) -> float:
    """value as a float; NaN for a bool or a non-number.  A numeric string
    is read as its number: YAML reads 1e-9, which has no dot, as a string."""
    try:
        return math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        return math.nan


def _positive(sect: dict, section: str, name: str, default):
    """sect[name] as a finite float > 0 (`_float`), or `default` when absent
    or null."""
    value = sect.get(name)
    if value is None:
        return default
    number = _float(value)
    if not 0 < number < math.inf:
        raise ConfigError(f"{section}.{name} must be a finite positive number, "
                          f"got {value!r}")
    return number


def _number_list(sweep: dict, name: str) -> tuple:
    """sweep[name] as a tuple of finite floats; () when absent."""
    if name not in sweep:
        return ()
    values = sweep[name]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep.{name} must be a nonempty list when present, "
                          f"got {values!r}")
    try:
        numbers = tuple(float(v) for v in values)
        if all(map(math.isfinite, numbers)) \
                and not any(isinstance(v, bool) for v in values):
            return numbers
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"sweep.{name} must be a list of finite numbers, "
                      f"got {values!r}")


def parse_config(data: dict, seed_override: int | None = None) -> ExperimentConfig:
    if not isinstance(data, dict) or "model" not in data:
        raise ConfigError("config must be a mapping with a 'model' section")
    _check_keys(data, "config", _TOP_KEYS)
    model_raw = dict(_section(data, "model"))
    if "energy_pmf" not in model_raw:
        raise ConfigError("model.energy_pmf is required")
    model_raw["energy_pmf"] = _parse_pmf(model_raw["energy_pmf"])
    for name in ("lambda0", "lambda1", "r_low", "r_high", "beta"):
        if name in model_raw:  # a missing one is SystemParams' TypeError
            number = _float(model_raw[name])
            if math.isnan(number):
                raise ConfigError(f"model.{name} must be a number, "
                                  f"got {model_raw[name]!r}")
            model_raw[name] = number
    try:
        model = SystemParams(**model_raw)
    except (TypeError, ValueError) as exc:  # ParameterError is a ValueError
        raise ConfigError(f"invalid model: {exc}") from None

    grid = _section(data, "grid", ("resolution",))
    solver = _section(data, "solver", ("tol", "max_iter", "span_tol"))
    sim_raw = _section(data, "simulation")
    search_raw = _section(data, "search")

    if seed_override is not None:
        sim_raw = dict(sim_raw, seed=int(seed_override))
    try:
        sim = SimSettings(**sim_raw)
        episode_start(model, sim.initial_battery, sim.initial_belief, sim.g0)
        if search_raw.get("seed") is None:  # defaults to the simulation seed
            search_raw = dict(search_raw, seed=sim.seed)
        search = SearchConfig(**search_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad simulation/search settings: {exc}") from None

    policies = data.get("policies", KNOWN_POLICIES)
    if not isinstance(policies, (list, tuple)):
        raise ConfigError(f"policies must be a list of names, got {policies!r}")
    unknown = [p for p in policies if p not in KNOWN_POLICIES]
    if unknown:
        raise ConfigError(f"unknown policies {unknown}; valid: {KNOWN_POLICIES}")
    if not policies:
        raise ConfigError("policy list must not be empty")
    if len(set(policies)) < len(policies):
        raise ConfigError(f"policies must not repeat a name, got {policies!r}")

    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")

    sweep = _section(data, "sweep", ("q", "tau"))
    sweep_q = _number_list(sweep, "q")
    sweep_tau = _number_list(sweep, "tau")

    effective = dict(data)
    effective["simulation"] = dict(sim_raw)
    digest = hashlib.sha256(
        json.dumps(effective, sort_keys=True, default=str).encode()).hexdigest()[:12]

    cfg = ExperimentConfig(
        model=model,
        grid_resolution=_integer(grid, "grid", "resolution", 1001, least=2),
        tol=_positive(solver, "solver", "tol", DEFAULT_TOL),
        max_iter=_integer(solver, "solver", "max_iter", None, least=1),
        span_tol=_positive(solver, "solver", "span_tol", None),
        sim=sim,
        search=search,
        policies=tuple(policies),
        sweep_q=sweep_q,
        sweep_tau=sweep_tau,
        output_dir=output_dir,
        config_hash=digest,
    )
    # fail fast on sweep points that violate model invariants
    try:
        cfg.sweep_points()
    except ParameterError as exc:
        raise ConfigError(f"invalid sweep point: {exc}") from None
    return cfg


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path) as f:
            data = yaml.safe_load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    return parse_config(data, seed_override=seed_override)
