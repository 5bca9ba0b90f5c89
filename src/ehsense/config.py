"""Experiment configuration: YAML schema, validation, sweep expansion.

One config file describes a model instance, solver and simulation settings,
optional sweep axes (`q` rebuilds the two-point harvest pmf, `tau` rescales
the sensing cost) and the policies to benchmark.  Every value is read by
one of two readers, `_int` and `_float`, and every section's keys are
checked against one table; an unknown key, at the top level or in any
section, is a ConfigError.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from functools import partial

import yaml

from .belief import stationary_belief
from .model import ParameterError, SystemParams
from .search import SearchConfig
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


def _int(name: str, value, least: float = -math.inf, most: float = math.inf) -> int:
    """value, a Python int and never a bool, from least to most."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or not least <= value <= most:
        bounds = " and".join(f" {op} {bound}" for op, bound
                             in ((">=", least), ("<=", most)) if abs(bound) < math.inf)
        raise ConfigError(f"{name} must be an integer{bounds}, got {value!r}")
    return value


def _float(name: str, value) -> float:
    """value as a finite float, never from a bool.  A numeric string is read
    as its number: YAML reads 1e-9, which has no dot, as a string."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a number (finite, not a bool), "
                          f"got {value!r}")
    return number


def _floats(name: str, values) -> tuple:
    """values, a nonempty list, as a tuple of `_float`s."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{name} must be a nonempty list of numbers, "
                          f"got {values!r}")
    return tuple(_float(name, v) for v in values)


# One ceiling, far above the shipped sizes (a battery row is 8 MB per table
# at 10**6 belief points), makes an absurd resolution, arrival level or energy
# count a config error, checked before anything is allocated, not a crash.
_CEILING = 10**6


def _pmf(name: str, raw) -> tuple:
    """energy_pmf, a list or an {arrival: prob} map, as a tuple of floats."""
    if isinstance(raw, (list, tuple)):
        raw = dict(enumerate(raw))
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a list or an {{arrival: prob}} map, "
                          f"got {raw!r}")
    probs = {_int(f"{name} arrival level", m, least=0, most=_CEILING):
             _float(f"{name}[{m!r}]", p) for m, p in raw.items()}
    pmf = [0.0] * (max(probs, default=-1) + 1)
    for m, p in probs.items():
        pmf[m] = p
    return tuple(pmf)


def _fields(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def _energy_count(name: str, value):
    """value as it is, for SystemParams' own integral rule, unless it is a
    number beyond the ceiling, which numpy could not hold or allocate."""
    if isinstance(value, (int, float)) and abs(value) > _CEILING:
        raise ConfigError(f"{name} must be at most {_CEILING} energy units in "
                          f"magnitude, got {value!r}")
    return value


# The reader of every key, per section: a key a table does not list is a
# ConfigError.  The keys of `model` and `simulation` are their dataclasses'
# fields; those of `search` are SearchConfig's fields but its seed, which is
# the simulation seed.
_READERS = {
    "model": {**dict.fromkeys(_fields(SystemParams), _energy_count),
              **dict.fromkeys(("lambda0", "lambda1", "r_low", "r_high", "beta"),
                              _float),
              "energy_pmf": _pmf},
    "grid": {"resolution": partial(_int, least=2, most=_CEILING)},
    "solver": {"tol": _float, "max_iter": partial(_int, least=1),
               "span_tol": _float},
    "simulation": {**dict.fromkeys(_fields(SimSettings), _int),
                   **dict.fromkeys(("episodes", "horizon"), partial(_int, least=1))},
    "search": {**dict.fromkeys(("episodes", "horizon", "max_passes"),
                               partial(_int, least=1)), "candidates": _floats},
    "sweep": {"q": _floats, "tau": _floats},
}

_TOP_KEYS = ("model", "grid", "solver", "simulation", "search", "policies",
             "sweep", "output_dir")


def _check_keys(mapping: dict, where: str, known) -> None:
    unknown = [k for k in mapping if k not in known]
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}; valid: {list(known)}")


def _section(data: dict, name: str) -> dict:
    """data[name] as a mapping, {} when absent or null, with no key that
    its `_READERS` table does not list."""
    sect = data.get(name)
    if sect is None:
        return {}
    if not isinstance(sect, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    _check_keys(sect, f"section '{name}'", _READERS[name])
    return sect


def _settings(data: dict, name: str) -> dict:
    """The keys section `name` sets, each read by its reader.  A null is a
    key left out, so the default applies."""
    readers = _READERS[name]
    return {k: readers[k](f"{name}.{k}", v)
            for k, v in _section(data, name).items() if v is not None}


def parse_config(data: dict, seed_override: int | None = None) -> ExperimentConfig:
    if not isinstance(data, dict) or "model" not in data:
        raise ConfigError("config must be a mapping with a 'model' section")
    _check_keys(data, "config", _TOP_KEYS)
    model_raw = _section(data, "model")
    missing = [k for k in _READERS["model"] if k not in model_raw]
    if missing:
        raise ConfigError(f"missing keys {missing} in section 'model'")
    try:
        model = SystemParams(**{k: read(f"model.{k}", model_raw[k])
                                for k, read in _READERS["model"].items()})
        stationary_belief(model)  # every command's start belief
    except ParameterError as exc:
        raise ConfigError(f"invalid model: {exc}") from None

    if seed_override is not None:
        data = dict(data, simulation=dict(_section(data, "simulation"),
                                          seed=int(seed_override)))
    sim = SimSettings(**_settings(data, "simulation"))
    try:
        search = SearchConfig(seed=sim.seed, **_settings(data, "search"))
    except ParameterError as exc:
        raise ConfigError(f"bad search settings: {exc}") from None

    grid = _settings(data, "grid")
    solver = _settings(data, "solver")
    for name in ("tol", "span_tol"):
        if name in solver and solver[name] <= 0:
            raise ConfigError(f"solver.{name} must be > 0, got {solver[name]!r}")
    sweep = _settings(data, "sweep")

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

    effective = dict(data, simulation=_section(data, "simulation"))
    digest = hashlib.sha256(
        json.dumps(effective, sort_keys=True, default=str).encode()).hexdigest()[:12]

    cfg = ExperimentConfig(
        model=model,
        grid_resolution=grid.get("resolution", 1001),
        tol=solver.get("tol", DEFAULT_TOL),
        max_iter=solver.get("max_iter"),
        span_tol=solver.get("span_tol"),
        sim=sim,
        search=search,
        policies=tuple(policies),
        sweep_q=sweep.get("q", ()),
        sweep_tau=sweep.get("tau", ()),
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
