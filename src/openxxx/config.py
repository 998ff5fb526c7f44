"""Run configuration: a single strict JSON document.

Complex numbers are two-element arrays [re, im]; bare numbers are accepted
and read as real.  Unknown keys are rejected everywhere so typos cannot
silently change a run.  Serialization emits floats through ``repr`` (JSON)
or ``%.17g`` (CSV), both round-trip exact in double precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .bethe import SolverConfig
from .errors import ConfigError
from .model import MAX_SITES, ModelParams
from .verify import check_names

DEFAULT_SEED = 1234

# Generic complex boundary values, clear of every degeneracy guard.
DEFAULT_MODEL = {
    "n_sites": 2,
    "theta": [[0.21, 0.11], [-0.17, 0.07]],
    "p": [1.7, 0.4],
    "q": [0.83, -0.29],
    "xi_plus": [0.61, 0.24],
    "xi_minus": [1.13, -0.37],
    "branch": "principal",
}


def to_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def from_complex(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _require_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _get_number(section, key, default, where, integer=False):
    if key not in section:
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    if integer and (not math.isfinite(v) or int(v) != v):
        raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
    return int(v) if integer else float(v)


@dataclass(frozen=True)
class SweepConfig:
    param: str
    grid: tuple
    models: tuple  # the validated model at each grid point

    # also accepts theta_<j>, 1-based site index
    VALID_PARAMS = ("p", "q", "xi_plus", "xi_minus")


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    solver: SolverConfig
    checks: object = "all"  # "all" or list of names
    n_samples: int = 10
    output_path: str | None = None
    format: str = "json"
    sweep: SweepConfig | None = None


def _parse_model(section: dict) -> ModelParams:
    _require_keys(section, DEFAULT_MODEL, "model")
    merged = {**DEFAULT_MODEL, **section}
    n_sites = merged["n_sites"]
    if not isinstance(n_sites, int) or isinstance(n_sites, bool) or not 1 <= n_sites <= MAX_SITES:
        raise ConfigError(
            f"model.n_sites: expected an integer in 1..{MAX_SITES}, got {n_sites!r}"
        )
    theta_raw = merged["theta"]
    if "theta" not in section and "n_sites" in section:
        # an explicit chain length without inhomogeneities means a homogeneous chain
        theta_raw = [[0.0, 0.0]] * n_sites
    if not isinstance(theta_raw, list) or len(theta_raw) != n_sites:
        raise ConfigError(f"model.theta: expected a list of {n_sites} values")
    theta = [to_complex(t, f"model.theta[{i}]") for i, t in enumerate(theta_raw)]
    branch = merged["branch"]
    if branch not in ("principal", "conjugate"):
        raise ConfigError(f"model.branch: expected principal|conjugate, got {branch!r}")
    values = {
        key: to_complex(merged[key], f"model.{key}")
        for key in ("p", "q", "xi_plus", "xi_minus")
    }
    if abs(values["xi_plus"] * values["xi_minus"] + 1) < 1e-3:
        raise ConfigError(
            "model: xi_plus * xi_minus is within 1e-3 of -1, where the boundary "
            "invariant rho degenerates; choose different couplings"
        )
    if values["p"] == 0 or values["q"] == 0:
        raise ConfigError("model: boundary strengths p and q must be nonzero")
    try:
        return ModelParams.create(theta, branch=branch, n_sites=n_sites, **values)
    except Exception as exc:
        raise ConfigError(f"model: {exc}") from exc


def _parse_solver(section: dict) -> SolverConfig:
    _require_keys(section, ("n_starts", "max_iter", "tol", "seed"), "solver")
    n_starts = section.get("n_starts")
    if n_starts is not None:
        n_starts = _get_number(section, "n_starts", None, "solver", integer=True)
    try:
        return SolverConfig(
            n_starts=n_starts,
            max_iter=_get_number(section, "max_iter", 200, "solver", integer=True),
            tol=_get_number(section, "tol", 1e-10, "solver"),
            seed=_get_number(section, "seed", DEFAULT_SEED, "solver", integer=True),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def sweep_theta_index(param: str) -> int | None:
    """1-based site index for a theta_<j> sweep parameter, else None."""
    if isinstance(param, str) and param.startswith("theta_"):
        suffix = param[len("theta_"):]
        if suffix.isdigit() and int(suffix) >= 1:
            return int(suffix)
    return None


def _sweep_point_model(model_doc: dict, param: str, value: complex) -> ModelParams:
    model_doc = dict(model_doc)
    theta_idx = sweep_theta_index(param)
    if theta_idx is not None:
        model_doc["theta"] = [list(t) for t in model_doc["theta"]]
        model_doc["theta"][theta_idx - 1] = from_complex(value)
    else:
        model_doc[param] = from_complex(value)
    return _parse_model(model_doc)


def _parse_sweep(section: dict, model: ModelParams) -> SweepConfig:
    _require_keys(section, ("param", "grid"), "sweep")
    param = section.get("param")
    theta_idx = sweep_theta_index(param) if isinstance(param, str) else None
    if param not in SweepConfig.VALID_PARAMS and theta_idx is None:
        raise ConfigError(
            f"sweep.param: expected one of {SweepConfig.VALID_PARAMS} or theta_<j>, got {param!r}"
        )
    if theta_idx is not None and theta_idx > model.n_sites:
        raise ConfigError(f"sweep.param: {param} exceeds the chain length {model.n_sites}")
    grid_raw = section.get("grid")
    if not isinstance(grid_raw, list) or not grid_raw:
        raise ConfigError("sweep.grid: expected a non-empty list of values")
    grid = tuple(to_complex(v, f"sweep.grid[{i}]") for i, v in enumerate(grid_raw))
    # every grid point must be a valid model before any point runs
    model_doc, models = model_to_dict(model), []
    for i, value in enumerate(grid):
        try:
            models.append(_sweep_point_model(model_doc, param, value))
        except ConfigError as exc:
            raise ConfigError(f"sweep.grid[{i}]: {exc}") from exc
    return SweepConfig(param=param, grid=grid, models=tuple(models))


def parse_config_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = (
        "model", "solver", "checks", "n_samples", "output_path", "format", "sweep",
    )
    _require_keys(doc, allowed, "config")
    checks = doc.get("checks", "all")
    if checks != "all" and (
        not isinstance(checks, list) or not checks or not all(isinstance(c, str) for c in checks)
    ):
        raise ConfigError('checks: expected "all" or a non-empty list of check names')
    if checks != "all":
        if len(set(checks)) < len(checks):
            raise ConfigError(f"checks: a check name is repeated in {checks}")
        unknown = [c for c in checks if c not in check_names()]
        if unknown:
            raise ConfigError(f"checks: unknown check names {unknown}")
    fmt = doc.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format: expected json|csv, got {fmt!r}")
    output_path = doc.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path: expected a string path")
    n_samples = _get_number(doc, "n_samples", 10, "config", integer=True)
    if n_samples < 1:
        raise ConfigError(f"n_samples: expected a positive integer, got {n_samples}")
    sweep = doc.get("sweep")
    model = _parse_model(doc.get("model", {}))
    return RunConfig(
        model=model,
        solver=_parse_solver(doc.get("solver", {})),
        checks=checks if checks == "all" else list(checks),
        n_samples=n_samples,
        output_path=output_path,
        format=fmt,
        sweep=_parse_sweep(sweep, model) if sweep is not None else None,
    )


def parse_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config_dict(doc)


def model_to_dict(params: ModelParams) -> dict:
    return {
        "n_sites": params.n_sites,
        "theta": [from_complex(t) for t in params.theta],
        "p": from_complex(params.p),
        "q": from_complex(params.q),
        "xi_plus": from_complex(params.xi_plus),
        "xi_minus": from_complex(params.xi_minus),
        "branch": params.branch,
    }


def default_config() -> RunConfig:
    return parse_config_dict({"model": dict(DEFAULT_MODEL)})
