"""JSON run configurations: schema validation and object builders.

A configuration is a single JSON object. Every key is optional unless a
command needs it; unknown keys anywhere are rejected so typos fail loudly
(:class:`~mfgkit.errors.ConfigError` names the offending key). The full
schema, with defaults:

    {
      "task": "solve-mfg",            // informational; the subcommand wins
      "seed": 0,                      // RNG seed for crosscheck probes
      "output_dir": "mfgkit-out",     // see resolve_output_dir for precedence
      "eps": 1.0,                     // viscosity of the dynamic solvers
      "model": {
        "kind": "separable",          // or "congestion"
        "f_poly": [0.0, 1.0],         // coupling f(m) = sum_j c_j m^j ...
        "f_spatial": [                // ... + sum of torus harmonics
          {"amp": 0.1, "k": [1], "kind": "cos"}
        ],
        "Q": [1.0, 0.0],              // congestion only: drift vector
        "alpha": 0.5,                 // congestion only: density exponent
        "gamma": 2.0                  // congestion only: momentum exponent
      },
      "grid": {"dim": 1, "n": 16, "n_t": 16, "horizon": 1.0},
      "initial": {
        "m0": {"base": 1.0, "modes": [...]},   // spatial profiles
        "uT": {"base": 0.0, "modes": [...]}
      },
      "solver": {"tol": 1e-9, "max_iter": 50000, "max_newton": 40,
                 "formulation": "auto",   // bb | stream2d | potential | auto
                 "barrier_stages": [], "w_reg": 0.0},
      "bifurcation": {"fprime1": -6 pi^2, "cubic": 1.0, "f1": 0.0,
                      "amplitudes": [0.001, 0.003, 0.01],
                      "dim": 1, "n": 16, "n_t": 16,
                      "spectrum_points": 9, "spectrum_halfwidth": 0.1},
      "checks": ["derivatives", "two-forms", "duality", "mass"]
    }

Output directory precedence: ``--output-dir`` flag, then the config's
``output_dir``, then the ``MFGKIT_OUTPUT_DIR`` environment variable, then
``./mfgkit-out``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grids import SpaceTimeGrid, TorusGrid
from .hamiltonians import (
    CongestionHamiltonian,
    Coupling,
    SeparableHamiltonian,
    SpatialTerm,
)

__all__ = [
    "load_config",
    "build_coupling",
    "build_model",
    "build_space_grid",
    "build_time_grid",
    "build_profile",
    "build_m0",
    "build_uT",
    "bifurcation_settings",
    "solver_settings",
    "resolve_output_dir",
    "to_jsonable",
    "dump_json",
    "dump_csv",
]

_TOP_KEYS = {
    "task",
    "seed",
    "output_dir",
    "eps",
    "model",
    "grid",
    "initial",
    "solver",
    "bifurcation",
    "checks",
}
_MODEL_KEYS = {"kind", "f_poly", "f_spatial", "Q", "alpha", "gamma"}
_GRID_KEYS = {"dim", "n", "n_t", "horizon"}
_INITIAL_KEYS = {"m0", "uT"}
_PROFILE_KEYS = {"base", "modes"}
_MODE_KEYS = {"amp", "k", "kind"}
_SOLVER_KEYS = {
    "tol",
    "max_iter",
    "max_newton",
    "formulation",
    "barrier_stages",
    "w_reg",
}
_FORMULATIONS = ("auto", "bb", "stream2d", "potential")


_BIF_KEYS = {
    "fprime1",
    "cubic",
    "f1",
    "amplitudes",
    "dim",
    "n",
    "n_t",
    "spectrum_points",
    "spectrum_halfwidth",
}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where}")


def _section(cfg: dict, name: str, allowed: set) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"'{name}' must be a JSON object")
    _check_keys(sec, allowed, f"'{name}'")
    return sec


def load_config(path) -> dict:
    """Read and structurally validate one JSON configuration file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "the config root")
    # Validate sections eagerly so errors do not depend on the command.
    _section(cfg, "model", _MODEL_KEYS)
    _section(cfg, "grid", _GRID_KEYS)
    initial = _section(cfg, "initial", _INITIAL_KEYS)
    for prof_key in initial:
        prof = initial[prof_key]
        if not isinstance(prof, dict):
            raise ConfigError(f"'initial.{prof_key}' must be a JSON object")
        _check_keys(prof, _PROFILE_KEYS, f"'initial.{prof_key}'")
        for mode in prof.get("modes", []):
            if not isinstance(mode, dict):
                raise ConfigError(f"modes in 'initial.{prof_key}' must be objects")
            _check_keys(mode, _MODE_KEYS, f"a mode of 'initial.{prof_key}'")
    _section(cfg, "solver", _SOLVER_KEYS)
    _section(cfg, "bifurcation", _BIF_KEYS)
    checks = cfg.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError("'checks' must be a list of strings")
    return cfg


def _floats(values, where: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ConfigError(f"'{where}' must be a list of numbers")


def build_coupling(mcfg: dict) -> Coupling:
    poly = _floats(mcfg.get("f_poly", [0.0, 1.0]), "model.f_poly")
    terms = []
    for mode in mcfg.get("f_spatial", []):
        if not isinstance(mode, dict):
            raise ConfigError("entries of 'model.f_spatial' must be objects")
        _check_keys(mode, _MODE_KEYS, "'model.f_spatial'")
        terms.append(
            SpatialTerm(
                amp=float(mode.get("amp", 0.0)),
                k=tuple(int(v) for v in mode.get("k", ())),
                kind=str(mode.get("kind", "cos")),
            )
        )
    return Coupling(poly=poly, terms=tuple(terms))


def build_model(cfg: dict):
    """Instantiate the configured Hamiltonian model."""
    mcfg = _section(cfg, "model", _MODEL_KEYS)
    kind = mcfg.get("kind", "separable")
    coupling = build_coupling(mcfg)
    if kind == "separable":
        for key in ("Q", "alpha", "gamma"):
            if key in mcfg:
                raise ConfigError(f"'model.{key}' only applies to kind 'congestion'")
        return SeparableHamiltonian(coupling=coupling)
    if kind == "congestion":
        if "Q" not in mcfg:
            raise ConfigError("congestion models need 'model.Q'")
        return CongestionHamiltonian(
            Q=_floats(mcfg["Q"], "model.Q"),
            alpha=float(mcfg.get("alpha", 0.5)),
            gamma=float(mcfg.get("gamma", 2.0)),
            coupling=coupling,
        )
    raise ConfigError(f"unknown model kind '{kind}' (use separable or congestion)")


def build_space_grid(cfg: dict) -> TorusGrid:
    gcfg = _section(cfg, "grid", _GRID_KEYS)
    dim = int(gcfg.get("dim", 1))
    n = gcfg.get("n", 16)
    if isinstance(n, list):
        shape = tuple(int(v) for v in n)
        if len(shape) != dim:
            raise ConfigError(f"'grid.n' has {len(shape)} entries but dim = {dim}")
    else:
        shape = (int(n),) * dim
    return TorusGrid(shape)


def build_time_grid(cfg: dict) -> SpaceTimeGrid:
    gcfg = _section(cfg, "grid", _GRID_KEYS)
    return SpaceTimeGrid(
        build_space_grid(cfg),
        n_t=int(gcfg.get("n_t", 16)),
        horizon=float(gcfg.get("horizon", 1.0)),
    )


def build_profile(grid: TorusGrid, pcfg: dict | None, base_default: float) -> np.ndarray:
    out = np.full(grid.shape, float((pcfg or {}).get("base", base_default)))
    for mode in (pcfg or {}).get("modes", []):
        term = SpatialTerm(
            amp=float(mode.get("amp", 0.0)),
            k=tuple(int(v) for v in mode.get("k", ())),
            kind=str(mode.get("kind", "cos")),
        )
        out = out + term.evaluate(grid)
    return out


def build_m0(grid: TorusGrid, cfg: dict) -> np.ndarray:
    m0 = build_profile(grid, _section(cfg, "initial", _INITIAL_KEYS).get("m0"), 1.0)
    if float(m0.min()) <= 0.0:
        raise ConfigError(
            f"'initial.m0' must be strictly positive (min = {float(m0.min()):.3e})"
        )
    mass = float(m0.mean())
    if abs(mass - 1.0) > 1e-12:
        raise ConfigError(f"'initial.m0' must have unit mass (got {mass:.12g})")
    return m0


def build_uT(grid: TorusGrid, cfg: dict) -> np.ndarray:
    return build_profile(grid, _section(cfg, "initial", _INITIAL_KEYS).get("uT"), 0.0)


def solver_settings(cfg: dict) -> dict:
    scfg = _section(cfg, "solver", _SOLVER_KEYS)
    formulation = str(scfg.get("formulation", "auto"))
    if formulation not in _FORMULATIONS:
        raise ConfigError(
            f"'solver.formulation' must be one of {', '.join(_FORMULATIONS)}; "
            f"got '{formulation}'"
        )
    return {
        "tol": float(scfg.get("tol", 1e-9)),
        "max_iter": int(scfg.get("max_iter", 50000)),
        "max_newton": int(scfg.get("max_newton", 40)),
        "formulation": formulation,
        "barrier_stages": _floats(
            scfg.get("barrier_stages", ()), "solver.barrier_stages"
        ),
        "w_reg": float(scfg.get("w_reg", 0.0)),
    }


def bifurcation_settings(cfg: dict) -> dict:
    bcfg = _section(cfg, "bifurcation", _BIF_KEYS)
    out = {
        "fprime1": float(bcfg.get("fprime1", -6.0 * np.pi**2)),
        "cubic": float(bcfg.get("cubic", 1.0)),
        "f1": float(bcfg.get("f1", 0.0)),
        "amplitudes": _floats(
            bcfg.get("amplitudes", (1e-3, 3e-3, 1e-2)), "bifurcation.amplitudes"
        ),
        "dim": int(bcfg.get("dim", 1)),
        "n": int(bcfg.get("n", 16)),
        "n_t": int(bcfg.get("n_t", 16)),
        "spectrum_points": int(bcfg.get("spectrum_points", 9)),
        "spectrum_halfwidth": float(bcfg.get("spectrum_halfwidth", 0.1)),
    }
    if not out["amplitudes"]:
        raise ConfigError("'bifurcation.amplitudes' must hold at least one value")
    if out["spectrum_points"] < 2:
        raise ConfigError("'bifurcation.spectrum_points' must be >= 2")
    if not 0.0 < out["spectrum_halfwidth"] < 1.0:
        raise ConfigError("'bifurcation.spectrum_halfwidth' must be in (0, 1)")
    return out


def resolve_output_dir(flag_value, cfg: dict) -> Path:
    """Flag beats config beats MFGKIT_OUTPUT_DIR beats ./mfgkit-out."""
    if flag_value:
        target = flag_value
    elif cfg.get("output_dir"):
        target = cfg["output_dir"]
    elif os.environ.get("MFGKIT_OUTPUT_DIR"):
        target = os.environ["MFGKIT_OUTPUT_DIR"]
    else:
        target = "mfgkit-out"
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(path, payload: dict) -> str:
    """Write deterministic JSON (sorted keys, no timestamps); returns the text."""
    text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def dump_csv(path, header: list[str], rows) -> None:
    """Write a CSV with %.17g floats so outputs are reproducible."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
            fh.write(",".join(cells) + "\n")
