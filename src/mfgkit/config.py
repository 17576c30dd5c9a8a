"""JSON run configurations: schema validation and object builders.

A configuration is a single JSON object. Every key is optional unless a
command needs it; unknown keys anywhere are rejected so typos fail loudly
(:class:`~mfgkit.errors.ConfigError` names the offending key). The keys:

    {
      "seed": ...,          // >= 0; seeds spectral.Sampler (the standard
                            // library's Mersenne Twister), which draws the
                            // crosscheck probes
      "output_dir": ...,    // a path string; see resolve_output_dir
      "eps": ...,           // viscosity, in [0, inf); see below
      "model": {
        "kind": ...,        // "separable" or "congestion"
        "f_poly": [...],    // coupling f(m) = sum_j c_j m^j ...
        "f_spatial": [      // ... + sum of torus harmonics
          {"amp": 0.1, "k": [1], "kind": "cos"}
        ],
        "Q": [...],         // congestion only: one entry per grid.dim,
        "alpha": ..., "gamma": ...   // gamma > 1, alpha >= 0, != 1
      },
      "grid": {"dim": ..., "n": ..., "n_t": ..., "horizon": ...},  // horizon > 0
      "initial": {"m0": {"base": ..., "modes": [...]}, "uT": {...}},
      "solver": {"tol": ...,          // > 0; Newton stops at rows <= tol
                                      // (sup-norm): finite-horizon solves and the
                                      // stationary polish
                 "formulation": ...}, // bb | stream2d | potential | auto
      "bifurcation": {"fprime1": ..., "cubic": ..., "f1": ...,
                      "amplitudes": [...],   // at least one; each > 0
                      "dim": ..., "n": ..., "n_t": ...,
                      "spectrum_points": ...,      // >= 2
                      "spectrum_halfwidth": ...},  // in (0, 1)
      "checks": [...]       // crosscheck names; empty or absent: all
    }

Integer keys (``seed``, ``grid.dim``, ``grid.n``, ``grid.n_t``,
``bifurcation.dim``, ``.n``, ``.n_t``, ``.spectrum_points`` and a mode's
``k``) take integers or integral numbers such as 16.0; fractions and
booleans are rejected.

``eps`` (default 1.0) is the viscosity of the finite-horizon commands
(``solve-mfg``, ``solve-mfc``, ``compare``, ``duality-crosscheck`` and a
separable ``crosscheck``). The other systems fix it: ``solve-stationary``
and a congestion ``crosscheck`` are first-order, so they take no ``eps``
or 0, and the rescaled periodic system of ``bifurcate`` and ``spectrum``
has unit viscosity, so they take no ``eps`` or 1. Any other value exits 2.
``report`` evaluates the payoffs at the uniform state, where ``eps`` drops
out, and reads none.

Each key's converter, default and allowed range is its row in the tables
below (``_TOP``, ``_MODEL``, ``_GRID``, ``_SOLVER``, ``_BIFURCATION``,
``_MODE``, ``_PROFILES``, gathered under ``_ROOT``). :func:`load_config`
reads every key it finds through its row, whatever the command, and
returns the config with each value converted; a value of the wrong type or
out of range raises ConfigError naming the key, before any output
directory is made. Every number must be finite. Rules that relate two keys
(``model.Q`` against ``grid.dim``, ``grid.n`` against ``grid.dim``, a
model kind against ``Q``/``alpha``/``gamma``, ``eps`` per command) are
checked by the builders and the commands.

Crosscheck names per model kind; any other name is rejected:

* separable: ``derivatives``, ``two-forms``, ``duality``, ``mass``;
* congestion: ``transforms``, ``duality``, ``hbar``.

Output directory precedence: ``--output-dir`` flag, then the config's
``output_dir``, then the ``MFGKIT_OUTPUT_DIR`` environment variable, then
``./mfgkit-out``.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Callable, NamedTuple

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


def _number(value, where: str) -> float:
    """The scalar config value at key ``where`` as a finite float. A boolean,
    a string, a value that does not convert, nan and +-inf raise ConfigError
    naming the key."""
    if isinstance(value, (bool, str)):
        kind = "boolean" if isinstance(value, bool) else "string"
        raise ConfigError(f"'{where}' must be a number, not a {kind} (got {value!r})")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{where}' must be a number (got {value!r})")
    if not math.isfinite(number):
        raise ConfigError(f"'{where}' must be a finite number (got {number})")
    return number


def _number_list(values, where: str):
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"'{where}' must be a number list (got {values!r})")
    return values


def _numbers(values, where: str) -> tuple:
    return tuple(_number(v, where) for v in _number_list(values, where))


def _int(value, where: str) -> int:
    """An integer config value: a JSON integer, or a number with an integral
    value such as 16.0. Booleans, strings and fractions raise ConfigError
    naming the key."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value, where)
    if not number.is_integer():
        raise ConfigError(f"'{where}' must be a number with an integer value (got {value!r})")
    return int(number)


def _ints(values, where: str) -> tuple:
    return tuple(_int(v, where) for v in _number_list(values, where))


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{where}' must be a string (got {value!r})")
    return value


def _names(values, where: str) -> list:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ConfigError(f"'{where}' must be a list of strings")
    return values


def _shape(value, where: str):
    """``grid.n``: one node count for every axis, or a list of them."""
    return _ints(value, where) if isinstance(value, list) else _int(value, where)


def _modes(modes, where: str) -> list:
    """The harmonic modes at key ``where``: a list of mode objects, each
    read through the ``_MODE`` rows."""
    if not isinstance(modes, list):
        raise ConfigError(f"'{where}' must be a list of mode objects (got {modes!r})")
    for mode in modes:
        if not isinstance(mode, dict):
            raise ConfigError(f"entries of '{where}' must be objects")
    return [_fields(mode, _MODE, f"{where}.", f"a mode of '{where}'") for mode in modes]


def _object(table: dict) -> Callable:
    """The reader of a JSON object whose keys are the rows of ``table``."""

    def read(value, where: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"'{where}' must be a JSON object")
        return _fields(value, table, f"{where}.", f"'{where}'")

    return read


class _Key(NamedTuple):
    """One config key: ``read(value, where)`` converts it, ``default`` stands
    in when it is absent, and a value failing ``ok`` raises ConfigError
    "'<key>' must be <rule>", with ``{value}`` in the rule filled in."""

    read: Callable
    default: object
    ok: Callable | None = None
    rule: str = ""


def _at_least(lo: int) -> dict:
    return {"ok": lambda v: v >= lo, "rule": f"a number >= {lo} (got {{value}})"}


def _one_of(names: tuple) -> dict:
    return {"ok": lambda v: v in names, "rule": f"one of {', '.join(names)}; got '{{value}}'"}


_POSITIVE = {"ok": lambda v: v > 0.0, "rule": "a number in (0, inf) (got {value})"}
_NON_NEGATIVE = {"ok": lambda v: v >= 0.0, "rule": "a number in [0, inf) (got {value})"}


_FORMULATIONS = ("auto", "bb", "stream2d", "potential")
_KINDS = ("separable", "congestion")

_TOP = {"seed": _Key(_int, 0, **_at_least(0)), "eps": _Key(_number, 1.0, **_NON_NEGATIVE)}
_MODEL = {
    "kind": _Key(_text, "separable", **_one_of(_KINDS)),
    "f_poly": _Key(_numbers, (0.0, 1.0)),
    "f_spatial": _Key(_modes, []),
    "Q": _Key(_numbers, None),
    "alpha": _Key(_number, 0.5),
    "gamma": _Key(_number, 2.0),
}
_GRID = {
    "dim": _Key(_int, 1),
    "n": _Key(_shape, 16),
    "n_t": _Key(_int, 16),
    "horizon": _Key(_number, 1.0, **_POSITIVE),
}
_SOLVER = {
    "tol": _Key(_number, 1e-9, **_POSITIVE),
    "formulation": _Key(_text, "auto", **_one_of(_FORMULATIONS)),
}
_BIFURCATION = {
    "fprime1": _Key(_number, -6.0 * np.pi**2),
    "cubic": _Key(_number, 1.0),
    "f1": _Key(_number, 0.0),
    "amplitudes": _Key(
        _numbers, (1e-3, 3e-3, 1e-2), lambda v: bool(v) and min(v) > 0.0,
        "a nonempty list of numbers in (0, inf) (got {value})",
    ),
    "dim": _Key(_int, 1),
    "n": _Key(_int, 16),
    "n_t": _Key(_int, 16),
    "spectrum_points": _Key(_int, 9, lambda v: v >= 2, ">= 2"),
    "spectrum_halfwidth": _Key(_number, 0.1, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
}
_MODE = {"amp": _Key(_number, 0.0), "k": _Key(_ints, ()), "kind": _Key(_text, "cos")}
# The profiles of "initial", each with its own base default.
_PROFILES = {
    key: {"base": _Key(_number, base), "modes": _Key(_modes, [])}
    for key, base in (("m0", 1.0), ("uT", 0.0))
}
_INITIAL = {key: _Key(_object(table), {}) for key, table in _PROFILES.items()}
_SECTIONS = {"model": _MODEL, "grid": _GRID, "solver": _SOLVER, "bifurcation": _BIFURCATION}
_ROOT = {
    **_TOP,
    "output_dir": _Key(_text, None),
    "checks": _Key(_names, []),
    "initial": _Key(_object(_INITIAL), {}),
    **{name: _Key(_object(table), {}) for name, table in _SECTIONS.items()},
}


def _read(row: _Key, value, where: str):
    """``value``, the key ``where``, converted and range-checked by ``row``."""
    value = row.read(value, where)
    if row.ok is not None and not row.ok(value):
        raise ConfigError(f"'{where}' must be " + row.rule.format(value=value))
    return value


def _fields(obj: dict, table: dict, prefix: str, where: str) -> dict:
    """The keys of ``obj``, each read through its row in ``table`` and named
    ``prefix + key`` in errors. A key without a row raises ConfigError
    "unknown key ... in <where>"."""
    unknown = sorted(set(obj).difference(table))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where}")
    return {key: _read(table[key], value, prefix + key) for key, value in obj.items()}


def _setting(cfg: dict, key: str):
    """The setting at dotted ``key`` ("eps", "solver.tol", ...) of a loaded
    config: its converted value, or its row's default when it is absent."""
    name, _, leaf = key.rpartition(".")
    obj, table = (cfg.get(name, {}), _SECTIONS[name]) if name else (cfg, _ROOT)
    return obj.get(leaf, table[leaf].default)


def _settings(cfg: dict, name: str) -> dict:
    return {key: _setting(cfg, f"{name}.{key}") for key in _SECTIONS[name]}


def load_config(path) -> dict:
    """Read one JSON configuration file and read every key in it through its
    row, whatever the command. Returns the config with each value converted;
    the builders below take it."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return _fields(cfg, _ROOT, "", "the config root")


def _term(mode: dict) -> SpatialTerm:
    return SpatialTerm(**{key: mode.get(key, row.default) for key, row in _MODE.items()})


def build_coupling(cfg: dict) -> Coupling:
    modes = _setting(cfg, "model.f_spatial")
    return Coupling(poly=_setting(cfg, "model.f_poly"), terms=tuple(map(_term, modes)))


def build_model(cfg: dict):
    """Instantiate the configured Hamiltonian model. A congestion model's
    ``model.Q`` must have ``grid.dim`` entries."""
    mcfg = cfg.get("model", {})
    coupling = build_coupling(cfg)
    if _setting(cfg, "model.kind") == "separable":
        for key in ("Q", "alpha", "gamma"):
            if key in mcfg:
                raise ConfigError(f"'model.{key}' only applies to kind 'congestion'")
        return SeparableHamiltonian(coupling=coupling)
    if "Q" not in mcfg:
        raise ConfigError("congestion models need 'model.Q'")
    Q, dim = _setting(cfg, "model.Q"), _setting(cfg, "grid.dim")
    if len(Q) != dim:
        raise ConfigError(f"'model.Q' has {len(Q)} entries but 'grid.dim' = {dim}")
    return CongestionHamiltonian(
        Q=Q,
        alpha=_setting(cfg, "model.alpha"),
        gamma=_setting(cfg, "model.gamma"),
        coupling=coupling,
    )


def build_space_grid(cfg: dict) -> TorusGrid:
    dim = _setting(cfg, "grid.dim")
    shape = _setting(cfg, "grid.n")
    if not isinstance(shape, tuple):
        shape = (shape,) * dim
    elif len(shape) != dim:
        raise ConfigError(f"'grid.n' has {len(shape)} entries but dim = {dim}")
    return TorusGrid(shape)


def build_time_grid(cfg: dict) -> SpaceTimeGrid:
    return SpaceTimeGrid(
        build_space_grid(cfg),
        n_t=_setting(cfg, "grid.n_t"),
        horizon=_setting(cfg, "grid.horizon"),
    )


def build_profile(grid: TorusGrid, cfg: dict, key: str) -> np.ndarray:
    """The spatial profile ``initial.<key>``: its base plus its modes."""
    pcfg = cfg.get("initial", {}).get(key, {})
    out = np.full(grid.shape, pcfg.get("base", _PROFILES[key]["base"].default))
    for mode in pcfg.get("modes", []):
        out = out + _term(mode).evaluate(grid)
    return out


def build_m0(grid: TorusGrid, cfg: dict) -> np.ndarray:
    m0 = build_profile(grid, cfg, "m0")
    if float(m0.min()) <= 0.0:
        raise ConfigError(
            f"'initial.m0' must be strictly positive (min = {float(m0.min()):.3e})"
        )
    mass = float(m0.mean())
    if abs(mass - 1.0) > 1e-12:
        raise ConfigError(f"'initial.m0' must have unit mass (got {mass:.12g})")
    return m0


def build_uT(grid: TorusGrid, cfg: dict) -> np.ndarray:
    return build_profile(grid, cfg, "uT")


def solver_settings(cfg: dict) -> dict:
    return _settings(cfg, "solver")


def bifurcation_settings(cfg: dict) -> dict:
    return _settings(cfg, "bifurcation")


def resolve_output_dir(flag_value, cfg: dict) -> Path:
    """Flag beats config beats MFGKIT_OUTPUT_DIR beats ./mfgkit-out. A
    directory that cannot be created raises ConfigError naming it."""
    if flag_value:
        target = flag_value
    elif cfg.get("output_dir"):
        target = cfg["output_dir"]
    elif os.environ.get("MFGKIT_OUTPUT_DIR"):
        target = os.environ["MFGKIT_OUTPUT_DIR"]
    else:
        target = "mfgkit-out"
    path = Path(target)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}")
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
