"""Typed immutable field containers and the on-disk field format.

Fields pair a grid with a read-only value array. Solvers work on raw
arrays internally for speed; the typed wrappers are the API boundary and
carry the role invariants (densities are strictly positive with unit
mass per time slice).

File format (text, one value per line, row-major C order):

    # mfgkit-field v1
    # kind=scalar dim=2 n=16,16 n_t=32 horizon=0.5 periodic=0 components=1
    <value>
    ...

``kind`` is one of ``scalar``, ``density``, ``vector``; density files
re-validate positivity and mass on load. Purely spatial fields omit
``n_t`` and ``horizon``. Vector fields store component 0 completely,
then component 1, etc. Values are written with 17 significant digits,
so write/read round-trips are bit exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, PositivityError
from .grids import SpaceTimeGrid, TorusGrid, read_only
from . import spectral

__all__ = [
    "ScalarField",
    "VectorField",
    "DensityField",
    "MASS_TOL",
    "save_field",
    "load_field",
]

MASS_TOL = 1e-8


def _space_of(grid) -> TorusGrid:
    return grid.space if isinstance(grid, SpaceTimeGrid) else grid


def _expected_shape(grid, components: int | None = None) -> tuple[int, ...]:
    base = grid.field_shape if isinstance(grid, SpaceTimeGrid) else grid.shape
    return base if components is None else (components,) + base


@dataclass(frozen=True)
class ScalarField:
    """A scalar field on a :class:`TorusGrid` or :class:`SpaceTimeGrid`."""

    grid: TorusGrid | SpaceTimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = read_only(np.array(self.values, dtype=float))
        if arr.shape != _expected_shape(self.grid):
            raise GridError(
                f"scalar values of shape {arr.shape} do not match grid "
                f"shape {_expected_shape(self.grid)}"
            )
        object.__setattr__(self, "values", arr)

    @property
    def space(self) -> TorusGrid:
        return _space_of(self.grid)


@dataclass(frozen=True)
class VectorField:
    """A spatial vector field (component axis first)."""

    grid: TorusGrid | SpaceTimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = read_only(np.array(self.values, dtype=float))
        d = _space_of(self.grid).dim
        if arr.shape != _expected_shape(self.grid, components=d):
            raise GridError(
                f"vector values of shape {arr.shape} do not match grid "
                f"shape {_expected_shape(self.grid, components=d)}"
            )
        object.__setattr__(self, "values", arr)


class DensityField(ScalarField):
    """Scalar field that must be strictly positive with unit mass.

    For space-time fields the unit-mass requirement applies to every
    time slice separately.
    """

    def __post_init__(self):
        super().__post_init__()
        arr = self.values
        if not arr.min() > 0.0:
            raise PositivityError(
                f"density has non-positive values (min = {arr.min():.3e})"
            )
        space = self.space
        if isinstance(self.grid, SpaceTimeGrid):
            masses = arr.reshape(arr.shape[0], -1).mean(axis=1)
        else:
            masses = np.atleast_1d(spectral.integrate(space, arr))
        err = float(np.max(np.abs(masses - 1.0)))
        if not err <= MASS_TOL:
            raise PositivityError(f"density mass deviates from 1 by {err:.3e}")


def _header_for(fld: ScalarField | VectorField) -> str:
    grid = fld.grid
    if isinstance(grid, SpaceTimeGrid):
        space = grid.space
        extra = (
            f" n_t={grid.n_t} horizon={grid.horizon:.17g} "
            f"periodic={int(grid.periodic_time)}"
        )
    else:
        space = grid
        extra = ""
    if isinstance(fld, VectorField):
        kind = "vector"
    elif isinstance(fld, DensityField):
        kind = "density"
    else:
        kind = "scalar"
    comps = space.dim if kind == "vector" else 1
    ns = ",".join(str(v) for v in space.shape)
    return (
        f"# mfgkit-field v1\n"
        f"# kind={kind} dim={space.dim} n={ns}{extra} components={comps}\n"
    )


def save_field(path, fld: ScalarField | VectorField) -> None:
    """Write a field to ``path`` in the text format described above."""
    values = fld.values.ravel(order="C").tolist()
    with open(path, "w") as fh:
        fh.write(_header_for(fld) + ("%.17g\n" * len(values)) % tuple(values))


def _parse_header(line: str) -> dict:
    out = {}
    for tok in line.lstrip("#").split():
        key, _, val = tok.partition("=")
        out[key] = val
    return out


def load_field(path) -> ScalarField | VectorField:
    """Read a field written by :func:`save_field`."""
    with open(path) as fh:
        magic = fh.readline()
        if not magic.startswith("# mfgkit-field"):
            raise GridError(f"{path}: not a field file")
        meta = _parse_header(fh.readline())
        values = np.array([float(line) for line in fh if line.strip()])
    shape = tuple(int(v) for v in meta["n"].split(","))
    space = TorusGrid(shape)
    if "n_t" in meta:
        grid = SpaceTimeGrid(
            space,
            n_t=int(meta["n_t"]),
            horizon=float(meta["horizon"]),
            periodic_time=bool(int(meta.get("periodic", "0"))),
        )
    else:
        grid = space
    if meta["kind"] == "vector":
        full = (space.dim,) + _expected_shape(grid)
        return VectorField(grid, values.reshape(full, order="C"))
    cls = DensityField if meta["kind"] == "density" else ScalarField
    return cls(grid, values.reshape(_expected_shape(grid), order="C"))
