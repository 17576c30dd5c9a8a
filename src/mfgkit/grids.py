"""Uniform grids on the unit torus and on torus x time cylinders.

Space is always the d-dimensional unit torus sampled on a uniform tensor
grid with an even number of nodes per axis, so trigonometric polynomials
up to the Nyquist mode are represented exactly and quadrature of any
resolved trigonometric polynomial is exact (the trapezoid rule on a
periodic grid reduces to the plain node average).

Wavenumber convention: integer modes per axis in FFT order,
``0, 1, ..., n/2-1, -n/2, ..., -1``.
The unpaired Nyquist mode (|k| = n/2) is kept in the Laplacian symbol
4 pi^2 |k|^2 but dropped from first-derivative symbols, which keeps
derivatives of real fields real and makes the discrete divergence the
exact negative adjoint of the discrete gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError

__all__ = ["TorusGrid", "SpaceTimeGrid"]

# Most nodes a grid may have. numpy refuses an array of more than intp-max
# bytes, and 512 bytes a node leave room for a d x d block of complex128 at
# every node (144 bytes at d = 3). Smaller grids that do not fit in memory
# fail at allocation with a MemoryError instead.
MAX_NODES = np.iinfo(np.intp).max // 512


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, marked read-only. Every array that a grid caches, or that a
    state, a field or a coupling keeps, goes through here, so a caller that
    writes into one gets a ValueError instead of changing later results."""
    arr.flags.writeable = False
    return arr


def _as_shape(n) -> tuple[int, ...]:
    if isinstance(n, (int, np.integer)):
        return (int(n),)
    try:
        shape = tuple(int(v) for v in n)
    except TypeError:
        raise GridError(f"grid resolution must be an int or a tuple of ints, got {n!r}")
    if not shape:
        raise GridError("grid resolution tuple is empty")
    return shape


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the unit torus T^d.

    Parameters
    ----------
    shape : tuple of int
        Nodes per axis. Every entry must be even and >= 4 so that the
        Nyquist conventions above are well defined.
    """

    shape: tuple[int, ...]

    def __init__(self, n):
        shape = _as_shape(n)
        for nv in shape:
            if nv < 4 or nv % 2 != 0:
                raise GridError(f"nodes per axis must be even and >= 4, got {shape}")
        if len(shape) > 3:
            raise GridError(f"only d <= 3 is supported, got d = {len(shape)}")
        if math.prod(shape) > MAX_NODES:
            raise GridError(f"grid shape {shape} has more nodes than numpy can index")
        object.__setattr__(self, "shape", shape)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        """Quadrature weight of one node (the torus has unit volume)."""
        return 1.0 / self.num_nodes

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates per axis, x_i = i / n."""
        return tuple(read_only(np.arange(nv) / nv) for nv in self.shape)

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Full meshgrid coordinates, ij indexing, each of shape ``self.shape``."""
        return tuple(map(read_only, np.meshgrid(*self.axes, indexing="ij")))

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Integer wavenumbers per axis (1-D arrays)."""
        return tuple(read_only((np.arange(nv) + nv // 2) % nv - nv // 2) for nv in self.shape)

    @cached_property
    def grad_symbols(self) -> np.ndarray:
        """First-derivative symbols 2 pi i k per axis, zeroed at Nyquist,
        stacked into one array of shape (d, *shape).

        Zeroing the unpaired Nyquist mode keeps d/dx of a real field real
        and makes each symbol an odd function of k, so the matrix of the
        derivative is exactly antisymmetric.
        """
        out = np.empty((self.dim,) + self.shape, dtype=complex)
        for ax, kk in enumerate(np.ix_(*self.wavenumbers)):
            out[ax] = np.where(np.abs(kk) == self.shape[ax] // 2, 0.0, 2j * np.pi * kk)
        return read_only(out)

    @cached_property
    def laplacian_symbol(self) -> np.ndarray:
        """Symbol of the Laplacian, -4 pi^2 |k|^2, Nyquist included."""
        k2 = np.zeros(self.shape)
        for kk in np.ix_(*self.wavenumbers):
            k2 += kk.astype(float) ** 2
        return read_only(-4.0 * np.pi**2 * k2)

    @cached_property
    def divgrad_symbol(self) -> np.ndarray:
        """Symbol of div(grad(.)); differs from the Laplacian only at Nyquist."""
        s = np.zeros(self.shape)
        for g in self.grad_symbols:
            s += (g.imag) ** 2
        return read_only(-s)

    @cached_property
    def half_inverse_divgrad_symbol(self) -> np.ndarray:
        """Symbol of (-div grad)^{-1/2}, zero where div grad is."""
        sym = -self.divgrad_symbol
        with np.errstate(invalid="ignore", divide="ignore"):
            half = np.where(sym > 0.0, 1.0 / np.sqrt(np.where(sym > 0.0, sym, 1.0)), 0.0)
        return read_only(half)

    def __repr__(self) -> str:
        return f"TorusGrid(shape={self.shape})"


@dataclass(frozen=True)
class SpaceTimeGrid:
    """A :class:`TorusGrid` with a uniform time axis.

    With ``periodic_time=False`` the grid covers [0, T] with ``n_t + 1``
    node rows (used by the finite-horizon solvers); with
    ``periodic_time=True`` it covers the time circle of length ``horizon``
    with ``n_t`` rows (used by the time-periodic branch machinery).
    """

    space: TorusGrid
    n_t: int
    horizon: float
    periodic_time: bool = False

    def __post_init__(self):
        if self.n_t < 4 or self.n_t % 2 != 0:
            raise GridError(f"n_t must be even and >= 4, got {self.n_t}")
        if not 0.0 < self.horizon < np.inf:
            raise GridError(f"horizon must be positive and finite, got {self.horizon}")
        if math.prod(self.field_shape) > MAX_NODES:
            raise GridError(f"grid shape {self.field_shape} has more nodes than numpy can index")

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def dt(self) -> float:
        return self.horizon / self.n_t

    @property
    def num_time_nodes(self) -> int:
        return self.n_t if self.periodic_time else self.n_t + 1

    @property
    def field_shape(self) -> tuple[int, ...]:
        return (self.num_time_nodes,) + self.space.shape

    @cached_property
    def times(self) -> np.ndarray:
        if self.periodic_time:
            return read_only(np.arange(self.n_t) * self.dt)
        return read_only(np.linspace(0.0, self.horizon, self.n_t + 1))

    @cached_property
    def time_weights(self) -> np.ndarray:
        """Quadrature weights along the time axis (trapezoid / periodic)."""
        if self.periodic_time:
            return read_only(np.full(self.n_t, self.dt))
        w = np.full(self.n_t + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return read_only(w)

    @cached_property
    def time_derivative_symbol(self) -> np.ndarray:
        """Spectral d/dt symbol on the periodic time circle (1-D array)."""
        if not self.periodic_time:
            raise GridError("spectral time derivative requires periodic_time=True")
        k = (np.arange(self.n_t) + self.n_t // 2) % self.n_t - self.n_t // 2
        sym = 2j * np.pi * k.astype(float) / self.horizon
        sym[np.abs(k) == self.n_t // 2] = 0.0
        return read_only(sym)

    def __repr__(self) -> str:
        tag = "periodic" if self.periodic_time else "interval"
        return (
            f"SpaceTimeGrid(space={self.space}, n_t={self.n_t}, "
            f"horizon={self.horizon}, {tag})"
        )
