"""Hamiltonian models: separable and congestion families.

A coupling is a local cost f(x, m) = p(m) + s(x) with p polynomial and
s a finite combination of torus harmonics. Its antiderivative in m is
normalized so that F(x, 1) = 0, which fixes the additive constant that
the payoff functionals would otherwise inherit.

Two model families are provided:

* :class:`SeparableHamiltonian`: H(x, p, m) = |p|^2 / 2 - f(x, m).
* :class:`CongestionHamiltonian`: H(x, p, m) = |p + Q|^gamma /
  (gamma m^alpha) - f(x, m) with a constant drift vector Q, gamma >= 1,
  alpha >= 0, alpha != 1, all finite.

The congestion change of variables lives here and nowhere else:
``drift`` (Q against a field, with the component-count check), ``shift``
(p + Q and its magnitude), ``flux`` (w = m^{1-alpha}|p+Q|^{gamma-2}(p+Q))
and its inverse ``momentum``.

Evaluating a congestion model at a density entry below ``m_min``
(default 1e-10) raises :class:`~mfgkit.errors.PositivityError`; its
power laws are not continued past the floor. Every term of a separable
model is polynomial in m, so it evaluates at any density; its ``m_min``
is the floor the finite-horizon solver checks once on the solved
densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, PositivityError
from .grids import TorusGrid

__all__ = [
    "M_FLOOR",
    "SpatialTerm",
    "Coupling",
    "HamiltonianValues",
    "SeparableHamiltonian",
    "CongestionHamiltonian",
    "MonotonicityReport",
    "check_monotonicity",
]

M_FLOOR = 1e-10


@dataclass(frozen=True)
class SpatialTerm:
    """One harmonic amp * cos(2 pi k . x) or amp * sin(2 pi k . x), amp finite."""

    amp: float
    k: tuple[int, ...]
    kind: str = "cos"

    def __post_init__(self):
        if self.kind not in ("cos", "sin"):
            raise ModelError(f"spatial term kind must be cos or sin, got {self.kind}")
        if not np.isfinite(self.amp):
            raise ModelError(f"amp must be finite, got {self.amp}")
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))

    def evaluate(self, grid: TorusGrid) -> np.ndarray:
        if len(self.k) != grid.dim:
            raise ModelError(
                f"spatial term wavevector {self.k} does not match d = {grid.dim}"
            )
        phase = np.zeros(grid.shape)
        for kv, xv in zip(self.k, grid.coords):
            phase = phase + 2.0 * np.pi * kv * xv
        fn = np.cos if self.kind == "cos" else np.sin
        return self.amp * fn(phase)


@dataclass(frozen=True)
class Coupling:
    """Local cost f(x, m) = sum_j poly[j] m^j + s(x), every poly[j] finite."""

    poly: tuple[float, ...] = (0.0, 1.0)
    terms: tuple[SpatialTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "poly", tuple(float(c) for c in self.poly))
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.poly:
            raise ModelError("coupling polynomial needs at least one coefficient")
        if not np.all(np.isfinite(self.poly)):
            raise ModelError(f"poly must be finite, got {self.poly}")
        # p, p', p'' and the antiderivative P = polyint(p), built once.
        c = np.polynomial.polynomial
        p = np.array(self.poly)
        object.__setattr__(self, "_derivs", (p, c.polyder(p), c.polyder(p, 2)))
        object.__setattr__(self, "_antider", c.polyint(p))
        object.__setattr__(self, "_antider_at_1", c.polyval(1.0, self._antider))
        object.__setattr__(self, "_spatial", {})

    def spatial(self, grid: TorusGrid) -> np.ndarray:
        """s(x) on ``grid``, built once per grid and returned read-only."""
        if grid not in self._spatial:
            s = np.zeros(grid.shape)
            for term in self.terms:
                s = s + term.evaluate(grid)
            s.flags.writeable = False
            self._spatial[grid] = s
        return self._spatial[grid]

    def _poly_val(self, m, deriv: int = 0):
        """p(m), p'(m) or p''(m) for deriv 0, 1 or 2."""
        return np.polynomial.polynomial.polyval(m, self._derivs[deriv])

    def f(self, grid: TorusGrid, m: np.ndarray) -> np.ndarray:
        return self._poly_val(m) + self.spatial(grid)

    def df_dm(self, grid: TorusGrid, m: np.ndarray) -> np.ndarray:
        return self._on_grid(grid, self._poly_val(m, deriv=1))

    def d2f_dm2(self, grid: TorusGrid, m: np.ndarray) -> np.ndarray:
        return self._on_grid(grid, self._poly_val(m, deriv=2))

    @staticmethod
    def _on_grid(grid: TorusGrid, v):
        """v broadcast against the grid shape, read-only and without a copy."""
        return np.broadcast_to(v, np.broadcast_shapes(np.shape(v), grid.shape))

    def F(self, grid: TorusGrid, m: np.ndarray) -> np.ndarray:
        """Normalized antiderivative, F(x, m) = int_1^m f(x, z) dz."""
        pv = np.polynomial.polynomial.polyval
        return (pv(m, self._antider) - self._antider_at_1) + self.spatial(grid) * (m - 1.0)

    def conjugate(self, grid: TorusGrid, w: np.ndarray) -> np.ndarray:
        """Fenchel conjugate F*(x, w) = sup_{z >= 0} (w z - F(x, z)).

        Requires the polynomial part to be strictly increasing on the
        relevant range (checked on a sample); solved by vectorized
        bisection of f(x, z) = w.
        """
        s = self.spatial(grid)
        target = np.asarray(w, dtype=float) - s
        zhi = 1.0
        for _ in range(200):
            if self._poly_val(zhi) >= target.max() or zhi > 1e12:
                break
            zhi *= 2.0
        probe = np.linspace(0.0, zhi, 64)
        if np.any(self._poly_val(probe, deriv=1) <= 0.0):
            raise ModelError(
                "conjugate requires a strictly increasing coupling in m"
            )
        lo = np.zeros_like(target)
        hi = np.full_like(target, zhi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            low_side = self._poly_val(mid) < target
            lo = np.where(low_side, mid, lo)
            hi = np.where(low_side, hi, mid)
        z = np.where(target <= self._poly_val(0.0), 0.0, 0.5 * (lo + hi))
        return np.asarray(w) * z - self.F(grid, z)


@dataclass(frozen=True)
class HamiltonianValues:
    """Pointwise H and its first derivatives at (x, p, m)."""

    H: np.ndarray
    dpH: np.ndarray
    dmH: np.ndarray


def _check_floor(m: np.ndarray, m_min: float) -> None:
    mmin = float(np.min(m))
    if not np.isfinite(mmin) or mmin < m_min:
        raise PositivityError(
            f"density entry {mmin:.3e} below the evaluation floor {m_min:.1e}"
        )


@dataclass(frozen=True)
class SeparableHamiltonian:
    """H(x, p, m) = H0(p) - f(x, m) with H0(p) = |p|^2 / 2, whose conjugate
    is L0(q) = |q|^2 / 2."""

    coupling: Coupling = field(default_factory=Coupling)
    m_min: float = M_FLOOR

    def eval(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray) -> HamiltonianValues:
        H = 0.5 * np.sum(p * p, axis=0) - self.coupling.f(grid, m)
        return HamiltonianValues(
            H=H,
            dpH=p,
            dmH=-self.coupling.df_dm(grid, m) + np.zeros_like(H),
        )

    def eval_F_H(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray):
        """Antiderivative of H in m and its p-gradient: (F_H, dp F_H)."""
        FH = m * (0.5 * np.sum(p * p, axis=0)) - self.coupling.F(grid, m)
        return FH, m * p

    def legendre(self, grid: TorusGrid, q: np.ndarray, m: np.ndarray) -> np.ndarray:
        return 0.5 * np.sum(q * q, axis=0) + self.coupling.f(grid, m)

    def hess_pp(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray) -> np.ndarray:
        d = p.shape[0]
        eye = np.eye(d).reshape((d, d) + (1,) * (p.ndim - 1))
        return np.broadcast_to(eye, (d, d) + p.shape[1:]).copy()

    def dm_dpH(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray) -> np.ndarray:
        return np.zeros_like(p)


@dataclass(frozen=True)
class CongestionHamiltonian:
    """H(x, p, m) = |p + Q|^gamma / (gamma m^alpha) - f(x, m)."""

    Q: tuple[float, ...]
    alpha: float
    gamma: float
    coupling: Coupling = field(default_factory=Coupling)
    m_min: float = M_FLOOR

    def __post_init__(self):
        object.__setattr__(self, "Q", tuple(float(v) for v in self.Q))
        for name, value in (("alpha", self.alpha), ("gamma", self.gamma), ("Q", self.Q)):
            if not np.all(np.isfinite(value)):
                raise ModelError(f"{name} must be finite, got {value}")
        if not self.gamma >= 1.0:
            raise ModelError(f"gamma must be >= 1, got {self.gamma}")
        if not self.alpha >= 0.0:
            raise ModelError(f"alpha must be >= 0, got {self.alpha}")
        if self.alpha == 1.0:
            raise ModelError("alpha = 1 is excluded (the m-antiderivative degenerates)")

    @property
    def dim(self) -> int:
        return len(self.Q)

    @property
    def gamma_prime(self) -> float:
        if self.gamma == 1.0:
            raise ModelError("gamma' undefined for gamma = 1")
        return self.gamma / (self.gamma - 1.0)

    @property
    def beta(self) -> float:
        """Density exponent of the convex reformulation, (gamma'-1)(1-alpha)."""
        return (self.gamma_prime - 1.0) * (1.0 - self.alpha)

    def drift(self, like: np.ndarray) -> np.ndarray:
        """Q shaped to broadcast against the vector field ``like``, whose
        leading axis must hold one entry per component of Q."""
        if like.shape[0] != self.dim:
            raise ModelError(f"field has {like.shape[0]} components, Q has {self.dim}")
        return np.array(self.Q).reshape((self.dim,) + (1,) * (like.ndim - 1))

    def shift(self, p: np.ndarray):
        """The drift shift r = p + Q and its magnitude |r|."""
        r = p + self.drift(p)
        return r, np.sqrt(np.sum(r * r, axis=0))

    def flux(self, p: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The flux map w = m^{1-alpha} |p + Q|^{gamma-2} (p + Q)."""
        r, rmag = self.shift(p)
        return m ** (1.0 - self.alpha) * self._pow(rmag, self.gamma - 2.0) * r

    def momentum(self, w: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`flux`: p = m^{-beta} |w|^{gamma'-2} w - Q."""
        wmag = np.sqrt(np.sum(w * w, axis=0))
        return self._pow(wmag, self.gamma_prime - 2.0) * w * m ** (-self.beta) - self.drift(w)

    @staticmethod
    def _pow(base: np.ndarray, expo: float) -> np.ndarray:
        """base**expo with base >= 0, returning 0 at base = 0 for expo <= 0."""
        if expo >= 0.0:
            return base**expo
        safe = np.where(base > 0.0, base, 1.0)
        return np.where(base > 0.0, safe**expo, 0.0)

    def eval(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray) -> HamiltonianValues:
        _check_floor(m, self.m_min)
        r, rmag = self.shift(p)
        g = self.gamma
        H = rmag**g / (g * m**self.alpha) - self.coupling.f(grid, m)
        dpH = self._pow(rmag, g - 2.0) * r / m**self.alpha
        dmH = (
            -self.alpha * rmag**g / (g * m ** (self.alpha + 1.0))
            - self.coupling.df_dm(grid, m)
        )
        return HamiltonianValues(H=H, dpH=dpH, dmH=dmH)

    def eval_F_H(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray):
        _check_floor(m, self.m_min)
        _, rmag = self.shift(p)
        g, a = self.gamma, self.alpha
        FH = m ** (1.0 - a) * rmag**g / ((1.0 - a) * g) - self.coupling.F(grid, m)
        return FH, self.flux(p, m) / (1.0 - a)

    def legendre(self, grid: TorusGrid, q: np.ndarray, m: np.ndarray) -> np.ndarray:
        """L(x, q, m) = -q . Q + m^{alpha/(gamma-1)} |q|^{gamma'} / gamma' + f."""
        _check_floor(m, self.m_min)
        gp = self.gamma_prime
        qmag = np.sqrt(np.sum(q * q, axis=0))
        drift_dot = np.sum(q * self.drift(q), axis=0)
        return (
            -drift_dot
            + m ** (self.alpha * (gp - 1.0)) * qmag**gp / gp
            + self.coupling.f(grid, m)
        )

    def hess_pp(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray) -> np.ndarray:
        r, rmag = self.shift(p)
        g = self.gamma
        d = self.dim
        eye = np.eye(d).reshape((d, d) + (1,) * rmag.ndim)
        rr = r[:, None, ...] * r[None, :, ...]
        return (
            self._pow(rmag, g - 2.0) * eye + (g - 2.0) * self._pow(rmag, g - 4.0) * rr
        ) / m**self.alpha

    def dm_dpH(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray) -> np.ndarray:
        r, rmag = self.shift(p)
        return -self.alpha * self._pow(rmag, self.gamma - 2.0) * r / m ** (
            self.alpha + 1.0
        )


@dataclass(frozen=True)
class MonotonicityReport:
    """Sampled curvature/monotonicity indicators of a model.

    ``min_eig_pp``: smallest eigenvalue of the p-Hessian of H;
    ``max_dm_h``: largest dH/dm (should be <= 0 for crowd-averse models);
    ``min_eig_block``: smallest eigenvalue of the (d+1) x (d+1) block
    [[2 Hpp, dm dpH], [dm dpH^T, -(2/m) dmH]] whose nonnegativity is the
    standard sufficient condition for uniqueness.
    """

    min_eig_pp: float
    max_dm_h: float
    min_eig_block: float
    n_samples: int


def check_monotonicity(model, grid: TorusGrid) -> MonotonicityReport:
    """Report the monotonicity indicators above on 256 seeded samples:
    p standard normal, m uniform in [0.2, 2]."""
    S = 256
    rng = np.random.default_rng(0)
    d = grid.dim
    p = rng.standard_normal((d, S))
    m = rng.uniform(0.2, 2.0, S)

    # The spatial offset s(x) is additive in f, so it drops out of every
    # derivative sampled here; sampling (p, m) pairs alone suffices.
    hpp = model.hess_pp(grid, p, m)  # (d, d, S)
    dmdp = model.dm_dpH(grid, p, m)  # (d, S)
    if isinstance(model, SeparableHamiltonian):
        dmH = -model.coupling._poly_val(m, deriv=1)
    else:
        _, rmag = model.shift(p)
        dmH = -model.alpha * rmag**model.gamma / (
            model.gamma * m ** (model.alpha + 1.0)
        ) - model.coupling._poly_val(m, deriv=1)

    block = np.zeros((S, d + 1, d + 1))
    block[:, :d, :d] = 2.0 * np.moveaxis(hpp, -1, 0)
    block[:, :d, d] = dmdp.T
    block[:, d, :d] = dmdp.T
    block[:, d, d] = -(2.0 / m) * dmH
    eigs_block = np.linalg.eigvalsh(block)
    eigs_pp = np.linalg.eigvalsh(np.moveaxis(hpp, -1, 0))
    return MonotonicityReport(
        min_eig_pp=float(eigs_pp.min()),
        max_dm_h=float(dmH.max()),
        min_eig_block=float(eigs_block.min()),
        n_samples=S,
    )
