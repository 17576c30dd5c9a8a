"""Hamiltonian models: separable and congestion families.

A coupling is a local cost f(x, m) = p(m) + s(x) with p polynomial and
s a finite combination of torus harmonics; ``Coupling.polyval`` gives p
and its m-derivatives. Its antiderivative in m is
normalized so that F(x, 1) = 0, which fixes the additive constant that
the payoff functionals would otherwise inherit.

Two model families are provided:

* :class:`SeparableHamiltonian`: H(x, p, m) = |p|^2 / 2 - f(x, m).
* :class:`CongestionHamiltonian`: H(x, p, m) = |p + Q|^gamma /
  (gamma m^alpha) - f(x, m) with a constant drift vector Q, gamma > 1,
  alpha >= 0, alpha != 1, all finite. Every congestion variational form
  carries the conjugate exponent gamma' = gamma / (gamma - 1), so the
  model rejects gamma <= 1 at construction and no other module restates
  the rule.

Both families depend on p only through r = p + Q (Q = 0 for the
separable model), so their second derivatives are radial:
H_pp = a I + b r r^T and dm H_p = c r. ``second_derivatives(grid, p, m)``
returns (r, a, b, c), each coefficient shaped like m or a scalar; the
separable model returns (p, 1, 0, 0). No model builds a (d, d, ...)
array, and :func:`check_monotonicity` reads its eigenvalues from the
coefficients.

The congestion change of variables lives here and nowhere else:
``drift`` (Q against a field, with the component-count check), ``shift``
(p + Q and its magnitude), ``flux`` (w = m^{1-alpha}|p+Q|^{gamma-2}(p+Q))
and its inverse ``momentum``.

Evaluating a congestion model at a density entry below ``M_FLOOR``
(1e-10) raises :class:`~mfgkit.errors.PositivityError`; its power laws
are not continued past the floor. Every term of a separable model is
polynomial in m, so it evaluates at any density; ``M_FLOOR`` is also the
floor the finite-horizon solver checks once on the solved densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ModelError, PositivityError
from .grids import TorusGrid, read_only
from .spectral import Sampler

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


def _horner(x, c):
    """``polyval(x, c)`` of a 1-D coefficient array c, lowest degree first:
    c[-1] + 0 x, then one multiply-add per lower coefficient."""
    value = c[-1] + x * 0
    for coef in c[-2::-1]:
        value = coef + value * x
    return value


def _polyder(c, cnt: int):
    """``polyder(c, cnt)``: (c[:1] * 0,) when cnt >= len(c), else cnt
    passes of j c[j]."""
    if cnt >= len(c):
        return c[:1] * 0
    for _ in range(cnt):
        c = c[1:] * np.arange(1, len(c))
    return c


def _polyint(c):
    """``polyint(c)``: (0, c[0], c[1] / 2, ...), or (0,) when c is one zero.
    numpy's constant term, c[0] * 0 + (0 - P(0)), is +0.0 for finite c."""
    if len(c) == 1 and c[0] == 0:
        return np.zeros(1)
    return np.concatenate([np.zeros(1), c / np.arange(1, len(c) + 1)])


@dataclass(frozen=True)
class Coupling:
    """Local cost f(x, m) = sum_j poly[j] m^j + s(x), every poly[j] finite.

    p, p', p'' and the antiderivative P are evaluated by Horner's rule on
    coefficients built once here, every operation in ``numpy.polynomial``'s
    order, so each bit, signed zeros included, is that of its ``polyval`` on
    its ``polyder``/``polyint`` coefficients, without loading the module.
    """

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
        p = np.array(self.poly)
        object.__setattr__(self, "_derivs", (p, _polyder(p, 1), _polyder(p, 2)))
        object.__setattr__(self, "_antider", _polyint(p))
        object.__setattr__(self, "_antider_at_1", _horner(1.0, self._antider))
        object.__setattr__(self, "_spatial", {})

    def spatial(self, grid: TorusGrid) -> np.ndarray:
        """s(x) on ``grid``, built once per grid and returned read-only."""
        if grid not in self._spatial:
            s = np.zeros(grid.shape)
            for term in self.terms:
                s = s + term.evaluate(grid)
            self._spatial[grid] = read_only(s)
        return self._spatial[grid]

    def polyval(self, m, deriv: int = 0):
        """p(m), p'(m) or p''(m) for deriv 0, 1 or 2, shaped like m. Since s(x)
        drops out of every m-derivative, p' and p'' are f_m and f_mm."""
        return _horner(m, self._derivs[deriv])

    def f(self, grid: TorusGrid, m: np.ndarray) -> np.ndarray:
        return self.polyval(m) + self.spatial(grid)

    def F(self, grid: TorusGrid, m: np.ndarray) -> np.ndarray:
        """Normalized antiderivative, F(x, m) = int_1^m f(x, z) dz."""
        return (_horner(m, self._antider) - self._antider_at_1) + self.spatial(grid) * (m - 1.0)

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
            if self.polyval(zhi) >= target.max() or zhi > 1e12:
                break
            zhi *= 2.0
        probe = np.linspace(0.0, zhi, 64)
        if np.any(self.polyval(probe, deriv=1) <= 0.0):
            raise ModelError(
                "conjugate requires a strictly increasing coupling in m"
            )
        lo = np.zeros_like(target)
        hi = np.full_like(target, zhi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            low_side = self.polyval(mid) < target
            lo = np.where(low_side, mid, lo)
            hi = np.where(low_side, hi, mid)
        z = np.where(target <= self.polyval(0.0), 0.0, 0.5 * (lo + hi))
        return np.asarray(w) * z - self.F(grid, z)


@dataclass(frozen=True)
class HamiltonianValues:
    """Pointwise H and its first derivatives at (x, p, m)."""

    H: np.ndarray
    dpH: np.ndarray
    dmH: np.ndarray


def _check_floor(m: np.ndarray) -> None:
    mmin = float(np.min(m))
    if not np.isfinite(mmin) or mmin < M_FLOOR:
        raise PositivityError(
            f"density entry {mmin:.3e} below the evaluation floor {M_FLOOR:.1e}"
        )


@dataclass(frozen=True)
class SeparableHamiltonian:
    """H(x, p, m) = H0(p) - f(x, m) with H0(p) = |p|^2 / 2, whose conjugate
    is L0(q) = |q|^2 / 2."""

    coupling: Coupling = field(default_factory=Coupling)

    def eval(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray) -> HamiltonianValues:
        H = 0.5 * np.sum(p * p, axis=0) - self.coupling.f(grid, m)
        return HamiltonianValues(
            H=H,
            dpH=p,
            dmH=-self.coupling.polyval(m, deriv=1) + np.zeros_like(H),
        )

    def eval_F_H(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray):
        """Antiderivative of H in m and its p-gradient: (F_H, dp F_H)."""
        FH = m * (0.5 * np.sum(p * p, axis=0)) - self.coupling.F(grid, m)
        return FH, m * p

    def legendre(self, grid: TorusGrid, q: np.ndarray, m: np.ndarray) -> np.ndarray:
        return 0.5 * np.sum(q * q, axis=0) + self.coupling.f(grid, m)

    def second_derivatives(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray):
        """(r, a, b, c) = (p, 1, 0, 0): H_pp = I and dm H_p = 0."""
        return p, 1.0, 0.0, 0.0


@dataclass(frozen=True)
class CongestionHamiltonian:
    """H(x, p, m) = |p + Q|^gamma / (gamma m^alpha) - f(x, m)."""

    Q: tuple[float, ...]
    alpha: float
    gamma: float
    coupling: Coupling = field(default_factory=Coupling)

    def __post_init__(self):
        object.__setattr__(self, "Q", tuple(float(v) for v in self.Q))
        for name, value in (("alpha", self.alpha), ("gamma", self.gamma), ("Q", self.Q)):
            if not np.all(np.isfinite(value)):
                raise ModelError(f"{name} must be finite, got {value}")
        if not self.gamma > 1.0:
            raise ModelError(
                f"the congestion model requires gamma > 1, since its conjugate exponent "
                f"gamma' = gamma/(gamma - 1) enters every variational form (got {self.gamma})"
            )
        if not self.alpha >= 0.0:
            raise ModelError(f"alpha must be >= 0, got {self.alpha}")
        if self.alpha == 1.0:
            raise ModelError("alpha = 1 is excluded (the m-antiderivative degenerates)")

    @property
    def dim(self) -> int:
        return len(self.Q)

    @property
    def gamma_prime(self) -> float:
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
        _check_floor(m)
        r, rmag = self.shift(p)
        g = self.gamma
        H = rmag**g / (g * m**self.alpha) - self.coupling.f(grid, m)
        dpH = self._pow(rmag, g - 2.0) * r / m**self.alpha
        dmH = (
            -self.alpha * rmag**g / (g * m ** (self.alpha + 1.0))
            - self.coupling.polyval(m, deriv=1)
        )
        return HamiltonianValues(H=H, dpH=dpH, dmH=dmH)

    def eval_F_H(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray):
        _check_floor(m)
        _, rmag = self.shift(p)
        g, a = self.gamma, self.alpha
        FH = m ** (1.0 - a) * rmag**g / ((1.0 - a) * g) - self.coupling.F(grid, m)
        return FH, self.flux(p, m) / (1.0 - a)

    def legendre(self, grid: TorusGrid, q: np.ndarray, m: np.ndarray) -> np.ndarray:
        """L(x, q, m) = -q . Q + m^{alpha/(gamma-1)} |q|^{gamma'} / gamma' + f."""
        _check_floor(m)
        gp = self.gamma_prime
        qmag = np.sqrt(np.sum(q * q, axis=0))
        drift_dot = np.sum(q * self.drift(q), axis=0)
        return (
            -drift_dot
            + m ** (self.alpha * (gp - 1.0)) * qmag**gp / gp
            + self.coupling.f(grid, m)
        )

    def second_derivatives(self, grid: TorusGrid, p: np.ndarray, m: np.ndarray):
        """(r, a, b, c) with r = p + Q, a = |r|^{gamma-2} / m^alpha,
        b = (gamma - 2) |r|^{gamma-4} / m^alpha and c = -alpha a / m."""
        r, rmag = self.shift(p)
        g, scale = self.gamma, m**self.alpha
        a = self._pow(rmag, g - 2.0) / scale
        b = (g - 2.0) * self._pow(rmag, g - 4.0) / scale
        return r, a, b, -self.alpha * a / m


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
    """Report the monotonicity indicators above on 256 samples: p standard
    normal, drawn by ``spectral.Sampler(0)``, and m at the ends 0.2 and 2
    of its range, then uniform in [0.2, 2] from the same sampler. A model
    whose derivatives overflow there (alpha = 437, say, at m = 0.2) raises
    :class:`ModelError`, whatever the draw.

    Both are read in closed form from the radial second derivatives: H_pp
    has the eigenvalue a + b |r|^2 along r and, for d > 1, a on the
    complement of r, where the block has 2a; on the span of r and the
    m axis the block is [[2 (a + b |r|^2), c |r|], [c |r|, -(2/m) dmH]].
    """
    S = 256
    rng = Sampler(0)
    d = grid.dim
    p = rng.standard_normal((d, S))
    m = np.concatenate([(0.2, 2.0), rng.uniform(0.2, 2.0, S - 2)])

    # The spatial offset s(x) is additive in f, so it drops out of every
    # derivative sampled here: dmH is read from the model with s dropped, on
    # a one-axis grid of the samples. An overflow is caught by the
    # finiteness check, not warned about.
    polynomial = replace(model, coupling=Coupling(model.coupling.poly))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r, a, b, c = model.second_derivatives(grid, p, m)
        rmag = np.sqrt(np.sum(r * r, axis=0))
        dmH = polynomial.eval(TorusGrid((S,)), p, m).dmH
        along = a + b * rmag**2
        x, y, z = 2.0 * along, c * rmag, -(2.0 / m) * dmH
        if not all(np.all(np.isfinite(v)) for v in (a, x, y, z)):
            raise ModelError("the model's derivatives overflow at the sampled states")
        # The 2 x 2 block's roots are mid -+ rad. When mid > 0 the smaller is
        # taken as det / larger, which does not cancel, and |x|, |y|, |z| are
        # at most the larger root, so no product overflows.
        mid, rad = 0.5 * (x + z), np.hypot(0.5 * (x - z), y)
        big = mid + rad
        small = np.where(mid > 0.0, x * (z / big) - y * (y / big), mid - rad)
    if d > 1:
        along, small = np.minimum(along, a), np.minimum(small, 2.0 * a)
    return MonotonicityReport(
        min_eig_pp=float(np.min(along)),
        max_dm_h=float(dmH.max()),
        min_eig_block=float(np.min(small)),
        n_samples=S,
    )
