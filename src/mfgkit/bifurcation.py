"""Time-periodic solutions branching off the uniform state.

Setting: quadratic kinetic part, unit viscosity, x-independent coupling
f with f(m) decreasing near m = 1. After rescaling time to the unit
circle (period T becomes a parameter) and writing m = 1 + M,
u = U - t T f(1), the periodic system on Q = T^d x S^1 is G = 0 with

    G1 = (1/T) M_t - div(grad M) - div(grad U) - div(M grad U),
    G2 = -(1/T) U_t - div(grad U) + |grad U|^2 / 2
         - (f(1 + M) - f(1)) + Hbar,
    G3 = int_Q M,

subject to int_Q U = 0 and 1 + M > 0. The trivial branch is
(U, M, Hbar) = 0 for every T. G is the exact gradient of the scalar
potential ``eval_g`` (G1 paired against U-variations, G2 against M, G3
against Hbar); on the discrete grid this identity is exact because the
Laplacians inside G are realized as div(grad(.)).

Linearizing at the trivial branch and scaling the rows by T gives the
symmetric operator

    A(T)[v, mu, l] = ( mu_t + T lam (mu + v),
                      -v_t + T lam v - T f'(1) mu + T c l,
                       T c <mu> ),     lam = -Laplacian,

acting on zero-mean v (the discrete v-space also drops one pure grid
artifact, see :func:`_kept`); the multiplier coordinate is scaled by
c = 4 pi^2 (the first nonzero Laplacian eigenvalue) so that the
(mean-mu, l) sub-block has O(1) entries and a spectral gap bound on the
(4d+1)-th singular value, the first above the 4d-dimensional kernel at
T_bar, is meaningful. A(T) is a Fourier multiplier: per spatial mode
lam and temporal frequency omega = 2 pi n it is the Hermitian 2x2 block
of :func:`_symbol_blocks`, and kernel counts, the eigenvalue crossing
and the spectrum all come from batched eigendecompositions of those
blocks. The block has characteristic polynomial

    h(T, s) = -s^2 + s T (lam - f'(1)) + T^2 lam (lam + f'(1)) + omega^2

(up to sign), so the eigenvalue branch through zero at the critical
period T_bar = 1 / sqrt(-4 pi^2 - f'(1)) is the quadratic root
implemented in closed form by :func:`sigma_h_root`. Kernel dimension at
T_bar (and at each overtone N T_bar) is 4 d, spanned by products of
first spatial harmonics and the temporal profiles

    mu = cos(2 pi N t),  v = kappa sin(2 pi N t) - cos(2 pi N t),
    mu = sin(2 pi N t),  v = -kappa cos(2 pi N t) - sin(2 pi N t),

with kappa = sqrt(-4 pi^2 - f'(1)) / (2 pi); the multiplier coordinate l
is 0 in every kernel field.

``continue_branch`` follows the nontrivial branch by amplitude
continuation: the state is pinned by <(U, M), z1> = a against a
normalized kernel direction z1 and by orthogonality to the rest of the
null space of G's linearization at the trivial state and T_bar (which
fixes the time/space translation phases), with T and Hbar unknown. That
null space is larger than A(T)'s kernel, because G's Laplacians are
div(grad(.)) with the Nyquist zeroed: it adds the structural Nyquist
modes and, in d >= 2, aliased copies of the kernel fields. The system is
made square by Keller bordering: one unfolding parameter lam per null
direction but z1, added to (G1, G2). Discrete translation equivariance
makes the unbordered system consistent on resolved grids, so lam -> 0
at the solution, and max |lam| is reported. On a d-D grid the branch
is the x1 roll: G commutes with translations along x2..xd (f does not
depend on x and the kinetic part is |p|^2 / 2), z1 is invariant under
them and the bordered system is regular, so its solution is constant
along x2..xd and equal to the 1-D branch on the x1 profile (the
fixed-point-subspace reduction of the equivariant Hopf theorem; Golubitsky,
Stewart & Schaeffer 1988, ch. XVI-XVII). The branch is
therefore always solved on the 1-D grid, where the bordering has 8 null
directions and 7 unfolding parameters whatever n and n_t (so max |lam|,
``solvability_inf``, is over those 7), and each point is embedded once
on the caller's grid. Its residual is re-evaluated
there, and :func:`kernel_at`, :func:`sigma_from_operator` and
:func:`crossing_number` keep reading A(T), with its 4d-dimensional kernel,
on the caller's grid. Each point is solved by
:func:`mfgkit._newton_krylov.newton`, the damped Newton–Krylov loop
shared with the finite-horizon solvers. Each step is a GMRES solve with
the Jacobian applied at FFT cost, preconditioned by the bordered
linearization frozen at the trivial state: per-mode 2x2 blocks on the
complement of the null space, closed by a small dense Schur complement
(see :class:`_Branch`, which also supplies the feasibility test and the
stopping norm). The border columns that do not change, the mass
field and the q_j, go through the frozen pseudo-inverse once per branch,
so a step transforms only its T column. The half-period time shift maps
the branch point at a to the one at -a, so T - T_bar and Hbar are even in
a, and the part of (U, M) off z1 is even to leading order (Golubitsky,
Stewart & Schaeffer 1988). Each continued point is therefore predicted by
keeping a z1 and scaling those parts and lam by (a / a_prev)^2, an
O(a^3) guess (Allgower & Georg 2003): on fine amplitude ladders it
converges in one Newton step. The residual (whose linear part is
:func:`_linear_blocks`), its Jacobian action, the frozen preconditioner,
the kernel and the spectrum all read the per-mode blocks of
:func:`_mode_blocks`. The kernel of A(T) and this null space come from
one routine, :func:`_null_basis`, and the closed-form kernel fields (z1
among them) from one array, :func:`_kernel_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._newton_krylov import Evaluation, newton
from .errors import CheckError, ModelError, PositivityError, SolverError
from .grids import SpaceTimeGrid, TorusGrid, read_only
from . import spectral
from .hamiltonians import Coupling

__all__ = [
    "LAMBDA1",
    "ELL_SCALE",
    "PeriodicState",
    "default_periodic_coupling",
    "critical_period",
    "eval_G",
    "eval_g",
    "periodic_grid",
    "KernelReport",
    "kernel_at",
    "analytic_kernel_fields",
    "sigma_h_root",
    "sigma_slope_exact",
    "sigma_from_operator",
    "sigma_slope",
    "crossing_number",
    "BranchPoint",
    "BifurcationBranch",
    "continue_branch",
    "map_to_original",
]

LAMBDA1 = 4.0 * np.pi**2
ELL_SCALE = LAMBDA1
# Per-mode block eigenvalues of at most this magnitude times T are null
# directions, of A(T) and of the frozen branch linearization alike: the
# blocks are T-scaled, so an absolute bound would flag every omega = 0
# block as T -> 0.
_NULL_TOL = 1e-8
_BRANCH_TOL = 1e-12
_MAX_NEWTON = 80


def default_periodic_coupling(fprime1: float, cubic: float = 1.0, f1: float = 0.0) -> Coupling:
    """f(m) = f1 + fprime1 (m - 1) + cubic (m - 1)^3 as a polynomial coupling."""
    for name, value in (("fprime1", fprime1), ("cubic", cubic), ("f1", f1)):
        if not np.isfinite(value):
            raise ModelError(f"{name} must be finite, got {value}")
    c0 = f1 - fprime1 - cubic
    c1 = fprime1 + 3.0 * cubic
    c2 = -3.0 * cubic
    c3 = cubic
    return Coupling(poly=(c0, c1, c2, c3))


def _fprime1(coupling: Coupling) -> float:
    """f'(1) of the coupling, which must be x-independent."""
    if coupling.terms:
        raise ModelError("the periodic-branch machinery needs an x-independent coupling")
    return float(coupling.polyval(1.0, deriv=1))


def critical_period(fprime1: float, overtone: int = 1) -> float:
    """Critical period T_bar (or its overtone multiple N T_bar).

    Requires a finite f'(1) in the kernel-isolation window
    -8 pi^2 < f'(1) < -4 pi^2; the violated bound is named in the error.
    """
    if overtone < 1:
        raise ModelError(f"overtone must be >= 1, got {overtone}")
    if not np.isfinite(fprime1):
        raise ModelError(f"fprime1 must be finite, got {fprime1}")
    if not fprime1 > -8.0 * np.pi**2:
        raise ModelError(
            f"f'(1) = {fprime1:.6g} violates the lower window bound -8 pi^2 "
            f"= {-8.0 * np.pi**2:.6f}"
        )
    if not fprime1 < -4.0 * np.pi**2:
        raise ModelError(
            f"f'(1) = {fprime1:.6g} violates the upper window bound -4 pi^2 "
            f"= {-4.0 * np.pi**2:.6f}"
        )
    return overtone / np.sqrt(-4.0 * np.pi**2 - fprime1)


def periodic_grid(dim: int = 1, n: int = 16, n_t: int = 16) -> SpaceTimeGrid:
    """Unit-period cylinder grid used by the rescaled periodic system."""
    return SpaceTimeGrid(TorusGrid((n,) * dim), n_t=n_t, horizon=1.0, periodic_time=True)


@dataclass(frozen=True)
class PeriodicState:
    """Rescaled periodic fields (U, M) with multiplier Hbar and period T."""

    grid: SpaceTimeGrid
    U: np.ndarray = field(repr=False)
    M: np.ndarray = field(repr=False)
    Hbar: float = 0.0
    T: float = 1.0

    def __post_init__(self):
        if not self.grid.periodic_time or self.grid.horizon != 1.0:
            raise ModelError("PeriodicState lives on a unit-period cylinder grid")
        for name in ("U", "M"):
            object.__setattr__(self, name, read_only(np.array(getattr(self, name), dtype=float)))
        if self.U.shape != self.grid.field_shape or self.M.shape != self.grid.field_shape:
            raise ModelError("periodic fields must match the cylinder grid")
        if not self.T > 0.0:
            raise ModelError(f"period must be positive, got {self.T}")
        if not abs(float(self.U.mean())) <= 1e-8:
            raise ModelError("U must have zero space-time mean")
        if not float(self.M.min()) > -1.0:
            raise PositivityError("1 + M must stay positive")


def _linear_blocks(st: SpaceTimeGrid, T: float) -> np.ndarray:
    """The linear part of (G1, G2) as :func:`spectral.modewise` blocks on
    (U, M): the :func:`_mode_blocks` with f'(1) = 0 and the Nyquist-zeroed
    div-grad symbol, divided by T. The f'(1) M term stays in the coupling."""
    return spectral.rfft_modes(_mode_blocks(st, T, 0.0, -st.space.divgrad_symbol)) / T


def _residual(st: SpaceTimeGrid, coupling: Coupling, U, M, Hbar: float, T: float):
    """(G1, G2) of the rescaled periodic system on raw fields, with the
    grad U and :func:`_linear_blocks` they were built from."""
    sp = st.space
    gradU = spectral.gradient(sp, U)
    blocks = _linear_blocks(st, T)
    G1, G2 = spectral.modewise(blocks, np.stack([U, M]))
    f1 = float(coupling.polyval(1.0))
    G1 = G1 - spectral.divergence(sp, M * gradU)
    G2 = G2 + 0.5 * np.sum(gradU * gradU, axis=0) - (coupling.polyval(1.0 + M) - f1) + Hbar
    return G1, G2, gradU, blocks


def eval_G(state: PeriodicState, coupling: Coupling):
    """Residual triple (G1, G2, G3) of the rescaled periodic system."""
    _fprime1(coupling)
    G1, G2, _, _ = _residual(state.grid, coupling, state.U, state.M, state.Hbar, state.T)
    return G1, G2, float(state.M.mean())


def eval_g(state: PeriodicState, coupling: Coupling) -> float:
    """Scalar potential whose exact discrete gradient is (G1, G2, G3)."""
    _fprime1(coupling)
    st = state.grid
    sp = st.space
    U, M, T = state.U, state.M, state.T
    gradU = spectral.gradient(sp, U)
    gradM = spectral.gradient(sp, M)
    f1 = float(coupling.polyval(1.0))
    integrand = (
        -spectral.time_derivative_periodic(st, U) * M / T
        + np.sum(gradU * gradM, axis=0)
        + 0.5 * np.sum(gradU * gradU, axis=0) * (M + 1.0)
        - coupling.F(sp, 1.0 + M)
        + f1 * M
        + state.Hbar * M
    )
    return float(integrand.mean())


# ---------------------------------------------------------------------------
# Linearized operator at the trivial branch.


def _mode_blocks(st: SpaceTimeGrid, T: float, fprime1: float, lam: np.ndarray) -> np.ndarray:
    """T times the linearization of (G1, G2) at the trivial state, per mode.

    Returns shape (n_t, *space, 2, 2), modes in FFT order: with lam the
    per-mode eigenvalue of -Laplacian and i omega the d/dt symbol
    (``time_derivative_symbol``, Nyquist zeroed), the Hermitian block
    acting on the Fourier coefficients (v, mu) is

        [[T lam,            i omega + T lam],
         [-i omega + T lam, -T f'(1)       ]].
    """
    dt = st.time_derivative_symbol.reshape((-1,) + (1,) * st.space.dim)
    blocks = np.empty(st.field_shape + (2, 2), dtype=complex)
    blocks[..., 0, 0] = T * lam
    blocks[..., 0, 1] = dt + T * lam
    blocks[..., 1, 0] = -dt + T * lam
    blocks[..., 1, 1] = -T * fprime1
    return blocks


def _symbol_blocks(st: SpaceTimeGrid, T: float, fprime1: float) -> np.ndarray:
    """A(T) as one 2x2 Hermitian block per space-time Fourier mode.

    These are the :func:`_mode_blocks` with lam = ``-space.laplacian_symbol``
    (Nyquist kept). The coefficients c of f = sum c e^{2 pi i (n t + k.x)}
    are orthonormal coordinates for mean(v1 v2) + mean(mu1 mu2) + l1 l2, so
    the block eigenvalues over all modes are the eigenvalues of A(T). The
    constant v is outside the domain; at the zero mode its slot carries the
    multiplier l instead, which gives the (l, mean-mu) block
    [[0, T c], [T c, -T f'(1)]].
    """
    blocks = _mode_blocks(st, T, fprime1, -st.space.laplacian_symbol)
    Tc = T * ELL_SCALE
    blocks[(0,) * (1 + st.space.dim)] = [[0.0, Tc], [Tc, -T * fprime1]]
    return blocks


def _orthonormal_span(rows: np.ndarray, rank: int) -> np.ndarray:
    """Euclidean-orthonormal basis, shape (rank, n), of the span of ``rows``
    (which has that rank), from the leading eigenvectors of their Gram matrix."""
    gram, W = np.linalg.eigh(rows @ rows.T)
    return (W[:, -rank:] / np.sqrt(gram[-rank:])).T @ rows


def _null_basis(vecs: np.ndarray, null: np.ndarray) -> np.ndarray:
    """Basis, shape (p, 2K) and orthonormal for mean(v1 v2) + mean(mu1 mu2),
    of the real grid fields (v, mu) spanned by the p per-mode block
    eigenvectors (columns of ``vecs``) that ``null`` flags. A mode and its
    conjugate repeat one real span: the 2p real and imaginary parts have rank p."""
    shape = null.shape[:-1]
    K = int(np.prod(shape))
    p = int(null.sum())
    coef = np.zeros((p, 2) + shape, dtype=complex)
    coef[(np.arange(p), slice(None)) + np.nonzero(null)[:-1]] = np.swapaxes(vecs, -1, -2)[null]
    fields = np.fft.ifftn(coef, axes=tuple(range(2, coef.ndim)), norm="forward")
    rows = np.concatenate([fields.real, fields.imag]).reshape(2 * p, 2 * K)
    return _orthonormal_span(rows / np.sqrt(K), p) * np.sqrt(K)


def _kept(st: SpaceTimeGrid, values: np.ndarray) -> np.ndarray:
    """Mask of the per-block eigen- or singular values that belong to A(T).

    It drops the v slot of the temporal-Nyquist, spatially constant mode.
    That sawtooth is a pure grid artifact: the d/dt symbol drops the
    unpaired Nyquist frequency and lam is zero there, so its row and
    column vanish at every T, and keeping it would hand the discrete
    operator a kernel direction the continuum problem does not have.
    Being an exact zero, it is the value of least magnitude in its block.
    """
    keep = np.ones(values.shape, dtype=bool)
    nyquist = (st.n_t // 2,) + (0,) * st.space.dim
    keep[nyquist + (int(np.argmin(np.abs(values[nyquist]))),)] = False
    return keep


def _eigenvalues(st: SpaceTimeGrid, T: float, fprime1: float) -> np.ndarray:
    """The 2K - 1 eigenvalues of A(T), unsorted."""
    eigs = np.linalg.eigvalsh(_symbol_blocks(st, T, fprime1))
    return eigs[_kept(st, eigs)]


@dataclass
class KernelReport:
    """Kernel data of A(T) at one period."""

    T: float
    singular_values: np.ndarray
    kernel_dim: int
    adjoint_kernel_dim: int
    fifth_smallest: float
    kernel_fields: list
    trig_energy_fraction: float | None


def analytic_kernel_fields(st: SpaceTimeGrid, fprime1: float, temporal_freq: int = 1) -> list:
    """The 4d closed-form kernel pairs (v, mu) at T = N T_bar."""
    sp = st.space
    kappa = np.sqrt(-4.0 * np.pi**2 - fprime1) / (2.0 * np.pi)
    t = st.times.reshape((st.n_t,) + (1,) * sp.dim)
    wt = 2.0 * np.pi * temporal_freq * t
    out = []
    for axis in range(sp.dim):
        x = sp.coords[axis]
        for chi in (np.cos(2.0 * np.pi * x), np.sin(2.0 * np.pi * x)):
            mu_a = np.cos(wt) * chi
            v_a = (kappa * np.sin(wt) - np.cos(wt)) * chi
            mu_b = np.sin(wt) * chi
            v_b = (-kappa * np.cos(wt) - np.sin(wt)) * chi
            out.append((v_a, mu_a))
            out.append((v_b, mu_b))
    return out


def _kernel_rows(st: SpaceTimeGrid, fprime1: float, temporal_freq: int = 1) -> np.ndarray:
    """The closed-form kernel pairs as rows (v, mu), shape (4d, 2K), each
    normalized for mean(v v) + mean(mu mu). The rows are orthogonal on
    grids that resolve the frequency 2N; row 0 is the continuation
    direction z1."""
    rows = []
    for v, mu in analytic_kernel_fields(st, fprime1, temporal_freq):
        nrm = np.sqrt(float(np.mean(v * v) + np.mean(mu * mu)))
        rows.append(np.concatenate([v.ravel(), mu.ravel()]) / nrm)
    return np.array(rows)


def kernel_at(
    st: SpaceTimeGrid,
    T: float,
    fprime1: float,
    check_trig_span: bool = False,
    temporal_freq: int = 1,
) -> KernelReport:
    """Kernel count of A(T) from its symbol blocks, optionally with trig-span energy.

    The singular values of the symmetric A(T) are the magnitudes of its
    block eigenvalues. The kernel fields are the :func:`_null_basis` of
    the eigenvalues up to ``_NULL_TOL * T``, as (v, mu, l) triples with l = 0:
    the (l, mean-mu) block has determinant -T^2 c^2, regular for T > 0.
    """
    if not T > 0.0:
        raise ModelError(f"period must be positive, got {T}")
    blocks = _symbol_blocks(st, T, fprime1)
    eigs, vecs = np.linalg.eigh(blocks)
    keep = _kept(st, eigs)
    svals = np.sort(np.abs(eigs[keep]))
    # Count the adjoint kernel from an independent factorization of the
    # conjugate-transposed blocks instead of leaning on their symmetry.
    adj = np.linalg.svd(np.conj(np.swapaxes(blocks, -1, -2)), compute_uv=False)
    adj_dim = int(np.sum(adj[_kept(st, adj)] <= _NULL_TOL * T))
    basis = _null_basis(vecs, keep & (np.abs(eigs) <= _NULL_TOL * T))
    K = basis.shape[1] // 2
    frac = None
    if check_trig_span and len(basis):
        proj = basis @ _kernel_rows(st, fprime1, temporal_freq).T / K
        frac = float(np.min(np.sum(proj * proj, axis=1) / (np.sum(basis * basis, axis=1) / K)))
    shape = st.field_shape
    return KernelReport(
        T=T,
        singular_values=svals,
        kernel_dim=len(basis),
        adjoint_kernel_dim=adj_dim,
        fifth_smallest=float(svals[4]) if len(svals) > 4 else float("nan"),
        kernel_fields=[(r[:K].reshape(shape), r[K:].reshape(shape), 0.0) for r in basis],
        trig_energy_fraction=frac,
    )


def sigma_h_root(T: float, fprime1: float) -> float:
    """Near-zero root of the first-harmonic block polynomial h(T, sigma)."""
    lam = LAMBDA1
    b = T * (lam - fprime1)
    c = T**2 * lam * (lam + fprime1) + 4.0 * np.pi**2
    disc = np.sqrt(b * b + 4.0 * c)
    roots = np.array([(b - disc) / 2.0, (b + disc) / 2.0])
    return float(roots[np.argmin(np.abs(roots))])


def sigma_slope_exact(fprime1: float) -> float:
    """d sigma / d T of the near-zero branch at T_bar (closed form)."""
    lam = LAMBDA1
    return 2.0 * lam * (-lam - fprime1) / (lam - fprime1)


def sigma_from_operator(st: SpaceTimeGrid, T: float, fprime1: float) -> dict:
    """Numeric near-zero eigenvalue of A(T) vs the closed-form h-root."""
    eigs = _eigenvalues(st, T, fprime1)
    near = float(eigs[np.argmin(np.abs(eigs))])
    root = sigma_h_root(T, fprime1)
    return {"T": T, "eig": near, "h_root": root, "gap": abs(near - root)}


def sigma_slope(st: SpaceTimeGrid, fprime1: float) -> float:
    """Richardson-extrapolated numeric slope of sigma(T) at T_bar, from
    centered differences with steps 2e-3 and 1e-3."""
    Tbar = critical_period(fprime1)

    def centered(d):
        up = sigma_from_operator(st, Tbar + d, fprime1)["eig"]
        dn = sigma_from_operator(st, Tbar - d, fprime1)["eig"]
        return (up - dn) / (2.0 * d)

    s1 = centered(2e-3)
    s2 = centered(1e-3)
    return (4.0 * s2 - s1) / 3.0


def crossing_number(st: SpaceTimeGrid, fprime1: float) -> int:
    """Number of eigenvalues of A(T) crossing zero at T_bar: those in
    (-0.5, 0) at 0.95 T_bar against those in (0, 0.5) at 1.05 T_bar."""
    Tbar = critical_period(fprime1)
    lo = _eigenvalues(st, Tbar * (1.0 - 0.05), fprime1)
    hi = _eigenvalues(st, Tbar * (1.0 + 0.05), fprime1)
    below = int(np.sum((lo > -0.5) & (lo < 0.0)))
    above = int(np.sum((hi > 0.0) & (hi < 0.5)))
    if below != above:
        raise CheckError(f"ambiguous crossing count: {below} below vs {above} above T_bar")
    return below


# ---------------------------------------------------------------------------
# Amplitude continuation of the nontrivial branch.


@dataclass
class BranchPoint:
    """One converged branch point with its solver record: Newton steps, GMRES
    iterations per step, and the largest unfolding parameter |lambda|."""

    state: PeriodicState
    amplitude: float
    residual_inf: float
    kernel_energy_fraction: float
    dtM_over_M: float
    newton_iterations: int
    krylov_iterations: tuple[int, ...]
    solvability_inf: float


@dataclass
class BifurcationBranch:
    Tbar: float
    fprime1: float
    points: list[BranchPoint]


class _Branch:
    """The bordered continuation system at one pin amplitude.

    The unknown z stacks (U, M) flattened (2K values), Hbar, T and the
    unfolding parameters lam. The residual stacks

        (G1, G2) + sum_j lam_j q_j,      <(U, M), b> - target  for b in rows,

    with <x, y> = mean(x_U y_U) + mean(x_M y_M), rows = (mass, z1, q_1, ...)
    and target a at z1, 0 elsewhere. The fields z1, q_j are an orthonormal
    basis of the null space of the (U, M) linearization frozen at the
    trivial state and T_bar (see :func:`_frozen_inverse`), z1 the pinned
    kernel direction. That null space holds the 4d kernel fields, the
    structural modes whose U column and G1 row vanish identically (every
    k_i and omega at 0 or Nyquist), and, where the Nyquist-zeroed div-grad
    symbol aliases them, copies of the kernel fields. Bordering all but z1
    makes the system square and regular; T closes the z1 row.
    """

    def __init__(self, coupling: Coupling, st: SpaceTimeGrid, shape: tuple | None = None):
        self.coupling = coupling
        self.st = st
        # The grid an unresolved branch is reported on: ``st``'s, unless this
        # system solves the x1 profile of a roll on the caller's d-D grid.
        self.shape = st.field_shape if shape is None else shape
        self.K = K = st.n_t * st.space.num_nodes
        fprime1 = _fprime1(coupling)
        self.pinv, null = _frozen_inverse(st, fprime1)
        self.kernel = _kernel_rows(st, fprime1)
        z1 = self.kernel[0]
        sqK = np.sqrt(K)
        q = _orthonormal_span((null - np.outer(null @ z1 / K, z1)) / sqK, len(null) - 1) * sqK
        self.psi = np.vstack([z1, q])
        # Freed before the pseudo-inverse pass below, which sets the peak memory
        # of a branch.
        del null, q
        self.rows = np.vstack([np.concatenate([np.zeros(K), np.ones(K)]), self.psi])
        self.target = np.zeros(len(self.rows))
        # The images under the frozen pseudo-inverse of the fixed bordered
        # columns Hbar (the mass field) and lam (the q_j). The T column changes
        # between steps; :meth:`preconditioner` stacks its image per call.
        self.pcols = self.apply_pinv(np.vstack([self.rows[0], self.psi[1:]]))

    def split(self, z):
        """z -> (U, M, Hbar, T, lam)."""
        K, shape = self.K, self.st.field_shape
        U, M = z[:K].reshape(shape), z[K : 2 * K].reshape(shape)
        return U, M, z[2 * K], z[2 * K + 1], z[2 * K + 2 :]

    def evaluate(self, z) -> Evaluation:
        """The bordered rows. Newton stops on the sup-norm of (G1, G2) and the
        border rows without lam, so lam never enters the convergence test;
        grad U and the linear blocks at T are the data :meth:`linearize` reads."""
        U, M, Hbar, T, lam = self.split(z)
        G1, G2, gradU, blocks = _residual(self.st, self.coupling, U, M, Hbar, T)
        border = self.rows @ z[: 2 * self.K] / self.K - self.target
        G = np.concatenate([G1.ravel(), G2.ravel()])
        norm = float(max(np.max(np.abs(G)), np.max(np.abs(border))))
        return Evaluation(np.concatenate([G + lam @ self.psi[1:], border]), norm, (gradU, blocks))

    def feasible(self, z) -> bool:
        """A positive period and a positive density 1 + M."""
        _, M, _, T, _ = self.split(z)
        return T > 0.0 and float(M.min()) > -1.0

    def linearize(self, z, ev: Evaluation):
        """The derivative of :meth:`evaluate`'s rows at z as an action
        dz -> J dz, from ``ev``, the evaluation at z, and :meth:`preconditioner`
        with its T column; raises SolverError when the bordered rows are solved
        but ``ev.norm`` is not (the grid does not resolve the branch)."""
        if float(np.max(np.abs(ev.rows))) <= _BRANCH_TOL:
            raise SolverError(
                f"the branch equations are not solvable to {_BRANCH_TOL:g} on grid "
                f"{self.shape} at amplitude {self.target[1]:g}: the bordered system "
                f"is solved, but the unfolding parameters reach "
                f"{np.max(np.abs(self.split(z)[4])):.3e} and the residual stays at "
                f"{ev.norm:.3e}; the grid does not resolve the branch"
            )
        st, sp, K = self.st, self.st.space, self.K
        U, M, _, T, _ = self.split(z)
        gradU, blocks = ev.data
        fp = self.coupling.polyval(1.0 + M, deriv=1)
        ddt = spectral.time_derivative_periodic
        t_col = np.concatenate([-ddt(st, M), ddt(st, U)], axis=None) / T**2

        def jvp(dz):
            dU, dM, dH, dT, dlam = self.split(dz)
            gdU = spectral.gradient(sp, dU)
            dG1, dG2 = spectral.modewise(blocks, dz[: 2 * K].reshape((2,) + st.field_shape))
            dG1 = dG1 - spectral.divergence(sp, dM * gradU + M * gdU)
            dG2 = dG2 + np.sum(gradU * gdU, axis=0) - fp * dM + dH
            dG = np.concatenate([dG1.ravel(), dG2.ravel()]) + dT * t_col + dlam @ self.psi[1:]
            return np.concatenate([dG, self.rows @ dz[: 2 * K] / K])

        return jvp, self.preconditioner(t_col)

    def apply_pinv(self, x):
        """The frozen pseudo-inverse on stacked (U, M) vectors, shape (..., 2K)."""
        fields = x.reshape(x.shape[:-1] + (2,) + self.st.field_shape)
        return spectral.modewise(self.pinv, fields).reshape(x.shape)

    def preconditioner(self, t_col):
        """Inverse of the bordered matrix whose (U, M) block is frozen at the
        trivial state and T_bar, with this T column.

        The frozen block A0 is inverted per mode on the complement of its
        null space psi, so x = A0^+ (r - C y) + psi^T c, where C holds the
        Hbar, T and lam columns and y their values. Solvability
        psi (r - C y) = 0 and the border rows fix (y, c) by a dense
        (2p + 1)-square Schur complement, p = len(psi). Only the T column is
        transformed here; its image is stacked between the fixed columns'
        images into a new array, so the returned action keeps no state that
        a later call changes.
        """
        K, psi, rows = self.K, self.psi, self.rows
        p = len(psi)
        cols = np.vstack([rows[0], t_col, psi[1:]])  # the Hbar column is the mass field
        pcols = np.insert(self.pcols, 1, self.apply_pinv(t_col), axis=0)
        schur = np.linalg.inv(np.block([
            [psi @ cols.T / K, np.zeros((p, p))],
            [rows @ pcols.T / K, -rows @ psi.T / K],
        ]))

        def apply(r):
            a = self.apply_pinv(r[: 2 * K])
            w = schur @ np.concatenate([psi @ r[: 2 * K] / K, rows @ a / K - r[2 * K :]])
            y, c = w[: p + 1], w[p + 1 :]
            return np.concatenate([a - y @ pcols + c @ psi, y])

        return apply


def _frozen_inverse(st: SpaceTimeGrid, fprime1: float):
    """Per-mode pseudo-inverse and null space of the branch linearization
    frozen at the trivial state and T_bar.

    The blocks are :func:`_mode_blocks` with the Nyquist-zeroed div-grad
    symbol, as in :func:`_linear_blocks`; eigenvalues up to ``_NULL_TOL * T_bar``
    are the null directions. Returns the pseudo-inverse of the unscaled
    blocks as :func:`spectral.modewise` blocks, and the :func:`_null_basis`
    of the null directions, shape (p, 2K).
    """
    Tbar = critical_period(fprime1)
    eigs, vecs = np.linalg.eigh(_mode_blocks(st, Tbar, fprime1, -st.space.divgrad_symbol))
    null = np.abs(eigs) <= _NULL_TOL * Tbar
    inv = Tbar / np.where(null, np.inf, eigs)
    pinv = np.einsum("...ik,...k,...jk->...ij", vecs, inv, vecs.conj())
    return spectral.rfft_modes(pinv), _null_basis(vecs, null)


def continue_branch(coupling: Coupling, st: SpaceTimeGrid, amplitudes) -> BifurcationBranch:
    """Follow the nontrivial periodic branch at the given pin amplitudes.

    On a grid of dimension d > 1 the branch is the x1 roll (module
    docstring): it is solved on the 1-D grid of the same n1 and n_t, and each
    point's (U, M) is embedded on ``st``, constant along x2..xd; T, Hbar and
    the Newton and GMRES counts are the 1-D solve's. ``solvability_inf`` is
    the 1-D bordering's max |lam| over its 7 unfolding parameters. The
    certificates are read on ``st``: ``residual_inf`` is the larger of the
    1-D stopping norm and the sup-norm of (G1, G2) at the embedded state,
    and errors name ``st``'s shape. :func:`kernel_at`, :func:`crossing_number`
    and :func:`map_to_original` take ``st`` and are unaffected.

    Amplitudes must be finite and positive, at least one, and are processed in the
    given order. The first point starts from a z1 at (Hbar, T) = (0, T_bar);
    each later one from the previous solution, with the part of (U, M) off
    z1, Hbar, T - T_bar and lam scaled by (a / a_prev)^2. Each point solves the
    bordered system of :class:`_Branch` by :func:`mfgkit._newton_krylov.newton`,
    preconditioned by the bordered frozen linearization; it has converged
    when the unbordered rows (G1, G2, mass, pin, orthogonality) are below
    ``_BRANCH_TOL`` in sup-norm. Raises :class:`~mfgkit.errors.SolverError`
    with the engine's "no convergence at amplitude a" if the line search
    stalls or ``_MAX_NEWTON`` steps do not converge, if a GMRES solve misses
    its tolerance, or if the grid does not resolve the branch; and, on a
    d-D grid, naming ``st``'s shape when the embedded ``residual_inf``
    exceeds ``_BRANCH_TOL``.
    """
    amplitudes = [float(a) for a in amplitudes]
    if not amplitudes:
        raise ModelError("amplitudes must hold at least one value")
    for a in amplitudes:
        if not 0.0 < a < np.inf:
            raise ModelError(f"amplitudes must be finite and positive, got {a}")
    fprime1 = _fprime1(coupling)
    Tbar = critical_period(fprime1)
    line = st if st.space.dim == 1 else replace(st, space=TorusGrid(st.space.shape[:1]))
    roll = line.field_shape + (1,) * (st.space.dim - 1)
    system = _Branch(coupling, line, st.field_shape)
    K = system.K
    points: list[BranchPoint] = []
    z1 = system.psi[0]
    z = np.concatenate([np.zeros(2 * K), [0.0, Tbar], np.zeros(len(system.psi) - 1)])
    prev_a = None
    for a in amplitudes:
        if prev_a is None:
            z[: 2 * K] = a * z1
        else:
            # The part of (U, M) off z1, T - Tbar, Hbar and lam are even in a
            # to leading order: scaling them by (a / prev_a)^2 predicts O(a^3).
            # numpy's power overflows to inf, quietly here, which Newton then
            # rejects, where a float's raises OverflowError.
            with np.errstate(over="ignore", invalid="ignore"):
                r2 = np.float64(a / prev_a) ** 2
                _, _, Hbar, T, lam = system.split(z)
                x = a * z1 + r2 * (z[: 2 * K] - prev_a * z1)
                z = np.concatenate([x, [r2 * Hbar, Tbar + r2 * (T - Tbar)], r2 * lam])
        system.target[1] = a
        run = newton(system, z, _BRANCH_TOL, _MAX_NEWTON, f" at amplitude {a:g}")
        z = run.z
        U, M, Hbar, T, lam = system.split(z)
        U0, M0 = (np.broadcast_to(f.reshape(roll), st.field_shape) for f in (U - U.mean(), M))
        state = PeriodicState(st, U0, M0, Hbar=float(Hbar), T=float(T))
        residual = run.ev.norm
        if line is not st:
            G1, G2, _, _ = _residual(st, coupling, state.U, state.M, state.Hbar, state.T)
            residual = max(residual, float(np.max(np.abs(G1))), float(np.max(np.abs(G2))))
            if residual > _BRANCH_TOL:
                raise SolverError(
                    f"the embedded branch residual is {residual:.3e} on grid "
                    f"{st.field_shape} at amplitude {a:g}, above {_BRANCH_TOL:g}, "
                    f"though its 1-D profile converged to {run.ev.norm:.3e}"
                )
        energy = float(np.mean(U * U) + np.mean(M * M))
        span = float(np.sum((system.kernel @ z[: 2 * K] / K) ** 2))
        dtM = spectral.time_derivative_periodic(line, M)
        ratio = float(np.sqrt(np.mean(dtM * dtM)) / max(np.sqrt(np.mean(M * M)), 1e-300))
        points.append(
            BranchPoint(
                state=state,
                amplitude=a,
                residual_inf=residual,
                kernel_energy_fraction=span / energy if energy > 0 else 0.0,
                dtM_over_M=ratio,
                newton_iterations=len(run.krylov),
                krylov_iterations=run.krylov,
                solvability_inf=float(np.max(np.abs(lam))),
            )
        )
        prev_a = a
    return BifurcationBranch(Tbar=Tbar, fprime1=fprime1, points=points)


def map_to_original(state: PeriodicState, coupling: Coupling) -> dict:
    """Undo the rescaling: fields (m, u) on the period-T cylinder.

    m = 1 + M(x, s/T) and u = U(x, s/T) - s f(1); the residuals of the
    original-variable system coincide with eval_G values, and are
    returned along with per-slice masses.
    """
    st = state.grid
    grid_T = SpaceTimeGrid(st.space, n_t=st.n_t, horizon=state.T, periodic_time=True)
    f1 = float(coupling.polyval(1.0))
    s_nodes = grid_T.times.reshape((st.n_t,) + (1,) * st.space.dim)
    m = 1.0 + state.M
    u = state.U - s_nodes * f1
    G1, G2, G3 = eval_G(state, coupling)
    masses = m.reshape(st.n_t, -1).mean(axis=1)
    return {
        "grid": grid_T,
        "m": m,
        "u": u,
        "Hbar": state.Hbar,
        "period": state.T,
        "residual_transport_inf": float(np.max(np.abs(G1))),
        "residual_value_inf": float(np.max(np.abs(G2))),
        "mass_defect": G3,
        "slice_masses": masses,
    }
