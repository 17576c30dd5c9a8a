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

with kappa = sqrt(-4 pi^2 - f'(1)) / (2 pi).

``continue_branch`` follows the nontrivial branch by amplitude
continuation: the state is pinned by <(U, M), z1> = a against a
normalized kernel direction z1 and by orthogonality to the remaining
kernel directions (which fixes the time/space translation phases), with
T and Hbar unknown. The resulting overdetermined system is consistent
(discrete translation equivariance is exact at band-limited amplitudes)
and is solved by Gauss-Newton steps through an SVD least-squares solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CheckError, ModelError, PositivityError, SolverError
from .grids import SpaceTimeGrid, TorusGrid
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
    "sigma_branch",
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


def default_periodic_coupling(fprime1: float, cubic: float = 1.0, f1: float = 0.0) -> Coupling:
    """f(m) = f1 + fprime1 (m - 1) + cubic (m - 1)^3 as a polynomial coupling."""
    c0 = f1 - fprime1 - cubic
    c1 = fprime1 + 3.0 * cubic
    c2 = -3.0 * cubic
    c3 = cubic
    return Coupling(poly=(c0, c1, c2, c3))


def _fprime1(coupling: Coupling) -> float:
    if coupling.terms:
        raise ModelError("the periodic-branch machinery needs an x-independent coupling")
    return float(coupling._poly_val(1.0, deriv=1))


def critical_period(fprime1: float, overtone: int = 1) -> float:
    """Critical period T_bar (or its overtone multiple N T_bar).

    Requires the kernel-isolation window -8 pi^2 < f'(1) < -4 pi^2; the
    violated bound is named in the error.
    """
    if overtone < 1:
        raise ModelError(f"overtone must be >= 1, got {overtone}")
    if not fprime1 > -8.0 * np.pi**2:
        raise ModelError(
            f"f'(1) = {fprime1:.6f} violates the lower window bound -8 pi^2 "
            f"= {-8.0 * np.pi**2:.6f}"
        )
    if not fprime1 < -4.0 * np.pi**2:
        raise ModelError(
            f"f'(1) = {fprime1:.6f} violates the upper window bound -4 pi^2 "
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
        U = np.array(self.U, dtype=float, copy=True)
        M = np.array(self.M, dtype=float, copy=True)
        U.flags.writeable = False
        M.flags.writeable = False
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "M", M)
        if U.shape != self.grid.field_shape or M.shape != self.grid.field_shape:
            raise ModelError("periodic fields must match the cylinder grid")
        if not self.T > 0.0:
            raise ModelError(f"period must be positive, got {self.T}")
        if abs(float(U.mean())) > 1e-8:
            raise ModelError("U must have zero space-time mean")
        if float(M.min()) <= -1.0:
            raise PositivityError("1 + M must stay positive")


def _residual(st: SpaceTimeGrid, coupling: Coupling, U, M, Hbar: float, T: float):
    """(G1, G2) of the rescaled periodic system on raw fields."""
    sp = st.space
    gradU = spectral.gradient(sp, U)
    G1 = (
        spectral.time_derivative_periodic(st, M) / T
        - spectral.div_grad(sp, M)
        - spectral.div_grad(sp, U)
        - spectral.divergence(sp, M * gradU)
    )
    f1 = float(coupling._poly_val(1.0))
    G2 = (
        -spectral.time_derivative_periodic(st, U) / T
        - spectral.div_grad(sp, U)
        + 0.5 * np.sum(gradU * gradU, axis=0)
        - (coupling._poly_val(1.0 + M) - f1)
        + Hbar
    )
    return G1, G2


def eval_G(state: PeriodicState, coupling: Coupling):
    """Residual triple (G1, G2, G3) of the rescaled periodic system."""
    if coupling.terms:
        raise ModelError("the periodic-branch machinery needs an x-independent coupling")
    G1, G2 = _residual(state.grid, coupling, state.U, state.M, state.Hbar, state.T)
    return G1, G2, float(state.M.mean())


def eval_g(state: PeriodicState, coupling: Coupling) -> float:
    """Scalar potential whose exact discrete gradient is (G1, G2, G3)."""
    if coupling.terms:
        raise ModelError("the periodic-branch machinery needs an x-independent coupling")
    st = state.grid
    sp = st.space
    U, M, T = state.U, state.M, state.T
    gradU = spectral.gradient(sp, U)
    gradM = spectral.gradient(sp, M)
    f1 = float(coupling._poly_val(1.0))
    # Normalized antiderivative of the polynomial part with F(1) = 0.
    coeffs = np.polynomial.polynomial.polyint(np.array(coupling.poly))
    pv = np.polynomial.polynomial.polyval
    F = pv(1.0 + M, coeffs) - pv(1.0, coeffs)
    integrand = (
        -spectral.time_derivative_periodic(st, U) * M / T
        + np.sum(gradU * gradM, axis=0)
        + 0.5 * np.sum(gradU * gradU, axis=0) * (M + 1.0)
        - F
        + f1 * M
        + state.Hbar * M
    )
    return float(integrand.mean())


# ---------------------------------------------------------------------------
# Linearized operator at the trivial branch.


@lru_cache(maxsize=8)
def _flat_operators(st: SpaceTimeGrid):
    """Dense matrices (Dt, DG, D_i...) acting on flattened (n_t, *space)."""
    sp = st.space
    nt = st.n_t
    K_sp = sp.num_nodes
    Dt_small = np.zeros((nt, nt))
    for j in range(nt):
        e = np.zeros((nt,) + (1,) * sp.dim)
        e[j] = 1.0
        Dt_small[:, j] = spectral.time_derivative_periodic(st, e).reshape(nt)
    eye_sp = np.eye(K_sp).reshape((K_sp,) + sp.shape)
    DG_sp = spectral.div_grad(sp, eye_sp).reshape(K_sp, K_sp).T
    grads = spectral.gradient(sp, eye_sp)
    Dx_sp = tuple(grads[i].reshape(K_sp, K_sp).T for i in range(sp.dim))
    I_t = np.eye(nt)
    I_sp = np.eye(K_sp)
    Dt = np.kron(Dt_small, I_sp)
    DG = np.kron(I_t, DG_sp)
    Dx = tuple(np.kron(I_t, D) for D in Dx_sp)
    return Dt, DG, Dx


def _symbol_blocks(st: SpaceTimeGrid, T: float, fprime1: float) -> np.ndarray:
    """A(T) as one 2x2 Hermitian block per space-time Fourier mode.

    Returns shape (n_t, *space, 2, 2), modes in FFT order. With lam the
    Laplacian eigenvalue (``-space.laplacian_symbol``, Nyquist kept) and
    i omega the d/dt symbol (``time_derivative_symbol``, Nyquist zeroed),
    the block acting on the Fourier coefficients (v, mu) is

        [[T lam,            i omega + T lam],
         [-i omega + T lam, -T f'(1)       ]].

    The coefficients c of f = sum c e^{2 pi i (n t + k.x)} are orthonormal
    coordinates for mean(v1 v2) + mean(mu1 mu2) + l1 l2, so the block
    eigenvalues over all modes are the eigenvalues of A(T). The constant
    v is outside the domain; at the zero mode its slot carries the
    multiplier l instead, which gives the (l, mean-mu) block
    [[0, T c], [T c, -T f'(1)]].
    """
    sp = st.space
    lam = -sp.laplacian_symbol
    dt = st.time_derivative_symbol.reshape((-1,) + (1,) * sp.dim)
    blocks = np.empty((st.n_t,) + sp.shape + (2, 2), dtype=complex)
    blocks[..., 0, 0] = T * lam
    blocks[..., 0, 1] = dt + T * lam
    blocks[..., 1, 0] = -dt + T * lam
    blocks[..., 1, 1] = -T * fprime1
    Tc = T * ELL_SCALE
    blocks[(0,) * (1 + sp.dim)] = [[0.0, Tc], [Tc, -T * fprime1]]
    return blocks


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


def analytic_kernel_fields(
    st: SpaceTimeGrid, fprime1: float, temporal_freq: int = 1
) -> list:
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


def kernel_at(
    st: SpaceTimeGrid,
    T: float,
    fprime1: float,
    sv_tol: float = 1e-8,
    check_trig_span: bool = False,
    temporal_freq: int = 1,
) -> KernelReport:
    """Kernel count of A(T) from its symbol blocks, optionally with trig-span energy.

    The singular values of the symmetric A(T) are the magnitudes of its
    block eigenvalues. The kernel fields are the real and imaginary parts
    of the zero-eigenvalue block eigenvectors put back on the grid,
    orthonormalized for mean(v1 v2) + mean(mu1 mu2) + l1 l2.
    """
    sp = st.space
    blocks = _symbol_blocks(st, T, fprime1)
    eigs, vecs = np.linalg.eigh(blocks)
    keep = _kept(st, eigs)
    svals = np.sort(np.abs(eigs[keep]))
    kernel_dim = int(np.sum(svals <= sv_tol))
    # Count the adjoint kernel from an independent factorization of the
    # conjugate-transposed blocks instead of leaning on their symmetry.
    adj = np.linalg.svd(np.conj(np.swapaxes(blocks, -1, -2)), compute_uv=False)
    adj_dim = int(np.sum(adj[_kept(st, adj)] <= sv_tol))
    K = st.n_t * sp.num_nodes
    sqK = np.sqrt(K)
    shape = st.field_shape

    zero = keep & (np.abs(eigs) <= sv_tol)
    modes = np.nonzero(zero)[:-1]
    coef = np.zeros((2, kernel_dim) + shape, dtype=complex)
    coef[(slice(None), np.arange(kernel_dim)) + modes] = np.swapaxes(vecs, -1, -2)[zero].T
    origin = (0, slice(None)) + (0,) * (1 + sp.dim)
    ell = coef[origin].copy()
    coef[origin] = 0.0
    v, mu = np.fft.ifftn(coef, axes=tuple(range(2, coef.ndim)), norm="forward")
    # Rows hold (v, mu, l) scaled so that the dot product is the inner
    # product above. A mode and its conjugate repeat one real span, so the
    # 2 kernel_dim rows have rank kernel_dim; their Gram matrix's leading
    # eigenvectors give an orthonormal basis of that span.
    rows = np.concatenate(
        [
            np.concatenate([v.real, v.imag]).reshape(2 * kernel_dim, K) / sqK,
            np.concatenate([mu.real, mu.imag]).reshape(2 * kernel_dim, K) / sqK,
            np.concatenate([ell.real, ell.imag])[:, None],
        ],
        axis=1,
    )
    gram, W = np.linalg.eigh(rows @ rows.T)
    ortho = (W[:, kernel_dim:] / np.sqrt(gram[kernel_dim:])).T @ rows
    kernel_fields = [
        (r[:K].reshape(shape) * sqK, r[K : 2 * K].reshape(shape) * sqK, float(r[2 * K]))
        for r in ortho
    ]
    frac = None
    if check_trig_span and kernel_dim > 0:
        pairs = analytic_kernel_fields(st, fprime1, temporal_freq=temporal_freq)
        basis = []
        for v, mu in pairs:
            vec = np.concatenate([v.ravel(), mu.ravel(), [0.0]])
            for b in basis:
                vec = vec - (b @ vec) * b
            nrm = np.linalg.norm(vec)
            if nrm > 1e-12:
                basis.append(vec / nrm)
        fracs = []
        for v, mu, ell in kernel_fields:
            vec = np.concatenate([v.ravel(), mu.ravel(), [ell * sqK]])
            nrm2 = float(vec @ vec)
            proj2 = sum(float(b @ vec) ** 2 for b in basis)
            fracs.append(proj2 / nrm2)
        frac = float(min(fracs))
    fifth = float(svals[4]) if len(svals) > 4 else float("nan")
    return KernelReport(
        T=T,
        singular_values=svals,
        kernel_dim=kernel_dim,
        adjoint_kernel_dim=adj_dim,
        fifth_smallest=fifth,
        kernel_fields=kernel_fields,
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


def sigma_branch(T: float, fprime1: float) -> dict:
    """Closed-form near-zero eigenvalue branch: sigma(T) and its slope at T_bar."""
    return {
        "T": T,
        "sigma": sigma_h_root(T, fprime1),
        "slope_at_Tbar": sigma_slope_exact(fprime1),
    }


def sigma_from_operator(st: SpaceTimeGrid, T: float, fprime1: float) -> dict:
    """Numeric near-zero eigenvalue of A(T) vs the closed-form h-root."""
    eigs = _eigenvalues(st, T, fprime1)
    near = float(eigs[np.argmin(np.abs(eigs))])
    root = sigma_h_root(T, fprime1)
    return {"T": T, "eig": near, "h_root": root, "gap": abs(near - root)}


def sigma_slope(st: SpaceTimeGrid, fprime1: float, delta: float = 2e-3) -> float:
    """Richardson-extrapolated numeric slope of sigma(T) at T_bar."""
    Tbar = critical_period(fprime1)

    def centered(d):
        up = sigma_from_operator(st, Tbar + d, fprime1)["eig"]
        dn = sigma_from_operator(st, Tbar - d, fprime1)["eig"]
        return (up - dn) / (2.0 * d)

    s1 = centered(delta)
    s2 = centered(0.5 * delta)
    return (4.0 * s2 - s1) / 3.0


def crossing_number(
    st: SpaceTimeGrid,
    fprime1: float,
    rel_offset: float = 0.05,
    window: float = 0.5,
) -> int:
    """Number of eigenvalues of A(T) crossing zero at T_bar."""
    Tbar = critical_period(fprime1)
    lo = _eigenvalues(st, Tbar * (1.0 - rel_offset), fprime1)
    hi = _eigenvalues(st, Tbar * (1.0 + rel_offset), fprime1)
    below = int(np.sum((lo > -window) & (lo < 0.0)))
    above = int(np.sum((hi > 0.0) & (hi < window)))
    if below != above:
        raise CheckError(
            f"ambiguous crossing count: {below} below vs {above} above T_bar"
        )
    return below


# ---------------------------------------------------------------------------
# Amplitude continuation of the nontrivial branch.


@dataclass
class BranchPoint:
    state: PeriodicState
    amplitude: float
    residual_inf: float
    kernel_energy_fraction: float
    dtM_over_M: float


@dataclass
class BifurcationBranch:
    Tbar: float
    fprime1: float
    points: list[BranchPoint]


def _kernel_directions(st: SpaceTimeGrid, fprime1: float):
    """Normalized kernel directions; z1 is the continuation direction."""
    pairs = analytic_kernel_fields(st, fprime1)
    dirs = []
    for v, mu in pairs:
        nrm = np.sqrt(float(np.mean(v * v) + np.mean(mu * mu)))
        dirs.append((v / nrm, mu / nrm))
    return dirs


def continue_branch(
    coupling: Coupling,
    st: SpaceTimeGrid,
    amplitudes,
    tol: float = 1e-12,
    max_newton: int = 80,
) -> BifurcationBranch:
    """Follow the nontrivial periodic branch at the given pin amplitudes.

    Amplitudes must be positive and are processed in the given order;
    each solution warm-starts the next. Raises
    :class:`~mfgkit.errors.SolverError` if Gauss-Newton stalls.
    """
    fprime1 = _fprime1(coupling)
    Tbar = critical_period(fprime1)
    sp = st.space
    K = st.n_t * sp.num_nodes
    shape = st.field_shape
    dirs = _kernel_directions(st, fprime1)
    z1 = dirs[0]
    others = dirs[1:]

    Dt, DG, Dx = _flat_operators(st)

    def residual_vec(U, M, Hbar, T, a):
        G1, G2 = _residual(st, coupling, U, M, Hbar, T)
        rows = [G1.ravel(), G2.ravel()]
        rows.append([float(M.mean())])
        rows.append([float(U.mean())])
        pin = float(np.mean(U * z1[0]) + np.mean(M * z1[1])) - a
        rows.append([pin])
        for v, mu in others:
            rows.append([float(np.mean(U * v) + np.mean(M * mu))])
        return np.concatenate(rows), G1, G2

    def jacobian(U, M, Hbar, T):
        gradU = spectral.gradient(sp, U)
        Mf = M.ravel()
        fp = coupling._poly_val(1.0 + M, deriv=1).ravel()
        adv_M = sum(Dx[i] * gradU[i].ravel()[None, :] for i in range(sp.dim))
        diff_M = sum(Dx[i] @ (Mf[:, None] * Dx[i]) for i in range(sp.dim))
        transp = sum(gradU[i].ravel()[:, None] * Dx[i] for i in range(sp.dim))
        G1_U = -DG - diff_M
        G1_M = Dt / T - DG - adv_M
        G2_U = -Dt / T - DG + transp
        G2_M = -np.diag(fp)
        n_rows = 2 * K + 3 + len(others)
        J = np.zeros((n_rows, 2 * K + 2))
        J[:K, :K] = G1_U
        J[:K, K : 2 * K] = G1_M
        J[:K, 2 * K + 1] = (-spectral.time_derivative_periodic(st, M) / T**2).ravel()
        J[K : 2 * K, :K] = G2_U
        J[K : 2 * K, K : 2 * K] = G2_M
        J[K : 2 * K, 2 * K] = 1.0
        J[K : 2 * K, 2 * K + 1] = (
            spectral.time_derivative_periodic(st, U) / T**2
        ).ravel()
        row = 2 * K
        J[row, K : 2 * K] = 1.0 / K  # mass row
        J[row + 1, :K] = 1.0 / K  # mean-U row
        J[row + 2, :K] = z1[0].ravel() / K
        J[row + 2, K : 2 * K] = z1[1].ravel() / K
        for i, (v, mu) in enumerate(others):
            J[row + 3 + i, :K] = v.ravel() / K
            J[row + 3 + i, K : 2 * K] = mu.ravel() / K
        return J

    points: list[BranchPoint] = []
    U = np.zeros(shape)
    M = np.zeros(shape)
    Hbar = 0.0
    T = Tbar
    prev_a = None
    for a in amplitudes:
        if not a > 0.0:
            raise ModelError(f"amplitudes must be positive, got {a}")
        if prev_a is None:
            U = a * z1[0]
            M = a * z1[1]
        else:
            scale = a / prev_a
            U = U * scale
            M = M * scale
        rho, G1, G2 = residual_vec(U, M, Hbar, T, a)
        rnorm = float(np.linalg.norm(rho))
        converged = False
        for _ in range(max_newton):
            res_inf = max(
                float(np.max(np.abs(G1))),
                float(np.max(np.abs(G2))),
                float(np.max(np.abs(rho[2 * K :]))),
            )
            if res_inf <= tol:
                converged = True
                break
            J = jacobian(U, M, Hbar, T)
            step, *_ = np.linalg.lstsq(J, -rho, rcond=1e-12)
            scale = 1.0
            while scale >= 2.0**-30:
                U_try = U + scale * step[:K].reshape(shape)
                M_try = M + scale * step[K : 2 * K].reshape(shape)
                H_try = Hbar + scale * float(step[2 * K])
                T_try = T + scale * float(step[2 * K + 1])
                if T_try > 0.0 and float(M_try.min()) > -1.0:
                    rho_try, G1_try, G2_try = residual_vec(U_try, M_try, H_try, T_try, a)
                    if float(np.linalg.norm(rho_try)) <= (1.0 - 1e-4 * scale) * rnorm:
                        break
                scale *= 0.5
            else:
                raise SolverError(
                    f"branch continuation stalled at amplitude {a:g} "
                    f"(residual {rnorm:.3e})"
                )
            U, M, Hbar, T = U_try, M_try, H_try, T_try
            rho, G1, G2 = rho_try, G1_try, G2_try
            rnorm = float(np.linalg.norm(rho))
        if not converged:
            raise SolverError(
                f"branch continuation did not converge at amplitude {a:g} "
                f"(residual {rnorm:.3e})"
            )
        state = PeriodicState(st, U - U.mean(), M, Hbar=Hbar, T=T)
        energy = float(np.mean(U * U) + np.mean(M * M))
        span = sum(
            float(np.mean(U * v) + np.mean(M * mu)) ** 2 for v, mu in dirs
        )
        dtM = spectral.time_derivative_periodic(st, M)
        ratio = float(
            np.sqrt(np.mean(dtM * dtM)) / max(np.sqrt(np.mean(M * M)), 1e-300)
        )
        res_inf = max(
            float(np.max(np.abs(G1))),
            float(np.max(np.abs(G2))),
            float(np.max(np.abs(rho[2 * K :]))),
        )
        points.append(
            BranchPoint(
                state=state,
                amplitude=float(a),
                residual_inf=res_inf,
                kernel_energy_fraction=span / energy if energy > 0 else 0.0,
                dtM_over_M=ratio,
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
    grid_T = SpaceTimeGrid(
        st.space, n_t=st.n_t, horizon=state.T, periodic_time=True
    )
    f1 = float(coupling._poly_val(1.0))
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
