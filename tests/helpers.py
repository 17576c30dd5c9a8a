"""Shared numerical helpers for the test suite.

Everything here is deliberately independent of the library internals:
finite differences, grid-search Legendre/Fenchel oracles, and the
model functions restated from their definitions so library values can
be checked against a second implementation. The dense linearized
periodic operator, the dense finite-horizon Jacobian and the dense
branch Jacobian at the end are the small-grid oracles for the
spectral-block path of ``mfgkit.bifurcation`` and the matrix-free
Newton-Krylov paths of ``mfgkit.dynamics`` and ``continue_branch``; all
are built from dense matrices of the grid operators of
``mfgkit.spectral``. The periodic residual and its Jacobian action,
written out with those grid operators, are the oracle for their symbol
form, and a dense DFT matrix is the oracle for ``spectral.modewise``;
its broadcast-product form and a branch preconditioner that transforms
every border column on every build are the bit-for-bit oracles of the
row-by-row sums and of the once-per-branch border columns.
The per-component vector operators below, one ``np.fft.fftn``/``ifftn``
call per component, are the bit-for-bit oracles of ``spectral``'s
batched transforms. The finite-horizon time systems assembled densely
and inverted with ``np.linalg.inv`` are the oracle of the factored block
LU solve in ``mfgkit.dynamics``. The dense (d+1)-square curvature blocks built
from a model's radial coefficients, with ``np.linalg.eigvalsh``, are the
oracle of ``check_monotonicity``'s closed form.
"""

import itertools
from functools import lru_cache

import numpy as np

from mfgkit import bifurcation, spectral
from mfgkit.bifurcation import ELL_SCALE


def fd_directional(fun, h=1e-5):
    """Richardson-extrapolated central difference of t -> fun(t) at t = 0.

    Fourth-order accurate; good to ~1e-10 relative for smooth O(1)
    functionals with the default step.
    """
    d1 = (fun(h) - fun(-h)) / (2.0 * h)
    d2 = (fun(0.5 * h) - fun(-0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def coupling_f_values(poly, spatial, m):
    """f(x, m) = poly(m) + spatial, restated from the model definition."""
    return np.polynomial.polynomial.polyval(m, np.asarray(poly)) + spatial


def coupling_F_values(poly, spatial, m):
    """F(x, m) = int_1^m f(x, z) dz with the same normalization as the library."""
    coeffs = np.polynomial.polynomial.polyint(np.asarray(poly, dtype=float))
    pv = np.polynomial.polynomial.polyval
    return (pv(m, coeffs) - pv(1.0, coeffs)) + spatial * (m - 1.0)


def hamiltonian_values(Q, alpha, gamma, p, m, fvals):
    """H(x, p, m) = |p + Q|^gamma / (gamma m^alpha) - f(x, m).

    ``p`` has shape (d, ...) and ``Q`` length d. Covers the separable
    quadratic case via Q = 0, alpha = 0, gamma = 2.
    """
    shifted = p + np.asarray(Q).reshape((-1,) + (1,) * (p.ndim - 1))
    mag = np.sqrt(np.sum(shifted**2, axis=0))
    return mag**gamma / (gamma * np.asarray(m) ** alpha) - fvals


def dense_monotonicity(model, grid):
    """Oracle of ``check_monotonicity`` on ``grid``: its 256 samples, p from
    ``spectral.Sampler(0)`` and m at 0.2 and 2 and then from the same
    sampler, the dense H_pp = a I + b r r^T and the block
    [[2 H_pp, c r], [c r^T, -(2/m) dmH]] from the model's (r, a, b, c),
    dmH = -alpha |r|^gamma / (gamma m^{alpha+1}) - f'(m) restated from the
    definition (alpha = 0 for a separable model), and both smallest
    eigenvalues by ``np.linalg.eigvalsh``. Returns (min_eig_pp, max_dm_h,
    min_eig_block)."""
    S, d = 256, grid.dim
    rng = spectral.Sampler(0)
    p = rng.standard_normal((d, S))
    m = np.concatenate([(0.2, 2.0), rng.uniform(0.2, 2.0, S - 2)])
    r, a, b, c = model.second_derivatives(grid, p, m)
    a, b, c = (np.broadcast_to(v, (S,)) for v in (a, b, c))
    hpp = a[:, None, None] * np.eye(d) + b[:, None, None] * (r.T[:, :, None] * r.T[:, None, :])
    alpha, gamma = getattr(model, "alpha", 0.0), getattr(model, "gamma", 2.0)
    rmag = np.sqrt(np.sum(r * r, axis=0))
    dmH = -alpha * rmag**gamma / (gamma * m ** (alpha + 1.0)) - np.polynomial.polynomial.polyval(
        m, np.polynomial.polynomial.polyder(model.coupling.poly)
    )
    block = np.zeros((S, d + 1, d + 1))
    block[:, :d, :d] = 2.0 * hpp
    block[:, :d, d] = block[:, d, :d] = (c * r).T
    block[:, d, d] = -(2.0 / m) * dmH
    return (
        float(np.linalg.eigvalsh(hpp).min()),
        float(dmH.max()),
        float(np.linalg.eigvalsh(block).min()),
    )


def legendre_oracle(Q, alpha, gamma, q, m, fvals, span=20.0, n=81, rounds=5):
    """L(x, q, m) = sup_p (p . q - H(x, p, m)) by nested grid search.

    ``q`` has shape (d, K) for K sample points; returns shape (K,).
    Five zoom rounds of an 81-point-per-axis grid resolve the sup to
    well below 1e-8 for the smooth Hamiltonians used in the tests.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    d, K = q.shape
    m = np.broadcast_to(np.asarray(m, dtype=float), (K,))
    fvals = np.broadcast_to(np.asarray(fvals, dtype=float), (K,))
    center = np.zeros((d, K))
    half = np.full(K, span)
    best = None
    for _ in range(rounds):
        axes = np.linspace(-1.0, 1.0, n)
        mesh = np.stack(np.meshgrid(*([axes] * d), indexing="ij"))
        mesh = mesh.reshape(d, -1)  # (d, n**d) offsets in [-1, 1]
        p = center[:, None, :] + mesh[:, :, None] * half[None, None, :]
        pq = np.sum(p * q[:, None, :], axis=0)
        H = hamiltonian_values(Q, alpha, gamma, p, m[None, :], fvals[None, :])
        vals = pq - H
        idx = np.argmax(vals, axis=0)
        best = vals[idx, np.arange(K)]
        center = p[:, idx, np.arange(K)]
        half = half * 2.0 / (n - 1)
    return best


def conjugate_oracle(poly, spatial, w, z_max=64.0, n=4097, rounds=6):
    """F*(x, w) = sup_{z >= 0} (w z - F(x, z)) by a zooming z-grid.

    ``w`` and ``spatial`` are broadcast-compatible arrays; returns the
    elementwise conjugate of the normalized antiderivative.
    """
    w = np.asarray(w, dtype=float)
    spatial = np.broadcast_to(spatial, w.shape)
    lo = np.zeros(w.shape)
    hi = np.full(w.shape, z_max)
    best = None
    for _ in range(rounds):
        z = lo[None] + (hi - lo)[None] * np.linspace(0.0, 1.0, n).reshape(
            (n,) + (1,) * w.ndim
        )
        vals = w[None] * z - coupling_F_values(poly, spatial[None], z)
        idx = np.argmax(vals, axis=0)
        best = np.take_along_axis(vals, idx[None], axis=0)[0]
        zstar = np.take_along_axis(z, idx[None], axis=0)[0]
        width = (hi - lo) / (n - 1)
        lo = np.maximum(zstar - width, 0.0)
        hi = zstar + width
    return best


def slab_residuals(state, model, spectral):
    """Implicit-midpoint HJB and continuity residuals per time slab.

    Independent re-assembly from the raw state via the spectral module:
    returns (R, P) with R[j] the HJB residual and P[j] the continuity
    residual on slab j, both shaped (n_t, *space).
    """
    g = state.grid.space
    dt = state.grid.dt
    m, u, eps = state.m, state.u, state.eps
    mbar = 0.5 * (m[:-1] + m[1:])
    ubar = 0.5 * (u[:-1] + u[1:])
    n_t = state.grid.n_t
    R = np.empty_like(mbar)
    P = np.empty_like(mbar)
    for j in range(n_t):
        gradu = spectral.gradient(g, ubar[j])
        hv = model.eval(g, gradu, mbar[j])
        R[j] = -(u[j + 1] - u[j]) / dt - eps * spectral.laplacian(g, ubar[j]) + hv.H
        P[j] = (
            (m[j + 1] - m[j]) / dt
            - eps * spectral.laplacian(g, mbar[j])
            - spectral.divergence(g, mbar[j] * hv.dpH)
        )
    return R, P


def node_field_from_slabs(slabs, boundary_term=None, at_start=False):
    """Map slab residuals to node fields: endpoints keep the adjacent
    slab value, interior nodes average the two neighbours; the optional
    boundary term is added to the coupled endpoint."""
    out = np.concatenate([[slabs[0]], 0.5 * (slabs[:-1] + slabs[1:]), [slabs[-1]]])
    if boundary_term is not None:
        if at_start:
            out[0] = out[0] + boundary_term
        else:
            out[-1] = out[-1] + boundary_term
    return out


def apply_A(st, T, fprime1, v, mu, ell, ell_scale=ELL_SCALE):
    """One grid application of the T-scaled symmetric linearized operator

    A(T)[v, mu, l] = (mu_t + T lam (mu + v),
                      -v_t + T lam v - T f'(1) mu + T c l,
                      T c <mu>),     lam = -Laplacian.
    """
    sp = st.space
    lam_mu = -spectral.laplacian(sp, mu)
    lam_v = -spectral.laplacian(sp, v)
    r_v = spectral.time_derivative_periodic(st, mu) + T * (lam_mu + lam_v)
    r_mu = (
        -spectral.time_derivative_periodic(st, v)
        + T * lam_v
        - T * fprime1 * mu
        + T * ell_scale * ell
    )
    r_ell = T * ell_scale * float(mu.mean())
    return r_v, r_mu, r_ell


@lru_cache(maxsize=8)
def v_basis(st):
    """Euclidean-orthonormal basis (K x (K-2)) of the admissible v-space.

    Two directions are excluded: the constant, and the temporal-Nyquist
    sawtooth times the spatial constant, which every operator row
    annihilates at every T.
    """
    K = st.n_t * st.space.num_nodes
    ones = np.ones(K) / np.sqrt(K)
    saw = np.repeat((-1.0) ** np.arange(st.n_t), st.space.num_nodes)
    saw /= np.linalg.norm(saw)
    Q, _ = np.linalg.qr(np.column_stack([ones, saw, np.eye(K)]))
    return Q[:, 2:K]


def assemble_A(st, T, fprime1, ell_scale=ELL_SCALE):
    """Dense symmetric matrix of A(T) in orthonormal restricted coordinates.

    Coordinates: K - 2 admissible v-components (see :func:`v_basis`),
    K mu-components, 1 multiplier component, orthonormal for the inner
    product <z1, z2> = mean(v1 v2) + mean(mu1 mu2) + l1 l2.
    """
    K = st.n_t * st.space.num_nodes
    Bv = v_basis(st)
    nv = Bv.shape[1]
    sqK = np.sqrt(K)
    shape = st.field_shape
    zeros = np.zeros(shape)
    cols = [(Bv[:, a].reshape(shape) * sqK, zeros, 0.0) for a in range(nv)]
    for k in range(K):
        mu = np.zeros(K)
        mu[k] = sqK
        cols.append((zeros, mu.reshape(shape), 0.0))
    cols.append((zeros, zeros, 1.0))
    out = np.empty((nv + K + 1, nv + K + 1))
    for b, (v, mu, ell) in enumerate(cols):
        rv, rmu, rell = apply_A(st, T, fprime1, v, mu, ell, ell_scale)
        out[:nv, b] = (Bv.T @ rv.reshape(K)) * (sqK / K)
        out[nv : nv + K, b] = rmu.reshape(K) * (sqK / K)
        out[nv + K, b] = rell
    return out


def dft_matrix(shape):
    """Dense matrix of the unnormalized n-D DFT of a C-ordered array of
    ``shape``; its inverse is the conjugate transpose over the node count."""
    out = np.ones((1, 1))
    for n in shape:
        k = np.arange(n)
        out = np.kron(out, np.exp(-2j * np.pi * np.outer(k, k) / n))
    return out


def modewise_dense(full_blocks, arr):
    """Oracle for ``spectral.modewise``: ``full_blocks`` of shape
    (*shape, k, k) on every mode in FFT order, applied to ``arr`` of shape
    (..., k, *shape) by dense DFT matrices; the real part is returned."""
    shape = full_blocks.shape[:-2]
    k = full_blocks.shape[-1]
    N = int(np.prod(shape))
    F = dft_matrix(shape)
    flat = arr.reshape(arr.shape[:-len(shape)] + (N,))  # (..., k, N)
    hat = flat @ F.T
    blocks = full_blocks.reshape(N, k, k)
    out = np.einsum("nij,...jn->...in", blocks, hat)
    return (out @ F.conj().T / N).real.reshape(arr.shape)


def fftn_space(grid, arr):
    """np.fft.fftn over the trailing spatial axes."""
    return np.fft.fftn(arr, axes=tuple(range(arr.ndim - grid.dim, arr.ndim)))


def ifftn_space_real(grid, hat):
    """Real part of np.fft.ifftn over the trailing spatial axes."""
    return np.fft.ifftn(hat, axes=tuple(range(hat.ndim - grid.dim, hat.ndim))).real


def grad_symbols_per_axis(grid):
    """2 pi i k per axis with the Nyquist mode zeroed, one array per axis."""
    out = []
    for ax, kk in enumerate(np.meshgrid(*grid.wavenumbers, indexing="ij")):
        sym = 2j * np.pi * kk.astype(float)
        sym[np.abs(kk) == grid.shape[ax] // 2] = 0.0
        out.append(sym)
    return out


def gradient_per_component(grid, arr):
    """One forward transform, one inverse transform per component."""
    hat = fftn_space(grid, arr)
    return np.stack([ifftn_space_real(grid, sym * hat) for sym in grad_symbols_per_axis(grid)])


def divergence_per_component(grid, vec):
    """Sum over components, in axis order, of the transformed derivatives."""
    out = None
    for v, sym in zip(vec, grad_symbols_per_axis(grid)):
        term = ifftn_space_real(grid, sym * fftn_space(grid, v))
        out = term if out is None else out + term
    return out


def project_div_free_per_component(grid, vec):
    """Leray projector I - s s^T / |s|^2 per mode, one transform pair per component."""
    syms = [g.imag for g in grad_symbols_per_axis(grid)]
    s2 = np.zeros(grid.shape)
    for s in syms:
        s2 += s * s
    hats = [fftn_space(grid, v) for v in vec]
    dot = None
    for s, h in zip(syms, hats):
        term = s * h
        dot = term if dot is None else dot + term
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(s2 > 0.0, dot / np.where(s2 > 0.0, s2, 1.0), 0.0)
    return np.stack([ifftn_space_real(grid, h - s * scale) for s, h in zip(syms, hats)])


def half_inverse_divgrad_per_component(grid, f):
    """(-div grad)^{-1/2} with its symbol built on the spot, zero where |s| = 0."""
    sym = np.zeros(grid.shape)
    for g in grad_symbols_per_axis(grid):
        sym += g.imag**2
    with np.errstate(invalid="ignore", divide="ignore"):
        half = np.where(sym > 0.0, 1.0 / np.sqrt(np.where(sym > 0.0, sym, 1.0)), 0.0)
    return ifftn_space_real(grid, half * fftn_space(grid, f))


def dense_grid_operators(grid):
    """Dense matrices of the spectral Laplacian and first derivatives."""
    K = grid.num_nodes
    eye = np.eye(K).reshape((K,) + grid.shape)
    lap = spectral.laplacian(grid, eye).reshape(K, K).T
    grads = spectral.gradient(grid, eye)  # (d, K, *shape)
    Ds = tuple(grads[i].reshape(K, K).T for i in range(grid.dim))
    return lap, Ds


def dynamics_jacobian(system, z):
    """Dense Jacobian of the finite-horizon midpoint residual at z.

    ``system`` is a ``mfgkit.dynamics._System``; unknowns are ordered
    (u_0..u_{N-1}, m_1..m_N), residual rows (S_0..S_{N-1}, P_0..P_{N-1}).
    Built block by block from dense grid operators: the small-grid oracle
    for the matrix-free Jacobian action.
    """
    u, m = system.fields(z)
    sp, dt, eps = system.sp, system.dt, system.eps
    N, K = system.N, system.K
    L, Ds = dense_grid_operators(sp)
    ubar = 0.5 * (u[:-1] + u[1:])
    mbar = 0.5 * (m[:-1] + m[1:])
    V = spectral.gradient(sp, ubar)
    # g' from the coupling polynomial: f' (equilibrium) or (m f)'' (planner).
    poly = np.polynomial.Polynomial(system.model.coupling.poly)
    if system.planner:
        poly = poly * np.polynomial.Polynomial([0.0, 1.0])
    gp = poly.deriv(2 if system.planner else 1)(mbar)
    eyedt = np.eye(K) / dt
    J = np.zeros((2 * N * K, 2 * N * K))

    def put(row, col, block):
        J[row * K : (row + 1) * K, col * K : (col + 1) * K] = block

    for j in range(N):
        Vf = [V[i, j].ravel() for i in range(sp.dim)]
        mf = mbar[j].ravel()
        transport = sum(v[:, None] * D for D, v in zip(Ds, Vf))  # u -> V . grad u
        advection = sum(D * v[None, :] for D, v in zip(Ds, Vf))  # m -> div(m V)
        diffusion = sum(D @ (mf[:, None] * D) for D in Ds)  # u -> div(m grad u)
        hjb_half = 0.5 * (-eps * L + transport)
        fp_half = -0.5 * (eps * L + advection)
        coupling = np.diag(-0.5 * gp[j].ravel())
        # u_N and m_0 are data; m column c holds m_{c+1}.
        put(j, j, eyedt + hjb_half)
        put(j, N + j, coupling)
        put(N + j, j, -0.5 * diffusion)
        put(N + j, N + j, eyedt + fp_half)
        if j + 1 <= N - 1:
            put(j, j + 1, -eyedt + hjb_half)
            put(N + j, j + 1, -0.5 * diffusion)
        if j >= 1:
            put(j, N + j - 1, coupling)
            put(N + j, N + j - 1, -eyedt + fp_half)
    return J


def dense_time_inverse(sp, N, dt, eps, mbar, gpbar):
    """Oracle of ``dynamics._time_solve``, which stores no inverse: per
    spatial mode, the 2N x 2N midpoint time system of
    ``_System.preconditioner`` assembled with ``np.block`` and inverted with
    ``np.linalg.inv``, then refined once, X + X (I - A X). On 16 x 128 the
    refinement moves the inverse by up to 2e-11 relative in max-norm, while
    the factored solve, applied to the 2N unit columns of every mode, sits
    within 6e-15 of the refined inverse for g' >= 0. Equal modes share one
    inversion."""
    lam = spectral.rfft_modes(sp.laplacian_symbol[..., None, None])[..., 0, 0]
    dg = spectral.rfft_modes(sp.divgrad_symbol[..., None, None])[..., 0, 0]
    symbols, where = np.unique(
        np.stack([lam.ravel(), dg.ravel()], axis=1), axis=0, return_inverse=True
    )
    lam, dg = symbols[:, 0, None, None], symbols[:, 1, None, None]
    eye, up, lo = np.eye(N), np.eye(N, k=1), np.eye(N, k=-1)
    au, am = 0.5 * (eye + up), 0.5 * (eye + lo)
    A = np.block([
        [(eye - up) / dt - eps * lam * au, -gpbar * am * np.ones_like(lam)],
        [-mbar * dg * au, (eye - lo) / dt - eps * lam * am],
    ])
    X = np.linalg.inv(A)
    X = X + X @ (np.eye(2 * N) - A @ X)
    return X[where.ravel()].reshape(sp.shape[:-1] + (sp.shape[-1] // 2 + 1, 2 * N, 2 * N))


@lru_cache(maxsize=4)
def branch_flat_operators(st):
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


def _subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1)
    )


def branch_null_fields(st, fprime1):
    """Closed-form null space of the branch linearization at the trivial
    state and T_bar, as (v, mu) pairs normalized for mean(v v) + mean(mu mu),
    the continuation direction first.

    Each analytic kernel field along axis i, times the Nyquist sign pattern
    (-1)^j of every subset of the other space axes (the empty subset gives
    the field itself, the others its copies that the Nyquist-zeroed div-grad
    symbol aliases to it); then the U-only sign pattern of every subset of
    (t, x_1, ..., x_d), on which the U column and G1 row vanish.
    """
    dim = st.space.dim
    signs = [(-1.0) ** j for j in np.indices(st.field_shape)]

    def pattern(axes):
        return np.prod([signs[k] for k in axes], axis=0) if axes else np.ones(st.field_shape)

    pairs = []
    for i, (v, mu) in enumerate(bifurcation.analytic_kernel_fields(st, fprime1)):
        others = [1 + k for k in range(dim) if k != i // 4]
        pairs += [(v * pattern(sub), mu * pattern(sub)) for sub in _subsets(others)]
    pairs += [(pattern(sub), np.zeros(st.field_shape)) for sub in _subsets(range(dim + 1))]
    out = []
    for v, mu in pairs:
        nrm = np.sqrt(float(np.mean(v * v) + np.mean(mu * mu)))
        out.append((v / nrm, mu / nrm))
    return out


def periodic_residual(st, coupling, U, M, Hbar, T):
    """(G1, G2) of the rescaled periodic system, written out term by term
    with the grid operators of ``mfgkit.spectral``: the oracle for the
    symbol form of ``bifurcation._residual``."""
    sp = st.space
    gradU = spectral.gradient(sp, U)
    G1 = (
        spectral.time_derivative_periodic(st, M) / T
        - spectral.div_grad(sp, M)
        - spectral.div_grad(sp, U)
        - spectral.divergence(sp, M * gradU)
    )
    f1 = float(coupling.polyval(1.0))
    G2 = (
        -spectral.time_derivative_periodic(st, U) / T
        - spectral.div_grad(sp, U)
        + 0.5 * np.sum(gradU * gradU, axis=0)
        - (coupling.polyval(1.0 + M) - f1)
        + Hbar
    )
    return G1, G2


def periodic_jvp(st, coupling, U, M, T, dU, dM, dH):
    """The derivative of :func:`periodic_residual` in (U, M, Hbar) at fixed
    T, applied to (dU, dM, dH), term by term."""
    sp = st.space
    gradU = spectral.gradient(sp, U)
    gdU = spectral.gradient(sp, dU)
    dG1 = (
        spectral.time_derivative_periodic(st, dM) / T
        - spectral.div_grad(sp, dM + dU)
        - spectral.divergence(sp, dM * gradU + M * gdU)
    )
    dG2 = (
        -spectral.time_derivative_periodic(st, dU) / T
        - spectral.div_grad(sp, dU)
        + np.sum(gradU * gdU, axis=0)
        - coupling.polyval(1.0 + M, deriv=1) * dM
        + dH
    )
    return dG1, dG2


def branch_residual(st, coupling, U, M, Hbar, T, a, dirs):
    """Unbordered branch rows: G1, G2, mass, pin at amplitude a against
    dirs[0], orthogonality to dirs[1:]."""
    G1, G2 = periodic_residual(st, coupling, U, M, Hbar, T)
    rows = [G1.ravel(), G2.ravel(), [float(M.mean())]]
    rows.append([float(np.mean(U * dirs[0][0]) + np.mean(M * dirs[0][1])) - a])
    for v, mu in dirs[1:]:
        rows.append([float(np.mean(U * v) + np.mean(M * mu))])
    return np.concatenate(rows)


def branch_jacobian(st, coupling, U, M, T, dirs):
    """Dense Jacobian of :func:`branch_residual` in (U, M, Hbar, T)."""
    sp = st.space
    K = st.n_t * sp.num_nodes
    Dt, DG, Dx = branch_flat_operators(st)
    gradU = spectral.gradient(sp, U)
    Mf = M.ravel()
    fp = coupling.polyval(1.0 + M, deriv=1).ravel()
    adv_M = sum(Dx[i] * gradU[i].ravel()[None, :] for i in range(sp.dim))
    diff_M = sum(Dx[i] @ (Mf[:, None] * Dx[i]) for i in range(sp.dim))
    transp = sum(gradU[i].ravel()[:, None] * Dx[i] for i in range(sp.dim))
    J = np.zeros((2 * K + 1 + len(dirs), 2 * K + 2))
    J[:K, :K] = -DG - diff_M
    J[:K, K : 2 * K] = Dt / T - DG - adv_M
    J[:K, 2 * K + 1] = (-spectral.time_derivative_periodic(st, M) / T**2).ravel()
    J[K : 2 * K, :K] = -Dt / T - DG + transp
    J[K : 2 * K, K : 2 * K] = -np.diag(fp)
    J[K : 2 * K, 2 * K] = 1.0
    J[K : 2 * K, 2 * K + 1] = (spectral.time_derivative_periodic(st, U) / T**2).ravel()
    row = 2 * K
    J[row, K : 2 * K] = 1.0 / K  # mass row
    for i, (v, mu) in enumerate(dirs):
        J[row + 1 + i, :K] = v.ravel() / K
        J[row + 1 + i, K : 2 * K] = mu.ravel() / K
    return J


def dense_branch(coupling, st, amplitudes, tol=1e-12, max_newton=80):
    """Reference continuation: Gauss-Newton on the overdetermined unbordered
    rows, orthogonal to the whole :func:`branch_null_fields` span but the
    pin, with min-norm ``lstsq`` steps. Returns (U, M, Hbar, T) per amplitude."""
    fprime1 = float(coupling.polyval(1.0, deriv=1))
    dirs = branch_null_fields(st, fprime1)
    K = st.n_t * st.space.num_nodes
    shape = st.field_shape
    U, M = np.zeros(shape), np.zeros(shape)
    Hbar, T = 0.0, bifurcation.critical_period(fprime1)
    out, prev = [], None
    for a in amplitudes:
        if prev is None:
            U, M = a * dirs[0][0], a * dirs[0][1]
        else:
            U, M = U * (a / prev), M * (a / prev)
        rho = branch_residual(st, coupling, U, M, Hbar, T, a, dirs)
        for _ in range(max_newton):
            if np.max(np.abs(rho)) <= tol:
                break
            J = branch_jacobian(st, coupling, U, M, T, dirs)
            step = np.linalg.lstsq(J, -rho, rcond=1e-12)[0]
            scale = 1.0
            while True:
                trial = (
                    U + scale * step[:K].reshape(shape),
                    M + scale * step[K : 2 * K].reshape(shape),
                    Hbar + scale * step[2 * K],
                    T + scale * step[2 * K + 1],
                )
                rho_try = branch_residual(st, coupling, *trial, a, dirs)
                if np.linalg.norm(rho_try) <= (1.0 - 1e-4 * scale) * np.linalg.norm(rho):
                    break
                scale *= 0.5
                assert scale >= 2.0**-30, "dense reference stalled"
            (U, M, Hbar, T), rho = trial, rho_try
        else:
            raise AssertionError("dense reference did not converge")
        out.append((U, M, Hbar, T))
        prev = a
    return out


def modewise_broadcast(blocks, arr):
    """The complex-block path of ``spectral.modewise`` as the (k, k, ...)
    broadcast product summed over its column axis: the bit-for-bit oracle of
    the library's row-by-row sums."""
    ndim = blocks.ndim - 2
    axes = tuple(range(-ndim, 0))
    hat = np.fft.rfftn(arr, axes=axes)
    rows = np.moveaxis(blocks, (-2, -1), (0, 1))
    out = np.sum(rows * np.expand_dims(hat, -ndim - 2), axis=-ndim - 1)
    return np.fft.irfftn(out, s=arr.shape[arr.ndim - ndim :], axes=axes)


def branch_preconditioner_per_step(system, t_col):
    """The bordered frozen preconditioner of a ``bifurcation._Branch`` built
    by pushing all p + 2 border columns (mass field, T column, q_j) through
    the frozen pseudo-inverse on every call: the bit-for-bit oracle of the
    build that transforms the constant columns once per branch."""
    K, psi, rows = system.K, system.psi, system.rows
    p = len(psi)
    cols = np.vstack([rows[0], t_col, psi[1:]])
    pcols = system.apply_pinv(cols)
    schur = np.linalg.inv(np.block([
        [psi @ cols.T / K, np.zeros((p, p))],
        [rows @ pcols.T / K, -rows @ psi.T / K],
    ]))

    def apply(r):
        a = system.apply_pinv(r[: 2 * K])
        w = schur @ np.concatenate([psi @ r[: 2 * K] / K, rows @ a / K - r[2 * K :]])
        y, c = w[: p + 1], w[p + 1 :]
        return np.concatenate([a - y @ pcols + c @ psi, y])

    return apply
