"""Shared numerical helpers for the test suite.

Everything here is deliberately independent of the library internals:
finite differences, grid-search Legendre/Fenchel oracles, and the
model functions restated from their definitions so library values can
be checked against a second implementation. The dense linearized
periodic operator and the dense finite-horizon Jacobian at the end are
the small-grid oracles for the spectral-block path of
``mfgkit.bifurcation`` and the matrix-free Newton-Krylov path of
``mfgkit.dynamics``; both are built from dense matrices of the grid
operators of ``mfgkit.spectral``.
"""

from functools import lru_cache

import numpy as np

from mfgkit import spectral
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
    _, gp = system.coupling_terms(mbar)
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
