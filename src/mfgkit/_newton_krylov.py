"""Damped Newton with preconditioned GMRES steps, shared by the space-time solvers.

Both :mod:`mfgkit.dynamics` and :mod:`mfgkit.bifurcation` solve square
nonlinear systems whose Jacobian is applied at FFT cost and preconditioned
per Fourier mode; this module holds the loop they share.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as sparse_linalg

from .errors import SolverError

# GMRES stops at ||A x - b|| <= KRYLOV_RTOL ||b||: tight enough for Newton to take
# a direct solve's steps, above the FFT matvec's roundoff floor (~1e-12 at n = 64).
KRYLOV_RTOL = 1e-10


def gmres(matvec, precond, rhs, where: str):
    """Solve matvec(x) = rhs by preconditioned GMRES to KRYLOV_RTOL; returns
    (x, iterations), or raises SolverError naming ``where``."""
    n = rhs.size
    residuals = []
    x, info = sparse_linalg.gmres(
        sparse_linalg.LinearOperator((n, n), matvec=matvec), rhs,
        M=sparse_linalg.LinearOperator((n, n), matvec=precond), rtol=KRYLOV_RTOL, atol=0.0,
        restart=40, maxiter=5, callback=residuals.append, callback_type="pr_norm",
    )
    if info != 0:
        rel = float(np.linalg.norm(rhs - matvec(x)) / np.linalg.norm(rhs))
        raise SolverError(
            f"GMRES missed its relative tolerance {KRYLOV_RTOL:.0e} at {where}: "
            f"relative residual {rel:.3e} after {len(residuals)} iterations"
        )
    return x, len(residuals)


def _sup(z, res) -> float:
    return float(np.max(np.abs(res)))


def newton(residual, direction, z, tol: float, budget: int, history: list,
           feasible=None, measure=_sup):
    """Damped Newton on residual(z) = 0 along direction(z, res), Armijo on |res|^2.

    Trial points rejected by ``feasible(z)`` are halved without being
    evaluated. Convergence is ``measure(z, res) <= tol`` (default: the
    sup-norm of res). Appends each accepted measure to ``history`` and returns
    (z, measure, steps, converged).
    """
    res = residual(z)
    rn = measure(z, res)
    for it in range(1, budget + 1):
        if rn <= tol:
            return z, rn, it - 1, True
        delta = direction(z, res)
        phi0 = float(res @ res)
        step = 1.0
        while step >= 1e-6:
            z_try = z + step * delta
            if feasible is None or feasible(z_try):
                res_try = residual(z_try)
                if float(res_try @ res_try) <= (1.0 - 1e-4 * step) * phi0:
                    break
            step *= 0.5
        else:
            return z, rn, it, False
        z, res = z_try, res_try
        rn = measure(z, res)
        history.append(rn)
    return z, rn, budget, rn <= tol
