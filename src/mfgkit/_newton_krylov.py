"""The one damped Newton–Krylov solve of the space-time systems.

:func:`newton` runs on a system from :mod:`mfgkit.dynamics` or
:mod:`mfgkit.bifurcation`: ``residual(z)``, ``linearize(z, res) -> (jvp,
precond)`` applied at FFT cost, and the optional hooks ``feasible(z)`` and
``measure(z, res)``.
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


def newton(system, z, tol: float, budget: int, where: str = ""):
    """Damped Newton on system.residual(z) = 0, Armijo on |res|^2, each step
    a GMRES solve labelled "Newton step <i><where>". Trial points that fail
    ``feasible`` are halved unevaluated; converged means ``measure(z, res)
    <= tol`` (default: sup-norm of res). Returns (z, measure, GMRES iterations
    per step, measure after each step); raises SolverError "no
    convergence<where>" if the line search stalls or the budget runs out.
    """
    feasible = getattr(system, "feasible", None)
    measure = getattr(system, "measure", lambda z, res: float(np.max(np.abs(res))))
    res = system.residual(z)
    rn = measure(z, res)
    krylov, history = [], []
    for it in range(1, budget + 1):
        if rn <= tol:
            break
        # The linearization (its preconditioner holds a dense block per Fourier
        # mode) is dropped once its step is solved.
        delta, k = gmres(*system.linearize(z, res), -res, f"Newton step {it}{where}")
        krylov.append(k)
        phi0 = float(res @ res)
        step = 1.0
        while step >= 1e-6:
            z_try = z + step * delta
            if feasible is None or feasible(z_try):
                res_try = system.residual(z_try)
                if float(res_try @ res_try) <= (1.0 - 1e-4 * step) * phi0:
                    break
            step *= 0.5
        else:
            raise SolverError(
                f"no convergence{where}: the line search stalled at Newton step {it}, "
                f"residual {rn:.3e}"
            )
        z, res = z_try, res_try
        rn = measure(z, res)
        history.append(rn)
    if not rn <= tol:
        raise SolverError(
            f"no convergence{where}: residual {rn:.3e} after {budget} Newton "
            f"iterations, the whole budget"
        )
    return z, rn, tuple(krylov), tuple(history)
