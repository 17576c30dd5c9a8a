"""The one damped Newton–Krylov solve of the space-time and stationary systems.

:func:`newton` runs on a system from :mod:`mfgkit.dynamics`,
:mod:`mfgkit.bifurcation` or :mod:`mfgkit.stationary`. The system's
``evaluate(z)`` returns an :class:`Evaluation`: the rows (the Armijo merit's
vector and the GMRES right-hand side), the norm Newton stops on, and the
data its linearization reuses. ``linearize(z, ev) -> (jvp, precond)`` is
called only with the evaluation of the same iterate, reads what it needs
from ``ev`` and applies the Jacobian at FFT cost. A system may add
``feasible(z)``, and sets ``forcing`` to have each step solved to a forcing
term: the finite-horizon system of :mod:`mfgkit.dynamics` and the
stationary polish do, and the periodic branch runs every step to
KRYLOV_RTOL. :func:`newton` returns a :class:`NewtonRun`.

Each Newton step is solved by :func:`gmres`: left-preconditioned restarted
GMRES (Saad & Schultz 1986) from x = 0, at most KRYLOV_CYCLES cycles of
KRYLOV_RESTART inner iterations (or n, if smaller). The Arnoldi basis is
the list of vectors the Arnoldi steps compute, built by modified
Gram–Schmidt and stacked once per cycle for the update, so the working set
follows the iterations run, not KRYLOV_RESTART. The solve owns every vector
it stores: the start vector is scaled and the first subtraction made out of
place, so an operator may return its input or reuse one output buffer. The
Hessenberg matrix is reduced by Givens rotations as LAPACK ``dlartg``
computes them. The inner loop stops when the preconditioned residual
estimate falls below an adaptive tolerance (SciPy gh-8400) or the Krylov
space is exhausted. Each cycle ends with the true residual: the solve
stops when ||rhs - A x|| <= rtol ||rhs|| (rtol is KRYLOV_RTOL unless the
caller passes its own), and raises SolverError if that still fails after
an exhausted Krylov space or the last cycle. The routine is a port of SciPy 1.17.1's ``sparse.linalg.gmres``, without
SciPy's ``LinearOperator`` wrapping; SciPy's license notice stands beside
it. It returns SciPy's bits for every operator that returns a fresh array.
The two differ only where SciPy's basis aliases an operator's output: on
an operator that returns its input, SciPy's in-place Gram–Schmidt
overwrites the basis row it was handed (on the identity it returns x near
0 and info 5), and this port solves the system.

A system that sets ``forcing`` has each Newton step solved only to a
forcing term (Dembo, Eisenstat & Steihaug, SINUM 1982): step k's GMRES
runs to the relative tolerance eta_k of Eisenstat & Walker's choice 2
(SISC 1996), eta_0 = 0.5 and eta_k = 0.9 (|F_k| / |F_{k-1}|)^2 in the
2-norm of the residual, raised to 0.9 eta_{k-1}^2 whenever that exceeds
0.1, capped at 0.5 and floored at max(KRYLOV_RTOL, tol / (2 |F_k|)),
below which a step would only solve past the Newton stopping test. The
stopping test itself is unchanged.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SolverError

# GMRES stops at ||A x - b|| <= KRYLOV_RTOL ||b||: tight enough for Newton to take
# a direct solve's steps, above the FFT matvec's roundoff floor (~1e-12 at n = 64).
KRYLOV_RTOL = 1e-10
# Inner iterations per restart cycle, and cycles per solve.
KRYLOV_RESTART = 40
KRYLOV_CYCLES = 5
# The loosest forcing term of a Newton step (Eisenstat & Walker 1996).
ETA_MAX = 0.5


class Evaluation(NamedTuple):
    """A system's evaluation at one iterate: its rows, the norm Newton stops
    on, and whatever its linearization at that iterate reuses."""

    rows: np.ndarray
    norm: float
    data: object


class NewtonRun(NamedTuple):
    """A converged solve: the iterate and its evaluation, GMRES iterations,
    norm after each step and forcing terms used (empty without ``forcing``)."""

    z: np.ndarray
    ev: Evaluation
    krylov: tuple[int, ...]
    history: tuple[float, ...]
    forcing_terms: tuple[float, ...]


_EPS = float(np.finfo(float).eps)
# dlartg's safe range (LAPACK 3.10+): the plain formula below it and above it
# would underflow or overflow, so those entries are scaled first.
_SAFMIN = 2.0**-1022
_SAFMAX = 2.0**1022
_RTMIN = math.sqrt(_SAFMIN)
_RTMAX = math.sqrt(_SAFMAX / 2)


def _rotation(f, g):
    """(c, s, r) with [[c, s], [-s, c]] @ [f, g] = [r, 0], as LAPACK dlartg."""
    f, g = float(f), float(g)
    f1, g1 = abs(f), abs(g)
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), g1
    if _RTMIN < f1 < _RTMAX and _RTMIN < g1 < _RTMAX:
        d = math.sqrt(f * f + g * g)
        r = math.copysign(d, f)
        return f1 / d, g / r, r
    u = min(_SAFMAX, max(_SAFMIN, f1, g1))
    fs, gs = f / u, g / u
    d = math.sqrt(fs * fs + gs * gs)
    r = math.copysign(d, f)
    return abs(fs) / d, gs / r, r * u


# gmres below is ported from SciPy 1.17.1's sparse.linalg.gmres, under
# this notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
def gmres(matvec, precond, rhs, where: str, rtol: float | None = None):
    """Solve matvec(x) = rhs by preconditioned GMRES to the relative tolerance
    ``rtol`` (default KRYLOV_RTOL, read at call time); returns (x, iterations),
    or raises SolverError naming ``where``."""
    if rtol is None:
        rtol = KRYLOV_RTOL
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0:
        return rhs.copy(), 0
    n = rhs.size
    atol = rtol * float(b_norm)
    restart = min(KRYLOV_RESTART, n)
    h = np.zeros((restart, restart + 1))  # row j holds column j of the Hessenberg matrix
    rotations = [None] * restart
    x = np.zeros(n)
    # M rhs is both the first cycle's start vector and the inner tolerance's scale.
    z = precond(rhs)
    ptol_factor = 1.0
    ptol = np.linalg.norm(z) * min(ptol_factor, atol / b_norm)
    iterations = 0
    for cycle in range(KRYLOV_CYCLES):
        if cycle:
            z = precond(r)
        beta = np.linalg.norm(z)
        v = [z * (1 / beta)]  # the Arnoldi basis, one vector per iteration run
        g = np.zeros(restart + 1)  # rotated right-hand side of the least-squares problem
        g[0] = beta
        breakdown = False
        for col in range(restart):
            w = precond(matvec(v[col]))
            h0 = np.linalg.norm(w)
            # The first subtraction is out of place, so the basis owns w even
            # when an operator returns its input or reuses one output buffer.
            h[col, 0] = hk = np.dot(v[0], w)
            w = w - hk * v[0]
            for k in range(1, col + 1):
                hk = np.dot(v[k], w)
                h[col, k] = hk
                w -= hk * v[k]
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            if h1 <= _EPS * h0:  # the Krylov space is invariant: the exact solution is in it
                h[col, col + 1] = 0
                breakdown = True
            else:
                w *= 1 / h1
            v.append(w)
            for k in range(col):
                c, s = rotations[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, h[col, col] = _rotation(h[col, col], h[col, col + 1])
            rotations[col] = c, s
            h[col, col + 1] = 0
            tail = -s * g[col]
            g[col], g[col + 1] = c * g[col], tail
            presid = abs(tail)
            iterations += 1
            if presid <= ptol or breakdown:
                break
        # Back-substitution on the triangular factor, skipping zero entries so
        # that a singular one gives a pseudo-solution.
        if h[col, col] == 0:
            g[col] = 0
        y = g[: col + 1].copy()
        for k in range(col, -1, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        x += y @ np.array(v[: col + 1])
        r = rhs - matvec(x)
        r_norm = np.linalg.norm(r)
        if r_norm <= atol or breakdown:
            break
        if presid <= ptol:  # the inner loop passed but the true residual did not
            ptol_factor = max(_EPS, 0.25 * ptol_factor)
        else:
            ptol_factor = min(1.0, 1.5 * ptol_factor)
        ptol = presid * min(ptol_factor, atol / r_norm)
    if not r_norm <= atol:
        raise SolverError(
            f"GMRES missed its relative tolerance {rtol:.0e} at {where}: "
            f"relative residual {float(r_norm / b_norm):.3e} after {iterations} iterations"
        )
    return x, iterations


def _forcing_term(fn: float, fn_prev: float | None, eta_prev: float | None, tol: float) -> float:
    """Eisenstat–Walker choice 2 for the residual 2-norm ``fn``, after a step
    that left ``fn_prev`` and used ``eta_prev`` (both None at the first step)."""
    if fn_prev is None:
        eta = ETA_MAX
    else:
        eta = 0.9 * (fn / fn_prev) ** 2
        safeguard = 0.9 * eta_prev**2
        if safeguard > 0.1:
            eta = max(eta, safeguard)
    return max(KRYLOV_RTOL, tol / (2.0 * fn), min(ETA_MAX, eta))


def newton(system, z, tol: float, budget: int, where: str = "") -> NewtonRun:
    """Damped Newton on the rows of system.evaluate(z), Armijo on |rows|^2,
    each step a GMRES solve labelled "Newton step <i><where>" of the
    linearization at the iterate's evaluation. The step's relative tolerance
    is KRYLOV_RTOL, or, if ``system.forcing`` is true, the Eisenstat–Walker
    forcing term of the module docstring. Trial points that fail
    ``feasible`` are halved unevaluated; converged means ``ev.norm <= tol``.
    Returns the :class:`NewtonRun`; raises SolverError "no
    convergence<where>" if an iterate's norm is nan or inf (before its
    step is linearized), the line search stalls or the budget runs out.
    """
    feasible = getattr(system, "feasible", None)
    forcing = getattr(system, "forcing", False)
    # A non-finite iterate raises below and a non-finite trial fails the
    # Armijo test, so evaluations overflow without a numpy warning.
    evaluate = np.errstate(over="ignore", invalid="ignore")(system.evaluate)
    ev = evaluate(z)
    krylov, history, etas = [], [], []
    fn_prev = eta = rtol = None
    for it in range(1, budget + 1):
        if ev.norm <= tol:
            break
        if not math.isfinite(ev.norm):
            raise SolverError(
                f"no convergence{where}: the residual is {ev.norm} at Newton step {it}"
            )
        phi0 = float(ev.rows @ ev.rows)
        if forcing:
            fn = math.sqrt(phi0)
            rtol = eta = _forcing_term(fn, fn_prev, eta, tol)
            etas.append(eta)
            fn_prev = fn
        # No reference to the linearization outlives its step, so a system that
        # keeps its preconditioner for the next step holds the only copy.
        delta, k = gmres(*system.linearize(z, ev), -ev.rows, f"Newton step {it}{where}", rtol)
        krylov.append(k)
        step = 1.0
        while step >= 1e-6:
            z_try = z + step * delta
            if feasible is None or feasible(z_try):
                ev_try = evaluate(z_try)
                if float(ev_try.rows @ ev_try.rows) <= (1.0 - 1e-4 * step) * phi0:
                    break
            step *= 0.5
        else:
            raise SolverError(
                f"no convergence{where}: the line search stalled at Newton step {it}, "
                f"residual {ev.norm:.3e}"
            )
        z, ev = z_try, ev_try
        history.append(ev.norm)
    if not ev.norm <= tol:
        raise SolverError(
            f"no convergence{where}: residual {ev.norm:.3e} after {budget} Newton "
            f"iterations, the whole budget"
        )
    return NewtonRun(z, ev, tuple(krylov), tuple(history), tuple(etas))
