"""Finite-horizon solvers for the coupled value/density system.

The equilibrium system on [0, T] x T^d,

    -u_t - eps lap(u) + H0(grad u) = f(x, m),      u(., T) = uT,
     m_t - eps lap(m) - div(m grad u) = 0,          m(., 0) = m0,

is discretized with the implicit midpoint rule: one algebraic row per
time slab and per node,

    S_j = -(u_{j+1}-u_j)/dt - eps lap(ub_j) + H0(grad ub_j) - g(mb_j),
    P_j = (m_{j+1}-m_j)/dt - eps lap(mb_j) - div(mb_j grad ub_j),

with ub/mb the slab midpoints, u_N = uT and m_0 = m0 held as data, and
g(m) = f(x, m) for the equilibrium problem or g(m) = f + m df/dm for the
planner (control) problem, whose solution is a critical point of psi2.

The code restates neither these rows nor their Jacobian. ``_System``
takes the rows from one psi2 evaluation in :mod:`mfgkit.functionals`:
the value row of the payoff whose critical point in m is solved (psi1's
HJB row for the equilibrium, psi2's for the planner) and psi2's
transport row, which for separable models is psi1's bit for bit. It
applies their Jacobian at that evaluation,
``functionals._slab_jacobian``, to the midpoints and time differences of
(du, dm). So at a solved state every reported derivative field vanishes
(data rows included). The slab structure is the implicit midpoint step
of the Hamiltonian flow generated by psi1_hat, so that quantity is
conserved along solutions up to an O(dt^2) wobble with no secular drift.

The solver is :func:`mfgkit._newton_krylov.newton`, the damped
Newton–Krylov loop shared with the periodic branch, run on the full
space-time system from the data rows (u = uT and m = m0 on every slice).
:class:`_System` evaluates the rows, their sup-norm and the psi2 slab
terms at an iterate. The Jacobian's preconditioner is the Jacobian at
mean density, zero drift and mean coupling slope: one real 2N x 2N time
system per spatial Fourier mode, block tridiagonal in time with constant
2 x 2 blocks. It is factored once per solve, at the start state, by a
block LU sweep over the slabs, kept as O(N) coefficients per mode, and
applied as two scalar recurrences over the slabs (:func:`_time_solve`)
between the real FFTs of :func:`spectral.modewise_solve`; no inverse is
formed. The solve evaluates psi1 once at the solved state and builds
psi2 from the slab terms of its evaluation; :class:`SolveResult`
carries both values. Each Newton step's GMRES solve
runs to an Eisenstat–Walker forcing term; the Newton stopping test is
the sup-norm of the rows against ``tol``. A Newton solve whose line
search stalls or whose ``NEWTON_STEPS`` budget runs out, or a GMRES
solve that misses its tolerance, raises :class:`SolverError`. The separable rows
hold at any density; the solved node densities are checked once against
``hamiltonians.M_FLOOR``, before the certificates, and a density below it
raises :class:`PositivityError`. Data rows m0 and uT off the space
grid's shape raise :class:`GridError`, and non-finite data rows or a
negative or non-finite eps raise :class:`ModelError`, before any work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._newton_krylov import Evaluation, newton
from .errors import GridError, ModelError, PositivityError, SolverError
from .grids import SpaceTimeGrid
from . import functionals, spectral
from .functionals import GameState, _slab_jacobian, _slab_rows, psi1, psi2
from .hamiltonians import M_FLOOR, SeparableHamiltonian

__all__ = ["SolveResult", "solve_mfg", "solve_mfc", "compare_equilibrium_vs_planner"]

# Slack of the ordering psi2(equilibrium) <= psi2(planner) that
# compare_equilibrium_vs_planner reports.
ORDER_TOL = 1e-8
# Newton budget of a finite-horizon solve, which takes 3-5 steps on the
# benchmark's finite-horizon pool.
NEWTON_STEPS = 40


@dataclass
class SolveResult:
    """Converged state plus its certificates and solver diagnostics: psi1
    and psi2 evaluated once at the state (their values and the sup-norms of
    the derivative fields that vanish there), GMRES iterations and forcing
    terms per Newton step."""

    state: GameState
    newton_iterations: int
    residual_inf: float
    min_m: float
    psi1_dm_inf: float
    psi2_du_inf: float
    psi1: float
    psi2: float
    history: tuple[float, ...] = field(default_factory=tuple)
    krylov_iterations: tuple[int, ...] = field(default_factory=tuple)
    forcing_terms: tuple[float, ...] = field(default_factory=tuple)
    picard_sweeps: int = 0  # always 0; bench/tracer.py still reads it


def _check_model(model) -> None:
    if not isinstance(model, SeparableHamiltonian):
        raise ModelError("the finite-horizon solvers need a separable model")


class _System:
    """Residual, Jacobian action and preconditioner of the midpoint system on
    N time slabs of width dt over the space grid sp. ``forcing`` has
    :func:`newton` solve each step to its Eisenstat–Walker forcing term."""

    forcing = True

    def __init__(self, model, sp, N, dt, m0, uT, eps, planner):
        self.model = model
        self.sp = sp
        self.N = N
        self.dt = dt
        self.m0 = np.asarray(m0, dtype=float)
        self.uT = np.asarray(uT, dtype=float)
        self.eps = float(eps)
        self.planner = planner
        self.K = sp.num_nodes
        self._precond = None

    def fields(self, z):
        """Unknown vector -> (u, m) stacks with data rows uT, m0."""
        N, K = self.N, self.K
        u = np.empty((N + 1,) + self.sp.shape)
        m = np.empty((N + 1,) + self.sp.shape)
        u[:N] = z[: N * K].reshape((N,) + self.sp.shape)
        u[N] = self.uT
        m[0] = self.m0
        m[1:] = z[N * K :].reshape((N,) + self.sp.shape)
        return u, m

    def evaluate(self, z) -> Evaluation:
        """The game's slab rows, from one psi2 evaluation: the value row is
        psi1's (the HJB row) for the equilibrium and psi2's for the planner,
        and the transport row is psi2's. Newton stops on their sup-norm; the
        psi2 slab terms are the data, for :meth:`linearize` and the psi2
        report of the solved state."""
        u, m = self.fields(z)
        slabs = _slab_rows(
            self.sp, self.model, "psi2", u[:-1], u[1:], m[:-1], m[1:], self.dt, self.eps
        )
        value = slabs.value if self.planner else slabs.hjb
        rows = np.concatenate([value.ravel(), slabs.transport.ravel()])
        return Evaluation(rows, float(np.max(np.abs(rows))), slabs)

    def linearize(self, z, ev: Evaluation):
        """J dz from the slab terms of ``ev``, the evaluation at z, with the
        value row's dmb coefficient -g' (H_m, or 2 H_m - mbar f'' for the
        planner), and :meth:`preconditioner` at the mean density and mean g'
        of the first state linearized, kept for the rest of the solve."""
        s, sp, N = ev.data, self.sp, self.N
        coef = s.hv.dmH
        if self.planner:
            coef = 2.0 * coef - s.mbar * self.model.coupling.polyval(s.mbar, deriv=2)
        rows = _slab_jacobian(sp, self.model, s.mbar, s.p, s.hv, self.dt, self.eps, coef)[0]

        def jvp(dz):
            # du_0..du_{N-1} and dm_1..dm_N between the zero data rows du_N, dm_0.
            full = np.zeros((2, N + 1) + sp.shape)
            full[0, :N], full[1, 1:] = dz.reshape((2, N) + sp.shape)
            return rows(0.5 * (full[:, :-1] + full[:, 1:]), full[:, 1:] - full[:, :-1]).ravel()

        if self._precond is None:
            self._precond = self.preconditioner(float(s.mbar.mean()), -float(coef.mean()))
        return jvp, self._precond

    def preconditioner(self, mbar: float, gpbar: float):
        """Solve of the Jacobian at constant density mbar, zero drift and
        constant coupling slope gpbar. Per spatial mode (Laplacian symbol
        lam, div-grad symbol del) that is the real 2N x 2N midpoint system
            -(a_{j+1} - a_j)/dt - eps lam ab_j - gpbar bb_j = S_j,
             (b_{j+1} - b_j)/dt - eps lam bb_j - mbar del ab_j = P_j
        in (a_0..a_{N-1}, b_1..b_N), a_N = b_0 = 0, ab/bb slab midpoints,
        factored for all modes at once by :func:`_time_solve` and applied
        by :func:`spectral.modewise_solve`; no inverse is formed."""
        sp, N = self.sp, self.N
        solve = _time_solve(sp, N, self.dt, self.eps, mbar, gpbar)
        return lambda r: spectral.modewise_solve(solve, r.reshape((2, N) + sp.shape), sp.dim).ravel()


def _time_solve(sp, N: int, dt: float, eps: float, mbar: float, gpbar: float):
    """The solve of :meth:`_System.preconditioner`'s time systems on the
    :func:`spectral.rfft_modes`, from their block LU factors: a function
    that maps the rfft coefficients (2, N, *half) of the rows (S_j, P_j) to
    those of the unknowns (a_j, b_{j+1}).

    In y_j = (a_j, b_{j+1}) and row pairs f_j = (S_j, P_j) each system is
    block tridiagonal with constant 2 x 2 blocks (Golub & Van Loan, Matrix
    Computations, 4.5),
        L y_{j-1} + D y_j + U y_{j+1},   L = [[0, -g/2], [0, -beta]],
        D = [[alpha, -g/2], [-q/2, alpha]],   U = [[-beta, 0], [-q/2, 0]],
    with alpha = 1/dt - eps lam/2, beta = 1/dt + eps lam/2, q = mbar del and
    g = gpbar. The pivots D'_0 = D and D'_j = D - L D'_{j-1}^-1 U differ
    from D only in their first column, alpha + g w_j/2 over beta w_j - q/2,
    where w_j is row 1 of D'_{j-1}^-1 times U's first column (w_0 = 0).

    With r0_j and r1_j the rows of D'_j^-1, -L D'_j^-1 is (g/2, beta)
    times r1_j and U has one nonzero column. So the forward substitution
    z_j = f_j + (g/2, beta) s_{j-1} carries one scalar per mode and slab,
    s_j = r1_j . z_j, and so does the back substitution:
        s_j = r1_j . f_j + p_j s_{j-1},
        a_j = r0_j . f_j + k_j s_{j-1} + e_j a_{j+1},
        b_{j+1} = s_j - w_{j+1} a_{j+1},
    with p_j, k_j = r1_j . (g/2, beta), r0_j . (g/2, beta),
    e_j = r0_j . (beta, q/2), and s_{-1} = a_N = 0; w_{j+1} is
    -r1_j . (beta, q/2). The coefficients are (N, *half) arrays, and each application runs the two
    recurrences over the slabs, every mode at once. A pivot whose
    determinant is zero or not finite raises :class:`SolverError`, naming
    its slab.

    For g >= 0 the solve agrees with a refined dense inverse to 6e-15
    relative in max-norm. It does not pivot, so for g < 0 a pivot can pass
    near zero and cost digits: 9.8e-12 at g = -40 on 8^2 x 128.
    """
    lam = spectral.rfft_modes(sp.laplacian_symbol[..., None, None])[..., 0, 0]
    dg = spectral.rfft_modes(sp.divgrad_symbol[..., None, None])[..., 0, 0]
    alpha = 1.0 / dt - 0.5 * eps * lam
    beta = 1.0 / dt + 0.5 * eps * lam
    hg, hq = 0.5 * gpbar, 0.5 * mbar * dg
    w = np.zeros((N,) + alpha.shape)
    # A singular pivot propagates as inf or nan to the check below, which
    # raises the typed error, so numpy need not warn about it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(1, N):
            d00, d10 = alpha + hg * w[j - 1], beta * w[j - 1] - hq
            w[j] = (beta * d10 - hq * d00) / (alpha * d00 + hg * d10)
        d00, d10 = alpha + hg * w, beta * w - hq
        det = alpha * d00 + hg * d10
    bad = (det == 0.0) | ~np.isfinite(det)
    if bad.any():
        j = int(np.argmax(bad.reshape(N, -1).any(axis=1)))
        raise SolverError(
            f"the preconditioner's time pivot at slab {j} of {N} is singular "
            f"or not finite (mean coupling slope g' = {gpbar:.6g})"
        )
    r0, r1 = (alpha / det, hg / det), (-d10 / det, d00 / det)
    k = hg * r0[0] + beta * r0[1]
    # The loops' coefficients are complex (a real factor would be cast on
    # every multiply), one list entry per slab in the order its loop runs.
    p = list((hg * r1[0] + beta * r1[1]).astype(complex)[1:])
    e = list((beta * r0[0] + hq * r0[1]).astype(complex)[-2::-1])

    def solve(hat):
        S, P = hat
        out = np.empty_like(hat)
        a, s = out  # s_j, overwritten by b_{j+1} at the end
        np.multiply(r1[0], S, out=s)
        s += r1[1] * P
        prev = s[0]
        for p_j, s_j in zip(p, s[1:]):
            s_j += p_j * prev
            prev = s_j
        np.multiply(r0[0], S, out=a)
        a += r0[1] * P
        a[1:] += k[1:] * s[:-1]
        prev = a[-1]
        for e_j, a_j in zip(e, a[-2::-1]):
            a_j += e_j * prev
            prev = a_j
        s[:-1] -= w[1:] * a[1:]
        return out

    return solve


def _solve(
    model,
    grid: SpaceTimeGrid,
    m0,
    uT,
    eps: float,
    planner: bool,
    tol: float,
) -> SolveResult:
    _check_model(model)
    if grid.periodic_time:
        raise ModelError("finite-horizon solvers need an interval time axis")
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ModelError(f"the viscosity eps must be finite and >= 0 (got {eps})")
    for name, data in (("m0", m0), ("uT", uT)):
        shape = np.shape(data)
        if shape != grid.space.shape:
            raise GridError(f"{name} has shape {shape}, not the space grid's {grid.space.shape}")
        if not np.all(np.isfinite(data)):
            raise ModelError(f"{name} must be finite")
    sys = _System(model, grid.space, grid.n_t, grid.dt, m0, uT, eps, planner)

    start = np.concatenate([np.tile(d.ravel(), sys.N) for d in (sys.uT, sys.m0)])
    run = newton(sys, start, tol, NEWTON_STEPS)

    u, m = sys.fields(run.z)
    low = m.reshape(sys.N + 1, -1).min(axis=1)
    j = int(np.argmin(low))
    if not low[j] >= M_FLOOR:
        raise PositivityError(
            f"solved density {low[j]:.3e} at time slice {j} is below the floor "
            f"{M_FLOOR:.1e}"
        )
    state = GameState(grid, m, u, m0=sys.m0, uT=sys.uT, eps=eps)
    rep1 = psi1(state, model)
    rep2 = functionals._dynamic_report(state, model, "psi2", run.ev.data)
    # The planner's value row is psi2's, so its m-derivative certifies it.
    dm = rep2.dm if planner else rep1.dm
    return SolveResult(
        state=state,
        newton_iterations=len(run.krylov),
        residual_inf=run.ev.norm,
        min_m=float(m.min()),
        psi1_dm_inf=float(np.max(np.abs(dm))),
        psi2_du_inf=float(np.max(np.abs(rep2.du))),
        psi1=rep1.value,
        psi2=rep2.value,
        history=run.history,
        krylov_iterations=run.krylov,
        forcing_terms=run.forcing_terms,
    )


def solve_mfg(
    model: SeparableHamiltonian,
    grid: SpaceTimeGrid,
    m0,
    uT,
    eps: float = 1.0,
    tol: float = 1e-9,
) -> SolveResult:
    """Solve the equilibrium system; derivative fields of psi1 (in m) and
    psi2 (in u) vanish at the returned state to solver tolerance."""
    return _solve(model, grid, m0, uT, eps, False, tol)


def solve_mfc(
    model: SeparableHamiltonian,
    grid: SpaceTimeGrid,
    m0,
    uT,
    eps: float = 1.0,
    tol: float = 1e-9,
) -> SolveResult:
    """Solve the planner first-order system (critical point of psi2); the
    value row carries the extra m df/dm term."""
    return _solve(model, grid, m0, uT, eps, True, tol)


def compare_equilibrium_vs_planner(mfg_state, mfc_state, model) -> dict:
    """psi2 comparison of two solved states on common data and grid.

    Each side is a :class:`GameState`, whose psi2 is evaluated here, or the
    :class:`SolveResult` that carries it, whose psi2 value is read. The
    planner state minimizes the social cost -psi2, so the equilibrium
    value can only sit at or below the planner value; ``inequality_holds``
    allows ``ORDER_TOL`` of slack.
    """
    sides = (mfg_state, mfc_state)
    g, c = (side.state if isinstance(side, SolveResult) else side for side in sides)
    if g.grid is not c.grid and g.grid != c.grid:
        raise ModelError("states live on different grids")
    if g.m0.shape != c.m0.shape or not (np.allclose(g.m0, c.m0) and np.allclose(g.uT, c.uT)):
        raise ModelError("states were solved from different data rows")
    val_g, val_c = (
        side.psi2 if isinstance(side, SolveResult) else psi2(side, model).value for side in sides
    )
    return {
        "psi2_mfg": val_g,
        "psi2_mfc": val_c,
        "gap": val_c - val_g,
        "inequality_holds": bool(val_g <= val_c + ORDER_TOL),
    }
