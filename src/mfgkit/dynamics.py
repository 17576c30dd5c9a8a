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

The code does not restate these rows: :meth:`_System.residual` returns the
slab rows of :mod:`mfgkit.functionals` (psi1's for the equilibrium,
psi2's for the planner), so at a solved state every reported derivative
field vanishes (data rows included). The slab structure is the implicit
midpoint step of the Hamiltonian flow generated by psi1_hat, so that
quantity is conserved along solutions up to an O(dt^2) wobble with no
secular drift.

The solver is :func:`mfgkit._newton_krylov.newton`, the damped
Newton–Krylov loop shared with the periodic branch, run on the full
space-time system from the data rows (u = uT and m = m0 on every slice).
:class:`_System` supplies the residual and, through
:meth:`_System.linearize`, the Jacobian applied at FFT cost and its
preconditioner, the Jacobian at mean density, zero drift and mean
coupling slope: one real 2N x 2N time system per spatial Fourier mode,
inverted once per solve, at the start state, and applied by
:func:`spectral.modewise` (see :meth:`_System.preconditioner`). Each
Newton step's GMRES solve runs to an Eisenstat–Walker forcing term; the
Newton stopping test is the sup-norm of the rows against ``tol``. A
Newton solve whose line search stalls or whose step budget runs out, or
a GMRES solve that misses its tolerance, raises :class:`SolverError`.
The separable rows hold at any density; the solved node densities are
checked once against the model's ``m_min``, before the certificates, and
a density below it raises :class:`PositivityError`. Data rows m0 and uT
off the space grid's shape raise :class:`GridError`, and non-finite data
rows or a negative or non-finite eps raise :class:`ModelError`, before
any work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._newton_krylov import newton
from .errors import GridError, ModelError, PositivityError
from .grids import SpaceTimeGrid
from . import spectral
from .functionals import GameState, _slab_rows, psi1, psi2
from .hamiltonians import SeparableHamiltonian

__all__ = ["SolveResult", "solve_mfg", "solve_mfc", "compare_equilibrium_vs_planner"]

@dataclass
class SolveResult:
    """Converged state plus solver diagnostics: GMRES iterations and forcing
    terms per Newton step."""

    state: GameState
    newton_iterations: int
    residual_inf: float
    min_m: float
    psi1_dm_inf: float
    psi2_du_inf: float
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

    def fields(self, z, data=True):
        """Unknown vector -> (u, m) stacks with data rows uT, m0 (zero if not ``data``)."""
        N, K = self.N, self.K
        u = np.empty((N + 1,) + self.sp.shape)
        m = np.empty((N + 1,) + self.sp.shape)
        u[:N] = z[: N * K].reshape((N,) + self.sp.shape)
        u[N] = self.uT if data else 0.0
        m[0] = self.m0 if data else 0.0
        m[1:] = z[N * K :].reshape((N,) + self.sp.shape)
        return u, m

    def residual(self, z):
        """The slab rows of the payoff whose critical point is solved: psi1's
        for the equilibrium, psi2's for the planner."""
        u, m = self.fields(z)
        which = "psi2" if self.planner else "psi1"
        rows = _slab_rows(
            self.sp, self.model, which, u[:-1], u[1:], m[:-1], m[1:], self.dt, self.eps
        )
        return np.concatenate([rows.value.ravel(), rows.transport.ravel()])

    def linearize(self, z, res):
        """The derivative of :meth:`residual` at z as an action dz -> J dz,
        and :meth:`preconditioner` at the mean density and mean g' of the
        first state linearized, kept for the rest of the solve."""
        sp, dt, eps = self.sp, self.dt, self.eps
        u, m = self.fields(z)
        mbar = 0.5 * (m[:-1] + m[1:])
        V = spectral.gradient(sp, 0.5 * (u[:-1] + u[1:]))
        c = self.model.coupling  # g' = f' (equilibrium) or (m f)'' (planner)
        gp = c.df_dm(sp, mbar)
        if self.planner:
            gp = 2.0 * gp + mbar * c.d2f_dm2(sp, mbar)

        def jvp(dz):
            du, dm = self.fields(dz, data=False)
            dub = 0.5 * (du[:-1] + du[1:])
            dmb = 0.5 * (dm[:-1] + dm[1:])
            G = spectral.gradient(sp, dub)
            dS = (
                -(du[1:] - du[:-1]) / dt
                - eps * spectral.laplacian(sp, dub)
                + np.sum(V * G, axis=0)
                - gp * dmb
            )
            dP = (
                (dm[1:] - dm[:-1]) / dt
                - eps * spectral.laplacian(sp, dmb)
                - spectral.divergence(sp, dmb * V + mbar * G)
            )
            return np.concatenate([dS.ravel(), dP.ravel()])

        if self._precond is None:
            self._precond = self.preconditioner(float(mbar.mean()), float(gp.mean()))
        return jvp, self._precond

    def preconditioner(self, mbar: float, gpbar: float):
        """Inverse of the Jacobian at constant density mbar, zero drift and
        constant coupling slope gpbar. Per spatial mode (Laplacian symbol
        lam, div-grad symbol del) that is the real 2N x 2N midpoint system
            -(a_{j+1} - a_j)/dt - eps lam ab_j - gpbar bb_j = S_j,
             (b_{j+1} - b_j)/dt - eps lam bb_j - mbar del ab_j = P_j
        in (a_0..a_{N-1}, b_1..b_N), a_N = b_0 = 0, ab/bb slab midpoints,
        inverted for all modes at once and applied by :func:`spectral.modewise`."""
        sp, N, dt, eps = self.sp, self.N, self.dt, self.eps
        eye, up, lo = np.eye(N), np.eye(N, k=1), np.eye(N, k=-1)
        lam = spectral.rfft_modes(sp.laplacian_symbol[..., None, None])
        dg = spectral.rfft_modes(sp.divgrad_symbol[..., None, None])
        au, am = 0.5 * (eye + up), 0.5 * (eye + lo)
        inv = np.linalg.inv(np.block([
            [(eye - up) / dt - eps * lam * au, -gpbar * am * np.ones_like(lam)],
            [-mbar * dg * au, (eye - lo) / dt - eps * lam * am],
        ]))  # (*modes, 2N, 2N)
        return lambda r: spectral.modewise(inv, r.reshape((2 * N,) + sp.shape)).ravel()


def _solve(
    model,
    grid: SpaceTimeGrid,
    m0,
    uT,
    eps: float,
    planner: bool,
    tol: float,
    max_newton: int,
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
    z, rn, krylov, history = newton(sys, start, tol, max_newton)

    u, m = sys.fields(z)
    low = m.reshape(sys.N + 1, -1).min(axis=1)
    j = int(np.argmin(low))
    if not low[j] >= model.m_min:
        raise PositivityError(
            f"solved density {low[j]:.3e} at time slice {j} is below the floor "
            f"{model.m_min:.1e}"
        )
    state = GameState(grid, m, u, m0=sys.m0, uT=sys.uT, eps=eps)
    if planner:
        rep = psi2(state, model)
        dm_inf = float(np.max(np.abs(rep.dm)))
        du_inf = float(np.max(np.abs(rep.du)))
    else:
        dm_inf = float(np.max(np.abs(psi1(state, model).dm)))
        du_inf = float(np.max(np.abs(psi2(state, model).du)))
    return SolveResult(
        state=state,
        newton_iterations=len(krylov),
        residual_inf=rn,
        min_m=float(m.min()),
        psi1_dm_inf=dm_inf,
        psi2_du_inf=du_inf,
        history=history,
        krylov_iterations=krylov,
        forcing_terms=sys.forcing_terms,
    )


def solve_mfg(
    model: SeparableHamiltonian,
    grid: SpaceTimeGrid,
    m0,
    uT,
    eps: float = 1.0,
    tol: float = 1e-9,
    max_newton: int = 40,
) -> SolveResult:
    """Solve the equilibrium system; derivative fields of psi1 (in m) and
    psi2 (in u) vanish at the returned state to solver tolerance."""
    return _solve(model, grid, m0, uT, eps, False, tol, max_newton)


def solve_mfc(
    model: SeparableHamiltonian,
    grid: SpaceTimeGrid,
    m0,
    uT,
    eps: float = 1.0,
    tol: float = 1e-9,
    max_newton: int = 40,
) -> SolveResult:
    """Solve the planner first-order system (critical point of psi2); the
    value row carries the extra m df/dm term."""
    return _solve(model, grid, m0, uT, eps, True, tol, max_newton)


def compare_equilibrium_vs_planner(mfg_state, mfc_state, model, tol: float = 1e-8) -> dict:
    """psi2 comparison of two solved states on common data and grid.

    The planner state minimizes the social cost -psi2, so the equilibrium
    value can only sit at or below the planner value.
    """
    if mfg_state.grid is not mfc_state.grid and mfg_state.grid != mfc_state.grid:
        raise ModelError("states live on different grids")
    if mfg_state.m0.shape != mfc_state.m0.shape or not (
        np.allclose(mfg_state.m0, mfc_state.m0) and np.allclose(mfg_state.uT, mfc_state.uT)
    ):
        raise ModelError("states were solved from different data rows")
    val_g = psi2(mfg_state, model).value
    val_c = psi2(mfc_state, model).value
    return {
        "psi2_mfg": val_g,
        "psi2_mfc": val_c,
        "gap": val_c - val_g,
        "inequality_holds": bool(val_g <= val_c + tol),
    }
