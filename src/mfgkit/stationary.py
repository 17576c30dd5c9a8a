"""Stationary congestion equilibria via convex variational reformulation.

For congestion exponents alpha < 1 the ergodic equilibrium system (here
with zero viscosity)

    |grad u + Q|^gamma / (gamma m^alpha) = f(x, m) + Hbar,
    div( m^{1-alpha} |grad u + Q|^{gamma-2} (grad u + Q) ) = 0,
    m > 0,  int m = 1,

is solved by minimizing the jointly convex functional ``phi_bb`` in the
density/flux pair (m, w) over the affine constraints int m = 1 and
div w = 0, with the flux transform

    w = m^{1-alpha} |grad u + Q|^{gamma-2} (grad u + Q),
    grad u + Q = m^{-beta} |w|^{gamma'-2} w,   beta = (gamma'-1)(1-alpha).

The conjugate exponent gamma' = gamma/(gamma-1) is why a congestion
model needs gamma > 1, a rule :class:`CongestionHamiltonian` enforces
when it is built.

Both directions are stated once, as ``CongestionHamiltonian.flux`` and
``CongestionHamiltonian.momentum``; ``w_from_u`` and ``u_from_w`` apply
them to a potential u.

The multiplier of the mass constraint is -Hbar, recovered as minus the
mean of the m-derivative field. At the minimum, -phi_bb equals psi1_hat.

In d = 2 the divergence constraint can be eliminated with a stream
function: w = perp(grad v + R), perp(a) = (-a2, a1), with R a constant
2-vector (the harmonic part). ``solve_bb_2d_stream`` minimizes
``phi_stream``, which is ``phi_bb`` composed with perp, over (m, v, R).

For 1 < alpha <= gamma the problem is handled on the (m, u) side by
minimizing ``j_functional`` (= -psi1_hat, convex there); see
``solve_potential_a_gt_1``.

All three routes run on one engine, ``_descend``: projected
Barzilai-Borwein with a monotone Armijo backtracking safeguard, so the
recorded objective trace is strictly non-increasing. It owns the whole
loop and the density block (unit-mass recentering, the m > M_FLOOR guard,
the mean-zero gradient projection) and starts the density uniform; a route
supplies the fixed start of its own block (the constant flux Q, the zero
stream function, the zero potential), its objective and the projector of
that block (Leray for w, identity for the stream and potential
coordinates). A descent whose best projected-gradient norm has not
improved for ``STALL_WINDOW`` iterations, or whose line search fails, raises
:class:`SolverError`; it is never accepted as converged. ``_descend``
returns the objective's gradient at its last iterate, so no route
evaluates its objective again: Hbar = -mean(dm) is read from it.

The problem is convex, so any positive solution of the PDE rows is the
minimizer, and the descent is only the globalization that brings Newton
into its basin. BB converges only linearly, and near 1e-9 roundoff
decides whether it gets there. So each route stops its descent at the
hand-off tolerance ``HANDOFF_TOL`` (1e-2 on the projected gradient), and
``_certify`` polishes the hand-off by Newton-Krylov on the game's rows
(``_Stationary``, whose Jacobian is ``functionals._slab_jacobian``) until
their sup-norm is <= ``tol``, as in the finite-horizon solvers; that is
what ``tol`` means for these routes. It reads every certificate on the
polished state, so every returned result carries both gaps.

The stream and potential routes optimize a scalar potential whose
Hessian block is a weighted Laplacian, which would give the joint
problem an O(n^2) condition number. They therefore work in
preconditioned coordinates phi with the field recovered through the
self-adjoint spectral factor (-div grad)^{-1/2}; for these routes
``grad_inf`` measures the gradient in the phi coordinates, while the
returned residuals and duality gap are always physical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._newton_krylov import Evaluation, newton
from .errors import CurlError, ModelError, SolverError
from .grids import TorusGrid
from . import spectral
from .functionals import (
    FunctionalReport,
    StationaryState,
    _slab_jacobian,
    _slab_rows,
    j_functional,
    phi_bb,
    psi1_hat,
    psi2_hat,
)
from .hamiltonians import M_FLOOR, CongestionHamiltonian

__all__ = [
    "StationaryResult",
    "w_from_u",
    "u_from_w",
    "perp",
    "phi_stream",
    "solve_bb",
    "solve_bb_2d_stream",
    "solve_potential_a_gt_1",
]

HBAR_CROSSCHECK_TOL = 1e-6
# Projected-gradient sup-norm at which a certified route hands its descent
# over to the Newton polish. The descent only has to bring Newton into its
# basin: with no descent at all the polish fails on stronger data, and BB's
# linear tail below 1e-2 costs more than the Newton steps it saves.
HANDOFF_TOL = 1e-2
# Newton budget of the polish, which takes 3-5 steps from the hand-off on the
# benchmark's stationary pool.
POLISH_STEPS = 10
# Iteration budget of the descent. It takes at most 54 iterations to the
# hand-off on the benchmark's stationary pool and at most 1,597 with the
# drift and forcing eight times as strong; a stalled descent ends in the
# stall window long before.
DESCENT_STEPS = 50000
# Iterations without a new best projected-gradient norm after which the
# descent counts as stalled. Certified solves set a new best at least
# every 25 iterations; stalled ones go hundreds without one.
STALL_WINDOW = 100


def _half_inverse_divgrad(grid: TorusGrid, f: np.ndarray) -> np.ndarray:
    """Apply (-div grad)^{-1/2}; modes with zero symbol are dropped.

    Self-adjoint under the node-average inner product (real, even
    symbol). The dropped modes (k = 0 and pure-Nyquist corners) have
    identically zero gradient, so they cannot influence any objective
    that sees the potential only through its gradient.
    """
    half = grid.half_inverse_divgrad_symbol
    return spectral._ifft_real(grid, half * spectral._fft(grid, f))


def perp(vec: np.ndarray) -> np.ndarray:
    """Counterclockwise quarter turn of a 2-vector field: (a1,a2)->(-a2,a1)."""
    if vec.shape[0] != 2:
        raise ModelError("perp needs a 2-component field")
    return np.stack([-vec[1], vec[0]], axis=0)


def w_from_u(
    model: CongestionHamiltonian, grid: TorusGrid, m: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Flux of the congestion transform at grad u (see ``model.flux``)."""
    return model.flux(spectral.gradient(grid, u), m)


def u_from_w(
    model: CongestionHamiltonian,
    grid: TorusGrid,
    m: np.ndarray,
    w: np.ndarray,
    curl_tol: float = 1e-8,
):
    """Invert the flux transform; returns (u, consistency report).

    The candidate gradient g = ``model.momentum(w, m)`` must be a
    spatial gradient for u to exist: the largest of its per-axis spatial
    means (``drift_mean_mismatch_inf``) and the sup-norm of its solenoidal
    remainder (``curl_residual_inf``) are reported. Solenoidal content above
    ``curl_tol``, or a non-finite residual at any ``curl_tol``, raises
    :class:`CurlError` rather than being projected away silently.
    u is returned in the zero-mean gauge.
    """
    g = model.momentum(w, m)
    u = spectral.solve_poisson(grid, spectral.divergence(grid, g))
    u = u - u.mean()
    recon = g - spectral.gradient(grid, u)
    mean_mismatch = np.array([float(np.mean(c)) for c in recon])
    fluct = recon - mean_mismatch.reshape((-1,) + (1,) * m.ndim)
    curl_inf = float(np.max(np.abs(fluct)))
    report = {
        "drift_mean_mismatch_inf": float(np.max(np.abs(mean_mismatch))),
        "curl_residual_inf": curl_inf,
    }
    if not curl_inf <= curl_tol:
        raise CurlError(
            f"flux is not gradient-consistent: solenoidal residual {curl_inf:.3e} "
            f"exceeds {curl_tol:.1e}"
        )
    return u, report


def phi_stream(
    grid: TorusGrid,
    m: np.ndarray,
    v: np.ndarray,
    R: np.ndarray,
    model: CongestionHamiltonian,
) -> FunctionalReport:
    """Stream-function form of phi_bb on d = 2 (w = perp(grad v + R)).

    Evaluates phi_bb at w = perp(s), s = grad v + R. perp is an isometry
    with adjoint -perp, so the s-gradient is -perp(dw): its negative
    divergence is the v-gradient and its mean the R-gradient.
    """
    if grid.dim != 2 or model.dim != 2:
        raise ModelError("the stream reduction needs d = 2")
    s = spectral.gradient(grid, v) + np.asarray(R, dtype=float).reshape(2, 1, 1)
    rep = phi_bb(grid, m, perp(s), model)
    gs = -perp(rep.dw)
    dR = np.array([float(np.mean(gs[0])), float(np.mean(gs[1]))])
    return FunctionalReport(
        value=rep.value, dm=rep.dm, du=-spectral.divergence(grid, gs), extras={"dR": dR}
    )


@dataclass
class StationaryResult:
    """Solution of a stationary congestion problem and its certificates.

    ``w`` is ``model.flux`` at the polished grad u, a gradient flux by
    construction. ``phi_trace``, ``grad_inf`` and ``iterations`` are the
    descent's (its objective trace, final projected-gradient sup-norm and
    iteration count). ``value`` is the primal value (phi_bb or j) at the
    returned state, and ``duality_gap`` and ``hbar_crosscheck_gap`` are its
    two certificates; the duality gap is a function of the polished rows
    (see ``_certify``). ``newton_iterations`` and ``krylov_iterations``
    (GMRES iterations per Newton step) are the polish's, and
    ``handoff_curl_inf`` is the curl defect of the flux at the hand-off
    (flux routes only). Each number is reported once: the density's
    minimum and mass are read from ``state.m``, and psi1_hat's value is
    ``duality_gap - value``.
    """

    state: StationaryState
    w: np.ndarray
    value: float
    phi_trace: tuple[float, ...]
    grad_inf: float
    iterations: int
    duality_gap: float
    hbar_crosscheck_gap: float
    residual_hjb_inf: float
    residual_fp_inf: float
    newton_iterations: int = 0
    krylov_iterations: tuple[int, ...] = ()
    handoff_curl_inf: float | None = None


def _descend(grid, y0, objective, project_y):
    """Minimize ``objective`` over unit-mass m > ``M_FLOOR`` and a route block y,
    from the uniform density and y0.

    ``objective(m, y)`` returns (value, dm, dy); ``project_y`` projects
    both iterates and gradients of y onto the route's constraint space.

    The descent is projected BB (alternating BB1/BB2 steps) with a monotone
    Armijo backtracking search whose trials keep m > ``M_FLOOR``. Iterates are
    recentered onto unit mass and the y constraints, and inner products
    carry the node quadrature weight, so tolerances are mesh independent.
    A descent whose best projected-gradient sup-norm has not improved for
    ``STALL_WINDOW`` iterations, whose line search fails, or which does not
    reach ``HANDOFF_TOL`` in ``DESCENT_STEPS`` iterations raises
    :class:`SolverError`.

    Returns m, y, the objective's gradient (dm, dy) there, and the
    phi_trace, grad_inf and iterations, keyed as in :class:`StationaryResult`.
    """
    K = grid.num_nodes

    def unpack(x):
        return x[:K].reshape(grid.shape), x[K:].reshape(y0.shape)

    def pack(mv, yv):
        return np.concatenate([mv.ravel(), yv.ravel()])

    def dot(a, b):
        return grid.cell_volume * float(a @ b)

    def recenter(x):
        mv, yv = unpack(x)
        return pack(mv + (1.0 - mv.mean()), project_y(yv))

    def value_and_grad(x):
        val, dm, dy = objective(*unpack(x))
        return val, pack(dm, dy)

    def project(g):
        gm, gy = unpack(g)
        return pack(gm - gm.mean(), project_y(gy))

    x = recenter(pack(np.ones(grid.shape), y0))
    val, grad = value_and_grad(x)
    pg = project(grad)
    trace = [val]
    step = 1.0 / max(1.0, np.sqrt(dot(pg, pg)))
    prev_x = prev_pg = None
    best, best_it = np.inf, 0
    for it in range(1, DESCENT_STEPS + 1):
        gnorm = float(np.max(np.abs(pg)))
        if gnorm <= HANDOFF_TOL:
            break
        if gnorm < best:
            best, best_it = gnorm, it
        elif it - best_it >= STALL_WINDOW:
            raise SolverError(
                f"descent stalled at iteration {it}: the projected gradient "
                f"sup-norm has not improved on its floor {best:.3e} for "
                f"{STALL_WINDOW} iterations (tol {HANDOFF_TOL:.1e})"
            )
        if prev_x is not None:
            s = x - prev_x
            y = pg - prev_pg
            sy = dot(s, y)
            if sy > 0.0:
                # alternate BB1/BB2 for robustness
                if it % 2 == 0:
                    step = dot(s, s) / sy
                else:
                    yy = dot(y, y)
                    step = sy / yy if yy > 0.0 else step
            step = float(np.clip(step, 1e-12, 1e6))
        slope = dot(pg, pg)
        tau = step
        for _ in range(60):
            x_new = recenter(x - tau * pg)
            if float(x_new[:K].min()) > M_FLOOR:
                trial = value_and_grad(x_new)
                if trial[0] <= val - 1e-4 * tau * slope:
                    break
            tau *= 0.5
        else:
            raise SolverError(
                f"line search failed at iteration {it} "
                f"(projected gradient sup-norm {gnorm:.3e})"
            )
        prev_x, prev_pg = x, pg
        x, (val, grad) = x_new, trial
        pg = project(grad)
        trace.append(val)
    else:
        raise SolverError(
            f"no convergence in {DESCENT_STEPS} iterations "
            f"(projected gradient sup-norm {float(np.max(np.abs(pg))):.3e})"
        )
    run = dict(phi_trace=tuple(trace), grad_inf=gnorm, iterations=it - 1)
    return (*unpack(x), *unpack(grad), run)


class _Stationary:
    """The stationary game in z = (u, m, Hbar) for :func:`newton`.

    Rows, from one psi2 slab evaluation at eps = 0: the HJB row H - Hbar
    (psi1_hat's value row - Hbar), psi2_hat's transport row -div(m H_p) +
    mean(u) (the row has zero mean, so the mean of u fixes the gauge), and
    mean(m) - 1. Newton stops on their sup-norm, and each step's GMRES runs
    to its Eisenstat-Walker forcing term. The rows and the Jacobian read
    only ``model.eval`` and the radial coefficients (r, a, b, c) of
    ``model.second_derivatives``, so a separable model
    with dH/dm < 0 solves as a congestion model does. An evaluation keeps
    grad u and ``model.eval`` for the Jacobian, and not the rest of its slab
    terms, which would sit beside the GMRES basis.
    """

    forcing = True

    def __init__(self, model, grid):
        self.model = model
        self.grid = grid
        self.K = grid.num_nodes

    def fields(self, z):
        """(u, m, Hbar) of an unknown, or (HJB, transport, mass) of a row vector."""
        K, shape = self.K, self.grid.shape
        return z[:K].reshape(shape), z[K : 2 * K].reshape(shape), z[-1]

    @staticmethod
    def pack(a, b, scalar):
        return np.concatenate([a.ravel(), b.ravel(), [scalar]])

    def evaluate(self, z) -> Evaluation:
        u, m, hbar = self.fields(z)
        slabs = _slab_rows(self.grid, self.model, "psi2", u, u, m, m, 1.0, 0.0)
        rows = self.pack(slabs.hjb - hbar, slabs.transport + u.mean(), m.mean() - 1.0)
        return Evaluation(rows, float(np.max(np.abs(rows))), (slabs.p, slabs.hv))

    def feasible(self, z):
        return float(self.fields(z)[1].min()) > M_FLOOR

    def linearize(self, z, ev: Evaluation):
        """J dz at FFT cost, and a preconditioner exact at constant states.

        The rows vary as :func:`_slab_jacobian`'s without time terms, less
        dHbar and plus mean(du). H_m < 0, so dm is eliminated pointwise; the
        Schur operator in du, -div(A grad du) with A = m H_pp - W_m H_p^T /
        H_m = m a I + m b r r^T - W_m H_p^T / H_m, is inverted by the symbol
        of its d x d mean, and dHbar is taken from the mass row.
        """
        grid, K = self.grid, self.K
        m, (p, hv) = self.fields(z)[1], ev.data
        Hp, Hm = hv.dpH, hv.dmH
        if not float(Hm.max()) < 0.0:
            raise SolverError(
                f"the stationary polish needs dH/dm < 0, got max {float(Hm.max()):.3e}"
            )
        rows, (ma, mbr, r, Wm) = _slab_jacobian(grid, self.model, m, p, hv, 1.0, 0.0)
        c, d = Wm / Hm, grid.dim
        outer = np.einsum("ik,jk->ij", c.reshape(d, K), Hp.reshape(d, K))
        if mbr is not None:
            outer -= np.einsum("ik,jk->ij", mbr.reshape(d, K), r.reshape(d, K))
        A_mean = np.mean(ma) * np.eye(d) - outer / K
        s = grid.grad_symbols.imag
        sym = np.einsum("i...,ij,j...->...", s, A_mean, s)
        sym.flat[0] = 1.0  # the k = 0 row is the gauge: mean(du) = rhs mean
        inv_sym = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym != 0.0)
        inv_Hm_mean = float(np.mean(1.0 / Hm))

        def jvp(dz):
            du, dm, dh = self.fields(dz)
            d_hjb, d_transport = rows(dz[: 2 * K].reshape((2,) + grid.shape))
            return self.pack(d_hjb - dh, d_transport + du.mean(), dm.mean())

        grad = grid.grad_symbols

        def precond(r):
            # One forward transform of (r_transport, c r_hjb) and one inverse
            # of (du, grad du): the divergence and the gradient act on symbols.
            r_hjb, r_transport, r_mass = self.fields(r)
            hats = spectral._fft(grid, np.concatenate([r_transport[None], c * r_hjb]))
            rhs = hats[0]
            for g, h in zip(grad, hats[1:]):
                rhs = rhs + g * h
            du_hat = inv_sym * rhs
            back = spectral._ifft_real(grid, np.concatenate([du_hat[None], grad * du_hat]))
            du, grad_du = back[0], back[1:]
            dm = (r_hjb - np.sum(Hp * grad_du, axis=0)) / Hm
            dh = (r_mass - float(dm.mean())) / inv_Hm_mean
            return self.pack(du, dm + dh / Hm, dh)

        return jvp, precond


def _certify(model, grid, m, dm, run, tol, *, u=None, w=None):
    """Polish a descent's hand-off on the PDE rows, then certify it.

    The hand-off is the density m, the objective's m-gradient dm
    there (Hbar = -mean(dm) is the multiplier of the mass constraint) and
    either the potential ``u`` or a flux ``w``. A flux route's u is the
    Poisson potential of ``model.momentum(w, m)`` whatever its finite curl
    defect, which is reported as ``handoff_curl_inf``.

    Newton on :class:`_Stationary` runs from (u, m, Hbar) until the
    sup-norm of its rows is <= ``tol``. The certificates are the same for
    every route, all read on the polished state: the PDE residuals (the
    Hamilton-Jacobi equation, psi1_hat's value row, and the divergence of
    the flux transform of (m, u)), the duality gap of the primal value
    against psi1_hat, and the crosscheck of Hbar against psi2_hat, which
    raises :class:`SolverError` above ``HBAR_CROSSCHECK_TOL``. The duality
    gap is not independent of the rows. On the potential route j = -psi1_hat
    at every state, so the primal value is read from psi1_hat and the gap is
    0.0 by construction. On the flux routes the primal value is phi_bb, the
    only objective evaluation after the descent, and the gap is
    -mean(u div w) / (1 - alpha), the Fokker-Planck row paired with u. The
    returned flux is ``model.flux`` at the polished grad u, whose
    ``model.momentum`` is grad u in exact arithmetic, so it is not
    transformed back. A failed polish raises the polish's
    :class:`SolverError`, whose message names the hand-off flux's curl
    defect.
    """
    handoff_curl = None
    where = " in the stationary polish"
    if w is not None:
        u, report = u_from_w(model, grid, m, w, curl_tol=np.inf)
        handoff_curl = report["curl_residual_inf"]
        where += f" from a hand-off flux of curl defect {handoff_curl:.3e}"
    system = _Stationary(model, grid)
    start = system.pack(u, m, -float(np.mean(dm)))
    polish = newton(system, start, tol, POLISH_STEPS, where)
    u, m, hbar = system.fields(polish.z)
    w = model.flux(polish.ev.data[0], m)
    state = StationaryState(grid, m, u, eps=0.0, Hbar=hbar)
    psi1 = psi1_hat(state, model)
    value = -psi1.value if model.alpha > 1.0 else phi_bb(grid, m, w, model).value
    hbar_psi2 = psi2_hat(state, model).value
    hbar_gap = abs(hbar - hbar_psi2)
    if hbar_gap > HBAR_CROSSCHECK_TOL:
        raise SolverError(
            f"ergodic constant crosscheck failed: multiplier {hbar:.10f} vs "
            f"psi2_hat {hbar_psi2:.10f} (gap {hbar_gap:.3e})"
        )
    return StationaryResult(
        state=state,
        w=w,
        **run,
        value=value,
        newton_iterations=len(polish.krylov),
        krylov_iterations=polish.krylov,
        handoff_curl_inf=handoff_curl,
        duality_gap=value + psi1.value,
        hbar_crosscheck_gap=hbar_gap,
        residual_hjb_inf=float(np.max(np.abs(psi1.dm - hbar))),
        residual_fp_inf=float(np.max(np.abs(spectral.divergence(grid, w)))),
    )


def _require_bb_model(model: CongestionHamiltonian):
    if not isinstance(model, CongestionHamiltonian):
        raise ModelError("stationary congestion solvers need a congestion model")
    if model.alpha >= 1.0:
        raise ModelError("the convex route requires alpha < 1 (see solve_potential_a_gt_1)")


def solve_bb(
    model: CongestionHamiltonian,
    grid: TorusGrid,
    tol: float = 1e-9,
) -> StationaryResult:
    """Minimize phi_bb over unit-mass m > 0 and divergence-free w.

    The descent starts from the uniform density and the constant flux Q,
    and stops at ``HANDOFF_TOL``; ``tol`` bounds the polished PDE rows (see
    ``_certify``). The model needs alpha < 1.
    """
    _require_bb_model(model)

    def objective(m, w):
        rep = phi_bb(grid, m, w, model)
        return rep.value, rep.dm, rep.dw

    shape = (grid.dim,) + grid.shape
    w0 = np.broadcast_to(model.drift(np.zeros(shape)), shape)
    m, w, dm, _, run = _descend(
        grid, w0, objective, lambda wv: spectral.project_div_free(grid, wv)
    )
    return _certify(model, grid, m, dm, run, tol, w=w)


def solve_bb_2d_stream(
    model: CongestionHamiltonian,
    grid: TorusGrid,
    tol: float = 1e-9,
) -> StationaryResult:
    """Stream-function variant of :func:`solve_bb` (d = 2 only).

    Optimizes (m, phi, R) with the stream function v recovered as
    (-div grad)^{-1/2} phi, which equilibrates the potential block
    against the density block (see the module docstring).
    """
    _require_bb_model(model)
    if grid.dim != 2:
        raise ModelError("solve_bb_2d_stream needs a 2-D grid")
    K = grid.num_nodes
    # The block is y = (phi, sqrt(K) R): in the volume-weighted BB metric
    # a raw constant coordinate would carry curvature K times that of the
    # field blocks.
    r_scale = np.sqrt(K)

    def stream(y):
        return _half_inverse_divgrad(grid, y[:K].reshape(grid.shape)), y[K:] / r_scale

    def objective(m, y):
        rep = phi_stream(grid, m, *stream(y), model)
        dphi = _half_inverse_divgrad(grid, rep.du)
        # Chain rule for the scaled coordinates: dPhi/d(sR) = dR / s.
        return rep.value, rep.dm, np.concatenate([dphi.ravel(), rep.extras["dR"] / r_scale])

    # R starts where perp(R) = Q, read through the model's checked drift.
    q = model.drift(np.zeros(2))
    y0 = np.concatenate([np.zeros(K), np.array([q[1], -q[0]]) * r_scale])
    m, y, dm, _, run = _descend(grid, y0, objective, lambda yv: yv)
    v, R = stream(y)
    w = perp(spectral.gradient(grid, v) + R.reshape(2, 1, 1))
    return _certify(model, grid, m, dm, run, tol, w=w)


def solve_potential_a_gt_1(
    model: CongestionHamiltonian,
    grid: TorusGrid,
    tol: float = 1e-9,
) -> StationaryResult:
    """Minimize j_functional over (m, u) for exponents 1 < alpha <= gamma,
    from the uniform density and u = 0.

    The value function is optimized in preconditioned coordinates phi
    with u = (-div grad)^{-1/2} phi (see the module docstring).
    """
    if not isinstance(model, CongestionHamiltonian):
        raise ModelError("solve_potential_a_gt_1 needs a congestion model")
    if not (1.0 < model.alpha <= model.gamma):
        raise ModelError(
            f"solve_potential_a_gt_1 requires 1 < alpha <= gamma, got alpha = "
            f"{model.alpha}, gamma = {model.gamma}"
        )

    def objective(m, phi):
        rep = j_functional(grid, m, _half_inverse_divgrad(grid, phi), model)
        return rep.value, rep.dm, _half_inverse_divgrad(grid, rep.du)

    phi0 = np.zeros(grid.shape)
    m, phi, dm, _, run = _descend(grid, phi0, objective, lambda yv: yv)
    return _certify(model, grid, m, dm, run, tol, u=_half_inverse_divgrad(grid, phi))
