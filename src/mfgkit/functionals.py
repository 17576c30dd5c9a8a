"""Payoff functionals and their exact discrete variational derivatives.

Time quadrature is the implicit-midpoint (Crank-Nicolson) rule: every
running-cost term is evaluated at slab midpoints (a_{j+1/2} = (a_j +
a_{j+1}) / 2) and weighted by dt. The derivative fields reported here
are the *exact* gradients of these discrete values with respect to the
node values, normalized by the quadrature weights (cell volume times
trapezoid time weight), so that

    d/ds Value(state + s * delta) |_{s=0}  ==  <report.dX, delta>

holds to machine precision with the discrete inner product. With this
convention the derivative fields are node-centered averages of per-slab
midpoint residuals, and they all vanish at solved states, data rows
included.

Sign and role conventions:

* ``psi1``: m-weighted running cost with the m-antiderivative F_H of H;
  its dm field is the discrete backward HJB residual.
* ``psi2``: same but with m H in place of F_H; its du field is the
  discrete weak-form forward continuity residual (so critical points in
  u enforce the transport equation).
* ``psi1_hat`` / ``psi2_hat``: ergodic (single-slice) versions.
* ``psi1_tilde`` / ``psi2_tilde``: ergodic versions with the multiplier
  term Hbar * (1 - integral of m); their dHbar is the mass defect.
* ``phi_bb``: convex congestion objective in the density/flux variables
  (m, w); minimizers correspond to stationary congestion equilibria.
* ``j_functional``: the concave-side objective for congestion exponents
  alpha > 1 (equal to minus ``psi1_hat``).
* ``social_cost`` / ``b_cost`` / ``a_cost``: control-side costs used by
  the planner comparison and the duality crosscheck. Controls live on
  slab midpoints (staggered in time), which is what makes the discrete
  duality identities exact rather than O(dt^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GridError, ModelError
from .grids import SpaceTimeGrid, TorusGrid
from . import spectral
from .hamiltonians import CongestionHamiltonian, HamiltonianValues, SeparableHamiltonian
from .hamiltonians import _check_floor

__all__ = [
    "GameState",
    "StationaryState",
    "FunctionalReport",
    "psi1",
    "psi2",
    "psi1_hat",
    "psi2_hat",
    "psi1_tilde",
    "psi2_tilde",
    "phi_bb",
    "j_functional",
    "optimal_control",
    "social_cost",
    "b_cost",
    "a_cost",
    "hamiltonian_profile",
]


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GameState:
    """Fields (m, u) on [0, T] x T^d plus the data they should match.

    ``m`` and ``u`` have shape (n_t + 1, *space); ``m0`` and ``uT`` are
    spatial fields. The evaluators do not require m[0] == m0 or
    u[-1] == uT; the mismatch simply shows up in the derivative fields.
    """

    grid: SpaceTimeGrid
    m: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    m0: np.ndarray = field(repr=False)
    uT: np.ndarray = field(repr=False)
    eps: float = 1.0

    def __post_init__(self):
        if self.grid.periodic_time:
            raise GridError("GameState requires an interval time axis")
        for name in ("m", "u", "m0", "uT"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.m.shape != self.grid.field_shape or self.u.shape != self.grid.field_shape:
            raise GridError(
                f"state fields {self.m.shape} do not match grid {self.grid.field_shape}"
            )
        if self.m0.shape != self.grid.space.shape or self.uT.shape != self.grid.space.shape:
            raise GridError("data fields must be spatial fields")
        if self.eps < 0.0:
            raise GridError(f"viscosity must be >= 0, got {self.eps}")


@dataclass(frozen=True)
class StationaryState:
    """Fields (m, u) on T^d, optionally with the ergodic constant."""

    grid: TorusGrid
    m: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    eps: float = 0.0
    Hbar: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen(self.m))
        object.__setattr__(self, "u", _frozen(self.u))
        if self.m.shape != self.grid.shape or self.u.shape != self.grid.shape:
            raise GridError("stationary fields must live on the grid")
        if self.eps < 0.0:
            raise GridError(f"viscosity must be >= 0, got {self.eps}")


@dataclass
class FunctionalReport:
    """Value plus exact discrete derivative fields of one functional."""

    value: float
    dm: np.ndarray | None = None
    du: np.ndarray | None = None
    dw: np.ndarray | None = None
    dHbar: float | None = None
    extras: dict = field(default_factory=dict)


def _xmean(arr: np.ndarray) -> np.ndarray:
    """Spatial node average of trailing axes for a (n_slabs, *space) array."""
    return arr.reshape(arr.shape[0], -1).mean(axis=1)


class _Slabs(NamedTuple):
    """Implicit-midpoint slab terms of one payoff (see :func:`_slab_rows`)."""

    value: np.ndarray  # value row, the per-slab m-derivative
    transport: np.ndarray  # transport row, the per-slab u-derivative
    hjb: np.ndarray  # adv + H, the HJB residual
    running: np.ndarray  # running cost, m-weighted form
    cost: np.ndarray  # running cost without its m * adv part: F_H or m H
    ubar: np.ndarray
    mbar: np.ndarray
    trans: np.ndarray
    p: np.ndarray  # grad ubar
    hv: HamiltonianValues  # model.eval at (p, mbar)


def _slab_rows(sp, model, which: str, u0, u1, m0, m1, dt: float, eps: float) -> _Slabs:
    """The rows of payoff ``which`` on time slabs of width dt from (u0, m0)
    to (u1, m1), all terms at the slab midpoints ubar, mbar:

        adv   = -(u1 - u0)/dt - eps lap(ubar),
        trans =  (m1 - m0)/dt - eps lap(mbar),
        value row:     adv + H (psi1),  adv + H + mbar dmH (psi2),
        transport row: trans - div W,   W = dp F_H (psi1),  mbar dpH (psi2).

    These are the finite-horizon solver's rows (psi1's for the equilibrium,
    psi2's for the planner); with u0 = u1 and m0 = m1 they are the
    stationary rows.
    """
    ubar, mbar = 0.5 * (u0 + u1), 0.5 * (m0 + m1)
    adv, trans = -(u1 - u0) / dt, (m1 - m0) / dt
    if eps != 0.0:  # at eps = 0 the two Laplacians would only be scaled by 0
        p, lap_u, lap_m = spectral.gradient_laplacians(sp, np.stack([ubar, mbar]))
        adv = adv - eps * lap_u
        trans = trans - eps * lap_m
    else:
        p = spectral.gradient(sp, ubar)
    hv = model.eval(sp, p, mbar)
    hjb = adv + hv.H
    if which == "psi1":
        cost, W = model.eval_F_H(sp, p, mbar)
        value, running = hjb, mbar * adv + cost
    elif which == "psi2":
        cost, W = mbar * hv.H, mbar * hv.dpH
        value, running = hjb + mbar * hv.dmH, mbar * hjb
    else:  # pragma: no cover
        raise ValueError(which)
    transport = trans - spectral.divergence(sp, W)
    return _Slabs(value, transport, hjb, running, cost, ubar, mbar, trans, p, hv)


def _slab_jacobian(sp, model, mbar, p, hv, dt: float, eps: float, dm_coef=None):
    """The derivative of :func:`_slab_rows`' rows hjb and psi2's transport
    at one evaluation's midpoints mbar, p = grad ubar and values ``hv``:

        d hjb = d adv + H_p . grad dub + c dmb,   c = H_m or ``dm_coef``,
        d transport = d trans - div(mbar H_pp grad dub + W_m dmb),

    with W_m = H_p + mbar dm_dpH. Returns (rows, mbar H_pp, W_m), where
    ``rows`` maps the stacked midpoints (dub, dmb) and time differences
    (du1 - du0, dm1 - dm0), or None for no time terms, to the stacked
    (d hjb, d transport) with one transform pair plus the divergence's.
    """
    coef = hv.dmH if dm_coef is None else dm_coef
    mHpp = mbar * model.hess_pp(sp, p, mbar)
    Wm = hv.dpH + mbar * model.dm_dpH(sp, p, mbar)

    def rows(bars, diffs=None):
        out = np.zeros(bars.shape) if diffs is None else diffs / dt
        out[0] *= -1.0  # d adv starts at -(du1 - du0)/dt
        if eps != 0.0:
            G, lap_u, lap_m = spectral.gradient_laplacians(sp, bars)
            out[0] -= eps * lap_u
            out[1] -= eps * lap_m
        else:
            G = spectral.gradient(sp, bars[0])
        out[0] += np.sum(hv.dpH * G, axis=0)
        out[0] += coef * bars[1]
        flux = np.einsum("ij...,j...->i...", mHpp, G) + Wm * bars[1]
        out[1] -= spectral.divergence(sp, flux)
        return out

    return rows, mHpp, Wm


def _nodes(slab: np.ndarray, first=0.0, last=0.0) -> np.ndarray:
    """Node field of per-slab rows: end slabs plus ``first``/``last`` at the
    end nodes, the average of the two adjacent slabs inside."""
    out = np.empty((len(slab) + 1,) + slab.shape[1:])
    out[0] = slab[0] + first
    out[1:-1] = 0.5 * (slab[:-1] + slab[1:])
    out[-1] = slab[-1] + last
    return out


def _dynamic_report(
    state: GameState, model, which: str, s: _Slabs | None = None
) -> FunctionalReport:
    """The report of payoff ``which`` at ``state``, from its slab rows ``s``
    if the caller already holds them."""
    grid = state.grid
    dt = grid.dt
    u, m = state.u, state.m
    if s is None:
        s = _slab_rows(grid.space, model, which, u[:-1], u[1:], m[:-1], m[1:], dt, state.eps)

    initial_pairing = float(np.mean(state.m0 * u[0]))
    terminal_cost = float(np.mean(m[-1] * state.uT))
    value = (
        dt * float(np.sum(_xmean(s.running)))
        + float(np.mean(m[-1] * u[-1]))
        - initial_pairing
        - terminal_cost
    )
    # Node-centered derivative fields (see module docstring).
    dm = _nodes(s.value, last=(2.0 / dt) * (u[-1] - state.uT))
    du = _nodes(s.transport, first=(2.0 / dt) * (m[0] - state.m0))

    # Second displayed form (transport-weighted); equal up to roundoff by
    # summation by parts in time and self-adjointness of the Laplacian.
    value_u_weighted = (
        dt * float(np.sum(_xmean(s.ubar * s.trans + s.cost)))
        + float(np.mean(m[0] * u[0]))
        - initial_pairing
        - terminal_cost
    )

    extras = {
        "value_u_weighted": value_u_weighted,
        "hjb_slab_residual": s.hjb,
        "fp_slab_residual": s.transport if which == "psi2" else None,
    }
    return FunctionalReport(value=value, dm=dm, du=du, extras=extras)


def psi1(state: GameState, model) -> FunctionalReport:
    """First payoff (antiderivative form); dm is the HJB residual field."""
    return _dynamic_report(state, model, "psi1")


def psi2(state: GameState, model) -> FunctionalReport:
    """Second payoff (m H form); du is the continuity residual field."""
    return _dynamic_report(state, model, "psi2")


def _hat_report(state: StationaryState, model, which: str) -> FunctionalReport:
    """The one-slab rows of the constant pair (u, u), (m, m)."""
    u, m = state.u, state.m
    s = _slab_rows(state.grid, model, which, u, u, m, m, 1.0, state.eps)
    return FunctionalReport(value=float(np.mean(s.running)), dm=s.value, du=s.transport)


def psi1_hat(state: StationaryState, model) -> FunctionalReport:
    return _hat_report(state, model, "psi1")


def psi2_hat(state: StationaryState, model) -> FunctionalReport:
    return _hat_report(state, model, "psi2")


def _with_multiplier(base: FunctionalReport, state: StationaryState) -> FunctionalReport:
    if state.Hbar is None:
        raise ModelError("multiplier form needs a state with Hbar set")
    mass_defect = 1.0 - float(np.mean(state.m))
    return FunctionalReport(
        value=base.value + state.Hbar * mass_defect,
        dm=base.dm - state.Hbar,
        du=base.du,
        dHbar=mass_defect,
        extras=dict(base.extras),
    )


def psi1_tilde(state: StationaryState, model) -> FunctionalReport:
    """psi1_hat plus Hbar (1 - mass); stationary points pin unit mass."""
    return _with_multiplier(psi1_hat(state, model), state)


def psi2_tilde(state: StationaryState, model) -> FunctionalReport:
    return _with_multiplier(psi2_hat(state, model), state)


def phi_bb(
    grid: TorusGrid, m: np.ndarray, w: np.ndarray, model: CongestionHamiltonian
) -> FunctionalReport:
    """Convex congestion objective in (density m, flux w), alpha < 1.

    Phi(m, w) = int [ -w.Q/(1-alpha)
                      + |w|^{gamma'} m^{-beta} / ((1-alpha) gamma')
                      + F(x, m) ],   beta = (gamma'-1)(1-alpha).

    The integrand is jointly convex in (m, w); constrained minimizers
    over unit-mass m > 0 and divergence-free w are stationary equilibria.
    """
    if not isinstance(model, CongestionHamiltonian):
        raise ModelError("phi_bb needs a congestion model")
    if model.alpha >= 1.0:
        raise ModelError("phi_bb requires alpha < 1")
    if model.gamma == 1.0:
        raise ModelError(
            "phi_bb requires gamma > 1: at gamma = 1 the flux power term "
            "degenerates to the constraint |w| <= m^{1-alpha}"
        )
    gp = model.gamma_prime
    a = model.alpha
    beta = model.beta
    _check_floor(m, model.m_min)
    wmag = np.sqrt(np.sum(w * w, axis=0))
    wQ = np.sum(w * model.drift(w), axis=0)
    value = float(
        np.mean(
            -wQ / (1.0 - a)
            + wmag**gp * m ** (-beta) / ((1.0 - a) * gp)
            + model.coupling.F(grid, m)
        )
    )
    dm = -(wmag**gp) * m ** (-beta - 1.0) / model.gamma + model.coupling.f(grid, m)
    return FunctionalReport(value=value, dm=dm, dw=model.momentum(w, m) / (1.0 - a))


def j_functional(
    grid: TorusGrid, m: np.ndarray, u: np.ndarray, model: CongestionHamiltonian
) -> FunctionalReport:
    """Convex objective for congestion exponents alpha > 1 (= -psi1_hat).

    J(m, u) = int [ m^{1-alpha} |grad u + Q|^gamma / ((alpha-1) gamma)
                    + F(x, m) ],  convex for 1 < alpha <= gamma.
    """
    if not isinstance(model, CongestionHamiltonian):
        raise ModelError("j_functional needs a congestion model")
    if model.alpha <= 1.0:
        raise ModelError("j_functional requires alpha > 1")
    _check_floor(m, model.m_min)
    a, g = model.alpha, model.gamma
    p = spectral.gradient(grid, u)
    _, rmag = model.shift(p)
    value = float(
        np.mean(m ** (1.0 - a) * rmag**g / ((a - 1.0) * g) + model.coupling.F(grid, m))
    )
    dm = -(m ** (-a)) * rmag**g / g + model.coupling.f(grid, m)
    du = -spectral.divergence(grid, model.flux(p, m)) / (a - 1.0)
    return FunctionalReport(value=value, dm=dm, du=du)


def optimal_control(state: GameState, model) -> np.ndarray:
    """Feedback drift -dpH at slab midpoints; shape (d, n_t, *space)."""
    sp = state.grid.space
    mbar = 0.5 * (state.m[:-1] + state.m[1:])
    ubar = 0.5 * (state.u[:-1] + state.u[1:])
    pbar = spectral.gradient(sp, ubar)
    return -model.eval(sp, pbar, mbar).dpH


def social_cost(state: GameState, model, control: np.ndarray | None = None) -> float:
    """Control-side cost S = int int m L(x, -r, m) + int uT m(T).

    ``control`` is staggered in time (shape (d, n_t, *space)); defaults
    to the state's feedback control. At states satisfying the discrete
    continuity rows with m(0) = m0, S = -psi2 exactly.
    """
    grid = state.grid
    sp = grid.space
    mbar = 0.5 * (state.m[:-1] + state.m[1:])
    if control is None:
        control = optimal_control(state, model)
    L = model.legendre(sp, -control, mbar)
    return grid.dt * float(np.sum(_xmean(mbar * L))) + float(
        np.mean(state.uT * state.m[-1])
    )


def b_cost(state: GameState, model: SeparableHamiltonian, control=None) -> float:
    """Transport-side dual cost B = int int [m L0(-r) + F(x, m)] + int uT m(T)."""
    if not isinstance(model, SeparableHamiltonian):
        raise ModelError("b_cost is defined for separable models")
    grid = state.grid
    sp = grid.space
    mbar = 0.5 * (state.m[:-1] + state.m[1:])
    if control is None:
        control = optimal_control(state, model)
    L0 = 0.5 * np.sum(control * control, axis=0)  # L0(-r) = |r|^2 / 2
    F = model.coupling.F(sp, mbar)
    return grid.dt * float(np.sum(_xmean(mbar * L0 + F))) + float(
        np.mean(state.uT * state.m[-1])
    )


def a_cost(state: GameState, model: SeparableHamiltonian) -> float:
    """Obstacle-side dual cost A = int int F*(x, s) - int u(0) m0.

    Evaluated at the state's induced local control s = f(x, m) on slab
    midpoints. At states satisfying the discrete HJB rows with
    u(T) = uT, A = +psi1 exactly.
    """
    return _a_cost(state, model)[0]


def _a_cost(state: GameState, model: SeparableHamiltonian):
    """:func:`a_cost` with what it reads: (A, mbar, s, F*(x, s))."""
    if not isinstance(model, SeparableHamiltonian):
        raise ModelError("a_cost is defined for separable models")
    grid = state.grid
    sp = grid.space
    mbar = 0.5 * (state.m[:-1] + state.m[1:])
    s = model.coupling.f(sp, mbar)
    fstar = model.coupling.conjugate(sp, s)
    value = grid.dt * float(np.sum(_xmean(fstar))) - float(np.mean(state.u[0] * state.m0))
    return value, mbar, s, fstar


def hamiltonian_profile(state: GameState, model) -> np.ndarray:
    """psi1_hat evaluated slice by slice (conserved along solved dynamics)."""
    sp = state.grid.space
    out = np.empty(state.grid.num_time_nodes)
    for j in range(len(out)):
        slice_state = StationaryState(sp, state.m[j], state.u[j], eps=state.eps)
        out[j] = psi1_hat(slice_state, model).value
    return out
