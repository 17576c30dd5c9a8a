import numpy as np
import pytest

import helpers
from mfgkit import functionals
from mfgkit import (
    CongestionHamiltonian,
    Coupling,
    GameState,
    GridError,
    SeparableHamiltonian,
    SpaceTimeGrid,
    SpatialTerm,
    StationaryState,
    TorusGrid,
    a_cost,
    b_cost,
    hamiltonian_profile,
    j_functional,
    optimal_control,
    phi_bb,
    psi1,
    psi1_hat,
    psi1_tilde,
    psi2,
    psi2_hat,
    psi2_tilde,
    social_cost,
    solve_bb,
    spectral,
)


@pytest.fixture(scope="module")
def g1():
    return TorusGrid((16,))


@pytest.fixture(scope="module")
def random_game(g1):
    """A non-solved game state with band-limited fields."""
    st = SpaceTimeGrid(g1, 8, 0.25)
    rng = np.random.default_rng(10)
    m = np.stack([1.0 + spectral.random_band_limited(g1, rng, amplitude=0.3) for _ in range(9)])
    u = np.stack([spectral.random_band_limited(g1, rng, amplitude=0.5) for _ in range(9)])
    m0 = 1.0 + spectral.random_band_limited(g1, rng, amplitude=0.1)
    m0 /= m0.mean()
    uT = spectral.random_band_limited(g1, rng, amplitude=0.1)
    return GameState(st, m, u, m0, uT, eps=1.0)


def test_trivial_stationary_values(g1):
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)))
    state = StationaryState(g1, np.ones(16), np.zeros(16))
    assert psi2_hat(state, model).value == -1.0
    assert psi1_hat(state, model).value == 0.0


def test_trivial_psi2_hat_general_coupling(g1):
    model = SeparableHamiltonian(Coupling(poly=(0.5, 2.0)))
    state = StationaryState(g1, np.ones(16), np.zeros(16))
    # psi2_hat at the uniform state is -f(1)
    assert abs(psi2_hat(state, model).value + 2.5) < 1e-15


def test_phi_bb_trivial_is_zero():
    g = TorusGrid((16, 16))
    model = CongestionHamiltonian(Q=(1.0, 0.0), alpha=0.5, gamma=2.0)
    rep = phi_bb(g, np.ones((16, 16)), np.zeros((2, 16, 16)), model)
    assert rep.value == 0.0


def test_j_equals_minus_psi1_hat_on_random_states(g1):
    model = CongestionHamiltonian(
        Q=(0.5,), alpha=1.5, gamma=2.0, coupling=Coupling(poly=(0.0, 1.0))
    )
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = 1.0 + spectral.random_band_limited(g1, rng, amplitude=0.4)
        u = spectral.random_band_limited(g1, rng, amplitude=0.5)
        jv = j_functional(g1, m, u, model).value
        pv = psi1_hat(StationaryState(g1, m, u), model).value
        assert abs(jv + pv) < 1e-10


def test_phi_bb_midpoint_convexity(g1):
    model = CongestionHamiltonian(
        Q=(0.5,), alpha=0.5, gamma=2.0, coupling=Coupling(poly=(0.0, 1.0))
    )
    rng = np.random.default_rng(12)
    for _ in range(25):
        m1 = 1.0 + spectral.random_band_limited(g1, rng, amplitude=0.4)
        m2 = 1.0 + spectral.random_band_limited(g1, rng, amplitude=0.4)
        w1 = np.stack([spectral.random_band_limited(g1, rng)])
        w2 = np.stack([spectral.random_band_limited(g1, rng)])
        mid = phi_bb(g1, 0.5 * (m1 + m2), 0.5 * (w1 + w2), model).value
        avg = 0.5 * (phi_bb(g1, m1, w1, model).value + phi_bb(g1, m2, w2, model).value)
        assert mid <= avg + 1e-12


def test_two_form_values_agree(random_game):
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)))
    for fn in (psi1, psi2):
        rep = fn(random_game, model)
        gap = abs(rep.value - rep.extras["value_u_weighted"])
        assert gap / max(1.0, abs(rep.value)) < 1e-12


def test_u_derivative_identical_across_forms(random_game):
    """psi2 - psi1 depends on m only, so the u-derivative fields agree."""
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)))
    r1 = psi1(random_game, model)
    r2 = psi2(random_game, model)
    assert np.max(np.abs(r1.du - r2.du)) < 1e-13
    assert np.max(np.abs(r1.dm - r2.dm)) > 1e-3  # the m-derivatives differ


def test_derivative_fields_are_residual_stencils(random_game):
    """dm/du node fields re-assembled from slab residuals, including the
    2/dt boundary coupling to the terminal and initial data."""
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)))
    R, P = helpers.slab_residuals(random_game, model, spectral)
    r1 = psi1(random_game, model)
    r2 = psi2(random_game, model)
    dt = random_game.grid.dt
    dm = helpers.node_field_from_slabs(
        R, (2.0 / dt) * (random_game.u[-1] - random_game.uT)
    )
    du = helpers.node_field_from_slabs(
        P, (2.0 / dt) * (random_game.m[0] - random_game.m0), at_start=True
    )
    scale = max(np.max(np.abs(dm)), np.max(np.abs(du)))
    assert np.max(np.abs(dm - r1.dm)) < 1e-12 * scale
    assert np.max(np.abs(du - r2.du)) < 1e-12 * scale
    assert np.max(np.abs(r1.extras["hjb_slab_residual"] - R)) < 1e-12 * scale
    assert np.max(np.abs(r2.extras["fp_slab_residual"] - P)) < 1e-12 * scale


def test_dynamic_derivatives_match_finite_differences(random_game):
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)))
    st = random_game.grid
    rng = np.random.default_rng(13)
    dm = np.stack([spectral.random_band_limited(st.space, rng) for _ in range(st.n_t + 1)])
    du = np.stack([spectral.random_band_limited(st.space, rng) for _ in range(st.n_t + 1)])
    for fn in (psi1, psi2):
        rep = fn(random_game, model)
        for field, dirn, which in ((rep.dm, dm, "m"), (rep.du, du, "u")):
            analytic = spectral.integrate_space_time(st, field * dirn)

            def value_at(t):
                m_t = random_game.m + (t * dirn if which == "m" else 0.0)
                u_t = random_game.u + (t * dirn if which == "u" else 0.0)
                probe = GameState(
                    st, m_t, u_t, random_game.m0, random_game.uT, eps=random_game.eps
                )
                return fn(probe, model).value

            fd = helpers.fd_directional(value_at, 1e-4)
            assert abs(fd - analytic) / max(1.0, abs(analytic), abs(fd)) < 1e-8


def test_stationary_derivatives_match_finite_differences(g1):
    model = CongestionHamiltonian(
        Q=(0.5,),
        alpha=0.5,
        gamma=2.0,
        coupling=Coupling(poly=(0.0, 1.0), terms=(SpatialTerm(0.1, (1,)),)),
    )
    rng = np.random.default_rng(14)
    m = 1.0 + spectral.random_band_limited(g1, rng, amplitude=0.3)
    u = spectral.random_band_limited(g1, rng, amplitude=0.4)
    dm = spectral.random_band_limited(g1, rng)
    du = spectral.random_band_limited(g1, rng)
    for fn in (psi1_hat, psi2_hat):
        rep = fn(StationaryState(g1, m, u), model)
        an_m = spectral.mean(g1, rep.dm * dm)
        fd_m = helpers.fd_directional(
            lambda t: fn(StationaryState(g1, m + t * dm, u), model).value
        )
        assert abs(an_m - fd_m) / max(1.0, abs(fd_m)) < 1e-8
        an_u = spectral.mean(g1, rep.du * du)
        fd_u = helpers.fd_directional(
            lambda t: fn(StationaryState(g1, m, u + t * du), model).value
        )
        assert abs(an_u - fd_u) / max(1.0, abs(fd_u)) < 1e-8


def test_tilde_multiplier_derivative(g1):
    model = CongestionHamiltonian(
        Q=(0.5,), alpha=0.5, gamma=2.0, coupling=Coupling(poly=(0.0, 1.0))
    )
    rng = np.random.default_rng(15)
    m = 1.3 + spectral.random_band_limited(g1, rng, amplitude=0.2)
    u = spectral.random_band_limited(g1, rng, amplitude=0.3)
    for fn in (psi1_tilde, psi2_tilde):
        rep = fn(StationaryState(g1, m, u, Hbar=0.4), model)
        expected = 1.0 - spectral.mean(g1, m)
        assert abs(rep.dHbar - expected) < 1e-14
        fd = helpers.fd_directional(
            lambda t: fn(StationaryState(g1, m, u, Hbar=0.4 + t), model).value
        )
        assert abs(fd - expected) < 1e-9


def test_congestion_form_relation(g1):
    """psi1_hat = psi2_hat / (1 - alpha) + int(m f / (1 - alpha) - F)."""
    model = CongestionHamiltonian(
        Q=(0.7,),
        alpha=0.5,
        gamma=2.0,
        coupling=Coupling(poly=(0.0, 1.0), terms=(SpatialTerm(0.1, (1,)),)),
    )
    rng = np.random.default_rng(16)
    a = model.alpha
    for _ in range(10):
        m = 1.0 + spectral.random_band_limited(g1, rng, amplitude=0.4)
        u = spectral.random_band_limited(g1, rng, amplitude=0.4)
        state = StationaryState(g1, m, u)
        lhs = psi1_hat(state, model).value
        extra = spectral.mean(
            g1,
            m * model.coupling.f(g1, m) / (1 - a) - model.coupling.F(g1, m),
        )
        rhs = psi2_hat(state, model).value / (1 - a) + float(extra)
        assert abs(lhs - rhs) < 1e-10


def test_conjugate_identity_at_solved_state(g1):
    """At an alpha = 0 optimum: psi2_hat = psi1_hat - int F*(x, f(x, m))."""
    model = CongestionHamiltonian(
        Q=(1.0,),
        alpha=0.0,
        gamma=2.0,
        coupling=Coupling(poly=(0.0, 1.0), terms=(SpatialTerm(0.1, (1,)),)),
    )
    res = solve_bb(model, g1, tol=1e-10)
    state = res.state
    p1 = psi1_hat(state, model).value
    p2 = psi2_hat(state, model).value
    fvals = model.coupling.f(g1, state.m)
    conj_lib = float(spectral.mean(g1, model.coupling.conjugate(g1, fvals)))
    assert abs(p2 - (p1 - conj_lib)) < 1e-8
    x = np.arange(16) / 16
    spatial = 0.1 * np.cos(2 * np.pi * x)
    conj_orc = float(spectral.mean(g1, helpers.conjugate_oracle((0.0, 1.0), spatial, fvals)))
    assert abs(p2 - (p1 - conj_orc)) < 1e-8
    assert abs(state.Hbar - p2) < 1e-8


def test_cost_identities_at_equilibrium(mfg_solved):
    res, model = mfg_solved
    state = res.state
    v1 = psi1(state, model).value
    v2 = psi2(state, model).value
    assert abs(social_cost(state, model) + v2) < 1e-12
    assert abs(b_cost(state, model) + v1) < 1e-12
    assert abs(a_cost(state, model) - v1) < 1e-12


def test_social_cost_worked_values(g1):
    st = SpaceTimeGrid(g1, 8, 0.4)
    ones = np.ones((9, 16))
    zeros = np.zeros((9, 16))
    state = GameState(st, ones, zeros, np.ones(16), np.zeros(16))
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)))
    ctrl = np.zeros((1, 8, 16))
    # L(x, 0, 1) = f(1) = 1, so S = T
    assert abs(social_cost(state, model, control=ctrl) - 0.4) < 1e-14
    modelz = SeparableHamiltonian(Coupling(poly=(0.0,)))
    assert social_cost(state, modelz, control=ctrl) == 0.0


def test_optimal_control_is_negative_midpoint_gradient(mfg_solved):
    res, model = mfg_solved
    state = res.state
    g = state.grid.space
    ctrl = optimal_control(state, model)
    ubar = 0.5 * (state.u[:-1] + state.u[1:])
    expected = -np.stack([spectral.gradient(g, ub) for ub in ubar], axis=1)
    assert ctrl.shape == expected.shape
    assert np.max(np.abs(ctrl - expected)) < 1e-13


def test_hamiltonian_profile_constant_on_solution(mfg_solved):
    res, model = mfg_solved
    prof = hamiltonian_profile(res.state, model)
    assert prof.shape == (17,)
    assert np.max(np.abs(prof - prof.mean())) < 1e-6


def test_game_state_validation(g1):
    st = SpaceTimeGrid(g1, 8, 0.25)
    with pytest.raises(GridError, match="spatial fields"):
        GameState(st, np.ones((9, 16)), np.zeros((9, 16)), np.ones(8), np.zeros(16))
    with pytest.raises(GridError, match="do not match grid"):
        GameState(st, np.ones((5, 16)), np.zeros((9, 16)), np.ones(16), np.zeros(16))


def _jacobian_model(kind, d):
    if kind == "separable":
        return SeparableHamiltonian(
            Coupling(poly=(0.0, 0.5, 0.5), terms=(SpatialTerm(0.2, (1,) * d),))
        )
    return CongestionHamiltonian(
        Q=(0.8, -0.5)[:d], alpha=0.5, gamma=2.4, coupling=Coupling(poly=(0.0, 1.0))
    )


@pytest.mark.parametrize("shape", [(16,), (8, 8)], ids=["1d", "2d"])
@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("kind", ["separable", "congestion"])
def test_slab_jacobian_matches_central_differences_of_the_rows(shape, eps, kind):
    # The hjb and psi2 transport rows of _slab_rows on 3 slabs, varied in a
    # random direction of (u0, u1, m0, m1); for the separable model also
    # psi2's value row under the planner coefficient 2 H_m - mbar f''.
    sp, dt, h = TorusGrid(shape), 0.1, 1e-6
    model = _jacobian_model(kind, len(shape))
    rng = np.random.default_rng(len(shape) + int(10 * eps))

    def draw(amplitude, base=0.0):
        return base + spectral.random_band_limited_stack(sp, rng, (3,), amplitude=amplitude)

    x = (draw(0.2), draw(0.2), draw(0.3, 1.0), draw(0.3, 1.0))
    dx = tuple(draw(1.0) for _ in x)
    s = functionals._slab_rows(sp, model, "psi2", *x, dt, eps)
    plus, minus = (
        functionals._slab_rows(sp, model, "psi2", *(a + t * b for a, b in zip(x, dx)), dt, eps)
        for t in (h, -h)
    )
    du0, du1, dm0, dm1 = dx
    bars = np.stack([0.5 * (du0 + du1), 0.5 * (dm0 + dm1)])
    diffs = np.stack([du1 - du0, dm1 - dm0])
    coefs = [None]
    if kind == "separable":
        coefs.append(2.0 * s.hv.dmH - s.mbar * model.coupling.d2f_dm2(sp, s.mbar))
    for coef, value_row in zip(coefs, ("hjb", "value")):
        rows = functionals._slab_jacobian(sp, model, s.mbar, s.p, s.hv, dt, eps, coef)[0]
        exact = rows(bars, diffs)
        for name, got in zip((value_row, "transport"), exact):
            fd = (getattr(plus, name) - getattr(minus, name)) / (2.0 * h)
            assert np.linalg.norm(fd - got) <= 1e-6 * np.linalg.norm(got), name


@pytest.mark.parametrize("shape", [(16,), (8, 8)], ids=["1d", "2d"])
@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_slab_jacobian_without_time_terms_is_the_stationary_derivative(shape, eps):
    sp, h = TorusGrid(shape), 1e-6
    model = _jacobian_model("congestion", len(shape))
    rng = np.random.default_rng(5)
    u, du = (spectral.random_band_limited(sp, rng, amplitude=a) for a in (0.2, 1.0))
    m, dm = (spectral.random_band_limited(sp, rng, amplitude=a) for a in (0.3, 1.0))
    m = 1.0 + m
    s = functionals._slab_rows(sp, model, "psi2", u, u, m, m, 1.0, eps)
    rows = functionals._slab_jacobian(sp, model, s.mbar, s.p, s.hv, 1.0, eps)[0]

    def hjb_transport(t):
        ut, mt = u + t * du, m + t * dm
        at = functionals._slab_rows(sp, model, "psi2", ut, ut, mt, mt, 1.0, eps)
        return at.hjb, at.transport

    fd = (np.stack(hjb_transport(h)) - np.stack(hjb_transport(-h))) / (2.0 * h)
    for fd_row, got in zip(fd, rows(np.stack([du, dm]))):
        assert np.linalg.norm(fd_row - got) <= 1e-6 * np.linalg.norm(got)


@pytest.mark.parametrize("shape", [(32,), (16, 16)], ids=["1d", "2d"])
def test_stationary_duality_gaps_are_functions_of_the_rows(shape):
    # Neither stationary duality gap is independent of the polished rows:
    # on the potential route (alpha > 1) j = -psi1_hat at every state, so
    # the gap is 0.0 by construction, and on the flux routes phi_bb at
    # w = flux(grad u, m) plus psi1_hat is -mean(u div w) / (1 - alpha), the
    # Fokker-Planck row paired with u.
    g = TorusGrid(shape)
    d = len(shape)
    rng = np.random.default_rng(17)
    for alpha in (1.4, 0.5):
        model = CongestionHamiltonian(
            Q=(0.8, -0.5)[:d], alpha=alpha, gamma=2.2, coupling=Coupling(poly=(0.0, 1.0))
        )
        for _ in range(5):
            m = 1.0 + spectral.random_band_limited(g, rng, amplitude=0.4)
            u = spectral.random_band_limited(g, rng, amplitude=0.5)
            psi1 = psi1_hat(StationaryState(g, m, u), model).value
            if alpha > 1.0:
                assert j_functional(g, m, u, model).value + psi1 == 0.0
                continue
            w = model.flux(spectral.gradient(g, u), m)
            gap = phi_bb(g, m, w, model).value + psi1
            paired = -float(np.mean(u * spectral.divergence(g, w))) / (1.0 - alpha)
            assert abs(gap - paired) <= 1e-13 * max(1.0, abs(paired))
