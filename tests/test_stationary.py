"""Stationary congestion solvers: transforms, flux/stream/potential routes."""

import dataclasses
import re
import time

import numpy as np
import pytest

from mfgkit import (
    CongestionHamiltonian,
    Coupling,
    CurlError,
    ModelError,
    SeparableHamiltonian,
    SolverError,
    SpatialTerm,
    StationaryState,
    TorusGrid,
    j_functional,
    phi_bb,
    psi1_hat,
    psi2_hat,
    solve_bb,
    solve_bb_2d_stream,
    solve_potential_a_gt_1,
    spectral,
)
from mfgkit import _newton_krylov, stationary
from mfgkit.stationary import perp, u_from_w, w_from_u


def plain_model(**kw):
    base = dict(Q=(1.0,), alpha=0.5, gamma=2.0, coupling=Coupling(poly=(0.0, 1.0)))
    base.update(kw)
    return CongestionHamiltonian(**base)


def test_w_from_u_matches_formula():
    model = plain_model()
    g = TorusGrid((16,))
    x = np.arange(16) / 16
    m = 1.0 + 0.3 * np.cos(2.0 * np.pi * x)
    u = 0.1 * np.sin(2.0 * np.pi * x)
    w = w_from_u(model, g, m, u)
    manual = np.sqrt(m) * (spectral.gradient(g, u) + 1.0)
    assert np.max(np.abs(w - manual)) == 0.0


def test_flux_transform_trivial_state():
    model = plain_model()
    g = TorusGrid((16,))
    w = w_from_u(model, g, np.ones(16), np.zeros(16))
    assert np.max(np.abs(w - 1.0)) == 0.0


def test_flux_transform_roundtrip():
    model = plain_model(gamma=3.0, alpha=0.25)
    g = TorusGrid((32,))
    x = np.arange(32) / 32
    m = 1.0 + 0.3 * np.cos(2.0 * np.pi * x)
    u = 0.1 * np.sin(2.0 * np.pi * x) + 0.05 * np.cos(4.0 * np.pi * x)
    w = w_from_u(model, g, m, u)
    u2, rep = u_from_w(model, g, m, w)
    assert np.max(np.abs(u2 - (u - u.mean()))) < 1e-10
    assert rep["curl_residual_inf"] < 1e-10
    assert rep["drift_mean_mismatch_inf"] < 1e-10
    w2 = w_from_u(model, g, m, u2)
    assert np.max(np.abs(w2 - w)) < 1e-10


def test_u_from_w_rejects_rotational_flux():
    model = plain_model(Q=(1.0, 0.0))
    g = TorusGrid((16, 16))
    X, Y = np.meshgrid(np.arange(16) / 16, np.arange(16) / 16, indexing="ij")
    wrot = np.stack([np.cos(2.0 * np.pi * Y), np.cos(2.0 * np.pi * X)])
    with pytest.raises(CurlError, match="solenoidal residual"):
        u_from_w(model, g, np.ones((16, 16)), wrot)


def test_perp_identities():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((2, 8, 8))
    assert np.max(np.abs(perp(perp(s)) + s)) == 0.0
    Q = np.array([1.3, -0.4])
    lhs = np.sum(perp(s) * Q.reshape(2, 1, 1), axis=0)
    rhs = np.sum(s * np.array([Q[1], -Q[0]]).reshape(2, 1, 1), axis=0)
    assert np.max(np.abs(lhs - rhs)) == 0.0
    with pytest.raises(ModelError, match="2-component"):
        perp(rng.standard_normal((3, 4, 4)))


def test_solve_bb_trivial_instance_exact():
    # No spatial forcing: m = 1, u = 0, w = Q, Hbar = |Q|^2/2 - f(1) = -1/2.
    model = plain_model()
    g = TorusGrid((16,))
    res = solve_bb(model, g, tol=1e-11)
    assert np.max(np.abs(res.state.m - 1.0)) < 1e-9
    assert np.max(np.abs(res.state.u)) < 1e-9
    assert np.max(np.abs(res.w - 1.0)) < 1e-9
    assert abs(res.state.Hbar + 0.5) < 1e-9
    assert abs(res.value + 1.0) < 1e-12
    st = StationaryState(g, np.ones(16), np.zeros(16), eps=0.0, Hbar=-0.5)
    assert psi1_hat(st, model).value == pytest.approx(1.0, abs=1e-13)
    assert psi2_hat(st, model).value == pytest.approx(-0.5, abs=1e-13)
    assert abs(res.duality_gap) < 1e-10


def test_solve_bb_certificates(bb_solved):
    res, model, g = bb_solved
    assert res.grad_inf <= stationary.HANDOFF_TOL
    assert abs(res.duality_gap) <= 1e-6
    assert res.hbar_crosscheck_gap <= 1e-6
    assert res.residual_hjb_inf <= 1e-6
    assert res.residual_fp_inf <= 1e-10
    assert res.diagnostics["min_m"] > 0.0
    assert res.diagnostics["mass_error"] <= 1e-12
    trace = np.array(res.phi_trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_solve_bb_residuals_are_pde_residuals(bb_solved):
    # The reported numbers are recomputable from the returned state alone.
    res, model, g = bb_solved
    hv = model.eval(g, spectral.gradient(g, res.state.u), res.state.m)
    assert np.max(np.abs(hv.H - res.state.Hbar)) == pytest.approx(
        res.residual_hjb_inf, rel=1e-12, abs=1e-15
    )
    w_rt = w_from_u(model, g, res.state.m, res.state.u)
    assert np.max(np.abs(spectral.divergence(g, w_rt))) == pytest.approx(
        res.residual_fp_inf, rel=1e-12, abs=1e-15
    )


def test_stream_route_matches_flux_route(bb2d_pair):
    res_bb, res_stream, model, g = bb2d_pair
    assert abs(res_bb.value - res_stream.value) <= 1e-8
    assert abs(res_bb.state.Hbar - res_stream.state.Hbar) <= 1e-6
    assert np.max(np.abs(spectral.divergence(g, res_stream.w))) <= 1e-10
    assert res_stream.grad_inf <= stationary.HANDOFF_TOL
    assert res_stream.residual_hjb_inf <= 1e-6
    assert abs(res_stream.duality_gap) <= 1e-6


def test_stream_route_guards(congestion_1d_model, congestion_2d_model):
    with pytest.raises(ModelError, match="2-D grid"):
        solve_bb_2d_stream(congestion_2d_model, TorusGrid((16,)))
    with pytest.raises(ModelError, match="components"):
        solve_bb_2d_stream(congestion_1d_model, TorusGrid((16, 16)))


def test_flux_route_rejects_alpha_at_least_one():
    model = plain_model(alpha=1.5)
    with pytest.raises(ModelError, match="alpha < 1"):
        solve_bb(model, TorusGrid((16,)))


def test_gamma_one_rejected():
    # The model rejects gamma = 1 when it is built, so no route or phi_bb
    # ever sees it.
    with pytest.raises(ModelError, match="requires gamma > 1"):
        plain_model(gamma=1.0)
    with pytest.raises(ModelError, match="requires gamma > 1"):
        plain_model(gamma=1.0, Q=(1.0, 0.0))


def test_potential_route_alpha_above_one():
    coupling = Coupling(poly=(0.0, 1.0), terms=(SpatialTerm(0.1, (1,)),))
    model = CongestionHamiltonian(Q=(1.0,), alpha=1.5, gamma=2.0, coupling=coupling)
    g = TorusGrid((32,))
    res = solve_potential_a_gt_1(model, g, tol=1e-10)
    # The descent stops at the hand-off; the polish reaches tol on the rows.
    assert res.grad_inf <= stationary.HANDOFF_TOL
    assert res.residual_hjb_inf <= 1e-10
    assert res.residual_fp_inf <= 1e-10
    assert res.hbar_crosscheck_gap <= 1e-6
    assert abs(res.duality_gap) <= 1e-10
    assert res.diagnostics["min_m"] > 0.0
    rep = j_functional(g, res.state.m, res.state.u, model)
    # The value is read as -psi1_hat, which is j bit for bit at every state.
    # First-order structure of the saddle: the density gradient is flat
    # (its mean is the multiplier) and the value-function gradient vanishes.
    assert rep.value == res.value
    assert np.max(np.abs(rep.dm - rep.dm.mean())) <= 1e-8
    assert np.max(np.abs(rep.du)) <= 1e-8


def test_potential_route_guards():
    with pytest.raises(ModelError, match="1 < alpha <= gamma"):
        solve_potential_a_gt_1(plain_model(alpha=0.5), TorusGrid((16,)))
    with pytest.raises(ModelError, match="1 < alpha <= gamma"):
        solve_potential_a_gt_1(plain_model(alpha=2.5, gamma=2.0), TorusGrid((16,)))


def test_solver_rejects_dimension_mismatch(congestion_2d_model):
    with pytest.raises(ModelError, match="components"):
        solve_bb(congestion_2d_model, TorusGrid((16,)))


def test_transforms_reject_a_drift_of_the_wrong_length():
    # A 1-entry Q on a 2-D grid: every use of the transform names the
    # component mismatch instead of broadcasting Q over both axes.
    g = TorusGrid((16, 16))
    m, u, w = np.ones((16, 16)), np.zeros((16, 16)), np.ones((2, 16, 16))
    with pytest.raises(ModelError, match="components"):
        phi_bb(g, m, w, plain_model())
    with pytest.raises(ModelError, match="components"):
        j_functional(g, m, u, plain_model(alpha=1.5))
    with pytest.raises(ModelError, match="components"):
        w_from_u(plain_model(), g, m, u)
    with pytest.raises(ModelError, match="components"):
        u_from_w(plain_model(), g, m, w)


def test_stalled_descent_raises_with_its_floor():
    # A 1-D flux instance whose projected gradient floors above 1e-9: the
    # route certifies through the polish, and the descent alone, run to
    # 1e-9, stops with its floor instead of running to DESCENT_STEPS.
    coupling = Coupling(
        poly=(0.0, 1.0),
        terms=(
            SpatialTerm(-0.2959591592377108, (3,), "cos"),
            SpatialTerm(0.08418390576841389, (-1,), "sin"),
            SpatialTerm(0.17852980242626992, (1,), "cos"),
        ),
    )
    model = CongestionHamiltonian(
        Q=(1.2628775710271438,),
        alpha=0.5199462894505393,
        gamma=2.4003855392394886,
        coupling=coupling,
    )
    g = TorusGrid((64,))
    res = solve_bb(model, g)
    assert res.residual_hjb_inf <= 1e-9
    assert res.residual_fp_inf <= 1e-9

    def objective(m, w):
        rep = phi_bb(g, m, w, model)
        return rep.value, rep.dm, rep.dw

    w0 = np.broadcast_to(model.drift(np.zeros((1, 64))), (1, 64))
    project = lambda wv: spectral.project_div_free(g, wv)  # noqa: E731
    t0 = time.perf_counter()
    with pytest.raises(SolverError, match="stalled at iteration .* floor"):
        stationary._descend(g, w0, objective, project, 1e-9)
    assert time.perf_counter() - t0 < 10.0


def test_descent_returns_the_plain_gradient_at_its_iterate(congestion_1d_model):
    model, g = congestion_1d_model, TorusGrid((32,))

    def objective(m, w):
        rep = phi_bb(g, m, w, model)
        return rep.value, rep.dm, rep.dw

    w0 = np.broadcast_to(model.drift(np.zeros((1, 32))), (1, 32))
    project = lambda wv: spectral.project_div_free(g, wv)  # noqa: E731
    m, w, dm, dw, run = stationary._descend(g, w0, objective, project, 1e-7)
    _, dm_plain, dw_plain = objective(m, w)
    assert np.array_equal(dm, dm_plain) and np.array_equal(dw, dw_plain)
    assert run["grad_inf"] <= 1e-7


def test_flux_route_evaluates_phi_bb_once_after_the_descent(congestion_1d_model, monkeypatch):
    # The descent's last gradient carries Hbar; the only later evaluation
    # is the certificate's primal value at the polished state.
    calls = {"descended": False, "after": 0}
    descend, honest = stationary._descend, stationary.phi_bb

    def recorded_descend(*args, **kwargs):
        out = descend(*args, **kwargs)
        calls["descended"] = True
        return out

    def counted_phi_bb(*args):
        calls["after"] += calls["descended"]
        return honest(*args)

    monkeypatch.setattr(stationary, "_descend", recorded_descend)
    monkeypatch.setattr(stationary, "phi_bb", counted_phi_bb)
    res = solve_bb(congestion_1d_model, TorusGrid((32,)))
    assert calls == {"descended": True, "after": 1}
    assert res.value == honest(res.state.grid, res.state.m, res.w, congestion_1d_model).value


def test_stationary_residual_makes_two_forward_transforms(congestion_2d_model, monkeypatch):
    # At eps = 0 the rows need grad u and div W only: no Laplacians.
    g = TorusGrid((8, 8))
    system = stationary._Stationary(congestion_2d_model, g)
    rng = np.random.default_rng(0)
    z = system.pack(
        spectral.random_band_limited(g, rng, amplitude=0.2),
        1.0 + spectral.random_band_limited(g, rng, amplitude=0.3),
        0.1,
    )
    calls = []
    fft = spectral._fft
    monkeypatch.setattr(spectral, "_fft", lambda *args: calls.append(1) or fft(*args))
    system.evaluate(z)
    assert len(calls) == 2


@pytest.mark.parametrize("solver", [solve_bb, solve_bb_2d_stream, solve_potential_a_gt_1])
def test_every_route_enforces_the_hbar_crosscheck(
    solver, congestion_1d_model, congestion_2d_model, monkeypatch
):
    model, g = congestion_1d_model, TorusGrid((32,))
    if solver is solve_bb_2d_stream:
        model, g = congestion_2d_model, TorusGrid((16, 16))
    elif solver is solve_potential_a_gt_1:
        model = dataclasses.replace(model, alpha=1.5)
    assert solver(model, g).hbar_crosscheck_gap <= 1e-6
    honest = stationary.psi2_hat

    def shifted(state, mdl):
        rep = honest(state, mdl)
        return dataclasses.replace(rep, value=rep.value + 1e-3)

    monkeypatch.setattr(stationary, "psi2_hat", shifted)
    with pytest.raises(SolverError, match="crosscheck failed"):
        solver(model, g)


@pytest.mark.parametrize("solver", [solve_bb, solve_bb_2d_stream])
def test_failed_flux_polish_names_the_handoff_curl(congestion_2d_model, monkeypatch, solver):
    # With no Newton budget the polish fails. The error is the polish's own
    # SolverError, not a CurlError, even from a hand-off whose curl defect is
    # above CURL_TOL; its message carries that defect.
    monkeypatch.setattr(stationary, "POLISH_STEPS", 0)
    with pytest.raises(SolverError, match="after 0 Newton iterations") as info:
        solver(congestion_2d_model, TorusGrid((8, 8)))
    assert not isinstance(info.value, CurlError)
    defect = re.search(r"polish from a hand-off flux of curl defect (\S+):", str(info.value))
    assert float(defect.group(1)) > stationary.CURL_TOL


def test_stream_objective_makes_eight_transforms(congestion_2d_model, monkeypatch):
    """Per objective evaluation: (-div grad)^{-1/2} twice, gradient and
    divergence, one forward and one inverse n-D transform each."""
    counts = {"transforms": 0, "evaluations": 0}

    def counted(fun, key):
        def wrapper(*args):
            counts[key] += 1
            return fun(*args)

        return wrapper

    monkeypatch.setattr(spectral, "_fft", counted(spectral._fft, "transforms"))
    monkeypatch.setattr(spectral, "_ifft_real", counted(spectral._ifft_real, "transforms"))
    monkeypatch.setattr(stationary, "phi_stream", counted(stationary.phi_stream, "evaluations"))
    # No hand-off, so the three iterations are all descent and no polish runs.
    monkeypatch.setattr(stationary, "HANDOFF_TOL", 0.0)
    monkeypatch.setattr(stationary, "DESCENT_STEPS", 3)
    with pytest.raises(SolverError, match="no convergence in 3 iterations"):
        solve_bb_2d_stream(congestion_2d_model, TorusGrid((8, 8)))
    assert counts["evaluations"] >= 3
    assert counts["transforms"] == 8 * counts["evaluations"]


@pytest.mark.parametrize("shape", [(16,), (8, 8)])
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_polish_jacobian_matches_central_differences(shape, alpha):
    g = TorusGrid(shape)
    rng = np.random.default_rng(len(shape))
    Q = (0.8, -0.5)[: len(shape)]
    model = CongestionHamiltonian(Q=Q, alpha=alpha, gamma=2.4, coupling=Coupling(poly=(0.0, 1.0)))
    system = stationary._Stationary(model, g)
    for _ in range(3):
        u = spectral.random_band_limited(g, rng, amplitude=0.2)
        m = 1.0 + spectral.random_band_limited(g, rng, amplitude=0.3)
        z = system.pack(u, m, rng.standard_normal())
        dz = system.pack(
            spectral.random_band_limited(g, rng),
            spectral.random_band_limited(g, rng),
            rng.standard_normal(),
        )
        jvp, _ = system.linearize(z, system.evaluate(z))
        h = 1e-6
        fd = (system.evaluate(z + h * dz).rows - system.evaluate(z - h * dz).rows) / (2.0 * h)
        exact = jvp(dz)
        assert np.linalg.norm(fd - exact) <= 1e-6 * np.linalg.norm(exact)


def test_polish_preconditioner_is_exact_at_constant_states():
    # Acceptance criterion 2's instance from a constant start: every iterate
    # is constant, so every Newton step takes one GMRES iteration.
    model = CongestionHamiltonian(
        Q=(1.0, 0.0), alpha=0.5, gamma=2.0, coupling=Coupling(poly=(0.0, 1.0))
    )
    g = TorusGrid((16, 16))
    system = stationary._Stationary(model, g)
    start = system.pack(np.full(g.shape, 0.3), np.full(g.shape, 1.2), 0.0)
    run = _newton_krylov.newton(system, start, 1e-12, 10)
    assert len(run.krylov) >= 2 and set(run.krylov) == {1}
    u, m, hbar = system.fields(run.z)
    assert np.max(np.abs(m - 1.0)) <= 1e-12
    assert abs(hbar + 0.5) <= 1e-12
    assert run.ev.norm <= 1e-12


def test_stationary_rows_are_the_game_rows(congestion_2d_model):
    # Bit for bit: psi1_hat's value row - Hbar, psi2_hat's transport row +
    # mean(u) (the Fokker-Planck row, not psi1_hat's (1 - alpha)-scaled
    # one) and the mass defect.
    g = TorusGrid((8, 8))
    system = stationary._Stationary(congestion_2d_model, g)
    rng = np.random.default_rng(5)
    u = spectral.random_band_limited(g, rng, amplitude=0.2)
    m = 1.0 + spectral.random_band_limited(g, rng, amplitude=0.3)
    state = StationaryState(g, m, u, eps=0.0, Hbar=0.3)
    hjb, transport, mass = system.fields(system.evaluate(system.pack(u, m, 0.3)).rows)
    assert np.array_equal(hjb, psi1_hat(state, congestion_2d_model).dm - 0.3)
    assert np.array_equal(transport, psi2_hat(state, congestion_2d_model).du + u.mean())
    assert mass == m.mean() - 1.0


@pytest.mark.parametrize("shape", [(32,), (16, 16)])
@pytest.mark.parametrize("poly, steps", [((0.0, 1.0), 1), ((0.0, 0.5, 0.5), 3)])
def test_polish_solves_a_separable_game(shape, poly, steps):
    # The rows and the Jacobian read only the model's derivatives, so a
    # separable monotone model solves from the uniform state. For f = m the
    # rows are linear at u = 0 and one step lands on m = 1 - 0.3 cos 2 pi x,
    # Hbar = -1.
    g = TorusGrid(shape)
    term = SpatialTerm(0.3, (1,) + (0,) * (len(shape) - 1))
    model = SeparableHamiltonian(Coupling(poly=poly, terms=(term,)))
    system = stationary._Stationary(model, g)
    start = system.pack(np.zeros(g.shape), np.ones(g.shape), 0.0)
    run = _newton_krylov.newton(system, start, 1e-10, stationary.POLISH_STEPS)
    assert run.ev.norm <= 1e-10 and len(run.krylov) == steps
    u, m, hbar = system.fields(run.z)
    state = StationaryState(g, m, u, eps=0.0, Hbar=hbar)
    assert abs(psi2_hat(state, model).value - hbar) <= 1e-10
    if poly == (0.0, 1.0):
        assert np.max(np.abs(m - (1.0 - term.evaluate(g)))) <= 1e-12
        assert abs(hbar + 1.0) <= 1e-12


@pytest.mark.parametrize("shape", [(16,), (8, 8)])
def test_separable_polish_jacobian_matches_central_differences(shape):
    g = TorusGrid(shape)
    rng = np.random.default_rng(7)
    model = SeparableHamiltonian(Coupling(poly=(0.0, 0.5, 0.5)))
    system = stationary._Stationary(model, g)
    z = system.pack(
        spectral.random_band_limited(g, rng, amplitude=0.2),
        1.0 + spectral.random_band_limited(g, rng, amplitude=0.3),
        rng.standard_normal(),
    )
    dz = system.pack(
        spectral.random_band_limited(g, rng),
        spectral.random_band_limited(g, rng),
        rng.standard_normal(),
    )
    jvp, _ = system.linearize(z, system.evaluate(z))
    h = 1e-6
    fd = (system.evaluate(z + h * dz).rows - system.evaluate(z - h * dz).rows) / (2.0 * h)
    exact = jvp(dz)
    assert np.linalg.norm(fd - exact) <= 1e-6 * np.linalg.norm(exact)
