"""Finite-horizon equilibrium and planner solvers."""

import operator
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

import helpers
from mfgkit import (
    Coupling,
    GameState,
    ModelError,
    PositivityError,
    SeparableHamiltonian,
    SolverError,
    SpaceTimeGrid,
    SpatialTerm,
    TorusGrid,
    compare_equilibrium_vs_planner,
    psi1,
    psi2,
    solve_mfc,
    solve_mfg,
    spectral,
    _newton_krylov,
)
from mfgkit.cli import cmd_compare
from mfgkit.dynamics import _System

T = 0.25


def perturbed_data(n):
    x = np.arange(n) / n
    m0 = 1.0 + 0.1 * np.cos(2.0 * np.pi * x)
    m0 /= m0.mean()
    uT = 0.05 * np.sin(2.0 * np.pi * x)
    return m0, uT


def test_trivial_equilibrium_closed_form(sep_model):
    # Flat data decouples the system: m = 1 and u solves u_t = -f(1).
    g = TorusGrid((16,))
    st = SpaceTimeGrid(g, 8, T)
    res = solve_mfg(sep_model, st, np.ones(16), np.zeros(16), eps=1.0, tol=1e-12)
    t = np.arange(9) / 8 * T
    u_exact = (T - t)[:, None] * np.ones(16)
    assert np.max(np.abs(res.state.m - 1.0)) < 1e-13
    assert np.max(np.abs(res.state.u - u_exact)) < 1e-13
    assert res.newton_iterations == 1


def test_trivial_planner_closed_form(sep_model):
    # The planner value row carries f + m df/dm = 2m for f = m.
    g = TorusGrid((16,))
    st = SpaceTimeGrid(g, 8, T)
    res = solve_mfc(sep_model, st, np.ones(16), np.zeros(16), eps=1.0, tol=1e-12)
    t = np.arange(9) / 8 * T
    u_exact = 2.0 * (T - t)[:, None] * np.ones(16)
    assert np.max(np.abs(res.state.m - 1.0)) < 1e-13
    assert np.max(np.abs(res.state.u - u_exact)) < 1e-13


def test_solved_state_certificates(mfg_solved):
    res, model = mfg_solved
    assert res.residual_inf <= 1e-11
    assert res.min_m > 0.0
    assert res.psi1_dm_inf <= 1e-7
    assert res.psi2_du_inf <= 1e-7
    masses = res.state.m.mean(axis=1)
    assert np.max(np.abs(masses - 1.0)) <= 1e-10


def test_time_step_halving_is_second_order(sep_model):
    g = TorusGrid((16,))
    m0, uT = perturbed_data(16)
    ref = solve_mfg(sep_model, SpaceTimeGrid(g, 128, T), m0, uT, eps=1.0, tol=1e-12)
    errs = {}
    for nt in (8, 16):
        r = solve_mfg(sep_model, SpaceTimeGrid(g, nt, T), m0, uT, eps=1.0, tol=1e-12)
        stride = 128 // nt
        errs[nt] = float(np.max(np.abs(r.state.m - ref.state.m[::stride])))
    ratio = errs[8] / errs[16]
    assert 3.0 < ratio < 6.5


def test_compare_equilibrium_vs_planner_payload(sep_model):
    g = TorusGrid((16,))
    st = SpaceTimeGrid(g, 8, T)
    m0, uT = perturbed_data(16)
    res_g = solve_mfg(sep_model, st, m0, uT, eps=1.0, tol=1e-10)
    res_c = solve_mfc(sep_model, st, m0, uT, eps=1.0, tol=1e-10)
    cmp = compare_equilibrium_vs_planner(res_g.state, res_c.state, sep_model)
    assert set(cmp) == {"psi2_mfg", "psi2_mfc", "gap", "inequality_holds"}
    assert cmp["inequality_holds"]
    assert cmp["gap"] == pytest.approx(cmp["psi2_mfc"] - cmp["psi2_mfg"])
    assert cmp["psi2_mfg"] <= cmp["psi2_mfc"] + 1e-8


def test_compare_rejects_mismatched_data(sep_model):
    g = TorusGrid((16,))
    st = SpaceTimeGrid(g, 8, T)
    m0, uT = perturbed_data(16)
    res_a = solve_mfg(sep_model, st, m0, uT, eps=1.0, tol=1e-10)
    x = np.arange(16) / 16
    m0b = 1.0 + 0.2 * np.cos(2.0 * np.pi * x)
    m0b /= m0b.mean()
    res_b = solve_mfc(sep_model, st, m0b, uT, eps=1.0, tol=1e-10)
    with pytest.raises(ModelError, match="different data"):
        compare_equilibrium_vs_planner(res_a.state, res_b.state, sep_model)


def test_compare_planner_convenience_payload(tmp_path):
    # The compare command's payload: both solves with their residuals, and
    # psi2 of each side under the keys the report uses.
    cfg = {
        "model": {"kind": "separable", "f_poly": [0.0, 1.0]},
        "grid": {"dim": 1, "n": 16, "n_t": 8, "horizon": T},
        "initial": {
            "m0": {"base": 1.0, "modes": [{"amp": 0.1, "k": [1], "kind": "cos"}]},
            "uT": {"base": 0.0, "modes": [{"amp": 0.05, "k": [1], "kind": "sin"}]},
        },
        "solver": {"tol": 1e-10},
    }
    out, files = cmd_compare(cfg, tmp_path)
    assert files == {"result.json": out}
    assert set(out) == {
        "psi2_equilibrium",
        "psi2_planner",
        "gap",
        "ordered",
        "equilibrium",
        "planner",
    }
    assert out["ordered"]
    assert out["equilibrium"]["residual_inf"] <= 1e-10
    assert out["planner"]["residual_inf"] <= 1e-10


@pytest.mark.parametrize(
    "max_newton, exit_, steps_vs_budget",
    [
        (2, r"residual \S+ after (\d+) Newton iterations, the whole budget", operator.eq),
        (40, r"the line search stalled at Newton step (\d+), residual \S+", operator.lt),
    ],
    ids=["budget", "stall"],
)
def test_unreachable_tolerance_raises(sep_model, max_newton, exit_, steps_vs_budget):
    # tol 1e-15 lies below the residual's roundoff floor (~3e-13): 2 Newton
    # steps run out first, while the default budget outlasts the line search,
    # which stalls at that floor.
    g = TorusGrid((16,))
    m0, uT = perturbed_data(16)
    with pytest.raises(SolverError, match="no convergence: " + exit_) as info:
        solve_mfg(
            sep_model,
            SpaceTimeGrid(g, 8, T),
            m0,
            uT,
            tol=1e-15,
            max_newton=max_newton,
        )
    steps = int(re.search(exit_, str(info.value)).group(1))
    assert steps_vs_budget(steps, max_newton)


def test_model_guards(sep_model, congestion_1d_model):
    g = TorusGrid((16,))
    st = SpaceTimeGrid(g, 8, T)
    m0, uT = perturbed_data(16)
    with pytest.raises(ModelError, match="separable model"):
        solve_mfg(congestion_1d_model, st, m0, uT)

    class Quartic:
        def value(self, p):
            return 0.25 * np.sum(p * p, axis=0) ** 2

        def grad(self, p):
            return np.sum(p * p, axis=0) * p

    odd = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)), kinetic=Quartic())
    with pytest.raises(ModelError, match="quadratic kinetic part only"):
        solve_mfg(odd, st, m0, uT)

    st_per = SpaceTimeGrid(g, 8, T, periodic_time=True)
    with pytest.raises(ModelError, match="interval time axis"):
        solve_mfg(sep_model, st_per, m0, uT)


def _system_case(shape, n_t, planner, seed=0):
    """A _System on random data plus a random nearby state vector."""
    rng = np.random.default_rng(seed)
    sp = TorusGrid(shape)
    model = SeparableHamiltonian(
        Coupling(poly=(0.0, 0.5, 0.5), terms=(SpatialTerm(0.2, (1,) * len(shape)),))
    )
    m0 = 1.0 + spectral.random_band_limited(sp, rng, amplitude=0.3)
    uT = spectral.random_band_limited(sp, rng, amplitude=0.3)
    system = _System(model, sp, n_t, 0.5 / n_t, m0 / m0.mean(), uT, 0.7, planner)
    K = sp.num_nodes
    u = 0.3 * rng.standard_normal(n_t * K)
    z = np.concatenate([u, 1.0 + 0.1 * rng.standard_normal(n_t * K)])
    return system, z, rng


CASES = [((16,), 8, False), ((16,), 8, True), ((8, 8), 4, False), ((8, 8), 4, True)]


@pytest.mark.parametrize("shape, n_t, planner", CASES)
def test_residual_rows_are_the_payoff_rows(shape, n_t, planner):
    # Bit for bit: the solver's rows are psi1's (equilibrium) or psi2's
    # (planner) slab rows, which the reports average onto the nodes.
    system, z, _ = _system_case(shape, n_t, planner)
    u, m = system.fields(z)
    state = GameState(SpaceTimeGrid(system.sp, n_t, 0.5), m, u, system.m0, system.uT, eps=0.7)
    rep = (psi2 if planner else psi1)(state, system.model)
    S, P = system.residual(z).reshape((2, n_t) + shape)
    for rows, nodes in ((S, rep.dm), (P, rep.du)):
        assert np.array_equal(nodes[0], rows[0])
        assert np.array_equal(nodes[1:-1], 0.5 * (rows[:-1] + rows[1:]))
        assert np.array_equal(nodes[-1], rows[-1])


@pytest.mark.parametrize("shape, n_t, planner", CASES)
def test_jacobian_action_matches_dense_oracle(shape, n_t, planner):
    system, z, rng = _system_case(shape, n_t, planner)
    J = helpers.dynamics_jacobian(system, z)
    jvp = system.linearize(z, system.residual(z))[0]
    for _ in range(3):
        dz = rng.standard_normal(z.size)
        ref = J @ dz
        assert np.max(np.abs(jvp(dz) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape, n_t, planner", CASES)
def test_preconditioned_newton_step_matches_direct_solve(shape, n_t, planner):
    system, z, _ = _system_case(shape, n_t, planner)
    res = system.residual(z)
    direct = splu(csc_matrix(helpers.dynamics_jacobian(system, z))).solve(-res)
    jvp, precond = system.linearize(z, res)
    step, iterations = _newton_krylov.gmres(jvp, precond, -res, "a test step")
    assert 0 < iterations <= 40
    assert np.linalg.norm(step - direct) <= 1e-10 * np.linalg.norm(direct)


def test_preconditioner_inverts_the_flat_jacobian():
    # At a flat state with f = m the Jacobian has constant coefficients, so
    # the preconditioner is its exact inverse.
    system, _, rng = _system_case((8, 8), 4, False)
    system.model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)))
    system.m0, system.uT = np.ones((8, 8)), np.zeros((8, 8))
    z = np.concatenate([np.zeros(4 * 64), np.ones(4 * 64)])
    J = helpers.dynamics_jacobian(system, z)
    r = rng.standard_normal(z.size)
    back = J @ system.preconditioner(1.0, 1.0)(r)
    assert np.max(np.abs(back - r)) <= 1e-12 * np.max(np.abs(r))


def test_krylov_iterations_are_recorded_per_newton_step(mfg_solved):
    res, _ = mfg_solved
    assert len(res.krylov_iterations) == res.newton_iterations == 3
    assert all(0 < k <= 40 for k in res.krylov_iterations)


def test_newton_counts_no_higher_than_direct_solves(sep_model):
    # Counts of the direct-factorization solver on the same instances.
    g = TorusGrid((16,))
    m0, uT = perturbed_data(16)
    for n_t, tol in ((8, 1e-10), (16, 1e-12), (128, 1e-12)):
        res = solve_mfg(sep_model, SpaceTimeGrid(g, n_t, T), m0, uT, eps=1.0, tol=tol)
        assert res.newton_iterations <= 3
    res = solve_mfc(sep_model, SpaceTimeGrid(g, 8, T), m0, uT, eps=1.0, tol=1e-10)
    assert res.newton_iterations <= 3


def test_missed_krylov_tolerance_raises(sep_model, monkeypatch):
    g = TorusGrid((16,))
    st = SpaceTimeGrid(g, 8, T)
    m0, uT = perturbed_data(16)
    real_gmres = _newton_krylov.sparse_linalg.gmres

    def stalled_gmres(A, b, **kwargs):
        x, info = real_gmres(A, b, **kwargs)
        # A Newton step's GMRES solve has 2 N K unknowns.
        return (0.5 * x, 5) if b.size == 2 * 8 * 16 else (x, info)

    monkeypatch.setattr(_newton_krylov.sparse_linalg, "gmres", stalled_gmres)
    pattern = r"at Newton step 1: relative residual \S+ after \d+ iterations"
    with pytest.raises(SolverError, match=pattern):
        solve_mfg(sep_model, st, m0, uT)


def test_2d_32_squared_solve_is_certified_quickly(sep_model):
    sp = TorusGrid((32, 32))
    x, y = sp.coords
    m0 = 1.0 + 0.3 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
    uT = 0.2 * np.sin(2.0 * np.pi * (x + y))
    start = time.perf_counter()
    res = solve_mfg(sep_model, SpaceTimeGrid(sp, 8, 0.5), m0, uT, eps=0.5)
    elapsed = time.perf_counter() - start
    assert res.psi1_dm_inf <= 1e-7
    assert res.psi2_du_inf <= 1e-7
    assert res.picard_sweeps == 0
    assert elapsed < 10.0


def steep_case():
    """1-D 32 x 16, horizon 1, eps 0.3: f = m + 0.3 cos 2 pi x, m0 = 1 + 0.5 cos 2 pi x,
    uT = sin 2 pi x + 0.5 cos 4 pi x. Newton converges to a state whose node
    densities reach -0.12 at t = T, while every slab midpoint stays positive."""
    sp = TorusGrid((32,))
    x = sp.coords[0]
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0), terms=(SpatialTerm(0.3, (1,)),)))
    m0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    uT = np.sin(2.0 * np.pi * x) + 0.5 * np.cos(4.0 * np.pi * x)
    return model, SpaceTimeGrid(sp, 16, 1.0), m0, uT


def test_negative_node_density_is_not_certified():
    model, st, m0, uT = steep_case()
    with pytest.raises(PositivityError, match=r"density -1\.236e-01 at time slice 16 "):
        solve_mfg(model, st, m0, uT, eps=0.3)


@pytest.mark.parametrize("shape, n_t, planner", CASES)
def test_krylov_newton_matches_dense_newton(shape, n_t, planner):
    # The same Newton loop from the same start, the data rows, on the dense
    # Jacobian oracle, preconditioned by its direct (splu) solve.
    system, _, _ = _system_case(shape, n_t, planner)
    start = np.concatenate([np.tile(d.ravel(), n_t) for d in (system.uT, system.m0)])

    def linearize(z, res):
        J = helpers.dynamics_jacobian(system, z)
        return J.__matmul__, splu(csc_matrix(J)).solve

    dense = SimpleNamespace(residual=system.residual, linearize=linearize)
    z, _, krylov, _ = _newton_krylov.newton(dense, start, 1e-9, 40)
    steps = len(krylov)
    solver = solve_mfc if planner else solve_mfg
    res = solver(
        system.model, SpaceTimeGrid(system.sp, n_t, 0.5), system.m0, system.uT, eps=0.7
    )
    u, m = system.fields(z)
    assert res.newton_iterations == steps
    assert np.max(np.abs(res.state.u - u)) <= 1e-12
    assert np.max(np.abs(res.state.m - m)) <= 1e-12
