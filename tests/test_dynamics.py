"""Finite-horizon equilibrium and planner solvers."""

import json
import operator
import re
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

import helpers
from mfgkit import (
    Coupling,
    GameState,
    GridError,
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
    dynamics,
    spectral,
    _newton_krylov,
)
from mfgkit.cli import _COMMANDS, cmd_compare
from mfgkit.config import load_config
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
    # The results carry the values the states give.
    for res in (res_g, res_c):
        assert res.psi1 == psi1(res.state, sep_model).value
        assert res.psi2 == psi2(res.state, sep_model).value
    assert compare_equilibrium_vs_planner(res_g, res_c, sep_model) == cmp


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
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = cmd_compare(load_config(path), tmp_path)
    assert _COMMANDS["compare"] == (cmd_compare, "result.json")
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
    "budget, exit_, steps_vs_budget",
    [
        (2, r"residual \S+ after (\d+) Newton iterations, the whole budget", operator.eq),
        (None, r"the line search stalled at Newton step (\d+), residual \S+", operator.lt),
    ],
    ids=["budget", "stall"],
)
def test_unreachable_tolerance_raises(sep_model, monkeypatch, budget, exit_, steps_vs_budget):
    # tol 1e-15 lies below the residual's roundoff floor (~3e-13): a budget of
    # 2 Newton steps runs out first, while the default budget outlasts the
    # line search, which stalls at that floor.
    if budget is not None:
        monkeypatch.setattr(dynamics, "NEWTON_STEPS", budget)
    g = TorusGrid((16,))
    m0, uT = perturbed_data(16)
    with pytest.raises(SolverError, match="no convergence: " + exit_) as info:
        solve_mfg(sep_model, SpaceTimeGrid(g, 8, T), m0, uT, tol=1e-15)
    steps = int(re.search(exit_, str(info.value)).group(1))
    assert steps_vs_budget(steps, dynamics.NEWTON_STEPS)


def test_model_guards(sep_model, congestion_1d_model):
    g = TorusGrid((16,))
    st = SpaceTimeGrid(g, 8, T)
    m0, uT = perturbed_data(16)
    with pytest.raises(ModelError, match="separable model"):
        solve_mfg(congestion_1d_model, st, m0, uT)

    st_per = SpaceTimeGrid(g, 8, T, periodic_time=True)
    with pytest.raises(ModelError, match="interval time axis"):
        solve_mfg(sep_model, st_per, m0, uT)

    for eps in (-0.5, np.nan):
        with pytest.raises(ModelError, match="viscosity eps must be finite and >= 0"):
            solve_mfg(sep_model, st, m0, uT, eps=eps)


@pytest.mark.parametrize(
    "m0, uT, error, message",
    [
        (np.ones(8), np.zeros(16), GridError, r"m0 has shape \(8,\), not the space grid's"),
        (np.ones(16), np.zeros((16, 1)), GridError, r"uT has shape \(16, 1\)"),
        (np.full(16, np.nan), np.zeros(16), ModelError, "m0 must be finite"),
        (np.ones(16), np.full(16, np.inf), ModelError, "uT must be finite"),
    ],
    ids=["short-m0", "column-uT", "nan-m0", "inf-uT"],
)
def test_data_rows_are_checked_before_any_work(sep_model, monkeypatch, m0, uT, error, message):
    def no_newton(*args):
        raise AssertionError("Newton ran on rejected data rows")

    monkeypatch.setattr(dynamics, "newton", no_newton)
    st = SpaceTimeGrid(TorusGrid((16,)), 8, T)
    for solver in (solve_mfg, solve_mfc):
        with pytest.raises(error, match=message):
            solver(sep_model, st, m0, uT)


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


def exact_newton(system, tol=1e-9, budget=40):
    """:func:`newton` on ``system`` with every step solved to KRYLOV_RTOL
    (forcing off), from the data rows as the solvers start: its NewtonRun."""
    system.forcing = False
    start = np.concatenate([np.tile(d.ravel(), system.N) for d in (system.uT, system.m0)])
    return _newton_krylov.newton(system, start, tol, budget)


CASES = [((16,), 8, False), ((16,), 8, True), ((8, 8), 4, False), ((8, 8), 4, True)]


@pytest.mark.parametrize("shape, n_t, planner", CASES)
def test_residual_rows_are_the_payoff_rows(shape, n_t, planner):
    # Bit for bit: the solver's rows are psi1's (equilibrium) or psi2's
    # (planner) slab rows, which the reports average onto the nodes.
    system, z, _ = _system_case(shape, n_t, planner)
    u, m = system.fields(z)
    state = GameState(SpaceTimeGrid(system.sp, n_t, 0.5), m, u, system.m0, system.uT, eps=0.7)
    rep = (psi2 if planner else psi1)(state, system.model)
    S, P = system.evaluate(z).rows.reshape((2, n_t) + shape)
    for rows, nodes in ((S, rep.dm), (P, rep.du)):
        assert np.array_equal(nodes[0], rows[0])
        assert np.array_equal(nodes[1:-1], 0.5 * (rows[:-1] + rows[1:]))
        assert np.array_equal(nodes[-1], rows[-1])


@pytest.mark.parametrize("shape, n_t, planner", CASES)
def test_jacobian_action_matches_dense_oracle(shape, n_t, planner):
    system, z, rng = _system_case(shape, n_t, planner)
    J = helpers.dynamics_jacobian(system, z)
    jvp = system.linearize(z, system.evaluate(z))[0]
    for _ in range(3):
        dz = rng.standard_normal(z.size)
        ref = J @ dz
        assert np.max(np.abs(jvp(dz) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape, n_t, planner", CASES)
def test_preconditioned_newton_step_matches_direct_solve(shape, n_t, planner):
    system, z, _ = _system_case(shape, n_t, planner)
    ev = system.evaluate(z)
    direct = splu(csc_matrix(helpers.dynamics_jacobian(system, z))).solve(-ev.rows)
    jvp, precond = system.linearize(z, ev)
    step, iterations = _newton_krylov.gmres(jvp, precond, -ev.rows, "a test step")
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
    assert len(res.krylov_iterations) == res.newton_iterations == 4
    assert all(0 < k <= 40 for k in res.krylov_iterations)


def test_newton_counts_no_higher_than_direct_solves(sep_model):
    # Counts of the direct-factorization solver on the same instances, for
    # Newton steps solved to KRYLOV_RTOL.
    g = TorusGrid((16,))
    m0, uT = perturbed_data(16)
    for n_t, tol, planner in ((8, 1e-10, False), (16, 1e-12, False), (128, 1e-12, False),
                              (8, 1e-10, True)):
        system = _System(sep_model, g, n_t, T / n_t, m0, uT, 1.0, planner)
        assert len(exact_newton(system, tol).krylov) <= 3


def test_missed_krylov_tolerance_raises(sep_model, monkeypatch):
    g = TorusGrid((16,))
    st = SpaceTimeGrid(g, 8, T)
    m0, uT = perturbed_data(16)
    # No residual reaches 1e-30 relative to a right-hand side of order 1.
    monkeypatch.setattr(_newton_krylov, "_forcing_term", lambda *args: 1e-30)
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

    def linearize(z, ev):
        J = helpers.dynamics_jacobian(system, z)
        return J.__matmul__, splu(csc_matrix(J)).solve

    dense = SimpleNamespace(evaluate=system.evaluate, linearize=linearize)
    run = _newton_krylov.newton(dense, start, 1e-9, 40)
    krylov_run = exact_newton(system)
    assert len(krylov_run.krylov) == len(run.krylov)
    for got, ref in zip(system.fields(krylov_run.z), system.fields(run.z)):
        assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("poly", [(0.0, 1.0), (0.0, 1.0, 0.0, 1.0)], ids=["linear", "cubic"])
def test_preconditioner_is_built_once_per_solve(monkeypatch, poly):
    # g' = 1 + 3 m^2 moves with every Newton step of the cubic coupling; the
    # preconditioner stays the one built at the start state all the same.
    st = SpaceTimeGrid(TorusGrid((16,)), 16, T)
    m0, uT = perturbed_data(16)
    model = SeparableHamiltonian(Coupling(poly=poly))
    build = _System.preconditioner
    calls = []

    def counted(self, mbar, gpbar):
        calls.append((mbar, gpbar))
        return build(self, mbar, gpbar)

    monkeypatch.setattr(_System, "preconditioner", counted)
    res = solve_mfg(model, st, m0, uT, eps=1.0, tol=1e-11)
    assert res.newton_iterations > 1
    assert len(calls) == 1


@pytest.mark.parametrize("shape, n_t, planner", CASES)
def test_inexact_newton_certifies_with_fewer_krylov_iterations(shape, n_t, planner):
    system, _, _ = _system_case(shape, n_t, planner)
    solver = solve_mfc if planner else solve_mfg
    st = SpaceTimeGrid(system.sp, n_t, 0.5)
    inexact = solver(system.model, st, system.m0, system.uT, eps=0.7)
    run = exact_newton(system)
    u, m = system.fields(run.z)
    exact = GameState(st, m, u, system.m0, system.uT, eps=0.7)
    assert run.ev.norm <= 1e-9
    assert np.max(np.abs((psi2 if planner else psi1)(exact, system.model).dm)) <= 1e-7
    assert np.max(np.abs(psi2(exact, system.model).du)) <= 1e-7
    assert inexact.residual_inf <= 1e-9
    assert inexact.psi1_dm_inf <= 1e-7
    assert inexact.psi2_du_inf <= 1e-7
    assert sum(inexact.krylov_iterations) < sum(run.krylov)
    assert inexact.newton_iterations <= len(run.krylov) + 2
    etas = inexact.forcing_terms
    assert len(etas) == inexact.newton_iterations and etas[0] == 0.5
    assert all(_newton_krylov.KRYLOV_RTOL <= eta <= 0.5 for eta in etas)


@pytest.mark.parametrize("N", [1, 2, 8, 32, 128])
@pytest.mark.parametrize("shape", [(16,), (8, 8)], ids=["1d", "2d"])
def test_time_inverse_matches_the_dense_oracle(shape, N):
    # The factored solve applied to the 2N unit columns of every mode is the
    # inverse of each time system. It acts on each mode alone, so the
    # columns go in one call, on 2N copies of the grid's symbols. Horizon
    # 0.25. For g' >= 0 it agrees with the refined dense inverse to 6e-15.
    # For g' = -40 (a non-monotone coupling) a pivot of the unpivoted sweep
    # can pass near zero: on 8^2 x 128 at eps = 1e-2 and mbar = 0.5 it is
    # off by 9.8e-12.
    sp = TorusGrid(shape)
    copies = SimpleNamespace(
        **{
            name: np.broadcast_to(getattr(sp, name), (2 * N,) + shape)
            for name in ("laplacian_symbol", "divgrad_symbol")
        }
    )
    dt = 0.25 / N
    for eps in (0.0, 1e-2, 1.0):
        for gpbar in (-40.0, 0.0, 1.0, 10.0):
            for mbar in (0.5, 1.0):
                ref = helpers.dense_time_inverse(sp, N, dt, eps, mbar, gpbar)
                half = ref.shape[:-2]
                units = np.zeros((2 * N, 2 * N) + half, dtype=complex)
                units[np.arange(2 * N), np.arange(2 * N)] = 1.0  # (row, column, *half)
                solve = dynamics._time_solve(copies, N, dt, eps, mbar, gpbar)
                cols = solve(units.reshape((2, N, 2 * N) + half)).reshape(units.shape)
                got = np.moveaxis(cols, (0, 1), (-2, -1))
                assert not np.any(got.imag)
                gap = np.max(np.abs(got.real - ref)) / np.max(np.abs(ref))
                assert gap <= (1e-12 if gpbar >= 0.0 else 1e-10), (eps, gpbar, mbar, gap)


@pytest.mark.parametrize("shape, N", [((32,), 256), ((16, 16), 128)], ids=["1d", "2d"])
def test_preconditioner_working_set_is_a_few_right_hand_sides(shape, N):
    # Building the preconditioner and applying it once allocates O(N) per
    # mode: the factors and the transforms of one right-hand side, not a
    # (modes, 2N, 2N) inverse, which alone is 272 and 144 right-hand sides
    # here.
    system, _, rng = _system_case(shape, N, False)
    r = rng.standard_normal(2 * N * system.K)
    tracemalloc.start()
    try:
        x = system.preconditioner(1.0, 1.5)(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == r.shape and np.all(np.isfinite(x))
    assert peak <= 12 * r.nbytes, peak / r.nbytes


def test_singular_time_pivot_raises_solver_error():
    # At eps = 0 and dt = 1/2 the first pivot of mode k = 1 has determinant
    # 4 - (g'/2)(mbar del/2), exactly zero for one g' near 8 / (mbar del/2).
    sp = TorusGrid((4,))
    system = _System(SeparableHamiltonian(), sp, 2, 0.5, np.ones(4), np.zeros(4), 0.0, False)
    hq = 0.5 * sp.divgrad_symbol[1]
    gpbar = 8.0 / hq
    for _ in range(100):
        if (det := 4.0 + 0.5 * gpbar * -hq) == 0.0:
            break
        gpbar = np.nextafter(gpbar, -np.inf if det > 0.0 else np.inf)
    assert det == 0.0
    pattern = r"time pivot at slab 0 of 2 is singular or not finite \(mean coupling slope g' = -0.405285\)"
    with pytest.raises(SolverError, match=pattern):
        system.preconditioner(1.0, float(gpbar))
    with pytest.raises(SolverError, match=r"at slab 0 of 2 .* g' = nan\)"):
        system.preconditioner(1.0, float("nan"))


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends its calls to the returned list."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_linearize_reuses_the_residual_it_follows(monkeypatch):
    system, z, rng = _system_case((8, 8), 4, True)
    ev = system.evaluate(z)
    keys = ("model", "sp", "N", "dt", "m0", "uT", "eps", "planner")
    fresh = _System(*(getattr(system, k) for k in keys))
    rows = _counted(monkeypatch, dynamics, "_slab_rows")
    jvp, _ = system.linearize(z, ev)
    assert rows == []
    dz = rng.standard_normal(z.size)
    assert np.array_equal(jvp(dz), fresh.linearize(z, fresh.evaluate(z))[0](dz))
    assert len(rows) == 1  # the fresh system's own evaluation
    # The evaluation decides, not z: linearize reads the terms it is handed
    # and evaluates nothing at the z it is given.
    z[0] += 1e-3
    assert np.array_equal(system.linearize(z, ev)[0](dz), jvp(dz))
    assert len(rows) == 1


@pytest.mark.parametrize("planner", [False, True], ids=["equilibrium", "planner"])
def test_one_grad_ubar_transform_per_residual_evaluation(monkeypatch, planner):
    # grad ubar is transformed only inside the slab rows, and linearize reads
    # the rows of the residual evaluated at its iterate: the rows are built
    # once per residual evaluation, line-search trials included.
    st = SpaceTimeGrid(TorusGrid((16,)), 16, T)
    m0, uT = perturbed_data(16)
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0, 0.0, 1.0)))
    residuals = _counted(monkeypatch, _System, "evaluate")
    rows = _counted(monkeypatch, dynamics, "_slab_rows")
    res = (solve_mfc if planner else solve_mfg)(model, st, m0, uT, eps=1.0, tol=1e-11)
    assert res.newton_iterations > 1
    assert len(rows) == len(residuals) > res.newton_iterations


def test_jacobian_action_transforms_one_pair_plus_the_divergence(monkeypatch):
    # One forward and one inverse transform of the (du, dm) midpoint stack,
    # and the divergence's pair: 4 transform calls in 1-D, 8 in 2-D.
    for shape, calls in (((16,), 4), ((8, 8), 8)):
        system, z, rng = _system_case(shape, 4, False)
        jvp, _ = system.linearize(z, system.evaluate(z))
        ffts = _counted(monkeypatch, np.fft, "fft")
        iffts = _counted(monkeypatch, np.fft, "ifft")
        jvp(rng.standard_normal(z.size))
        assert len(ffts) + len(iffts) == calls
        monkeypatch.undo()
