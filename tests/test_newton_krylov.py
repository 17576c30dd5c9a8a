"""Bit-identity oracles for the in-repo GMRES against scipy.sparse.linalg.gmres.

The port returns SciPy's bits for every operator that returns a fresh
array. The two differ only where SciPy's basis aliases an operator's
output, as on an operator that returns its input.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as sparse_linalg
from scipy.linalg.lapack import dlartg

from mfgkit import (
    CongestionHamiltonian,
    Coupling,
    SeparableHamiltonian,
    SolverError,
    SpatialTerm,
    TorusGrid,
    _newton_krylov,
    dynamics,
    spectral,
    stationary,
)
from mfgkit import bifurcation as bf
from mfgkit._newton_krylov import KRYLOV_CYCLES, KRYLOV_RESTART, KRYLOV_RTOL, gmres
from conftest import FPRIME1


def scipy_gmres(matvec, precond, rhs):
    """(x, info, iterations) of scipy's gmres with the settings the port fixes."""
    n = rhs.size
    residuals = []
    x, info = sparse_linalg.gmres(
        sparse_linalg.LinearOperator((n, n), matvec=matvec), rhs,
        M=sparse_linalg.LinearOperator((n, n), matvec=precond), rtol=KRYLOV_RTOL, atol=0.0,
        restart=KRYLOV_RESTART, maxiter=KRYLOV_CYCLES, callback=residuals.append,
        callback_type="pr_norm",
    )
    return x, info, len(residuals)


def dense_system(n, spread, seed):
    """A random nonsymmetric A = D + spread * G / sqrt(n) with the Jacobi
    preconditioner 1 / D, and a random right-hand side."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.0, 4.0, n)
    a = np.diag(d) + spread * rng.standard_normal((n, n)) / np.sqrt(n)
    return (lambda x: a @ x), (lambda x: x / d), rng.standard_normal(n)


def assert_same_solve(matvec, precond, rhs):
    want, info, want_its = scipy_gmres(matvec, precond, rhs)
    assert info == 0
    with np.errstate(divide="raise", invalid="raise"):
        got, its = gmres(matvec, precond, rhs, "a test step")
    assert np.array_equal(got, want)
    assert its == want_its
    return its


def test_converges_within_one_cycle():
    assert assert_same_solve(*dense_system(120, 1.0, 0)) < KRYLOV_RESTART


def test_converges_after_restarts():
    assert assert_same_solve(*dense_system(200, 1.8, 1)) > 2 * KRYLOV_RESTART


def test_small_system_restarts_at_n():
    # n < KRYLOV_RESTART: the cycle length is n.
    assert assert_same_solve(*dense_system(24, 3.0, 2)) <= 24


def test_breakdown_on_an_invariant_krylov_space():
    # M A x = x[shift], a 12-cycle on the first 12 of 24 coordinates, and
    # M rhs = e_0 / 2, so the Krylov vectors are e_0 ... e_11, exactly, and the
    # 12th has nothing left after Gram-Schmidt. Normalizing it would divide by zero.
    n = 24
    perm = np.random.default_rng(3).permutation(n)
    inverse = np.argsort(perm)
    shift = np.r_[np.roll(np.arange(12), 1), np.arange(12, n)]

    def matvec(x):
        return 2.0 * x[perm]

    def precond(y):
        return 0.5 * y[inverse][shift]

    rhs = np.zeros(n)
    rhs[inverse[shift[0]]] = 1.0
    assert assert_same_solve(matvec, precond, rhs) == 12


def test_zero_rhs_returns_zero_without_iterations():
    matvec, precond, _ = dense_system(16, 1.0, 4)
    rhs = np.zeros(16)
    want, info, want_its = scipy_gmres(matvec, precond, rhs)
    got, its = gmres(matvec, precond, rhs, "a test step")
    assert info == 0 and np.array_equal(got, want)
    assert its == want_its == 0


def test_miss_raises_with_scipys_relative_residual():
    # Eigenvalues around the origin and no preconditioning: GMRES stagnates.
    rng = np.random.default_rng(5)
    n = 300
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    rhs = rng.standard_normal(n)
    matvec, precond = (lambda x: a @ x), (lambda x: x.copy())
    x, info, its = scipy_gmres(matvec, precond, rhs)
    assert info != 0
    rel = float(np.linalg.norm(rhs - matvec(x)) / np.linalg.norm(rhs))
    pattern = (
        f"GMRES missed its relative tolerance 1e-10 at a test step: "
        f"relative residual {rel:.3e} after {its} iterations"
    )
    with pytest.raises(SolverError, match=pattern):
        gmres(matvec, precond, rhs, "a test step")


def test_identity_operators_that_return_their_input_solve_in_one_iteration():
    # SciPy's in-place Gram-Schmidt zeroes the basis row these operators hand
    # back, and it returns x near 0; the port owns its basis and solves, with
    # SciPy's bits on the same operators returning copies.
    rhs = np.arange(1.0, 6.0)
    want, info, want_its = scipy_gmres(lambda x: x.copy(), lambda r: r.copy(), rhs)
    got, its = gmres(lambda x: x, lambda r: r, rhs, "a test step")
    assert info == 0 and its == want_its == 1
    assert np.array_equal(got, want)
    assert np.max(np.abs(got - rhs)) <= 4 * np.finfo(float).eps * np.max(rhs)


def test_a_preconditioner_reusing_one_output_buffer_gives_scipys_bits():
    # Every call overwrites and returns the same buffer, so a basis that kept
    # the preconditioner's output instead of its own vectors would change.
    matvec, jacobi, rhs = dense_system(120, 1.0, 0)
    buffer = np.empty_like(rhs)

    def precond(x):
        buffer[:] = jacobi(x)
        return buffer

    assert assert_same_solve(matvec, precond, rhs) > 1


def test_working_set_follows_the_iterations_run():
    # Three distinct eigenvalues exhaust the Krylov space in 3 iterations. The
    # traced peak (the basis, its stacked copy for the update and the
    # operators' temporaries) stays within 3 (its + 1) n-vectors, which a
    # (KRYLOV_RESTART + 1) x n basis buffer alone would exceed.
    n = 100_000
    d = np.resize([1.0, 2.0, 3.0], n)
    rhs = np.cos(np.arange(n))
    tracemalloc.start()
    try:
        x, its = gmres(lambda x: d * x, lambda r: r.copy(), rhs, "a test step")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert its <= 3
    assert np.linalg.norm(rhs - d * x) <= KRYLOV_RTOL * np.linalg.norm(rhs)
    assert peak <= 3 * (its + 1) * n * 8 < (KRYLOV_RESTART + 1) * n * 8


class _NanStart:
    """A system whose start evaluation has a NaN row; linearizing it fails."""

    def evaluate(self, z):
        rows = np.array([1.0, np.nan])
        return _newton_krylov.Evaluation(rows, float(np.max(np.abs(rows))), None)

    def linearize(self, z, ev):
        raise AssertionError("a non-finite residual was linearized")


def test_non_finite_residual_stops_before_any_linearization():
    message = "^no convergence at a test: the residual is nan at Newton step 1$"
    with pytest.raises(SolverError, match=message):
        _newton_krylov.newton(_NanStart(), np.zeros(2), 1e-10, 5, " at a test")


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def test_rotation_matches_lapack_dlartg():
    rng = np.random.default_rng(6)
    pairs = [
        tuple(rng.standard_normal(2) * 10.0 ** rng.uniform(-8, 8, 2)) for _ in range(2000)
    ]
    specials = (0.0, -0.0, 1.0, -1.0, 3.5, -2.25, 1e-200, -1e-200, 1e200, -1e200)
    pairs += [(f, g) for f in specials for g in specials]
    pairs += [tuple(rng.standard_normal(2) * scale) for scale in (1e-200, 1e200) for _ in range(200)]
    for f, g in pairs:
        assert _bits(_newton_krylov._rotation(f, g)) == _bits(dlartg(f, g)), (f, g)


def test_forcing_terms_follow_eisenstat_walker_choice_2():
    forcing = _newton_krylov._forcing_term
    assert forcing(1.0, None, None, 1e-9) == 0.5
    # 0.9 (|F_k| / |F_k-1|)^2, with the safeguard 0.9 * 0.5^2 = 0.225 > 0.1.
    assert forcing(0.1, 1.0, 0.5, 1e-9) == 0.225
    assert forcing(0.5, 1.0, 0.5, 1e-9) == 0.225
    # Safeguard 0.9 * 0.3^2 = 0.081 <= 0.1 is not applied.
    assert forcing(0.1, 1.0, 0.3, 1e-9) == pytest.approx(0.009, rel=1e-15)
    # Capped at 0.5, floored at KRYLOV_RTOL and at tol / (2 |F_k|).
    assert forcing(2.0, 1.0, 0.5, 1e-9) == 0.5
    assert forcing(1e-6, 1.0, 1e-6, 1e-20) == KRYLOV_RTOL
    assert forcing(1e-6, 1.0, 1e-6, 1e-9) == 1e-9 / 2e-6


def _finite_horizon_case():
    sp = TorusGrid((16,))
    x = sp.coords[0]
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0, 0.0, 1.0)))
    m0, uT = 1.0 + 0.3 * np.cos(2.0 * np.pi * x), 0.2 * np.sin(2.0 * np.pi * x)
    system = dynamics._System(model, sp, 8, 0.5 / 8, m0, uT, 1.0, False)
    start = np.concatenate([np.tile(d.ravel(), system.N) for d in (system.uT, system.m0)])
    return system, start, 1e-11, 40, dynamics, "_slab_rows"


def _stationary_case():
    term = SpatialTerm(0.3, (1,))
    model = CongestionHamiltonian(
        Q=(1.0,), alpha=0.5, gamma=2.0, coupling=Coupling(poly=(0.0, 1.0), terms=(term,))
    )
    system = stationary._Stationary(model, TorusGrid((32,)))
    start = system.pack(np.zeros(32), np.ones(32), 0.0)
    return system, start, 1e-10, stationary.POLISH_STEPS, stationary, "_slab_rows"


def _branch_case():
    coupling = bf.default_periodic_coupling(FPRIME1, cubic=1.0, f1=0.0)
    system = bf._Branch(coupling, bf.periodic_grid(1, 16, 16))
    system.target[1] = 0.01
    start = np.concatenate(
        [0.01 * system.psi[0], [0.0, bf.critical_period(FPRIME1)], np.zeros(len(system.psi) - 1)]
    )
    return system, start, bf._BRANCH_TOL, bf._MAX_NEWTON, bf, "_residual"


# Each case: (system, start, tol, budget, module, name of its rows' routine).
CASES = {
    "finite-horizon": _finite_horizon_case,
    "stationary": _stationary_case,
    "branch": _branch_case,
}


def _log_calls(monkeypatch, owner, name, log):
    original = getattr(owner, name)

    def logged(*args, **kwargs):
        log.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, logged)


@pytest.mark.parametrize("overshoot", [False, True], ids=["newton", "overshoot"])
@pytest.mark.parametrize("case", CASES)
def test_one_evaluation_per_tried_iterate(monkeypatch, case, overshoot):
    # The start and each line-search trial are evaluated once, each by one
    # call of the rows' routine, and the run hands back the last evaluation:
    # the engine asks for nothing else, and linearize evaluates nothing. An
    # overshoot quarters the Jacobian, so each step is four times too long
    # and the line search halves it before a trial passes.
    system, start, tol, budget, module, rows = CASES[case]()
    if overshoot:
        linearize = type(system).linearize

        def quartered(self, z, ev):
            jvp, precond = linearize(self, z, ev)
            return (lambda dz: 0.25 * jvp(dz)), (lambda r: 4.0 * precond(r))

        monkeypatch.setattr(type(system), "linearize", quartered)
    evaluations, low = [], []
    _log_calls(monkeypatch, type(system), "evaluate", evaluations)
    _log_calls(monkeypatch, module, rows, low)
    run = _newton_krylov.newton(system, start, tol, budget)
    tried = [args[1] for args in evaluations]
    assert len(run.krylov) >= 1
    if overshoot:
        assert len(tried) > 1 + len(run.krylov)
    else:
        assert len(tried) == 1 + len(run.krylov)
    assert len(low) == len(tried)
    assert np.array_equal(tried[0], start) and np.array_equal(tried[-1], run.z)
    assert len({z.tobytes() for z in tried}) == len(tried)
    assert run.ev.norm <= tol and run.history[-1] == run.ev.norm


@pytest.mark.parametrize("case", CASES)
def test_linearize_reads_the_evaluation_it_is_handed(monkeypatch, case):
    system, start, _, _, module, rows = CASES[case]()
    ev = system.evaluate(start)
    calls = []
    _log_calls(monkeypatch, module, rows, calls)
    _log_calls(monkeypatch, spectral, "gradient", calls)
    model = getattr(system, "model", None)
    if model is not None:
        _log_calls(monkeypatch, type(model), "eval", calls)
    for _ in range(2):
        system.linearize(start, ev)
    assert calls == []
