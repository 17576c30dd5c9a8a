"""Time-periodic branch machinery: kernels, eigenvalue crossing, continuation."""

import time

import numpy as np
import pytest

import helpers
from mfgkit import ModelError, PositivityError, SolverError, _newton_krylov, spectral
from mfgkit import bifurcation as bf
from conftest import FPRIME1

TBAR = 0.22507907903927651


def test_critical_period_value_and_overtones():
    assert bf.critical_period(FPRIME1) == pytest.approx(TBAR, abs=1e-15)
    assert bf.critical_period(FPRIME1, overtone=2) == pytest.approx(2.0 * TBAR, abs=1e-15)
    assert bf.critical_period(FPRIME1, overtone=3) == pytest.approx(3.0 * TBAR, abs=1e-15)
    # T_bar = 1 / sqrt(-4 pi^2 - f'(1)) directly.
    assert bf.critical_period(FPRIME1) == pytest.approx(
        1.0 / np.sqrt(-4.0 * np.pi**2 - FPRIME1), abs=1e-16
    )


@pytest.mark.parametrize("fprime1", [np.nan, np.inf, -np.inf])
def test_critical_period_rejects_a_non_finite_fprime1(fprime1):
    with pytest.raises(ModelError, match=f"fprime1 must be finite, got {fprime1}"):
        bf.critical_period(fprime1)


def test_critical_period_window_bounds():
    with pytest.raises(ModelError, match="lower window bound"):
        bf.critical_period(-9.0 * np.pi**2)
    with pytest.raises(ModelError, match="upper window bound"):
        bf.critical_period(-3.0 * np.pi**2)
    with pytest.raises(ModelError, match="overtone"):
        bf.critical_period(FPRIME1, overtone=0)


def test_trivial_state_has_zero_residual(periodic_setup):
    st, coupling = periodic_setup
    z = np.zeros(st.field_shape)
    state = bf.PeriodicState(st, z, z, Hbar=0.0, T=TBAR)
    G1, G2, G3 = bf.eval_G(state, coupling)
    assert np.max(np.abs(G1)) == 0.0
    assert np.max(np.abs(G2)) == 0.0
    assert G3 == 0.0
    assert bf.eval_g(state, coupling) == 0.0


def test_residual_is_exact_gradient_of_potential(periodic_setup):
    st, coupling = periodic_setup
    rng = np.random.default_rng(11)

    def zero_mean():
        a = rng.standard_normal(st.field_shape)
        return a - a.mean()

    U, M = 0.01 * zero_mean(), 0.01 * zero_mean()
    state = bf.PeriodicState(st, U, M, Hbar=0.02, T=TBAR)
    G1, G2, G3 = bf.eval_G(state, coupling)
    dU, dM, dl = zero_mean(), zero_mean(), 0.7
    pair = float(np.mean(G1 * dU) + np.mean(G2 * dM) + G3 * dl)

    def g_of(h):
        moved = bf.PeriodicState(st, U + h * dU, M + h * dM, Hbar=0.02 + h * dl, T=TBAR)
        return bf.eval_g(moved, coupling)

    h = 1e-5
    fd = (8.0 * (g_of(h) - g_of(-h)) - (g_of(2 * h) - g_of(-2 * h))) / (12.0 * h)
    assert abs(pair - fd) <= 1e-8 * max(1.0, abs(fd))


@pytest.mark.parametrize("dim, n, n_t", [(1, 16, 16), (1, 24, 8), (2, 8, 8), (2, 12, 8)])
def test_symbol_form_matches_the_explicit_formula(dim, n, n_t, periodic_setup):
    # (G1, G2) and its Jacobian action through the mode blocks of A(T),
    # against the terms written out with the grid operators.
    _, coupling = periodic_setup
    st = bf.periodic_grid(dim, n, n_t)
    system = bf._Branch(coupling, st)
    K = system.K
    rng = np.random.default_rng(dim + n + n_t)

    def rel(got, want):
        return max(np.max(np.abs(g - w)) / np.max(np.abs(w)) for g, w in zip(got, want))

    for T in (0.5 * TBAR, TBAR, 3.0):
        U, M = 0.1 * rng.standard_normal((2,) + st.field_shape)
        Hbar = 0.3
        got = bf._residual(st, coupling, U, M, Hbar, T)[:2]
        assert rel(got, helpers.periodic_residual(st, coupling, U, M, Hbar, T)) <= 1e-12
        z = np.concatenate([U.ravel(), M.ravel(), [Hbar, T], np.zeros(len(system.psi) - 1)])
        jvp, _ = system.linearize(z, system.evaluate(z))
        dU, dM = rng.standard_normal((2,) + st.field_shape)
        dz = np.concatenate([dU.ravel(), dM.ravel(), [0.7, 0.0], np.zeros(len(system.psi) - 1)])
        dG = jvp(dz)[: 2 * K].reshape((2,) + st.field_shape)
        assert rel(dG, helpers.periodic_jvp(st, coupling, U, M, T, dU, dM, 0.7)) <= 1e-12
        # The linear part is the mode blocks of A(T) at f'(1) = 0, over T.
        zero = np.zeros(st.field_shape)
        linear = bf.default_periodic_coupling(0.0, 0.0)
        lin = spectral.modewise(bf._linear_blocks(st, T), np.stack([dU, dM]))
        want = helpers.periodic_jvp(st, linear, zero, zero, T, dU, dM, 0.0)
        assert rel(lin, want) <= 1e-12


def test_periodic_state_validation(periodic_setup):
    st, _ = periodic_setup
    z = np.zeros(st.field_shape)
    with pytest.raises(ModelError, match="zero space-time mean"):
        bf.PeriodicState(st, z + 0.5, z, Hbar=0.0, T=TBAR)
    with pytest.raises(PositivityError, match=r"1 \+ M must stay positive"):
        bf.PeriodicState(st, z, z - 2.0, Hbar=0.0, T=TBAR)
    with pytest.raises(ModelError, match="period must be positive"):
        bf.PeriodicState(st, z, z, Hbar=0.0, T=-1.0)


def test_periodic_state_rejects_nan(periodic_setup):
    # NaN compares False with any bound, so both role checks fail on it.
    st, _ = periodic_setup
    z = np.zeros(st.field_shape)
    nan = z.copy()
    nan.flat[3] = np.nan
    with pytest.raises(ModelError, match="zero space-time mean"):
        bf.PeriodicState(st, nan, z, Hbar=0.0, T=TBAR)
    with pytest.raises(PositivityError, match=r"1 \+ M must stay positive"):
        bf.PeriodicState(st, z, nan, Hbar=0.0, T=TBAR)


def test_mode_block_coefficients(periodic_setup):
    st, _ = periodic_setup
    blocks = bf._symbol_blocks(st, TBAR, FPRIME1)
    assert blocks.shape == (st.n_t,) + st.space.shape + (2, 2)
    Tl = TBAR * 4.0 * np.pi**2
    for n in range(st.n_t):
        k = n - st.n_t if n > st.n_t // 2 else n
        iw = 0.0 if n == st.n_t // 2 else 2j * np.pi * k
        expect = np.array([[Tl, iw + Tl], [-iw + Tl, -TBAR * FPRIME1]])
        assert np.max(np.abs(blocks[n, 1] - expect)) == 0.0
    # The zero mode pairs the multiplier with the mean of mu.
    Tc = TBAR * bf.ELL_SCALE
    expect = np.array([[0.0, Tc], [Tc, -TBAR * FPRIME1]])
    assert np.max(np.abs(blocks[0, 0] - expect)) == 0.0


def test_modewise_operator_matches_grid_realization():
    # The symbol blocks against the dense grid assembly, below and at T_bar.
    for space, n_t in [((8,), 8), ((16,), 16), ((16,), 8), ((8, 8), 8)]:
        st = bf.periodic_grid(len(space), space[0], n_t)
        for T in (0.9 * TBAR, TBAR):
            dense = np.linalg.eigvalsh(helpers.assemble_A(st, T, FPRIME1))
            blocks = np.sort(bf._eigenvalues(st, T, FPRIME1))
            assert blocks.shape == dense.shape == (2 * n_t * st.space.num_nodes - 1,)
            assert np.max(np.abs(blocks - dense)) <= 1e-11


def test_assembled_operator_is_symmetric(periodic_setup):
    st, _ = periodic_setup
    A = helpers.assemble_A(st, 0.9 * TBAR, FPRIME1)
    assert np.max(np.abs(A - A.T)) <= 1e-12


def test_kernel_at_critical_period(periodic_setup):
    st, _ = periodic_setup
    rep = bf.kernel_at(st, TBAR, FPRIME1, check_trig_span=True)
    assert rep.kernel_dim == 4
    assert rep.adjoint_kernel_dim == 4
    assert rep.fifth_smallest >= 0.1
    assert rep.trig_energy_fraction >= 0.999
    assert len(rep.kernel_fields) == 4


def test_kernel_at_overtones(periodic_setup):
    st, _ = periodic_setup
    for overtone in (2, 3):
        T = bf.critical_period(FPRIME1, overtone=overtone)
        rep = bf.kernel_at(st, T, FPRIME1, check_trig_span=True, temporal_freq=overtone)
        assert rep.kernel_dim == 4
        assert rep.adjoint_kernel_dim == 4
        assert rep.fifth_smallest >= 0.1
        assert rep.trig_energy_fraction >= 0.999


def test_kernel_trivial_off_critical(periodic_setup):
    st, _ = periodic_setup
    rep = bf.kernel_at(st, 0.9 * TBAR, FPRIME1)
    assert rep.kernel_dim == 0
    assert rep.adjoint_kernel_dim == 0


def test_kernel_at_tiny_period_has_no_kernel():
    # The blocks scale with T; an absolute null bound flagged 31 fields at
    # T = 1e-12 and 4 at T = 1e-9 on this grid.
    st = bf.periodic_grid(1, 8, 4)
    for T in (1e-12, 1e-9):
        rep = bf.kernel_at(st, T, FPRIME1)
        assert rep.kernel_dim == 0
        assert rep.adjoint_kernel_dim == 0


def test_kernel_at_rejects_nonpositive_period(periodic_setup):
    st, _ = periodic_setup
    for T in (0.0, -TBAR):
        with pytest.raises(ModelError, match="period must be positive"):
            bf.kernel_at(st, T, FPRIME1)


def test_kernel_at_2d_32_cubed():
    # 2-D 32^2 x 32 has K = 32768; the dense operator would be 65535^2.
    st = bf.periodic_grid(2, 32, 32)
    start = time.perf_counter()
    rep = bf.kernel_at(st, TBAR, FPRIME1, check_trig_span=True)
    off = bf.kernel_at(st, 0.9 * TBAR, FPRIME1)
    elapsed = time.perf_counter() - start
    assert rep.kernel_dim == rep.adjoint_kernel_dim == 8
    assert rep.trig_energy_fraction >= 0.999
    assert len(rep.kernel_fields) == 8
    assert off.kernel_dim == 0
    assert elapsed < 2.0


def test_kernel_fields_are_orthonormal_and_annihilated(periodic_setup):
    st, _ = periodic_setup
    for overtone in (1, 2, 3):
        T = bf.critical_period(FPRIME1, overtone=overtone)
        fields = bf.kernel_at(st, T, FPRIME1).kernel_fields
        gram = np.array(
            [
                [np.mean(v1 * v2) + np.mean(m1 * m2) + l1 * l2 for v2, m2, l2 in fields]
                for v1, m1, l1 in fields
            ]
        )
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12
        for v, mu, ell in fields:
            rv, rmu, rell = helpers.apply_A(st, T, FPRIME1, v, mu, ell)
            assert max(np.max(np.abs(rv)), np.max(np.abs(rmu)), abs(rell)) <= 1e-10


def test_analytic_kernel_fields_are_annihilated(periodic_setup):
    st, _ = periodic_setup
    pairs = bf.analytic_kernel_fields(st, FPRIME1)
    assert len(pairs) == 4
    for v, mu in pairs:
        rv, rmu, rell = helpers.apply_A(st, TBAR, FPRIME1, v, mu, 0.0)
        assert np.max(np.abs(rv)) <= 1e-10
        assert np.max(np.abs(rmu)) <= 1e-10
        assert abs(rell) <= 1e-10


def test_sigma_operator_matches_h_root(periodic_setup):
    st, _ = periodic_setup
    lo = bf.sigma_from_operator(st, 0.95 * TBAR, FPRIME1)
    hi = bf.sigma_from_operator(st, 1.05 * TBAR, FPRIME1)
    assert lo["gap"] <= 1e-8
    assert hi["gap"] <= 1e-8
    assert lo["eig"] < 0.0 < hi["eig"]
    assert lo["eig"] == pytest.approx(-0.18084235708765, abs=1e-9)
    assert hi["eig"] == pytest.approx(0.17479387052954, abs=1e-9)


def test_sigma_branch_root_and_slope(periodic_setup):
    st, _ = periodic_setup
    assert bf.sigma_h_root(1.05 * TBAR, FPRIME1) == pytest.approx(0.17479387052954, abs=1e-9)
    exact = bf.sigma_slope_exact(FPRIME1)
    assert exact == pytest.approx(15.791367041742973, abs=1e-12)
    assert exact == pytest.approx(1.6 * np.pi**2, rel=1e-13)
    numeric = bf.sigma_slope(st, FPRIME1)
    assert abs(numeric - exact) <= 1e-4 * abs(exact)


def test_crossing_number(periodic_setup):
    st, _ = periodic_setup
    assert bf.crossing_number(st, FPRIME1) == 4


def test_branch_points_certify(branch3, periodic_setup):
    st, coupling = periodic_setup
    branch = branch3
    assert branch.Tbar == pytest.approx(TBAR, abs=1e-15)
    amps = [p.amplitude for p in branch.points]
    assert amps == [1e-3, 3e-3, 1e-2]
    for p in branch.points:
        assert p.residual_inf <= 1e-10
        assert p.dtM_over_M >= 0.1
        assert p.dtM_over_M == pytest.approx(2.0 * np.pi, rel=1e-2)
        assert p.newton_iterations == len(p.krylov_iterations) > 0
        assert all(0 < k <= 40 for k in p.krylov_iterations)
        assert p.solvability_inf <= 1e-12
    dT = [abs(p.state.T - TBAR) for p in branch.points]
    assert dT[0] < dT[1] < dT[2]
    # Quadratic tangency: dT scales like amplitude squared.
    assert dT[1] / dT[0] == pytest.approx(9.0, rel=0.02)
    assert dT[2] / dT[1] == pytest.approx(100.0 / 9.0, rel=0.02)
    assert dT[0] <= 1e-2


def test_branch_points_map_back(branch3, periodic_setup):
    st, coupling = periodic_setup
    point = branch3.points[-1]
    out = bf.map_to_original(point.state, coupling)
    assert out["residual_transport_inf"] <= 1e-8
    assert out["residual_value_inf"] <= 1e-8
    assert abs(out["mass_defect"]) <= 1e-10
    assert np.max(np.abs(out["slice_masses"] - 1.0)) <= 1e-10
    assert out["period"] == point.state.T
    assert out["m"].min() > 0.0


def test_map_to_original_trivial(periodic_setup):
    st, coupling = periodic_setup
    z = np.zeros(st.field_shape)
    state = bf.PeriodicState(st, z, z, Hbar=0.0, T=TBAR)
    out = bf.map_to_original(state, coupling)
    assert np.max(np.abs(out["m"] - 1.0)) == 0.0
    s = out["grid"].times.reshape(16, 1)
    # u = U - s f(1) with f(1) = 1 for this coupling.
    assert np.max(np.abs(out["u"] + s)) == 0.0
    assert out["residual_transport_inf"] == 0.0
    assert out["residual_value_inf"] == 0.0


def test_x_dependent_coupling_rejected(periodic_setup):
    st, _ = periodic_setup
    from mfgkit import Coupling, SpatialTerm

    bad = Coupling(poly=(0.0, 1.0), terms=(SpatialTerm(0.1, (1,)),))
    z = np.zeros(st.field_shape)
    state = bf.PeriodicState(st, z, z, Hbar=0.0, T=TBAR)
    with pytest.raises(ModelError, match="x-independent"):
        bf.eval_G(state, bad)


def _flat(U, M):
    return np.concatenate([U.ravel(), M.ravel()])


def test_frozen_null_space_is_the_closed_form_span():
    # One rule (null vectors of the frozen per-mode blocks) gives the kernel
    # fields, the structural Nyquist modes and, in 2-D and 3-D, the aliased
    # copies: 4d + 2^(d+1) + aliased = 8, 24 and 64 directions.
    for (dim, n, n_t), count in [((1, 16, 16), 8), ((2, 8, 8), 24), ((3, 4, 4), 64)]:
        st = bf.periodic_grid(dim, n, n_t)
        system = bf._Branch(bf.default_periodic_coupling(FPRIME1), st)
        K = system.K
        closed = np.array([_flat(v, mu) for v, mu in helpers.branch_null_fields(st, FPRIME1)])
        assert closed.shape[0] == system.psi.shape[0] == count
        assert np.max(np.abs(system.psi @ system.psi.T / K - np.eye(count))) <= 1e-12
        assert np.max(np.abs(system.psi[0] - closed[0])) == 0.0
        outside = closed - (closed @ system.psi.T / K) @ system.psi
        assert np.max(np.abs(outside)) <= 1e-12


def _random_branch_state(system, rng, a=0.01):
    sp = system.st.space
    dx = np.concatenate(
        [spectral.random_band_limited(sp, rng).ravel() for _ in range(2 * system.st.n_t)]
    )
    x = a * system.psi[0] + 1e-3 * (dx - dx.mean())
    return np.concatenate([x, [0.02, 1.01 * TBAR], 1e-3 * rng.standard_normal(len(system.psi) - 1)])


@pytest.mark.parametrize("dim, n, n_t", [(1, 16, 16), (2, 8, 8)])
def test_branch_jacobian_action_matches_dense_oracle(dim, n, n_t, periodic_setup):
    _, coupling = periodic_setup
    st = bf.periodic_grid(dim, n, n_t)
    system = bf._Branch(coupling, st)
    K = system.K
    rng = np.random.default_rng(3)
    z = _random_branch_state(system, rng)
    U, M, _, T, _ = system.split(z)
    dense = helpers.branch_jacobian(
        st, coupling, U, M, T, helpers.branch_null_fields(st, FPRIME1)
    )
    dz = rng.standard_normal(z.size)
    dz[2 * K + 2 :] = 0.0
    jvp, _ = system.linearize(z, system.evaluate(z))
    # Rows G1, G2, mass and pin; the remaining oracle rows span the same
    # null space as the library's orthogonality rows in another basis.
    got = jvp(dz)[: 2 * K + 2]
    want = (dense @ dz[: 2 * K + 2])[: 2 * K + 2]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    t_col = jvp(np.eye(z.size)[2 * K + 1])[: 2 * K]
    assert np.max(np.abs(t_col - dense[: 2 * K, 2 * K + 1])) == 0.0


def test_bordered_newton_step_matches_direct_solve(periodic_setup):
    _, coupling = periodic_setup
    st = bf.periodic_grid(1, 16, 16)
    system = bf._Branch(coupling, st)
    system.target[1] = 0.01
    K = system.K
    z = _random_branch_state(system, np.random.default_rng(5))
    U, M, _, T, _ = system.split(z)
    dense = helpers.branch_jacobian(
        st, coupling, U, M, T, helpers.branch_null_fields(st, FPRIME1)
    )
    bordered = np.zeros((z.size, z.size))
    bordered[: 2 * K, : 2 * K + 2] = dense[: 2 * K]
    bordered[: 2 * K, 2 * K + 2 :] = system.psi[1:].T
    bordered[2 * K :, : 2 * K] = system.rows / K
    ev = system.evaluate(z)
    direct = np.linalg.solve(bordered, -ev.rows)
    jvp, precond = system.linearize(z, ev)
    step, iterations = _newton_krylov.gmres(jvp, precond, -ev.rows, "a test step")
    assert 0 < iterations <= 40
    assert np.linalg.norm(step - direct) <= 1e-9 * np.linalg.norm(direct)


@pytest.mark.parametrize("dim, n, n_t", [(1, 16, 16), (1, 24, 24), (2, 8, 8)])
def test_branch_points_match_dense_reference(dim, n, n_t, periodic_setup):
    _, coupling = periodic_setup
    st = bf.periodic_grid(dim, n, n_t)
    amplitudes = (0.004, 0.012)
    reference = helpers.dense_branch(coupling, st, amplitudes)
    branch = bf.continue_branch(coupling, st, amplitudes)
    for (U, M, Hbar, T), p in zip(reference, branch.points):
        assert abs(p.state.T - T) <= 1e-10
        assert abs(p.state.Hbar - Hbar) <= 1e-10
        assert abs(np.max(np.abs(p.state.U)) - np.max(np.abs(U))) <= 1e-10
        assert abs(np.max(np.abs(p.state.M)) - np.max(np.abs(M))) <= 1e-10
        assert np.max(np.abs(p.state.U - U)) <= 1e-10
        assert np.max(np.abs(p.state.M - M)) <= 1e-10


def test_period_curvature_is_grid_independent():
    # (T - T_bar) / a^2 -> T_2 ~ 0.0304526 for f'(1) = -6 pi^2, cubic 1, f1 = 0.
    # One ulp of T is 4.4e-12 in this ratio at a = 0.0025, and Newton steps at
    # the roundoff floor move T by several ulps on either grid: the dense
    # lstsq reference differs by 2.1e-10 between n = 16 and 24 there.
    coupling = bf.default_periodic_coupling(FPRIME1, cubic=1.0, f1=0.0)
    ratios = {}
    for n in (16, 24):
        branch = bf.continue_branch(coupling, bf.periodic_grid(1, n, n), (0.0025, 0.01))
        ratios[n] = [(p.state.T - TBAR) / p.amplitude**2 for p in branch.points]
    assert abs(ratios[16][0] - ratios[24][0]) <= 1e-9
    assert abs(ratios[16][1] - ratios[24][1]) <= 1e-10
    assert abs(ratios[16][0] - 0.03045271) <= 1e-8
    assert abs(ratios[24][0] - 0.03045271) <= 1e-8


def test_2d_16_squared_branch_certifies_quickly(periodic_setup):
    _, coupling = periodic_setup
    start = time.perf_counter()
    branch = bf.continue_branch(coupling, bf.periodic_grid(2, 16, 8), (0.005, 0.01, 0.02))
    elapsed = time.perf_counter() - start
    for p in branch.points:
        assert p.residual_inf <= 1e-12
        assert p.solvability_inf <= 1e-12
    assert elapsed < 10.0


def test_unresolved_branch_raises_a_solvability_error(periodic_setup):
    # On n = 4 the products of first harmonics land on the Nyquist mode,
    # where the derivatives vanish: the bordered system is solved with
    # nonzero unfolding parameters, and no unbordered solution exists.
    _, coupling = periodic_setup
    with pytest.raises(SolverError, match="unfolding parameters reach .* does not resolve"):
        bf.continue_branch(coupling, bf.periodic_grid(1, 4, 4), (0.005,))


def test_branch_amplitudes_validated(periodic_setup):
    st, coupling = periodic_setup
    with pytest.raises(ModelError, match="at least one"):
        bf.continue_branch(coupling, st, [])
    with pytest.raises(ModelError, match="positive"):
        bf.continue_branch(coupling, st, (1e-3, -1e-3))
    for bad in (np.inf, np.nan):
        with pytest.raises(ModelError, match="finite and positive"):
            bf.continue_branch(coupling, st, (1e-3, bad))


@pytest.mark.parametrize("name", ["fprime1", "cubic", "f1"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_periodic_coupling_rejects_non_finite_coefficients(name, value):
    args = {"fprime1": FPRIME1, "cubic": 1.0, "f1": 0.0, name: value}
    with pytest.raises(ModelError, match=f"{name} must be finite, got {value}"):
        bf.default_periodic_coupling(**args)


@pytest.mark.parametrize("dim, n, n_t", [(1, 16, 16), (2, 8, 8)])
def test_preconditioner_equals_a_build_that_transforms_every_column(dim, n, n_t, periodic_setup):
    # The mass field and the q_j go through the frozen pseudo-inverse once per
    # branch; every build after that transforms only the T column.
    _, coupling = periodic_setup
    st = bf.periodic_grid(dim, n, n_t)
    system = bf._Branch(coupling, st)
    system.target[1] = 0.01
    rng = np.random.default_rng(13)
    ddt = spectral.time_derivative_periodic
    for _ in range(2):
        z = _random_branch_state(system, rng)
        U, M, _, T, _ = system.split(z)
        t_col = np.concatenate([-ddt(st, M), ddt(st, U)], axis=None) / T**2
        _, precond = system.linearize(z, system.evaluate(z))
        oracle = helpers.branch_preconditioner_per_step(system, t_col)
        for _ in range(3):
            r = rng.standard_normal(z.size)
            assert np.array_equal(precond(r), oracle(r))


def test_a_branch_preconditioner_keeps_no_state_between_calls(periodic_setup):
    # The next linearize, at another iterate, builds its own T column image
    # and leaves the action returned before it unchanged.
    _, coupling = periodic_setup
    system = bf._Branch(coupling, bf.periodic_grid(1, 16, 16))
    system.target[1] = 0.01
    rng = np.random.default_rng(14)
    z0, z1 = (_random_branch_state(system, rng) for _ in range(2))
    _, first = system.linearize(z0, system.evaluate(z0))
    r = rng.standard_normal(z0.size)
    before = first(r)
    system.linearize(z1, system.evaluate(z1))
    assert np.array_equal(first(r), before)


def test_a_newton_iterate_evaluates_the_residual_once(monkeypatch, periodic_setup):
    st, coupling = periodic_setup
    calls = []
    residual = bf._residual
    monkeypatch.setattr(bf, "_residual", lambda *args: calls.append(1) or residual(*args))
    system = bf._Branch(coupling, st)
    system.target[1] = 0.002
    K = system.K
    z = np.concatenate([0.002 * system.psi[0], [0.0, TBAR], np.zeros(len(system.psi) - 1)])
    run = _newton_krylov.newton(system, z, bf._BRANCH_TOL, bf._MAX_NEWTON)
    # One evaluation at the start, then one per accepted full step: the stopping
    # norm comes with the rows of the same evaluation.
    assert len(run.krylov) >= 1
    assert len(calls) == 1 + len(run.krylov)
    assert run.ev.norm <= bf._BRANCH_TOL
    # The norm is read on the border rows too: at a new target the pin row,
    # and so the norm, misses by 1e-3.
    system.target[1] = 0.003
    ev = system.evaluate(run.z)
    assert len(calls) == 2 + len(run.krylov)
    assert ev.norm == pytest.approx(1e-3, rel=1e-6)
    assert np.max(np.abs(ev.rows[2 * K :])) == pytest.approx(1e-3, rel=1e-6)


def test_branch_norm_leaves_out_the_unfolding_parameters(periodic_setup):
    # lam enters the bordered rows but not the stopping norm, which is the
    # sup-norm of (G1, G2) and the border rows.
    st, coupling = periodic_setup
    system = bf._Branch(coupling, st)
    system.target[1] = 0.002
    K = system.K
    rng = np.random.default_rng(17)
    z = _random_branch_state(system, rng)
    z[2 * K + 2 :] = rng.standard_normal(len(system.psi) - 1)
    U, M, Hbar, T, lam = system.split(z)
    G1, G2, _, _ = bf._residual(st, coupling, U, M, Hbar, T)
    G = np.concatenate([G1.ravel(), G2.ravel()])
    border = system.rows @ z[: 2 * K] / K - system.target
    ev = system.evaluate(z)
    assert ev.norm == max(np.max(np.abs(G)), np.max(np.abs(border)))
    assert np.array_equal(ev.rows, np.concatenate([G + lam @ system.psi[1:], border]))
    assert ev.norm < np.max(np.abs(ev.rows))


def test_continued_points_take_one_newton_step_on_a_fine_ladder():
    # The even-in-a predictor scales the part of (U, M) off z1, T - T_bar,
    # Hbar and lam by (a / a_prev)^2: an O(a^3) guess. The linear predictor
    # z * (a / a_prev) took 2 steps on every point of this ladder.
    coupling = bf.default_periodic_coupling(FPRIME1, cubic=1.0, f1=0.0)
    amplitudes = (0.002, 0.004, 0.006, 0.008, 0.01)
    branch = bf.continue_branch(coupling, bf.periodic_grid(1, 24, 24), amplitudes)
    assert [p.newton_iterations for p in branch.points[1:]] == [1, 1, 1, 1]
    for p in branch.points:
        assert p.residual_inf <= 1e-12
        assert p.solvability_inf <= 1e-12


def _ladder(lo, hi, k):
    return tuple(np.round(np.linspace(lo, hi, k), 12))


# Eight amplitude ladders per coupling f'(1) / pi^2, and the final period
# each reached with the linear predictor z * (a / a_prev); None marks the
# ladders that stall at the roundoff floor at a = 0.1.
BRANCH_LADDERS = [
    ((1, 16, 16), _ladder(0.002, 0.01, 5)),
    ((1, 24, 24), _ladder(0.002, 0.01, 5)),
    ((1, 32, 32), _ladder(0.05, 0.3, 6)),
    ((1, 64, 64), _ladder(0.025, 0.1, 4)),
    ((2, 8, 8), _ladder(0.002, 0.01, 5)),
    ((2, 16, 8), (0.005, 0.01, 0.02)),
    ((2, 16, 16), _ladder(0.025, 0.1, 4)),
    ((1, 16, 16), _ladder(0.02, 0.1, 5)),
]
LADDER_PERIODS = {
    -6.0: (0.225082124491666, 0.22508212449166576, 0.22798263485565826, None,
           0.2250821244916685, 0.22509126317692768, 0.22538555216032655,
           0.22538555216032638),
    -5.2: (0.29058422769674697, 0.2905842276967464, 0.29866847110404376, None,
           0.29058422769674797, 0.29060939370524863, 0.29142077789876975,
           0.2914207778987697),
    -6.9: (0.18691911246785245, 0.18691911246785203, 0.18799012182954433, None,
           0.18691911246785436, 0.18692244720038795, 0.187029988000268,
           0.1870299880002679),
}


@pytest.mark.parametrize("ratio", sorted(LADDER_PERIODS))
def test_branch_ladders_keep_their_outcomes_and_periods(ratio):
    coupling = bf.default_periodic_coupling(ratio * np.pi**2, cubic=1.0, f1=0.0)
    for ((dim, n, n_t), amplitudes), period in zip(BRANCH_LADDERS, LADDER_PERIODS[ratio]):
        st = bf.periodic_grid(dim, n, n_t)
        if period is None:
            with pytest.raises(SolverError, match="no convergence at amplitude 0.1: the line search"):
                bf.continue_branch(coupling, st, amplitudes)
            continue
        branch = bf.continue_branch(coupling, st, amplitudes)
        assert all(p.residual_inf <= 1e-12 for p in branch.points)
        assert abs(branch.points[-1].state.T - period) <= 1e-12 * period
