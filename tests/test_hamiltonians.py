import numpy as np
import pytest

import helpers
from mfgkit import (
    CongestionHamiltonian,
    Coupling,
    ModelError,
    PositivityError,
    SeparableHamiltonian,
    SpatialTerm,
    TorusGrid,
    check_monotonicity,
)


@pytest.fixture(scope="module")
def g1():
    return TorusGrid((16,))


@pytest.fixture(scope="module")
def g2():
    return TorusGrid((8, 8))


def test_construction_guards():
    with pytest.raises(ModelError, match="gamma must be >= 1"):
        CongestionHamiltonian(Q=(1.0,), alpha=0.5, gamma=0.5)
    with pytest.raises(ModelError, match="alpha = 1"):
        CongestionHamiltonian(Q=(1.0,), alpha=1.0, gamma=2.0)
    with pytest.raises(ModelError, match="alpha must be >= 0"):
        CongestionHamiltonian(Q=(1.0,), alpha=-0.1, gamma=2.0)
    # alpha > 1 is a valid (concave-exponent) model
    CongestionHamiltonian(Q=(1.0,), alpha=2.0, gamma=2.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_coupling_guards_name_the_non_finite_parameter(value):
    with pytest.raises(ModelError, match=r"poly must be finite, got \(0.0, "):
        Coupling(poly=(0.0, value))
    with pytest.raises(ModelError, match=f"amp must be finite, got {value}"):
        SpatialTerm(value, (1,))


def test_congestion_worked_values(g1, g2):
    # Q = 0, p = 0, m = 1, f(m) = m: only the coupling survives
    m1 = CongestionHamiltonian(Q=(0.0,), alpha=0.5, gamma=2.0)
    hv = m1.eval(g1, np.zeros((1, 16)), np.ones(16))
    assert np.max(np.abs(hv.H + 1.0)) < 1e-15
    assert np.max(np.abs(hv.dpH)) == 0.0
    # gamma = 2, alpha = 1/2, Q = (1,0), p = 0, m = 4 -> kinetic part 1/4
    m2 = CongestionHamiltonian(Q=(1.0, 0.0), alpha=0.5, gamma=2.0)
    hv2 = m2.eval(g2, np.zeros((2, 8, 8)), np.full((8, 8), 4.0))
    assert np.max(np.abs(hv2.H - (0.25 - 4.0))) < 1e-14


def test_quadratic_worked_value(g2):
    model = SeparableHamiltonian(Coupling(poly=(0.0,)))
    p = np.zeros((2, 8, 8))
    p[0], p[1] = 3.0, 4.0
    hv = model.eval(g2, p, np.ones((8, 8)))
    assert np.max(np.abs(hv.H - 12.5)) < 1e-14
    assert np.max(np.abs(hv.dpH - p)) < 1e-14


def test_eval_F_H_values(g1):
    sep = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)))
    val, dval = sep.eval_F_H(g1, np.full((1, 16), 2.0), np.ones(16))
    # at m = 1 the coupling term is normalized away: F_H = |p|^2 / 2
    assert np.max(np.abs(val - 2.0)) < 1e-14
    assert np.max(np.abs(dval - 2.0)) < 1e-14
    cong = CongestionHamiltonian(Q=(0.0,), alpha=0.5, gamma=2.0, coupling=Coupling(poly=(0.0,)))
    valc, _ = cong.eval_F_H(g1, np.full((1, 16), 1.0), np.ones(16))
    assert np.max(np.abs(valc - 1.0)) < 1e-14


def test_eval_F_H_derivative_is_consistent(g1):
    model = CongestionHamiltonian(
        Q=(0.3,), alpha=0.5, gamma=3.0, coupling=Coupling(poly=(0.1, 1.0))
    )
    rng = np.random.default_rng(0)
    p = rng.normal(size=(1, 16))
    m = 1.0 + 0.5 * rng.random(16)
    dirn = rng.normal(size=(1, 16))
    _, dval = model.eval_F_H(g1, p, m)
    analytic = float(np.sum(dval * dirn))

    def value_at(t):
        v, _ = model.eval_F_H(g1, p + t * dirn, m)
        return float(np.sum(v))

    fd = helpers.fd_directional(value_at)
    assert abs(fd - analytic) / max(1.0, abs(analytic)) < 1e-9


def test_legendre_values(g1):
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)))
    # L0(q) = |q|^2 / 2; q = 0, m = 2 -> L = f(2) = 2
    L = model.legendre(g1, np.zeros((1, 16)), np.full(16, 2.0))
    assert np.max(np.abs(L - 2.0)) < 1e-14
    L2 = model.legendre(g1, np.full((1, 16), 3.0), np.ones(16))
    assert np.max(np.abs(L2 - (4.5 + 1.0))) < 1e-14


def test_fenchel_young_against_sup_oracle(g1):
    """legendre() against an independent p-grid sup on 100 samples."""
    rng = np.random.default_rng(1)
    for model, Q, alpha, gamma in (
        (SeparableHamiltonian(Coupling(poly=(0.2, 1.0))), (0.0,), 0.0, 2.0),
        (
            CongestionHamiltonian(
                Q=(0.8,), alpha=0.5, gamma=2.0, coupling=Coupling(poly=(0.0, 1.0))
            ),
            (0.8,),
            0.5,
            2.0,
        ),
        (
            CongestionHamiltonian(
                Q=(0.5,), alpha=0.25, gamma=3.0, coupling=Coupling(poly=(0.0, 1.0))
            ),
            (0.5,),
            0.25,
            3.0,
        ),
    ):
        q = rng.normal(scale=1.5, size=(1, 100))
        m = 0.3 + 2.0 * rng.random(100)
        fvals = helpers.coupling_f_values(model.coupling.poly, 0.0, m)
        oracle = helpers.legendre_oracle(Q, alpha, gamma, q, m, fvals)
        # library evaluation: pack the samples onto grid nodes (the
        # couplings above carry no explicit x-dependence)
        grid = TorusGrid((100,))
        lib = model.legendre(grid, q.reshape(1, 100), m)
        assert np.max(np.abs(lib - oracle)) < 1e-8


def test_fenchel_young_inequality(g1):
    model = CongestionHamiltonian(
        Q=(0.5,), alpha=0.5, gamma=2.0, coupling=Coupling(poly=(0.0, 1.0))
    )
    rng = np.random.default_rng(2)
    p = rng.normal(size=(1, 16))
    q = rng.normal(size=(1, 16))
    m = 0.5 + rng.random(16)
    H = model.eval(g1, p, m).H
    L = model.legendre(g1, q, m)
    assert np.all(L + H - np.sum(p * q, axis=0) > -1e-12)


def test_eval_derivatives_match_finite_differences(g1):
    model = CongestionHamiltonian(
        Q=(0.7,),
        alpha=0.5,
        gamma=2.5,
        coupling=Coupling(poly=(0.0, 1.0, 0.3), terms=(SpatialTerm(0.1, (1,)),)),
    )
    rng = np.random.default_rng(3)
    p = rng.normal(size=(1, 16))
    m = 0.5 + rng.random(16)
    hv = model.eval(g1, p, m)
    h = 1e-5
    dp_fd = (model.eval(g1, p + h, m).H - model.eval(g1, p - h, m).H) / (2 * h)
    dm_fd = (model.eval(g1, p, m + h).H - model.eval(g1, p, m - h).H) / (2 * h)
    assert np.max(np.abs(dp_fd - hv.dpH[0])) < 1e-6
    assert np.max(np.abs(dm_fd - hv.dmH)) < 1e-6


def test_hamiltonian_against_restated_definition(g1):
    model = CongestionHamiltonian(
        Q=(0.4,),
        alpha=0.3,
        gamma=2.0,
        coupling=Coupling(poly=(0.0, 1.0), terms=(SpatialTerm(0.2, (1,)),)),
    )
    rng = np.random.default_rng(4)
    p = rng.normal(size=(1, 16))
    m = 0.5 + rng.random(16)
    x = np.arange(16) / 16
    spatial = 0.2 * np.cos(2 * np.pi * x)
    fvals = helpers.coupling_f_values((0.0, 1.0), spatial, m)
    expected = helpers.hamiltonian_values((0.4,), 0.3, 2.0, p, m, fvals)
    assert np.max(np.abs(model.eval(g1, p, m).H - expected)) < 1e-13


def test_density_floor(g1):
    model = CongestionHamiltonian(Q=(1.0,), alpha=0.5, gamma=2.0)
    with pytest.raises(PositivityError, match="below the evaluation floor"):
        model.eval(g1, np.zeros((1, 16)), np.full(16, 1e-12))


def test_separable_model_evaluates_below_the_floor(g1):
    # Every separable term is polynomial in m: no floor applies.
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0, 0.5)))
    p = np.full((1, 16), 0.5)
    m = np.full(16, -0.25)
    hv = model.eval(g1, p, m)
    assert np.all(hv.H == 0.125 - (-0.25 + 0.5 * 0.0625))
    assert np.all(hv.dmH == -(1.0 - 0.25))
    FH, dpFH = model.eval_F_H(g1, p, m)
    assert np.all(np.isfinite(FH)) and np.all(dpFH == -0.125)
    assert np.all(np.isfinite(model.legendre(g1, p, m)))


def test_drift_dimension_mismatch(g1):
    model = CongestionHamiltonian(Q=(1.0, 0.0), alpha=0.5, gamma=2.0)
    with pytest.raises(ModelError, match="components"):
        model.eval(g1, np.zeros((1, 16)), np.ones(16))


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_flux_and_momentum_are_inverse(g2, gamma):
    model = CongestionHamiltonian(Q=(0.7, -0.4), alpha=0.5, gamma=gamma)
    rng = np.random.default_rng(11)
    m = rng.uniform(0.5, 1.5, (8, 8))
    p, w = rng.standard_normal((2, 2, 8, 8))
    back_p = model.momentum(model.flux(p, m), m)
    back_w = model.flux(model.momentum(w, m), m)
    assert np.max(np.abs(back_p - p)) <= 1e-12 * np.max(np.abs(p))
    assert np.max(np.abs(back_w - w)) <= 1e-12 * np.max(np.abs(w))


def test_coupling_normalization_and_derivatives(g1):
    coupling = Coupling(poly=(0.3, 1.0, 0.2), terms=(SpatialTerm(0.1, (1,), kind="sin"),))
    assert np.max(np.abs(coupling.F(g1, np.ones(16)))) == 0.0
    rng = np.random.default_rng(5)
    m = 0.5 + rng.random(16)
    h = 1e-5
    f_fd = (coupling.F(g1, m + h) - coupling.F(g1, m - h)) / (2 * h)
    assert np.max(np.abs(f_fd - coupling.f(g1, m))) < 1e-9
    df_fd = (coupling.f(g1, m + h) - coupling.f(g1, m - h)) / (2 * h)
    assert np.max(np.abs(df_fd - coupling.df_dm(g1, m))) < 1e-9


def test_coupling_derivatives_broadcast_to_the_grid(g1):
    # The same bits as p'(m), p''(m) on array densities, and a scalar
    # density fills the grid.
    coupling = Coupling(poly=(0.3, 1.0, 0.2, -0.4))
    m = 0.5 + np.random.default_rng(9).random((3, 16))
    pv = np.polynomial.polynomial
    p1 = pv.polyder(coupling.poly)
    assert np.array_equal(coupling.df_dm(g1, m), pv.polyval(m, p1))
    assert np.array_equal(coupling.d2f_dm2(g1, m), pv.polyval(m, pv.polyder(p1)))
    assert coupling.df_dm(g1, 1.5).shape == g1.shape
    assert np.all(coupling.d2f_dm2(g1, 1.5) == pv.polyval(1.5, pv.polyder(p1)))


def test_conjugate_against_sup_oracle(g1):
    coupling = Coupling(poly=(0.2, 1.0, 0.5), terms=(SpatialTerm(0.1, (1,)),))
    rng = np.random.default_rng(6)
    w = rng.uniform(0.5, 4.0, size=16)
    x = np.arange(16) / 16
    spatial = 0.1 * np.cos(2 * np.pi * x)
    oracle = helpers.conjugate_oracle((0.2, 1.0, 0.5), spatial, w)
    assert np.max(np.abs(coupling.conjugate(g1, w) - oracle)) < 1e-8


def test_monotonicity_report_flags_decreasing_coupling(g1):
    good = SeparableHamiltonian(Coupling(poly=(0.0, 1.0)))
    rep = check_monotonicity(good, g1)
    assert rep.min_eig_pp >= 0.0
    assert rep.max_dm_h <= 1e-12
    assert rep.min_eig_block >= -1e-12
    assert rep.n_samples > 0
    bad = SeparableHamiltonian(Coupling(poly=(0.0, -1.0)))
    rep_bad = check_monotonicity(bad, g1)
    assert rep_bad.max_dm_h > 0.0


def test_separable_kinetic_part_is_quadratic(g1):
    # f = 0 isolates H0(p) = |p|^2 / 2 and its conjugate L0(q) = |q|^2 / 2.
    model = SeparableHamiltonian(Coupling(poly=(0.0,)))
    p, m = np.array([[3.0], [4.0]]), np.ones(16)
    vals = model.eval(g1, p, m)
    assert vals.H[0] == 12.5
    assert np.array_equal(vals.dpH, p)
    assert model.legendre(g1, p, m)[0] == 12.5
    hess = model.hess_pp(g1, p, m)
    assert hess.shape[:2] == (2, 2)
    assert np.allclose(hess[:, :, 0], np.eye(2))


def test_coupling_spatial_is_built_once_per_grid_and_read_only(g1, g2):
    coupling = Coupling(terms=(SpatialTerm(0.2, (1,)),))
    s = coupling.spatial(g1)
    assert s is coupling.spatial(g1) and s is coupling.spatial(TorusGrid((16,)))
    assert coupling.spatial(TorusGrid((32,))) is not s
    assert not s.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        s[0] = 1.0
    plain = Coupling().spatial(g2)
    assert np.array_equal(plain, np.zeros(g2.shape)) and not plain.flags.writeable


def test_coupling_F_keeps_the_per_call_normalization_bits(g1):
    # P(1) is taken once at construction; F must equal the expression that
    # evaluated it on every call, bit for bit, and vanish exactly at m = 1.
    poly = (0.3, -1.7, 0.25, 0.9)
    coupling = Coupling(poly=poly, terms=(SpatialTerm(-0.4, (2,), kind="sin"),))
    pv, antider = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyint(poly)
    rng = np.random.default_rng(11)
    for m in (0.1 + 3.0 * rng.random(16), 0.1 + 3.0 * rng.random((5, 16)), 0.7):
        per_call = (pv(m, antider) - pv(1.0, antider)) + coupling.spatial(g1) * (m - 1.0)
        assert np.array_equal(coupling.F(g1, m), per_call)
    assert np.all(coupling.F(g1, 1) == 0.0)
