"""Finite-horizon solves on steep data: a 32-case sweep.

f = m + 0.3 cos 2 pi x, m0 = 1 + 0.5 cos 2 pi x and
uT = amp (sin 2 pi x + 0.5 cos 4 pi x), with x the first coordinate, over
1-D 32 x 16 and 2-D 12^2 x 8, eps 0.1 and 0.3, amp 1 and 3, horizon 1 and
3, equilibrium and planner, at the default tol and Newton budget. Each
case must end certified or in a typed error (PositivityError or
SolverError), never in any other exception.
"""

import itertools

import numpy as np
import pytest

from mfgkit import (
    Coupling,
    PositivityError,
    SeparableHamiltonian,
    SolverError,
    SpaceTimeGrid,
    SpatialTerm,
    TorusGrid,
    solve_mfc,
    solve_mfg,
)

GRIDS = {"1d-32x16": ((32,), 16), "2d-12x12x8": ((12, 12), 8)}
CASES = list(itertools.product(GRIDS, (0.1, 0.3), (1.0, 3.0), (1.0, 3.0), (False, True)))


def steep_problem(shape, n_t, amp, horizon):
    sp = TorusGrid(shape)
    x = sp.coords[0]
    k1 = (1,) + (0,) * (len(shape) - 1)
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0), terms=(SpatialTerm(0.3, k1),)))
    m0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    uT = amp * (np.sin(2.0 * np.pi * x) + 0.5 * np.cos(4.0 * np.pi * x))
    return model, SpaceTimeGrid(sp, n_t, horizon), m0, uT


@pytest.mark.parametrize(
    "grid, eps, amp, horizon, planner",
    CASES,
    ids=[
        f"{g}-eps{e}-amp{a:g}-T{h:g}-{'planner' if p else 'equilibrium'}"
        for g, e, a, h, p in CASES
    ],
)
def test_steep_case_ends_certified_or_typed(grid, eps, amp, horizon, planner):
    shape, n_t = GRIDS[grid]
    model, st, m0, uT = steep_problem(shape, n_t, amp, horizon)
    solver = solve_mfc if planner else solve_mfg
    try:
        res = solver(model, st, m0, uT, eps=eps)
    except (PositivityError, SolverError):
        return
    assert res.residual_inf <= 1e-9
    assert res.min_m >= model.m_min
    assert res.psi1_dm_inf <= 1e-7
    assert res.psi2_du_inf <= 1e-7


@pytest.mark.parametrize(
    "grid, eps, amp, horizon, planner",
    CASES,
    ids=[
        f"{g}-eps{e}-amp{a:g}-T{h:g}-{'planner' if p else 'equilibrium'}"
        for g, e, a, h, p in CASES
    ],
)
def test_steep_case_ends_certified_or_typed_in_inexact_newton(grid, eps, amp, horizon, planner):
    shape, n_t = GRIDS[grid]
    model, st, m0, uT = steep_problem(shape, n_t, amp, horizon)
    solver = solve_mfc if planner else solve_mfg
    try:
        res = solver(model, st, m0, uT, eps=eps, inexact=True)
    except (PositivityError, SolverError):
        return
    assert res.residual_inf <= 1e-9
    assert res.min_m >= model.m_min
    assert res.psi1_dm_inf <= 1e-7
    assert res.psi2_du_inf <= 1e-7
