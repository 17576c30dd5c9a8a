"""Finite-horizon solves on steep data: a 32-case sweep.

f = m + 0.3 cos 2 pi x, m0 = 1 + 0.5 cos 2 pi x and
uT = amp (sin 2 pi x + 0.5 cos 4 pi x), with x the first coordinate, over
1-D 32 x 16 and 2-D 12^2 x 8, eps 0.1 and 0.3, amp 1 and 3, horizon 1 and
3, equilibrium and planner, at the default tol and Newton budget. Each
case must end certified or in a typed error (PositivityError or
SolverError), never in any other exception, and must end the same way
through ``mfgkit solve-mfg``/``solve-mfc`` on the equivalent config.
"""

import itertools
import json

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
from mfgkit import cli
from mfgkit.hamiltonians import M_FLOOR

GRIDS = {"1d-32x16": ((32,), 16), "2d-12x12x8": ((12, 12), 8)}
CASES = list(itertools.product(GRIDS, (0.1, 0.3), (1.0, 3.0), (1.0, 3.0), (False, True)))
IDS = [
    f"{g}-eps{e}-amp{a:g}-T{h:g}-{'planner' if p else 'equilibrium'}" for g, e, a, h, p in CASES
]


def steep_problem(shape, n_t, amp, horizon):
    sp = TorusGrid(shape)
    x = sp.coords[0]
    k1 = (1,) + (0,) * (len(shape) - 1)
    model = SeparableHamiltonian(Coupling(poly=(0.0, 1.0), terms=(SpatialTerm(0.3, k1),)))
    m0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    uT = amp * (np.sin(2.0 * np.pi * x) + 0.5 * np.cos(4.0 * np.pi * x))
    return model, SpaceTimeGrid(sp, n_t, horizon), m0, uT


@pytest.mark.parametrize("grid, eps, amp, horizon, planner", CASES, ids=IDS)
def test_steep_case_ends_certified_or_typed(grid, eps, amp, horizon, planner):
    shape, n_t = GRIDS[grid]
    model, st, m0, uT = steep_problem(shape, n_t, amp, horizon)
    solver = solve_mfc if planner else solve_mfg
    try:
        res = solver(model, st, m0, uT, eps=eps)
    except (PositivityError, SolverError):
        return
    assert res.residual_inf <= 1e-9
    assert res.min_m >= M_FLOOR
    assert res.psi1_dm_inf <= 1e-7
    assert res.psi2_du_inf <= 1e-7


def steep_config(shape, n_t, eps, amp, horizon):
    """The config of :func:`steep_problem`: its modes point along the first axis."""
    d = len(shape)

    def mode(a, k, kind):
        return {"amp": a, "k": [k] + [0] * (d - 1), "kind": kind}

    return {
        "model": {"kind": "separable", "f_poly": [0.0, 1.0], "f_spatial": [mode(0.3, 1, "cos")]},
        "grid": {"dim": d, "n": shape[0], "n_t": n_t, "horizon": horizon},
        "eps": eps,
        "initial": {
            "m0": {"base": 1.0, "modes": [mode(0.5, 1, "cos")]},
            "uT": {"modes": [mode(amp, 1, "sin"), mode(0.5 * amp, 2, "cos")]},
        },
    }


@pytest.mark.parametrize("grid, eps, amp, horizon, planner", CASES, ids=IDS)
def test_steep_case_ends_the_same_through_the_cli(
    tmp_path, capsys, grid, eps, amp, horizon, planner
):
    shape, n_t = GRIDS[grid]
    cfg = steep_config(shape, n_t, eps, amp, horizon)
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(dict(cfg, output_dir=str(tmp_path / "out"))))
    model, st, m0, uT, cfg_eps, solve = cli._separable_problem(cli.load_config(str(path)), "")
    ref_model, ref_st, ref_m0, ref_uT = steep_problem(shape, n_t, amp, horizon)
    assert model == ref_model and st == ref_st and cfg_eps == eps
    assert np.max(np.abs(m0 - ref_m0)) <= 1e-15 and np.max(np.abs(uT - ref_uT)) <= 1e-14
    argv = ["solve-mfc" if planner else "solve-mfg", str(path)]
    try:
        res = solve(planner)
    except (PositivityError, SolverError) as exc:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {exc}\n"
        return
    assert cli.main(argv) == 0
    payload = json.loads((tmp_path / "out" / "result.json").read_text())
    assert payload["newton_iterations"] == res.newton_iterations
    assert payload["residual_inf"] == res.residual_inf <= 1e-9
