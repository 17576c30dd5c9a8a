"""Command-line interface: exit codes, payloads, determinism."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import mfgkit.cli as cli
from mfgkit import config, dynamics, functionals, stationary
from mfgkit.errors import ConfigError
from mfgkit.fields import load_field


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main([str(a) for a in args])


SEP_CFG = {
    "model": {"kind": "separable", "f_poly": [0.0, 1.0]},
    "grid": {"dim": 1, "n": 16, "n_t": 8, "horizon": 0.25},
    "initial": {
        "m0": {"base": 1.0, "modes": [{"amp": 0.1, "k": [1], "kind": "cos"}]},
        "uT": {"base": 0.0, "modes": [{"amp": 0.05, "k": [1], "kind": "sin"}]},
    },
    "solver": {"tol": 1e-10},
}

CONG_CFG = {
    "model": {
        "kind": "congestion",
        "Q": [1.0],
        "alpha": 0.5,
        "gamma": 2.0,
        "f_poly": [0.0, 1.0],
        "f_spatial": [{"amp": 0.1, "k": [1], "kind": "cos"}],
    },
    "grid": {"dim": 1, "n": 32},
    "solver": {"tol": 1e-10},
}


def test_report_uniform_state(tmp_path):
    cfg = write_cfg(tmp_path, "r.json", {
        "model": {"kind": "separable", "f_poly": [0.0, 1.0]},
        "grid": {"dim": 1, "n": 16},
        "output_dir": str(tmp_path / "out"),
    })
    assert run(["report", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    # At m = 1, u = 0 the mH-form value is -f(1) = -1 for f = m.
    assert payload["uniform_state"]["psi2_hat"] == pytest.approx(-1.0, abs=1e-12)
    assert payload["uniform_state"]["hbar_candidate"] == payload["uniform_state"]["psi2_hat"]
    assert payload["monotonicity"]["max_dm_h"] <= 0.0


def test_invalid_gamma_exits_two(tmp_path, capsys):
    bad = dict(CONG_CFG, model=dict(CONG_CFG["model"], gamma=0.5))
    cfg = write_cfg(tmp_path, "bad.json", dict(bad, output_dir=str(tmp_path / "o")))
    assert run(["report", cfg]) == 2
    err = capsys.readouterr().err
    assert "requires gamma > 1" in err and "(got 0.5)" in err


def test_invalid_formulation_exits_two(tmp_path, capsys):
    bad = dict(CONG_CFG, solver={"formulation": "psm"}, output_dir=str(tmp_path / "o"))
    cfg = write_cfg(tmp_path, "bad.json", bad)
    assert run(["solve-stationary", cfg]) == 2
    err = capsys.readouterr().err
    assert "'solver.formulation' must be one of" in err


def test_unknown_key_exits_two(tmp_path, capsys):
    # The retired keys solver.w_reg, solver.barrier_stages, solver.max_iter
    # and task are unknown keys like any typo.
    for name, cfg_dict, command, message in (
        ("bad.json", dict(SEP_CFG, fpoly=[1.0]), "report", "unknown key 'fpoly'"),
        ("w_reg.json", _with(CONG_CFG, "solver.w_reg", 1e-3), "solve-stationary",
         "unknown key 'w_reg' in 'solver'"),
        ("barrier.json", _with(CONG_CFG, "solver.barrier_stages", [0.1]), "solve-stationary",
         "unknown key 'barrier_stages' in 'solver'"),
        ("max_iter.json", _with(CONG_CFG, "solver.max_iter", 50000), "solve-stationary",
         "unknown key 'max_iter' in 'solver'"),
        ("task.json", dict(CONG_CFG, task="solve-stationary"), "solve-stationary",
         "unknown key 'task' in the config root"),
    ):
        out = tmp_path / name.removesuffix(".json")
        cfg = write_cfg(tmp_path, name, dict(cfg_dict, output_dir=str(out)))
        assert run([command, cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "result.json").exists()


def test_solve_stationary_routes(tmp_path):
    out = tmp_path / "bb"
    cfg = write_cfg(tmp_path, "c.json", dict(CONG_CFG, output_dir=str(out)))
    assert run(["solve-stationary", cfg]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["route"] == "bb"
    assert payload["residual_hjb_inf"] <= 1e-6
    assert abs(payload["duality_gap"]) <= 1e-6
    for fname in ("m.field", "u.field", "w.field"):
        assert (out / fname).exists()

    pot = dict(CONG_CFG, output_dir=str(tmp_path / "pot"))
    pot["model"] = dict(pot["model"], alpha=1.5)
    cfg = write_cfg(tmp_path, "p.json", pot)
    assert run(["solve-stationary", cfg]) == 0
    payload = json.loads((tmp_path / "pot" / "result.json").read_text())
    assert payload["route"] == "potential"
    assert payload["residual_hjb_inf"] <= 1e-6


def stream_cfg(Q, alpha, gamma, f_spatial, n):
    model = {
        "kind": "congestion", "Q": Q, "alpha": alpha, "gamma": gamma,
        "f_poly": [0.0, 1.0], "f_spatial": f_spatial,
    }
    return {"model": model, "grid": {"dim": 2, "n": n}, "solver": {"formulation": "stream2d"}}


# Stream instances whose descent stalls above the default tol of 1e-9 (the
# conftest 2-D instance on 8^2) or whose hand-off flux has a solenoidal
# residual above 1e-6 (the 16^2 instance); the polish certifies all three.
STALLING_STREAM_CFGS = {
    "conftest-8x8": stream_cfg([1.0, 0.0], 0.5, 2.0, [{"amp": 0.1, "k": [1, 0], "kind": "cos"}], 8),
    "32x32": stream_cfg(
        [-0.9949446508000014, -0.034413235149745036], 0.20359275663536125, 1.853531074728838,
        [
            {"amp": -0.05150060954141253, "k": [-2, 3], "kind": "sin"},
            {"amp": 0.1785307930944081, "k": [2, -2], "kind": "cos"},
            {"amp": 0.27517409912371654, "k": [1, 3], "kind": "sin"},
        ],
        [32, 32],
    ),
    "16x16-curl": stream_cfg(
        [0.49546307014830315, 0.7603349123761074], 0.3140376825390941, 1.8097870761148556,
        [
            {"amp": -0.15544618271909702, "k": [-1, -3], "kind": "cos"},
            {"amp": 0.08711141967383984, "k": [-2, 1], "kind": "cos"},
            {"amp": 0.15419547097132102, "k": [-2, 2], "kind": "cos"},
        ],
        [16, 16],
    ),
}


@pytest.mark.parametrize("name", sorted(STALLING_STREAM_CFGS))
def test_stream_instances_certify_through_the_polish(tmp_path, name):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "s.json", dict(STALLING_STREAM_CFGS[name], output_dir=str(out)))
    assert run(["solve-stationary", cfg]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["residual_hjb_inf"] <= 1e-9
    assert payload["residual_fp_inf"] <= 1e-9
    assert payload["hbar_crosscheck_gap"] <= 1e-9
    assert abs(payload["duality_gap"]) <= 1e-9
    assert payload["grad_inf"] <= stationary.HANDOFF_TOL
    assert payload["krylov_iterations"] >= payload["newton_iterations"] >= 0
    assert payload["handoff_curl_inf"] >= 0.0
    if name == "16x16-curl":
        assert payload["handoff_curl_inf"] > 1e-6
        assert payload["newton_iterations"] > 0


# A 1-D flux instance with Q and the spatial forcing scaled up fourfold: a
# descent to a projected gradient of 1e-7 stalls at a floor of 1.1e-7 and
# exits 1; from the hand-off the polish certifies it at the default tol.
STRONG_FLUX_CFG = {
    "model": {
        "kind": "congestion", "Q": [3.655830556919483], "alpha": 0.7199281345560515,
        "gamma": 2.2195403846630612, "f_poly": [0.0, 1.0],
        "f_spatial": [
            {"amp": -0.7450951351638174, "k": [-1], "kind": "sin"},
            {"amp": 1.0626034866327634, "k": [-3], "kind": "sin"},
        ],
    },
    "grid": {"dim": 1, "n": [64]},
}


def test_strong_flux_instance_certifies_at_the_default_tol(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "strong.json", dict(STRONG_FLUX_CFG, output_dir=str(out)))
    assert run(["solve-stationary", cfg]) == 0
    payload = json.loads((out / "result.json").read_text())
    for key in ("residual_hjb_inf", "residual_fp_inf", "hbar_crosscheck_gap"):
        assert payload[key] <= 1e-9
    assert abs(payload["duality_gap"]) <= 1e-9
    assert payload["newton_iterations"] >= 1


# Stationary pool op 1 of the benchmark (2-D 32^2, flux route); pool op 38 is
# the 16x16-curl stream instance above. At solver.tol 1e-11 the polish's last
# steps start from residuals near the matvec's roundoff, where a fixed GMRES
# tolerance of a relative 1e-6 cannot be met (both missed it at Newton step
# 3). The forcing terms are floored at tol / (2 |F|), so no step asks for
# more than the Newton test needs.
POOL_OP1_CFG = {
    "model": {
        "kind": "congestion", "Q": [-0.3229315655628493, -0.36049197515973974],
        "alpha": 0.4406716982429118, "gamma": 1.8421977297715744, "f_poly": [0.0, 1.0],
        "f_spatial": [
            {"amp": -0.26859846023959627, "k": [-3, 2], "kind": "sin"},
            {"amp": 0.24336861091922662, "k": [2, -3], "kind": "cos"},
            {"amp": 0.03130504345538615, "k": [-3, 3], "kind": "cos"},
        ],
    },
    "grid": {"dim": 2, "n": [32, 32]},
    "solver": {"formulation": "bb"},
}


@pytest.mark.parametrize(
    "cfg", [POOL_OP1_CFG, STALLING_STREAM_CFGS["16x16-curl"]], ids=["op1-bb", "op38-stream2d"]
)
def test_polish_certifies_at_a_tight_tol(tmp_path, cfg):
    out = tmp_path / "out"
    cfg = dict(cfg, solver=dict(cfg["solver"], tol=1e-11), output_dir=str(out))
    assert run(["solve-stationary", write_cfg(tmp_path, "tight.json", cfg)]) == 0
    payload = json.loads((out / "result.json").read_text())
    for key in ("residual_hjb_inf", "residual_fp_inf", "hbar_crosscheck_gap"):
        assert payload[key] <= 1e-11
    m = load_field(out / "m.field").values
    assert abs(float(np.mean(m)) - 1.0) <= 1e-11
    assert payload["newton_iterations"] > 0


# Every number of a stationary solve appears once in its payload: the
# density's mass and minimum are read from m.field and m_min, psi1_hat's
# value is duality_gap - value, and the returned flux is a gradient flux by
# construction (see test_stationary's gradient-flux test).
STATIONARY_KEYS = {
    "route", "hbar", "value", "iterations", "grad_inf", "newton_iterations",
    "krylov_iterations", "handoff_curl_inf", "duality_gap", "hbar_crosscheck_gap",
    "residual_hjb_inf", "residual_fp_inf", "m_min", "m_max",
}


@pytest.mark.parametrize(
    "cfg",
    [
        CONG_CFG,
        STALLING_STREAM_CFGS["conftest-8x8"],
        dict(CONG_CFG, model=dict(CONG_CFG["model"], alpha=1.5)),
    ],
    ids=["bb", "stream2d", "potential"],
)
def test_solve_stationary_payload_keys(tmp_path, capsys, cfg):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "s.json", dict(cfg, output_dir=str(out)))
    assert run(["solve-stationary", path]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert set(payload) == STATIONARY_KEYS
    assert json.loads(capsys.readouterr().out) == payload
    assert sorted(p.name for p in out.iterdir()) == ["m.field", "result.json", "u.field", "w.field"]


def test_crosscheck_follows_the_configured_route(tmp_path):
    # alpha > 1 has only the potential route; crosscheck must pick it as
    # solve-stationary does, not fall back to the flux route.
    cfg_dict = dict(CONG_CFG, output_dir=str(tmp_path / "x"))
    cfg_dict["model"] = dict(CONG_CFG["model"], alpha=1.5)
    cfg = write_cfg(tmp_path, "x.json", cfg_dict)
    assert run(["solve-stationary", cfg]) == 0
    assert run(["crosscheck", cfg]) == 0
    payload = json.loads((tmp_path / "x" / "crosscheck.json").read_text())
    assert payload["all_pass"] is True


GAMMA1_CFG = dict(
    CONG_CFG,
    model=dict(CONG_CFG["model"], gamma=1.0),
    solver={"tol": 1e-10},
)


def _no_descent(*args, **kwargs):
    raise AssertionError("a descent ran before gamma = 1 was rejected")


# Every command that reads a congestion model: report, solve-stationary on
# each formulation, and crosscheck on each check list (absent runs them all).
GAMMA1_RUNS = [
    pytest.param("report", {}, 1, id="report"),
    *(
        pytest.param("solve-stationary", {"solver": {"formulation": f}}, dim, id=f"solve-{f}")
        for f, dim in (("bb", 1), ("stream2d", 2), ("potential", 1), ("auto", 1))
    ),
    pytest.param("crosscheck", {}, 1, id="crosscheck-all"),
    *(
        pytest.param("crosscheck", {"checks": c}, 1, id="crosscheck-" + "-".join(c))
        for c in (["transforms"], ["hbar"], ["duality", "hbar"], ["hbar", "duality"])
    ),
]


@pytest.mark.parametrize("command, extra, dim", GAMMA1_RUNS)
def test_gamma_one_exits_two_before_any_solve(
    tmp_path, capsys, monkeypatch, solvers_forbidden, command, extra, dim
):
    # The model rejects gamma = 1 when it is built, so no command reaches a
    # descent, a solve or an artifact.
    monkeypatch.setattr(stationary, "_descend", _no_descent)
    out = tmp_path / "g1"
    model = dict(GAMMA1_CFG["model"], Q=[1.0] * dim)
    model["f_spatial"] = [{"amp": 0.1, "k": [1] + [0] * (dim - 1), "kind": "cos"}]
    cfg = dict(GAMMA1_CFG, model=model, grid={"dim": dim, "n": 8}, output_dir=str(out), **extra)
    assert run([command, write_cfg(tmp_path, "g1.json", cfg)]) == 2
    assert "requires gamma > 1" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_solve_mfg_payload_reports_the_library_solve(tmp_path):
    out = tmp_path / "mfg"
    cfg = write_cfg(tmp_path, "m.json", dict(SEP_CFG, output_dir=str(out)))
    assert run(["solve-mfg", cfg]) == 0
    payload = json.loads((out / "result.json").read_text())
    model, st, m0, uT, eps, _ = cli._separable_problem(cli.load_config(cfg), "")
    res = cli.solve_mfg(model, st, m0, uT, eps=eps, tol=SEP_CFG["solver"]["tol"])
    assert payload["newton_iterations"] == res.newton_iterations
    assert payload["krylov_iterations"] == sum(res.krylov_iterations)
    assert payload["residual_inf"] == res.residual_inf


@pytest.mark.parametrize(
    "command, solves",
    [("solve-mfg", 1), ("solve-mfc", 1), ("compare", 2), ("duality-crosscheck", 1)],
)
def test_each_payoff_is_evaluated_once_per_solved_state(tmp_path, monkeypatch, command, solves):
    # The solve evaluates psi1 and psi2 at its state; the payload, the
    # comparison and the saddle checks read those values.
    seen, report = [], functionals._dynamic_report

    def counting(state, model, which, *slabs):
        seen.append((state, which))
        return report(state, model, which, *slabs)

    monkeypatch.setattr(functionals, "_dynamic_report", counting)
    cfg = write_cfg(tmp_path, "c.json", SEP_CFG)
    assert run([command, cfg, "--output-dir", tmp_path / "o"]) == 0
    keys = [(id(state), which) for state, which in seen]
    assert len(keys) == len(set(keys)) == 2 * solves


def test_solve_mfg_and_compare(tmp_path):
    out = tmp_path / "mfg"
    cfg = write_cfg(tmp_path, "m.json", dict(SEP_CFG, output_dir=str(out)))
    assert run(["solve-mfg", cfg]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["problem"] == "equilibrium"
    assert payload["residual_inf"] <= 1e-10
    assert payload["krylov_iterations"] >= payload["newton_iterations"] > 0
    assert payload["cost_identity_gap"] <= 1e-10
    assert (out / "m.field").exists()

    out2 = tmp_path / "cmp"
    cfg = write_cfg(tmp_path, "c.json", dict(SEP_CFG, output_dir=str(out2)))
    assert run(["compare", cfg]) == 0
    payload = json.loads((out2 / "result.json").read_text())
    assert set(payload) == {
        "psi2_equilibrium", "psi2_planner", "gap", "ordered", "equilibrium", "planner"
    }
    assert payload["ordered"] is True
    assert payload["psi2_equilibrium"] <= payload["psi2_planner"] + 1e-8
    assert payload["gap"] == payload["psi2_planner"] - payload["psi2_equilibrium"]
    for side in ("equilibrium", "planner"):
        assert set(payload[side]) == {"newton_iterations", "residual_inf"}
        assert payload[side]["residual_inf"] <= 1e-10


def test_every_dynamic_command_keeps_the_newton_budget(tmp_path, capsys, monkeypatch):
    # One Newton step is too few at this tol: every command that solves
    # must fail alike.
    monkeypatch.setattr(dynamics, "NEWTON_STEPS", 1)
    cfg = write_cfg(tmp_path, "n1.json", SEP_CFG)
    for command in ("solve-mfg", "solve-mfc", "compare", "crosscheck", "duality-crosscheck"):
        assert run([command, cfg, "--output-dir", tmp_path / command]) == 1, command
        assert "no convergence" in capsys.readouterr().err


def test_negative_node_density_fails_every_dynamic_command(tmp_path, capsys):
    # The steep case of test_dynamics: Newton converges to node densities
    # down to -0.12, which no command may certify.
    steep = {
        "eps": 0.3,
        "model": {"kind": "separable", "f_poly": [0.0, 1.0],
                  "f_spatial": [{"amp": 0.3, "k": [1], "kind": "cos"}]},
        "grid": {"dim": 1, "n": 32, "n_t": 16, "horizon": 1.0},
        "initial": {
            "m0": {"base": 1.0, "modes": [{"amp": 0.5, "k": [1], "kind": "cos"}]},
            "uT": {"base": 0.0, "modes": [{"amp": 1.0, "k": [1], "kind": "sin"},
                                          {"amp": 0.5, "k": [2], "kind": "cos"}]},
        },
    }
    cfg = write_cfg(tmp_path, "steep.json", steep)
    for command in ("solve-mfg", "compare", "crosscheck", "duality-crosscheck"):
        assert run([command, cfg, "--output-dir", tmp_path / command]) == 1, command
        assert "below the floor" in capsys.readouterr().err


def test_crosscheck_passes_and_fails(tmp_path, capsys, monkeypatch):
    out = tmp_path / "ok"
    cfg = write_cfg(tmp_path, "k.json", dict(SEP_CFG, seed=3, output_dir=str(out)))
    assert run(["crosscheck", cfg]) == 0
    payload = json.loads((out / "crosscheck.json").read_text())
    assert payload["all_pass"] is True
    assert {e["name"] for e in payload["checks"]} >= {"duality:cost", "mass:slices"}

    # A broken identity must flip the exit code to 3.
    monkeypatch.setattr(cli, "social_cost", lambda state, model: 123.0)
    out_bad = tmp_path / "bad"
    cfg = write_cfg(tmp_path, "kb.json", dict(SEP_CFG, seed=3, output_dir=str(out_bad)))
    assert run(["crosscheck", cfg]) == 3
    assert "checks failed" in capsys.readouterr().err


def test_congestion_crosscheck_scores_a_curl_defect(tmp_path, capsys, monkeypatch):
    # A flux with solenoidal content must be scored by transforms:curl (exit
    # 3 with a verdict), not stop the crosscheck with a CurlError (exit 1).
    honest = cli.w_from_u

    def with_curl(model, grid, m, u):
        v = np.sin(2.0 * np.pi * grid.coords[0]) * np.sin(2.0 * np.pi * grid.coords[1])
        s = cli.spectral.gradient(grid, v)
        return honest(model, grid, m, u) + 1e-6 * np.stack([-s[1], s[0]])

    monkeypatch.setattr(cli, "w_from_u", with_curl)
    out = tmp_path / "curl"
    cfg = dict(CONG_CFG, model=dict(CONG_CFG["model"], Q=[1.0, 0.0], f_spatial=[]))
    cfg = dict(cfg, grid={"dim": 2, "n": 16}, checks=["transforms"], output_dir=str(out))
    assert run(["crosscheck", write_cfg(tmp_path, "curl.json", cfg)]) == 3
    assert "checks failed" in capsys.readouterr().err
    payload = json.loads((out / "crosscheck.json").read_text())
    failed = {e["name"] for e in payload["checks"] if not e["pass"]}
    assert failed == {"transforms:curl", "transforms:roundtrip"}


def test_duality_crosscheck_command(tmp_path):
    out = tmp_path / "dual"
    cfg = write_cfg(tmp_path, "d.json", dict(SEP_CFG, output_dir=str(out)))
    assert run(["duality-crosscheck", cfg]) == 0
    payload = json.loads((out / "duality.json").read_text())
    assert payload["all_pass"] is True
    names = {e["name"] for e in payload["checks"]}
    assert names == {"saddle:bcost", "saddle:acost", "saddle:sum", "conjugate:pointwise"}
    assert payload["b_cost"] == pytest.approx(-payload["psi1"], abs=1e-9)
    assert payload["a_cost"] == pytest.approx(payload["psi1"], abs=1e-9)


def test_spectrum_payload_and_csv(tmp_path):
    out = tmp_path / "spec"
    cfg = write_cfg(tmp_path, "s.json", {
        "bifurcation": {"fprime1": -6.0 * np.pi**2, "n": 16, "n_t": 16,
                        "spectrum_points": 9, "spectrum_halfwidth": 0.1},
        "output_dir": str(out),
    })
    assert run(["spectrum", cfg]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["sign_change"] is True
    assert payload["max_closed_form_gap"] <= 1e-8
    assert payload["points"] == 9
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "T,sigma_closed_form,sigma_numeric"
    assert len(lines) == 10


def test_bifurcate_small_run(tmp_path):
    out = tmp_path / "bif"
    cfg = write_cfg(tmp_path, "b.json", {
        "bifurcation": {"fprime1": -6.0 * np.pi**2, "cubic": 1.0, "f1": 1.0,
                        "n": 16, "n_t": 16, "amplitudes": [1e-3]},
        "output_dir": str(out),
    })
    assert run(["bifurcate", cfg]) == 0
    payload = json.loads((out / "branch.json").read_text())
    assert payload["kernel_dim"] == 4
    assert payload["points"][0]["residual_inf"] <= 1e-10
    assert payload["mapped_back"]["residual_transport_inf"] <= 1e-8
    for fname in ("U.field", "M.field", "m.field", "u.field"):
        assert (out / fname).exists()


def test_bifurcate_2d_reports_the_gap_above_the_kernel(tmp_path):
    # In 2-D the kernel has dimension 4d = 8; the gap is the ninth value.
    out = tmp_path / "bif2"
    cfg = write_cfg(tmp_path, "b2.json", {
        "bifurcation": {"fprime1": -6.0 * np.pi**2, "cubic": 1.0, "f1": 1.0,
                        "dim": 2, "n": 8, "n_t": 8, "amplitudes": [1e-3]},
        "output_dir": str(out),
    })
    assert run(["bifurcate", cfg]) == 0
    payload = json.loads((out / "branch.json").read_text())
    assert payload["kernel_dim"] == 8
    assert payload["gap_singular_value"] >= 0.1


def test_outputs_are_deterministic(tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = write_cfg(tmp_path, f"{tag}.json", dict(SEP_CFG, output_dir=str(out)))
        assert run(["solve-mfg", cfg]) == 0
        paths.append(out)
    for fname in ("result.json", "m.field", "u.field"):
        assert (paths[0] / fname).read_bytes() == (paths[1] / fname).read_bytes()


BIF_CFG = {"fprime1": -6.0 * np.pi**2, "cubic": 1.0, "f1": 1.0,
           "dim": 2, "n": 8, "n_t": 8, "amplitudes": [2e-3, 6e-3]}


def test_bifurcate_outputs_are_deterministic(tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = write_cfg(tmp_path, f"{tag}.json", {"bifurcation": BIF_CFG, "output_dir": str(out)})
        assert run(["bifurcate", cfg]) == 0
        paths.append(out)
    for fname in ("branch.json", "U.field", "M.field", "m.field", "u.field"):
        assert (paths[0] / fname).read_bytes() == (paths[1] / fname).read_bytes()
    for point in json.loads((paths[0] / "branch.json").read_text())["points"]:
        assert point["newton_iterations"] == len(point["krylov_iterations"]) > 0
        assert point["solvability_inf"] <= 1e-12


def test_bifurcate_empty_amplitudes_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "e.json", {"bifurcation": dict(BIF_CFG, amplitudes=[]),
                                         "output_dir": str(tmp_path / "o")})
    assert run(["bifurcate", cfg]) == 2
    assert "bifurcation.amplitudes" in capsys.readouterr().err


def test_bifurcate_3d_coarse_grid_exits_typed(tmp_path, capsys):
    # 4^3 x 4 does not resolve the branch: a typed solver exit, in bounded time.
    cfg = write_cfg(tmp_path, "c.json", {
        "bifurcation": dict(BIF_CFG, dim=3, n=4, n_t=4, amplitudes=[5e-3]),
        "output_dir": str(tmp_path / "o"),
    })
    start = time.perf_counter()
    assert run(["bifurcate", cfg]) == 1
    assert time.perf_counter() - start < 30.0
    assert "does not resolve the branch" in capsys.readouterr().err


def test_bifurcate_3d_unresolved_roll_names_the_grid(tmp_path, capsys):
    # The roll is solved on its 1-D 8 x 8 profile; the error names 8^3 x 8.
    cfg = write_cfg(tmp_path, "u.json", {
        "bifurcation": dict(BIF_CFG, dim=3, n=8, n_t=8, amplitudes=[0.05]),
        "output_dir": str(tmp_path / "o"),
    })
    assert run(["bifurcate", cfg]) == 1
    err = capsys.readouterr().err
    assert "(8, 8, 8, 8)" in err
    assert "does not resolve the branch" in err


def test_output_dir_precedence(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("MFGKIT_OUTPUT_DIR", str(env_dir))
    cfg = write_cfg(tmp_path, "e.json", {
        "model": {"kind": "separable", "f_poly": [0.0, 1.0]},
        "grid": {"dim": 1, "n": 16},
    })
    assert run(["report", cfg]) == 0
    assert (env_dir / "report.json").exists()

    flag_dir = tmp_path / "from-flag"
    assert run(["report", cfg, "--output-dir", flag_dir]) == 0
    assert (flag_dir / "report.json").exists()

    # config output_dir beats the environment
    cfg_dir = tmp_path / "from-cfg"
    cfg2 = write_cfg(tmp_path, "e2.json", {
        "model": {"kind": "separable", "f_poly": [0.0, 1.0]},
        "grid": {"dim": 1, "n": 16},
        "output_dir": str(cfg_dir),
    })
    assert run(["report", cfg2]) == 0
    assert (cfg_dir / "report.json").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_missing_config_exits_two(tmp_path, capsys):
    assert run(["report", tmp_path / "nope.json"]) == 2
    assert "error:" in capsys.readouterr().err


def _with(cfg, key, value):
    """A deep copy of cfg with the dotted key set to value."""
    out = json.loads(json.dumps(cfg))
    *path, last = key.split(".")
    node = out
    for part in path:
        node = node.setdefault(part, {})
    node[last] = value
    return out


def _no_solve(*args, **kwargs):
    raise AssertionError("a solver ran before the config was rejected")


SOLVERS = ("solve_mfg", "solve_mfc", "solve_bb", "solve_bb_2d_stream", "solve_potential_a_gt_1")


@pytest.fixture
def solvers_forbidden(monkeypatch):
    for name in SOLVERS:
        monkeypatch.setattr(cli, name, _no_solve)
    monkeypatch.setattr(cli.bifurcation, "continue_branch", _no_solve)


MALFORMED = [
    ("solve-mfg", SEP_CFG, "eps", "abc"),
    ("solve-mfg", SEP_CFG, "eps", None),
    ("solve-mfg", SEP_CFG, "grid.n", "x"),
    ("solve-mfg", SEP_CFG, "solver.tol", "x"),
    ("solve-mfg", SEP_CFG, "initial.m0.base", "x"),
    ("report", CONG_CFG, "model.alpha", "x"),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.n", "x"),
    ("crosscheck", SEP_CFG, "seed", "x"),
    ("crosscheck", SEP_CFG, "seed", -1),
    ("report", CONG_CFG, "model.gamma", "x"),
    ("report", SEP_CFG, "grid.dim", "x"),
    ("solve-mfg", SEP_CFG, "grid.n_t", "x"),
    ("solve-mfg", SEP_CFG, "grid.horizon", "x"),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.fprime1", "x"),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.cubic", "x"),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.f1", "x"),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.dim", "x"),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.n_t", "x"),
    ("spectrum", {"bifurcation": BIF_CFG}, "bifurcation.spectrum_points", "x"),
    ("spectrum", {"bifurcation": BIF_CFG}, "bifurcation.spectrum_halfwidth", "x"),
    ("solve-mfg", SEP_CFG, "solver.tol", 0.0),
    ("solve-stationary", CONG_CFG, "solver.tol", -1.0),
    ("solve-stationary", CONG_CFG, "solver.tol", float("nan")),
    ("crosscheck", CONG_CFG, "solver.tol", float("inf")),
    ("solve-mfg", SEP_CFG, "grid.horizon", float("inf")),
    # Integer keys take integral numbers only: no fraction, no boolean.
    ("solve-mfg", SEP_CFG, "grid.n", 16.5),
    ("solve-mfg", SEP_CFG, "grid.n", [16.5]),
    ("report", SEP_CFG, "grid.dim", True),
    ("solve-mfg", SEP_CFG, "grid.n_t", 8.5),
    ("crosscheck", SEP_CFG, "seed", 2.5),
    ("crosscheck", SEP_CFG, "seed", False),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.dim", 1.5),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.n", 8.5),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.n_t", True),
    ("spectrum", {"bifurcation": BIF_CFG}, "bifurcation.spectrum_points", 2.5),
    # Float keys take numbers only: no boolean, no string, and no string for a list.
    ("solve-mfg", SEP_CFG, "eps", True),
    ("solve-mfg", SEP_CFG, "solver.tol", True),
    ("solve-mfg", SEP_CFG, "eps", "0.5"),
    ("report", SEP_CFG, "model.f_poly", "12"),
    ("report", SEP_CFG, "model.f_poly", [0.0, "1"]),
    ("report", CONG_CFG, "model.Q", [True]),
    ("solve-mfg", SEP_CFG, "initial.m0.base", False),
    # The periodic coupling coefficients must be finite on every command.
    ("spectrum", {"bifurcation": BIF_CFG}, "bifurcation.cubic", float("nan")),
    ("spectrum", {"bifurcation": BIF_CFG}, "bifurcation.f1", float("-inf")),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.fprime1", float("inf")),
]


@pytest.mark.parametrize(
    "command, base, key, value", MALFORMED, ids=[f"{c[2]}={c[3]!r}" for c in MALFORMED]
)
def test_malformed_config_scalar_exits_two(
    tmp_path, capsys, solvers_forbidden, command, base, key, value
):
    cfg = write_cfg(tmp_path, "bad.json", _with(base, key, value))
    assert run([command, cfg, "--output-dir", tmp_path / "o"]) == 2
    rule = "a number" if not isinstance(value, float) or np.isfinite(value) else "a finite number"
    assert f"'{key}' must be {rule}" in capsys.readouterr().err


RETIRED_BUDGETS = [
    ("solve-mfg", "x"),
    ("solve-mfg", -3),
    ("duality-crosscheck", 0),
    ("solve-mfg", 3.7),
    ("solve-mfg", True),
]


@pytest.mark.parametrize(
    "command, value", RETIRED_BUDGETS, ids=[f"solver.max_newton={v!r}" for _, v in RETIRED_BUDGETS]
)
def test_retired_newton_budget_is_unknown_whatever_its_value(
    tmp_path, capsys, solvers_forbidden, command, value
):
    # The budget is the constant dynamics.NEWTON_STEPS: a value that once
    # failed the key's number check now fails as an unknown key, which is
    # named before any value is read.
    cfg = write_cfg(tmp_path, "bad.json", _with(SEP_CFG, "solver.max_newton", value))
    out = tmp_path / "o"
    assert run([command, cfg, "--output-dir", out]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'max_newton' in 'solver'" in err
    assert "must be" not in err
    assert not out.exists()


def test_integral_numbers_are_accepted_as_integers(tmp_path):
    cfg = _with(_with(SEP_CFG, "grid.n", 16.0), "grid.dim", 1.0)
    cfg["grid"]["n_t"] = 8.0
    cfg["seed"] = 7.0
    path = write_cfg(tmp_path, "ok.json", cfg)
    loaded = config.load_config(path)
    assert type(config._setting(loaded, "grid.n")) is int
    assert config._setting(loaded, "grid.n") == 16
    assert config._setting(loaded, "grid.n_t") == 8
    assert config._setting(loaded, "seed") == 7
    out = tmp_path / "o"
    assert run(["report", path, "--output-dir", out]) == 0
    assert json.loads((out / "report.json").read_text())["grid"] == {"dim": 1, "n": [16]}


def test_out_of_window_fprime1_message_is_short(tmp_path, capsys, solvers_forbidden):
    cfg = write_cfg(tmp_path, "bad.json", {"bifurcation": dict(BIF_CFG, fprime1=-1e308)})
    assert run(["spectrum", cfg, "--output-dir", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "f'(1) = -1e+308 violates the lower window bound" in err
    assert len(err) < 120


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built, original = [], cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    cfg = write_cfg(tmp_path, "ok.json", CONG_CFG)
    for tag in ("a", "b"):
        assert run(["report", cfg, "--output-dir", tmp_path / tag]) == 0
    assert len(built) == 1
    cli._parser.cache_clear()
    # build_parser itself still returns a new parser on every call.
    assert original() is not original()


@pytest.mark.parametrize("command", ["crosscheck", "solve-mfg"])
@pytest.mark.parametrize("key", ["initial.m0.modes", "model.f_spatial"])
def test_non_list_modes_exit_two(tmp_path, capsys, command, key):
    cfg = write_cfg(tmp_path, "bad.json", _with(SEP_CFG, key, 5))
    assert run([command, cfg, "--output-dir", tmp_path / "o"]) == 2
    assert f"'{key}' must be a list of mode objects (got 5)" in capsys.readouterr().err


@pytest.mark.parametrize("eps", [-0.5, float("nan")])
def test_bad_viscosity_exits_two_before_solving(tmp_path, capsys, solvers_forbidden, eps):
    # The crosscheck's derivative and two-form checks solve nothing, so only
    # the config row can stop them; it does so at load, before the output
    # directory is made.
    checks = ["derivatives", "two-forms"]
    cfg = write_cfg(tmp_path, "bad.json", dict(SEP_CFG, eps=eps, checks=checks))
    rule = "a finite number" if np.isnan(eps) else "a number in [0, inf)"
    for command in ("solve-mfg", "crosscheck"):
        out = tmp_path / command
        assert run([command, cfg, "--output-dir", out]) == 2
        assert f"'eps' must be {rule} (got {eps})" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "base, checks, bad, valid",
    [
        (SEP_CFG, ["mass", "dervatives"], "dervatives",
         "separable model (valid: derivatives, two-forms, duality, mass)"),
        (CONG_CFG, ["hbar", "duality", "transform"], "transform",
         "congestion model (valid: transforms, duality, hbar)"),
    ],
    ids=["separable", "congestion"],
)
def test_unknown_check_name_exits_two_before_solving(
    tmp_path, capsys, solvers_forbidden, base, checks, bad, valid
):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "bad.json", dict(base, checks=checks))
    assert run(["crosscheck", cfg, "--output-dir", out]) == 2
    assert f"unknown check '{bad}' for a {valid}" in capsys.readouterr().err
    assert not (out / "crosscheck.json").exists()


@pytest.mark.parametrize("command", ["report", "solve-stationary"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("alpha", float("nan"), "'model.alpha' must be a finite number (got nan)"),
        ("gamma", float("nan"), "'model.gamma' must be a finite number (got nan)"),
        ("Q", [float("nan")], "'model.Q' must be a finite number (got nan)"),
    ],
)
def test_nan_model_parameter_exits_two_before_solving(
    tmp_path, capsys, solvers_forbidden, command, key, value, message
):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "bad.json", _with(CONG_CFG, f"model.{key}", value))
    assert run([command, cfg, "--output-dir", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "solve-stationary", "crosscheck"])
@pytest.mark.parametrize("Q, dim", [([0.5], 2), ([0.5, 0.5], 1)], ids=["short", "long"])
def test_wrong_length_drift_exits_two_before_solving(
    tmp_path, capsys, solvers_forbidden, command, Q, dim
):
    out = tmp_path / "o"
    cfg = _with(_with(CONG_CFG, "model.Q", Q), "grid", {"dim": dim, "n": 16})
    assert run([command, write_cfg(tmp_path, "bad.json", cfg), "--output-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"'model.Q' has {len(Q)} entries but 'grid.dim' = {dim}" in err
    assert not any(out.iterdir())


NON_FINITE_COUPLING = [
    ("solve-mfg", SEP_CFG, "model.f_poly", [float("nan"), 1.0],
     "'model.f_poly' must be a finite number (got nan)"),
    ("report", CONG_CFG, "model.f_poly", [0.0, float("inf")],
     "'model.f_poly' must be a finite number (got inf)"),
    ("solve-mfg", SEP_CFG, "model.f_spatial", [{"amp": float("nan"), "k": [1]}],
     "'model.f_spatial.amp' must be a finite number (got nan)"),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.cubic", float("nan"),
     "'bifurcation.cubic' must be a finite number (got nan)"),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.f1", float("inf"),
     "'bifurcation.f1' must be a finite number (got inf)"),
    ("spectrum", {"bifurcation": BIF_CFG}, "bifurcation.fprime1", float("nan"),
     "'bifurcation.fprime1' must be a finite number (got nan)"),
]


@pytest.mark.parametrize(
    "command, base, key, value, message",
    NON_FINITE_COUPLING,
    ids=[f"{c[2]}={c[3]!r}" for c in NON_FINITE_COUPLING],
)
def test_non_finite_coupling_exits_two_before_solving(
    tmp_path, capsys, solvers_forbidden, command, base, key, value, message
):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "bad.json", _with(base, key, value))
    assert run([command, cfg, "--output-dir", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("initial.m0.base", float("nan")), ("initial.uT.base", float("nan")),
     ("initial.uT.base", float("inf"))],
)
def test_non_finite_profile_base_exits_two_before_solving(
    tmp_path, capsys, solvers_forbidden, key, value
):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "bad.json", _with(SEP_CFG, key, value))
    assert run(["solve-mfg", cfg, "--output-dir", out]) == 2
    assert f"'{key}' must be a finite number (got {value})" in capsys.readouterr().err
    assert not out.exists()


BAD_LISTS = [
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.amplitudes", [1e-3, float("inf")], "inf"),
    ("bifurcate", {"bifurcation": BIF_CFG}, "bifurcation.amplitudes", [float("nan")], "nan"),
]


@pytest.mark.parametrize(
    "command, base, key, value, entry", BAD_LISTS, ids=[f"{c[2]}={c[3]!r}" for c in BAD_LISTS]
)
def test_list_entry_outside_0_inf_exits_two_before_solving(
    tmp_path, capsys, solvers_forbidden, command, base, key, value, entry
):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "bad.json", _with(base, key, value))
    assert run([command, cfg, "--output-dir", out]) == 2
    assert f"'{key}' must be a finite number (got {entry})" in capsys.readouterr().err
    assert not out.exists()


def test_uncreatable_output_dir_exits_two(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    target = tmp_path / "afile" / "sub"
    cfg = write_cfg(tmp_path, "r.json", {"model": {"kind": "separable"}})
    assert run(["report", cfg, "--output-dir", target]) == 2
    assert f"cannot create output directory {target}" in capsys.readouterr().err


def test_out_of_memory_exits_one_and_writes_nothing(tmp_path):
    # The spectrum's mode blocks on 10^8 x 10^8 nodes would take 568 PiB. The
    # child's address space is capped at 512 MiB, so the grid's 763 MiB
    # symbol arrays already fail at allocation instead of being written.
    cfg = write_cfg(tmp_path, "big.json", {"bifurcation": {"n": 10**8, "n_t": 10**8}})
    out = tmp_path / "o"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import resource, sys; from mfgkit.cli import main; "
        "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)); "
        "sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, "spectrum", cfg, "--output-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert not any(out.iterdir())


def test_cli_import_loads_no_scipy():
    # scipy.sparse.linalg alone costs a CLI process about 0.3 s and 24 MB.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import mfgkit.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_commands_load_neither_numpy_random_nor_polynomial(tmp_path):
    # numpy.random costs a process about 6 MB and numpy.polynomial about
    # 0.8 MB; the library draws from spectral.Sampler and evaluates the
    # coupling by Horner's rule instead. All nine commands, both crosscheck
    # kinds among them, run in one fresh interpreter that loads neither.
    cong = dict(CONG_CFG, grid={"dim": 1, "n": 16})
    periodic = {"bifurcation": {"n": 8, "n_t": 8, "amplitudes": [0.001]}}
    runs = [("report", cong), ("solve-stationary", cong), ("crosscheck", cong)]
    runs += [(c, SEP_CFG) for c in ("solve-mfg", "solve-mfc", "compare", "crosscheck", "duality-crosscheck")]
    runs += [("bifurcate", periodic), ("spectrum", periodic)]
    argv = [
        [command, write_cfg(tmp_path, f"{i}.json", cfg), "--output-dir", str(tmp_path / f"out{i}")]
        for i, (command, cfg) in enumerate(runs)
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import json, sys; from mfgkit.cli import main; "
        "codes = [main(a) for a in json.loads(sys.argv[1])]; "
        "print(json.dumps([codes, [m for m in ('numpy.random', 'numpy.polynomial') if m in sys.modules]]))"
    )
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(runs), []]


_FH_GRID = {"dim": 1, "n": 16, "n_t": 8}
INPUT_CHECKS = [
    ("report", "{not json", 2, "is not valid JSON"),
    ("report", [1, 2], 2, "config root must be a JSON object"),
    ("report", {"grid": 5}, 2, "'grid' must be a JSON object"),
    ("report", {"initial": {"m0": 3}}, 2, "'initial.m0' must be a JSON object"),
    ("report", {"checks": "mass"}, 2, "'checks' must be a list of strings"),
    ("report", {"output_dir": 5}, 2, "'output_dir' must be a string (got 5)"),
    ("report", {"model": {"f_spatial": [5]}}, 2, "entries of 'model.f_spatial' must be objects"),
    ("report", {"model": {"Q": [1.0]}}, 2, "'model.Q' only applies to kind 'congestion'"),
    ("report", {"model": {"kind": "congestion"}}, 2, "congestion models need 'model.Q'"),
    ("report", {"model": {"kind": "crowd"}}, 2,
     "'model.kind' must be one of separable, congestion; got 'crowd'"),
    ("report", {"grid": {"dim": 2, "n": [16]}}, 2, "'grid.n' has 1 entries but dim = 2"),
    (
        "solve-mfg",
        {"grid": _FH_GRID, "initial": {"m0": {"modes": [{"amp": 1.5, "k": [1]}]}}},
        2,
        "'initial.m0' must be strictly positive",
    ),
    (
        "solve-mfg",
        {"grid": _FH_GRID, "initial": {"m0": {"base": 2.0}}},
        2,
        "'initial.m0' must have unit mass",
    ),
    (
        "solve-stationary",
        {"model": {"kind": "separable"}, "grid": {"dim": 1, "n": 16}},
        2,
        "solve-stationary needs model.kind = 'congestion'",
    ),
    (
        "solve-mfg",
        {"model": {"kind": "congestion", "Q": [1.0]}, "grid": _FH_GRID},
        2,
        "the dynamic solvers need model.kind = 'separable'",
    ),
    ("report", {"grid": {"dim": 1, "n": 1e20}}, 2, "has more nodes than numpy can index"),
    (
        "bifurcate",
        {"bifurcation": {"amplitudes": []}},
        2,
        "'bifurcation.amplitudes' must be a nonempty list of numbers in (0, inf) (got ())",
    ),
    # A system that fixes its viscosity takes no other eps.
    (
        "solve-stationary",
        {"eps": 0.5, "model": {"kind": "congestion", "Q": [1.0]}, "grid": {"dim": 1, "n": 16}},
        2,
        "'eps' must be 0 or absent: the stationary congestion system is first-order (got 0.5)",
    ),
    (
        "crosscheck",
        {"eps": 0.5, "model": {"kind": "congestion", "Q": [1.0]}, "grid": {"dim": 1, "n": 16}},
        2,
        "'eps' must be 0 or absent",
    ),
    (
        "bifurcate",
        {"eps": 0.5, "bifurcation": {"n": 8, "n_t": 8}},
        2,
        "'eps' must be 1 or absent: the rescaled periodic system has unit viscosity (got 0.5)",
    ),
    ("spectrum", {"eps": 0.0, "bifurcation": {"n": 8, "n_t": 8}}, 2, "'eps' must be 1 or absent"),
    # Escapes the property sweep found with wide draws: an overflowing
    # monotonicity sample, and two branch starts whose residual is nan,
    # stopped before any linearization.
    (
        "report",
        {"model": {"kind": "congestion", "alpha": 437.0, "Q": [0.0]}, "grid": {"n": 4}},
        2,
        "the model's derivatives overflow at the sampled states",
    ),
    (
        "bifurcate",
        {"bifurcation": {"amplitudes": [0.03125, 4.244964710161808e77], "n": 4, "n_t": 6}},
        1,
        "error: no convergence at amplitude 4.24496e+77: the residual is nan at Newton step 1",
    ),
    (
        "bifurcate",
        {"bifurcation": {"amplitudes": [1e-3, 1e200], "n": 8, "n_t": 8}},
        1,
        "error: no convergence at amplitude 1e+200: the residual is nan at Newton step 1",
    ),
    # Every key is read at load, also one the command does not use.
    ("bifurcate", {"bifurcation": {"n": 8, "n_t": 8}, "model": {"alpha": "x"}}, 2,
     "'model.alpha' must be a number, not a string (got 'x')"),
    (
        "report",
        {"model": {"kind": "congestion", "Q": [1.0]}, "grid": {"dim": 1, "n": 16},
         "solver": {"tol": -1}},
        2,
        "'solver.tol' must be a number in (0, inf) (got -1.0)",
    ),
    ("spectrum", {"bifurcation": {"n": 8, "n_t": 8}, "grid": {"horizon": float("nan")}}, 2,
     "'grid.horizon' must be a finite number (got nan)"),
    ("solve-mfg", {"grid": _FH_GRID, "bifurcation": {"amplitudes": []}}, 2,
     "'bifurcation.amplitudes' must be a nonempty list of numbers"),
    # The Newton budget is a constant, not a setting.
    ("solve-mfg", {"grid": _FH_GRID, "solver": {"max_newton": 40}}, 2,
     "unknown key 'max_newton'"),
    (
        "solve-stationary",
        {"model": {"kind": "congestion", "Q": [1.0]}, "grid": {"dim": 1, "n": 16},
         "initial": {"m0": {"base": "x"}}},
        2,
        "'initial.m0.base' must be a number, not a string (got 'x')",
    ),
    # solver.tol 1e-2 stops the solve above the saddle identities' 1e-6.
    (
        "duality-crosscheck",
        {
            "grid": _FH_GRID,
            "solver": {"tol": 0.01},
            "initial": {"uT": {"modes": [{"amp": 0.3, "k": [1], "kind": "sin"}]}},
        },
        3,
        "solved state residual 8.029e-05 is above 1e-6",
    ),
]


@pytest.mark.parametrize(
    "bif",
    [
        {"n": 8, "n_t": 8, "amplitudes": [1e-3, 1e200]},
        {"n": 4, "n_t": 6, "amplitudes": [0.03125, 4.244964710161808e77]},
    ],
    ids=["1e200", "4.2e77"],
)
def test_non_finite_branch_exit_prints_one_line(tmp_path, capsys, bif):
    # The overflowing predictor and the nan residual it leads to are expected:
    # numpy must not warn about them, so stderr holds only the error line.
    cfg = write_cfg(tmp_path, "nan.json", {"bifurcation": bif})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["bifurcate", cfg, "--output-dir", tmp_path / "o"]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: no convergence at amplitude") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, cfg, code, message", INPUT_CHECKS, ids=[c[3] for c in INPUT_CHECKS]
)
def test_input_checks_exit_typed_and_write_nothing(tmp_path, capsys, command, cfg, code, message):
    path = tmp_path / "cfg.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, path, "--output-dir", out]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    # One typed line and no numpy warning, even where the inputs overflow.
    assert [w.category for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert captured.err.count("\n") == 1
    try:
        config.load_config(path)
    except ConfigError:
        # Found at load, before the output directory is made.
        assert not out.exists()
    else:
        assert not out.exists() or not any(out.iterdir())
