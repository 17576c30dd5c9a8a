"""The ``mfgkit`` command line front end.

Usage: ``mfgkit <command> <config.json> [--output-dir DIR]``. Commands
read one JSON configuration (see :mod:`mfgkit.config` for the schema)
and write deterministic artifacts into the output directory: a JSON
summary (also echoed to stdout), field files in the text format of
:mod:`mfgkit.fields`, and CSV tables where a curve is the natural
output. Outputs carry no timestamps and all floats are written with
round-trip precision, so reruns of the same config are byte identical.

Commands
--------
report
    Model sanity report: payoff values at the uniform state and sampled
    monotonicity indicators.
solve-stationary
    Stationary congestion solve. ``solver.formulation`` picks the route:
    ``bb`` (flux variables), ``stream2d`` (stream function, 2-D only),
    ``potential`` (alpha > 1), or ``auto`` (potential iff alpha > 1,
    else bb).
solve-mfg / solve-mfc
    Finite-horizon equilibrium / planner solve.
compare
    Both dynamic solves plus the payoff comparison.
bifurcate
    Amplitude continuation of the time-periodic branch.
spectrum
    Eigenvalue branch of the linearized operator across the critical
    period, closed form vs numeric, as CSV.
crosscheck
    Derivative/duality/transform identities on the configured instance
    (solves follow ``solver.formulation``); failures exit with code 3.
duality-crosscheck
    Both dual control costs against psi1 at a solved equilibrium, plus
    the pointwise conjugate consistency of F*; failures exit with 3.

Exit codes: 0 success; 1 solver or runtime failure; 2 malformed
configuration or model; 3 failed crosscheck.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, bifurcation, spectral
from .config import (
    _number,
    bifurcation_settings,
    build_m0,
    build_model,
    build_space_grid,
    build_time_grid,
    build_uT,
    dump_csv,
    dump_json,
    load_config,
    resolve_output_dir,
    solver_settings,
)
from .dynamics import compare_equilibrium_vs_planner, solve_mfc, solve_mfg
from .errors import (
    CheckError,
    ConfigError,
    CurlError,
    GridError,
    ModelError,
    PositivityError,
    SolverError,
)
from .fields import DensityField, ScalarField, VectorField, save_field
from .functionals import (
    GameState,
    StationaryState,
    a_cost,
    b_cost,
    psi1,
    psi1_hat,
    psi2,
    psi2_hat,
    social_cost,
)
from .hamiltonians import CongestionHamiltonian, SeparableHamiltonian, check_monotonicity
from .stationary import solve_bb, solve_bb_2d_stream, solve_potential_a_gt_1, u_from_w, w_from_u

__all__ = ["build_parser", "duality_crosscheck", "main"]


def _describe_model(model) -> dict:
    if isinstance(model, CongestionHamiltonian):
        out = {
            "kind": "congestion",
            "Q": list(model.Q),
            "alpha": model.alpha,
            "gamma": model.gamma,
            "f_poly": list(model.coupling.poly),
        }
        if model.gamma > 1.0:
            out["gamma_prime"] = model.gamma_prime
            out["beta"] = model.beta
        return out
    return {"kind": "separable", "f_poly": list(model.coupling.poly)}


def cmd_report(cfg, out_dir):
    model = build_model(cfg)
    grid = build_space_grid(cfg)
    if isinstance(model, CongestionHamiltonian) and model.dim != grid.dim:
        raise ConfigError(
            f"model.Q has {model.dim} components but grid.dim = {grid.dim}"
        )
    state = StationaryState(grid, np.ones(grid.shape), np.zeros(grid.shape))
    r1 = psi1_hat(state, model)
    r2 = psi2_hat(state, model)
    mono = check_monotonicity(model, grid)
    payload = {
        "model": _describe_model(model),
        "grid": {"dim": grid.dim, "n": list(grid.shape)},
        "uniform_state": {
            "psi1_hat": r1.value,
            "psi2_hat": r2.value,
            "hbar_candidate": r2.value,
        },
        "monotonicity": {
            "min_eig_pp": mono.min_eig_pp,
            "max_dm_h": mono.max_dm_h,
            "min_eig_block": mono.min_eig_block,
            "n_samples": mono.n_samples,
        },
    }
    return payload, {"report.json": payload}


def _solve_congestion(model, grid, s):
    """Run the stationary route that ``solver.formulation`` names.

    ``auto`` picks the potential route iff alpha > 1, else the flux
    route. Returns (route, result).
    """
    route = s["formulation"]
    if route == "auto":
        route = "potential" if model.alpha > 1.0 else "bb"
    if route == "potential":
        return route, solve_potential_a_gt_1(model, grid, tol=s["tol"], max_iter=s["max_iter"])
    if route == "stream2d":
        return route, solve_bb_2d_stream(model, grid, tol=s["tol"], max_iter=s["max_iter"])
    return route, solve_bb(
        model,
        grid,
        tol=s["tol"],
        max_iter=s["max_iter"],
        barrier_stages=s["barrier_stages"],
        w_reg=s["w_reg"],
    )


def cmd_solve_stationary(cfg, out_dir):
    model = build_model(cfg)
    if not isinstance(model, CongestionHamiltonian):
        raise ConfigError("solve-stationary needs model.kind = 'congestion'")
    grid = build_space_grid(cfg)
    route, res = _solve_congestion(model, grid, solver_settings(cfg))
    save_field(out_dir / "m.field", DensityField(grid, res.state.m))
    save_field(out_dir / "u.field", ScalarField(grid, res.state.u))
    save_field(out_dir / "w.field", VectorField(grid, res.w))
    payload = {
        "route": route,
        "hbar": res.state.Hbar,
        "value": res.value,
        "iterations": res.iterations,
        "grad_inf": res.grad_inf,
        "duality_gap": res.duality_gap,
        "hbar_crosscheck_gap": res.hbar_crosscheck_gap,
        "residual_hjb_inf": res.residual_hjb_inf,
        "residual_fp_inf": res.residual_fp_inf,
        "m_min": float(res.state.m.min()),
        "m_max": float(res.state.m.max()),
        "diagnostics": res.diagnostics,
    }
    return payload, {"result.json": payload}


def _separable_problem(cfg, needs: str):
    """The configured finite-horizon problem: (model, time grid, m0, uT,
    eps, solve), where solve(planner) runs the equilibrium or planner
    solver with ``solver.tol`` and ``solver.max_newton``. A model that is
    not separable raises ``ConfigError("<needs> model.kind = 'separable'")``."""
    model = build_model(cfg)
    if not isinstance(model, SeparableHamiltonian):
        raise ConfigError(f"{needs} model.kind = 'separable'")
    st = build_time_grid(cfg)
    m0 = build_m0(st.space, cfg)
    uT = build_uT(st.space, cfg)
    eps, s = _number(cfg.get("eps", 1.0), "eps"), solver_settings(cfg)

    def solve(planner: bool):
        solver = solve_mfc if planner else solve_mfg
        return solver(model, st, m0, uT, eps=eps, tol=s["tol"], max_newton=s["max_newton"])

    return model, st, m0, uT, eps, solve


def _dynamic_solve(cfg, out_dir, planner: bool):
    model, st, _, _, eps, solve = _separable_problem(cfg, "the dynamic solvers need")
    res = solve(planner)
    state = res.state
    save_field(out_dir / "m.field", DensityField(st, state.m))
    save_field(out_dir / "u.field", ScalarField(st, state.u))
    cost = social_cost(state, model)
    val2 = psi2(state, model).value
    payload = {
        "problem": "planner" if planner else "equilibrium",
        "eps": eps,
        "newton_iterations": res.newton_iterations,
        "krylov_iterations": sum(res.krylov_iterations),
        "residual_inf": res.residual_inf,
        "m_min": res.min_m,
        "psi1": psi1(state, model).value,
        "psi2": val2,
        "psi1_dm_inf": res.psi1_dm_inf,
        "psi2_du_inf": res.psi2_du_inf,
        "social_cost": cost,
    }
    if not planner:
        payload["cost_identity_gap"] = abs(cost + val2)
    return payload, {"result.json": payload}


def cmd_solve_mfg(cfg, out_dir):
    return _dynamic_solve(cfg, out_dir, planner=False)


def cmd_solve_mfc(cfg, out_dir):
    return _dynamic_solve(cfg, out_dir, planner=True)


def cmd_compare(cfg, out_dir):
    model, _, _, _, _, solve = _separable_problem(cfg, "compare needs")
    res_g, res_c = solve(False), solve(True)
    cmp = compare_equilibrium_vs_planner(res_g.state, res_c.state, model)
    payload = {
        "psi2_equilibrium": cmp["psi2_mfg"],
        "psi2_planner": cmp["psi2_mfc"],
        "gap": cmp["gap"],
        "ordered": cmp["inequality_holds"],
        "equilibrium": {
            "newton_iterations": res_g.newton_iterations,
            "residual_inf": res_g.residual_inf,
        },
        "planner": {
            "newton_iterations": res_c.newton_iterations,
            "residual_inf": res_c.residual_inf,
        },
    }
    return payload, {"result.json": payload}


def cmd_bifurcate(cfg, out_dir):
    b = bifurcation_settings(cfg)
    coupling = bifurcation.default_periodic_coupling(b["fprime1"], b["cubic"], b["f1"])
    st = bifurcation.periodic_grid(b["dim"], b["n"], b["n_t"])
    ker = bifurcation.kernel_at(
        st, bifurcation.critical_period(b["fprime1"]), b["fprime1"], check_trig_span=True
    )
    branch = bifurcation.continue_branch(coupling, st, b["amplitudes"])
    last = branch.points[-1]
    mapped = bifurcation.map_to_original(last.state, coupling)
    save_field(out_dir / "U.field", ScalarField(st, last.state.U))
    save_field(out_dir / "M.field", ScalarField(st, last.state.M))
    save_field(out_dir / "m.field", DensityField(mapped["grid"], mapped["m"]))
    save_field(out_dir / "u.field", ScalarField(mapped["grid"], mapped["u"]))
    payload = {
        "fprime1": branch.fprime1,
        "Tbar": branch.Tbar,
        "kernel_dim": ker.kernel_dim,
        "gap_singular_value": float(ker.singular_values[4 * st.dim]),
        "kernel_trig_energy": ker.trig_energy_fraction,
        "points": [
            {
                "amplitude": p.amplitude,
                "T": p.state.T,
                "hbar": p.state.Hbar,
                "residual_inf": p.residual_inf,
                "dtM_over_M": p.dtM_over_M,
                "kernel_energy_fraction": p.kernel_energy_fraction,
                "newton_iterations": p.newton_iterations,
                "krylov_iterations": p.krylov_iterations,
                "solvability_inf": p.solvability_inf,
            }
            for p in branch.points
        ],
        "mapped_back": {
            "period": mapped["period"],
            "residual_transport_inf": mapped["residual_transport_inf"],
            "residual_value_inf": mapped["residual_value_inf"],
            "mass_defect": mapped["mass_defect"],
        },
    }
    return payload, {"branch.json": payload}


def cmd_spectrum(cfg, out_dir):
    b = bifurcation_settings(cfg)
    st = bifurcation.periodic_grid(b["dim"], b["n"], b["n_t"])
    Tbar = bifurcation.critical_period(b["fprime1"])
    hw = b["spectrum_halfwidth"]
    Ts = np.linspace(Tbar * (1.0 - hw), Tbar * (1.0 + hw), b["spectrum_points"])
    rows = []
    for T in Ts:
        info = bifurcation.sigma_from_operator(st, float(T), b["fprime1"])
        rows.append((float(T), info["h_root"], info["eig"]))
    dump_csv(out_dir / "spectrum.csv", ["T", "sigma_closed_form", "sigma_numeric"], rows)
    payload = {
        "fprime1": b["fprime1"],
        "Tbar": Tbar,
        "slope_closed_form": bifurcation.sigma_slope_exact(b["fprime1"]),
        "points": len(rows),
        "sign_change": bool(rows[0][2] * rows[-1][2] < 0.0),
        "max_closed_form_gap": max(abs(r[1] - r[2]) for r in rows),
    }
    return payload, {"spectrum.json": payload}


def _fd_directional(fun, h):
    """Fourth-order central difference of a scalar path t -> fun(t)."""
    d1 = (fun(h) - fun(-h)) / (2.0 * h)
    d2 = (fun(0.5 * h) - fun(-0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _random_game_state(model, st, m0, uT, eps, rng):
    sp = st.space
    nt = st.num_time_nodes
    m = np.empty(st.field_shape)
    u = np.empty(st.field_shape)
    for j in range(nt):
        m[j] = 1.0 + spectral.random_band_limited(sp, rng, amplitude=0.3)
        u[j] = spectral.random_band_limited(sp, rng, amplitude=0.5)
    return GameState(st, m, u, m0, uT, eps=eps)


def _check_separable(cfg, checks, rng):
    model, st, m0, uT, eps, solve = _separable_problem(cfg, "crosscheck needs")
    results = []
    if "derivatives" in checks or "two-forms" in checks:
        state = _random_game_state(model, st, m0, uT, eps, rng)
        dm = np.stack(
            [spectral.random_band_limited(st.space, rng) for _ in range(st.n_t + 1)]
        )
        du = np.stack(
            [spectral.random_band_limited(st.space, rng) for _ in range(st.n_t + 1)]
        )
        if "derivatives" in checks:
            for name, fn, direction, key in (
                ("psi1_dm", psi1, dm, "dm"),
                ("psi2_du", psi2, du, "du"),
            ):
                rep = fn(state, model)
                grad_field = getattr(rep, key)
                analytic = spectral.integrate_space_time(st, grad_field * direction)

                def value_at(t, which=fn, dirn=direction, k=key):
                    m_t = state.m + (t * dirn if k == "dm" else 0.0)
                    u_t = state.u + (t * dirn if k == "du" else 0.0)
                    probe = GameState(st, m_t, u_t, m0, uT, eps=eps)
                    return which(probe, model).value

                fd = _fd_directional(value_at, 1e-4)
                scale = max(abs(analytic), abs(fd), 1e-12)
                results.append(
                    {
                        "name": f"derivative:{name}",
                        "gap": abs(fd - analytic) / scale,
                        "tol": 1e-6,
                    }
                )
        if "two-forms" in checks:
            for name, fn in (("psi1", psi1), ("psi2", psi2)):
                rep = fn(state, model)
                gap = abs(rep.value - rep.extras["value_u_weighted"])
                scale = max(1.0, abs(rep.value))
                results.append(
                    {"name": f"two-forms:{name}", "gap": gap / scale, "tol": 1e-10}
                )
    if "duality" in checks or "mass" in checks:
        res = solve(False)
        if "duality" in checks:
            cost = social_cost(res.state, model)
            val = psi2(res.state, model).value
            scale = max(1.0, abs(val))
            results.append(
                {"name": "duality:cost", "gap": abs(cost + val) / scale, "tol": 1e-8}
            )
        if "mass" in checks:
            masses = res.state.m.reshape(st.num_time_nodes, -1).mean(axis=1)
            results.append(
                {
                    "name": "mass:slices",
                    "gap": float(np.max(np.abs(masses - 1.0))),
                    "tol": 1e-8,
                }
            )
    return results


def _check_congestion(cfg, checks, rng):
    model = build_model(cfg)
    grid = build_space_grid(cfg)
    s = solver_settings(cfg)
    results = []
    if "transforms" in checks:
        m = 1.0 + spectral.random_band_limited(grid, rng, amplitude=0.3)
        m /= m.mean()
        u = spectral.random_band_limited(grid, rng, amplitude=0.2)
        w = w_from_u(model, grid, m, u)
        u2, rep = u_from_w(model, grid, m, w)
        w2 = w_from_u(model, grid, m, u2)
        gap = float(np.max(np.abs(w2 - w)))
        results.append({"name": "transforms:roundtrip", "gap": gap, "tol": 1e-8})
        results.append(
            {
                "name": "transforms:curl",
                "gap": rep["curl_residual_inf"],
                "tol": 1e-8,
            }
        )
    needs_solve = {"duality", "hbar"} & set(checks)
    if needs_solve:
        route, res = _solve_congestion(model, grid, s)
        certificates = (
            ("duality", "duality:stationary", res.duality_gap),
            ("hbar", "hbar:crosscheck", res.hbar_crosscheck_gap),
        )
        for key, name, gap in certificates:
            if key not in checks:
                continue
            if gap is None:
                tag = res.diagnostics.get("route", route)
                raise ModelError(
                    f"crosscheck '{key}' does not apply: the {tag} solve "
                    f"has no {name} certificate"
                )
            results.append({"name": name, "gap": abs(gap), "tol": 1e-6})
    return results


def cmd_crosscheck(cfg, out_dir):
    model = build_model(cfg)
    seed = _number(cfg.get("seed", 0), "seed", int)
    if seed < 0:
        raise ConfigError(f"'seed' must be a number >= 0 (got {seed})")
    rng = np.random.default_rng(seed)
    checks = cfg.get("checks") or (
        ["derivatives", "two-forms", "duality", "mass"]
        if isinstance(model, SeparableHamiltonian)
        else ["transforms", "duality", "hbar"]
    )
    if isinstance(model, SeparableHamiltonian):
        results = _check_separable(cfg, checks, rng)
    else:
        results = _check_congestion(cfg, checks, rng)
    if not results:
        raise ConfigError(f"no applicable checks among {checks}")
    for entry in results:
        entry["pass"] = bool(entry["gap"] <= entry["tol"])
    payload = {"checks": results, "all_pass": all(e["pass"] for e in results)}
    return payload, {"crosscheck.json": payload}


def duality_crosscheck(cfg) -> dict:
    """Both dual control costs against psi1 at a solved equilibrium.

    Solves the configured dynamic game, then checks the saddle identities
    B = -psi1 and A = +psi1 (the two control problems bound the same
    saddle value from either side) and the pointwise conjugate
    consistency F*(x, f(x, m)) = m f(x, m) - F(x, m).
    """
    model, st, _, _, _, solve = _separable_problem(cfg, "duality-crosscheck needs")
    res = solve(False)
    if res.residual_inf > 1e-6:
        raise CheckError(
            f"solved state residual {res.residual_inf:.3e} is above 1e-6; "
            "the saddle identities need a tighter solve"
        )
    state = res.state
    val1 = psi1(state, model).value
    bval = b_cost(state, model)
    aval = a_cost(state, model)
    scale = max(1.0, abs(val1))
    sp = st.space
    mbar = 0.5 * (state.m[:-1] + state.m[1:])
    sloc = model.coupling.f(sp, mbar)
    conj_gap = float(
        np.max(
            np.abs(
                model.coupling.conjugate(sp, sloc)
                - (mbar * sloc - model.coupling.F(sp, mbar))
            )
        )
    )
    checks = [
        {"name": "saddle:bcost", "gap": abs(bval + val1) / scale, "tol": 1e-6},
        {"name": "saddle:acost", "gap": abs(aval - val1) / scale, "tol": 1e-6},
        {"name": "saddle:sum", "gap": abs(aval + bval) / scale, "tol": 1e-6},
        {"name": "conjugate:pointwise", "gap": conj_gap, "tol": 1e-8},
    ]
    for entry in checks:
        entry["pass"] = bool(entry["gap"] <= entry["tol"])
    return {
        "psi1": val1,
        "b_cost": bval,
        "a_cost": aval,
        "residual_inf": res.residual_inf,
        "checks": checks,
        "all_pass": all(e["pass"] for e in checks),
    }


def cmd_duality_crosscheck(cfg, out_dir):
    payload = duality_crosscheck(cfg)
    return payload, {"duality.json": payload}


_COMMANDS = {
    "report": cmd_report,
    "solve-stationary": cmd_solve_stationary,
    "solve-mfg": cmd_solve_mfg,
    "solve-mfc": cmd_solve_mfc,
    "compare": cmd_compare,
    "bifurcate": cmd_bifurcate,
    "spectrum": cmd_spectrum,
    "crosscheck": cmd_crosscheck,
    "duality-crosscheck": cmd_duality_crosscheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgkit",
        description="Variational solvers for crowd-interaction games on the torus.",
    )
    parser.add_argument("--version", action="version", version=f"mfgkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("config", help="path to the JSON configuration")
        p.add_argument(
            "--output-dir",
            default=None,
            help="output directory (beats config and MFGKIT_OUTPUT_DIR)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = resolve_output_dir(args.output_dir, cfg)
    except (ConfigError, GridError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        payload, files = _COMMANDS[args.command](cfg, out_dir)
    except (ConfigError, GridError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, PositivityError, CurlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    text = None
    for fname, content in files.items():
        text = dump_json(out_dir / fname, content)
    if text is not None:
        sys.stdout.write(text)
    if not payload.get("all_pass", True):
        failed = [e["name"] for e in payload["checks"] if not e["pass"]]
        print(f"error: checks failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
