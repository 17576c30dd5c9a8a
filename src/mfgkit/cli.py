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
    else bb). The route's descent hands over to a Newton polish of the
    PDE rows, which stops at ``solver.tol``.
    The system is first-order: ``eps`` must be absent or 0.
solve-mfg / solve-mfc
    Finite-horizon equilibrium / planner solve at viscosity ``eps``.
compare
    Both dynamic solves plus the payoff comparison.
bifurcate
    Amplitude continuation of the time-periodic branch. The rescaled
    periodic system has unit viscosity: ``eps`` must be absent or 1.
spectrum
    Eigenvalue branch of the linearized operator across the critical
    period, closed form vs numeric, as CSV; ``eps`` as for ``bifurcate``.
crosscheck
    Derivative/duality/transform identities on the configured instance
    (solves follow ``solver.formulation``); ``checks`` picks them by the
    names :mod:`mfgkit.config` lists per model kind. Failures exit with 3.
duality-crosscheck
    Both dual control costs against psi1 at a solved equilibrium, plus
    the pointwise conjugate consistency of F*; failures exit with 3.

Exit codes (``_EXIT_CODES``): 0 success; 1 solver or runtime failure, a
singular linear algebra step or running out of memory included; 2
malformed configuration or model, or an output directory that cannot be
created; 3 failed crosscheck.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial

import numpy as np

from . import __version__, bifurcation, spectral
from .config import (
    _setting,
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
    MFGKitError,
    ModelError,
    PositivityError,
    SolverError,
)
from .fields import DensityField, ScalarField, VectorField, save_field
from .functionals import (
    GameState,
    StationaryState,
    _a_cost,
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
        return {
            "kind": "congestion",
            "Q": list(model.Q),
            "alpha": model.alpha,
            "gamma": model.gamma,
            "f_poly": list(model.coupling.poly),
            "gamma_prime": model.gamma_prime,
            "beta": model.beta,
        }
    return {"kind": "separable", "f_poly": list(model.coupling.poly)}


def cmd_report(cfg, out_dir):
    model = build_model(cfg)
    grid = build_space_grid(cfg)
    state = StationaryState(grid, np.ones(grid.shape), np.zeros(grid.shape))
    r1 = psi1_hat(state, model)
    r2 = psi2_hat(state, model)
    mono = check_monotonicity(model, grid)
    return {
        "model": _describe_model(model),
        "grid": {"dim": grid.dim, "n": list(grid.shape)},
        "uniform_state": {"psi1_hat": r1.value, "psi2_hat": r2.value, "hbar_candidate": r2.value},
        "monotonicity": {
            "min_eig_pp": mono.min_eig_pp,
            "max_dm_h": mono.max_dm_h,
            "min_eig_block": mono.min_eig_block,
            "n_samples": mono.n_samples,
        },
    }


def _require_eps(cfg, value: float, reason: str) -> None:
    """A config's ``eps`` must be absent or ``value``, since ``reason``."""
    if "eps" in cfg and _setting(cfg, "eps") != value:
        raise ConfigError(f"'eps' must be {value:g} or absent: {reason} (got {cfg['eps']!r})")


def _congestion_problem(cfg, needs: str):
    """The configured stationary problem: (model, grid, route, solve), where
    solve() runs the route that ``solver.formulation`` names; ``auto`` picks
    the potential route iff alpha > 1, else the flux route ``bb``. A model
    that is not congestion raises ``ConfigError("<needs> model.kind =
    'congestion'")``, and so does an ``eps`` other than 0."""
    model = build_model(cfg)
    if not isinstance(model, CongestionHamiltonian):
        raise ConfigError(f"{needs} model.kind = 'congestion'")
    _require_eps(cfg, 0.0, "the stationary congestion system is first-order")
    grid = build_space_grid(cfg)
    s = solver_settings(cfg)
    route = s["formulation"]
    if route == "auto":
        route = "potential" if model.alpha > 1.0 else "bb"
    solver = {"bb": solve_bb, "stream2d": solve_bb_2d_stream, "potential": solve_potential_a_gt_1}
    return model, grid, route, partial(solver[route], model, grid, tol=s["tol"])


def cmd_solve_stationary(cfg, out_dir):
    _, grid, route, solve = _congestion_problem(cfg, "solve-stationary needs")
    res = solve()
    save_field(out_dir / "m.field", DensityField(grid, res.state.m))
    save_field(out_dir / "u.field", ScalarField(grid, res.state.u))
    save_field(out_dir / "w.field", VectorField(grid, res.w))
    return {
        "route": route,
        "hbar": res.state.Hbar,
        "value": res.value,
        "iterations": res.iterations,
        "grad_inf": res.grad_inf,
        "newton_iterations": res.newton_iterations,
        "krylov_iterations": sum(res.krylov_iterations),
        "handoff_curl_inf": res.handoff_curl_inf,
        "duality_gap": res.duality_gap,
        "hbar_crosscheck_gap": res.hbar_crosscheck_gap,
        "residual_hjb_inf": res.residual_hjb_inf,
        "residual_fp_inf": res.residual_fp_inf,
        "m_min": float(res.state.m.min()),
        "m_max": float(res.state.m.max()),
    }


def _separable_problem(cfg, needs: str):
    """The configured finite-horizon problem: (model, time grid, m0, uT,
    eps, solve), where solve(planner) runs the equilibrium or planner
    solver with ``solver.tol``. A model that is not separable raises
    ``ConfigError("<needs> model.kind = 'separable'")``."""
    model = build_model(cfg)
    if not isinstance(model, SeparableHamiltonian):
        raise ConfigError(f"{needs} model.kind = 'separable'")
    st = build_time_grid(cfg)
    m0 = build_m0(st.space, cfg)
    uT = build_uT(st.space, cfg)
    eps, s = _setting(cfg, "eps"), solver_settings(cfg)

    def solve(planner: bool):
        solver = solve_mfc if planner else solve_mfg
        return solver(model, st, m0, uT, eps=eps, tol=s["tol"])

    return model, st, m0, uT, eps, solve


def _dynamic_solve(cfg, out_dir, planner: bool):
    model, st, _, _, eps, solve = _separable_problem(cfg, "the dynamic solvers need")
    res = solve(planner)
    state = res.state
    save_field(out_dir / "m.field", DensityField(st, state.m))
    save_field(out_dir / "u.field", ScalarField(st, state.u))
    cost = social_cost(state, model)
    payload = {
        "problem": "planner" if planner else "equilibrium",
        "eps": eps,
        "newton_iterations": res.newton_iterations,
        "krylov_iterations": sum(res.krylov_iterations),
        "residual_inf": res.residual_inf,
        "m_min": res.min_m,
        "psi1": res.psi1,
        "psi2": res.psi2,
        "psi1_dm_inf": res.psi1_dm_inf,
        "psi2_du_inf": res.psi2_du_inf,
        "social_cost": cost,
    }
    if not planner:
        payload["cost_identity_gap"] = abs(cost + res.psi2)
    return payload


def cmd_compare(cfg, out_dir):
    model, _, _, _, _, solve = _separable_problem(cfg, "compare needs")
    res_g, res_c = solve(False), solve(True)
    cmp = compare_equilibrium_vs_planner(res_g, res_c, model)
    return {
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


def _periodic_problem(cfg):
    """The ``bifurcation`` settings and their unit-period grid. The rescaled
    periodic system has unit viscosity, so ``eps`` must be absent or 1."""
    _require_eps(cfg, 1.0, "the rescaled periodic system has unit viscosity")
    b = bifurcation_settings(cfg)
    return b, bifurcation.periodic_grid(b["dim"], b["n"], b["n_t"])


def cmd_bifurcate(cfg, out_dir):
    b, st = _periodic_problem(cfg)
    coupling = bifurcation.default_periodic_coupling(b["fprime1"], b["cubic"], b["f1"])
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
    return {
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


def cmd_spectrum(cfg, out_dir):
    b, st = _periodic_problem(cfg)
    Tbar = bifurcation.critical_period(b["fprime1"])
    hw = b["spectrum_halfwidth"]
    Ts = np.linspace(Tbar * (1.0 - hw), Tbar * (1.0 + hw), b["spectrum_points"])
    rows = []
    for T in Ts:
        info = bifurcation.sigma_from_operator(st, float(T), b["fprime1"])
        rows.append((float(T), info["h_root"], info["eig"]))
    dump_csv(out_dir / "spectrum.csv", ["T", "sigma_closed_form", "sigma_numeric"], rows)
    return {
        "fprime1": b["fprime1"],
        "Tbar": Tbar,
        "slope_closed_form": bifurcation.sigma_slope_exact(b["fprime1"]),
        "points": len(rows),
        "sign_change": bool(rows[0][2] * rows[-1][2] < 0.0),
        "max_closed_form_gap": max(abs(r[1] - r[2]) for r in rows),
    }


def _fd_directional(fun, h):
    """Fourth-order central difference of a scalar path t -> fun(t)."""
    d1 = (fun(h) - fun(-h)) / (2.0 * h)
    d2 = (fun(0.5 * h) - fun(-0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _random_game_state(model, st, m0, uT, eps, rng):
    # Per time slice an m field, then a u field, as slice-by-slice draws would.
    mu = spectral.random_band_limited_stack(
        st.space, rng, (st.num_time_nodes, 2), amplitude=(0.3, 0.5)
    )
    return GameState(st, 1.0 + mu[:, 0], mu[:, 1], m0, uT, eps=eps)


def _check_separable(cfg, checks, rng):
    model, st, m0, uT, eps, solve = _separable_problem(cfg, "crosscheck needs")
    results = []
    if "derivatives" in checks or "two-forms" in checks:
        state = _random_game_state(model, st, m0, uT, eps, rng)
        dm = spectral.random_band_limited_stack(st.space, rng, (st.n_t + 1,))
        du = spectral.random_band_limited_stack(st.space, rng, (st.n_t + 1,))
        reports = {"psi1": psi1(state, model), "psi2": psi2(state, model)}
        if "derivatives" in checks:
            for name, fn, rep, direction, key in (
                ("psi1_dm", psi1, reports["psi1"], dm, "dm"),
                ("psi2_du", psi2, reports["psi2"], du, "du"),
            ):
                grad_field = getattr(rep, key)
                analytic = spectral.integrate_space_time(st, grad_field * direction)

                def value_at(t, which=fn, dirn=direction, k=key):
                    m_t = state.m + (t * dirn if k == "dm" else 0.0)
                    u_t = state.u + (t * dirn if k == "du" else 0.0)
                    probe = GameState(st, m_t, u_t, m0, uT, eps=eps)
                    return which(probe, model).value

                fd = _fd_directional(value_at, 1e-4)
                scale = max(abs(analytic), abs(fd), 1e-12)
                results.append((f"derivative:{name}", abs(fd - analytic) / scale, 1e-6))
        if "two-forms" in checks:
            for name, rep in reports.items():
                gap = abs(rep.value - rep.extras["value_u_weighted"])
                scale = max(1.0, abs(rep.value))
                results.append((f"two-forms:{name}", gap / scale, 1e-10))
    if "duality" in checks or "mass" in checks:
        res = solve(False)
        if "duality" in checks:
            cost = social_cost(res.state, model)
            scale = max(1.0, abs(res.psi2))
            results.append(("duality:cost", abs(cost + res.psi2) / scale, 1e-8))
        if "mass" in checks:
            masses = res.state.m.reshape(st.num_time_nodes, -1).mean(axis=1)
            results.append(("mass:slices", float(np.max(np.abs(masses - 1.0))), 1e-8))
    return results


def _check_congestion(cfg, checks, rng):
    model, grid, _, solve = _congestion_problem(cfg, "crosscheck needs")
    results = []
    if "transforms" in checks:
        m = 1.0 + spectral.random_band_limited(grid, rng, amplitude=0.3)
        m /= m.mean()
        u = spectral.random_band_limited(grid, rng, amplitude=0.2)
        w = w_from_u(model, grid, m, u)
        u2, rep = u_from_w(model, grid, m, w, curl_tol=np.inf)
        w2 = w_from_u(model, grid, m, u2)
        results.append(("transforms:roundtrip", float(np.max(np.abs(w2 - w))), 1e-8))
        results.append(("transforms:curl", rep["curl_residual_inf"], 1e-8))
    if {"duality", "hbar"} & set(checks):
        res = solve()
        if "duality" in checks:
            results.append(("duality:stationary", abs(res.duality_gap), 1e-6))
        if "hbar" in checks:
            results.append(("hbar:crosscheck", abs(res.hbar_crosscheck_gap), 1e-6))
    return results


def _verdict(checks, **payload) -> dict:
    """The crosscheck payload: each (name, gap, tol) check with its ``pass``,
    and ``all_pass``."""
    entries = [{"name": n, "gap": g, "tol": t, "pass": bool(g <= t)} for n, g, t in checks]
    return dict(payload, checks=entries, all_pass=all(e["pass"] for e in entries))


# Crosscheck names and runner per model kind; an empty or absent "checks"
# runs every name of the kind.
_CHECKS = {
    "separable": (("derivatives", "two-forms", "duality", "mass"), _check_separable),
    "congestion": (("transforms", "duality", "hbar"), _check_congestion),
}


def cmd_crosscheck(cfg, out_dir):
    kind = "separable" if isinstance(build_model(cfg), SeparableHamiltonian) else "congestion"
    names, run_checks = _CHECKS[kind]
    checks = cfg.get("checks") or names
    for name in checks:
        if name not in names:
            raise ConfigError(
                f"unknown check '{name}' for a {kind} model (valid: {', '.join(names)})"
            )
    rng = spectral.Sampler(_setting(cfg, "seed"))
    return _verdict(run_checks(cfg, checks, rng))


def duality_crosscheck(cfg, out_dir=None) -> dict:
    """Both dual control costs against psi1 at a solved equilibrium.

    Solves the configured dynamic game, then checks the saddle identities
    B = -psi1 and A = +psi1 (the two control problems bound the same
    saddle value from either side) and the pointwise conjugate
    consistency F*(x, f(x, m)) = m f(x, m) - F(x, m). It writes no field
    files, so ``out_dir`` is unused.
    """
    model, st, _, _, _, solve = _separable_problem(cfg, "duality-crosscheck needs")
    res = solve(False)
    if res.residual_inf > 1e-6:
        raise CheckError(
            f"solved state residual {res.residual_inf:.3e} is above 1e-6; "
            "the saddle identities need a tighter solve"
        )
    state = res.state
    val1 = res.psi1
    bval = b_cost(state, model)
    aval, mbar, sloc, fstar = _a_cost(state, model)
    scale = max(1.0, abs(val1))
    conj_gap = float(np.max(np.abs(fstar - (mbar * sloc - model.coupling.F(st.space, mbar)))))
    checks = [
        ("saddle:bcost", abs(bval + val1) / scale, 1e-6),
        ("saddle:acost", abs(aval - val1) / scale, 1e-6),
        ("saddle:sum", abs(aval + bval) / scale, 1e-6),
        ("conjugate:pointwise", conj_gap, 1e-8),
    ]
    return _verdict(checks, psi1=val1, b_cost=bval, a_cost=aval, residual_inf=res.residual_inf)


# Each command: the function that returns its payload, and the summary file
# main writes the payload to.
_COMMANDS = {
    "report": (cmd_report, "report.json"),
    "solve-stationary": (cmd_solve_stationary, "result.json"),
    "solve-mfg": (partial(_dynamic_solve, planner=False), "result.json"),
    "solve-mfc": (partial(_dynamic_solve, planner=True), "result.json"),
    "compare": (cmd_compare, "result.json"),
    "bifurcate": (cmd_bifurcate, "branch.json"),
    "spectrum": (cmd_spectrum, "spectrum.json"),
    "crosscheck": (cmd_crosscheck, "crosscheck.json"),
    "duality-crosscheck": (duality_crosscheck, "duality.json"),
}

# The exit code of each error class; success exits 0.
_EXIT_CODES = {
    (ConfigError, GridError, ModelError): 2,
    (SolverError, PositivityError, CurlError, np.linalg.LinAlgError, MemoryError): 1,
    CheckError: 3,
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line of :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="mfgkit",
        description="Variational solvers for crowd-interaction games on the torus.",
    )
    parser.add_argument("--version", action="version", version=f"mfgkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON configuration")
        p.add_argument(
            "--output-dir",
            default=None,
            help="output directory (beats config and MFGKIT_OUTPUT_DIR)",
        )
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    run, summary = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        out_dir = resolve_output_dir(args.output_dir, cfg)
        payload = run(cfg, out_dir)
    except (MFGKitError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    sys.stdout.write(dump_json(out_dir / summary, payload))
    if not payload.get("all_pass", True):
        failed = [e["name"] for e in payload["checks"] if not e["pass"]]
        print(f"error: checks failed: {', '.join(failed)}", file=sys.stderr)
        return _EXIT_CODES[CheckError]
    return 0


if __name__ == "__main__":
    sys.exit(main())
