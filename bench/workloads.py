"""Seeded operation lists for the benchmark workloads, and their certificates.

Each workload is a fixed cycle of slots: a CLI command, a route or kind,
and a grid. Op ``i`` of a workload's pool runs slot ``i mod len(slots)``
with model parameters drawn by ``random.Random(f"{workload}:{i}")`` from
the ranges documented in ``bench/README.md``. A run of ``n`` ops takes the
first ``n`` ops of the pool, whole cycles only, and ``--seed`` draws the
order they run in. Every seed therefore runs the same draws, the known
failing ones included, so runs of two commits measure the same work.

This module imports neither numpy nor mfgkit, so the runner can use it
without loading either; only the child processes, with their BLAS threads
pinned, load them.
"""

from __future__ import annotations

import math
import random

PI2 = math.pi**2

# (command, route, grid shape) per slot. Stream ops are two of nine:
# they take most of the time and carry the known stalls at the default tol.
STATIONARY_SLOTS = (
    ("solve-stationary", "bb", (64,)),
    ("solve-stationary", "bb", (32, 32)),
    ("solve-stationary", "stream2d", (16, 16)),
    ("solve-stationary", "potential", (64,)),
    ("crosscheck", "bb", (64,)),
    ("solve-stationary", "bb", (64, 64)),
    ("solve-stationary", "stream2d", (32, 32)),
    ("solve-stationary", "potential", (32, 32)),
    ("crosscheck", "bb", (32, 32)),
)

# (command, kind, (space shape, n_t)). 1-D and 2-D ops alternate 2:1, every
# command meets both dimensions, and each 1-D (n, n_t) pair recurs. One 2-D
# op runs on 16^2, where splu dominates; a 16^2 compare or crosscheck takes
# 9-14 s, so the other 2-D ops run on 12^2 to keep a cycle near 25 s.
FINITE_HORIZON_SLOTS = (
    ("solve-mfg", "1d", ((32,), 16)),
    ("solve-mfc", "1d", ((64,), 32)),
    ("solve-mfg", "2d", ((16, 16), 8)),
    ("compare", "1d", ((64,), 16)),
    ("duality-crosscheck", "1d", ((32,), 32)),
    ("solve-mfc", "2d", ((12, 12), 8)),
    ("crosscheck", "1d", ((32,), 16)),
    ("solve-mfg", "1d", ((64,), 32)),
    ("compare", "2d", ((12, 12), 8)),
    ("solve-mfc", "1d", ((64,), 16)),
    ("compare", "1d", ((32,), 32)),
    ("duality-crosscheck", "2d", ((12, 12), 8)),
    ("duality-crosscheck", "1d", ((32,), 16)),
    ("crosscheck", "1d", ((64,), 32)),
    ("crosscheck", "2d", ((12, 12), 8)),
)

# (command, kind, (n, n_t)); the 2-D slots use an n x n space grid.
PERIODIC_SLOTS = (
    ("bifurcate", "1d", (16, 16)),
    ("spectrum", "1d", (16, 16)),
    ("bifurcate", "1d", (24, 24)),
    ("spectrum", "1d", (24, 24)),
    ("bifurcate", "2d", (8, 8)),
    ("spectrum", "2d", (8, 8)),
)

SLOTS = {
    "stationary": STATIONARY_SLOTS,
    "finite-horizon": FINITE_HORIZON_SLOTS,
    "periodic-branch": PERIODIC_SLOTS,
}
WORKLOADS = tuple(SLOTS)

# Seconds one cycle takes on a 2-core x86-64 Xeon, capped ops included. A
# run is a whole number of cycles sized to the requested time, so the op
# count depends only on the workload and ``--seconds``, never on how fast
# the machine is.
NOMINAL_CYCLE_S = {"stationary": 3.7, "finite-horizon": 27.0, "periodic-branch": 25.0}


def op_count(workload: str, seconds: float) -> int:
    """Ops in a run of about ``seconds``: whole cycles, at least one."""
    cycles = max(1, round(seconds / NOMINAL_CYCLE_S[workload]))
    return cycles * len(SLOTS[workload])


def cap_s(workload: str, route: str, grid) -> float:
    """Per-op wall-clock cap: 2.7 to 5.5 times the slowest certified op of
    the slot, on a 2-core x86-64 Xeon.

    Stationary maxima over 200 draws per slot: 1-D routes 0.18 s; 2-D flux
    0.52 s and potential 0.97 s; stream 1.03 s at 16^2 and 1.44 s at 32^2
    (1.87 s for one op of the pool). A stalled stream draw runs on for many
    minutes, so each of these caps still ends it. Dynamic and periodic ops
    never stall; the slowest take about 7 s.
    """
    if workload != "stationary":
        return 30.0
    if route == "stream2d":
        return 5.0
    return 1.0 if len(grid) == 1 else 3.0


WARMUP_CAP_S = 30.0

# Certificate bounds, fixed before any run.
STATIONARY_CERT_TOL = 1e-6
DYNAMIC_DERIVATIVE_TOL = 1e-7
TRIG_ENERGY_SLACK = 1e-8
CLOSED_FORM_GAP_TOL = 1e-8


def _wavevector(rng: random.Random, dim: int, kmax: int = 3) -> list[int]:
    while True:
        k = [rng.randint(-kmax, kmax) for _ in range(dim)]
        if any(k):
            return k


def _harmonic(rng: random.Random, dim: int, amp_max: float) -> dict:
    return {
        "amp": rng.uniform(-amp_max, amp_max),
        "k": _wavevector(rng, dim),
        "kind": rng.choice(("cos", "sin")),
    }


def _stationary_config(rng, command, route, shape):
    dim = len(shape)
    gamma = rng.uniform(1.5, 2.5)
    if route == "potential":
        alpha = rng.uniform(1.1, min(gamma, 2.0))
    else:
        alpha = rng.uniform(0.2, 0.8)
    model = {
        "kind": "congestion",
        "Q": [rng.uniform(-1.5, 1.5) for _ in range(dim)],
        "alpha": alpha,
        "gamma": gamma,
        "f_poly": [0.0, 1.0],
        "f_spatial": [_harmonic(rng, dim, 0.3) for _ in range(rng.randint(1, 3))],
    }
    cfg = {"model": model, "grid": {"dim": dim, "n": list(shape)}}
    if command == "crosscheck":
        cfg["seed"] = rng.randrange(2**31)
    else:
        cfg["solver"] = {"formulation": route}
    return cfg


def _finite_horizon_config(rng, command, kind, grid):
    shape, n_t = grid
    dim = len(shape)
    f_poly = rng.choice(([0.0, 1.0], [0.0, 0.5, 0.5]))
    cfg = {
        "eps": rng.uniform(0.3, 1.0),
        "model": {
            "kind": "separable",
            "f_poly": f_poly,
            "f_spatial": [_harmonic(rng, dim, 0.3)],
        },
        "grid": {"dim": dim, "n": list(shape), "n_t": n_t, "horizon": rng.uniform(0.25, 1.0)},
        "initial": {
            "m0": {"base": 1.0, "modes": [dict(_harmonic(rng, dim, 0.0), amp=rng.uniform(0.05, 0.4))]},
            "uT": {"base": 0.0, "modes": [_harmonic(rng, dim, 0.5)]},
        },
    }
    if command == "crosscheck":
        cfg["seed"] = rng.randrange(2**31)
    return cfg


def _periodic_config(rng, command, kind, grid):
    n, n_t = grid
    dim = 1 if kind == "1d" else 2
    return {
        "bifurcation": {
            "fprime1": PI2 * rng.uniform(-7.0, -5.0),
            "cubic": rng.uniform(0.5, 2.0),
            "f1": rng.uniform(-1.0, 1.0),
            "amplitudes": sorted(rng.uniform(1e-3, 1e-2) for _ in range(3)),
            "dim": dim,
            "n": n,
            "n_t": n_t,
            "spectrum_halfwidth": rng.uniform(0.05, 0.15),
        }
    }


_BUILDERS = {
    "stationary": _stationary_config,
    "finite-horizon": _finite_horizon_config,
    "periodic-branch": _periodic_config,
}


def make_op(workload: str, index: int) -> dict:
    """Operation ``index`` of ``workload``'s draw pool: command, route, config, cap."""
    slots = SLOTS[workload]
    command, route, grid = slots[index % len(slots)]
    rng = random.Random(f"{workload}:{index}")
    return {
        "index": index,
        "command": command,
        "route": route,
        "cap_s": cap_s(workload, route, grid),
        "config": _BUILDERS[workload](rng, command, route, grid),
    }


def make_ops(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` ops of the pool, in an order drawn from ``seed``."""
    ops = [make_op(workload, i) for i in range(count)]
    random.Random(f"{workload}:order:{seed}").shuffle(ops)
    return ops


def warmup_ops(workload: str) -> list[dict]:
    """One untimed op per distinct grid, with fixed draws.

    The mfgkit caches are keyed by grid, so these fill them before timing.
    Finite-horizon warm-ups run on the slot's space grid with four time
    steps (the caches there are keyed by the space grid alone); periodic
    warm-ups evaluate a two-point spectrum on the slot's space-time grid.
    """
    out, seen = [], set()
    for index, (command, route, grid) in enumerate(SLOTS[workload]):
        key = grid[0] if workload == "finite-horizon" else grid
        if key in seen:
            continue
        seen.add(key)
        rng = random.Random(f"{workload}:warmup:{index}")
        if workload == "finite-horizon":
            command, grid = "solve-mfg", (grid[0], 4)
        elif workload == "periodic-branch":
            command = "spectrum"
        cfg = _BUILDERS[workload](rng, command, route, grid)
        if workload == "periodic-branch":
            cfg["bifurcation"]["spectrum_points"] = 2
        out.append(
            {
                "index": -len(out) - 1,
                "command": command,
                "route": route,
                "cap_s": WARMUP_CAP_S,
                "config": cfg,
            }
        )
    return out


def certificates(command: str, dim: int, payload: dict) -> tuple[list, list]:
    """The certificates of one op's JSON summary.

    Returns ``(bounded, flags)``: ``bounded`` holds ``(name, value, bound)``
    triples that pass when ``value <= bound``, ``flags`` holds
    ``(name, passed)`` pairs.
    """
    bounded, flags = [], []
    if command == "solve-stationary":
        for key in ("residual_hjb_inf", "residual_fp_inf", "hbar_crosscheck_gap"):
            bounded.append((key, payload[key], STATIONARY_CERT_TOL))
        bounded.append(("abs_duality_gap", abs(payload["duality_gap"]), STATIONARY_CERT_TOL))
    elif command in ("solve-mfg", "solve-mfc"):
        for key in ("psi1_dm_inf", "psi2_du_inf"):
            bounded.append((key, payload[key], DYNAMIC_DERIVATIVE_TOL))
    elif command == "compare":
        flags.append(("ordered", payload["ordered"] is True))
    elif command in ("crosscheck", "duality-crosscheck"):
        for entry in payload["checks"]:
            bounded.append((entry["name"], entry["gap"], entry["tol"]))
        flags.append(("all_pass", payload["all_pass"] is True))
    elif command == "bifurcate":
        flags.append(("kernel_dim", payload["kernel_dim"] == 4 * dim))
        bounded.append(("kernel_trig_deficit", 1.0 - payload["kernel_trig_energy"], TRIG_ENERGY_SLACK))
    elif command == "spectrum":
        flags.append(("sign_change", payload["sign_change"] is True))
        bounded.append(("max_closed_form_gap", payload["max_closed_form_gap"], CLOSED_FORM_GAP_TOL))
    else:
        raise ValueError(f"no certificates defined for command {command!r}")
    return bounded, flags


def certify(op: dict, payload: dict) -> tuple[bool, float, list[str]]:
    """Check one op's certificates: ``(passed, headroom_decades, failed_names)``.

    The headroom is the minimum over bounded certificates of
    ``log10(bound / value)``; a value of exactly zero counts as 1e-300.
    """
    dim = len(op["config"]["grid"]["n"]) if "grid" in op["config"] else op["config"]["bifurcation"]["dim"]
    bounded, flags = certificates(op["command"], dim, payload)
    failed = [name for name, value, bound in bounded if not value <= bound]
    failed += [name for name, passed in flags if not passed]
    headroom = min(
        (math.log10(bound / max(value, 1e-300)) for _, value, bound in bounded),
        default=math.inf,
    )
    return not failed, headroom, failed
