"""Self-tests of the benchmark: ``python3 -m pytest bench/test_bench.py``."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_op_list(workload):
    n = 3 * len(workloads.SLOTS[workload])
    first = workloads.make_ops(workload, 7, n)
    assert first == workloads.make_ops(workload, 7, n)
    other = workloads.make_ops(workload, 8, n)
    # Another seed runs the same draws in another order.
    assert first != other
    assert sorted(first, key=lambda op: op["index"]) == sorted(other, key=lambda op: op["index"])


def _harmonics_in_range(terms, dim, amp_lo, amp_hi):
    for term in terms:
        assert amp_lo <= term["amp"] <= amp_hi
        assert len(term["k"]) == dim and any(term["k"])
        assert all(abs(k) <= 3 for k in term["k"])
        assert term["kind"] in ("cos", "sin")


def _check_stationary(op):
    cfg = op["config"]
    model = cfg["model"]
    dim = cfg["grid"]["dim"]
    route = op["route"]
    assert len(model["Q"]) == dim and all(-1.5 <= q <= 1.5 for q in model["Q"])
    assert 1.5 <= model["gamma"] <= 2.5
    if route == "potential":
        assert 1.1 < model["alpha"] <= min(model["gamma"], 2.0)
    else:
        assert 0.2 <= model["alpha"] <= 0.8
    assert model["f_poly"] == [0.0, 1.0]
    assert 1 <= len(model["f_spatial"]) <= 3
    _harmonics_in_range(model["f_spatial"], dim, -0.3, 0.3)
    assert cfg.get("solver", {}).get("formulation", "bb") == route
    assert "solver" not in cfg or "tol" not in cfg["solver"]


def _check_finite_horizon(op):
    cfg = op["config"]
    dim = cfg["grid"]["dim"]
    assert 0.3 <= cfg["eps"] <= 1.0
    assert cfg["model"]["f_poly"] in ([0.0, 1.0], [0.0, 0.5, 0.5])
    _harmonics_in_range(cfg["model"]["f_spatial"], dim, -0.3, 0.3)
    assert len(cfg["model"]["f_spatial"]) == 1
    (m0_mode,) = cfg["initial"]["m0"]["modes"]
    assert 0.05 <= m0_mode["amp"] <= 0.4
    _harmonics_in_range(cfg["initial"]["uT"]["modes"], dim, -0.5, 0.5)
    assert 0.25 <= cfg["grid"]["horizon"] <= 1.0
    if op["index"] < 0:  # warm-ups use four time steps
        assert cfg["grid"]["n_t"] == 4
    elif dim == 1:
        assert cfg["grid"]["n_t"] in (16, 32)
    else:
        assert cfg["grid"]["n_t"] == 8
    assert cfg["grid"]["n"] in ([32], [64], [12, 12], [16, 16])


def _check_periodic(op):
    b = op["config"]["bifurcation"]
    assert -7.0 <= b["fprime1"] / math.pi**2 <= -5.0
    assert 0.5 <= b["cubic"] <= 2.0
    assert -1.0 <= b["f1"] <= 1.0
    amps = b["amplitudes"]
    assert len(amps) == 3 and amps == sorted(amps)
    assert all(1e-3 <= a <= 1e-2 for a in amps)
    assert 0.05 <= b["spectrum_halfwidth"] <= 0.15
    assert (b["dim"], b["n"], b["n_t"]) in ((1, 16, 16), (1, 24, 24), (2, 8, 8))


_RANGE_CHECKS = {
    "stationary": _check_stationary,
    "finite-horizon": _check_finite_horizon,
    "periodic-branch": _check_periodic,
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_draws_stay_inside_stated_ranges(workload):
    for op in workloads.make_ops(workload, 0, 40 * len(workloads.SLOTS[workload])):
        _RANGE_CHECKS[workload](op)
    for op in workloads.warmup_ops(workload):
        _RANGE_CHECKS[workload](op)


def _namespace_snapshot():
    import numpy as np
    import scipy.sparse
    import scipy.sparse.linalg

    owners = [m for name, m in sys.modules.items() if name == "mfgkit" or name.startswith("mfgkit.")]
    owners += [np.linalg, scipy.sparse, scipy.sparse.linalg]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    return {(id(owner), attr): value for owner in owners for attr, value in list(vars(owner).items())}


def test_tracer_restores_every_patched_name():
    import tracer as tracer_mod
    from mfgkit import cli, dynamics

    before = _namespace_snapshot()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        patched = {attr for _, attr in tr.patched}
        assert {"solve_bb", "psi2", "gradient", "svd", "splu", "bmat"} <= patched
        assert cli.solve_bb is not before[(id(cli), "solve_bb")]
        assert dynamics.psi2 is not before[(id(dynamics), "psi2")]
    finally:
        tr.uninstall()
    assert tr.patched == []
    after = _namespace_snapshot()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_escaped_exception_is_one_failed_op(tmp_path):
    import child

    def failing_main(argv):
        raise ValueError("singular")

    op = dict(workloads.make_op("stationary", 0), cap_s=5.0)
    record = child.run_op(failing_main, op, tmp_path)
    assert record["rc"] == "exception:ValueError"
    assert not record["capped"] and record["payload"] is None
    (rec,) = run.evaluate("stationary", [record])
    assert not rec["certified"] and rec["why"] == "exit exception:ValueError"


def test_tail_latency_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(1, 101)]
    value, pct, beyond = run.tail_latency(lat)
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    value, pct, _ = run.tail_latency(lat[:12])
    assert pct == 50.0 and value == 6.5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_certifies_and_replays_identically(workload):
    runner = run.Runner(workload, seed=3)
    try:
        timed = runner.child("timed", 2)
        traced = runner.child("traced", 2, traced=True)
    finally:
        runner.cleanup()
    records = run.evaluate(workload, timed["ops"])
    assert sorted(r["index"] for r in records) == [0, 1]
    # Stationary draws may stall or fail their certificates (known
    # defects); every op must still get a verdict.
    assert all(r["certified"] or r["why"] for r in records)
    assert run.warmups_agree([timed, traced])
    assert [r["digests"] for r in records] == [r["digests"] for r in traced["ops"]]
    assert traced["layers"]["total"]["cli.calls"] == 2
