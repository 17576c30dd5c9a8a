"""mfgkit benchmark runner.

Usage, from the root of a checkout:

    python3 bench/run.py --workload stationary --seed 1 --seconds 20 --trace 0

Each workload runs as a closed loop (one client, one op at a time)
through ``mfgkit.cli.main`` in a fresh child process, with BLAS threads
pinned before numpy loads. ``--trace 0`` times the ops and prints the
end-to-end metrics; set-up is repeated in three children and its median
reported. ``--trace 1`` times the ops, then replays the same ops in a
traced child, compares every artifact byte for byte, and prints the
per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``bench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# One BLAS thread: on a shared 2-core host two threads ran both slower and
# less steadily (see bench/README.md).
BLAS_THREADS = 1
SETUP_REPEATS = 3

# Printed on every run.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("fail_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("cert_headroom_dec", "dec"),
    ("setup_s", "s"),
)
# Printed and gated (in the JSON line and BENCHMARK.json). The others are
# printed only: see bench/README.md for their measured spreads.
END_TO_END_GATED = ("ops_per_s", "peak_rss_mb", "setup_s")

PER_LAYER = (
    ("spectral.calls", "count"),
    ("spectral.self_s", "s"),
    ("spectral.points_computed", "count"),
    ("hamiltonians.calls", "count"),
    ("hamiltonians.self_s", "s"),
    ("functionals.calls", "count"),
    ("functionals.self_s", "s"),
    ("stationary.self_s", "s"),
    ("stationary.iterations", "count"),
    ("stationary.evals_per_iter", "ratio"),
    ("dynamics.self_s", "s"),
    ("dynamics.newton_iters", "count"),
    ("dynamics.picard_sweeps", "count"),
    ("bifurcation.self_s", "s"),
    ("bifurcation.assemble_calls", "count"),
    ("bifurcation.assemble_s", "s"),
    ("bifurcation.operator_dim_max_computed", "count"),
    ("linalg.calls", "count"),
    ("linalg.self_s", "s"),
    ("linalg.svd_s", "s"),
    ("linalg.eigvalsh_s", "s"),
    ("linalg.lstsq_s", "s"),
    ("linalg.solve_s", "s"),
    ("linalg.splu_s", "s"),
    ("linalg.bmat_s", "s"),
    ("linalg.dim_max_computed", "count"),
    ("linalg.flops_est_computed", "flop"),
    ("fields.self_s", "s"),
    ("fields.bytes_computed", "B"),
    ("config.self_s", "s"),
    ("config.bytes_computed", "B"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cache_sizes() -> str:
    """Per-level cache sizes of CPU 0, from sysfs (Linux), else ``unknown``."""
    found = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            found[f"L{level}"] = size
    return " ".join(f"{k}={v}" for k, v in sorted(found.items())) or "caches=unknown"


class Runner:
    """Spawns the child processes of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, budget_s: float = 170.0):
        self.workload = workload
        self.seed = seed
        self.budget_s = budget_s
        self.deadline = time.monotonic() + budget_s
        self.work = ROOT / ".bench_runs" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self._count = 0

    def child(self, label: str, op_count: int, traced: bool = False) -> dict:
        self._count += 1
        tag = f"{label}{self._count}"
        work = self.work / tag
        work.mkdir(parents=True)
        spec = {
            "root": str(ROOT),
            "work": str(work),
            "report": str(self.work / f"{tag}.json"),
            "workload": self.workload,
            "seed": self.seed,
            "op_count": op_count,
            "traced": traced,
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec["spawned_at"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            env=self.env,
            cwd=str(ROOT),
        )
        try:
            rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{label} child exceeded the {self.budget_s:.0f} s run budget")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0:
            raise BenchError(f"{label} child exited with code {rc}")
        return json.loads(Path(spec["report"]).read_text())

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def evaluate(workload: str, records: list) -> list:
    """Certify every op record in place; return the ops with their verdicts."""
    for rec in records:
        op = workloads.make_op(workload, rec["index"])
        rec["certified"] = False
        rec["headroom"] = None
        if rec["capped"]:
            rec["why"] = "capped"
        elif rec["rc"] != 0:
            rec["why"] = f"exit {rec['rc']}"
        else:
            passed, headroom, failed = workloads.certify(op, rec["payload"])
            rec["certified"] = passed
            rec["headroom"] = headroom
            rec["why"] = None if passed else "certificate " + ",".join(failed)
    return records


def tail_latency(latencies: list) -> tuple[float, float, int]:
    """``(value, percentile, beyond)``: the highest order statistic with at
    least ten samples beyond it, or the median when that falls below it."""
    lat = sorted(latencies)
    n = len(lat)
    k = n - 10
    if k < (n + 1) // 2:
        return statistics.median(lat), 50.0, n // 2
    return lat[k - 1], 100.0 * k / n, n - k


def end_to_end(records: list, wall_s: float, setups: list, rss_mb: float) -> tuple[dict, dict]:
    ok = [r for r in records if r["certified"]]
    lat = [r["latency_s"] for r in ok]
    if not lat:
        raise BenchError("no op was certified")
    tail, pct, beyond = tail_latency(lat)
    headrooms = [r["headroom"] for r in ok if r["headroom"] is not None and math.isfinite(r["headroom"])]
    values = {
        "ops_per_s": len(ok) / wall_s,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "fail_frac": 1.0 - len(ok) / len(records),
        "peak_rss_mb": rss_mb,
        "cert_headroom_dec": min(headrooms) if headrooms else float("nan"),
        "setup_s": statistics.median(setups),
    }
    notes = {
        "ops_per_s": f"{len(ok)} certified in {wall_s:.2f} s of timed wall",
        "op_p50_s": f"over {len(ok)} certified ops",
        "op_tail_s": f"p{pct:.1f}, {beyond} of {len(ok)} samples beyond",
        "fail_frac": _failure_note(records),
        "peak_rss_mb": "timed child",
        "cert_headroom_dec": "min over certified ops of log10(bound/value)",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
    }
    return values, notes


def _failure_note(records: list) -> str:
    reasons = {}
    for r in records:
        if not r["certified"]:
            reasons[r["why"]] = reasons.get(r["why"], 0) + 1
    detail = "; ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
    failed = sum(reasons.values())
    return f"{failed} of {len(records)} attempted" + (f" ({detail})" if detail else "")


def warmups_agree(reports: list) -> bool:
    """Warm-ups are the same configs in every child: same exit, same bytes."""
    first = reports[0]["warmups"]
    return all(w["rc"] == 0 for w in first) and all(r["warmups"] == first for r in reports[1:])


def layer_metrics(traced: dict, timed_wall: float) -> dict:
    total = traced["layers"]["total"]
    values = {name: float(total.get(name, 0.0)) for name, _ in PER_LAYER}
    iters = total.get("stationary.iterations", 0.0)
    values["stationary.evals_per_iter"] = total.get("stationary.evals", 0.0) / iters if iters else 0.0
    values["trace.overhead_frac"] = traced["wall_s"] / timed_wall - 1.0
    return values


def _print_layer_shares(per_command: dict) -> None:
    print("self time by layer, per command (share of the command's traced self time):")
    for command, stats in sorted(per_command.items()):
        selfs = {k[: -len(".self_s")]: v for k, v in stats.items() if k.endswith(".self_s")}
        whole = sum(selfs.values()) or 1.0
        ranked = sorted(selfs.items(), key=lambda kv: -kv[1])[:5]
        print(f"  {command:20s} " + "  ".join(f"{k} {100 * v / whole:.0f}%" for k, v in ranked))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the finally clauses stop the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "mfgkit" / "cli.py").is_file():
        print(f"error: no mfgkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # Each timed child runs for about --seconds; allow four times that,
    # plus set-up, before giving up on a run.
    timed_children = 2 if args.trace else 1
    budget_s = max(170.0, 60.0 + 4.0 * args.seconds * timed_children)
    runner = Runner(args.workload, args.seed, budget_s)
    try:
        return _run(args, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()


def _run(args, runner: Runner) -> int:
    count = workloads.op_count(args.workload, args.seconds)
    timed_setups = [] if args.trace else [runner.child("setup", 0) for _ in range(SETUP_REPEATS - 1)]
    timed = runner.child("timed", count)
    records = evaluate(args.workload, timed["ops"])
    # Failed ops (capped, nonzero exit, failed certificate) are counted in
    # ``failed``; ``correct`` turns false when outputs are not reproducible.
    correct = warmups_agree([timed, *timed_setups])
    print(
        f"env: nproc={_nproc()} blas_threads={BLAS_THREADS} {_cache_sizes()} "
        f"python={timed['python']} numpy={timed['numpy']} scipy={timed['scipy']} "
        f"blas={timed['blas']} machine={platform.machine()} "
        f"workload={args.workload} seed={args.seed}"
    )
    slots = workloads.SLOTS[args.workload]
    print("op caps by slot: " + " ".join(f"{workloads.cap_s(args.workload, r, g):g}" for _, r, g in slots) + " s")
    print("warm-up latencies: " + " ".join(f"{t:.3f}" for t in timed["warmup_latency_s"]) + " s")
    if args.trace:
        traced = runner.child("traced", count, traced=True)
        mismatched = 0
        for rec, again in zip(records, traced["ops"]):
            # An op capped on either side has nothing to compare.
            if rec["capped"] or again["capped"]:
                continue
            if rec["digests"] != again["digests"] or rec["rc"] != again["rc"]:
                mismatched += 1
                rec["certified"] = False
                rec["why"] = "artifact mismatch"
        correct &= mismatched == 0 and len(traced["ops"]) == len(records)
        correct &= warmups_agree([timed, traced])
        metrics = layer_metrics(traced, timed["wall_s"])
        units = dict(PER_LAYER)
        print(f"traced replay of {len(records)} ops: {mismatched} artifact mismatches")
        for name, value in metrics.items():
            print(f"  {name:42s} {value:.6g} {units[name]}")
        _print_layer_shares(traced["layers"]["per_command"])
    else:
        setups = [r["setup_s"] for r in (*timed_setups, timed)]
        values, notes = end_to_end(records, timed["wall_s"], setups, timed["peak_rss_mb"])
        units = dict(END_TO_END)
        for name, value in values.items():
            print(f"  {name:18s} {value:.6g} {units[name]}  ({notes[name]})")
        metrics = {name: values[name] for name in END_TO_END_GATED}
    failed = sum(1 for r in records if not r["certified"])
    print(f"correct: {str(correct).lower()} ({failed} of {len(records)} ops failed)")
    result = {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
