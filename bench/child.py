"""One benchmark child process: set up, then run ops one at a time.

Usage: ``python3 bench/child.py SPEC.json``. The spec names the workload,
seed, op count and paths (see ``run.py``). The parent sets the BLAS thread
variables in this process's environment, so they hold before numpy loads.

The child runs ``op_count`` ops (none for a set-up-only child), with the
tracer installed when ``traced`` is set.

Every op goes through ``mfgkit.cli.main`` under a wall-clock cap enforced
with ``signal.setitimer``. The child writes one JSON report and exits 0;
an op that fails is recorded, never raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path


class OpCapExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so no CLI handler swallows it."""


def _on_alarm(signum, frame):
    raise OpCapExceeded()


def _digest_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def run_op(main, op: dict, work: Path) -> dict:
    """Run one op through the CLI under its cap; return its record.

    The record holds the latency, the exit code and, on exit 0, the JSON
    summary and artifact digests. A capped op has ``capped`` set and exit
    code None; an exception that escapes the CLI is recorded as exit code
    ``"exception:<type>"``, as a nonzero exit of the command would be.
    """
    op_dir = work / f"op{op['index']}"
    out_dir = op_dir / "out"
    out_dir.mkdir(parents=True)
    cfg_path = op_dir / "config.json"
    cfg_path.write_text(json.dumps(op["config"], sort_keys=True))
    stdout, stderr = io.StringIO(), io.StringIO()
    capped = False
    rc = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op["cap_s"])
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([op["command"], str(cfg_path), "--output-dir", str(out_dir)])
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    except OpCapExceeded:
        capped = True
    except Exception as exc:  # noqa: BLE001 - any escape is one failed op
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        traceback.print_exc()
        rc = f"exception:{type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    latency = time.perf_counter() - t0
    record = {
        "index": op["index"],
        "latency_s": latency,
        "rc": rc,
        "capped": capped,
        "payload": None,
        "digests": {},
    }
    if rc == 0:
        record["payload"] = json.loads(stdout.getvalue())
        record["digests"] = _digest_dir(out_dir)
    shutil.rmtree(op_dir)
    return record


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "bench"))
    import numpy
    import scipy

    import workloads
    from mfgkit import cli

    work = Path(spec["work"])
    signal.signal(signal.SIGALRM, _on_alarm)
    warmups = workloads.warmup_ops(spec["workload"])
    ops = workloads.make_ops(spec["workload"], spec["seed"], spec["op_count"])
    warm = [run_op(cli.main, op, work) for op in warmups]
    setup_s = time.monotonic() - spec["spawned_at"]
    report = {
        "setup_s": setup_s,
        "warmups": [{"rc": r["rc"], "digests": r["digests"]} for r in warm],
        "warmup_latency_s": [r["latency_s"] for r in warm],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas": _blas_name(numpy),
    }
    tracer = None
    if spec["traced"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    records = []
    t_start = time.perf_counter()
    try:
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op["command"])
            records.append(run_op(cli.main, op, work))
    finally:
        report["wall_s"] = time.perf_counter() - t_start
        if tracer is not None:
            tracer.uninstall()
    report["ops"] = records
    if tracer is not None:
        report["layers"] = tracer.summary()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["report"]).write_text(json.dumps(report))
    return 0


def _blas_name(numpy) -> str:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
