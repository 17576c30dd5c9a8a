"""Layer tracer for the benchmark's traced run.

Wraps the public functions and methods of each mfgkit module from the
outside; no file under ``src/`` changes. A name bound by ``from x import
y`` lives in every module namespace that imported it, so each wrapped
function is replaced in every ``mfgkit.*`` namespace that holds it (for
example ``mfgkit.stationary.solve_bb`` and ``mfgkit.cli.solve_bb``).
Calls reached through a module attribute (``spectral.gradient``,
``np.linalg.svd``, ``sparse_linalg.splu``, ``sparse.bmat``) need one patch
on that module. :meth:`Tracer.uninstall` puts every original back.

A span opens when a call crosses into a layer from outside it; calls
within the same layer run unwrapped. A layer's self time is its spans'
duration minus the time of the spans they caused. Counts whose names end
in ``_computed`` are derived from array shapes, not measured, so they
repeat exactly for the same ops.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

LAYERS = (
    "cli",
    "config",
    "fields",
    "spectral",
    "hamiltonians",
    "functionals",
    "stationary",
    "dynamics",
    "bifurcation",
)

# numpy.linalg and scipy.sparse entry points mfgkit calls, by metric kind.
_LINALG = (
    (np.linalg, "svd", "svd"),
    (np.linalg, "eigvalsh", "eigvalsh"),
    (np.linalg, "lstsq", "lstsq"),
    (np.linalg, "solve", "solve"),
    (np.linalg, "qr", "qr"),
    (np.linalg, "norm", "norm"),
    (scipy.sparse.linalg, "splu", "splu"),
    (scipy.sparse, "bmat", "bmat"),
)

_STATIONARY_SOLVES = ("solve_bb", "solve_bb_2d_stream", "solve_potential_a_gt_1")
_OBJECTIVES = ("phi_bb", "phi_stream", "j_functional")
_DYNAMIC_SOLVES = ("solve_mfg", "solve_mfc")


def _dense_flops(kind: str, args, kwargs) -> float:
    """Textbook LAPACK flop counts from the argument shapes (0 for sparse)."""
    a = np.asarray(args[0]) if kind not in ("splu", "bmat") else None
    if a is None or a.ndim == 0:
        return 0.0
    if kind == "norm":
        return 2.0 * a.size
    if a.ndim < 2:
        return 0.0
    batch = float(np.prod(a.shape[:-2])) if a.ndim > 2 else 1.0
    m, n = a.shape[-2:]
    big, small = max(m, n), min(m, n)
    if kind == "svd":
        if kwargs.get("compute_uv", True) and (len(args) < 3 or args[2]):
            flops = 4.0 * big * big * small + 8.0 * big * small * small + 9.0 * small**3
        else:
            flops = 4.0 * big * small * small - 4.0 * small**3 / 3.0
    elif kind == "eigvalsh":
        flops = 4.0 * n**3 / 3.0
    elif kind == "lstsq":
        flops = 4.0 * big * small * small - 4.0 * small**3 / 3.0 + 2.0 * m * n
    elif kind == "solve":
        b = np.asarray(args[1])
        nrhs = 1 if b.ndim <= 1 else b.shape[-1]
        flops = 2.0 * n**3 / 3.0 + 2.0 * n * n * nrhs
    else:  # qr with Q formed
        flops = 4.0 * m * n * n - 4.0 * n**3 / 3.0
    return batch * flops


def _matrix_dim(kind: str, args, result) -> int:
    if kind == "bmat":
        return max(result.shape)
    shape = getattr(args[0], "shape", ())
    return max(shape) if len(shape) >= 2 else 0


def _array_points(args, kwargs) -> int:
    return sum(v.size for v in (*args, *kwargs.values()) if isinstance(v, np.ndarray))


class Tracer:
    """Per-layer call counts, self times and work counts for one child run."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self._command = None
        self.stats = defaultdict(lambda: defaultdict(float))
        self._evals = 0

    # -- bookkeeping -----------------------------------------------------

    def begin_op(self, command: str) -> None:
        """Attribute the following calls to ops of ``command``."""
        self._command = command

    def _add(self, key: str, value: float) -> None:
        self.stats[self._command][key] += value

    def _max(self, key: str, value: float) -> None:
        bucket = self.stats[self._command]
        bucket[key] = max(bucket[key], value)

    def _span(self, layer: str, fn, args, kwargs):
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            self._add(f"{layer}.calls", 1)
            self._add(f"{layer}.self_s", dur - frame[1])
            if stack:
                stack[-1][1] += dur

    # -- wrappers --------------------------------------------------------

    def _wrap(self, layer: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(layer, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_linalg(self, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("mfgkit"):
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = tracer._span("linalg", fn, args, kwargs)
            tracer._add(f"linalg.{kind}_s", time.perf_counter() - t0)
            tracer._add("linalg.flops_est_computed", _dense_flops(kind, args, kwargs))
            tracer._max("linalg.dim_max_computed", _matrix_dim(kind, args, result))
            return result

        return wrapper

    def _wrap_timed(self, fn, calls_key: str, time_key: str, on_result):
        """Inclusive timing of one function, counted even inside its own layer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            tracer._add(calls_key, 1)
            tracer._add(time_key, time.perf_counter() - t0)
            on_result(result)
            return result

        return wrapper

    def _wrap_counted(self, fn):
        """Count objective evaluations for ``stationary.evals_per_iter``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._evals += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_solve(self, fn, on_result):
        """Run ``on_result(result, evals)`` after each completed solve."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer._evals
            result = fn(*args, **kwargs)
            on_result(result, tracer._evals - before)
            return result

        return wrapper

    # -- hooks for layer-specific counts ----------------------------------

    def _after_spectral(self, args, kwargs, result):
        if not (self._stack and self._stack[-1][0] == "spectral"):
            self._add("spectral.points_computed", _array_points(args, kwargs))

    def _after_save_field(self, args, kwargs, result):
        fld = args[1] if len(args) > 1 else kwargs["fld"]
        self._add("fields.bytes_computed", fld.values.nbytes)

    def _after_dump_json(self, args, kwargs, result):
        self._add("config.bytes_computed", len(result.encode()))

    def _after_load_config(self, args, kwargs, result):
        self._add("config.bytes_computed", os.stat(args[0]).st_size)

    def _on_stationary(self, result, evals):
        self._add("stationary.iterations", result.iterations)
        self._add("stationary.evals", evals)

    def _on_dynamic(self, result, evals):
        self._add("dynamics.newton_iters", result.newton_iterations)
        self._add("dynamics.picard_sweeps", result.picard_sweeps)

    def _on_assemble(self, result):
        self._max("bifurcation.operator_dim_max_computed", max(result.shape))

    # -- install / uninstall ---------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "mfgkit" or name.startswith("mfgkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _layer_hook(self, layer: str, name: str):
        if layer == "spectral":
            return self._after_spectral
        return {
            "save_field": self._after_save_field,
            "dump_json": self._after_dump_json,
            "load_config": self._after_load_config,
        }.get(name)

    def install(self) -> None:
        """Patch every layer; call :meth:`uninstall` to restore."""
        modules = {layer: importlib.import_module(f"mfgkit.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    fn = obj
                    if layer == "stationary" and name in _STATIONARY_SOLVES:
                        fn = self._wrap_solve(fn, self._on_stationary)
                    elif layer == "dynamics" and name in _DYNAMIC_SOLVES:
                        fn = self._wrap_solve(fn, self._on_dynamic)
                    elif name in _OBJECTIVES:
                        fn = self._wrap_counted(fn)
                    elif layer == "bifurcation" and name == "assemble_A":
                        fn = self._wrap_timed(
                            fn,
                            "bifurcation.assemble_calls",
                            "bifurcation.assemble_s",
                            self._on_assemble,
                        )
                    wrapped = self._wrap(layer, fn, self._layer_hook(layer, name))
                    self._replace_everywhere(obj, wrapped)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, attr, self._wrap(layer, member))
        for owner, name, kind in _LINALG:
            self._patch(owner, name, self._wrap_linalg(kind, getattr(owner, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list:
        """``(owner, attribute)`` pairs currently replaced."""
        return [(owner, attr) for owner, attr, _ in self._patches]

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-command stats and their total, as plain dicts."""
        per_command = {cmd: dict(vals) for cmd, vals in self.stats.items() if cmd}
        total = defaultdict(float)
        for vals in per_command.values():
            for key, value in vals.items():
                if key.endswith("_max_computed"):
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        return {"total": dict(total), "per_command": per_command}
