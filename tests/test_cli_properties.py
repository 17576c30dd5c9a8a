"""Property sweep of the command line over the config tables.

Each example draws a command and a config from the section tables of
:mod:`mfgkit.config` (``_TOP``, ``_MODEL``, ``_GRID``, ``_SOLVER``,
``_BIFURCATION``, and ``_MODE`` for the modes of ``model.f_spatial`` and
``initial``). Each key is absent, valid or malformed: a wrong type, a value
outside its rule, or a non-finite number; a config may also carry a retired
key. Valid values are any the key's row accepts, drawn from ranges near the
defaults, so some fail later checks (an odd node count, a drift of the wrong
length) as typed errors. Grids keep at most 8 nodes per axis, ``n_t`` at
most 8 and the dimension at most 2, so that every run is short; for that
reason the node counts are never absent, since their defaults are 16.

Each run goes through ``mfgkit.cli.main`` under a 10 s ``setitimer`` cap:

* the exit code is 0, 1, 2 or 3, and no exception escapes ``main``;
* on exit 1 or 2, the last stderr line starts with ``error:`` and no
  summary is written;
* every run whose config carries a malformed value, a retired key or a
  structurally malformed mode list exits 2, whatever the command, since
  :func:`mfgkit.config.load_config` reads every key through its row;
* on exit 0, every number in the summary is finite.

The draws are derandomized, so every run of the suite makes the same ones.
The 60 draws also pass that assertion against code that reads a key only
when a command uses it, so they do not guard the rule; the rows of
``test_input_checks_exit_typed_and_write_nothing`` in ``tests/test_cli.py``
that carry a malformed key their command does not use do.
"""

import contextlib
import io
import json
import math
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mfgkit import cli, config

CAP_S = 10.0
NAN, INF = float("nan"), float("inf")
PI2 = math.pi**2

TABLES = {
    None: config._TOP,
    "model": config._MODEL,
    "grid": config._GRID,
    "solver": config._SOLVER,
    "bifurcation": config._BIFURCATION,
}
RETIRED = [
    ("solver", "max_iter", 50000),
    ("solver", "max_newton", 40),
    ("solver", "w_reg", 1e-3),
    ("solver", "barrier_stages", [0.1]),
    (None, "task", "solve-stationary"),
]
CHECK_NAMES = sorted({name for names, _ in cli._CHECKS.values() for name in names})


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _mostly(good, other):
    """``good`` two draws in three, else ``other``."""
    return st.one_of(good, good, other)


# Node counts up to 8, mostly even and >= 4; the grids reject the others.
NODES = _mostly(st.sampled_from([4, 6, 8]), st.integers(-2, 8))
DIMS = _mostly(st.sampled_from([1, 2]), st.just(0))
MODE_VALID = {
    "amp": _floats(-0.5, 0.5),
    "k": None,  # one integer per axis, drawn in _draw_modes
    "kind": st.sampled_from(["cos", "sin"]),
}
VALID = {
    "seed": st.integers(0, 2**31 - 1),
    "eps": st.one_of(st.sampled_from([0.0, 1.0]), _floats(0.0, 2.0)),
    "model.kind": st.sampled_from(["separable", "congestion"]),
    "model.f_poly": st.lists(_floats(-1.0, 2.0), min_size=1, max_size=3),
    "model.f_spatial": None,  # modes, drawn in _draw_modes
    "model.Q": None,  # one entry per axis, drawn in _draw_config
    "model.alpha": _floats(0.0, 2.5),
    "model.gamma": _floats(1.0, 3.0),
    "grid.dim": DIMS,
    "grid.n": _mostly(NODES, st.lists(NODES, min_size=1, max_size=2)),
    "grid.n_t": NODES,
    "grid.horizon": _floats(0.05, 2.0),
    "solver.tol": st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1]),
    "solver.formulation": st.sampled_from(config._FORMULATIONS),
    "bifurcation.fprime1": _mostly(_floats(-7.9 * PI2, -4.1 * PI2), _floats(-9 * PI2, -3 * PI2)),
    "bifurcation.cubic": _floats(-2.0, 2.0),
    "bifurcation.f1": _floats(-1.0, 1.0),
    "bifurcation.amplitudes": st.lists(_floats(1e-4, 0.05), min_size=1, max_size=3),
    "bifurcation.dim": DIMS,
    "bifurcation.n": NODES,
    "bifurcation.n_t": NODES,
    "bifurcation.spectrum_points": st.integers(2, 5),
    "bifurcation.spectrum_halfwidth": _floats(0.01, 0.5),
}
# Keys whose default would exceed the size limit above.
NEVER_ABSENT = {"grid.n", "grid.n_t", "bifurcation.n", "bifurcation.n_t"}
# A value outside the rule of each row that has one.
OUTSIDE = {
    "seed": [-1],
    "eps": [-0.5],
    "grid.horizon": [0.0, -1.0],
    "solver.tol": [0.0, -1e-9],
    "solver.formulation": ["newton"],
    "model.kind": ["crowd"],
    "bifurcation.amplitudes": [[], [0.0], [-1e-3, 1e-3]],
    "bifurcation.spectrum_points": [1, 0],
    "bifurcation.spectrum_halfwidth": [0.0, 1.0, 1.5],
}
# Wrong types and non-finite numbers per converter.
WRONG = {
    config._number: ["x", True, [1.0], {"a": 1}, None, NAN, INF, -INF],
    config._int: ["x", False, 2.5, [4], None, NAN, INF],
    config._shape: ["x", True, 16.5, [16.5], [NAN], NAN],
    config._numbers: ["12", 5, [0.0, "1"], [True], [NAN], [1.0, INF]],
    config._ints: ["1", 1, [1.5], [True], [NAN]],
    config._text: [5, None, ["cos"]],
    config._modes: ["x", 5, [5], [{"amp": 0.1, "zz": 1}]],
}
MODE_LISTS = ("model.f_spatial", "initial.m0.modes", "initial.uT.modes")
KEYS = [key if name is None else f"{name}.{key}" for name, t in TABLES.items() for key in t]
# What a draw may make malformed: a table key, a mode entry, a mode list.
TARGETS = (
    KEYS
    + [f"{where}.{leaf}" for where in MODE_LISTS for leaf in config._MODE]
    + list(MODE_LISTS[1:])
    + ["<retired>"]
)
# The model kind each command needs, where it needs one.
KIND = {
    "solve-stationary": "congestion",
    **{c: "separable" for c in ("solve-mfg", "solve-mfc", "compare", "duality-crosscheck")},
}


def _row(key):
    name, _, leaf = key.rpartition(".")
    if name in MODE_LISTS:
        return config._MODE[leaf]
    return TABLES[name or None][leaf]


def test_the_draw_covers_every_table_row():
    assert set(KEYS) == set(VALID)
    assert {k for k in KEYS if _row(k).ok is not None} == set(OUTSIDE)
    assert set(config._MODE) == set(MODE_VALID)
    rows = [*config._MODE.values(), *(_row(k) for k in KEYS)]
    assert {row.read for row in rows} == set(WRONG)


def _malformed(data, key):
    return data.draw(st.sampled_from(WRONG[_row(key).read] + OUTSIDE.get(key, [])))


def _draw_modes(data, where, dim, bad):
    """A mode list at ``where``: a malformed one if ``where`` is in ``bad``,
    else None (absent, unless an entry is in ``bad``) or one or two modes
    whose entries are drawn from the ``_MODE`` table, each entry malformed if
    its key is in ``bad``."""
    if where in bad:
        return data.draw(st.sampled_from(WRONG[config._modes]))
    if not any(key.startswith(f"{where}.") for key in bad) and data.draw(st.booleans()):
        return None
    k = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    modes = []
    for _ in range(data.draw(st.integers(1, 2))):
        mode = {}
        for leaf in config._MODE:
            key = f"{where}.{leaf}"
            if key in bad:
                mode[leaf] = _malformed(data, key)
            elif leaf == "k" or data.draw(st.booleans()):
                mode[leaf] = data.draw(k if leaf == "k" else MODE_VALID[leaf])
        modes.append(mode)
    return modes


def _draw_config(data, command):
    """A config for ``command`` and the malformed targets it carries."""
    bad = data.draw(
        st.one_of(st.just(set()), st.sets(st.sampled_from(TARGETS), min_size=1, max_size=2))
    )
    values = {}
    for key in KEYS:
        if key in MODE_LISTS:
            continue
        if key in bad:
            values[key] = _malformed(data, key)
        elif VALID[key] is not None and (key in NEVER_ABSENT or data.draw(st.booleans())):
            values[key] = data.draw(VALID[key])
    dim = values.get("grid.dim", 1)
    dim = dim if isinstance(dim, int) and 0 <= dim <= 2 else 1
    kind = values.get("model.kind", "separable")
    if "model.kind" not in bad and command in KIND and data.draw(st.integers(0, 3)):
        kind = values["model.kind"] = KIND[command]
    if kind == "separable":
        for key in ("model.Q", "model.alpha", "model.gamma"):
            if key not in bad and data.draw(st.integers(0, 7)):
                values.pop(key, None)
    elif "model.Q" not in bad:
        size = dim if data.draw(st.integers(0, 7)) else data.draw(st.integers(1, 2))
        values["model.Q"] = data.draw(st.lists(_floats(-2.0, 2.0), min_size=size, max_size=size))
    for where in MODE_LISTS:
        modes = _draw_modes(data, where, dim, bad)
        if modes is not None:
            values[where] = modes
    cfg = {}
    for key, value in values.items():
        *path, leaf = key.split(".")
        node = cfg
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = value
    if not data.draw(st.integers(0, 3)):
        cfg["checks"] = data.draw(st.lists(st.sampled_from(CHECK_NAMES), max_size=2))
    if "<retired>" in bad:
        name, leaf, value = data.draw(st.sampled_from(RETIRED))
        (cfg if name is None else cfg.setdefault(name, {}))[leaf] = value
    return cfg, bad


class _CapExceeded(BaseException):
    pass


def _on_alarm(signum, frame):
    raise _CapExceeded


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(command=st.sampled_from(sorted(cli._COMMANDS)), data=st.data())
def test_every_drawn_config_exits_typed(command, data):
    cfg, malformed = _draw_config(data, command)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        stdout, stderr = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([command, str(path), "--output-dir", str(out)])
        except _CapExceeded:
            pytest.fail(f"{command} ran past {CAP_S} s on {json.dumps(cfg)}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        summary = out / cli._COMMANDS[command][1]
        context = f"{command} on {json.dumps(cfg)} exited {code}: {stderr.getvalue()!r}"
        assert code in (0, 1, 2, 3), context
        if code in (1, 2):
            assert stderr.getvalue().splitlines()[-1].startswith("error:"), context
            assert not summary.exists() and stdout.getvalue() == "", context
        if malformed:
            assert code == 2, context
        if code == 0:
            numbers = list(_numbers(json.loads(summary.read_text())))
            assert all(math.isfinite(v) for v in numbers), context
