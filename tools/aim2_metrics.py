"""Print the two size metrics that ROADMAP aim 2 tracks, as one JSON line.

Run from the repository root:

    python tools/aim2_metrics.py

Code lines. Every ``.py`` file under ``src/mfgkit`` is tokenized. A line
counts when it holds a token other than a comment, a newline or an indent
(or dedent), and is not inside a docstring. A token that spans lines, such
as a multi-line string, marks every line it spans. A docstring is a string
literal that stands alone as the first statement of a module, class or
function body. ``all_lines`` is the plain line count of the same files.

Settable values, in three parts:

* ``keys``: the leaves of the config schema, read from the rows of
  ``config._ROOT``. A row whose reader is an object reader recurses into
  that object's table; any other row is one leaf, a list of harmonic modes
  included. The mode table's keys count once, however many mode lists
  there are.
* ``keywords``: the parameters with a default of the public solvers and of
  ``compare_equilibrium_vs_planner``, read with ``inspect.signature``.
* ``fields``: the dataclass fields of the two Hamiltonian models.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import io
import json
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mfgkit"
sys.path.insert(0, str(PACKAGE.parent))

from mfgkit import bifurcation, config, dynamics, hamiltonians, stationary  # noqa: E402

# Tokens that do not make a line code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}

# The functions whose keyword arguments with a default are settable.
SOLVERS = (
    stationary.solve_bb,
    stationary.solve_bb_2d_stream,
    stationary.solve_potential_a_gt_1,
    dynamics.solve_mfg,
    dynamics.solve_mfc,
    bifurcation.continue_branch,
    dynamics.compare_equilibrium_vs_planner,
)
MODELS = (hamiltonians.SeparableHamiltonian, hamiltonians.CongestionHamiltonian)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source, by the rule above."""
    marked = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            marked.update(range(tok.start[0], tok.end[0] + 1))
    return len(marked - _docstring_lines(ast.parse(source)))


def line_counts(package: Path = PACKAGE) -> dict:
    """Code lines and all lines of the ``.py`` files under ``package``."""
    sources = [path.read_text() for path in sorted(package.rglob("*.py"))]
    return {
        "code_lines": sum(map(code_lines, sources)),
        "all_lines": sum(len(text.splitlines()) for text in sources),
    }


def _subtable(row):
    """The table an object reader reads, or None for a leaf row."""
    return inspect.getclosurevars(row.read).nonlocals.get("table")


def _config_keys() -> int:
    def leaves(table) -> int:
        return sum(
            1 if _subtable(row) is None else leaves(_subtable(row)) for row in table.values()
        )

    return leaves(config._ROOT) + len(config._MODE)


def settable_values() -> dict:
    keywords = sum(
        p.default is not inspect.Parameter.empty
        for func in SOLVERS
        for p in inspect.signature(func).parameters.values()
    )
    fields = sum(len(dataclasses.fields(model)) for model in MODELS)
    keys = _config_keys()
    return {
        "settable_values": keys + keywords + fields,
        "keys": keys,
        "keywords": keywords,
        "fields": fields,
    }


def main() -> None:
    print(json.dumps({**line_counts(), **settable_values()}))


if __name__ == "__main__":
    main()
