"""The line counter of tools/aim2_metrics.py on a fixture tree."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "aim2_metrics.py"
_spec = importlib.util.spec_from_file_location("aim2_metrics", SCRIPT)
aim2_metrics = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(aim2_metrics)

MODULE = '''"""Module docstring
over two lines."""

# a comment

import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string over
two lines"""
    "a later string, not a docstring"


def f(a, b):
    """Function
    docstring."""
    # a comment in the body
    return os.path.join(
        a,

        b,
    )
'''
# import, class, the two lines of x, the later string, def, and the four
# lines of the call that hold a token.
MODULE_CODE_LINES = 10


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    assert aim2_metrics.code_lines(MODULE) == MODULE_CODE_LINES


def test_line_counts_sum_over_a_tree(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert aim2_metrics.line_counts(tmp_path) == {
        "code_lines": MODULE_CODE_LINES + 1,
        "all_lines": len(MODULE.splitlines()) + 3,
    }
