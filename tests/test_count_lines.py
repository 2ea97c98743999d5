"""``tests/data/count_lines.py`` counts code lines as ROADMAP counts them."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "count_lines", Path(__file__).resolve().parent / "data" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring,
two lines."""

# a comment alone
X = 1  # a comment after code


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        that is code"""
        return text
'''


def test_blank_comment_and_docstring_lines_are_not_code():
    # code: X, class, def, both lines of `text`, return
    assert count_lines.count(SOURCE) == (16, 6)
