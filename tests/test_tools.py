"""The code-line counter of ``tools/code_lines.py``, on a small source
that holds each kind of line its rule names."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment line


def f(x):
    """A docstring."""
    total = (x +  # a trailing comment
             1)
    "a lone string statement"
    return total, """a string
    inside a statement"""
'''


def test_counts_lines_that_hold_code():
    # def, total = (, 1), return and the second line of its string; not
    # the docstrings, the comment, the blank lines or the lone string
    assert code_lines.code_lines(SOURCE) == 5


def test_prints_each_file_and_the_total(tmp_path, capsys):
    paths = []
    for name in ("a.py", "b.py"):
        paths.append(tmp_path / name)
        paths[-1].write_text(SOURCE)
    assert code_lines.main([str(p) for p in paths]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["5", "5", "10"]
