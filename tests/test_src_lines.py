"""`tools/src_lines.py`, the line counter that ROADMAP's `src/` figures quote."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps a code line


# a comment line
class A:
    """Class docstring."""

    x = """not a docstring:

    a string that spans lines is code"""

    def f(self):
        """Function
        docstring.
        """
        # another comment
        return (1,
                2)
'''


def test_counts_each_kind_on_a_synthetic_module():
    assert src_lines.count_lines(SAMPLE) == {
        "code": 8, "docstrings": 6, "comments": 2, "blank": 5}


def test_every_line_of_src_is_counted_once(capsys):
    src = ROOT / "src" / "costshare"
    assert src_lines.main([str(src)]) == 0
    *rows, total = capsys.readouterr().out.splitlines()[1:]
    lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    assert int(total.split()[-1]) == lines
    assert len(rows) == len(list(src.glob("*.py")))
