"""``tools/code_lines.py`` on a canned module: only code lines count."""

import importlib.util
import os

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")
spec = importlib.util.spec_from_file_location("code_lines", PATH)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# A comment-only line.
import math  # a trailing comment counts as code


class Shape:
    """Class docstring."""

    sides = 3

    def area(self):
        """Method docstring,

        over three lines.
        """
        text = """a multi-line
        string that is no docstring"""
        return (math.pi
                * len(text))
'''


def test_counts_code_lines_only():
    # import, class, sides, def, text x2, return x2
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "    8 a.py\n    1 b.py\n    9 total\n"
