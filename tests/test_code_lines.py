"""Tests for the code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


class A:
    """One line."""

    x = """a string that is
not a docstring"""

    def f(self):
        \'\'\'Docstring.\'\'\'
        # another comment

        return (1,
                2)
'''


def test_code_docstring_and_comment_lines_are_told_apart(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    # code: import, class, x = (two lines), def, return (two lines)
    assert code_lines.count(path) == (7, 4, 2)


def test_the_main_prints_a_row_per_file_and_the_total(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text("x = 1\n# c\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", "code", "docs", "comments"]
    assert [row[1:] for row in rows[1:]] == [["1", "0", "1"]] * 2 + [["2", "0", "2"]]
    assert rows[-1][0] == "total"


def test_a_missing_path_is_reported_not_raised(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "absent.py")]) == 1
    assert "absent.py" in capsys.readouterr().err
