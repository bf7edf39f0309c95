"""scripts/code_lines.py counts code lines with and without docstrings."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

SOURCE = '''"""Module docstring,

whose blank line is not code."""

# a comment line
import math  # a comment after code is code


def area(r):
    """One docstring line."""
    # indented comment
    return math.pi * r**2


class Shape:
    """Two docstring
    lines."""

    NOTE = """a string that is not a docstring
# is not a comment either"""
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_code_lines_counts_a_small_file(tmp_path, capsys):
    script = load_script()
    # code: 2 module docstring lines, import, def, docstring, return, class,
    # 2 class docstring lines, the NOTE line; a string line that starts with
    # '#' reads as a comment
    assert script.count(SOURCE) == (10, 5)
    path = tmp_path / "pkg" / "shape.py"
    path.parent.mkdir()
    path.write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg" / "empty.py").write_text("", encoding="utf-8")
    assert script.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["0", "0", str(tmp_path / "pkg" / "empty.py")]
    assert lines[2].split() == ["10", "5", str(path)]
    assert lines[-1].split() == ["10", "5", "total"]
