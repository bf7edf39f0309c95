"""Count the code lines of Python sources, per file and in total.

A code line is a line that is neither blank nor a comment (its first
non-space character is not '#').  The second count leaves out the code lines
of docstrings: the string that opens a module, a class or a function.  Each
argument is a .py file or a directory searched for them recursively.

    python3 scripts/code_lines.py src/qentropy
"""

import argparse
import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, code lines outside docstrings) of one file's text."""
    docstrings = docstring_lines(ast.parse(source))
    code = [number for number, line in enumerate(source.splitlines(), 1)
            if line.strip() and not line.strip().startswith("#")]
    return len(code), sum(number not in docstrings for number in code)


def sources(paths) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help=".py files or directories")
    args = parser.parse_args(argv)
    totals = [0, 0]
    print(f"{'code':>6} {'no-doc':>6}  file")
    for path in sources(args.paths):
        counts = count(path.read_text(encoding="utf-8"))
        totals = [total + n for total, n in zip(totals, counts)]
        print(f"{counts[0]:>6} {counts[1]:>6}  {path}")
    print(f"{totals[0]:>6} {totals[1]:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
