"""Print the code lines, the ``raise`` statements and the function-body
statements of each module in ``src/vecsim``, and their totals.

A code line is any non-blank line that is neither a ``#`` comment nor part
of a module, class or function docstring. A ``raise`` statement is one
``raise`` node of the module's syntax tree. The function-body statements
are the ones that the traced Tier-1 session must reach, counted by
``targets`` of ``tests/raise_trace.py`` (so the script needs ``pytest``,
which that plugin imports). Run from anywhere:

    python3 tools/code_lines.py

The script writes no bytecode.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from raise_trace import targets

SRC = ROOT / "src" / "vecsim"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """The module's code lines and its ``raise`` statements."""
    text = path.read_text()
    tree = ast.parse(text)
    skip = docstring_lines(tree)
    lines = sum(1 for no, line in enumerate(text.splitlines(), start=1)
                if no not in skip and line.strip()
                and not line.lstrip().startswith("#"))
    return lines, sum(isinstance(node, ast.Raise) for node in ast.walk(tree))


def main() -> None:
    totals = [0, 0, 0]
    print("  code  raise  stmts")
    for path in sorted(SRC.glob("*.py")):
        row = (*counts(path), len(targets(path)[1]))
        totals = [t + n for t, n in zip(totals, row)]
        print(f"{row[0]:6d} {row[1]:6d} {row[2]:6d}  {path.name}")
    print(f"{totals[0]:6d} {totals[1]:6d} {totals[2]:6d}  total")


if __name__ == "__main__":
    main()
