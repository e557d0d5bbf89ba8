"""Print the code lines and the ``raise`` statements of each module in
``src/vecsim``, and their totals.

A code line is any non-blank line that is neither a ``#`` comment nor part
of a module, class or function docstring. A ``raise`` statement is one
``raise`` node of the module's syntax tree. Run from anywhere:

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vecsim"


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
    total_lines = total_raises = 0
    print("  code  raise")
    for path in sorted(SRC.glob("*.py")):
        lines, raises = counts(path)
        total_lines += lines
        total_raises += raises
        print(f"{lines:6d} {raises:6d}  {path.name}")
    print(f"{total_lines:6d} {total_raises:6d}  total")


if __name__ == "__main__":
    main()
