"""Print the code lines of each module in ``src/vecsim`` and their total.

A code line is any non-blank line that is neither a ``#`` comment nor part
of a module, class or function docstring. Run from anywhere:

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


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for no, line in enumerate(text.splitlines(), start=1)
               if no not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
