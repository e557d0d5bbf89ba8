"""``tools/code_lines.py``: one row per module of ``src/vecsim``, a totals
row that sums them, and a statement count that is the traced session's.

The tool runs as a script, as a user runs it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from raise_trace import SRC, targets

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def rows():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True, check=True)
    header, *lines = out.stdout.splitlines()
    table = []
    for line in lines:
        *numbers, name = line.split()
        table.append((name, [int(n) for n in numbers]))
    return header, table


def test_code_lines_prints_header_modules_and_totals(rows):
    header, table = rows
    assert header == "  code  raise  stmts"
    *modules, (last, totals) = table
    assert last == "total"
    assert [name for name, _ in modules] == sorted(
        path.name for path in (SRC / "vecsim").glob("*.py"))
    assert totals == [sum(col) for col in zip(*(numbers for _, numbers in modules))]


def test_code_lines_statement_total_is_the_traced_count(rows):
    _, table = rows
    assert table[-1][1][2] == sum(len(targets(path)[1]) for path in SRC.rglob("*.py"))
