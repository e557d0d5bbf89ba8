"""Pytest plugin: fail the session if a ``raise`` statement in ``src/``, or
any statement in a function body there, never runs.

Load it by name with the test directory on the path, on a full Tier-1 run::

    PYTHONPATH=src:tests python -m pytest -q -p raise_trace

At start-up it parses every module under ``src/`` for its targets: every
``raise``, and every statement inside a function body except those that
compile to nothing (string and other constant expressions, docstrings
included, and ``global``/``nonlocal``). Module and class bodies run at
import, before tracing starts, so their statements are not targets. Then it
line-traces the session with ``sys.settrace`` (``coverage`` is not a
dependency). Only code objects that still hold an unreached target get a
line tracer.

A target counts as reached when any line of its span runs; the span of a
compound statement (``if``, ``for``, ``try``, a nested ``def`` ...) holds its
body, whose lines run only after its header did. A statement that starts on
the line of another statement (``if x: raise E``) cannot be told apart that
way and is reported as untraceable. At the end of the session every
unreached or untraceable target is listed and the session fails.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _compiles_to_nothing(node: ast.stmt) -> bool:
    return (isinstance(node, (ast.Global, ast.Nonlocal))
            or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)))


def targets(path: Path):
    """The ``(first line, last line)`` spans of every raise and of every
    function-body statement in the module at ``path``, and the first lines
    that two statements share."""
    tree = ast.parse(path.read_text(), str(path))
    starts: dict[int, int] = {}
    raises, statements = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            starts[node.lineno] = starts.get(node.lineno, 0) + 1
        if isinstance(node, ast.Raise):
            raises.add((node.lineno, node.end_lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            statements.update(
                (stmt.lineno, stmt.end_lineno) for top in node.body
                for stmt in ast.walk(top)
                if isinstance(stmt, ast.stmt) and not _compiles_to_nothing(stmt))
    firsts = {first for first, _ in raises | statements}
    shared = sorted(line for line, count in starts.items()
                    if count > 1 and line in firsts)
    return raises, statements, shared


class RaiseTracer:
    """Records which raises and function-body statements of the files under
    ``root`` run."""

    def __init__(self, root: Path):
        self.root = root
        # file -> its raise spans, its statement spans, the spans reached
        self.raises: dict[str, set] = {}
        self.statements: dict[str, set] = {}
        self.reached: dict[str, set] = {}
        # file -> {line: the unreached spans that hold it}
        self.owners: dict[str, dict[int, list]] = {}
        self.untraceable: list[tuple[str, int]] = []
        for path in sorted(root.rglob("*.py")):
            raises, statements, shared = targets(path)
            name = str(path.resolve())
            self.raises[name], self.statements[name] = raises, statements
            self.reached[name] = set()
            self.untraceable += [(name, line) for line in shared]
            owners = self.owners[name] = {}
            for span in raises | statements:
                for line in range(span[0], span[1] + 1):
                    owners.setdefault(line, []).append(span)
        # code object -> {line in it that an unreached span holds: its file}
        self.code_lines: dict = {}

    def _lines(self, code):
        lines = self.code_lines.get(code)
        if lines is None:
            name = os.path.realpath(code.co_filename)
            owners = self.owners.get(name, {})
            lines = self.code_lines[code] = {
                line: name for _, _, line in code.co_lines() if owners.get(line)}
        return lines

    def call(self, frame, event, arg):
        return self.line if self._lines(frame.f_code) else None

    def line(self, frame, event, arg):
        if event == "line":
            lines = self.code_lines[frame.f_code]
            name = lines.pop(frame.f_lineno, None)
            if name is not None:
                owners = self.owners[name]
                for span in owners.pop(frame.f_lineno, ()):
                    self.reached[name].add(span)
                    for line in range(span[0], span[1] + 1):
                        if span in owners.get(line, ()):
                            owners[line].remove(span)
        return self.line

    def start(self) -> None:
        threading.settrace(self.call)
        sys.settrace(self.call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def counts(self, kind: dict[str, set]) -> tuple[int, int]:
        """``(reached, total)`` of the raises or of the statements."""
        total = sum(len(spans) for spans in kind.values())
        return total - len(self.unreached(kind)), total

    def unreached(self, kind: dict[str, set]) -> list[tuple[str, int]]:
        return sorted((name, first) for name, spans in kind.items()
                      for first, _ in spans - self.reached[name])


_KEY = pytest.StashKey[RaiseTracer]()


def pytest_configure(config):
    tracer = RaiseTracer(SRC)
    config.stash[_KEY] = tracer
    tracer.start()


def pytest_sessionfinish(session, exitstatus):
    tracer = session.config.stash[_KEY]
    tracer.stop()
    failed = (tracer.unreached(tracer.raises) or tracer.unreached(tracer.statements)
              or tracer.untraceable)
    if failed and exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tracer = config.stash[_KEY]
    write = terminalreporter.write_line
    for what, kind in (("raise statements", tracer.raises),
                       ("function-body statements", tracer.statements)):
        reached, total = tracer.counts(kind)
        write(f"raise_trace: {reached} of {total} {what} under {tracer.root} reached")
        for name, line in tracer.unreached(kind):
            write(f"raise_trace: never reached: {name}:{line}")
    for name, line in tracer.untraceable:
        write(f"raise_trace: shares its line with another statement: "
              f"{name}:{line}")
