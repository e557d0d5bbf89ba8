"""Pytest plugin: fail the session if a ``raise`` statement in ``src/`` never
runs.

Load it by name with the test directory on the path, on a full Tier-1 run::

    PYTHONPATH=src:tests python -m pytest -q -p raise_trace

At start-up it parses every module under ``src/`` for ``raise`` statements,
then line-traces the session with ``sys.settrace`` (``coverage`` is not a
dependency). Only code objects that still hold an unreached raise get a line
tracer. A raise counts as reached when any of its lines runs; a raise that
starts on the line of another statement (``if x: raise E``) cannot be told
apart that way and is reported as untraceable. At the end of the session
every unreached or untraceable raise is listed and the session fails.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def raise_statements(path: Path):
    """``(first line, last line)`` of every raise in the module at ``path``,
    and the first lines of those that share it with another statement."""
    tree = ast.parse(path.read_text(), str(path))
    starts: dict[int, int] = {}
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            starts[node.lineno] = starts.get(node.lineno, 0) + 1
        if isinstance(node, ast.Raise):
            spans.append((node.lineno, node.end_lineno))
    return spans, [first for first, _ in spans if starts[first] > 1]


class RaiseTracer:
    """Records which raise statements of the files under ``root`` run."""

    def __init__(self, root: Path):
        self.root = root
        # file -> {line of a raise: its first line}
        self.pending: dict[str, dict[int, int]] = {}
        self.total = 0
        self.untraceable: list[tuple[str, int]] = []
        for path in sorted(root.rglob("*.py")):
            spans, shared = raise_statements(path)
            name = str(path.resolve())
            self.total += len(spans)
            self.untraceable += [(name, line) for line in shared]
            self.pending[name] = {line: first for first, last in spans
                                  for line in range(first, last + 1)}
        # code object -> {line of a raise in it: its first line}
        self.code_lines: dict = {}

    def _lines(self, code):
        lines = self.code_lines.get(code)
        if lines is None:
            name = os.path.realpath(code.co_filename)
            file_lines = self.pending.get(name, {})
            lines = self.code_lines[code] = {
                line: (name, file_lines[line]) for _, _, line in code.co_lines()
                if line in file_lines}
        return lines

    def call(self, frame, event, arg):
        return self.line if self._lines(frame.f_code) else None

    def line(self, frame, event, arg):
        if event == "line":
            lines = self.code_lines[frame.f_code]
            hit = lines.get(frame.f_lineno)
            if hit is not None:
                name, first = hit
                for line, first_line in list(self.pending[name].items()):
                    if first_line == first:
                        del self.pending[name][line]
                        lines.pop(line, None)
        return self.line

    def start(self) -> None:
        threading.settrace(self.call)
        sys.settrace(self.call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def unreached(self) -> list[tuple[str, int]]:
        return sorted({(name, first) for name, lines in self.pending.items()
                       for first in lines.values()})


_KEY = pytest.StashKey[RaiseTracer]()


def pytest_configure(config):
    tracer = RaiseTracer(SRC)
    config.stash[_KEY] = tracer
    tracer.start()


def pytest_sessionfinish(session, exitstatus):
    tracer = session.config.stash[_KEY]
    tracer.stop()
    if (tracer.unreached() or tracer.untraceable) and exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tracer = config.stash[_KEY]
    unreached = tracer.unreached()
    write = terminalreporter.write_line
    write(f"raise_trace: {tracer.total - len(unreached)} of {tracer.total} "
          f"raise statements under {tracer.root} reached")
    for name, line in unreached:
        write(f"raise_trace: never reached: {name}:{line}")
    for name, line in tracer.untraceable:
        write(f"raise_trace: shares its line with another statement: "
              f"{name}:{line}")
