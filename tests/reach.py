"""Line reach: the function-body lines of ``src/launchport`` a test run never runs.

A pytest plugin, stdlib only, kept out of the default run because tracing
makes the suite about three times slower.  From the repository root::

    PYTHONPATH=src:tests python -m pytest -q -p reach

It traces from before the first conftest imports launchport, so functions
that run at import time are seen.  At the end it prints each line of a
function body that holds code and never ran, as ``path:line function``,
then their count.  Module and class bodies are not counted (they run at
import), and neither are docstrings or stub bodies that hold only ``...``,
which compile to no code.  Child processes are not traced.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "launchport"
_hits: dict[str, set[int]] = {}  # real path -> line numbers seen
_by_name: dict[str, set[int] | None] = {}  # co_filename -> its _hits entry, or None


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _by_name:
        real = os.path.realpath(name)
        inside = Path(real).parent == PACKAGE
        _by_name[name] = _hits.setdefault(real, set()) if inside else None
    hits = _by_name[name]
    if hits is None:
        return None

    def line(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
        return line

    return line


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    sys.settrace(_trace)
    threading.settrace(_trace)


_CONTAINERS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _functions(code, in_function: bool = False):
    """The function code objects nested in ``code``; module and class bodies,
    and comprehensions run by them, run at import and are left out."""
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            function = bool(const.co_flags & inspect.CO_OPTIMIZED) and (
                in_function or const.co_name not in _CONTAINERS)
            if function:
                yield const
            yield from _functions(const, function)


def unreached(path: Path, hits: set[int]) -> list[tuple[int, str]]:
    """The ``(line, function)`` pairs of ``path``'s function bodies not in ``hits``."""
    missed = set()
    for code in _functions(compile(path.read_text("utf-8"), str(path), "exec")):
        lines = {line for _, _, line in code.co_lines() if line is not None}
        lines.discard(code.co_firstlineno)  # the def (or first decorator) line
        name = getattr(code, "co_qualname", code.co_name)
        missed.update((line, name) for line in lines - hits)
    return sorted(missed)


def pytest_terminal_summary(terminalreporter):
    if sys.gettrace() is not _trace:
        terminalreporter.write_line("reach: the tracer was replaced during the run")
    sys.settrace(None)
    threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, function in unreached(path, _hits.get(str(path), set())):
            total += 1
            terminalreporter.write_line(f"{path.relative_to(PACKAGE.parent.parent)}:{lineno} {function}")
    terminalreporter.write_line(f"reach: {total} function-body lines never ran")
