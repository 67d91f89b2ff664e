"""Every function and class in the package has a caller.

A definition passes when its name is used somewhere in ``src/launchport``
outside its own body, or when the package exports it in ``__all__``.  An
import alone does not count as a use, and neither does a test: a helper
only the tests call belongs in the tests.
"""

import ast
from pathlib import Path

import launchport

PACKAGE = Path(launchport.__file__).parent

# Not called yet: the load-time cross-check of the bundles is to call them.
AWAITING_CALLERS = {"fingerprint_ids", "unresolvable_ids"}


def _sources() -> dict[str, str]:
    return {path.name: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _uncalled(sources: dict[str, str]) -> list[str]:
    """``"<file>:<line> <name>"`` for each definition nothing else names."""
    definitions = []  # (name, file, first line, last line)
    uses = []  # (name, file, line)
    for file, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node.name, file, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                uses.append((node.id, file, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, file, node.lineno))
    found = []
    for name, where, first, last in definitions:
        if name.startswith("__") or name in launchport.__all__:
            continue
        if not any(
            used == name and not (file == where and first <= line <= last)
            for used, file, line in uses
        ):
            found.append(f"{where}:{first} {name}")
    return found


def test_every_definition_has_a_caller():
    uncalled = _uncalled(_sources())
    assert {entry.split()[1] for entry in uncalled} == AWAITING_CALLERS, uncalled


def test_the_scan_finds_a_helper_that_only_calls_itself():
    sources = _sources()
    sources["types.py"] += "\n\ndef _orphan(n):\n    return _orphan(n - 1)\n"
    assert any(entry.endswith(" _orphan") for entry in _uncalled(sources))
