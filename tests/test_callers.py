"""Every function, class and module-level constant in the package has a caller.

A definition passes when its name is used somewhere in ``src/launchport``
outside its own body (for a constant, outside the statement that assigns
it), or when the package exports it in ``__all__``.  An import alone does
not count as a use, and neither does a test: a helper only the tests call
belongs in the tests.

A use is credited by its bare name, so the scan cannot judge a method that
shares its name with another definition or with a method of a builtin
container or ``str``: ``dict.get`` credits every ``get``.  Those methods are
pinned as a reviewed set, each checked by hand to have a caller.
"""

import ast
from pathlib import Path

import launchport

PACKAGE = Path(launchport.__file__).parent

# Not called yet: the load-time cross-check of the bundles is to call them.
AWAITING_CALLERS = {"fingerprint_ids", "unresolvable_ids"}

# The methods the scan cannot judge, each checked by hand to have a caller (the
# Protocol stubs through their implementations).  A new one fails until checked.
REVIEWED_COLLISIONS = {
    "Attempt.succeeded", "LoopOutcome.succeeded",
    "Embedder.embed", "RemoteBridge.embed",
    "Extractor.extract", "RuleBasedExtractor.extract", "RemoteBridge.extract",
    "RepairBridge.enabled", "RemoteBridge.enabled",
    "RepairBridge.remote_repair", "RemoteBridge.remote_repair",
    "TemplateSet.get",
    "Record.replace",
}

_BUILTIN_METHODS = {name for kind in (dict, list, str, set, tuple) for name in dir(kind)}


def _sources() -> dict[str, str]:
    return {path.name: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _uncalled(sources: dict[str, str]) -> list[str]:
    """``"<file>:<line> <name>"`` for each definition nothing else names."""
    definitions = []  # (name, file, first line, last line)
    uses = []  # (name, file, line)
    for file, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                definitions.extend(
                    (name.id, file, node.lineno, node.end_lineno)
                    for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                )
        for node in ast.walk(tree):
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


def _collisions(sources: dict[str, str]) -> set[str]:
    """``"<class>.<method>"`` for each method the scan cannot judge."""
    names = []  # every definition's name, once per definition
    methods = []  # (class, method)
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
            if isinstance(node, ast.ClassDef):
                methods.extend(
                    (node.name, item.name) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    return {
        f"{cls}.{name}" for cls, name in methods
        if not name.startswith("__") and (names.count(name) > 1 or name in _BUILTIN_METHODS)
    }


def test_every_definition_has_a_caller():
    uncalled = _uncalled(_sources())
    assert {entry.split()[1] for entry in uncalled} == AWAITING_CALLERS, uncalled


def test_the_scan_finds_a_helper_that_only_calls_itself():
    sources = _sources()
    sources["types.py"] += "\n\ndef _orphan(n):\n    return _orphan(n - 1)\n"
    assert any(entry.endswith(" _orphan") for entry in _uncalled(sources))


def test_the_scan_finds_a_constant_that_is_only_imported():
    sources = _sources()
    sources["types.py"] += "\n\n_ORPHAN = 1\n"
    sources["lint.py"] += "\nfrom .types import _ORPHAN\n"
    assert any(entry.endswith(" _ORPHAN") for entry in _uncalled(sources))


def test_every_method_the_scan_cannot_judge_was_reviewed():
    assert _collisions(_sources()) == REVIEWED_COLLISIONS


def test_the_review_names_a_method_that_shares_a_builtin_name():
    # FaultRuleSet.get once passed the scan with no caller: dict.get credited it.
    sources = _sources()
    anchor = "    def unresolvable_ids(self)"
    assert anchor in sources["simcluster.py"]
    sources["simcluster.py"] = sources["simcluster.py"].replace(
        anchor, "    def get(self, rule_id):\n        return None\n\n" + anchor
    )
    assert not any(entry.endswith(" get") for entry in _uncalled(sources))
    assert _collisions(sources) - REVIEWED_COLLISIONS == {"FaultRuleSet.get"}
