import ast
from pathlib import Path

import pytest

import launchport
from launchport.bridge import BridgeConfig, load_bridge_config
from launchport.clusters import load_profiles
from launchport.errors import BridgeProtocolError, ProfileParseError, RuleParseError, TemplateInvalidError
from launchport.repair import load_fingerprints, load_repair_table
from launchport.simcluster import load_fault_rules
from launchport.templates import load_repository

# The error is on line 3: a bare word where a value should be.
BAD_JSON = "[\n  1,\n  oops\n]"

# loader, error class, message format, a document of the wrong shape and its
# message, and whether a loaded value is the empty one.
LOADERS = {
    "profiles": (
        load_profiles, ProfileParseError, "{}", "{}",
        "profile document must be a JSON array", lambda v: len(v) == 0,
    ),
    "repository": (
        load_repository, TemplateInvalidError, "template '<document>': {}", "{}",
        "repository document must be a JSON array", lambda v: len(v) == 0,
    ),
    "fault-rules": (
        load_fault_rules, RuleParseError, "{}", "{}",
        "fault-rule document must be a JSON array", lambda v: len(v) == 0,
    ),
    "fingerprints": (
        load_fingerprints, RuleParseError, "{}", "{}",
        "fingerprint document must be a JSON array", lambda v: v._tests == [],
    ),
    "repair-table": (
        load_repair_table, RuleParseError, "{}", "[]",
        "repair table must be a JSON object", lambda v: v == {},
    ),
    "bridge-config": (
        load_bridge_config, BridgeProtocolError, "invalid bridge config: {}", "[]",
        "the document must be a JSON object", lambda v: v == BridgeConfig(),
    ),
}


@pytest.mark.parametrize("name", LOADERS)
def test_loader_reads_text_and_paths_alike(tmp_path, name):
    load, error, fmt, wrong_shape, shape_message, is_empty = LOADERS[name]
    assert is_empty(load(""))
    assert is_empty(load(" \n"))
    doc = tmp_path / "doc.json"
    doc.write_text("", "utf-8")
    assert is_empty(load(doc))

    cases = [
        (BAD_JSON, "invalid JSON at line 3: Expecting value"),
        (wrong_shape, shape_message),
    ]
    for text, message in cases:
        with pytest.raises(error) as caught:
            load(text)
        assert str(caught.value) == fmt.format(message)
        doc.write_text(text, "utf-8")
        with pytest.raises(error) as caught:
            load(doc)
        assert str(caught.value) == fmt.format(f"{doc}: {message}")


@pytest.mark.parametrize("text, message", [
    ("[" + "9" * 4400 + "]", "invalid JSON: Exceeds the limit"),
    ("[" * 100_000 + "]" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
], ids=["4400-digits", "nested-100000"])
@pytest.mark.parametrize("name", LOADERS)
def test_loader_refuses_what_json_loads_raises_as_a_plain_error(name, text, message):
    load, error, fmt, *_ = LOADERS[name]
    with pytest.raises(error) as caught:
        load(text)
    assert str(caught.value).startswith(fmt.format(message))


# A module that reads bundled data must find the package's own files: through
# one of these names, or through a module that does it for it.
_LOCATING_NAMES = {"__file__", "__spec__", "__path__"}
_LOCATING_MODULES = ("importlib.resources", "pkgutil")


def _reads_bundled_data(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _LOCATING_NAMES
    if isinstance(node, ast.Import):
        return any(alias.name.startswith(_LOCATING_MODULES) for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith(_LOCATING_MODULES) or (
            node.module == "importlib" and any(a.name == "resources" for a in node.names)
        )
    return False


def _reads(source: str) -> bool:
    return any(_reads_bundled_data(node) for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("source", [
    "from importlib import resources",
    "import importlib.resources",
    "from importlib.resources import files",
    "import pkgutil",
    "from pkgutil import get_data",
    "open(os.path.join(os.path.dirname(__file__), 'data', 'clusters.json'))",
    "Path(__spec__.origin).with_name('data')",
    "os.path.join(__path__[0], 'data')",
])
def test_each_way_to_find_bundled_data_counts_as_a_reader(source):
    assert _reads(source)


def test_a_caller_of_bundled_is_not_a_reader():
    assert not _reads("from .documents import bundled\nbundled('clusters.json')")


def test_one_way_to_read_a_document():
    package = Path(launchport.__file__).parent
    readers, copies = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if _reads_bundled_data(node):
                readers.add(path.name)
            if isinstance(node, ast.FunctionDef) and node.name == "_read_source":
                copies.append(path.name)
    assert readers == {"documents.py"}
    assert copies == []
