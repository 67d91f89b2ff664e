"""Every function, class and module-level constant in the package has a caller,
every field of a record has a reader in code that itself has a caller, and a
frozen record never changes once built.

A definition passes when its name is used somewhere in ``src/launchport``
outside its own body (for a constant, outside the statement that assigns
it).  A name the package exports in ``__all__`` also passes when README's
"Library entry points" section or ``docs/formats.md`` names it in
backticks outside a fenced block, alone, qualified by its module or as a
call (`` `launchport.extract(text)` ``).  An import alone does not count as a
use, and neither does a test: a helper only the tests call belongs in the
tests.

A bare name is credited to the definition it resolves to in its own
module: a function or class nested in an enclosing function, a definition
at the module's top level, or one a ``from .module import name [as alias]``
brings in.  A local, a parameter or a builtin credits nothing.  An attribute
read is credited by its name to every definition of that name, since the
scan does not know the object (``agent.propose``, ``prose.extract``).  So
the scan cannot judge a method that shares its name with another definition
or with an attribute of a builtin container, ``str`` or a regex match or
pattern: ``dict.get`` credits every ``get``.  Those methods are pinned as a
reviewed set, each checked by hand to have a caller.  A record field named
like such an attribute is not credited by a read of that name either
(``m.span(1)`` once credited a ``span`` field); it is pinned as a reviewed
table.  The scan skips every dunder, since Python calls them by syntax
(``len(x)``, ``for``, ``in``); the container dunders are pinned as a
reviewed table instead.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import launchport
from launchport.bridge import _CONFIG_FIELDS, BridgeConfig
from launchport.clusters import _PROFILE_FIELDS, ClusterProfile
from launchport.repair import _ACTION_FIELDS, _FINGERPRINT_FIELDS, Fingerprint, RepairAction
from launchport.simcluster import _RULE_FIELDS, FaultRule
from launchport.templates import _PARAM_FIELDS, _TEMPLATE_FIELDS, ParamDecl, Template
from launchport.types import Record

PACKAGE = Path(launchport.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# The names the scan reports, each kept for the reason on its line.
AWAITING_CALLERS = {
    "unresolvable_ids": "the load-time cross-check of the bundles is to call it",
    "find_key": "perfbench/workloads.py calls it until ROADMAP item 1",
}

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

_BUILTIN_ATTRIBUTES = {name for kind in (dict, list, str, set, tuple, re.Match, re.Pattern)
                       for name in dir(kind)}

# The container dunders the package defines, each with its caller in src/ or the
# reason it stays.  A new one fails until it is checked by hand and added here.
CONTAINER_DUNDERS = {
    "ProfileSet.__len__": "no caller in src/; ProfileSet is exported as a read-only "
                          "collection, and tests count the bundled profiles",
    "ProfileSet.__iter__": "registry.py lists the profiles: sorted(profiles, ...)",
    "ProfileSet.__contains__": "no caller in src/; ProfileSet is exported as a read-only "
                               "collection, and tests pin that it holds ids, not aliases",
    "FaultRuleSet.__len__": "no caller in src/; load_fault_rules, which the package exports, "
                            "returns one, and tests count the bundled rules",
    "FaultRuleSet.__iter__": "no caller in src/; load_fault_rules, which the package exports, "
                             "returns one, and tests look rules up by id",
    "TemplateSet.__len__": "no caller in src/; TemplateSet is exported as a read-only "
                           "collection, and tests count the bundled templates",
    "TemplateSet.__iter__": "registry.py lists the templates: for t in tset, sorted(tset, ...)",
    "TemplateSet.__contains__": "repair.apply_action: a switch_template target not in the set",
}
_CONTAINER_PROTOCOL = ("__len__", "__iter__", "__contains__")


def _sources() -> dict[str, str]:
    return {path.name: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _documents() -> tuple[str, str]:
    """README's "Library entry points" section and ``docs/formats.md``."""
    readme = (ROOT / "README.md").read_text("utf-8")
    start = readme.index("\n## Library entry points\n")
    end = readme.find("\n## ", start + 1)
    return readme[start:end], (ROOT / "docs" / "formats.md").read_text("utf-8")


# A fenced block, from its opening line to its closing one: its backticks open
# no code span, so pairing them would shift every later pair.
_FENCED = re.compile(r"^```.*?^```[^\n]*", re.M | re.S)


def _documented(*texts: str) -> set[str]:
    """The names the texts state in backticks outside fenced blocks: ``name``,
    ``module.name`` or ``name(...)``."""
    return {
        match[1] for text in texts for span in re.findall(r"`([^`]+)`", _FENCED.sub("", text))
        if (match := re.fullmatch(r"(?:\w+\.)*(\w+)(?:\(.*\))?", span))
    }


def _exports(sources: dict[str, str]) -> list[str]:
    """The names ``__init__.py`` exports: the keys of ``_HOMES``, which ``__all__`` lists."""
    for node in ast.parse(sources["__init__.py"]).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_HOMES" for target in node.targets
        ):
            return [key.value for key in node.value.keys]
    return []


def _scan(sources: dict[str, str]) -> tuple[list[tuple], list[tuple]]:
    """``(definitions, uses)``: each definition as ``(name, file, first line, last
    line)``, each use as ``(credited, file, line)``.

    An attribute read credits its name, so every definition of that name.  A
    bare name credits the one definition it resolves to: a definition nested
    in an enclosing function, innermost first, then one at its module's top
    level, then one a ``from .module import name [as alias]`` names, followed
    through that module's own imports.  A bare name that resolves to none of
    these (a local, a parameter, a builtin or a module handle) credits nothing.
    """
    definitions = []
    scopes = {}  # (file, innermost enclosing function or class, or None) -> {name: definition}
    imports = {}  # file -> {bound name: (file, name)}
    names = []  # (name, file, line, enclosing functions, innermost last)
    attributes = []
    for file, text in sources.items():
        tree = ast.parse(text)
        module = scopes.setdefault((file, None), {})
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (name for target in targets for name in ast.walk(target)
                             if isinstance(name, ast.Name)):
                    definitions.append((name.id, file, node.lineno, node.end_lineno))
                    module[name.id] = definitions[-1]
        stack = [(tree, None, ())]
        while stack:
            node, owner, functions = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definition = (node.name, file, node.lineno, node.end_lineno)
                definitions.append(definition)
                scopes.setdefault((file, owner), {})[node.name] = definition
                owner = definition
                if not isinstance(node, ast.ClassDef):
                    functions += (definition,)
            elif isinstance(node, ast.Name):
                names.append((node.id, file, node.lineno, functions))
            elif isinstance(node, ast.Attribute):
                attributes.append((node.attr, file, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module:
                home = f"{node.module.removeprefix('launchport.')}.py"
                imports.setdefault(file, {}).update(
                    (alias.asname or alias.name, (home, alias.name)) for alias in node.names)
            stack.extend((child, owner, functions) for child in ast.iter_child_nodes(node))

    def resolve(name, file, functions=()):
        for owner in (*reversed(functions), None):
            if name in scopes.get((file, owner), {}):
                return scopes[file, owner][name]
        home = imports.get(file, {}).get(name)
        return resolve(home[1], home[0]) if home and home[0] in sources else None

    uses = [(definition, file, line) for name, file, line, functions in names
            if (definition := resolve(name, file, functions))]
    return definitions, uses + attributes


def _uncalled(sources: dict[str, str], documented: set[str] | None = None) -> list[str]:
    """``"<file>:<line> <name>"`` for each definition nothing else names.

    ``documented`` defaults to the names :func:`_documents` state.
    """
    if documented is None:
        documented = _documented(*_documents())
    exported_and_documented = set(_exports(sources)) & documented
    definitions, uses = _scan(sources)
    found = []
    for definition in definitions:
        name, where, first, last = definition
        if name.startswith("__") or name in exported_and_documented:
            continue
        if not any(
            used in (name, definition) and not (file == where and first <= line <= last)
            for used, file, line in uses
        ):
            found.append(f"{where}:{first} {name}")
    return found


def _without_callers(sources: dict[str, str]) -> list[tuple[str, int, int]]:
    """``(file, first line, last line)`` of each definition that no running code calls.

    These are the names in AWAITING_CALLERS and, followed to a fixpoint, each
    definition whose every use lies in its own body or in one of these.
    """
    exempt = set(_exports(sources)) & _documented(*_documents())
    definitions, uses = _scan(sources)
    uses_of = {}
    for used, file, line in uses:
        uses_of.setdefault(used, []).append((file, line))
    dead = [d for d in definitions if d[0] in AWAITING_CALLERS]

    def live_use(file, line, where, first, last):
        return not (file == where and first <= line <= last) and not any(
            file == f and a <= line <= b for _, f, a, b in dead)

    while True:
        found = [
            (name, where, first, last) for name, where, first, last in definitions
            if (name, where, first, last) not in dead and not name.startswith("__")
            and name not in exempt
            and not any(live_use(file, line, where, first, last)
                        for used in (name, (name, where, first, last))
                        for file, line in uses_of.get(used, ()))
        ]
        if not found:
            return [(where, first, last) for _, where, first, last in dead]
        dead.extend(found)


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
        if not name.startswith("__") and (names.count(name) > 1 or name in _BUILTIN_ATTRIBUTES)
    }


def _container_dunders(sources: dict[str, str]) -> set[str]:
    """``"<class>.<dunder>"`` for each container dunder a class defines."""
    return {
        f"{node.name}.{item.name}" for text in sources.values()
        for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in _CONTAINER_PROTOCOL
    }


def test_every_definition_has_a_caller():
    uncalled = _uncalled(_sources())
    assert {entry.split()[1] for entry in uncalled} == set(AWAITING_CALLERS), uncalled


def test_the_scan_reads_the_real_exports():
    assert _exports(_sources()) == launchport.__all__


def test_an_export_is_the_same_object_in_either_import_order():
    # "lint" was both an export and a submodule: once launchport.lint was imported,
    # the package attribute was the module, and calling it raised TypeError.
    check = (
        "import importlib, pkgutil\n"
        "import launchport as lp\n"
        "def imported():\n"
        "    return [importlib.import_module(f'launchport.{{m.name}}')\n"
        "            for m in pkgutil.iter_modules(lp.__path__)]\n"
        "{first}\n"
        "print(sorted(name for name, home in lp._HOMES.items() if getattr(lp, name) is not\n"
        "             getattr(importlib.import_module(f'launchport.{{home}}'), name)))\n"
        "print(sorted(set(lp._HOMES) & {{m.__name__.split('.')[1] for m in imported()}}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for first in ("exports = [getattr(lp, name) for name in lp._HOMES]", "imported()"):
        done = subprocess.run([sys.executable, "-c", check.format(first=first)],
                              capture_output=True, text=True, check=True, env=env)
        assert done.stdout.splitlines() == ["[]", "[]"], first


def test_the_scan_finds_an_export_the_documents_stop_naming():
    # An export with no caller in src/ passes only while a document names it.
    sources = _sources()
    sources["types.py"] += "\n\ndef documented_helper():\n    return None\n"
    sources["__init__.py"] = sources["__init__.py"].replace(
        "_HOMES = {\n", "_HOMES = {\n    \"documented_helper\": \"types\",\n")
    entry_points, formats = _documents()
    formats = "`documented_helper` is exported.\n" + formats
    uncalled = _uncalled(sources, _documented(entry_points, formats))
    assert not any(entry.endswith(" documented_helper") for entry in uncalled)
    formats = formats.replace("`documented_helper`", "documented_helper")
    uncalled = _uncalled(sources, _documented(entry_points, formats))
    assert any(entry.endswith(" documented_helper") for entry in uncalled)


def test_the_scan_reads_the_names_after_a_fenced_block():
    # A fence's backticks open no code span; pairing them shifted every later
    # pair, so no name after the first fenced block was read as documented.
    text = "`before` opens.\n\n```\nrequest: {\"capability\": \"embed\"}\n```\n\n" \
           "Then `after` and `last(text)`.\n"
    assert _documented(text) == {"before", "after", "last"}
    bridge_config = {"endpoint", "api_key_env", "timeout_ms", "retries", "capabilities"}
    assert bridge_config <= _documented(_documents()[1])


def test_the_scan_finds_an_undocumented_export():
    sources = _sources()
    sources["types.py"] += "\n\ndef undocumented_helper():\n    return None\n"
    sources["__init__.py"] = sources["__init__.py"].replace(
        "_HOMES = {\n", "_HOMES = {\n    \"undocumented_helper\": \"types\",\n")
    assert "undocumented_helper" in _exports(sources)
    assert any(entry.endswith(" undocumented_helper") for entry in _uncalled(sources))


def test_the_scan_finds_a_helper_that_only_calls_itself():
    sources = _sources()
    sources["types.py"] += "\n\ndef _orphan(n):\n    return _orphan(n - 1)\n"
    assert any(entry.endswith(" _orphan") for entry in _uncalled(sources))


def test_the_scan_credits_a_bare_name_only_to_the_definition_it_resolves_to():
    # lint imports and calls intent's _shown; read by bare name, that once
    # credited an uncalled _shown in clusters.py, as a parameter named like a
    # helper credited the helper.
    sources = _sources()
    assert "from .intent import PORT_FLAG_RE, JobSpec, _shown" in sources["lint.py"]
    sources["clusters.py"] += "\n\ndef _shown(value):\n    return value\n"
    sources["types.py"] += "\n\ndef _orphan():\n    return None\n"
    sources["templates.py"] += "\n\ndef _echo(_orphan):\n    return _orphan\n"
    uncalled = [entry.split(" ")[1] + " in " + entry.split(":")[0] for entry in _uncalled(sources)]
    assert "_shown in clusters.py" in uncalled and "_shown in intent.py" not in uncalled
    assert "_orphan in types.py" in uncalled
    dead = {where for where, *_ in _without_callers(sources)}
    assert "clusters.py" in dead and "intent.py" not in dead


def test_the_scan_finds_a_constant_that_is_only_imported():
    sources = _sources()
    sources["types.py"] += "\n\n_ORPHAN = 1\n"
    sources["lint.py"] += "\nfrom .types import _ORPHAN\n"
    assert any(entry.endswith(" _ORPHAN") for entry in _uncalled(sources))


def test_every_method_the_scan_cannot_judge_was_reviewed():
    assert _collisions(_sources()) == REVIEWED_COLLISIONS


def test_every_container_dunder_was_reviewed():
    assert _container_dunders(_sources()) == set(CONTAINER_DUNDERS)


def test_the_review_finds_a_new_container_dunder():
    # FingerprintSet.__iter__ and __len__ once had no caller, and the scan skips dunders.
    sources = _sources()
    anchor = "class FingerprintSet:\n"
    assert anchor in sources["repair.py"]
    sources["repair.py"] = sources["repair.py"].replace(anchor, (
        anchor + "    def __len__(self):\n        return len(self._tests)\n\n"))
    assert not any(entry.endswith(" __len__") for entry in _uncalled(sources))
    assert _container_dunders(sources) - set(CONTAINER_DUNDERS) == {"FingerprintSet.__len__"}


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


# Each loader's field table and the record it builds.  A table names exactly
# the record's constructor fields, except where a loader maps one document
# field onto others (RENAMED).
FIELD_TABLES = {
    ClusterProfile: _PROFILE_FIELDS,
    Template: _TEMPLATE_FIELDS,
    ParamDecl: _PARAM_FIELDS,
    FaultRule: _RULE_FIELDS,
    Fingerprint: _FINGERPRINT_FIELDS,
    RepairAction: _ACTION_FIELDS,
    BridgeConfig: _CONFIG_FIELDS,
}
RENAMED = {
    FaultRule: {"stderr": ("stderr_template",)},
    Fingerprint: {"pattern": ("literal", "regex")},
}

# Record fields no code reads, each kept for the reason on its line.
UNREAD_FIELDS = {
    "ExecutionResult.stdout": "criterion 8's digest and reports.json read it",
    "Fingerprint.regex": "read once, by the constructor, which keeps it compiled in _search",
    "RepairAction.rationale": "free text for a person; the run trace is to report it",
    "FaultRule.clearable_by": "read only through FaultRuleSet.unresolvable_ids, which the "
                              "load-time cross-check of the bundles is to call",
}

# Record fields named like a builtin attribute (_BUILTIN_ATTRIBUTES), each
# checked by hand to have a reader.  A new one fails until checked.
REVIEWED_FIELD_COLLISIONS: dict[str, str] = {}


def _table_mismatches(tables: dict[type, dict]) -> list[str]:
    """``"<record>: <table names> != <constructor fields>"`` for each table that
    names other fields than its record's constructor takes."""
    found = []
    for record, table in tables.items():
        renamed = RENAMED.get(record, {})
        named = {field for name in table for field in renamed.get(name, (name,))}
        fields = set(inspect.signature(record).parameters)
        if named != fields:
            found.append(f"{record.__name__}: {sorted(named)} != {sorted(fields)}")
    return found


def _unread(sources: dict[str, str], records: dict[str, list[str]]) -> list[str]:
    """``"<record>.<field>"`` for each field that no attribute read in the package
    names, counting only reads in code that has a caller (:func:`_without_callers`).

    A read is credited by its bare name, as the caller scan credits a use,
    except for a field named like a builtin attribute, which only
    REVIEWED_FIELD_COLLISIONS credits.  A constructor stores its fields
    through ``set_frozen``, by string, so storing a field is never a read of it.
    """
    uncalled = _without_callers(sources)
    reads = {
        node.attr for file, text in sources.items() for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and not any(file == where and first <= node.lineno <= last
                    for where, first, last in uncalled)
    }
    return [f"{record}.{field}" for record, fields in records.items() for field in fields
            if field not in reads or (field in _BUILTIN_ATTRIBUTES
                                      and f"{record}.{field}" not in REVIEWED_FIELD_COLLISIONS)]


def _record_fields() -> dict[str, list[str]]:
    """The fields of every :class:`Record` subclass the package defines."""
    for module in pkgutil.iter_modules([str(PACKAGE)]):
        importlib.import_module(f"launchport.{module.name}")
    records, pending = {}, [Record]
    while pending:
        for record in pending.pop().__subclasses__():
            pending.append(record)
            if record.__module__.startswith("launchport.") and "_fields" in vars(record):
                records[record.__name__] = list(record._fields)
    return records


def test_every_field_table_names_its_records_constructor_fields():
    assert _table_mismatches(FIELD_TABLES) == []


def test_the_table_check_finds_a_field_the_loader_drops():
    # A rule's category was checked, then dropped: FaultRule has no such field.
    checked_then_dropped = {**_RULE_FIELDS, "category": _FINGERPRINT_FIELDS["category"]}
    tables = {**FIELD_TABLES, FaultRule: checked_then_dropped}
    assert [entry.split(":")[0] for entry in _table_mismatches(tables)] == ["FaultRule"]


def test_every_record_field_is_read():
    assert set(_unread(_sources(), _record_fields())) == set(UNREAD_FIELDS)


def test_the_read_check_finds_a_field_nothing_reads():
    records = _record_fields()
    records["ClusterProfile"].append("module_system")
    records["ExecutionResult"].append("parsed_topology")
    unread = set(_unread(_sources(), records)) - set(UNREAD_FIELDS)
    assert unread == {"ClusterProfile.module_system", "ExecutionResult.parsed_topology"}


def test_the_read_check_credits_no_read_of_a_builtin_attribute():
    # Finding.span once passed: only regex matches' span() calls read the name.
    records = _record_fields()
    records["Finding"].append("span")
    sources = _sources()
    assert "m.span(kind)" in sources["prose.py"]
    assert "Finding.span" in _unread(sources, records)


def test_the_read_check_credits_no_read_in_code_without_callers():
    # _read is called only by _read_twice, which nothing calls: neither counts.
    records = _record_fields()
    records["ClusterProfile"].append("module_system")
    sources = _sources()
    sources["clusters.py"] += (
        "\n\ndef _read(profile):\n    return profile.module_system\n"
        "\n\ndef _read_twice(profile):\n    return _read(profile), _read(profile)\n")
    assert "ClusterProfile.module_system" in _unread(sources, records)
    sources["clusters.py"] += "\n\ndef __getattr__(name):\n    return _read_twice\n"
    assert "ClusterProfile.module_system" not in _unread(sources, records)


def test_the_read_check_covers_every_record():
    assert {"JobSpec", "ExecutionResult", "LoopOutcome", "PartialJobSpec"} <= set(_record_fields())


def _frozen_sets_outside_init(sources: dict[str, str]) -> list[str]:
    """``"<file>:<line> <function>"`` for each ``set_frozen`` call whose innermost
    enclosing function is not an ``__init__``."""
    found = []
    for file, text in sources.items():
        stack = [(ast.parse(text), "<module>")]
        while stack:
            node, function = stack.pop()
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "set_frozen" and function != "__init__"):
                found.append(f"{file}:{node.lineno} {function}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                function = getattr(node, "name", "<lambda>")
            stack.extend((child, function) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_a_frozen_record_is_set_only_in_its_init():
    assert _frozen_sets_outside_init(_sources()) == []


def test_the_init_check_finds_a_slot_filled_on_first_use():
    sources = _sources()
    eager = '        return self._parts\n'
    assert eager in sources["templates.py"]
    sources["templates.py"] = sources["templates.py"].replace(eager, (
        "        try:\n"
        "            return self._parts\n"
        "        except AttributeError:\n"
        "            set_frozen(self, '_parts', tuple(PLACEHOLDER_RE.split(self.body)))\n"
        "            return self._parts\n"
    ))
    assert [entry.split()[1] for entry in _frozen_sets_outside_init(sources)] == ["parts"]
