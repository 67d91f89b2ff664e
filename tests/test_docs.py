"""``docs/formats.md`` states the same facts as the code that owns them."""

import re
from pathlib import Path

import pytest

from launchport.clusters import _PROFILE_FIELDS, ClusterProfile
from launchport.documents import OPTIONAL
from launchport.lint import CATALOG
from launchport.simcluster import _RULE_FIELDS, _STDERR_FIELDS, _TRIGGER_FIELDS
from launchport.templates import _TEMPLATE_FIELDS
from launchport.types import REPAIR_PAYLOAD_KEYS

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def _section(doc: str, heading: str) -> str:
    """The text under the ``## heading`` line, up to the next one."""
    start = doc.index(f"\n## {heading}\n")
    end = doc.find("\n## ", start + 1)
    return doc[start:] if end < 0 else doc[start:end]


def _rows(section: str) -> list[list[str]]:
    """The body rows of the section's tables, as cells with the backticks removed.

    A cell that holds a ``|`` between backticks splits in two; only the
    leading cells are read.
    """
    rows = []
    for line in section.splitlines():
        if line.startswith("|") and not line.startswith("|-"):
            rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows[1:]  # without the header row


def _facts(doc: str) -> dict[str, list]:
    profiles = _section(doc, "Cluster profile bundle (`clusters.json`)")
    optional = re.search(r"\n((?:`\w+`(?: and |, )?)+) may be omitted", profiles)
    templates = _section(doc, "Template repository (`templates.json`)")
    rules = _section(doc, "Fault rules (`fault_rules.json`)")
    # The prose list of rule fields, each one's parenthetical removed.
    rule_fields = re.search(r"Record fields:(.*?)\.\s", re.sub(r"\([^()]*\)", "", rules), re.S)
    stderr = re.search(r"`stderr` may interpolate (.*?)(?:\n\n|\Z)", rules, re.S)
    repairs = _section(doc, "Fingerprints (`fingerprints.json`) and repair table (`repairs.json`)")
    return {
        "profile fields": [row[0] for row in _rows(profiles)],
        "optional profile fields": re.findall(r"`(\w+)`", optional[1]) if optional else [],
        "template fields": [row[0] for row in _rows(templates)],
        "rule fields": re.findall(r"`(\w+)`", rule_fields[1]) if rule_fields else [],
        "trigger atoms": [row[0] for row in _rows(rules)],
        "stderr fields": re.findall(r"`\{(\w+)\}`", stderr[1]) if stderr else [],
        "repair kinds": [(row[0], tuple(re.findall(r'"(\w+)":', row[1])))
                         for row in _rows(repairs)],
        "lint codes": [(row[0], row[1]) for row in _rows(_section(doc, "Static lint findings"))],
    }


OWNERS = {
    "profile fields": list(ClusterProfile._fields),
    "optional profile fields": [
        name for name, (_, required) in _PROFILE_FIELDS.items() if required is OPTIONAL],
    "template fields": list(_TEMPLATE_FIELDS),
    "rule fields": list(_RULE_FIELDS),
    "trigger atoms": list(_TRIGGER_FIELDS),
    "stderr fields": list(_STDERR_FIELDS),
    "repair kinds": list(REPAIR_PAYLOAD_KEYS.items()),
    "lint codes": list(CATALOG.items()),
}


def _disagreements(doc: str) -> list[str]:
    facts = _facts(doc)
    return [name for name, owned in OWNERS.items() if facts[name] != owned]


def test_the_docs_state_what_the_code_owns():
    doc = FORMATS.read_text("utf-8")
    facts = _facts(doc)
    assert {name: facts[name] for name in _disagreements(doc)} == {}


@pytest.mark.parametrize("table, row, mutated", [
    ("profile fields", "| `gpu_type`     ", "| `gpu_model`    "),
    ("optional profile fields", "`aliases` may", "`aliases` and `gpu_type` may"),
    ("template fields", "| `notes`     |", "| `comment`   |"),
    ("rule fields", "`trigger`, `stderr`, `clearable_by`", "`trigger`, `clearable_by`"),
    ("trigger atoms", "| `nodes_gt`", "| `nodes_lt`"),
    ("stderr fields", "`{scheduler}`", "`{queue}`"),
    ("repair kinds", '`{"package": P, "version": V}`', '`{"package": P}`'),
    ("lint codes", "| `ENV_PROPAGATION_RISK`  | warning", "| `ENV_PROPAGATION_RISK`  | error  "),
])
def test_one_mutated_row_fails_the_check(table, row, mutated):
    doc = FORMATS.read_text("utf-8")
    assert doc.count(row) == 1
    assert _disagreements(doc.replace(row, mutated)) == [table]
