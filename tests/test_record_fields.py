"""Every document record is checked against its declared field table.

A field that is unknown, missing or of the wrong type is refused with the
loader's own error, and no value is coerced: ``"no"`` is not a bool, ``4.9``
not an integer and ``["a"]`` not an id.
"""

import json

import pytest
from hypothesis import given, strategies as st

from launchport.bridge import load_bridge_config, parse_proposal
from launchport.clusters import _PROFILE_FIELDS, load_profiles
from launchport.documents import bundled
from launchport.errors import (
    BridgeProtocolError,
    ProfileParseError,
    RuleParseError,
    TemplateInvalidError,
)
from launchport.repair import (
    _ACTION_FIELDS,
    _FINGERPRINT_FIELDS,
    _PATTERN_FIELDS,
    load_fingerprints,
    load_repair_table,
)
from launchport.simcluster import _RULE_FIELDS, _TRIGGER_FIELDS, load_fault_rules
from launchport.templates import _PARAM_FIELDS, _TEMPLATE_FIELDS, load_repository
from launchport.types import REPAIR_PAYLOAD_KEYS


def _rule(**changes):
    return {"id": "X", "cluster": "*", "trigger": {}, "stderr": "b", **changes}


def _profile(**changes):
    return {**json.loads(bundled("clusters.json"))[0], **changes}


def _template(**changes):
    return {**json.loads(bundled("templates.json"))[0], **changes}


def _fingerprint(**changes):
    return {"id": "fp", "category": "env", "pattern": {"literal": "b"}, **changes}


@pytest.mark.parametrize("load, document, message", [
    (load_fault_rules, [_rule(clearble_by=["export_env"])],
     "rule: unknown field 'clearble_by' (rule index 0)"),
    (load_fault_rules, [_rule(id=["a"])], "rule: 'id' must be a string (rule index 0)"),
    (load_fault_rules, [_rule(stderr=["x"])], "rule: 'stderr' must be a string (rule index 0)"),
    (load_fault_rules, [_rule(trigger={"nodes_gt": True})],
     "trigger: 'nodes_gt' must be an integer (rule index 0)"),
    (load_profiles, [_profile(env_propagation="no")],
     "profile record: 'env_propagation' must be true or false"
     " (record 0, field 'env_propagation')"),
    (load_profiles, [_profile(gpus_per_node=4.9)],
     "profile record: 'gpus_per_node' must be an integer (record 0, field 'gpus_per_node')"),
    (load_repository, [_template(verified="false")],
     "template '#0': template record: 'verified' must be true or false"),
    (load_bridge_config, {"timeout_ms": "5"},
     "invalid bridge config: the document: 'timeout_ms' must be an integer"),
    (load_bridge_config, {"endpoint": "http://x", "capabilities": "extract"},
     "invalid bridge config: the document: 'capabilities' must be a list of strings"),
    (load_repair_table, {"F": [{"kind": "export_env", "payload": {"name": "X", "value": "Y"}}]},
     "export_env for 'F': unknown field 'value' (rule index 0)"),
    # Fields that no code read, deleted from the formats: a document that keeps one is refused.
    (load_profiles, [_profile(module_system="lmod")],
     "profile record: unknown field 'module_system' (record 0, field 'module_system')"),
    (load_profiles, [_profile(python_env="venv")],
     "profile record: unknown field 'python_env' (record 0, field 'python_env')"),
    (load_profiles, [_profile(known_faults=[])],
     "profile record: unknown field 'known_faults' (record 0, field 'known_faults')"),
    (load_fault_rules, [_rule(category="env")], "rule: unknown field 'category' (rule index 0)"),
], ids=["rule-typo", "rule-id-list", "rule-stderr-list", "nodes-gt-bool", "env-propagation-no",
        "gpus-per-node-float", "verified-false-text", "timeout-text", "capabilities-text",
        "payload-unknown-key", "profile-module-system", "profile-python-env",
        "profile-known-faults", "rule-category"])
def test_a_coerced_or_unknown_field_is_refused(load, document, message):
    with pytest.raises((ProfileParseError, TemplateInvalidError, RuleParseError,
                        BridgeProtocolError)) as exc:
        load(json.dumps(document))
    assert str(exc.value) == message


def test_a_profile_error_names_its_record_and_field():
    with pytest.raises(ProfileParseError) as exc:
        load_profiles(json.dumps([_profile(), _profile(id="other", aliases=[], oops=1)]))
    assert (exc.value.record, exc.value.field) == (1, "oops")


@pytest.mark.parametrize("load, record, message", [
    (load_fault_rules, _rule(), "duplicate rule id 'X'"),
    (load_fingerprints, _fingerprint(), "duplicate fingerprint id 'fp'"),
], ids=["fault-rules", "fingerprints"])
def test_a_duplicate_id_is_refused_at_the_second_record(load, record, message):
    other = {**record, "id": "other"}
    with pytest.raises(RuleParseError) as exc:
        load(json.dumps([record, other, record]))
    assert exc.value.index == 2
    assert str(exc.value) == f"{message} (rule index 2)"


# Every free-text form parse_proposal knows, one per pattern; prepend_line has none.
PROPOSALS = {
    "module load cuda/12.4": ("add_module_load", {"module": "cuda/12.4"}),
    "export PYTHONPATH inside the launch": ("export_env", {"name": "PYTHONPATH"}),
    "switch to template perlmutter-ddp": ("switch_template", {"template_id": "perlmutter-ddp"}),
    "add the argument --dataset_name glue": ("add_arg", {"args": "--dataset_name glue"}),
    "set master_port to 29501": ("set_param", {"param": "master_port", "value": "29501"}),
    "pin numpy to 1.26.4": ("pin_version", {"package": "numpy", "version": "1.26.4"}),
    "use the nightly PyTorch build": ("pin_version", {"package": "pytorch", "version": "nightly"}),
}


@pytest.mark.parametrize("text", PROPOSALS)
def test_a_parsed_proposal_has_the_payload_the_table_loader_requires(text):
    action = parse_proposal(text)
    kind, payload = PROPOSALS[text]
    assert (action.kind, action.payload) == (kind, payload)
    assert tuple(action.payload) == REPAIR_PAYLOAD_KEYS[kind]
    document = {"F": [{"kind": kind, "payload": payload, "rationale": action.rationale}]}
    assert load_repair_table(json.dumps(document))["F"] == (action,)


def test_the_proposals_cover_every_kind_but_prepend_line():
    assert {kind for kind, _ in PROPOSALS.values()} == set(REPAIR_PAYLOAD_KEYS) - {"prepend_line"}


# The bundled documents, each with its loader and that loader's error class.
BUNDLED = {
    "clusters.json": (load_profiles, ProfileParseError),
    "templates.json": (load_repository, TemplateInvalidError),
    "fault_rules.json": (load_fault_rules, RuleParseError),
    "fingerprints.json": (load_fingerprints, RuleParseError),
    "repairs.json": (load_repair_table, RuleParseError),
}
KNOWN_FIELDS = {
    name
    for fields in (_PROFILE_FIELDS, _TEMPLATE_FIELDS, _PARAM_FIELDS, _RULE_FIELDS,
                   _TRIGGER_FIELDS, _FINGERPRINT_FIELDS, _PATTERN_FIELDS, _ACTION_FIELDS)
    for name in fields
} | {key for keys in REPAIR_PAYLOAD_KEYS.values() for key in keys}
# Fields whose kind admits more than one type: a param's default, which
# validate_template checks by the param's kind, and set_param's value.
SEVERAL_TYPES = {"default", "value"}
# One value of each JSON type; a leaf is replaced by one of another type.
JSON_VALUES = [None, True, 7, 2.5, "text", [1], {}]


def _places(value, path=()):
    """(path, value) of every object and every leaf under ``value``."""
    if isinstance(value, (dict, list)):
        if isinstance(value, dict):
            yield path, value
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            if key not in SEVERAL_TYPES:
                yield from _places(item, path + (key,))
    else:
        yield path, value


def _at(document, path):
    for key in path:
        document = document[key]
    return document


@pytest.mark.parametrize("name", BUNDLED)
@given(data=st.data())
def test_a_mutated_bundled_document_raises_only_its_loaders_error(name, data):
    load, error = BUNDLED[name]
    document = json.loads(bundled(name))
    # The repair table's own keys are fingerprint ids, not fields.
    places = [(path, value) for path, value in _places(document) if path]
    path, value = data.draw(st.sampled_from(places), label="place")
    if isinstance(value, dict):
        key = data.draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
                        .filter(lambda k: k not in KNOWN_FIELDS), label="unknown key")
        value[key] = data.draw(st.sampled_from(JSON_VALUES), label="its value")
    else:
        other = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if v.__class__ is not value.__class__]), label="new leaf")
        _at(document, path[:-1])[path[-1]] = other
    with pytest.raises(error):
        load(json.dumps(document))
