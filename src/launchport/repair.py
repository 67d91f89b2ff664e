"""Failure diagnosis and repair: the error-correction agent.

When a submission fails, the stderr is matched against an ordered set of
fingerprints (literal substrings or anchored regular expressions).  The
first match classifies the failure into the env / framework / user taxonomy
and selects a fixed, ordered list of typed repair actions from the bundled
repair table.  Repairs are typed edits, never free-text rewrites: they
preserve the template structure that makes the generated scripts reliable.
A remote model bridge, when enabled, may contribute proposals for failures
no fingerprint covers; :mod:`launchport.bridge` parses its free-text
suggestions into the same typed actions or drops them.

The bounded verify/debug loop that calls :func:`diagnose`, :func:`propose`
and :func:`apply_action` is :func:`launchport.pipeline.run_loop`.  It
imports this module at the first failed submission, and reads the bundled
fingerprints and repair table then, so a job whose scripts all pass loads
neither.  ``launchport.repair.run_loop`` still names that function.
"""

from __future__ import annotations

import functools
import json
import re
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import Protocol

from .clusters import ClusterProfile
from .documents import OBJECT, OPTIONAL, REQUIRED, TEXT, TEXT_OR_INT, bundled, check_record
from .documents import load_json
from .errors import (
    BridgeError,
    ContractViolationError,
    NoRepairAvailableError,
    RuleParseError,
    UsageError,
)
from .intent import JobSpec, check_script_text
from .simcluster import ExecutionResult
from .synthesis import _SHELL_NAME, RenderedScript, render_for_spec
from .templates import Template, TemplateSet
# Re-exported, so every diagnosis category can be imported from here.
from .types import (
    CATEGORIES,
    CATEGORY_ENV,
    CATEGORY_FRAMEWORK,
    CATEGORY_UNKNOWN,
    CATEGORY_USER,
    PORT_MAX,
    PORT_MIN,
    REPAIR_PAYLOAD_KEYS,
    FrozenRecord,
    set_frozen,
    valid_port,
)


class RepairAction(FrozenRecord):
    """One typed edit to a script or job spec.

    The constructor refuses a kind outside ``REPAIR_PAYLOAD_KEYS`` and a
    payload that lacks one of its kind's keys there
    (:class:`ContractViolationError`), a payload text of ``export_env``,
    ``add_module_load``, ``pin_version`` or ``prepend_line``, which goes into
    the script as it is, that breaks :func:`intent.check_script_text`, and an
    ``export_env`` name that is not an ASCII shell identifier
    (``[A-Za-z_][A-Za-z0-9_]*``) (:class:`UsageError`).

    :func:`run_loop` counts an action as already tried when one with the
    same fingerprint id and the same :meth:`signature` was tried before:
    the kind and the payload as sorted-key JSON, so ``rationale`` and the
    payload's key order do not count, but a value's type does (``1`` is
    not ``"1"``).  The payload must not change after the action is built.
    """

    __slots__ = ("kind", "payload", "rationale", "_signature")

    def __init__(self, kind: str, payload: dict, rationale: str = "") -> None:
        keys = REPAIR_PAYLOAD_KEYS.get(kind)
        if keys is None:
            raise ContractViolationError(f"unknown repair kind '{kind}'")
        for key in keys:
            if key not in payload:
                raise ContractViolationError(f"{kind} payload lacks '{key}'")
            if kind in _TEXT_EDITS:
                check_script_text(f"{kind} {key}", payload[key])
        if kind == "export_env":
            name = payload["name"]
            if not (isinstance(name, str) and _SHELL_NAME.fullmatch(name)):
                raise UsageError(f"export_env name must be a shell name: an ASCII letter or "
                                 f"'_', then ASCII letters, digits or '_' (got {name!r})")
        set_frozen(self, "kind", kind)
        set_frozen(self, "payload", payload)
        set_frozen(self, "rationale", rationale)
        set_frozen(self, "_signature", (kind, json.dumps(payload, sort_keys=True)))

    def signature(self) -> tuple[str, str]:
        """``(kind, json.dumps(payload, sort_keys=True))``.

        Serialised when the action is built and kept in the ``_signature``
        slot, which is not a field, so equality, hashing, repr and pickling
        are unaffected.
        """
        return self._signature


class Diagnosis(FrozenRecord):
    """Classified failure.

    ``remote_actions`` carries already-parsed proposals when the remote
    bridge supplied the diagnosis; it is empty for fingerprint matches.
    """

    __slots__ = ("category", "fingerprint_id", "explanation", "remote_actions")

    def __init__(
        self,
        category: str,
        fingerprint_id: str | None,
        explanation: str,
        remote_actions: tuple[RepairAction, ...] = (),
    ) -> None:
        set_frozen(self, "category", category)
        set_frozen(self, "fingerprint_id", fingerprint_id)
        set_frozen(self, "explanation", explanation)
        set_frozen(self, "remote_actions", remote_actions)


class Fingerprint(FrozenRecord):
    """One stderr pattern mapping a failure to its category.

    Exactly one of ``literal`` and ``regex`` is given; anything else raises
    :class:`ContractViolationError`.
    """

    __slots__ = ("id", "category", "literal", "regex", "explanation", "_search")

    def __init__(
        self,
        id: str,
        category: str,
        literal: str | None = None,
        regex: str | None = None,
        explanation: str = "",
    ) -> None:
        if (literal is None) == (regex is None):
            raise ContractViolationError("pattern must give exactly one of 'literal' or 'regex'")
        set_frozen(self, "id", id)
        set_frozen(self, "category", category)
        set_frozen(self, "literal", literal)
        set_frozen(self, "regex", regex)
        set_frozen(self, "explanation", explanation)
        # A bad regex raises re.error here.  The compiled search, or None, is kept
        # in a slot that is not a field, so equality, hashing and repr are unaffected.
        set_frozen(self, "_search", None if regex is None else re.compile(regex, re.M).search)


class FingerprintSet:
    """Ordered fingerprints; first match wins.  Each one's :class:`Diagnosis` is
    built once, with the set, and shared by every failure it matches."""

    def __init__(self, fingerprints: list[Fingerprint]):
        # Per fingerprint, in order: its literal, its search and its diagnosis.
        self._tests = [
            (fp.literal, fp._search, Diagnosis(
                fp.category, fp.id, fp.explanation or f"matched fingerprint {fp.id}"))
            for fp in fingerprints
        ]


# Fingerprint id -> its ordered repair actions; load_repair_table's is read-only.
RepairTable = Mapping[str, tuple[RepairAction, ...]]


_FINGERPRINT_FIELDS = {
    "id": (TEXT, REQUIRED), "category": (CATEGORIES, REQUIRED), "pattern": (OBJECT, REQUIRED),
    "explanation": (TEXT, OPTIONAL),
}
# Exactly one of the two, which the Fingerprint constructor checks.
_PATTERN_FIELDS = {"literal": (TEXT, OPTIONAL), "regex": (TEXT, OPTIONAL)}
_ACTION_FIELDS = {
    "kind": (tuple(REPAIR_PAYLOAD_KEYS), REQUIRED), "payload": (OBJECT, OPTIONAL),
    "rationale": (TEXT, OPTIONAL),
}
# Per kind, its payload: every key required, and every value text, except
# that set_param may set an integer.
_PAYLOAD_FIELDS = {
    kind: {key: (TEXT_OR_INT if kind == "set_param" and key == "value" else TEXT, REQUIRED)
           for key in keys}
    for kind, keys in REPAIR_PAYLOAD_KEYS.items()
}


def load_fingerprints(source: Path | str) -> FingerprintSet:
    """Load a fingerprint document (JSON array, matched in array order).

    ``source`` is a path or the JSON text itself; see :mod:`launchport.documents`.
    """
    records = load_json(source, list, "fingerprint document", RuleParseError)
    fingerprints, ids = [], set()
    for i, raw in enumerate(records):
        error = functools.partial(RuleParseError, index=i)
        check_record(raw, _FINGERPRINT_FIELDS, "fingerprint", error)
        pattern = raw["pattern"]
        check_record(pattern, _PATTERN_FIELDS, "pattern", error)
        try:
            fingerprint = Fingerprint(
                raw["id"], raw["category"], **pattern, explanation=raw.get("explanation", ""))
        except ContractViolationError as exc:
            raise error(str(exc)) from exc
        except re.error as exc:
            raise error(f"bad regex: {exc}") from exc
        if fingerprint.id in ids:
            raise error(f"duplicate fingerprint id '{fingerprint.id}'")
        ids.add(fingerprint.id)
        fingerprints.append(fingerprint)
    return FingerprintSet(fingerprints)


def load_repair_table(source: Path | str) -> RepairTable:
    """Load the repair table (JSON object: fingerprint id -> action list) as a
    read-only mapping from fingerprint id to a tuple of actions.

    ``source`` is a path or the JSON text itself; see :mod:`launchport.documents`.
    """
    raw = load_json(source, dict, "repair table", RuleParseError)
    table: dict[str, tuple[RepairAction, ...]] = {}
    for record, (fingerprint_id, actions) in enumerate(raw.items()):
        if not isinstance(actions, list):
            raise RuleParseError(
                f"actions for '{fingerprint_id}' must be a list", index=record
            )
        parsed = []
        for i, entry in enumerate(actions):
            error = functools.partial(RuleParseError, index=i)
            check_record(entry, _ACTION_FIELDS, f"action for '{fingerprint_id}'", error)
            kind, payload = entry["kind"], entry.get("payload", {})
            check_record(payload, _PAYLOAD_FIELDS[kind], f"{kind} for '{fingerprint_id}'", error)
            try:
                parsed.append(RepairAction(kind, dict(payload), entry.get("rationale", "")))
            except UsageError as exc:
                raise error(str(exc)) from exc
        table[fingerprint_id] = tuple(parsed)
    return MappingProxyType(table)


@functools.cache
def default_fingerprints() -> FingerprintSet:
    """The bundled fingerprints, parsed once per process."""
    return load_fingerprints(bundled("fingerprints.json"))


@functools.cache
def default_repair_table() -> RepairTable:
    """The bundled repair table, parsed once per process."""
    return load_repair_table(bundled("repairs.json"))


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------


class RepairBridge(Protocol):
    """Remote-repair capability surface the loop relies on."""

    def enabled(self, capability: str) -> bool: ...

    def remote_repair(self, context: dict) -> tuple[str, list[str]]: ...


def diagnose(
    res: ExecutionResult,
    profile: ClusterProfile,
    fingerprints: FingerprintSet,
    bridge: RepairBridge | None = None,
    script_text: str = "",
    spec: JobSpec | None = None,
) -> Diagnosis:
    """Classify a failed execution.

    First matching fingerprint wins.  Unknown failures are forwarded to the
    remote bridge when its repair capability is enabled; the category stays
    ``unknown`` only when neither source produced anything usable.
    Calling this on a successful result is a caller bug.
    """
    if res.exit_code == 0:
        raise ContractViolationError("diagnose called on a successful result")
    stderr = res.stderr
    for literal, search, diagnosis in fingerprints._tests:
        if search(stderr) if literal is None else literal in stderr:
            return diagnosis
    if bridge is not None and bridge.enabled("repair"):
        try:
            category, proposals = bridge.remote_repair(
                {
                    "stderr": res.stderr,
                    "script": script_text,
                    "spec": _spec_summary(spec),
                    "profile": {
                        "id": profile.id,
                        "scheduler": profile.scheduler.value,
                        "gpu_type": profile.gpu_type,
                    },
                }
            )
        except BridgeError:
            category, proposals = CATEGORY_UNKNOWN, []
        # Imported here: only a remote diagnosis needs the proposal grammar.
        from .bridge import parse_proposals

        actions = parse_proposals(proposals)
        if actions and category in CATEGORIES:
            return Diagnosis(
                category=category,
                fingerprint_id=None,
                explanation="remote bridge proposed repairs for an unrecognized failure",
                remote_actions=tuple(actions),
            )
    return Diagnosis(
        category=CATEGORY_UNKNOWN,
        fingerprint_id=None,
        explanation="no matching fingerprint",
    )


def _spec_summary(spec: JobSpec | None) -> dict:
    if spec is None:
        return {}
    return {
        "cluster": spec.cluster,
        "framework": spec.framework.value,
        "strategy": spec.strategy.value,
        "launcher": spec.launcher.value,
        "nodes": spec.nodes,
        "gpus_per_node": spec.gpus_per_node,
        "entry_script": spec.entry_script,
    }


def propose(d: Diagnosis, table: RepairTable) -> list[RepairAction]:
    """Ordered repair actions for a diagnosis.

    Fingerprinted failures map to ``table``; bridge-supplied diagnoses
    carry their own parsed actions.  An unknown diagnosis with no remote
    actions, like a fingerprint the table does not list, gets ``[]``.
    """
    if d.fingerprint_id is not None:
        return list(table.get(d.fingerprint_id, ()))
    return list(d.remote_actions)


# ---------------------------------------------------------------------------
# Action application
# ---------------------------------------------------------------------------


def apply_action(
    action: RepairAction,
    script: RenderedScript,
    spec: JobSpec,
    template: Template,
    profile: ClusterProfile,
    template_set: TemplateSet | None = None,
) -> tuple[RenderedScript, JobSpec, Template]:
    """Apply one typed edit, returning the new script, spec, and template.

    Script-level edits (exports, module loads, prepends) are text surgery on
    the rendered script, whose payload text the action's constructor has
    checked, through :meth:`RenderedScript.with_export` and
    :meth:`RenderedScript.with_line_above`, which keep the script's read of
    its counts where the edit cannot change them;
    spec-level edits (arguments, the job's DeepSpeed config or port, templates)
    re-render the new job, so the script states the job it is verified against.
    An edit that would bring a single quote or a newline into the job
    (:func:`intent.check_script_text`), or that names a field, port or template
    it cannot use (:class:`NoRepairAvailableError`), cannot be applied.
    """
    kind = action.kind
    payload = action.payload
    edit = _TEXT_EDITS.get(kind)
    if edit is not None:
        return edit(payload, script), spec, template
    if kind == "add_arg":
        train_args = f"{spec.train_args} {payload['args']}".strip()
        check_script_text("train_args", train_args)
        spec = spec.replace(train_args=train_args)
    elif kind == "set_param":
        param, value = payload["param"], payload["value"]
        check_script_text(param, value)
        if param == "deepspeed_config":
            spec = spec.replace(deepspeed_config=str(value))
        elif param == "master_port":
            # Anything but a port ("abc" from a remote proposal) cannot be applied.
            port = valid_port(value)
            if port is None:
                raise NoRepairAvailableError(
                    f"master_port must be an integer in [{PORT_MIN}, {PORT_MAX}], got {value!r}")
            spec = spec.replace(master_port=port, master_port_explicit=True)
        else:
            raise NoRepairAvailableError(f"set_param sets no job field '{param}'")
    else:  # switch_template
        template_id = payload["template_id"]
        if template_set is None or template_id not in template_set:
            raise NoRepairAvailableError(f"no template '{template_id}' to switch to")
        template = template_set.get(template_id)
    return render_for_spec(spec, template, profile), spec, template


# The text edits, which put their payload text into the script as it is: kind ->
# (payload, script) -> the edited script.
_TEXT_EDITS = {
    "export_env": lambda p, script: script.with_export(p["name"]),
    "add_module_load": lambda p, script: script.with_line_above(f"module load {p['module']}"),
    "pin_version": lambda p, script: script.with_line_above(
        f"module load {p['package']}/{p['version']}"),
    "prepend_line": lambda p, script: script.with_line_above(p["line"]),
}


def __getattr__(name: str):
    """``run_loop``, read from :mod:`launchport.pipeline`, where the loop lives."""
    if name == "run_loop":
        from .pipeline import run_loop

        return run_loop
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
