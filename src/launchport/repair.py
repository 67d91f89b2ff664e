"""Failure diagnosis and bounded repair loop.

When a submission fails, the stderr is matched against an ordered set of
fingerprints (literal substrings or anchored regular expressions).  The
first match classifies the failure into the env / framework / user taxonomy
and selects a fixed, ordered list of typed repair actions from the bundled
repair table.  Repairs are typed edits, never free-text rewrites: they
preserve the template structure that makes the generated scripts reliable.
A remote model bridge, when enabled, may contribute proposals for failures
no fingerprint covers; its free-text suggestions are parsed into the same
typed actions or dropped.

:func:`run_loop` submits to the mock cluster (:func:`simcluster.submit`)
under the caller's fault rules, applies one action per iteration, first
untried action first, re-lints, and resubmits.  An action already tried for
the same fingerprint is never retried, which bounds the loop: it halts
within ``max_iter`` repair iterations for every input.  It has one exit:
every failed submission is diagnosed and recorded, and the loop returns
``unresolved`` when the bound is exhausted or no actions remain.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path
from typing import Iterator, Protocol

from .clusters import ClusterProfile
from .documents import OBJECT, OPTIONAL, REQUIRED, TEXT, TEXT_OR_INT, bundled, check_record
from .documents import load_json
from .errors import (
    BridgeError,
    ContractViolationError,
    LaunchportError,
    NoRepairAvailableError,
    RuleParseError,
)
from .intent import JobSpec, check_script_text
from .lint import Finding, error_count, lint
from .simcluster import ExecutionResult, FaultRuleSet, submit
from .synthesis import RenderedScript, render, render_for_spec
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

STATUS_SUCCESS = "success"
STATUS_UNRESOLVED = "unresolved"

MAX_ITERATIONS = 5


class RepairAction(FrozenRecord):
    """One typed edit to a script or job spec.

    :func:`run_loop` counts an action as already tried when one with the
    same fingerprint id and the same :meth:`signature` was tried before:
    the kind and the payload as sorted-key JSON, so ``rationale`` and the
    payload's key order do not count, but a value's type does (``1`` is
    not ``"1"``).  The payload must not change after the action is built.
    """

    __slots__ = ("kind", "payload", "rationale", "_signature")

    def __init__(self, kind: str, payload: dict, rationale: str = "") -> None:
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
        # A bad regex raises re.error here.  The compiled search is kept in a
        # slot that is not a field, so equality, hashing and repr are unaffected.
        if regex is not None:
            set_frozen(self, "_search", re.compile(regex, re.MULTILINE).search)

    def matches(self, stderr: str) -> bool:
        if self.literal is not None:
            return self.literal in stderr
        return self._search(stderr) is not None


class FingerprintSet:
    """Ordered fingerprints; first match wins."""

    def __init__(self, fingerprints: list[Fingerprint]):
        self._fingerprints = list(fingerprints)

    def __iter__(self) -> Iterator[Fingerprint]:
        return iter(self._fingerprints)

    def __len__(self) -> int:
        return len(self._fingerprints)

    def match(self, stderr: str) -> Fingerprint | None:
        for fp in self._fingerprints:
            if fp.matches(stderr):
                return fp
        return None


class RepairTable:
    """Fingerprint id -> ordered repair actions."""

    def __init__(self, table: dict[str, list[RepairAction]]):
        self._table = dict(table)

    def actions_for(self, fingerprint_id: str) -> list[RepairAction]:
        return list(self._table.get(fingerprint_id, []))

    def fingerprint_ids(self) -> list[str]:
        return list(self._table)


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
    """Load the repair table (JSON object: fingerprint id -> action list).

    ``source`` is a path or the JSON text itself; see :mod:`launchport.documents`.
    """
    raw = load_json(source, dict, "repair table", RuleParseError)
    table: dict[str, list[RepairAction]] = {}
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
            parsed.append(RepairAction(kind, dict(payload), entry.get("rationale", "")))
        table[fingerprint_id] = parsed
    return RepairTable(table)


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
    fp = fingerprints.match(res.stderr)
    if fp is not None:
        return Diagnosis(
            category=fp.category,
            fingerprint_id=fp.id,
            explanation=fp.explanation or f"matched fingerprint {fp.id}",
        )
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


# ---------------------------------------------------------------------------
# Proposal parsing (free text -> typed actions)
# ---------------------------------------------------------------------------

_P_EXPORT = re.compile(r"\bexport(?:ing)?\s+\$?([A-Z_][A-Z0-9_]*)")
_P_MODULE = re.compile(r"\bmodule\s+load\s+([\w./+-]+)", re.I)
_P_NIGHTLY = re.compile(r"\bnightly\b.*\b(?:pytorch|torch)\b|\b(?:pytorch|torch)\b.*\bnightly\b", re.I | re.S)
_P_SWITCH = re.compile(r"\bswitch(?:ing)?\s+(?:to\s+)?template\s+([\w-]+)", re.I)
_P_ADD_ARG = re.compile(r"\badd(?:ing)?\s+(?:the\s+)?arg(?:ument)?s?\s+(.+)", re.I)
_P_SET = re.compile(r"\bset\s+([\w.]+)\s+to\s+(\S+)", re.I)
_P_PIN = re.compile(r"\bpin\s+([\w-]+)\s+(?:to\s+)?([\w.+-]+)", re.I)


def parse_proposal(text: str) -> RepairAction | None:
    """Parse one free-text proposal into a typed action, or drop it."""
    m = _P_MODULE.search(text)
    if m:
        return RepairAction("add_module_load", {"module": m.group(1)}, rationale=text.strip())
    m = _P_EXPORT.search(text)
    if m:
        return RepairAction("export_env", {"name": m.group(1)}, rationale=text.strip())
    m = _P_SWITCH.search(text)
    if m:
        return RepairAction("switch_template", {"template_id": m.group(1)}, rationale=text.strip())
    m = _P_ADD_ARG.search(text)
    if m:
        return RepairAction("add_arg", {"args": m.group(1).strip()}, rationale=text.strip())
    m = _P_SET.search(text)
    if m:
        return RepairAction("set_param", {"param": m.group(1), "value": m.group(2)}, rationale=text.strip())
    m = _P_PIN.search(text)
    if m:
        return RepairAction(
            "pin_version", {"package": m.group(1), "version": m.group(2)}, rationale=text.strip()
        )
    if _P_NIGHTLY.search(text):
        return RepairAction(
            "pin_version", {"package": "pytorch", "version": "nightly"}, rationale=text.strip()
        )
    return None


def parse_proposals(proposals: list[str]) -> list[RepairAction]:
    """Parse proposals in order, silently dropping unparseable ones."""
    actions = []
    for text in proposals:
        action = parse_proposal(text)
        if action is not None:
            actions.append(action)
    return actions


def propose(d: Diagnosis, table: RepairTable) -> list[RepairAction]:
    """Ordered repair actions for a diagnosis.

    Fingerprinted failures map to ``table``; bridge-supplied diagnoses
    carry their own parsed actions.  An unknown diagnosis with no remote
    actions has no repair available.
    """
    if d.fingerprint_id is not None:
        return table.actions_for(d.fingerprint_id)
    if d.remote_actions:
        return list(d.remote_actions)
    raise NoRepairAvailableError(
        "diagnosis is unknown and no remote repair bridge is enabled"
    )


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
    the rendered script; spec-level edits (arguments, parameter values)
    rebind and re-render so the template structure is preserved.  A
    spec-level edit that would bring a single quote or a newline into the
    script cannot be applied (:func:`intent.check_script_text`).
    """
    kind = action.kind
    payload = action.payload
    if kind == "export_env":
        name = payload["name"]
        text = _inject_into_launch(script.text, f"export {name}=${name}")
        return script.replace(text=text), spec, template
    if kind == "add_module_load":
        return script.replace(text=f"module load {payload['module']}\n{script.text}"), spec, template
    if kind == "pin_version":
        line = f"module load {payload['package']}/{payload['version']}"
        return script.replace(text=f"{line}\n{script.text}"), spec, template
    if kind == "prepend_line":
        return script.replace(text=f"{payload['line']}\n{script.text}"), spec, template
    if kind == "add_arg":
        train_args = f"{spec.train_args} {payload['args']}".strip()
        check_script_text("train_args", train_args)
        new_spec = spec.replace(train_args=train_args)
        return render_for_spec(new_spec, template, profile), new_spec, template
    if kind == "set_param":
        return _apply_set_param(payload, script, spec, template, profile)
    if kind == "switch_template":
        template_id = payload["template_id"]
        if template_set is None or template_id not in template_set:
            raise NoRepairAvailableError(f"no template '{template_id}' to switch to")
        new_t = template_set.get(template_id)
        return render_for_spec(spec, new_t, profile), spec, new_t
    raise LaunchportError(f"unknown repair kind '{kind}'")


def _apply_set_param(
    payload: dict,
    script: RenderedScript,
    spec: JobSpec,
    template: Template,
    profile: ClusterProfile,
) -> tuple[RenderedScript, JobSpec, Template]:
    param = payload["param"]
    value = payload["value"]
    check_script_text(param, value)
    if param == "deepspeed_config":
        new_spec = spec.replace(deepspeed_config=str(value))
        return render_for_spec(new_spec, template, profile), new_spec, template
    if param == "master_port":
        # Anything but a port ("abc" from a remote proposal) cannot be applied.
        port = valid_port(value)
        if port is None:
            raise NoRepairAvailableError(
                f"master_port must be an integer in [{PORT_MIN}, {PORT_MAX}], got {value!r}"
            )
        new_spec = spec.replace(master_port=port, master_port_explicit=True)
        return render_for_spec(new_spec, template, profile), new_spec, template
    return render(template, {**script.binding, param: value}), spec, template


def _inject_into_launch(text: str, statement: str) -> str:
    """Place a statement inside the remote launch command when one exists.

    Schedulers that do not propagate the environment need the statement to
    run on every node, which means inside the ``bash -c '...'`` payload; a
    plain prepended line only runs on the first node.
    """
    marker = "bash -c '"
    idx = text.find(marker)
    if idx >= 0:
        insert_at = idx + len(marker)
        return f"{text[:insert_at]}{statement}; {text[insert_at:]}"
    return f"{statement}\n{text}"


# ---------------------------------------------------------------------------
# The bounded loop
# ---------------------------------------------------------------------------


class HistoryEntry(FrozenRecord):
    __slots__ = ("diagnosis", "action", "result")

    def __init__(
        self, diagnosis: Diagnosis, action: RepairAction | None, result: ExecutionResult,
    ) -> None:
        set_frozen(self, "diagnosis", diagnosis)
        set_frozen(self, "action", action)
        set_frozen(self, "result", result)


class LoopOutcome(FrozenRecord):
    """How a loop ended; its status and iteration count follow from the rest."""

    __slots__ = ("final_script", "history", "final_spec", "final_result", "lint_findings")

    def __init__(
        self,
        final_script: RenderedScript,
        history: tuple[HistoryEntry, ...],
        final_spec: JobSpec,
        final_result: ExecutionResult,
        lint_findings: tuple[Finding, ...],
    ) -> None:
        set_frozen(self, "final_script", final_script)
        set_frozen(self, "history", history)
        set_frozen(self, "final_spec", final_spec)
        set_frozen(self, "final_result", final_result)
        set_frozen(self, "lint_findings", lint_findings)

    @property
    def succeeded(self) -> bool:
        return self.final_result.exit_code == 0

    @property
    def status(self) -> str:
        return STATUS_SUCCESS if self.succeeded else STATUS_UNRESOLVED

    @property
    def iterations_used(self) -> int:
        """The repairs applied: the history entries that hold an action."""
        return sum(entry.action is not None for entry in self.history)


def run_loop(
    spec: JobSpec,
    t: Template,
    profile: ClusterProfile,
    rules: FaultRuleSet,
    max_iter: int = MAX_ITERATIONS,
    *,
    fingerprints: FingerprintSet | None = None,
    repair_table: RepairTable | None = None,
    bridge: RepairBridge | None = None,
    template_set: TemplateSet | None = None,
) -> LoopOutcome:
    """Submit to the mock cluster under ``rules``; on failure diagnose, repair
    and resubmit, at most ``max_iter`` times.

    One action is applied per iteration, in first-untried order; an action
    already tried for the same fingerprint is skipped, and so is one that
    cannot be applied or that adds lint errors (a repair never increases
    the error count).  Every failed
    submission is diagnosed and recorded in the history, the last one with
    no action.  ``unresolved`` is a status, not an error.  Without
    ``fingerprints`` or ``repair_table`` the bundled ones are used.
    """
    if max_iter < 1:
        raise ContractViolationError("max_iter must be >= 1")
    if fingerprints is None:
        fingerprints = default_fingerprints()
    if repair_table is None:
        repair_table = default_repair_table()

    script = render_for_spec(spec, t, profile)
    current_spec = spec
    current_t = t
    findings = lint(script, current_spec, profile)

    result = submit(script, current_spec, profile, rules)
    history: list[HistoryEntry] = []
    tried: set[tuple[str | None, tuple[str, str]]] = set()

    while result.exit_code != 0:
        diag = diagnose(
            result, profile, fingerprints, bridge=bridge,
            script_text=script.text, spec=current_spec,
        )
        actions = []
        # Every entry so far holds an applied repair, so len(history) counts them.
        if len(history) < max_iter:
            try:
                actions = propose(diag, repair_table)
            except NoRepairAvailableError:
                pass
        applied = None
        for action in actions:
            key = (diag.fingerprint_id, action.signature())
            if key in tried:
                continue
            tried.add(key)
            try:
                new_script, new_spec, new_t = apply_action(
                    action, script, current_spec, current_t, profile, template_set
                )
            except LaunchportError:
                continue  # unappliable action: skip to the next untried one
            new_findings = lint(new_script, new_spec, profile)
            if error_count(new_findings) > error_count(findings):
                continue  # it would add lint errors: unappliable too
            script, current_spec, current_t, findings = new_script, new_spec, new_t, new_findings
            applied = action
            break
        history.append(HistoryEntry(diag, applied, result))
        if applied is None:
            break
        result = submit(script, current_spec, profile, rules)

    return LoopOutcome(
        final_script=script,
        history=tuple(history),
        final_spec=current_spec,
        final_result=result,
        lint_findings=tuple(findings),
    )
