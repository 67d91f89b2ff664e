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

The loop applies one action per iteration, first untried action first,
re-lints, and resubmits.  An action already tried for the same fingerprint
is never retried, which bounds the loop: it halts within ``max_iter``
repair iterations for every input and returns ``unresolved`` when the bound
is exhausted or no actions remain.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import IO, Iterator, Protocol

from . import simcluster
from .clusters import ClusterProfile
from .errors import (
    BridgeError,
    ContractViolationError,
    LaunchportError,
    NoRepairAvailableError,
    RuleParseError,
)
from .intent import JobSpec
from .lint import Finding, lint
from .simcluster import REPAIR_KINDS, ExecutionResult, FaultRuleSet
from .synthesis import (
    PROVENANCE_USER,
    ParamBinding,
    RenderedScript,
    render,
    render_for_spec,
)
from .templates import Template, TemplateSet
# Re-exported, so every diagnosis category can be imported from here.
from .types import CATEGORIES, CATEGORY_ENV, CATEGORY_FRAMEWORK, CATEGORY_USER

# A failure that neither a fingerprint nor the remote bridge classified.
CATEGORY_UNKNOWN = "unknown"

CONFIDENCE_HIGH = "high"
CONFIDENCE_LOW = "low"

STATUS_SUCCESS = "success"
STATUS_UNRESOLVED = "unresolved"

MAX_ITERATIONS = 5


@dataclass(frozen=True)
class RepairAction:
    """One typed edit to a script or job spec."""

    kind: str
    payload: dict
    rationale: str = ""

    def signature(self) -> tuple[str, str]:
        return (self.kind, json.dumps(self.payload, sort_keys=True))


@dataclass(frozen=True)
class Diagnosis:
    """Classified failure.

    ``remote_actions`` carries already-parsed proposals when the remote
    bridge supplied the diagnosis; it is empty for fingerprint matches.
    """

    category: str
    fingerprint_id: str | None
    explanation: str
    confidence: str
    remote_actions: tuple[RepairAction, ...] = ()


@dataclass(frozen=True)
class Fingerprint:
    """One stderr pattern mapping a failure to its category."""

    id: str
    category: str
    literal: str | None = None
    regex: str | None = None
    explanation: str = ""

    def matches(self, stderr: str) -> bool:
        if self.literal is not None:
            return self.literal in stderr
        assert self.regex is not None
        return re.search(self.regex, stderr, re.MULTILINE) is not None


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


def load_fingerprints(source: str | Path | IO[str]) -> FingerprintSet:
    """Load a fingerprint document (JSON array, matched in array order)."""
    records = _load_array(source, "fingerprint")
    fingerprints = []
    for i, raw in enumerate(records):
        if not isinstance(raw, dict) or "id" not in raw or "category" not in raw:
            raise RuleParseError("fingerprint needs 'id' and 'category'", index=i)
        if raw["category"] not in CATEGORIES:
            raise RuleParseError(f"unknown category '{raw['category']}'", index=i)
        pattern = raw.get("pattern", {})
        literal = pattern.get("literal")
        regex = pattern.get("regex")
        if (literal is None) == (regex is None):
            raise RuleParseError(
                "pattern must give exactly one of 'literal' or 'regex'", index=i
            )
        if regex is not None:
            try:
                re.compile(regex)
            except re.error as exc:
                raise RuleParseError(f"bad regex: {exc}", index=i) from exc
        fingerprints.append(
            Fingerprint(
                id=str(raw["id"]),
                category=str(raw["category"]),
                literal=literal,
                regex=regex,
                explanation=str(raw.get("explanation", "")),
            )
        )
    return FingerprintSet(fingerprints)


def load_repair_table(source: str | Path | IO[str]) -> RepairTable:
    """Load the repair table (JSON object: fingerprint id -> action list)."""
    text = _read_source(source)
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise RuleParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise RuleParseError("repair table must be a JSON object")
    table: dict[str, list[RepairAction]] = {}
    for fingerprint_id, actions in raw.items():
        parsed = []
        for i, entry in enumerate(actions):
            kind = entry.get("kind")
            if kind not in REPAIR_KINDS:
                raise RuleParseError(
                    f"unknown repair kind '{kind}' for '{fingerprint_id}'", index=i
                )
            parsed.append(
                RepairAction(
                    kind=kind,
                    payload=dict(entry.get("payload", {})),
                    rationale=str(entry.get("rationale", "")),
                )
            )
        table[fingerprint_id] = parsed
    return RepairTable(table)


@functools.cache
def default_fingerprints() -> FingerprintSet:
    """The bundled fingerprints, parsed once per process."""
    data = resources.files("launchport.data").joinpath("fingerprints.json").read_text("utf-8")
    return load_fingerprints(data)


@functools.cache
def default_repair_table() -> RepairTable:
    """The bundled repair table, parsed once per process."""
    data = resources.files("launchport.data").joinpath("repairs.json").read_text("utf-8")
    return load_repair_table(data)


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
            confidence=CONFIDENCE_HIGH,
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
                confidence=CONFIDENCE_LOW,
                remote_actions=tuple(actions),
            )
    return Diagnosis(
        category=CATEGORY_UNKNOWN,
        fingerprint_id=None,
        explanation="no matching fingerprint",
        confidence=CONFIDENCE_LOW,
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


def propose(
    d: Diagnosis,
    r: RenderedScript,
    spec: JobSpec,
    table: RepairTable | None = None,
) -> list[RepairAction]:
    """Ordered repair actions for a diagnosis.

    Fingerprinted failures map to the bundled repair table; bridge-supplied
    diagnoses carry their own parsed actions.  An unknown diagnosis with no
    remote actions has no repair available.
    """
    if d.fingerprint_id is not None:
        if table is None:
            table = default_repair_table()
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
    rebind and re-render so the template structure is preserved.
    """
    kind = action.kind
    payload = action.payload
    if kind == "export_env":
        name = payload["name"]
        text = _inject_into_launch(script.text, f"export {name}=${name}")
        return replace(script, text=text), spec, template
    if kind == "add_module_load":
        return replace(script, text=f"module load {payload['module']}\n{script.text}"), spec, template
    if kind == "pin_version":
        line = f"module load {payload['package']}/{payload['version']}"
        return replace(script, text=f"{line}\n{script.text}"), spec, template
    if kind == "prepend_line":
        return replace(script, text=f"{payload['line']}\n{script.text}"), spec, template
    if kind == "add_arg":
        args = payload["args"]
        new_spec = replace(spec, train_args=f"{spec.train_args} {args}".strip())
        return render_for_spec(new_spec, template, profile), new_spec, template
    if kind == "set_param":
        return _apply_set_param(payload, script, spec, template, profile)
    if kind == "switch_template":
        if template_set is None:
            raise NoRepairAvailableError("switch_template requires a template set")
        new_t = template_set.get(payload["template_id"])
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
    if param == "deepspeed_config":
        new_spec = replace(spec, deepspeed_config=str(value))
        return render_for_spec(new_spec, template, profile), new_spec, template
    if param == "master_port":
        new_spec = replace(spec, master_port=int(value), master_port_explicit=True)
        return render_for_spec(new_spec, template, profile), new_spec, template
    values = dict(script.binding.values)
    provenance = dict(script.binding.provenance)
    values[param] = value
    provenance[param] = PROVENANCE_USER
    binding = ParamBinding(values=values, provenance=provenance)
    return render(template, binding), spec, template


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


class Harness(Protocol):
    """Execution backend the loop submits to."""

    def submit(
        self, r: RenderedScript, spec: JobSpec, profile: ClusterProfile
    ) -> ExecutionResult: ...


@dataclass(frozen=True)
class SimHarness:
    """Default harness backed by the mock cluster."""

    rules: FaultRuleSet

    def submit(
        self, r: RenderedScript, spec: JobSpec, profile: ClusterProfile
    ) -> ExecutionResult:
        return simcluster.submit(r, spec, profile, self.rules)


@dataclass(frozen=True)
class HistoryEntry:
    diagnosis: Diagnosis
    action: RepairAction | None
    result: ExecutionResult


@dataclass(frozen=True)
class LoopOutcome:
    status: str
    final_script: RenderedScript
    iterations_used: int
    history: tuple[HistoryEntry, ...]
    final_spec: JobSpec
    final_result: ExecutionResult
    lint_findings: tuple[Finding, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.status == STATUS_SUCCESS


def run_loop(
    spec: JobSpec,
    t: Template,
    profile: ClusterProfile,
    harness: Harness,
    max_iter: int = MAX_ITERATIONS,
    *,
    fingerprints: FingerprintSet | None = None,
    repair_table: RepairTable | None = None,
    bridge: RepairBridge | None = None,
    template_set: TemplateSet | None = None,
) -> LoopOutcome:
    """Submit, and on failure diagnose / repair / resubmit, at most ``max_iter`` times.

    One action is applied per iteration, in first-untried order; an action
    already tried for the same fingerprint is skipped.  ``unresolved`` is a
    status, not an error.
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

    result = harness.submit(script, current_spec, profile)
    history: list[HistoryEntry] = []
    tried: set[tuple[str | None, tuple[str, str]]] = set()
    iterations = 0

    while result.exit_code != 0 and iterations < max_iter:
        diag = diagnose(
            result, profile, fingerprints, bridge=bridge,
            script_text=script.text, spec=current_spec,
        )
        try:
            actions = propose(diag, script, current_spec, repair_table)
        except NoRepairAvailableError:
            actions = []

        applied = None
        for action in actions:
            key = (diag.fingerprint_id, action.signature())
            if key in tried:
                continue
            tried.add(key)
            try:
                script, current_spec, current_t = apply_action(
                    action, script, current_spec, current_t, profile, template_set
                )
            except LaunchportError:
                continue  # unappliable action: skip to the next untried one
            applied = action
            break

        if applied is None:
            history.append(HistoryEntry(diag, None, result))
            return LoopOutcome(
                status=STATUS_UNRESOLVED,
                final_script=script,
                iterations_used=iterations,
                history=tuple(history),
                final_spec=current_spec,
                final_result=result,
                lint_findings=tuple(findings),
            )

        history.append(HistoryEntry(diag, applied, result))
        findings = lint(script, current_spec, profile)
        iterations += 1
        result = harness.submit(script, current_spec, profile)

    if result.exit_code != 0:
        diag = diagnose(
            result, profile, fingerprints, bridge=bridge,
            script_text=script.text, spec=current_spec,
        )
        history.append(HistoryEntry(diag, None, result))
        status = STATUS_UNRESOLVED
    else:
        status = STATUS_SUCCESS
    return LoopOutcome(
        status=status,
        final_script=script,
        iterations_used=iterations,
        history=tuple(history),
        final_spec=current_spec,
        final_result=result,
        lint_findings=tuple(findings),
    )


def _load_array(source: str | Path | IO[str], what: str) -> list:
    text = _read_source(source)
    try:
        records = json.loads(text) if text.strip() else []
    except json.JSONDecodeError as exc:
        raise RuleParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(records, list):
        raise RuleParseError(f"{what} document must be a JSON array")
    return records


def _read_source(source: str | Path | IO[str]) -> str:
    if hasattr(source, "read"):
        return source.read()  # type: ignore[union-attr]
    if isinstance(source, Path):
        return source.read_text("utf-8")
    text = str(source)
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{") or not stripped:
        return text
    return Path(text).read_text("utf-8")
