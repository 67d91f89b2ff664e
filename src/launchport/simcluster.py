"""Deterministic mock-cluster execution harness.

``submit`` stands in for running a communication mini-app on a real
allocation.  It interprets the launch topology stated by the script (rank
set, world = nodes x per-node) and replays cluster-specific failure
behaviors from a data-driven rule set, emitting canned stderr close enough
to real tool output for fingerprint matching.

Rule evaluation is first-match in document order.  A rule applies when its
cluster scope matches the target profile and every trigger atom holds.
Trigger atoms (all conjoined):

* ``cluster_is``: cluster id or list of ids
* ``strategy_is`` / ``launcher_is``: enum value or list
* ``script_contains`` / ``script_lacks``: substring or list of substrings
* ``nodes_gt``: integer lower bound on the node count

``clearable_by`` names the repair-action kinds that can disarm the rule; an
empty list marks the failure as beyond script-level repair.

Everything is pure: identical inputs produce byte-identical results, and
submissions may run concurrently without shared state.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Iterator

from .clusters import ClusterProfile, default_profiles
from .errors import RuleParseError
from .intent import JobSpec
from .synthesis import RenderedScript
from .templates import PLACEHOLDER_RE
from .types import CATEGORIES

REPAIR_KINDS = (
    "set_param",
    "prepend_line",
    "export_env",
    "add_module_load",
    "pin_version",
    "switch_template",
    "add_arg",
)

# Names usable inside stderr templates; instantiated from spec and profile.
_STDERR_FIELDS = (
    "cluster",
    "nodes",
    "gpus_per_node",
    "world_size",
    "entry_script",
    "gpu_type",
    "scheduler",
    "master_port",
)


@dataclass(frozen=True)
class FaultRule:
    """One simulated cluster-specific failure behavior."""

    id: str
    cluster: str | tuple[str, ...]
    trigger: dict
    stderr_template: str
    clearable_by: tuple[str, ...] = ()

    @property
    def unresolvable(self) -> bool:
        return not self.clearable_by


class FaultRuleSet:
    """Ordered collection of fault rules."""

    def __init__(self, rules: list[FaultRule]):
        self._rules = list(rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[FaultRule]:
        return iter(self._rules)

    def get(self, rule_id: str) -> FaultRule | None:
        for rule in self._rules:
            if rule.id == rule_id:
                return rule
        return None

    def unresolvable_ids(self) -> list[str]:
        return [r.id for r in self._rules if r.unresolvable]


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one mock submission."""

    exit_code: int
    stdout: str
    stderr: str
    parsed_topology: tuple[int, int, int, tuple[int, ...]] | None = None
    fault_fired: str | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def _as_list(value) -> list[str]:
    if isinstance(value, str):
        return [value]
    return [str(v) for v in value]


_TRIGGER_ATOMS = ("cluster_is", "strategy_is", "launcher_is", "script_contains", "script_lacks", "nodes_gt")


def _validate_rule(raw: dict, index: int, known_clusters: set[str]) -> FaultRule:
    if not isinstance(raw, dict):
        raise RuleParseError("rule must be an object", index=index)
    for name in ("id", "cluster", "trigger", "stderr", "category"):
        if name not in raw:
            raise RuleParseError(f"missing field '{name}'", index=index)
    cluster = raw["cluster"]
    cluster_names = [] if cluster == "*" else _as_list(cluster)
    trigger = raw["trigger"]
    if not isinstance(trigger, dict):
        raise RuleParseError("trigger must be an object of atoms", index=index)
    for atom in trigger:
        if atom not in _TRIGGER_ATOMS:
            raise RuleParseError(f"unknown trigger atom '{atom}'", index=index)
    cluster_names.extend(_as_list(trigger.get("cluster_is", [])))
    for name in cluster_names:
        if name not in known_clusters:
            raise RuleParseError(f"unknown cluster id '{name}'", index=index)
    category = raw["category"]
    if category not in CATEGORIES:
        raise RuleParseError(f"unknown category '{category}'", index=index)
    clearable = tuple(raw.get("clearable_by", []))
    for kind in clearable:
        if kind not in REPAIR_KINDS:
            raise RuleParseError(f"unknown repair kind '{kind}' in clearable_by", index=index)
    stderr = str(raw["stderr"])
    for name in PLACEHOLDER_RE.findall(stderr):
        if name not in _STDERR_FIELDS:
            raise RuleParseError(f"unknown stderr field '{{{name}}}'", index=index)
    return FaultRule(
        id=str(raw["id"]),
        cluster=cluster if isinstance(cluster, str) else tuple(cluster),
        trigger=trigger,
        stderr_template=stderr,
        clearable_by=clearable,
    )


def load_fault_rules(
    source: str | Path | IO[str],
    known_clusters: set[str] | None = None,
) -> FaultRuleSet:
    """Load a fault-rule document (JSON array, evaluated in array order)."""
    if known_clusters is None:
        known_clusters = set(default_profiles().ids())
    text = _read_source(source)
    try:
        records = json.loads(text) if text.strip() else []
    except json.JSONDecodeError as exc:
        raise RuleParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(records, list):
        raise RuleParseError("fault-rule document must be a JSON array")
    return FaultRuleSet([
        _validate_rule(raw, i, known_clusters) for i, raw in enumerate(records)
    ])


@functools.cache
def default_fault_rules() -> FaultRuleSet:
    """The bundled fault rules, parsed once per process."""
    data = resources.files("launchport.data").joinpath("fault_rules.json").read_text("utf-8")
    return load_fault_rules(data)


def _rule_applies(rule: FaultRule, text: str, spec: JobSpec, profile: ClusterProfile) -> bool:
    if rule.cluster != "*":
        scope = _as_list(rule.cluster)
        if profile.id not in scope:
            return False
    trigger = rule.trigger
    if "cluster_is" in trigger and profile.id not in _as_list(trigger["cluster_is"]):
        return False
    if "strategy_is" in trigger and spec.strategy.value not in _as_list(trigger["strategy_is"]):
        return False
    if "launcher_is" in trigger and spec.launcher.value not in _as_list(trigger["launcher_is"]):
        return False
    if "nodes_gt" in trigger and not spec.nodes > int(trigger["nodes_gt"]):
        return False
    for needle in _as_list(trigger.get("script_contains", [])):
        if needle not in text:
            return False
    for needle in _as_list(trigger.get("script_lacks", [])):
        if needle in text:
            return False
    return True


def _instantiate_stderr(template: str, spec: JobSpec, profile: ClusterProfile) -> str:
    values = {
        "cluster": profile.id,
        "nodes": str(spec.nodes),
        "gpus_per_node": str(spec.gpus_per_node),
        "world_size": str(spec.world_size),
        "entry_script": spec.entry_script,
        "gpu_type": profile.gpu_type,
        "scheduler": profile.scheduler.value,
        "master_port": str(spec.master_port),
    }
    return PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], template)


def submit(
    r: RenderedScript,
    spec: JobSpec,
    profile: ClusterProfile,
    rules: FaultRuleSet,
) -> ExecutionResult:
    """Mock-execute a rendered script on the given cluster.

    The first matching fault rule (document order) fires; otherwise the
    launch topology is validated against the job and a success transcript
    with one line per rank plus the two collective checks is produced.
    Failures are results, never exceptions.
    """
    text = r.text
    for rule in rules:
        if _rule_applies(rule, text, spec, profile):
            return ExecutionResult(
                exit_code=1,
                stdout="",
                stderr=_instantiate_stderr(rule.stderr_template, spec, profile),
                parsed_topology=None,
                fault_fired=rule.id,
            )

    nodes, per_node, world = r.topology
    if nodes is None:
        if world is not None and per_node and world % per_node == 0:
            nodes = world // per_node
        else:
            nodes = spec.nodes  # scheduler-side allocation size
    if per_node is None:
        per_node = spec.gpus_per_node
    if world is None:
        world = nodes * per_node

    if world != nodes * per_node:
        return ExecutionResult(
            exit_code=1,
            stdout="",
            stderr=(
                f"launch topology error: world size {world} does not match "
                f"{nodes} nodes x {per_node} processes per node"
            ),
        )
    if world != spec.world_size or nodes != spec.nodes or per_node != spec.gpus_per_node:
        return ExecutionResult(
            exit_code=1,
            stdout="",
            stderr=(
                f"launch topology error: script topology {nodes}x{per_node} "
                f"(world {world}) does not match the requested "
                f"{spec.nodes}x{spec.gpus_per_node} (world {spec.world_size})"
            ),
        )

    ranks = tuple(range(world))
    lines = [f"rank {i}/{world} ok" for i in ranks]
    lines.append("allreduce ok")
    lines.append("allgather ok")
    return ExecutionResult(
        exit_code=0,
        stdout="\n".join(lines) + "\n",
        stderr="",
        parsed_topology=(nodes, per_node, world, ranks),
        fault_fired=None,
    )


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
