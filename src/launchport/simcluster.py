"""Deterministic mock-cluster execution harness.

``submit`` stands in for running a communication mini-app on a real
allocation.  It interprets the launch topology stated by the script (rank
set, world = nodes x per-node) and replays cluster-specific failure
behaviors from a data-driven rule set, emitting canned stderr close enough
to real tool output for fingerprint matching.

Rule evaluation is first-match in document order.  A rule applies when its
cluster scope matches the target profile and every trigger atom holds; the
atoms (:data:`_TRIGGER_FIELDS`) are described in ``docs/formats.md``.  A rule
set reads each trigger once, when it is built, and checks each cluster's
rules in array order, the first match firing (:class:`FaultRuleSet`).
``clearable_by`` names the repair-action kinds (the keys of
:data:`~launchport.types.REPAIR_PAYLOAD_KEYS`) that can disarm the rule; an
empty list marks the failure as beyond script-level repair.

Everything is pure: identical inputs produce byte-identical results.  A
passing result depends on the world size alone, so passing submissions share
one read-only :class:`ExecutionResult` per world (:func:`_passed`); fault and
topology-error results are built on each call.  Nothing a submission shares
can change, so submissions may still run concurrently.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Iterator

from .clusters import ClusterProfile, default_profiles
from .documents import INT, LIST, NAMES, OBJECT, OPTIONAL, REQUIRED, TEXT, TEXTS, bundled
from .documents import check_record, load_json
from .errors import RuleParseError
from .intent import JobSpec, _commands
from .synthesis import RenderedScript
from .templates import PLACEHOLDER_RE
from .types import REPAIR_PAYLOAD_KEYS, FrozenRecord, Launcher, Strategy, set_frozen

# Names usable inside stderr templates, each with its text for a job on a cluster.
_STDERR_FIELDS = {
    "cluster": lambda spec, profile: profile.id,
    "nodes": lambda spec, profile: str(spec.nodes),
    "gpus_per_node": lambda spec, profile: str(spec.gpus_per_node),
    "world_size": lambda spec, profile: str(spec.world_size),
    "entry_script": lambda spec, profile: spec.entry_script,
    "gpu_type": lambda spec, profile: profile.gpu_type,
    "scheduler": lambda spec, profile: profile.scheduler.value,
    "master_port": lambda spec, profile: str(spec.master_port),
}


class FaultRule(FrozenRecord):
    """One simulated cluster-specific failure behavior."""

    __slots__ = ("id", "cluster", "trigger", "stderr_template", "clearable_by")

    def __init__(
        self, id: str, cluster: str | tuple[str, ...], trigger: dict, stderr_template: str,
        clearable_by: tuple[str, ...] = (),
    ) -> None:
        set_frozen(self, "id", id)
        set_frozen(self, "cluster", cluster)
        set_frozen(self, "trigger", trigger)
        set_frozen(self, "stderr_template", stderr_template)
        set_frozen(self, "clearable_by", clearable_by)

    @property
    def unresolvable(self) -> bool:
        return not self.clearable_by


class FaultRuleSet:
    """Ordered collection of fault rules, indexed by the cluster ids they admit.

    The set reads each rule's trigger and stderr once, when it is built.  A
    rule becomes one check,
    ``(rule, strategies, launchers, nodes_gt, contains, lacks, stderr)``:
    ``strategy_is`` and ``launcher_is`` as frozensets of values (``None`` when
    absent), ``nodes_gt`` as an int (``None`` when absent),
    ``script_contains`` and ``script_lacks`` as tuples, and the stderr
    template as its plan (:func:`_stderr_plan`).  A stderr naming a field
    :data:`_STDERR_FIELDS` lacks raises :class:`RuleParseError` with the
    rule's index.  The cluster scope and
    ``cluster_is`` decide which clusters see the check: each id that any rule
    names has its own tuple of the checks that admit it, and every other id
    shares the tuple of the ``"*"`` rules without ``cluster_is``.  Each tuple
    keeps array order, so :func:`submit` checks its cluster's rules in that
    order and the first match fires.
    """

    def __init__(self, rules: list[FaultRule]):
        self._rules = tuple(rules)
        admitted = []  # (ids that admit the rule, or None for every id; its check)
        named: set[str] = set()
        for index, rule in enumerate(self._rules):
            trigger = rule.trigger
            ids = None
            if rule.cluster != "*":
                ids = set(_as_list(rule.cluster))
                named |= ids
            if "cluster_is" in trigger:
                listed = set(_as_list(trigger["cluster_is"]))
                named |= listed
                ids = listed if ids is None else ids & listed
            admitted.append((ids, (
                rule,
                frozenset(_as_list(trigger["strategy_is"])) if "strategy_is" in trigger else None,
                frozenset(_as_list(trigger["launcher_is"])) if "launcher_is" in trigger else None,
                trigger.get("nodes_gt"),
                tuple(_as_list(trigger.get("script_contains", []))),
                tuple(_as_list(trigger.get("script_lacks", []))),
                _stderr_plan(rule.stderr_template, index),
            )))
        self._shared = tuple(check for ids, check in admitted if ids is None)
        self._by_cluster = {
            cluster_id: tuple(check for ids, check in admitted if ids is None or cluster_id in ids)
            for cluster_id in named
        }

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[FaultRule]:
        return iter(self._rules)

    def checks_for(self, cluster_id: str) -> tuple[tuple, ...]:
        """The checks of the rules that admit ``cluster_id``, in array order."""
        return self._by_cluster.get(cluster_id, self._shared)

    def unresolvable_ids(self) -> list[str]:
        return [r.id for r in self._rules if r.unresolvable]


class ExecutionResult(FrozenRecord):
    """Outcome of one mock submission."""

    __slots__ = ("exit_code", "stdout", "stderr", "fault_fired")

    def __init__(
        self,
        exit_code: int,
        stdout: str,
        stderr: str,
        fault_fired: str | None = None,
    ) -> None:
        set_frozen(self, "exit_code", exit_code)
        set_frozen(self, "stdout", stdout)
        set_frozen(self, "stderr", stderr)
        set_frozen(self, "fault_fired", fault_fired)


def _as_list(value: str | list[str] | tuple[str, ...]) -> list[str]:
    return [value] if isinstance(value, str) else list(value)


# The trigger atoms, all conjoined; see docs/formats.md.
_TRIGGER_FIELDS = {
    "cluster_is": (NAMES, OPTIONAL), "strategy_is": (NAMES, OPTIONAL),
    "launcher_is": (NAMES, OPTIONAL), "script_contains": (TEXTS, OPTIONAL),
    "script_lacks": (TEXTS, OPTIONAL), "nodes_gt": (INT, OPTIONAL),
}
_RULE_FIELDS = {
    "id": (TEXT, REQUIRED), "cluster": (NAMES, REQUIRED), "trigger": (OBJECT, REQUIRED),
    "stderr": (TEXT, REQUIRED), "clearable_by": (LIST, OPTIONAL),
}


def _validate_rule(raw: object, index: int, known_clusters: set[str]) -> FaultRule:
    error = functools.partial(RuleParseError, index=index)
    check_record(raw, _RULE_FIELDS, "rule", error)
    cluster, trigger, stderr = raw["cluster"], raw["trigger"], raw["stderr"]
    check_record(trigger, _TRIGGER_FIELDS, "trigger", error)
    cluster_names = [] if cluster == "*" else _as_list(cluster)
    cluster_names.extend(_as_list(trigger.get("cluster_is", ())))
    for name in cluster_names:
        if name not in known_clusters:
            raise RuleParseError(f"unknown cluster id '{name}'", index=index)
    # By value: `"zero-3" in Strategy` raises TypeError on Python 3.10 and 3.11.
    for atom, enum in (("strategy_is", Strategy), ("launcher_is", Launcher)):
        for name in _as_list(trigger.get(atom, ())):
            if name not in {member.value for member in enum}:
                raise RuleParseError(f"unknown {enum.__name__.lower()} '{name}' in {atom}", index=index)
    clearable = raw.get("clearable_by", [])
    for kind in clearable:
        if not isinstance(kind, str) or kind not in REPAIR_PAYLOAD_KEYS:
            raise RuleParseError(f"unknown repair kind '{kind}' in clearable_by", index=index)
    _stderr_plan(stderr, index)  # refuses an unknown field before later records are read
    return FaultRule(
        id=raw["id"],
        cluster=cluster if isinstance(cluster, str) else tuple(cluster),
        trigger=trigger,
        stderr_template=stderr,
        clearable_by=tuple(clearable),
    )


def load_fault_rules(
    source: Path | str,
    known_clusters: set[str] | None = None,
) -> FaultRuleSet:
    """Load a fault-rule document (JSON array, evaluated in array order).

    ``source`` is a path or the JSON text itself; see :mod:`launchport.documents`.
    """
    if known_clusters is None:
        known_clusters = set(default_profiles().ids())
    records = load_json(source, list, "fault-rule document", RuleParseError)
    rules, ids = [], set()
    for i, raw in enumerate(records):
        rule = _validate_rule(raw, i, known_clusters)
        if rule.id in ids:
            raise RuleParseError(f"duplicate rule id '{rule.id}'", index=i)
        ids.add(rule.id)
        rules.append(rule)
    return FaultRuleSet(rules)


@functools.cache
def default_fault_rules() -> FaultRuleSet:
    """The bundled fault rules, parsed once per process."""
    return load_fault_rules(bundled("fault_rules.json"))


def _stderr_plan(template: str, index: int) -> tuple:
    """``template`` split by the placeholder grammar: literal text at even
    indexes and, at odd ones, the :data:`_STDERR_FIELDS` function of each
    named field.  An unknown field raises :class:`RuleParseError` at ``index``."""
    plan = PLACEHOLDER_RE.split(template)
    for i in range(1, len(plan), 2):
        if plan[i] not in _STDERR_FIELDS:
            raise RuleParseError(f"unknown stderr field '{{{plan[i]}}}'", index=index)
        plan[i] = _STDERR_FIELDS[plan[i]]
    return tuple(plan)


def _instantiate_stderr(plan: tuple, spec: JobSpec, profile: ClusterProfile) -> str:
    parts = list(plan)
    for i in range(1, len(parts), 2):
        parts[i] = parts[i](spec, profile)
    return "".join(parts)


def submit(
    r: RenderedScript,
    spec: JobSpec,
    profile: ClusterProfile,
    rules: FaultRuleSet,
) -> ExecutionResult:
    """Mock-execute a rendered script on the given cluster.

    The first matching fault rule (document order) fires; its
    ``script_contains`` and ``script_lacks`` needles read the lines the
    script runs, ``module`` commands included (:func:`intent._commands`).
    Otherwise the launch topology is validated against the job.  A failure is a new
    result, never an exception; a pass returns the shared, read-only result
    of its world size (:func:`_passed`), whose transcript holds one line per
    rank plus the two collective checks.
    """
    text = r.text
    if "#" in text:
        # `module` commands stay: `script_lacks: "module load"` reads them.
        text = _commands(text, modules=True)
    # A Strategy or Launcher is a str holding its value, so it is looked up
    # in a frozenset of values as is.
    checks = rules.checks_for(profile.id)
    for rule, strategies, launchers, nodes_gt, contains, lacks, stderr in checks:
        if strategies is not None and spec.strategy not in strategies:
            continue
        if launchers is not None and spec.launcher not in launchers:
            continue
        if nodes_gt is not None and spec.nodes <= nodes_gt:
            continue
        # Every needle the script must contain is there, and none it must lack.
        for needle in contains:
            if needle not in text:
                break
        else:
            for needle in lacks:
                if needle in text:
                    break
            else:
                return ExecutionResult(
                    exit_code=1,
                    stdout="",
                    stderr=_instantiate_stderr(stderr, spec, profile),
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

    return _passed(world)


@functools.lru_cache(maxsize=128)
def _passed(world: int) -> ExecutionResult:
    """The passing result of a submission of ``world`` ranks, one shared,
    read-only value per world size: one "rank i/world ok" line per rank, then
    the two collective checks.  A world of 0 or less (a hand-built JobSpec)
    has no rank lines, not a bare "rank /0 ok".

    The memo keeps at most 128 results, each holding its transcript, so its
    worst case is 128 transcripts of at most ~2.8 MB each: the world of a
    finalized job on the bundled profiles is at most ``MAX_NODES`` nodes x 8
    GPUs.  The bench's grid jobs draw at most 64 distinct worlds (up to 16
    nodes x 8 GPUs), so all of them stay in the memo.
    """
    end = f"/{world} ok\n"
    per_rank = "rank " + (end + "rank ").join(map(str, range(world))) + end if world > 0 else ""
    return ExecutionResult(
        exit_code=0,
        stdout=per_rank + "allreduce ok\nallgather ok\n",
        stderr="",
        fault_fired=None,
    )
