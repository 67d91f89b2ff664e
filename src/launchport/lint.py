"""Pre-execution checks on a rendered script.

This is the cheap first stage of verification: purely static, no execution.
Checks run in a fixed order and each one that trips contributes a
:class:`Finding`.  Conditions that only manifest at run time on some
clusters (environment propagation) are warnings; hard structural
violations are errors.

Finding codes form a closed catalog per release, :data:`CATALOG` (code to
severity); ``docs/formats.md`` gives the condition and remedy of each code.

No check looks for a ``{name}`` placeholder that survived rendering:
:class:`~launchport.synthesis.RenderedScript` refuses such a text with
:class:`~launchport.errors.UnboundParameterError`, so lint never sees one.
"""

from __future__ import annotations

from .clusters import ClusterProfile
from .errors import LaunchportError
from .intent import PORT_FLAG_RE, JobSpec, _shown
from .synthesis import RenderedScript
from .types import PORT_MAX, PORT_MIN, FrozenRecord, Launcher, Scheduler, set_frozen, valid_port

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

LAUNCH_SCHED_CONFLICT = "LAUNCH_SCHED_CONFLICT"
TOPOLOGY_MISMATCH = "TOPOLOGY_MISMATCH"
GPU_CAPACITY_EXCEEDED = "GPU_CAPACITY_EXCEEDED"
PORT_OUT_OF_RANGE = "PORT_OUT_OF_RANGE"
ENV_PROPAGATION_RISK = "ENV_PROPAGATION_RISK"

CATALOG = {
    LAUNCH_SCHED_CONFLICT: SEVERITY_ERROR,
    TOPOLOGY_MISMATCH: SEVERITY_ERROR,
    GPU_CAPACITY_EXCEEDED: SEVERITY_ERROR,
    PORT_OUT_OF_RANGE: SEVERITY_ERROR,
    ENV_PROPAGATION_RISK: SEVERITY_WARNING,
}


class Finding(FrozenRecord):
    """One tripped check; its severity is the catalog's for its code."""

    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str) -> None:
        if code not in CATALOG:
            raise LaunchportError(f"unknown finding code '{code}'")
        set_frozen(self, "code", code)
        set_frozen(self, "message", message)

    @property
    def severity(self) -> str:
        return CATALOG[self.code]


def lint(r: RenderedScript, spec: JobSpec, profile: ClusterProfile) -> list[Finding]:
    """Run all checks against the script; an empty list means clean.

    Pure and deterministic; findings appear in the documented check order.
    Reads only the commands, topology, spec and profile: checks 1, 4 and 5
    read only the lines the script runs (``r._commands``, read by
    :func:`intent._commands`), and checks 2 and 3 read the counts those
    lines state (``r.topology``).  So two scripts with the same commands get the
    same findings for one spec and profile.
    """
    findings: list[Finding] = []
    commands = r._commands

    def report(code: str, message: str) -> None:
        findings.append(Finding(code, message))

    # 1. Launcher / scheduler compatibility.
    uses_accelerate = spec.launcher is Launcher.ACCELERATE or "accelerate launch" in commands
    if uses_accelerate and profile.scheduler is Scheduler.PBS:
        report(
            LAUNCH_SCHED_CONFLICT,
            f"the accelerate launcher conflicts with the PBS scheduler on {profile.id}",
        )

    # 2. Topology consistency wherever the script states the counts.
    visible_nodes, visible_per_node, visible_world = r.topology
    if visible_world is not None and visible_per_node is not None:
        nodes = visible_nodes if visible_nodes is not None else spec.nodes
        if nodes * visible_per_node != visible_world:
            report(
                TOPOLOGY_MISMATCH,
                f"script states world={visible_world} but "
                f"{nodes} nodes x {visible_per_node} per node = {nodes * visible_per_node}",
            )

    # 3. Per-node GPU count within profile capacity.
    per_node = visible_per_node if visible_per_node is not None else spec.gpus_per_node
    if per_node > profile.gpus_per_node:
        report(
            GPU_CAPACITY_EXCEEDED,
            f"{per_node} GPUs per node exceeds the {profile.id} capacity "
            f"of {profile.gpus_per_node}",
        )

    # 4. Port range of every port the script states, else of the spec's.
    port = None
    for m in PORT_FLAG_RE.finditer(commands):
        if valid_port(port := m[1]) is None:
            report(PORT_OUT_OF_RANGE, f"port {port} outside [{PORT_MIN}, {PORT_MAX}]")
    if port is None and valid_port(spec.master_port) is None:
        report(
            PORT_OUT_OF_RANGE, f"port {_shown(spec.master_port)} outside [{PORT_MIN}, {PORT_MAX}]"
        )

    # 5. Environment propagation risk on multi-node jobs.
    if (
        spec.nodes > 1
        and not profile.env_propagation
        and "export PYTHONPATH" not in commands
        and "export LD_LIBRARY_PATH" not in commands
    ):
        report(
            ENV_PROPAGATION_RISK,
            f"{profile.id} does not export the user environment to all nodes; "
            "add explicit export statements for PYTHONPATH and LD_LIBRARY_PATH",
        )
    return findings


def error_count(findings: list[Finding]) -> int:
    return sum(1 for f in findings if f.severity == SEVERITY_ERROR)
