"""Pre-execution checks on a rendered script.

This is the cheap first stage of verification: purely static, no execution.
Checks run in a fixed order and each one that trips contributes a
:class:`Finding`.  Conditions that only manifest at run time on some
clusters (environment propagation) are warnings; hard structural
violations are errors.

Finding codes form a closed catalog per release:

=========================  ========  =============================================
code                       severity  meaning
=========================  ========  =============================================
UNRESOLVED_PLACEHOLDER     error     a ``{name}`` token survived rendering
LAUNCH_SCHED_CONFLICT      error     the accelerate launcher cannot drive a PBS
                                     scheduled cluster
TOPOLOGY_MISMATCH          error     world size visible in the script is not
                                     nodes x per-node
GPU_CAPACITY_EXCEEDED      error     per-node GPU count exceeds the profile
PORT_OUT_OF_RANGE          error     rendezvous port outside [1024, 65535]
ENV_PROPAGATION_RISK       warning   multi-node job on a cluster that does not
                                     export the user environment, with no
                                     explicit exports in the script
=========================  ========  =============================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .clusters import ClusterProfile
from .errors import LaunchportError
from .intent import JobSpec
from .synthesis import RenderedScript
from .templates import PLACEHOLDER_RE
from .types import Launcher, PORT_MAX, PORT_MIN, Scheduler

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

_RAW_PORT_RE = re.compile(
    r"(?:--master[-_]port|--main[-_]process[-_]port|MASTER_PORT)[=\s]+(\d+)"
)

UNRESOLVED_PLACEHOLDER = "UNRESOLVED_PLACEHOLDER"
LAUNCH_SCHED_CONFLICT = "LAUNCH_SCHED_CONFLICT"
TOPOLOGY_MISMATCH = "TOPOLOGY_MISMATCH"
GPU_CAPACITY_EXCEEDED = "GPU_CAPACITY_EXCEEDED"
PORT_OUT_OF_RANGE = "PORT_OUT_OF_RANGE"
ENV_PROPAGATION_RISK = "ENV_PROPAGATION_RISK"

CATALOG = {
    UNRESOLVED_PLACEHOLDER: SEVERITY_ERROR,
    LAUNCH_SCHED_CONFLICT: SEVERITY_ERROR,
    TOPOLOGY_MISMATCH: SEVERITY_ERROR,
    GPU_CAPACITY_EXCEEDED: SEVERITY_ERROR,
    PORT_OUT_OF_RANGE: SEVERITY_ERROR,
    ENV_PROPAGATION_RISK: SEVERITY_WARNING,
}


@dataclass(frozen=True)
class Finding:
    severity: str
    code: str
    message: str
    span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.code not in CATALOG:
            raise LaunchportError(f"unknown finding code '{self.code}'")


def lint(r: RenderedScript, spec: JobSpec, profile: ClusterProfile) -> list[Finding]:
    """Run all checks against the script; an empty list means clean.

    Pure and deterministic; findings appear in the documented check order.
    """
    findings: list[Finding] = []
    text = r.text

    # 1. No unresolved placeholders.  RenderedScript enforces this at
    # construction, but hand-edited or foreign scripts pass through here too.
    for match in PLACEHOLDER_RE.finditer(text):
        findings.append(
            Finding(
                SEVERITY_ERROR,
                UNRESOLVED_PLACEHOLDER,
                f"unresolved placeholder '{{{match.group(1)}}}'",
                span=match.span(),
            )
        )

    # 2. Launcher / scheduler compatibility.
    uses_accelerate = spec.launcher is Launcher.ACCELERATE or "accelerate launch" in text
    if uses_accelerate and profile.scheduler is Scheduler.PBS:
        findings.append(
            Finding(
                SEVERITY_ERROR,
                LAUNCH_SCHED_CONFLICT,
                f"the accelerate launcher conflicts with the PBS scheduler on {profile.id}",
            )
        )

    # 3. Topology consistency wherever the script states the counts.
    visible_nodes, visible_per_node, visible_world = r.topology
    if visible_world is not None and visible_per_node is not None:
        nodes = visible_nodes if visible_nodes is not None else spec.nodes
        if nodes * visible_per_node != visible_world:
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    TOPOLOGY_MISMATCH,
                    f"script states world={visible_world} but "
                    f"{nodes} nodes x {visible_per_node} per node = {nodes * visible_per_node}",
                )
            )

    # 4. Per-node GPU count within profile capacity.
    per_node = visible_per_node if visible_per_node is not None else spec.gpus_per_node
    if per_node > profile.gpus_per_node:
        findings.append(
            Finding(
                SEVERITY_ERROR,
                GPU_CAPACITY_EXCEEDED,
                f"{per_node} GPUs per node exceeds the {profile.id} capacity "
                f"of {profile.gpus_per_node}",
            )
        )

    # 5. Port range.  parse_script drops invalid ports, so scan raw tokens.
    raw_ports = [
        (int(m.group(1)), m.span(1))
        for m in _RAW_PORT_RE.finditer(text)
    ]
    if not raw_ports:
        raw_ports = [(spec.master_port, None)]
    for port, span in raw_ports:
        if not (PORT_MIN <= port <= PORT_MAX):
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    PORT_OUT_OF_RANGE,
                    f"port {port} outside [{PORT_MIN}, {PORT_MAX}]",
                    span=span,
                )
            )

    # 6. Environment propagation risk on multi-node jobs.
    if (
        spec.nodes > 1
        and not profile.env_propagation
        and "export PYTHONPATH" not in text
        and "export LD_LIBRARY_PATH" not in text
    ):
        findings.append(
            Finding(
                SEVERITY_WARNING,
                ENV_PROPAGATION_RISK,
                f"{profile.id} does not export the user environment to all nodes; "
                "add explicit export statements for PYTHONPATH and LD_LIBRARY_PATH",
            )
        )
    return findings


def error_count(findings: list[Finding]) -> int:
    return sum(1 for f in findings if f.severity == SEVERITY_ERROR)
