"""Script synthesis: bind a job to a template and render the final text.

Binding maps the canonical job fields onto the template's parameter
vocabulary (``nodes``, ``each_node_gpus``, ``world_size``, ``master_port``,
``your_script``, ``deepspeed_config``) and records where each value came
from: ``user`` for values the user stated, ``derived`` for values computed
from them, ``default`` for template or package defaults.

Rendering is plain textual substitution: every placeholder is replaced by
the canonical text form of its bound value (integers in base 10, paths and
text verbatim) and every byte outside placeholder spans is preserved
exactly.  Rendering is idempotent because the output contains no
placeholders.

Port precedence: a user-stated port always wins; otherwise a default
declared by the template (ports observed in the verified original script)
is used; the package-wide fallback applies last.

A :class:`RenderedScript` reads the launch topology its text states on
first use and keeps it, so the lint and the mock submission of one script
share a single parse.

All functions here are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from . import intent
from .clusters import ClusterProfile
from .errors import ContractViolationError, PolicyViolationError, UnboundParameterError
from .intent import JobSpec
from .templates import PLACEHOLDER_RE, Template, placeholders
from .types import Scheduler

PROVENANCE_USER = "user"
PROVENANCE_DERIVED = "derived"
PROVENANCE_DEFAULT = "default"


@dataclass(frozen=True)
class ParamBinding:
    """Total assignment of values to a template's parameters."""

    values: Mapping[str, int | str]
    provenance: Mapping[str, str]

    def get(self, name: str) -> int | str | None:
        return self.values.get(name)


@dataclass(frozen=True)
class RenderedScript:
    """Final script text plus the binding that produced it."""

    text: str
    template_id: str
    binding: ParamBinding

    def __post_init__(self) -> None:
        leftover = placeholders(self.text)
        if leftover:
            raise UnboundParameterError(leftover[0], self.template_id)

    @functools.cached_property
    def topology(self) -> tuple[int | None, int | None, int | None]:
        """``(nodes, gpus_per_node, total_gpus)`` as the text states them.

        Parsed once, on first use; absent counts are ``None``.  The cache
        lives outside the dataclass fields, so equality, hashing and repr
        are unaffected.
        """
        parsed = intent.parse_script(self.text)
        return parsed.nodes, parsed.gpus_per_node, parsed.total_gpus


def bind(spec: JobSpec, t: Template, profile: ClusterProfile) -> ParamBinding:
    """Compute the parameter binding for ``spec`` against template ``t``.

    Requires ``t.cluster == spec.cluster``; templates are never bound across
    clusters.  Raises :class:`UnboundParameterError` when a required
    parameter has no value in the job and no declared default.
    """
    if t.cluster != spec.cluster:
        raise ContractViolationError(
            f"template '{t.id}' targets cluster '{t.cluster}', not '{spec.cluster}'"
        )
    if profile.id != spec.cluster:
        raise ContractViolationError(
            f"profile '{profile.id}' does not match job cluster '{spec.cluster}'"
        )

    your_script = spec.entry_script
    if spec.train_args:
        your_script = f"{spec.entry_script} {spec.train_args}"

    known: dict[str, tuple[int | str | None, str]] = {
        "nodes": (spec.nodes, PROVENANCE_USER),
        "each_node_gpus": (spec.gpus_per_node, PROVENANCE_USER),
        "world_size": (spec.world_size, PROVENANCE_DERIVED),
        "your_script": (your_script, PROVENANCE_DERIVED),
        "deepspeed_config": (spec.deepspeed_config, PROVENANCE_USER),
    }

    values: dict[str, int | str] = {}
    provenance: dict[str, str] = {}
    for decl in t.params:
        if decl.name == "master_port":
            if spec.master_port_explicit:
                value, source = spec.master_port, PROVENANCE_USER
            elif decl.default is not None:
                value, source = int(decl.default), PROVENANCE_DEFAULT
            else:
                value, source = spec.master_port, PROVENANCE_DEFAULT
        elif decl.name in known:
            value, source = known[decl.name]
            if value is None and decl.default is not None:
                value, source = decl.default, PROVENANCE_DEFAULT
        elif decl.default is not None:
            value, source = decl.default, PROVENANCE_DEFAULT
        else:
            value = None
        if value is None:
            if decl.required:
                raise UnboundParameterError(decl.name, t.id)
            continue
        values[decl.name] = value
        provenance[decl.name] = source
    return ParamBinding(values=values, provenance=provenance)


def render(t: Template, b: ParamBinding) -> RenderedScript:
    """Substitute the binding into the template body.

    Integers render in base 10 with no padding; text renders verbatim.
    Bytes outside placeholder spans are untouched.
    """

    def substitute(match) -> str:
        name = match.group(1)
        if name not in b.values:
            raise UnboundParameterError(name, t.id)
        return _canonical(b.values[name])

    return RenderedScript(
        text=PLACEHOLDER_RE.sub(substitute, t.body), template_id=t.id, binding=b
    )


def render_for_spec(spec: JobSpec, t: Template, profile: ClusterProfile) -> RenderedScript:
    """The script for ``spec`` from template ``t``: :func:`bind`, then :func:`render`."""
    return render(t, bind(spec, t, profile))


def wrap_batch(
    r: RenderedScript,
    profile: ClusterProfile,
    walltime_minutes: int,
    account: str,
) -> str:
    """Wrap a rendered script in a scheduler batch header.

    Header formats are fixed per scheduler (see docs/formats.md); the body
    is appended verbatim after the directives.
    """
    if walltime_minutes > profile.max_walltime_minutes:
        raise PolicyViolationError(
            f"walltime {walltime_minutes} min exceeds the {profile.id} limit "
            f"of {profile.max_walltime_minutes} min"
        )
    nodes = r.binding.get("nodes")
    if nodes is None:
        world = r.binding.get("world_size")
        per_node = r.binding.get("each_node_gpus")
        if isinstance(world, int) and isinstance(per_node, int) and per_node > 0:
            nodes = world // per_node
        else:
            nodes = 1
    hhmmss = f"{walltime_minutes // 60:02d}:{walltime_minutes % 60:02d}:00"
    if profile.scheduler is Scheduler.SLURM:
        header = [
            "#!/bin/bash",
            f"#SBATCH --nodes={nodes}",
            f"#SBATCH --time={hhmmss}",
            f"#SBATCH --account={account}",
        ]
    else:
        header = [
            "#!/bin/bash",
            f"#PBS -l select={nodes}",
            f"#PBS -l walltime={hhmmss}",
            f"#PBS -A {account}",
        ]
    return "\n".join(header) + "\n" + r.text + "\n"


def _canonical(value: int | str) -> str:
    if isinstance(value, bool):  # bools are ints; reject silently becoming "True"
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return str(value)
