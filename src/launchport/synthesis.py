"""Script synthesis: bind a job to a template and render the final text.

Binding maps the canonical job fields onto the template's parameter
vocabulary (``nodes``, ``each_node_gpus``, ``world_size``, ``master_port``,
``your_script``, ``deepspeed_config``): the binding is a ``dict`` from each
bound parameter name to its value.

Rendering fills the template's plan, :attr:`Template.parts`, split from its
body once: every placeholder slot takes the canonical text form of its bound
value (integers in base 10, paths and text verbatim) and the literal parts
between them, every byte outside placeholder spans, are joined in unchanged.
Rendering is idempotent because the output contains no placeholders.

Port precedence: a user-stated port always wins; otherwise a default
declared by the template (ports observed in the verified original script)
is used; the package-wide fallback applies last.

A :class:`RenderedScript` reads the launch topology its text states when
it is built and keeps it with the lines it read, so the lint and the mock
submission of one script share a single read of its counts.  A script
built from a parent script by one line above it that it does not run (a
comment line or a ``module`` command, as the ``add_module_load`` and
``pin_version`` repairs add) carries its parent's read: its lines and
counts are the parent's, and are not read again.

All functions here are pure.
"""

from __future__ import annotations

from typing import Mapping

from . import intent
from .clusters import ClusterProfile
from .errors import ContractViolationError, UnboundParameterError
from .intent import JobSpec
from .templates import PLACEHOLDER_RE, Template
from .types import FrozenRecord, set_frozen


class RenderedScript(FrozenRecord):
    """Final script text plus the binding (parameter name to value) that produced it.

    The text holds no ``{name}`` placeholder: the constructor raises
    :class:`UnboundParameterError` naming the first one it finds.

    ``parent`` is not a field.  When ``text`` is one line the script does not
    run (a comment line or a ``module`` command), then ``"\\n"``, then
    ``parent.text``, the new script carries its parent's reads: its commands
    and counts are the parent's objects, and only the new line is searched for
    a placeholder.  The constructor checks that shape itself; any other text,
    or no parent, is read in full.
    """

    __slots__ = ("text", "template_id", "binding", "_commands", "_topology")

    def __init__(
        self, text: str, template_id: str, binding: Mapping[str, int | str],
        parent: RenderedScript | None = None,
    ) -> None:
        carried = parent is not None and _unrun_line_above(text, parent.text)
        leftover = PLACEHOLDER_RE.search(carried or text)
        if leftover:
            raise UnboundParameterError(leftover.group(1), template_id)
        set_frozen(self, "text", text)
        set_frozen(self, "template_id", template_id)
        set_frozen(self, "binding", binding)
        if carried:
            # _commands drops the line and keeps the parent's lines as they are,
            # so the commands and the counts they state are the parent's.
            set_frozen(self, "_commands", parent._commands)
            set_frozen(self, "_topology", parent._topology)
            return
        # The lines the script runs: the text less its comment lines and
        # `module` commands, or the text itself when it holds neither `#` nor
        # `module`.  Lint reads them too.
        commands = intent._commands(text)
        set_frozen(self, "_commands", commands)
        set_frozen(self, "_topology", intent._launch(commands)[1])

    @property
    def topology(self) -> intent.Topology:
        """``(nodes, gpus_per_node, total_gpus)`` as the text states them.

        Read from the commands (``_commands``) when the script is built, as
        :func:`intent.parse_script` reads them; absent counts are ``None``.
        The commands and the counts are kept in the ``_commands`` and
        ``_topology`` slots, which are not fields, so equality, hashing and
        repr are unaffected.
        """
        return self._topology


def bind(spec: JobSpec, t: Template, profile: ClusterProfile) -> dict[str, int | str]:
    """The value of each of template ``t``'s parameters for ``spec``.

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

    known: dict[str, int | str | None] = {
        "nodes": spec.nodes,
        "each_node_gpus": spec.gpus_per_node,
        "world_size": spec.world_size,
        "your_script": your_script,
        "deepspeed_config": spec.deepspeed_config,
    }

    values: dict[str, int | str] = {}
    for decl in t.params:
        if decl.name == "master_port":
            # validate_template holds a master_port default to the port rule.
            if spec.master_port_explicit or decl.default is None:
                value = spec.master_port
            else:
                value = decl.default
        else:
            value = known.get(decl.name)
            if value is None:
                value = decl.default
        if value is None:
            if decl.required:
                raise UnboundParameterError(decl.name, t.id)
            continue
        values[decl.name] = value
    return values


def render(t: Template, b: Mapping[str, int | str]) -> RenderedScript:
    """Fill the template's plan with the binding and join it.

    Integers render in base 10 with no padding; text renders verbatim.
    Bytes outside placeholder spans are untouched.  The first placeholder
    with no bound value raises :class:`UnboundParameterError`.
    """
    parts = list(t.parts)
    for i in range(1, len(parts), 2):
        name = parts[i]
        if name not in b:
            raise UnboundParameterError(name, t.id)
        parts[i] = _canonical(b[name])
    return RenderedScript(text="".join(parts), template_id=t.id, binding=b)


def render_for_spec(spec: JobSpec, t: Template, profile: ClusterProfile) -> RenderedScript:
    """The script for ``spec`` from template ``t``: :func:`bind`, then :func:`render`."""
    return render(t, bind(spec, t, profile))


def _unrun_line_above(text: str, below: str) -> str:
    """The first line of ``text`` when the rest of it, after that line's
    ``"\\n"``, is ``below`` and :func:`intent._commands` drops the line; else ``""``."""
    line, newline, rest = text.partition("\n")
    if newline and rest == below and line.lstrip().startswith(intent._UNRUN):
        return line
    return ""


def _canonical(value: int | str) -> str:
    if isinstance(value, bool):  # bools are ints; reject silently becoming "True"
        return "1" if value else "0"
    return str(value)
