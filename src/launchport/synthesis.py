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
built from a parent script by one of two edits carries its parent's read,
and its counts are not read again:

* one line above it that it does not run (a comment line or a ``module``
  command, as the ``add_module_load`` and ``pin_version`` repairs add): its
  lines and counts are the parent's;
* ``export NAME=$NAME; `` just inside its launch command (``bash -c '``),
  as the ``export_env`` repair adds it, where ``NAME`` is an ASCII shell
  identifier that holds no launcher name: its counts are the parent's, and
  its lines are read again, since lint reads the exports they run.

Either way the launcher, the counts and the port flags that the lines state
are the parent's, so lint finds the same errors in both scripts.

All functions here are pure.
"""

from __future__ import annotations

import re
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

    ``parent`` is not a field.  The new script carries its parent's read when
    ``text`` is one line the script does not run (a comment line or a
    ``module`` command), then ``"\\n"``, then ``parent.text``: its commands
    and counts are the parent's objects, and only the new line is searched for
    a placeholder.  It carries it too when ``text`` is ``parent.text`` with
    ``export NAME=$NAME; `` inserted at ``_payload_start``, ``NAME`` an
    ASCII shell identifier that holds no launcher name in any case: its
    counts are the parent's object and its commands are read again.  The
    constructor checks either shape itself; any other text, or no parent, is
    read in full.  So ``_topology`` is the parent's object exactly when the
    script carries the parent's read, and then lint finds the same errors in
    both for one spec and profile.
    """

    __slots__ = ("text", "template_id", "binding", "_commands", "_topology")

    def __init__(
        self, text: str, template_id: str, binding: Mapping[str, int | str],
        parent: RenderedScript | None = None,
    ) -> None:
        # The text a placeholder may sit in, and the commands of a script that
        # carries its parent's read (None: read the text in full).
        searched, commands = text, None
        if parent is not None:
            if line := _unrun_line_above(text, parent.text):
                # _commands drops the line and keeps the parent's lines as they are.
                searched, commands = line, parent._commands
            elif _export_in_launch(text, parent.text):
                # An identifier holds no placeholder.  The export sits on a line
                # the script runs, which lint check 5 reads, so the lines are read
                # again; the counts they state are the parent's.
                searched, commands = "", intent._commands(text)
        leftover = PLACEHOLDER_RE.search(searched)
        if leftover:
            raise UnboundParameterError(leftover.group(1), template_id)
        set_frozen(self, "text", text)
        set_frozen(self, "template_id", template_id)
        set_frozen(self, "binding", binding)
        if commands is not None:
            set_frozen(self, "_commands", commands)
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


# Where export_env puts its statement: inside the remote launch command.
_PAYLOAD = "bash -c '"
# The name export_env exports: an ASCII shell identifier.
_SHELL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# The statement export_env inserts, with its name as group 1.
_EXPORT = re.compile(rf"export ({_SHELL_NAME.pattern})=\$\1; ")


def _payload_start(text: str) -> int:
    """The index just after the first ``bash -c '`` on a line the script runs
    (:func:`intent._commands` keeps it), or -1 when no such line holds one."""
    at = text.find(_PAYLOAD)
    while at >= 0:
        # The line up to and with the marker starts as the whole line does.
        start = text.rfind("\n", 0, at) + 1
        if not text[start : at + len(_PAYLOAD)].lstrip().startswith(intent._UNRUN):
            return at + len(_PAYLOAD)
        at = text.find(_PAYLOAD, at + 1)
    return -1


def _export_in_launch(text: str, below: str) -> bool:
    """Whether ``text`` is ``below`` with ``export NAME=$NAME; `` inserted at
    ``_payload_start``, ``NAME`` holding no launcher name in any case.

    Such a statement adds no launcher name, count, port flag or
    ``accelerate launch`` to the line, and the text around it stays as it
    was, so ``intent._launch`` and lint's error checks read it as they read
    ``below``."""
    at = _payload_start(below)
    end = at + len(text) - len(below)
    if at < 0 or end <= at:
        return False
    export = _EXPORT.fullmatch(text, at, end)
    if export is None or not (text.startswith(below[:at]) and text.endswith(below[at:])):
        return False
    name = export[1].lower()
    return not any(launcher in name for launcher in intent._LAUNCHER_NAMES)


def _canonical(value: int | str) -> str:
    if isinstance(value, bool):  # bools are ints; reject silently becoming "True"
        return "1" if value else "0"
    return str(value)
