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
submission of one script share a single read of its counts.  The text
repairs build their script from the one they edit through two methods,
which hand it the read the edit cannot change:

* :meth:`RenderedScript.with_line_above` adds one line above the script
  (``add_module_load``, ``pin_version``, ``prepend_line``).  A line the
  script does not run (:func:`intent._commands`) keeps the parent's lines
  and counts;
* :meth:`RenderedScript.with_export` adds ``export NAME=$NAME`` (``export_env``)
  inside the launch command, or on its own line above a script without one.
  A shell name that holds no launcher name keeps the parent's counts; the
  lines are read again, since lint reads the exports they run.

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
    """Final script text and the id of the template it was rendered from.

    The text holds no ``{name}`` placeholder: the constructor raises
    :class:`UnboundParameterError` naming the first one it finds.  It reads
    the text in full; :meth:`with_line_above` and :meth:`with_export` build
    a script that carries part of this one's read instead (``_carried``, which
    is not a field).  So ``_topology`` is the parent's object exactly when
    the script carries the parent's counts, and then lint finds the same
    errors in both for one spec and profile.
    """

    __slots__ = ("text", "template_id", "_commands", "_topology")

    def __init__(
        self, text: str, template_id: str, *,
        _carried: tuple[str, str | None, intent.Topology] | None = None,
    ) -> None:
        # The text a placeholder may sit in, and the commands (None: read them)
        # and the counts that an edit method knows.
        searched, commands, topology = _carried or (text, None, None)
        leftover = PLACEHOLDER_RE.search(searched)
        if leftover:
            raise UnboundParameterError(leftover.group(1), template_id)
        set_frozen(self, "text", text)
        set_frozen(self, "template_id", template_id)
        if commands is None:
            # The lines the script runs; lint reads them too.
            commands = intent._commands(text)
        if topology is None:
            topology = intent._launch(commands)[1]
        set_frozen(self, "_commands", commands)
        set_frozen(self, "_topology", topology)

    def with_line_above(self, line: str) -> RenderedScript:
        """This script with ``line`` and ``"\\n"`` above it.

        A single line (no ``"\\n"``) that :func:`intent._commands` drops keeps
        this script's commands and counts, and only that line is searched
        for a placeholder.  Any other line is read in full.
        """
        carried = None
        if "\n" not in line and not intent._runs(line):
            carried = (line, self._commands, self._topology)
        return RenderedScript(f"{line}\n{self.text}", self.template_id, _carried=carried)

    def with_export(self, name: str) -> RenderedScript:
        """This script with ``export NAME=$NAME; `` just after the first
        ``bash -c '`` that the lines it runs hold (:func:`intent._commands`),
        so every node runs it; with no such marker, with ``export NAME=$NAME``
        on its own line above it.

        When ``name`` is an ASCII shell name that holds no launcher name in
        any case, the statement adds no launcher name, count, port flag or
        ``accelerate launch`` and nothing around it changes, so the new
        script keeps this one's counts and reads its lines again (lint reads
        the exports they run).  Any other name is read in full.
        """
        text, statement = self.text, f"export {name}=${name}"
        at = text.find(_PAYLOAD)
        # Past each marker that the lines the script runs do not hold.
        while at >= 0 and not intent._commands(
                text[text.rfind("\n", 0, at) + 1 : at + len(_PAYLOAD)]).endswith(_PAYLOAD):
            at = text.find(_PAYLOAD, at + 1)
        if at >= 0:
            at += len(_PAYLOAD)
            text = f"{text[:at]}{statement}; {text[at:]}"
        else:
            text = f"{statement}\n{text}"
        carried = None
        if _SHELL_NAME.fullmatch(name) and not any(
                launcher in name.lower() for launcher in intent._LAUNCHER_NAMES):
            carried = ("", None, self._topology)  # a shell name holds no placeholder
        return RenderedScript(text, self.template_id, _carried=carried)

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
    return RenderedScript(text="".join(parts), template_id=t.id)


def render_for_spec(spec: JobSpec, t: Template, profile: ClusterProfile) -> RenderedScript:
    """The script for ``spec`` from template ``t``: :func:`bind`, then :func:`render`."""
    return render(t, bind(spec, t, profile))


# Where with_export puts its statement: inside the remote launch command.
_PAYLOAD = "bash -c '"
# The name export_env exports: an ASCII shell identifier.
_SHELL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _canonical(value: int | str) -> str:
    if isinstance(value, bool):  # bools are ints; reject silently becoming "True"
        return "1" if value else "0"
    return str(value)
