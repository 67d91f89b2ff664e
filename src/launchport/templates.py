"""Launch-script template repository.

A template is a verified script body with typed ``{name}`` placeholders and
matching metadata.  The repository is keyed by the four-tuple
``(cluster, framework, strategy, launcher)``; one cluster can legitimately
carry both a torchrun and an mpiexec variant of the same strategy.

Placeholder grammar: a single pair of braces around a lowercase identifier
(``[a-z][a-z0-9_]*``), no nesting, no escaping.  Shell constructs such as
``$VAR``, ``${VAR}``, and ``$(...)`` are not placeholders, so template bodies
may freely mix both notations.

A body is parsed once: :attr:`Template.parts` splits it by
:data:`PLACEHOLDER_RE` into literal text at even indexes and placeholder
names at odd ones.  Rendering fills the odd slots and joins the parts, so
shell constructs stay in the literals, byte for byte, and
:func:`validate_template` reads the names from the same split.

``TemplateSet`` is an immutable value: to extend one, build a new set from
its templates and the new ones.  Because a set never changes, it keeps its
templates in id order, sorted once when the set is built, for retrieval to
read on every ranking.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Iterator

from .documents import ANY, BOOL, LIST, OPTIONAL, REQUIRED, TEXT, bundled, check_record, load_json
from .errors import TemplateConflictError, TemplateInvalidError
from .types import (
    PORT_MAX, PORT_MIN, Framework, FrozenRecord, Launcher, Strategy, set_frozen, valid_port,
)

# A placeholder is {name} not preceded by '$' (which would make it a shell
# parameter expansion like ${SLURM_PROCID}).  The pattern starts with the
# literal '{', so the engine skips ahead to each brace before it looks behind.
PLACEHOLDER_RE = re.compile(r"\{(?<!\$\{)([a-z][a-z0-9_]*)\}")

PARAM_KINDS = ("integer", "port", "path", "text")

TemplateKey = tuple[str, Framework, Strategy, Launcher]


class ParamDecl(FrozenRecord):
    """Declaration of one template parameter."""

    __slots__ = ("name", "kind", "required", "default")

    def __init__(
        self, name: str, kind: str = "text", required: bool = True,
        default: int | str | None = None,
    ) -> None:
        set_frozen(self, "name", name)
        set_frozen(self, "kind", kind)
        set_frozen(self, "required", required)
        set_frozen(self, "default", default)


class Template(FrozenRecord):
    """One launch-script template with its declared parameters."""

    __slots__ = ("id", "cluster", "framework", "strategy", "launcher", "body", "params",
                 "verified", "notes", "_parts")

    def __init__(
        self,
        id: str,
        cluster: str,
        framework: Framework,
        strategy: Strategy,
        launcher: Launcher,
        body: str,
        params: tuple[ParamDecl, ...],
        verified: bool = False,
        notes: str = "",
    ) -> None:
        set_frozen(self, "id", id)
        set_frozen(self, "cluster", cluster)
        set_frozen(self, "framework", framework)
        set_frozen(self, "strategy", strategy)
        set_frozen(self, "launcher", launcher)
        set_frozen(self, "body", body)
        set_frozen(self, "params", params)
        set_frozen(self, "verified", verified)
        set_frozen(self, "notes", notes)
        set_frozen(self, "_parts", tuple(PLACEHOLDER_RE.split(body)))

    @property
    def key(self) -> TemplateKey:
        return (self.cluster, self.framework, self.strategy, self.launcher)

    @property
    def parts(self) -> tuple[str, ...]:
        """The body split by :data:`PLACEHOLDER_RE`: literals at even indexes,
        placeholder names at odd ones, so ``len(parts)`` is odd.

        Split when the template is built and kept in the ``_parts`` slot, which
        is not a field, so equality, hashing, repr and pickling are unaffected.
        """
        return self._parts


def validate_template(t: Template) -> None:
    """Raise :class:`TemplateInvalidError` if ``t`` violates any invariant."""
    declared = {p.name for p in t.params}
    for decl in t.params:
        if decl.kind not in PARAM_KINDS:
            raise TemplateInvalidError(t.id, f"unknown param kind '{decl.kind}'")
        # bind() reads master_port as a port, whatever kind it declares.
        is_port = decl.kind == "port" or decl.name == "master_port"
        if decl.default is None:
            continue
        numeric = is_port or decl.kind == "integer"
        if not isinstance(decl.default, int if numeric else str) or isinstance(decl.default, bool):
            raise TemplateInvalidError(
                t.id, f"param '{decl.name}' needs {'an integer' if numeric else 'a string'} default, "
                f"got {decl.default!r}"
            )
        if is_port and valid_port(decl.default) is None:
            raise TemplateInvalidError(
                t.id, f"port param '{decl.name}' default {decl.default} "
                f"is outside [{PORT_MIN}, {PORT_MAX}]"
            )
    names = [p.name for p in t.params]
    if len(names) != len(set(names)):
        raise TemplateInvalidError(t.id, "duplicate param declarations")
    body_names = set(t.parts[1::2])
    for name in body_names:
        if name not in declared:
            raise TemplateInvalidError(t.id, f"undeclared placeholder '{{{name}}}'")
    for decl in t.params:
        if decl.required and decl.name not in body_names:
            raise TemplateInvalidError(
                t.id, f"required param '{decl.name}' does not appear in body"
            )


class TemplateSet:
    """Immutable collection of templates, unique by id and by key tuple.

    Iteration follows insertion order; :meth:`in_id_order` gives the same
    templates sorted by id, computed once per set.
    """

    def __init__(self, templates: list[Template]):
        by_id: dict[str, Template] = {}
        by_key: dict[TemplateKey, Template] = {}
        for t in templates:
            validate_template(t)
            if t.id in by_id:
                raise TemplateInvalidError(t.id, "duplicate template id")
            if t.key in by_key:
                raise TemplateConflictError(t.key, by_key[t.key].id, t.id)
            by_id[t.id] = t
            by_key[t.key] = t
        self._by_id = by_id
        self._by_key = by_key
        self._in_id_order = tuple(by_id[i] for i in sorted(by_id))
        self._ranking = None  # retrieval's store, filled on the set's first ranking

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Template]:
        return iter(self._by_id.values())

    def __contains__(self, template_id: str) -> bool:
        return template_id in self._by_id

    def get(self, template_id: str) -> Template:
        return self._by_id[template_id]

    def find_key(self, key: TemplateKey) -> Template | None:
        return self._by_key.get(key)

    def in_id_order(self) -> tuple[Template, ...]:
        return self._in_id_order


# The parameters of Template and ParamDecl, so a checked record builds one;
# validate_template checks a param's kind and, by kind, its default.
_TEMPLATE_FIELDS = {
    "id": (TEXT, REQUIRED), "cluster": (TEXT, REQUIRED), "framework": (tuple(Framework), REQUIRED),
    "strategy": (tuple(Strategy), REQUIRED), "launcher": (tuple(Launcher), REQUIRED),
    "body": (TEXT, REQUIRED), "params": (LIST, OPTIONAL), "verified": (BOOL, OPTIONAL),
    "notes": (TEXT, OPTIONAL),
}
_PARAM_FIELDS = {
    "name": (TEXT, REQUIRED), "kind": (TEXT, OPTIONAL), "required": (BOOL, OPTIONAL),
    "default": (ANY, OPTIONAL),
}


def _parse_record(raw: object, index: int) -> Template:
    check_record(raw, _TEMPLATE_FIELDS, "template record",
                 functools.partial(TemplateInvalidError, f"#{index}"))
    params = raw.get("params", ())
    param_error = functools.partial(TemplateInvalidError, raw["id"])
    for param in params:
        check_record(param, _PARAM_FIELDS, "param record", param_error)
    return Template(**{
        **raw,
        "cluster": raw["cluster"].lower(),
        "framework": Framework(raw["framework"]),
        "strategy": Strategy(raw["strategy"]),
        "launcher": Launcher(raw["launcher"]),
        "params": tuple(ParamDecl(**param) for param in params),
    })


def load_repository(source: Path | str) -> TemplateSet:
    """Load a repository document (JSON array of template records).

    ``source`` is a path or the JSON text itself; see :mod:`launchport.documents`.
    """
    records = load_json(source, list, "repository document", _document_error)
    return TemplateSet([_parse_record(rec, i) for i, rec in enumerate(records)])


def _document_error(message: str) -> TemplateInvalidError:
    return TemplateInvalidError("<document>", message)


@functools.cache
def default_templates() -> TemplateSet:
    """The bundled template repository, parsed once per process."""
    return load_repository(bundled("templates.json"))
