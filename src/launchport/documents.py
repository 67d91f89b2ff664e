"""Reading documents.

Every JSON document the package reads, bundled or user-supplied, goes
through :func:`load_json`; the bundled texts come from :func:`bundled`.
A source is either a :class:`pathlib.Path`, read as UTF-8, or a ``str``
holding the JSON text itself.  :func:`read_text` reads a file the same
way for callers that want its text, not its JSON.

Each loader declares the fields of its records once, as a table of
``name: (kind, REQUIRED | OPTIONAL)``, and :func:`check_record` checks a
record against it; the loader keeps only the rules that join fields.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable

_DATA = os.path.join(os.path.dirname(__file__), "data")


def bundled(name: str) -> str:
    """The text of the bundled document ``launchport/data/<name>``, read from
    the ``data`` directory next to this module."""
    with open(os.path.join(_DATA, name), encoding="utf-8") as f:
        return f.read()


def read_text(path: Path, error: Callable[[str], Exception]) -> str:
    """The text of the file ``path``; bytes that are not UTF-8 raise
    ``error("<path>: not UTF-8 text (byte N)")``."""
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def load_json(
    source: Path | str,
    shape: type[list] | type[dict],
    what: str,
    error: Callable[[str], Exception],
) -> list | dict:
    """The JSON value of ``source``, which must be a ``shape`` (list or dict).

    An empty document is ``shape()``.  Malformed JSON raises
    ``error("invalid JSON at line N: ...")``, an integer literal too long to
    convert or nesting too deep to decode ``error("invalid JSON: ...")``, and
    a value of another shape ``error("<what> must be a JSON array|object")``;
    when ``source`` is a path, the message starts with ``"<path>: "``, and a
    file that is not UTF-8 raises through ``error`` too (see :func:`read_text`).
    """
    if isinstance(source, Path):
        text, where = read_text(source, error), f"{source}: "
    else:
        text, where = source, ""
    if not text.strip():
        return shape()
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
        raise error(f"{where}invalid JSON: {exc}") from exc
    if not isinstance(value, shape):
        kind = "array" if shape is list else "object"
        raise error(f"{where}{what} must be a JSON {kind}")
    return value


# Field kinds.  A class accepts a value of exactly that class: 5 is not a
# string, 4.9 not an integer, "false" not a bool and true not 1.  A tuple of
# strings accepts one of those values.  The rest say what they accept.
TEXT, INT, BOOL, OBJECT, LIST = str, int, bool, dict, list
TEXT_OR_INT = "a string or an integer"
STRINGS = "a list of strings"
TEXTS = "a string or a list of strings"
NAMES = "a string or a non-empty list of strings"
ANY = "any JSON value"  # for the record's constructor to check
REQUIRED, OPTIONAL = True, False
Fields = dict[str, tuple[type | str | tuple[str, ...], bool]]  # name: (kind, REQUIRED | OPTIONAL)


def _strings(value) -> bool:
    return value.__class__ is list and all(v.__class__ is str for v in value)


_ACCEPTS = {
    TEXT_OR_INT: lambda v: v.__class__ is str or v.__class__ is int,
    STRINGS: _strings,
    TEXTS: lambda v: v.__class__ is str or _strings(v),
    NAMES: lambda v: v.__class__ is str or _strings(v) and v != [],
    ANY: lambda v: True,
}
_WANTED = {str: "a string", int: "an integer", bool: "true or false", dict: "an object",
           list: "a list"}


def check_record(raw: object, fields: Fields, what: str, error: Callable[..., Exception]) -> None:
    """Raise ``error(message, field=F)`` unless ``raw`` is an object whose fields
    are all in ``fields``, each of its kind, and hold every required one.

    Unknown and mistyped fields are found in document order, then missing
    ones in table order.  ``what`` names the record: ``<what> lacks 'F'``.
    """
    if raw.__class__ is not dict:
        raise error(f"{what} must be an object", field=None)
    for name, value in raw.items():
        if name not in fields:
            raise error(f"{what}: unknown field '{name}'", field=name)
        kind = fields[name][0]
        if value.__class__ is kind:
            continue
        if kind.__class__ is tuple:
            if value not in kind:
                raise error(f"{what}: '{name}' must be one of {', '.join(kind)}", field=name)
        elif kind not in _ACCEPTS or not _ACCEPTS[kind](value):
            raise error(f"{what}: '{name}' must be {_WANTED.get(kind, kind)}", field=name)
    for name, (_, required) in fields.items():
        if required and name not in raw:
            raise error(f"{what} lacks '{name}'", field=name)
