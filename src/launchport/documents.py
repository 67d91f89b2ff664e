"""Reading documents.

Every JSON document the package reads, bundled or user-supplied, goes
through :func:`load_json`; the bundled texts come from :func:`bundled`.
A source is either a :class:`pathlib.Path`, read as UTF-8, or a ``str``
holding the JSON text itself.  :func:`read_text` reads a file the same
way for callers that want its text, not its JSON.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Callable


def bundled(name: str) -> str:
    """The text of the bundled document ``launchport/data/<name>``."""
    return resources.files("launchport.data").joinpath(name).read_text("utf-8")


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
