"""Pluggable client for remote language-model and embedding services.

The bridge speaks one generic JSON request shape over HTTP, the same for
every capability::

    request:  {"capability": "extract" | "embed" | "repair",
               "system": "<per-capability prompt>",
               "payload": {...}}
    response: {"ok": true, "result": ...} | {"ok": false, "error": "..."}

:class:`RemoteBridge` is itself the extractor (``extract``), the embedder
(``embed``) and the repair bridge (``enabled``, ``remote_repair``) that
``prose``, ``retrieval`` and ``repair`` accept.  The repair proposals a
model returns are free text; :func:`parse_proposals` reads them into the
repair table's typed actions or drops them.  The per-capability system
prompts are bundled data, editable without code changes.  The API key, when
required, comes from the environment variable named in the config and
travels as a bearer token; it is never accepted on the command line.

Every capability is disabled unless explicitly enabled, and every caller in
the package has a deterministic offline fallback, so the core pipeline
never requires a network.  No remote response reaches downstream modules
without schema validation here.

Failure semantics: unreachable endpoint or HTTP error raises
:class:`BridgeUnavailableError` (callers fall back); a reachable endpoint
answering garbage raises :class:`BridgeProtocolError`.  Retries use a fixed
backoff of ``timeout_ms x attempt`` with no jitter, keeping tests
deterministic.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .documents import INT, OPTIONAL, STRINGS, TEXT, TEXT_OR_INT, bundled, check_record, load_json
from .errors import BridgeDisabledError, BridgeProtocolError, BridgeUnavailableError
from .intent import FIELD_PARSERS, PartialJobSpec
from .repair import RepairAction
from .types import (
    CATEGORIES, CATEGORY_UNKNOWN, REPAIR_PAYLOAD_KEYS, FrozenRecord, Launcher, set_frozen,
)

CAPABILITIES = ("extract", "embed", "repair")

# A transport takes (url, body_bytes, headers, timeout_s) and returns the
# raw response bytes; injectable so tests can stub the network.
Transport = Callable[[str, bytes, dict[str, str], float], bytes]


class BridgeConfig(FrozenRecord):
    """Connection settings and enabled capabilities."""

    __slots__ = ("endpoint", "api_key_env", "timeout_ms", "retries", "capabilities")

    def __init__(
        self,
        endpoint: str | None = None,
        api_key_env: str | None = None,
        timeout_ms: int = 2000,
        retries: int = 1,
        capabilities: frozenset[str] = frozenset(),
    ) -> None:
        unknown = set(capabilities) - set(CAPABILITIES)
        if unknown:
            raise BridgeProtocolError(f"unknown capabilities: {sorted(unknown)}")
        if capabilities and not endpoint:
            raise BridgeProtocolError("enabled capabilities require an endpoint")
        if timeout_ms < 1:
            raise BridgeProtocolError("timeout_ms must be positive")
        if retries < 0:
            raise BridgeProtocolError("retries must be >= 0")
        set_frozen(self, "endpoint", endpoint)
        set_frozen(self, "api_key_env", api_key_env)
        set_frozen(self, "timeout_ms", timeout_ms)
        set_frozen(self, "retries", retries)
        set_frozen(self, "capabilities", capabilities)


# BridgeConfig checks the values: known capabilities, an endpoint for any,
# a positive timeout_ms and retries >= 0.
_CONFIG_FIELDS = {
    "endpoint": (TEXT, OPTIONAL), "api_key_env": (TEXT, OPTIONAL), "timeout_ms": (INT, OPTIONAL),
    "retries": (INT, OPTIONAL), "capabilities": (STRINGS, OPTIONAL),
}


def load_bridge_config(source: Path | str) -> BridgeConfig:
    """Load a bridge config document (JSON object).

    ``source`` is a path or the JSON text itself; see :mod:`launchport.documents`.
    A document that is not a JSON object, or whose fields are unknown or of
    the wrong type, raises :class:`BridgeProtocolError`.
    """
    raw = load_json(source, dict, "the document", _config_error)
    check_record(raw, _CONFIG_FIELDS, "the document", _config_error)
    return BridgeConfig(**{**raw, "capabilities": frozenset(raw.get("capabilities", ()))})


def _config_error(message: str, field: str | None = None) -> BridgeProtocolError:
    return BridgeProtocolError(f"invalid bridge config: {message}")


def _default_transport(url: str, body: bytes, headers: dict[str, str], timeout_s: float) -> bytes:
    # Imported here: the bridge is off by default and urllib.request is slow to import.
    import urllib.request

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    # urlopen raises HTTPError, an OSError, for any answer that is not 2xx.
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        return response.read()


class RemoteBridge:
    """Client for one configured endpoint.

    Safe for concurrent requests from independent pipelines: the client
    holds no mutable state beyond its configuration.
    """

    def __init__(self, config: BridgeConfig, transport: Transport | None = None):
        self.config = config
        self._transport = transport or _default_transport
        self._prompts = _bundled_prompts()

    def enabled(self, capability: str) -> bool:
        return capability in self.config.capabilities

    # -- capabilities ------------------------------------------------------

    def extract(self, text: str) -> PartialJobSpec:
        """Ask the remote model to extract job fields from free text.

        The response must be a flat object of PartialJobSpec field names;
        unknown keys are ignored and all values are re-validated locally.
        An empty ``text`` raises ``ValueError``, as the offline extractor does.
        """
        if not text:
            raise ValueError("extract requires non-empty text")
        self._require("extract")
        result = self._call("extract", {"text": text})
        if not isinstance(result, dict):
            raise BridgeProtocolError("extract result must be an object")
        return _coerce_partial(result)

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        """Embed texts; the result is one vector per input text, all of one
        length, of finite numbers (JSON's ``true`` and ``NaN`` are none)."""
        self._require("embed")
        result = self._call("embed", {"texts": list(texts)})
        if not isinstance(result, list) or len(result) != len(texts):
            raise BridgeProtocolError("embed result must be one vector per text")
        for vec in result:
            if not isinstance(vec, list) or not vec:
                raise BridgeProtocolError("embed vectors must be non-empty lists")
            # Compared exactly, so an integer too large for a float is refused too.
            if not all(x.__class__ in (int, float) and abs(x) <= sys.float_info.max for x in vec):
                raise BridgeProtocolError("embed vectors must be finite numbers")
            if len(vec) != len(result[0]):
                raise BridgeProtocolError("embed vectors must all have one length")
        return [[float(x) for x in vec] for vec in result]

    def remote_repair(self, context: dict) -> tuple[str, list[str]]:
        """Ask for repair proposals; returns (category, proposal texts).

        The category is required whenever proposals are present so that
        downstream diagnoses are never left unclassified by a usable answer.
        """
        self._require("repair")
        result = self._call("repair", context)
        if not isinstance(result, dict):
            raise BridgeProtocolError("repair result must be an object")
        proposals = result.get("proposals", [])
        if not isinstance(proposals, list) or not all(isinstance(p, str) for p in proposals):
            raise BridgeProtocolError("repair proposals must be a list of strings")
        category = result.get("category")
        if proposals and category not in CATEGORIES:
            raise BridgeProtocolError("repair response with proposals needs a category")
        return (category or CATEGORY_UNKNOWN, proposals)

    # -- plumbing ----------------------------------------------------------

    def _require(self, capability: str) -> None:
        if not self.enabled(capability):
            raise BridgeDisabledError(f"capability '{capability}' is not enabled")

    def _call(self, capability: str, payload: dict):
        body = json.dumps(
            {
                "capability": capability,
                "system": self._prompts.get(capability, ""),
                "payload": payload,
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.config.api_key_env:
            key = os.environ.get(self.config.api_key_env)
            if key:
                headers["Authorization"] = f"Bearer {key}"
        timeout_s = self.config.timeout_ms / 1000.0

        last_error: Exception | None = None
        for attempt in range(1, self.config.retries + 2):
            try:
                raw = self._transport(self.config.endpoint, body, headers, timeout_s)  # type: ignore[arg-type]
                break
            except (OSError, BridgeUnavailableError) as exc:  # URLError, TimeoutError are OSErrors
                last_error = exc
                if attempt <= self.config.retries:
                    time.sleep(timeout_s * attempt)  # fixed backoff, no jitter
        else:
            raise BridgeUnavailableError(f"endpoint unreachable: {last_error}")

        if not raw:
            raise BridgeProtocolError("empty response body")
        try:
            response = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # also JSONDecodeError, UnicodeDecodeError, too many digits
            raise BridgeProtocolError(f"response is not JSON: {exc}") from exc
        if not isinstance(response, dict) or "ok" not in response:
            raise BridgeProtocolError("response must be an object with an 'ok' field")
        if not response["ok"]:
            raise BridgeProtocolError(f"remote error: {response.get('error', 'unspecified')}")
        if "result" not in response:
            raise BridgeProtocolError("successful response is missing 'result'")
        return response["result"]


@functools.cache
def _bundled_prompts() -> Mapping[str, str]:
    """The bundled per-capability system prompts, read once; read-only."""
    return MappingProxyType(
        load_json(bundled("bridge_prompts.json"), dict, "bridge prompts", BridgeProtocolError))


# The fields of a remote extraction, in FIELD_PARSERS order, and their JSON
# kinds: a count is an integer, the port an integer or a string (PartialJobSpec
# holds either to the port rule), a text field a string and an enum field the
# value of one of its members.
_REMOTE_PARSERS = {**FIELD_PARSERS, "launcher": Launcher}
_ENUMS = {name: parse for name, parse in _REMOTE_PARSERS.items() if parse not in (INT, TEXT)}
_REMOTE_FIELDS = {
    name: (TEXT_OR_INT if name == "master_port" else
           tuple(member.value for member in _ENUMS[name]) if name in _ENUMS else parse, OPTIONAL)
    for name, parse in _REMOTE_PARSERS.items()
}


def _coerce_partial(raw: dict) -> PartialJobSpec:
    """Validate a flat remote result into a PartialJobSpec.

    Unknown keys and ``null`` values are ignored.  A value of another JSON
    type, or one the job refuses (a count below 1, a port out of range), is a
    protocol error rather than converted.  Fields are checked in
    :data:`_REMOTE_FIELDS` order, so of several bad values the first there is
    the one reported.
    """
    known = {name: raw[name] for name in _REMOTE_FIELDS if raw.get(name) is not None}
    check_record(known, _REMOTE_FIELDS, "extract result",
                 lambda message, field: BridgeProtocolError(message))
    try:
        return PartialJobSpec(**{name: _ENUMS[name](value) if name in _ENUMS else value
                                 for name, value in known.items()})
    except ValueError as exc:
        raise BridgeProtocolError(f"extract result: {exc}") from exc


# Proposal parsing: the free text of ``remote_repair`` -> typed repair actions.

# Tried in order; the first that matches gives its kind, with one group per
# payload key of the kind, in REPAIR_PAYLOAD_KEYS order.
_PROPOSALS = (
    (re.compile(r"\bmodule\s+load\s+([\w./+-]+)", re.I), "add_module_load"),
    (re.compile(r"\bexport(?:ing)?\s+\$?([A-Z_][A-Z0-9_]*)"), "export_env"),
    (re.compile(r"\bswitch(?:ing)?\s+(?:to\s+)?template\s+([\w-]+)", re.I), "switch_template"),
    (re.compile(r"\badd(?:ing)?\s+(?:the\s+)?arg(?:ument)?s?\s+(.+)", re.I), "add_arg"),
    (re.compile(r"\bset\s+([\w.]+)\s+to\s+(\S+)", re.I), "set_param"),
    (re.compile(r"\bpin\s+([\w-]+)\s+(?:to\s+)?([\w.+-]+)", re.I), "pin_version"),
)
_P_NIGHTLY = re.compile(r"\bnightly\b.*\b(?:pytorch|torch)\b|\b(?:pytorch|torch)\b.*\bnightly\b", re.I | re.S)


def parse_proposal(text: str) -> RepairAction | None:
    """Parse one free-text proposal into a typed action, or drop it."""
    for pattern, kind in _PROPOSALS:
        m = pattern.search(text)
        if m:
            payload = dict(zip(REPAIR_PAYLOAD_KEYS[kind], (group.strip() for group in m.groups())))
            return RepairAction(kind, payload, rationale=text.strip())
    if _P_NIGHTLY.search(text):
        return RepairAction(
            "pin_version", {"package": "pytorch", "version": "nightly"}, rationale=text.strip()
        )
    return None


def parse_proposals(proposals: list[str]) -> list[RepairAction]:
    """Parse proposals in order, silently dropping unparseable ones."""
    actions = []
    for text in proposals:
        action = parse_proposal(text)
        if action is not None:
            actions.append(action)
    return actions
