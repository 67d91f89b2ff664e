"""Pluggable client for remote language-model and embedding services.

The bridge speaks one generic JSON request shape over HTTP, the same for
every capability::

    request:  {"capability": "extract" | "embed" | "repair",
               "system": "<per-capability prompt>",
               "payload": {...}}
    response: {"ok": true, "result": ...} | {"ok": false, "error": "..."}

The per-capability system prompts are bundled data, editable without code
changes.  The API key, when required, comes from the environment variable
named in the config and travels as a bearer token; it is never accepted on
the command line.

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

import json
import os
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

from .errors import BridgeDisabledError, BridgeProtocolError, BridgeUnavailableError
from .intent import PartialJobSpec
from .types import CATEGORIES, Framework, Launcher, Strategy

CAPABILITIES = ("extract", "embed", "repair")

# A transport takes (url, body_bytes, headers, timeout_s) and returns the
# raw response bytes; injectable so tests can stub the network.
Transport = Callable[[str, bytes, dict[str, str], float], bytes]


@dataclass(frozen=True)
class BridgeConfig:
    """Connection settings and enabled capabilities."""

    endpoint: str | None = None
    api_key_env: str | None = None
    timeout_ms: int = 2000
    retries: int = 1
    capabilities: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        unknown = set(self.capabilities) - set(CAPABILITIES)
        if unknown:
            raise BridgeProtocolError(f"unknown capabilities: {sorted(unknown)}")
        if self.capabilities and not self.endpoint:
            raise BridgeProtocolError("enabled capabilities require an endpoint")
        if self.timeout_ms < 1:
            raise BridgeProtocolError("timeout_ms must be positive")
        if self.retries < 0:
            raise BridgeProtocolError("retries must be >= 0")


def load_bridge_config(source: str | Path) -> BridgeConfig:
    """Load a bridge config document (JSON object).

    A document that is not a JSON object, or whose values have the wrong
    type, raises :class:`BridgeProtocolError`.
    """
    if isinstance(source, Path) or not str(source).lstrip().startswith("{"):
        text = Path(source).read_text("utf-8")
    else:
        text = str(source)
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("the document must be a JSON object")
        return BridgeConfig(
            endpoint=raw.get("endpoint"),
            api_key_env=raw.get("api_key_env"),
            timeout_ms=int(raw.get("timeout_ms", 2000)),
            retries=int(raw.get("retries", 1)),
            capabilities=frozenset(raw.get("capabilities", [])),
        )
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise BridgeProtocolError(f"invalid bridge config: {exc}") from exc


def _default_transport(url: str, body: bytes, headers: dict[str, str], timeout_s: float) -> bytes:
    # Imported here: the bridge is off by default and urllib.request is slow to import.
    import urllib.request

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        if response.status >= 400:
            raise BridgeUnavailableError(f"HTTP {response.status} from {url}")
        return response.read()


def _load_prompts() -> dict[str, str]:
    data = resources.files("launchport.data").joinpath("bridge_prompts.json").read_text("utf-8")
    return json.loads(data)


class RemoteBridge:
    """Client for one configured endpoint.

    Safe for concurrent requests from independent pipelines: the client
    holds no mutable state beyond its configuration.
    """

    def __init__(self, config: BridgeConfig, transport: Transport | None = None):
        self.config = config
        self._transport = transport or _default_transport
        self._prompts = _load_prompts()

    def enabled(self, capability: str) -> bool:
        return capability in self.config.capabilities

    # -- capabilities ------------------------------------------------------

    def remote_extract(self, text: str) -> PartialJobSpec:
        """Ask the remote model to extract job fields from free text.

        The response must be a flat object of PartialJobSpec field names;
        unknown keys are ignored and all values are re-validated locally.
        """
        self._require("extract")
        result = self._call("extract", {"text": text})
        if not isinstance(result, dict):
            raise BridgeProtocolError("extract result must be an object")
        return _coerce_partial(result)

    def remote_embed(self, texts: Sequence[str]) -> list[list[float]]:
        """Embed texts; the result is one numeric vector per input text."""
        self._require("embed")
        result = self._call("embed", {"texts": list(texts)})
        if not isinstance(result, list) or len(result) != len(texts):
            raise BridgeProtocolError("embed result must be one vector per text")
        vectors = []
        for vec in result:
            if not isinstance(vec, list) or not vec:
                raise BridgeProtocolError("embed vectors must be non-empty lists")
            try:
                vectors.append([float(x) for x in vec])
            except (TypeError, ValueError) as exc:
                raise BridgeProtocolError("embed vectors must be numeric") from exc
        return vectors

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
        return (category or "unknown", proposals)

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
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BridgeProtocolError(f"response is not JSON: {exc}") from exc
        if not isinstance(response, dict) or "ok" not in response:
            raise BridgeProtocolError("response must be an object with an 'ok' field")
        if not response["ok"]:
            raise BridgeProtocolError(f"remote error: {response.get('error', 'unspecified')}")
        if "result" not in response:
            raise BridgeProtocolError("successful response is missing 'result'")
        return response["result"]


class BridgeExtractor:
    """Adapter exposing remote_extract through the Extractor protocol."""

    def __init__(self, bridge: RemoteBridge):
        self._bridge = bridge

    def extract(self, text: str) -> PartialJobSpec:
        if not text:
            raise ValueError("extract requires non-empty text")
        return self._bridge.remote_extract(text)


class BridgeEmbedder:
    """Adapter exposing remote_embed through the retrieval Embedder protocol."""

    def __init__(self, bridge: RemoteBridge):
        self._bridge = bridge

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        return self._bridge.remote_embed(texts)


_INT_FIELDS = ("nodes", "gpus_per_node", "total_gpus", "master_port")
_TEXT_FIELDS = ("entry_script", "train_args", "deepspeed_config", "cluster")


def _coerce_partial(raw: dict) -> PartialJobSpec:
    """Validate a flat remote result into a PartialJobSpec.

    Unknown keys are ignored; bad values are protocol errors rather than
    silently accepted.
    """
    kwargs: dict = {}
    try:
        for name in _INT_FIELDS:
            if raw.get(name) is not None:
                kwargs[name] = int(raw[name])
        for name in _TEXT_FIELDS:
            if raw.get(name) is not None:
                kwargs[name] = str(raw[name])
        if raw.get("framework") is not None:
            kwargs["framework"] = Framework(raw["framework"])
        if raw.get("strategy") is not None:
            kwargs["strategy"] = Strategy(raw["strategy"])
        if raw.get("launcher") is not None:
            kwargs["launcher"] = Launcher(raw["launcher"])
        if "train_args" in kwargs:
            kwargs["train_args"] = kwargs["train_args"] or ""
        return PartialJobSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise BridgeProtocolError(f"extract result failed validation: {exc}") from exc
