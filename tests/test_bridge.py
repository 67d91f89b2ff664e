import json
import os
import subprocess
import sys
import threading
import urllib.error
from pathlib import Path
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import example, given, strategies as st

import launchport
from launchport.bridge import (
    BridgeConfig,
    RemoteBridge,
    load_bridge_config,
    parse_proposal,
    parse_proposals,
)
from launchport.errors import (
    BridgeDisabledError,
    BridgeProtocolError,
    BridgeUnavailableError,
)
from launchport.intent import PartialJobSpec
from launchport.prose import RuleBasedExtractor
from launchport.repair import RepairAction
from launchport.types import Framework, Launcher, Strategy

from conftest import TABLE_DESCRIPTION

ALL = frozenset({"extract", "embed", "repair"})


def _config(**overrides):
    fields = dict(
        endpoint="http://bridge.test/v1",
        timeout_ms=20,
        retries=0,
        capabilities=ALL,
    )
    fields.update(overrides)
    return BridgeConfig(**fields)


def _ok(result):
    return json.dumps({"ok": True, "result": result}).encode()


class TestConfig:
    def test_capabilities_require_endpoint(self):
        with pytest.raises(BridgeProtocolError):
            BridgeConfig(capabilities=frozenset({"extract"}))

    def test_disabled_by_default(self):
        bridge = RemoteBridge(BridgeConfig())
        assert not bridge.enabled("extract")
        with pytest.raises(BridgeDisabledError):
            bridge.extract("two nodes")

    def test_unknown_capability_rejected(self):
        with pytest.raises(BridgeProtocolError):
            BridgeConfig(endpoint="http://x", capabilities=frozenset({"telepathy"}))

    @pytest.mark.parametrize("document, message", [
        ('{"timeout_ms": 0}', "timeout_ms must be positive"),
        ('{"retries": -1}', "retries must be >= 0"),
    ])
    def test_counts_out_of_range_rejected(self, document, message):
        with pytest.raises(BridgeProtocolError) as exc:
            load_bridge_config(document)
        assert str(exc.value) == message

    def test_smallest_counts_accepted(self):
        config = load_bridge_config('{"timeout_ms": 1, "retries": 0}')
        assert (config.timeout_ms, config.retries) == (1, 0)

    def test_load_from_document(self, tmp_path):
        doc = tmp_path / "bridge.json"
        doc.write_text(json.dumps({
            "endpoint": "http://bridge.test/v1",
            "api_key_env": "BRIDGE_KEY",
            "timeout_ms": 50,
            "retries": 2,
            "capabilities": ["extract"],
        }))
        config = load_bridge_config(doc)
        assert config.endpoint == "http://bridge.test/v1"
        assert config.retries == 2
        assert config.capabilities == frozenset({"extract"})


_CALLS = {
    "extract": lambda bridge: bridge.extract("two nodes"),
    "embed": lambda bridge: bridge.embed(["a"]),
    "repair": lambda bridge: bridge.remote_repair({"stderr": "x"}),
}


@pytest.mark.parametrize("capability, body, message", [
    ("extract", _ok([]), "extract result must be an object"),
    ("embed", _ok({"a": [1.0]}), "embed result must be one vector per text"),
    ("embed", _ok([[]]), "embed vectors must be non-empty lists"),
    ("embed", _ok([1.0]), "embed vectors must be non-empty lists"),
    ("embed", _ok([["x"]]), "embed vectors must be finite numbers"),
    ("embed", _ok([[None]]), "embed vectors must be finite numbers"),
    ("embed", _ok([[True]]), "embed vectors must be finite numbers"),
    ("embed", b'{"ok": true, "result": [[NaN]]}', "embed vectors must be finite numbers"),
    ("embed", b'{"ok": true, "result": [[1e999]]}', "embed vectors must be finite numbers"),
    ("embed", b'{"ok": true, "result": [[' + b"9" * 400 + b"]]}",
     "embed vectors must be finite numbers"),
    ("repair", _ok([]), "repair result must be an object"),
    ("repair", _ok({"proposals": "export X"}), "repair proposals must be a list of strings"),
    ("repair", _ok({"category": "env", "proposals": ["export X", 5]}),
     "repair proposals must be a list of strings"),
    ("extract", b'{"result": {}}', "response must be an object with an 'ok' field"),
    ("repair", b"[true]", "response must be an object with an 'ok' field"),
    ("embed", b'{"ok": true}', "successful response is missing 'result'"),
    ("extract", b'{"ok": false}', "remote error: unspecified"),
    ("extract", b'{"ok": 0, "result": {}}', "remote error: unspecified"),
])
def test_each_malformed_answer_is_one_protocol_error(capability, body, message):
    bridge = RemoteBridge(_config(), transport=lambda *a: body)
    with pytest.raises(BridgeProtocolError) as exc:
        _CALLS[capability](bridge)
    assert str(exc.value) == message


def test_http_error_status_is_unavailable(monkeypatch):
    # urlopen raises HTTPError for every answer that is not 2xx.
    def urlopen(request, timeout):
        raise urllib.error.HTTPError(request.full_url, 503, "Service Unavailable", {}, None)

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    bridge = RemoteBridge(_config())  # retries=0: no backoff sleep
    with pytest.raises(BridgeUnavailableError) as exc:
        bridge.extract("two nodes")
    assert str(exc.value) == "endpoint unreachable: HTTP Error 503: Service Unavailable"


class TestRemoteExtract:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError) as exc:
            RemoteBridge(_config(), transport=lambda *a: _ok({})).extract("")
        assert str(exc.value) == "extract requires non-empty text"

    def test_matches_rule_based_extractor_on_reference_text(self):
        text = TABLE_DESCRIPTION.format(cluster="Perlmutter")
        expected = RuleBasedExtractor().extract(text)

        def transport(url, body, headers, timeout):
            request = json.loads(body)
            assert request["capability"] == "extract"
            return _ok({
                "cluster": expected.cluster,
                "launcher": expected.launcher.value,
                "nodes": expected.nodes,
                "total_gpus": expected.total_gpus,
                "entry_script": expected.entry_script,
                "train_args": expected.train_args,
                "certainty": 0.99,  # unknown key, must be ignored
            })

        bridge = RemoteBridge(_config(), transport=transport)
        assert bridge.extract(text) == expected

    def test_empty_body_is_protocol_error(self):
        bridge = RemoteBridge(_config(), transport=lambda *a: b"")
        with pytest.raises(BridgeProtocolError) as exc:
            bridge.extract("two nodes")
        assert str(exc.value) == "empty response body"

    def test_non_json_is_protocol_error(self):
        bridge = RemoteBridge(_config(), transport=lambda *a: b"<html>oops</html>")
        with pytest.raises(BridgeProtocolError):
            bridge.extract("two nodes")

    def test_remote_error_is_protocol_error(self):
        bridge = RemoteBridge(
            _config(), transport=lambda *a: json.dumps({"ok": False, "error": "overloaded"}).encode()
        )
        with pytest.raises(BridgeProtocolError) as exc:
            bridge.extract("two nodes")
        assert "overloaded" in str(exc.value)

    def test_invalid_field_values_are_protocol_errors(self):
        bridge = RemoteBridge(_config(), transport=lambda *a: _ok({"nodes": -3}))
        with pytest.raises(BridgeProtocolError):
            bridge.extract("minus three nodes")

    @pytest.mark.parametrize("count", [b"Infinity", b"9" * 4301], ids=["infinity", "4301-digits"])
    def test_unconvertible_count_is_protocol_error(self, count):
        # json.loads accepts Infinity, which int() cannot convert, and turns a
        # count of more than 4,300 digits into a plain ValueError.
        body = b'{"ok": true, "result": {"nodes": ' + count + b"}}"
        bridge = RemoteBridge(_config(), transport=lambda *a: body)
        with pytest.raises(BridgeProtocolError):
            bridge.extract("two nodes")

    def test_endpoint_down_is_unavailable(self):
        def transport(*args):
            raise urllib.error.URLError("connection refused")

        bridge = RemoteBridge(_config(), transport=transport)
        with pytest.raises(BridgeUnavailableError):
            bridge.extract("two nodes")

    def test_retries_with_fixed_backoff_then_succeed(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("launchport.bridge.time.sleep", sleeps.append)
        calls = []

        def transport(url, body, headers, timeout):
            calls.append(timeout)
            if len(calls) < 3:
                raise urllib.error.URLError("flaky")
            return _ok({"nodes": 2})

        bridge = RemoteBridge(_config(retries=2), transport=transport)
        assert bridge.extract("two nodes").nodes == 2
        assert len(calls) == 3
        # Backoff is timeout x attempt, no jitter.
        assert sleeps == [0.02 * 1, 0.02 * 2]

    def test_api_key_travels_as_bearer_header(self, monkeypatch):
        monkeypatch.setenv("BRIDGE_KEY", "s3cret")
        seen = {}

        def transport(url, body, headers, timeout):
            seen.update(headers)
            return _ok({"nodes": 2})

        bridge = RemoteBridge(_config(api_key_env="BRIDGE_KEY"), transport=transport)
        bridge.extract("two nodes")
        assert seen["Authorization"] == "Bearer s3cret"


_COUNT_FIELDS = ("nodes", "gpus_per_node", "total_gpus")
_TEXT_FIELDS = ("entry_script", "train_args", "deepspeed_config", "cluster")
_ENUM_FIELDS = {"framework": Framework, "strategy": Strategy, "launcher": Launcher}


# The order a remote extraction is checked in; of several bad values the
# first here is the one reported.
_FIELD_ORDER = ("cluster", "framework", "strategy", *_COUNT_FIELDS, "master_port",
                "entry_script", "deepspeed_config", "train_args", "launcher")


def _reference_coerce(raw):
    """Reference reader of a remote extraction: a count is a JSON integer, the
    port an integer or a string, a text field a string and an enum field the
    value of a member; null and unknown keys are ignored.  The job then checks
    the values (counts of at least 1, a port by valid_port)."""
    kwargs = {}
    for name in _FIELD_ORDER:
        value = raw.get(name)
        if value is None:
            continue
        if name in _COUNT_FIELDS:
            wanted = None if type(value) is int else "an integer"
        elif name == "master_port":
            wanted = None if type(value) in (int, str) else "a string or an integer"
        elif name in _TEXT_FIELDS:
            wanted = None if type(value) is str else "a string"
        else:
            values = [member.value for member in _ENUM_FIELDS[name]]
            wanted = None if value in values else f"one of {', '.join(values)}"
        if wanted:
            raise BridgeProtocolError(f"extract result: '{name}' must be {wanted}")
        kwargs[name] = _ENUM_FIELDS[name](value) if name in _ENUM_FIELDS else value
    try:
        return PartialJobSpec(**kwargs)
    except ValueError as exc:
        raise BridgeProtocolError(f"extract result: {exc}") from exc


def _outcome(read, *args):
    """What ``read`` returns, or the class and message of what it raises."""
    try:
        return read(*args)
    except Exception as exc:
        return type(exc), str(exc)


_REMOTE_VALUES = (
    st.none() | st.booleans() | st.integers(-2, 70_000) | st.floats()
    | st.sampled_from(["pytorch", "deepspeed", "accelerate", "ddp", "fsdp", "zero3", "srun",
                       "torchrun", "mpiexec", "DDP", "", "0", "8", " 4 ", "29500", "x"])
    | st.text(max_size=4) | st.lists(st.integers(0, 9), max_size=2)
)


@given(st.dictionaries(
    st.sampled_from([*_COUNT_FIELDS, "master_port", *_TEXT_FIELDS, *_ENUM_FIELDS, "certainty"]),
    _REMOTE_VALUES,
))
def test_remote_extraction_reads_as_the_reference_does(raw):
    bridge = RemoteBridge(_config(), transport=lambda *a: _ok(raw))
    expected_raw = json.loads(_ok(raw))["result"]
    assert _outcome(bridge.extract, "two nodes") == _outcome(_reference_coerce, expected_raw)


@pytest.mark.parametrize("raw, message", [
    ({"nodes": 2.7}, "'nodes' must be an integer"),
    ({"gpus_per_node": True}, "'gpus_per_node' must be an integer"),
    ({"master_port": 29500.9}, "'master_port' must be a string or an integer"),
    ({"master_port": "29_500"}, "master_port must be in [1024, 65535], got 29_500"),
    ({"entry_script": 123}, "'entry_script' must be a string"),
    ({"launcher": "Srun"}, "'launcher' must be one of torchrun, mpiexec, deepspeed, "
                           "accelerate, srun"),
    ({"nodes": 2.7, "gpus_per_node": True, "master_port": 29500.9, "entry_script": 123},
     "'nodes' must be an integer"),
])
def test_remote_extraction_refuses_wrong_json_types(raw, message):
    # Each was once converted: to nodes 2, gpus_per_node 1, master_port 29500,
    # and entry_script '123'.
    bridge = RemoteBridge(_config(), transport=lambda *a: _ok(raw))
    with pytest.raises(BridgeProtocolError) as exc:
        bridge.extract("two nodes")
    assert str(exc.value) == f"extract result: {message}"


class TestRemoteEmbed:
    def test_vector_per_text(self):
        bridge = RemoteBridge(
            _config(), transport=lambda *a: _ok([[1.0, 0.0], [0.5, 0.5]])
        )
        assert bridge.embed(["a", "b"]) == [[1.0, 0.0], [0.5, 0.5]]

    def test_wrong_count_is_protocol_error(self):
        bridge = RemoteBridge(_config(), transport=lambda *a: _ok([[1.0]]))
        with pytest.raises(BridgeProtocolError):
            bridge.embed(["a", "b"])

    @pytest.mark.parametrize("body, message", [
        (_ok([[1.0, 0.0], [1.0], [1.0]]), "embed vectors must all have one length"),
        (b'{"ok": true, "result": [[NaN], [1.0], [1.0]]}', "embed vectors must be finite numbers"),
        (_ok([[1.0], [1.0], [False]]), "embed vectors must be finite numbers"),
    ], ids=["ragged", "nan", "bool"])
    def test_ragged_or_non_finite_vectors_are_protocol_errors(self, body, message):
        # Once accepted: cosine similarity zipped a ragged pair to its shorter
        # vector, and read 1.0 for a NaN, since min(1.0, nan) is 1.0.
        bridge = RemoteBridge(_config(), transport=lambda *a: body)
        with pytest.raises(BridgeProtocolError) as exc:
            bridge.embed(["a", "b", "c"])
        assert str(exc.value) == message

    def test_integers_read_as_floats(self):
        bridge = RemoteBridge(_config(), transport=lambda *a: _ok([[1, 0], [0, 2]]))
        assert bridge.embed(["a", "b"]) == [[1.0, 0.0], [0.0, 2.0]]


def test_every_bridge_shares_the_read_only_bundled_prompts():
    prompts = RemoteBridge(_config())._prompts
    assert RemoteBridge(_config())._prompts is prompts
    with pytest.raises(TypeError):
        prompts["extract"] = "changed"


class TestRemoteRepair:
    def test_apex_context_yields_pin_version(self):
        bridge = RemoteBridge(
            _config(),
            transport=lambda *a: _ok({
                "category": "framework",
                "proposals": ["switching to the latest nightly PyTorch build"],
            }),
        )
        category, proposals = bridge.remote_repair({"stderr": "Apex build failed"})
        assert category == "framework"
        actions = parse_proposals(proposals)
        assert actions[0].kind == "pin_version"
        assert actions[0].payload == {"package": "pytorch", "version": "nightly"}

    def test_category_required_with_proposals(self):
        bridge = RemoteBridge(
            _config(), transport=lambda *a: _ok({"proposals": ["export PYTHONPATH"]})
        )
        with pytest.raises(BridgeProtocolError):
            bridge.remote_repair({"stderr": "x"})

    def test_unparseable_proposals_dropped_in_order(self):
        bridge = RemoteBridge(
            _config(),
            transport=lambda *a: _ok({
                "category": "env",
                "proposals": [
                    "export PYTHONPATH on every node",
                    "reinstall the universe",
                    "module load gcc/13.2.0",
                ],
            }),
        )
        _, proposals = bridge.remote_repair({"stderr": "x"})
        actions = parse_proposals(proposals)
        assert [a.kind for a in actions] == ["export_env", "add_module_load"]


# How each proposal form starts, and the characters a payload may hold: some
# would break the script's quoting, some are not ASCII.
_PROPOSAL_FORMS = ["module load ", "export ", "exporting $", "pin ", "pin numpy to ",
                   "set master_port to ", "switch to template ", "add the argument ",
                   "nightly PyTorch ", "torch nightly"]
_PAYLOAD_TEXT = st.text(st.sampled_from("aZ_9./-+$ '\"\nié\u0130"), min_size=1, max_size=8)


@given(st.text() | st.lists(st.tuples(st.sampled_from(_PROPOSAL_FORMS), _PAYLOAD_TEXT),
                            min_size=1, max_size=3).map(lambda parts: "".join(map("".join, parts))))
@example("module load gcc'13")
@example("export A'B")
@example("pin numpy to 1.26'\n")
@example("pin num'py 1.26")
def test_a_proposal_parses_to_an_action_that_passes_its_own_checks_or_to_none(text):
    # The RepairAction constructor refuses a verbatim payload that breaks the quoting,
    # so a proposal must never capture one: parse_proposal would raise.
    action = parse_proposal(text)
    if action is None:
        return
    assert action == RepairAction(action.kind, action.payload, action.rationale)
    if action.kind in ("export_env", "add_module_load", "pin_version", "prepend_line"):
        assert not any("'" in value or "\n" in value for value in action.payload.values())


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        if request["capability"] == "extract":
            result = {"nodes": 2, "entry_script": "train.py"}
        else:
            result = {"category": "env", "proposals": ["export PYTHONPATH"]}
        body = json.dumps({"ok": True, "result": result}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestOverRealHttp:
    def test_extract_over_loopback(self):
        server = HTTPServer(("127.0.0.1", 0), _Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            config = BridgeConfig(
                endpoint=f"http://127.0.0.1:{server.server_port}/v1",
                timeout_ms=2000,
                retries=0,
                capabilities=frozenset({"extract"}),
            )
            bridge = RemoteBridge(config)
            partial = bridge.extract("two nodes, train.py")
            assert partial.nodes == 2
            assert partial.entry_script == "train.py"
        finally:
            server.shutdown()
            server.server_close()

    def test_unreachable_port_falls_back(self):
        config = BridgeConfig(
            endpoint="http://127.0.0.1:9",  # discard port; nothing listens
            timeout_ms=50,
            retries=0,
            capabilities=frozenset({"extract"}),
        )
        extractor = RemoteBridge(config)
        with pytest.raises(BridgeUnavailableError):
            extractor.extract("two nodes")


def test_importing_cli_loads_no_http_client():
    # The bridge is off by default, so its HTTP transport is imported on first use;
    # and no module hashes anything, so OpenSSL stays unloaded.
    code = (
        "import sys, launchport.cli; print([m for m in "
        "('hashlib', '_hashlib', 'urllib.request', 'http.client') if m in sys.modules])"
    )
    src = str(Path(launchport.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.stdout.strip() == "[]"
