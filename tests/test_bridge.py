import json
import os
import subprocess
import sys
import threading
import urllib.error
from pathlib import Path
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import launchport
from launchport.bridge import BridgeConfig, BridgeExtractor, RemoteBridge, load_bridge_config
from launchport.errors import (
    BridgeDisabledError,
    BridgeProtocolError,
    BridgeUnavailableError,
)
from launchport.intent import RuleBasedExtractor
from launchport.repair import parse_proposals

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
            bridge.remote_extract("two nodes")

    def test_unknown_capability_rejected(self):
        with pytest.raises(BridgeProtocolError):
            BridgeConfig(endpoint="http://x", capabilities=frozenset({"telepathy"}))

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


class TestRemoteExtract:
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
        assert bridge.remote_extract(text) == expected

    def test_empty_body_is_protocol_error(self):
        bridge = RemoteBridge(_config(), transport=lambda *a: b"")
        with pytest.raises(BridgeProtocolError):
            bridge.remote_extract("two nodes")

    def test_non_json_is_protocol_error(self):
        bridge = RemoteBridge(_config(), transport=lambda *a: b"<html>oops</html>")
        with pytest.raises(BridgeProtocolError):
            bridge.remote_extract("two nodes")

    def test_remote_error_is_protocol_error(self):
        bridge = RemoteBridge(
            _config(), transport=lambda *a: json.dumps({"ok": False, "error": "overloaded"}).encode()
        )
        with pytest.raises(BridgeProtocolError) as exc:
            bridge.remote_extract("two nodes")
        assert "overloaded" in str(exc.value)

    def test_invalid_field_values_are_protocol_errors(self):
        bridge = RemoteBridge(_config(), transport=lambda *a: _ok({"nodes": -3}))
        with pytest.raises(BridgeProtocolError):
            bridge.remote_extract("minus three nodes")

    def test_endpoint_down_is_unavailable(self):
        def transport(*args):
            raise urllib.error.URLError("connection refused")

        bridge = RemoteBridge(_config(), transport=transport)
        with pytest.raises(BridgeUnavailableError):
            bridge.remote_extract("two nodes")

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
        assert bridge.remote_extract("two nodes").nodes == 2
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
        bridge.remote_extract("two nodes")
        assert seen["Authorization"] == "Bearer s3cret"


class TestRemoteEmbed:
    def test_vector_per_text(self):
        bridge = RemoteBridge(
            _config(), transport=lambda *a: _ok([[1.0, 0.0], [0.5, 0.5]])
        )
        assert bridge.remote_embed(["a", "b"]) == [[1.0, 0.0], [0.5, 0.5]]

    def test_wrong_count_is_protocol_error(self):
        bridge = RemoteBridge(_config(), transport=lambda *a: _ok([[1.0]]))
        with pytest.raises(BridgeProtocolError):
            bridge.remote_embed(["a", "b"])


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
            partial = bridge.remote_extract("two nodes, train.py")
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
        extractor = BridgeExtractor(RemoteBridge(config))
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
