"""Wire protocol v1: version negotiation + the closed legacy window.

Two contracts are pinned here:

* **v1 clients** (requests declaring ``api_version``) get versioned
  responses and the structured error object — the only shapes the
  servers emit.
* **version-less requests** (the pre-v1 legacy contract) are rejected
  with ``unsupported_api_version`` and a migration hint. Their
  one-release deprecation window (PR 5) is closed; the string-shaped
  ``{"error": "<msg>"}`` / ``error_detail`` bodies are gone with it.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.serve import API_VERSION, BatchingDispatcher, LocalizationServer
from repro.serve.protocol import (
    RequestError,
    default_error_code,
    error_payload,
    parse_api_version,
    versioned_payload,
)


@pytest.fixture(scope="module")
def server(knn_entry, serve_store):
    dispatcher = BatchingDispatcher(
        knn_entry.localizer, batch_window_ms=1.0, max_batch=256
    )
    srv = LocalizationServer(knn_entry, dispatcher, store=serve_store, port=0)
    handle = srv.start_background()
    yield srv
    handle.shutdown()


def _request(server, method, path, payload=None, raw_body=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    body = raw_body if raw_body is not None else (
        json.dumps(payload) if payload is not None else None
    )
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, json.loads(data)


class TestUnitHelpers:
    def test_parse_api_version_current(self):
        assert parse_api_version({"api_version": API_VERSION}) == API_VERSION

    def test_parse_api_version_absent_is_rejected(self):
        # The version-less legacy contract is retired: omitting the
        # field is the same negotiation failure as declaring a version
        # the server does not speak, plus a migration hint.
        with pytest.raises(RequestError) as excinfo:
            parse_api_version({"rssi": []})
        assert excinfo.value.code == "unsupported_api_version"
        assert "api_version" in excinfo.value.message
        assert "legacy" in excinfo.value.message

    @pytest.mark.parametrize("bad", [0, API_VERSION + 1, "1", 1.5, True, -3])
    def test_parse_api_version_rejects_unsupported(self, bad):
        with pytest.raises(RequestError) as excinfo:
            parse_api_version({"api_version": bad})
        assert excinfo.value.code == "unsupported_api_version"

    def test_error_payload_v1_shape(self):
        body = error_payload("nope", status=404)
        assert body == {
            "api_version": API_VERSION,
            "error": {"code": "not_found", "message": "nope",
                      "retryable": False},
        }

    def test_error_payload_has_no_legacy_fields(self):
        body = error_payload("busy", status=429, retryable=True)
        assert set(body) == {"api_version", "error"}
        assert isinstance(body["error"], dict)  # never the legacy string

    def test_default_codes(self):
        assert default_error_code(400) == "bad_request"
        assert default_error_code(405) == "method_not_allowed"
        assert default_error_code(413) == "payload_too_large"
        assert default_error_code(500) == "internal"
        assert default_error_code(503) == "unavailable"
        assert default_error_code(418) == "error"

    def test_versioned_payload_stamps_only_versioned(self):
        payload = {"location": [1.0, 2.0]}
        # Bodyless GETs never negotiate: payload passes through.
        assert versioned_payload(payload, versioned=False) is payload
        stamped = versioned_payload(payload, versioned=True)
        assert stamped["api_version"] == API_VERSION
        assert stamped["location"] == [1.0, 2.0]


class TestLegacyWindowClosed:
    """Version-less requests are rejected with a migration hint."""

    def test_versionless_localize_is_rejected(self, server, query_rows):
        status, body = _request(
            server, "POST", "/localize",
            payload={"rssi": query_rows[0].tolist()},
        )
        assert status == 400
        assert body["error"]["code"] == "unsupported_api_version"
        assert "legacy" in body["error"]["message"]

    def test_versionless_batch_is_rejected(self, server, query_rows):
        status, body = _request(
            server, "POST", "/localize_batch",
            payload={"rssi": query_rows[:4].tolist()},
        )
        assert status == 400
        assert body["error"]["code"] == "unsupported_api_version"

    def test_rejection_is_the_structured_envelope(self, server):
        status, body = _request(
            server, "POST", "/localize", payload={"scan": [1.0]}
        )
        assert status == 400
        assert body["api_version"] == API_VERSION
        assert isinstance(body["error"], dict)
        assert "error_detail" not in body  # the legacy sidecar is gone


class TestV1Requests:
    def test_success_carries_api_version(self, server, query_rows):
        status, body = _request(
            server, "POST", "/localize",
            payload={"api_version": 1, "rssi": query_rows[0].tolist()},
        )
        assert status == 200
        assert body["api_version"] == API_VERSION
        assert len(body["location"]) == 2

    def test_error_is_structured_object(self, server):
        status, body = _request(
            server, "POST", "/localize",
            payload={"api_version": 1, "rssi": "not-a-list"},
        )
        assert status == 400
        assert body["api_version"] == API_VERSION
        assert body["error"]["code"] == "bad_request"
        assert isinstance(body["error"]["message"], str)
        assert "error_detail" not in body

    def test_unsupported_version_rejected(self, server):
        status, body = _request(
            server, "POST", "/localize",
            payload={"api_version": 99, "rssi": [-50.0]},
        )
        assert status == 400
        assert body["error"]["code"] == "unsupported_api_version"

    def test_healthz_reports_api_version(self, server):
        status, body = _request(server, "GET", "/healthz")
        assert status == 200
        assert body["api_version"] == API_VERSION

    def test_unknown_endpoint_is_structured(self, server):
        status, body = _request(server, "GET", "/teleport")
        assert status == 404
        assert body["error"]["code"] == "not_found"


class TestFleetV1:
    @pytest.fixture(scope="class")
    def fleet_server(self):
        from repro.api import FleetSpec

        spec = FleetSpec.from_string(
            "HQ:2", fast=True, months=2, aps_per_floor=8, port=0
        )
        server = spec.build_server()
        handle = server.start_background()
        yield server
        handle.shutdown()

    def test_healthz_reports_api_version(self, fleet_server):
        status, body = _request(fleet_server, "GET", "/healthz")
        assert status == 200
        assert body["api_version"] == API_VERSION
        assert body["mode"] == "fleet"

    def test_v1_routing_response(self, fleet_server):
        n_aps = fleet_server.registry.n_aps
        status, body = _request(
            fleet_server, "POST", "/localize",
            payload={"api_version": 1, "rssi": [-60.0] * n_aps},
        )
        assert status == 200
        assert body["api_version"] == API_VERSION
        assert "routing" in body

    def test_v1_unknown_pin_is_structured(self, fleet_server):
        n_aps = fleet_server.registry.n_aps
        status, body = _request(
            fleet_server, "POST", "/localize",
            payload={"api_version": 1, "rssi": [-60.0] * n_aps,
                     "building": "NOWHERE"},
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "NOWHERE" in body["error"]["message"]

    def test_versionless_fleet_request_is_rejected(self, fleet_server):
        n_aps = fleet_server.registry.n_aps
        status, body = _request(
            fleet_server, "POST", "/localize",
            payload={"rssi": [-60.0] * n_aps, "building": "NOWHERE"},
        )
        assert status == 400
        assert body["error"]["code"] == "unsupported_api_version"

    def test_v1_429_overload_body(self, fleet_server):
        """The 429 body keeps its retry hints, structured-only."""
        from repro.api import ReproClient, ReproOverloadError
        from repro.fleet.frontend import FleetOverloadError

        dispatcher = fleet_server.dispatcher

        async def rejecting_localize(scans, **kwargs):
            raise FleetOverloadError(10, 10, scans.shape[0])

        original = dispatcher.localize
        dispatcher.localize = rejecting_localize
        try:
            n_aps = fleet_server.registry.n_aps
            status, body = _request(
                fleet_server, "POST", "/localize",
                payload={"api_version": 1, "rssi": [-60.0] * n_aps},
            )
            assert status == 429
            assert body["error"]["code"] == "overloaded"
            assert body["error"]["retryable"] is True
            assert body["retry_after_ms"] > 0
            assert body["max_pending_rows"] == 10

            # And the typed client surfaces it after its retries.
            client = ReproClient(port=fleet_server.port, max_retries=1)
            with pytest.raises(ReproOverloadError):
                client.localize([-60.0] * n_aps)
            client.close()
        finally:
            dispatcher.localize = original
