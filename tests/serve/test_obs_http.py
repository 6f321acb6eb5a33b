"""Observability over HTTP: /metrics, trace opt-in, structured logs."""

from __future__ import annotations

import http.client
import io
import json

import pytest

from repro import __version__
from repro.obs import parse_prometheus_text
from repro.serve import BatchingDispatcher, LocalizationServer


@pytest.fixture(scope="module")
def server(knn_entry, serve_store):
    dispatcher = BatchingDispatcher(
        knn_entry.localizer, batch_window_ms=1.0, max_batch=256
    )
    srv = LocalizationServer(
        knn_entry, dispatcher, store=serve_store, port=0,
        log_json=True, slow_ms=None,
    )
    # Capture the structured log deterministically (the background
    # server thread writes to the logger's stream at emit time).
    srv.log._stream = io.StringIO()
    handle = srv.start_background()
    yield srv
    handle.shutdown()


def _request(server, method, path, payload=None):
    if payload is not None and "api_version" not in payload:
        payload = {"api_version": 1, **payload}
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    conn.request(
        method, path, body=json.dumps(payload) if payload is not None else None
    )
    response = conn.getresponse()
    data = response.read()
    content_type = response.getheader("Content-Type")
    conn.close()
    return response.status, data, content_type


def _json(server, method, path, payload=None):
    status, data, _ = _request(server, method, path, payload)
    return status, json.loads(data)


def _log_records(server) -> list[dict]:
    return [
        json.loads(line)
        for line in server.log._stream.getvalue().splitlines()
    ]


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_text(self, server, query_rows):
        _json(server, "POST", "/localize", {"rssi": query_rows[0].tolist()})
        status, data, content_type = _request(server, "GET", "/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        families = parse_prometheus_text(data.decode())
        assert "repro_http_requests_total" in families
        assert "repro_http_request_seconds" in families
        assert "repro_batch_compute_seconds" in families

    def test_request_counters_advance_by_endpoint(self, server, query_rows):
        def count():
            _, data, _ = _request(server, "GET", "/metrics")
            samples = parse_prometheus_text(data.decode())[
                "repro_http_requests_total"
            ]["samples"]
            return sum(
                v
                for (name, labels), v in samples.items()
                if ("endpoint", "/localize") in labels
                and ("status", "200") in labels
            )

        before = count()
        _json(server, "POST", "/localize", {"rssi": query_rows[0].tolist()})
        assert count() == before + 1

    def test_unknown_paths_bounded_to_other_label(self, server):
        _json(server, "GET", "/no-such-endpoint-xyz")
        _, data, _ = _request(server, "GET", "/metrics")
        samples = parse_prometheus_text(data.decode())[
            "repro_http_requests_total"
        ]["samples"]
        endpoints = {
            dict(labels)["endpoint"] for (_, labels) in samples
        }
        assert "other" in endpoints
        assert "/no-such-endpoint-xyz" not in endpoints

    def test_post_metrics_is_405(self, server):
        status, body = _json(server, "POST", "/metrics", payload={})
        assert status == 405
        assert "error" in body


class TestTraceOptIn:
    def test_trace_spans_attached_when_requested(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize",
            {"rssi": query_rows[0].tolist(), "trace": True},
        )
        assert status == 200
        trace = body["trace"]
        stages = [span["stage"] for span in trace["spans"]]
        assert "queue" in stages and "compute" in stages
        assert trace["total_ms"] > 0
        assert trace["request_id"]

    def test_no_trace_by_default(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize", {"rssi": query_rows[0].tolist()}
        )
        assert status == 200
        assert "trace" not in body

    def test_non_boolean_trace_rejected(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize",
            {"rssi": query_rows[0].tolist(), "trace": "yes"},
        )
        assert status == 400
        assert "trace" in body["error"]["message"]

    def test_client_pinned_request_id_echoed(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize",
            {
                "rssi": query_rows[0].tolist(),
                "trace": True,
                "request_id": "pin-me-123",
            },
        )
        assert status == 200
        assert body["trace"]["request_id"] == "pin-me-123"

    def test_malformed_request_id_rejected(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize",
            {"rssi": query_rows[0].tolist(), "request_id": "has spaces!"},
        )
        assert status == 400
        assert "request_id" in body["error"]["message"]


class TestErrorEnvelope:
    def test_errors_carry_request_id(self, server):
        status, body = _json(server, "POST", "/localize", {"rssi": "nope"})
        assert status == 400
        assert isinstance(body["request_id"], str) and body["request_id"]

    def test_pinned_id_echoed_in_error(self, server):
        status, body = _json(
            server, "POST", "/localize",
            {"rssi": "nope", "request_id": "err-trace-1"},
        )
        assert status == 400
        assert body["request_id"] == "err-trace-1"


class TestStructuredLog:
    def test_request_line_links_to_trace(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize",
            {
                "rssi": query_rows[0].tolist(),
                "trace": True,
                "request_id": "log-link-42",
            },
        )
        assert status == 200
        records = [
            r for r in _log_records(server)
            if r.get("request_id") == "log-link-42"
        ]
        assert records, "request line missing from structured log"
        record = records[-1]
        assert record["component"] == "serve"
        assert record["event"] == "request"
        assert record["endpoint"] == "/localize"
        assert record["status"] == 200
        assert record["duration_ms"] > 0


class TestHealthz:
    def test_version_and_uptime(self, server):
        status, body = _json(server, "GET", "/healthz")
        assert status == 200
        assert body["version"] == __version__
        assert body["uptime_seconds"] >= 0


class TestStartupReport:
    """``run(startup)`` reports stage seconds once, just before the banner."""

    def _run(self, knn_entry, serve_store, capsys, *, log_json):
        import time

        srv = LocalizationServer(
            knn_entry,
            BatchingDispatcher(knn_entry.localizer),
            store=serve_store,
            port=0,
            log_json=log_json,
        )
        srv.log._stream = io.StringIO()

        async def bound_then_stop(stop=None, *, on_ready=None):
            on_ready()

        srv.serve = bound_then_stop
        since = time.perf_counter()
        assert srv.run({"generate_s": 0.5, "load_s": 0.25}, since=since) == 0
        srv._close_backend()
        return srv, capsys.readouterr().out.splitlines()

    def test_line_precedes_banner_and_parses(self, knn_entry, serve_store, capsys):
        import re

        _, lines = self._run(knn_entry, serve_store, capsys, log_json=False)
        assert lines[0].startswith("startup: ")
        assert "http://" in lines[1]
        stages = dict(kv.split("=") for kv in lines[0].split()[1:])
        assert list(stages) == ["generate_s", "load_s", "start_s"]
        assert float(stages["generate_s"]) == 0.5
        assert float(stages["load_s"]) == 0.25
        assert float(stages["start_s"]) >= 0.0
        # perfbench reads the port from the first line matching this.
        assert re.search(r"on http://[^:\s]+:(\d+)", lines[0]) is None

    def test_log_json_record_carries_the_same_stages(
        self, knn_entry, serve_store, capsys
    ):
        srv, lines = self._run(knn_entry, serve_store, capsys, log_json=True)
        records = [
            json.loads(line) for line in srv.log._stream.getvalue().splitlines()
        ]
        startup = [r for r in records if r["event"] == "startup"]
        assert len(startup) == 1
        printed = dict(kv.split("=") for kv in lines[0].split()[1:])
        for key, value in printed.items():
            assert startup[0][key] == pytest.approx(float(value), abs=1e-3)

    def test_no_stages_no_line(self, knn_entry, serve_store, capsys):
        srv = LocalizationServer(
            knn_entry, BatchingDispatcher(knn_entry.localizer), store=serve_store, port=0
        )

        async def bound_then_stop(stop=None, *, on_ready=None):
            on_ready()

        srv.serve = bound_then_stop
        srv.run()
        srv._close_backend()
        assert not any(
            line.startswith("startup:") for line in capsys.readouterr().out.splitlines()
        )
