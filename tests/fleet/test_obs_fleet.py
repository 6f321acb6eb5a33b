"""Fleet observability: merged /metrics, trace spans, worker liveness.

The acceptance path for PR 9: a ``trace: true`` request through a
``workers=2`` fleet returns per-stage spans whose ``request_id`` shows
up in the structured log, while the /metrics scrape merges the worker
processes' own counters into one exposition.
"""

from __future__ import annotations

import http.client
import io
import json

import pytest

from repro import __version__
from repro.fleet import FleetDispatcher, FleetServer
from repro.obs import parse_prometheus_text


def _request(port, method, path, payload=None):
    if payload is not None and "api_version" not in payload:
        payload = {"api_version": 1, **payload}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request(
        method, path, body=json.dumps(payload) if payload is not None else None
    )
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, data


def _json(port, method, path, payload=None):
    status, data = _request(port, method, path, payload)
    return status, json.loads(data)


class TestInProcessFleetObservability:
    @pytest.fixture(scope="class")
    def server(self, fleet_registry):
        dispatcher = FleetDispatcher(fleet_registry, batch_window_ms=1.0)
        srv = FleetServer(fleet_registry, dispatcher, port=0, log_json=True)
        srv.log._stream = io.StringIO()
        handle = srv.start_background()
        yield srv
        handle.shutdown()

    def test_trace_spans_cover_every_stage(self, server, fleet_traffic):
        scans = fleet_traffic[0]
        status, body = _json(
            server.port, "POST", "/localize",
            {"rssi": scans[0].tolist(), "trace": True},
        )
        assert status == 200
        stages = [span["stage"] for span in body["trace"]["spans"]]
        for stage in ("admission", "routing", "queue", "compute", "scatter"):
            assert stage in stages, f"missing {stage} in {stages}"
        # Per-slot spans name their slot, so a multi-slot request's
        # critical slot can be found from the trace alone.
        slot_spans = [
            s for s in body["trace"]["spans"] if s["stage"] in ("queue", "compute")
        ]
        assert slot_spans and all("slot" in span for span in slot_spans)

    def test_metrics_scrape_has_fleet_families(self, server, fleet_traffic):
        scans = fleet_traffic[0]
        _json(server.port, "POST", "/localize", {"rssi": scans[0].tolist()})
        status, data = _request(server.port, "GET", "/metrics")
        assert status == 200
        families = parse_prometheus_text(data.decode())
        assert "repro_fleet_requests_total" in families
        assert "repro_routing_seconds" in families
        assert "repro_fleet_pending_rows" in families
        assert "repro_batch_compute_seconds" in families

    def test_healthz_reports_in_process_mode(self, server):
        status, body = _json(server.port, "GET", "/healthz")
        assert status == 200
        assert body["version"] == __version__
        assert body["workers"] == {"mode": "in-process"}


class TestWorkerFleetObservability:
    """The PR acceptance criterion, end to end with worker processes."""

    @pytest.fixture(scope="class")
    def server(self, fleet_registry):
        dispatcher = FleetDispatcher(
            fleet_registry, batch_window_ms=1.0, workers=2
        )
        srv = FleetServer(fleet_registry, dispatcher, port=0, log_json=True)
        srv.log._stream = io.StringIO()
        handle = srv.start_background()
        yield srv
        handle.shutdown()

    def test_traced_request_spans_log_and_metrics(self, server, fleet_traffic):
        scans = fleet_traffic[0]
        status, body = _json(
            server.port, "POST", "/localize_batch",
            {
                "rssi": scans[:4].tolist(),
                "trace": True,
                "request_id": "fleet-accept-1",
            },
        )
        assert status == 200
        trace = body["trace"]
        assert trace["request_id"] == "fleet-accept-1"
        stages = [span["stage"] for span in trace["spans"]]
        for stage in ("admission", "routing", "queue", "compute", "scatter"):
            assert stage in stages, f"missing {stage} in {stages}"
        compute = [s for s in trace["spans"] if s["stage"] == "compute"]
        assert all("slot" in span for span in compute)

        # The same request_id appears in the structured JSON log.
        records = [
            json.loads(line)
            for line in server.log._stream.getvalue().splitlines()
        ]
        matched = [
            r for r in records if r.get("request_id") == "fleet-accept-1"
        ]
        assert matched and matched[-1]["status"] == 200
        assert matched[-1]["component"] == "fleet"

        # And the scrape shows worker-side counters merged in.
        status, data = _request(server.port, "GET", "/metrics")
        assert status == 200
        families = parse_prometheus_text(data.decode())
        rows = families["repro_worker_rows_total"]["samples"]
        assert sum(rows.values()) >= 4
        workers = {dict(labels)["worker"] for (_, labels) in rows}
        assert workers  # at least one worker recorded rows
        alive = families["repro_fleet_workers_alive"]["samples"]
        assert list(alive.values()) == [2.0]

    def test_healthz_worker_liveness_summary(self, server):
        status, body = _json(server.port, "GET", "/healthz")
        assert status == 200
        summary = body["workers"]
        assert summary["mode"] == "multi-process"
        assert summary["workers"] == 2
        assert summary["alive"] == 2
        assert summary["restarts"] == 0
