"""FleetServer HTTP: routing fields, forced slots, /fleet, 429 overload."""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.fleet import FleetDispatcher, FleetServer

from .conftest import direct_slot_predictions


@pytest.fixture(scope="module")
def server(fleet_registry):
    dispatcher = FleetDispatcher(fleet_registry, batch_window_ms=1.0)
    srv = FleetServer(fleet_registry, dispatcher, port=0)
    handle = srv.start_background()
    yield srv
    handle.shutdown()


def _request(server, method, path, payload=None, raw_body=None):
    # Wire protocol v1 requires api_version in every body; these tests
    # exercise routing semantics, so declare it unless a case overrides.
    if payload is not None and "api_version" not in payload:
        payload = {"api_version": 1, **payload}
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    body = raw_body if raw_body is not None else (
        json.dumps(payload) if payload is not None else None
    )
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, json.loads(data)


class TestFleetEndpoint:
    def test_topology(self, server, fleet_registry):
        status, body = _request(server, "GET", "/fleet")
        assert status == 200
        assert body["n_buildings"] == 2
        assert body["n_slots"] == 4
        assert [b["building"] for b in body["buildings"]] == ["HQ", "LAB"]
        assert body["buildings"][0]["ap_range"][0] == 0
        assert body["dispatch"]["admission"]["max_pending_rows"] > 0

    def test_wrong_method(self, server):
        status, body = _request(server, "POST", "/fleet", payload={})
        assert status == 405


class TestHealthz:
    def test_fleet_mode_health(self, server):
        status, body = _request(server, "GET", "/healthz")
        assert status == 200
        assert body["mode"] == "fleet"
        assert body["n_slots"] == 4
        assert "admission" in body and "fleet" in body


class TestModels:
    def test_per_slot_shard_and_routing_stats(self, server, fleet_traffic):
        # Drive one routed batch first so the counters are non-trivial.
        scans = fleet_traffic[0]
        status, _ = _request(
            server, "POST", "/localize_batch",
            payload={"rssi": scans[:8].tolist()},
        )
        assert status == 200
        status, body = _request(server, "GET", "/models")
        assert status == 200
        assert len(body["models"]) == 4
        assert set(body["slots"]) == {"HQ/f0", "HQ/f1", "LAB/f0", "LAB/f1"}
        routed_rows = sum(
            s["routing"]["rows"] for s in body["slots"].values()
        )
        assert routed_rows >= 8
        # LAB slots serve a kmeans-sharded radio map; the shard stats
        # must surface through the store's model descriptions.
        lab = [m for m in body["models"] if "kmeans" in str(m.get("index"))]
        assert len(lab) == 2


class TestLocalize:
    def test_single_scan_routing_fields(self, server, fleet_traffic):
        scans, true_b, true_f, _ = fleet_traffic
        status, body = _request(
            server, "POST", "/localize", payload={"rssi": scans[0].tolist()}
        )
        assert status == 200
        assert body["routing"]["building"] in ("HQ", "LAB")
        assert isinstance(body["routing"]["floor"], int)
        assert body["routing"]["forced"] is False

    def test_forced_batch_bit_identical_to_direct(
        self, server, fleet_registry, fleet_traffic
    ):
        """The oracle-over-HTTP acceptance check, per slot."""
        scans, true_b, true_f, _ = fleet_traffic
        for j, deployment in enumerate(fleet_registry.buildings):
            for floor in deployment.floors:
                rows = np.flatnonzero((true_b == j) & (true_f == floor))[:6]
                status, body = _request(
                    server,
                    "POST",
                    "/localize_batch",
                    payload={
                        "rssi": scans[rows].tolist(),
                        "building": deployment.name,
                        "floor": int(floor),
                    },
                )
                assert status == 200
                assert all(
                    r == {"building": deployment.name, "floor": floor,
                          "forced": True}
                    for r in body["routing"]
                )
                direct = direct_slot_predictions(
                    fleet_registry, scans[rows], true_b[rows], true_f[rows]
                )
                np.testing.assert_array_equal(
                    np.asarray(body["locations"]), direct
                )

    def test_building_only_pin_classifies_floor(
        self, server, fleet_traffic
    ):
        scans, true_b, true_f, _ = fleet_traffic
        rows = np.flatnonzero(true_b == 1)[:4]
        status, body = _request(
            server,
            "POST",
            "/localize_batch",
            payload={"rssi": scans[rows].tolist(), "building": "LAB"},
        )
        assert status == 200
        assert all(r["building"] == "LAB" and r["forced"] for r in body["routing"])


class TestClientErrors:
    def test_unknown_building(self, server, fleet_traffic):
        status, body = _request(
            server, "POST", "/localize",
            payload={"rssi": fleet_traffic[0][0].tolist(), "building": "ANNEX"},
        )
        assert status == 400
        assert "unknown building" in body["error"]["message"]

    def test_unknown_floor(self, server, fleet_traffic):
        status, body = _request(
            server, "POST", "/localize",
            payload={
                "rssi": fleet_traffic[0][0].tolist(),
                "building": "HQ",
                "floor": 9,
            },
        )
        assert status == 400
        assert "no floor 9" in body["error"]["message"]

    def test_floor_without_building(self, server, fleet_traffic):
        status, body = _request(
            server, "POST", "/localize",
            payload={"rssi": fleet_traffic[0][0].tolist(), "floor": 0},
        )
        assert status == 400
        assert "requires" in body["error"]["message"]

    def test_wrong_scan_width(self, server):
        status, body = _request(
            server, "POST", "/localize", payload={"rssi": [-50.0, -60.0]}
        )
        assert status == 400


class TestBackpressureOverHTTP:
    def test_429_with_retry_hint(
        self, fleet_registry, fleet_traffic, monkeypatch
    ):
        import threading
        import time

        # Every slot model blocks on a gate, so the first request's rows
        # stay in flight until the 429 has been observed; the overload
        # is then deterministic for the second request. A batch window
        # cannot hold them: an idle slot dispatches at once. A declared
        # cost of None sends the gated predicts to the inference thread:
        # small enough to run inline, they would block the event loop.
        gate = threading.Event()
        for slot in fleet_registry.slots():
            localizer = slot.entry.localizer
            predict = localizer.predict_batched

            def gated(rows, *, _predict=predict, **kwargs):
                assert gate.wait(timeout=30), "gate never released"
                return _predict(rows, **kwargs)

            # setitem, not setattr: undo must delete the instance
            # attribute, not leave behind a bound method that refers to
            # the model itself (a cycle that outlives the model in any
            # worker that later unpickles it).
            monkeypatch.setitem(vars(localizer), "predict_batched", gated)
            monkeypatch.setattr(type(localizer), "macs_per_row", None)
        dispatcher = FleetDispatcher(fleet_registry, max_pending_rows=8)
        srv = FleetServer(fleet_registry, dispatcher, port=0)
        handle = srv.start_background()
        try:
            first: dict = {}

            def occupy():
                first["result"] = _request(
                    srv,
                    "POST",
                    "/localize_batch",
                    payload={"rssi": fleet_traffic[0][:8].tolist()},
                )

            thread = threading.Thread(target=occupy)
            thread.start()
            deadline = time.monotonic() + 5.0
            while dispatcher.pending_rows < 8:  # first request admitted
                assert time.monotonic() < deadline, "first request never queued"
                time.sleep(0.01)
            status, body = _request(
                srv,
                "POST",
                "/localize_batch",
                payload={"rssi": fleet_traffic[0][8:10].tolist()},
            )
            assert status == 429
            assert body["max_pending_rows"] == 8
            assert body["retry_after_ms"] > 0
            gate.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            # The occupying request completed untouched by the rejection.
            assert first["result"][0] == 200
            # The server keeps answering once the queue drains.
            status, body = _request(
                srv, "POST", "/localize",
                payload={"rssi": fleet_traffic[0][0].tolist()},
            )
            assert status == 200
        finally:
            gate.set()
            handle.shutdown()

    def test_unservable_batch_is_400(self, fleet_registry, fleet_traffic):
        dispatcher = FleetDispatcher(fleet_registry, max_pending_rows=2)
        srv = FleetServer(fleet_registry, dispatcher, port=0)
        handle = srv.start_background()
        try:
            status, body = _request(
                srv,
                "POST",
                "/localize_batch",
                payload={"rssi": fleet_traffic[0][:5].tolist()},
            )
            assert status == 400
            assert "never be admitted" in body["error"]["message"]
        finally:
            handle.shutdown()
