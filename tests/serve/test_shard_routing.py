"""Shard-aware serving: routed responses must match unsharded ones.

A server holding a *sharded* warm model (full probe) answers
``/localize_batch`` and coalesced ``/localize`` traffic with exactly
the bytes an unsharded server produces — coalescing and the index's
probing are performance moves, never value changes. Partial probing
changes values by design; those answers must still be self-consistent
with the model's own ``predict_batched``.
"""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest

from repro.index import IndexConfig
from repro.serve import BatchingDispatcher, LocalizationServer, ModelStore


def _request(port, method, path, payload=None):
    if payload is not None and "api_version" not in payload:
        payload = {"api_version": 1, **payload}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    body = json.dumps(payload) if payload is not None else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, json.loads(data)


@pytest.fixture(scope="module")
def sharded_store():
    return ModelStore()


def _serve(entry, store, window_ms=1.0):
    dispatcher = BatchingDispatcher(
        entry.localizer, batch_window_ms=window_ms, max_batch=256
    )
    server = LocalizationServer(entry, dispatcher, store=store, port=0)
    handle = server.start_background()
    return server, handle


class TestShardRoutedBatch:
    @pytest.fixture(scope="class")
    def servers(self, tiny_suite, sharded_store):
        """(unsharded, full-probe sharded, partial-probe sharded)."""
        plain = sharded_store.get_or_fit("KNN", tiny_suite, fast=True)
        full = sharded_store.get_or_fit(
            "KNN", tiny_suite, fast=True,
            index=IndexConfig(kind="region", n_shards=8, n_probe=8),
        )
        partial = sharded_store.get_or_fit(
            "KNN", tiny_suite, fast=True,
            index=IndexConfig(kind="kmeans", n_shards=8, n_probe=2),
        )
        running = [_serve(e, sharded_store) for e in (plain, full, partial)]
        yield [srv for srv, _ in running], (plain, full, partial)
        for _, handle in running:
            handle.shutdown()

    def test_full_probe_batch_matches_unsharded_response(
        self, servers, query_rows
    ):
        (plain_srv, full_srv, _), _ = servers
        payload = {"rssi": query_rows.tolist()}
        status_a, body_a = _request(
            plain_srv.port, "POST", "/localize_batch", payload
        )
        status_b, body_b = _request(
            full_srv.port, "POST", "/localize_batch", payload
        )
        assert status_a == status_b == 200
        assert body_a["locations"] == body_b["locations"]

    def test_partial_probe_batch_matches_its_own_model(
        self, servers, query_rows
    ):
        (_, _, partial_srv), (_, _, partial_entry) = servers
        status, body = _request(
            partial_srv.port, "POST", "/localize_batch",
            {"rssi": query_rows.tolist()},
        )
        assert status == 200
        expected = partial_entry.localizer.predict_batched(query_rows)
        np.testing.assert_array_equal(np.asarray(body["locations"]), expected)

    def test_models_endpoint_reports_shard_stats(self, servers):
        (_, full_srv, _), _ = servers
        status, body = _request(full_srv.port, "GET", "/models")
        assert status == 200
        kinds = {
            (m["index"] or {}).get("kind", "exhaustive")
            for m in body["models"]
        }
        assert "region" in kinds and "kmeans" in kinds
        sharded_infos = [
            m["index"] for m in body["models"] if m["index"] is not None
            and m["index"]["kind"] != "exhaustive"
        ]
        assert all("rows_per_shard" in info for info in sharded_infos)

    def test_coalesced_requests_group_by_shard_and_stay_identical(
        self, servers, query_rows
    ):
        # Fire concurrent single-scan requests at the partial-probe
        # server so the dispatcher coalesces them (the KNN head groups
        # each flush by probe set); every answer must equal the model's
        # own batched prediction.
        (_, _, partial_srv), (_, _, partial_entry) = servers
        rows = query_rows[:24]
        results: dict[int, np.ndarray] = {}

        def one(i):
            status, body = _request(
                partial_srv.port, "POST", "/localize",
                {"rssi": rows[i].tolist()},
            )
            assert status == 200
            results[i] = np.asarray(body["location"])

        threads = [threading.Thread(target=one, args=(i,)) for i in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = partial_entry.localizer.predict_batched(rows)
        got = np.vstack([results[i] for i in range(24)])
        np.testing.assert_array_equal(got, expected)
