"""Worker slot transport: a pickle-5 blob plus one shared segment.

``build_slot_payload`` pickles a fitted localizer with its contiguous
arrays out-of-band into one :class:`SharedArtifactRegion`;
``rehydrate_slot`` unpickles over read-only slices of that segment.
Pinned here for every registered framework (and every kernel backend /
candidate index it supports):

* the rehydrated copy answers bit-identically to the parent;
* object aliasing survives (an exact backend's ``_embeddings`` *is* its
  packed ``refs`` matrix);
* model arrays in the copy are read-only views of shared pages, not
  private copies;
* closing and unlinking leaves no ``/dev/shm`` entry behind;
* a worker forked while another thread talks to the resource tracker
  still attaches instead of inheriting a held lock.
"""

from __future__ import annotations

import glob
import multiprocessing
import threading
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.baselines.registry import (
    ALL_FRAMEWORKS,
    build_localizer,
    supports_candidate_index,
    supports_kernel_backend,
)
from repro.core.knn_head import KNNHead
from repro.datasets import generate_path_suite
from repro.fleet.worker import build_slot_payload, rehydrate_slot
from repro.index import IndexConfig
from repro.kernels import SharedArtifactRegion
from repro.nn.layers.dense import Dense

KMEANS = IndexConfig(kind="kmeans", n_shards=8, n_probe=2)


def _cases() -> list[tuple[str, str | None, IndexConfig | None]]:
    cases = []
    for name in ALL_FRAMEWORKS:
        cases.append((name, None, None))
        if supports_kernel_backend(name):
            cases += [(name, "blas", None), (name, "quantized", None)]
        if supports_candidate_index(name):
            cases.append((name, None, KMEANS))
    return cases


CASES = _cases()
CASE_IDS = [
    "-".join([name, backend or "reference"] + ([index.kind] if index else []))
    for name, backend, index in CASES
]
#: Cases whose KNN head runs an exact (float64, ``reference``) backend.
EXACT_HEAD_CASES = [
    case_id
    for (name, backend, _), case_id in zip(CASES, CASE_IDS)
    if name in ("STONE", "KNN", "LT-KNN", "SELE") and backend is None
]


@pytest.fixture(scope="module")
def suite():
    return generate_path_suite("office", 0)


@pytest.fixture(scope="module")
def test_rows(suite):
    rows = np.concatenate([ds.rssi for ds in suite.test_epochs])
    return rows[np.linspace(0, rows.shape[0] - 1, 300).astype(int)]


@pytest.fixture(scope="module")
def fitted(suite):
    cache: dict[str, object] = {}

    def fit(case_id: str):
        if case_id not in cache:
            name, backend, index = CASES[CASE_IDS.index(case_id)]
            localizer = build_localizer(
                name, suite_name="office", fast=True, index=index,
                backend=backend,
            )
            localizer.fit(
                suite.train, suite.floorplan, rng=np.random.default_rng(0)
            )
            cache[case_id] = localizer
        return cache[case_id]

    return fit


def _shm_entries() -> set[str]:
    return set(glob.glob("/dev/shm/repro-shm-*"))


def _knn_head(localizer) -> KNNHead:
    """The KNN head of a STONE / KNN / LT-KNN / SELE localizer."""
    inner = getattr(localizer, "_knn", None) or localizer
    head = getattr(inner, "_head", None) or getattr(inner, "knn", None)
    assert isinstance(head, KNNHead)
    return head


class TestRoundTrip:
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_answers_bit_identical(self, fitted, test_rows, case_id):
        localizer = fitted(case_id)
        payload, region = build_slot_payload(case_id, localizer)
        copy, attached = rehydrate_slot(payload)
        try:
            np.testing.assert_array_equal(
                copy.predict(test_rows), localizer.predict(test_rows)
            )
        finally:
            del copy
            attached.close()
            region.unlink()

    @pytest.mark.parametrize("case_id", EXACT_HEAD_CASES)
    def test_exact_head_keeps_embeddings_alias(self, fitted, case_id):
        head = _knn_head(fitted(case_id))
        assert head._embeddings is head._packed.arrays["refs"]
        payload, region = build_slot_payload(case_id, fitted(case_id))
        copy, attached = rehydrate_slot(payload)
        try:
            head = _knn_head(copy)
            assert head._embeddings is head._packed.arrays["refs"]
            assert not head._embeddings.flags.writeable
        finally:
            del copy, head
            attached.close()
            region.unlink()


class TestSharedNotPrivate:
    def test_knn_training_matrix_is_read_only_view(self, fitted):
        localizer = fitted("KNN-reference")
        assert localizer._train_rssi.flags.writeable
        payload, region = build_slot_payload("knn", localizer)
        copy, attached = rehydrate_slot(payload)
        try:
            assert not copy._train_rssi.flags.writeable
            np.testing.assert_array_equal(copy._train_rssi, localizer._train_rssi)
        finally:
            del copy
            attached.close()
            region.unlink()

    def test_stone_dense_weights_are_read_only_views(self, fitted):
        localizer = fitted("STONE-reference")
        payload, region = build_slot_payload("stone", localizer)
        copy, attached = rehydrate_slot(payload)
        try:
            writeable = [
                layer.params["W"].flags.writeable
                for layer in copy.encoder.layers
                if isinstance(layer, Dense)
            ]
            assert writeable and not any(writeable)
            # The in-band blob is the small remainder, not the weights.
            assert len(payload.blob) < region.nbytes
        finally:
            del copy
            attached.close()
            region.unlink()

    def test_no_segment_outlives_unlink(self, fitted, test_rows):
        before = _shm_entries()
        payload, region = build_slot_payload("knn", fitted("KNN-reference"))
        segment = "/dev/shm/" + payload.region.segment
        assert _shm_entries() - before == {segment}
        copy, attached = rehydrate_slot(payload)
        copy.predict(test_rows[:8])
        del copy
        attached.close()
        region.unlink()
        region.unlink()  # idempotent
        assert _shm_entries() - before == set()


def _attach_and_check(handle, expected: bytes) -> None:
    region = handle.attach()
    ok = bytes(region.buffers[0]) == expected
    region.close()
    raise SystemExit(0 if ok else 3)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable on this platform",
)
class TestForkSafety:
    def test_fork_waits_out_a_held_tracker_lock(self):
        """A fork racing another thread's resource-tracker call used to
        hand the child a held lock, so its attach hung forever."""
        data = np.arange(16.0)
        region = SharedArtifactRegion([data])
        held = threading.Event()

        def hold_tracker_lock() -> None:
            with resource_tracker._resource_tracker._lock:
                held.set()
                time.sleep(0.2)

        holder = threading.Thread(target=hold_tracker_lock)
        holder.start()
        held.wait()
        child = multiprocessing.get_context("fork").Process(
            target=_attach_and_check, args=(region.handle, data.tobytes())
        )
        try:
            child.start()
            child.join(timeout=30.0)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join()
        finally:
            holder.join()
            region.unlink()
        assert not hung
        assert child.exitcode == 0
