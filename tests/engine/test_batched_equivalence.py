"""Batched-vs-sequential equivalence for every registered localizer.

The :class:`~repro.baselines.base.BatchedLocalizer` contract: a batched
``predict`` call equals the per-row predictions stacked. These tests pin
that property for every framework in the registry (GIFT is asserted to
*opt out* — its walk decoding is sequential by design), plus the KNN
tie-break and empty/single-query edge cases the vectorized vote must
preserve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import BatchedLocalizer
from repro.baselines.registry import (
    ALL_FRAMEWORKS,
    build_localizer,
    framework_capabilities,
    supports_batched_inference,
)
from repro.core import KNNHead
from repro.geometry import build_grid_floorplan

from ..conftest import make_synthetic_dataset

#: Frameworks whose predict is row-independent (everything but GIFT).
BATCHED = tuple(n for n in ALL_FRAMEWORKS if n != "GIFT")


@pytest.fixture(scope="module")
def fitted_localizers():
    """Every batch-safe framework, fitted once on a tiny dataset."""
    train = make_synthetic_dataset(n_rps=6, fpr=3, n_aps=12, seed=3)
    floorplan = build_grid_floorplan("tiny", width=12.0, height=10.0, rp_spacing=2.0)
    fitted = {}
    for name in BATCHED:
        localizer = build_localizer(name, suite_name="office", fast=True)
        localizer.fit(train, floorplan, rng=np.random.default_rng(11))
        fitted[name] = localizer
    return train, fitted


class TestRegistryCapabilities:
    def test_all_but_gift_are_batched(self):
        for name in BATCHED:
            assert supports_batched_inference(name), name
        assert not supports_batched_inference("GIFT")

    def test_capabilities_resolve_aliases(self):
        caps = framework_capabilities("ltknn")
        assert caps.name == "LT-KNN"
        assert caps.batched_inference
        assert caps.requires_retraining

    def test_unknown_framework_rejected(self):
        with pytest.raises(KeyError):
            framework_capabilities("teleport")


class TestBatchedEquivalence:
    def _queries(self, train, n, seed=0):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, train.n_samples, size=n)
        jitter = rng.normal(0.0, 0.5, size=(n, train.n_aps))
        return np.clip(train.rssi[rows] + jitter, -100.0, 0.0)

    @pytest.mark.parametrize("name", BATCHED)
    def test_batch_matches_per_row(self, fitted_localizers, name):
        train, fitted = fitted_localizers
        localizer = fitted[name]
        queries = self._queries(train, 40, seed=1)
        batched = localizer.predict(queries)
        rows = np.vstack([localizer.predict(q[None, :]) for q in queries])
        np.testing.assert_allclose(batched, rows, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("name", BATCHED)
    def test_chunked_matches_unchunked(self, fitted_localizers, name):
        train, fitted = fitted_localizers
        localizer = fitted[name]
        queries = self._queries(train, 23, seed=2)
        full = localizer.predict_batched(queries)
        chunked = localizer.predict_batched(queries, chunk_size=7)
        np.testing.assert_allclose(chunked, full, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("name", BATCHED)
    def test_empty_batch(self, fitted_localizers, name):
        train, fitted = fitted_localizers
        out = fitted[name].predict_batched(np.empty((0, train.n_aps)))
        assert out.shape == (0, 2)

    @pytest.mark.parametrize("name", BATCHED)
    def test_single_query(self, fitted_localizers, name):
        train, fitted = fitted_localizers
        localizer = fitted[name]
        out = localizer.predict(train.rssi[:1])
        assert out.shape == (1, 2)
        assert np.isfinite(out).all()

    def test_gift_is_sequence_stateful(self):
        # GIFT's predictions depend on scan order: the contract test is
        # that it declares itself non-batched, not that rows match.
        localizer = build_localizer("GIFT")
        assert not localizer.batched_inference
        assert not isinstance(localizer, BatchedLocalizer)


class TestKNNHeadVectorizedVote:
    def _loop_predict_rp(self, head, queries):
        """The seed's per-row reference implementation of predict_rp."""
        dist, idx = head.kneighbors(queries)
        labels = head._rp_indices[idx]
        out = np.empty(labels.shape[0], dtype=np.int64)
        for i in range(labels.shape[0]):
            values, counts = np.unique(labels[i], return_counts=True)
            winners = values[counts == counts.max()]
            if winners.size == 1:
                out[i] = winners[0]
            else:
                for j in range(labels.shape[1]):
                    if labels[i, j] in winners:
                        out[i] = labels[i, j]
                        break
        return out

    def _random_head(self, seed, k=3):
        rng = np.random.default_rng(seed)
        n_rps, per_rp, dim = 5, 3, 4
        emb = rng.normal(size=(n_rps * per_rp, dim))
        labels = rng.permutation(np.repeat(np.arange(10, 10 + n_rps), per_rp))
        locs = rng.normal(size=(n_rps * per_rp, 2))
        return KNNHead(k=k).fit(emb, labels, locs), rng

    @pytest.mark.parametrize("seed", range(10))
    def test_vote_matches_loop_reference(self, seed):
        head, rng = self._random_head(seed)
        queries = rng.normal(size=(30, 4))
        np.testing.assert_array_equal(
            head.predict_rp(queries), self._loop_predict_rp(head, queries)
        )

    def test_tie_break_prefers_nearest_winner(self):
        # k=2 with one reference each of two RPs: always a 1-1 tie; the
        # nearest neighbour's RP must win.
        emb = np.array([[0.0, 0.0], [4.0, 0.0]])
        head = KNNHead(k=2).fit(
            emb, np.array([5, 9]), np.array([[0.0, 0.0], [4.0, 0.0]])
        )
        assert head.predict_rp(np.array([[1.0, 0.0]]))[0] == 5
        assert head.predict_rp(np.array([[3.0, 0.0]]))[0] == 9

    def test_tie_break_exact_integer_distances(self):
        # Three RPs, k=3, all counts equal: winner = nearest's label even
        # when it is not the smallest label value.
        emb = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 0.0]])
        head = KNNHead(k=3).fit(
            emb,
            np.array([7, 3, 1]),
            np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 0.0]]),
        )
        assert head.predict_rp(np.array([[1.9, 0.0]]))[0] == 3

    def test_classify_coords_use_first_reference_row(self):
        # Two references of the same RP at different coordinates: the
        # mapping must pick the first row (seed behaviour).
        emb = np.array([[0.0, 0.0], [0.1, 0.0]])
        locs = np.array([[1.0, 2.0], [9.0, 9.0]])
        head = KNNHead(k=1).fit(emb, np.array([4, 4]), locs)
        np.testing.assert_array_equal(
            head.predict_location(np.array([[0.0, 0.0]])), [[1.0, 2.0]]
        )

    def test_chunked_distance_blocks_match(self):
        head, rng = self._random_head(123)
        queries = rng.normal(size=(50, 4))
        expected_rp = head.predict_rp(queries)
        expected_loc = head.predict_location(queries)
        _, expected_dist = head.per_rp_distances(queries)
        head.chunk_size = 7
        np.testing.assert_array_equal(head.predict_rp(queries), expected_rp)
        np.testing.assert_array_equal(
            head.predict_location(queries), expected_loc
        )
        # Raw distances may differ by 1 ulp: BLAS blocks a (7, d) @ (d, n)
        # product differently from a (50, d) one. Discrete outputs above
        # are asserted exact; the distance surface gets a tight allclose.
        _, chunked_dist = head.per_rp_distances(queries)
        np.testing.assert_allclose(chunked_dist, expected_dist, rtol=1e-12, atol=1e-12)

    def test_empty_queries(self):
        head, _ = self._random_head(0)
        assert head.predict_rp(np.empty((0, 4))).shape == (0,)
        assert head.predict_location(np.empty((0, 4))).shape == (0, 2)
        labels, dist = head.per_rp_distances(np.empty((0, 4)))
        assert dist.shape == (0, labels.shape[0])
