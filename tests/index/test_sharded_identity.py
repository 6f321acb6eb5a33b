"""Bit-identity and accuracy properties of the sharded KNN path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import KNNLocalizer, LTKNNLocalizer
from repro.core.knn_head import KNNHead
from repro.index import IndexConfig


def _random_reference(rng, n_rows, n_dims):
    vectors = rng.uniform(-90.0, -30.0, size=(n_rows, n_dims))
    locations = rng.uniform(0.0, 50.0, size=(n_rows, 2))
    rp_indices = rng.integers(0, max(2, n_rows // 3), size=n_rows)
    return vectors, rp_indices, locations


class TestFullProbeBitIdentity:
    """n_probe >= n_shards must equal exhaustive search bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_rows=st.integers(min_value=5, max_value=120),
        n_dims=st.integers(min_value=2, max_value=24),
        k=st.integers(min_value=1, max_value=6),
        n_shards=st.integers(min_value=2, max_value=12),
        kind=st.sampled_from(["region", "kmeans"]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_property_full_probe_equals_exhaustive(
        self, n_rows, n_dims, k, n_shards, kind, seed
    ):
        rng = np.random.default_rng(seed)
        vectors, rp_indices, locations = _random_reference(rng, n_rows, n_dims)
        queries = rng.uniform(-95.0, -25.0, size=(17, n_dims))

        plain = KNNHead(k=k).fit(vectors, rp_indices, locations)
        sharded = KNNHead(
            k=k,
            index=IndexConfig(
                kind=kind, n_shards=n_shards, n_probe=n_shards, seed=seed
            ),
        ).fit(vectors, rp_indices, locations)

        dist_a, idx_a = plain.kneighbors(queries)
        dist_b, idx_b = sharded.kneighbors(queries)
        assert np.array_equal(idx_a, idx_b)
        assert np.array_equal(dist_a, dist_b)
        assert np.array_equal(
            plain.predict_location(queries), sharded.predict_location(queries)
        )
        assert np.array_equal(
            plain.predict_rp(queries), sharded.predict_rp(queries)
        )

    def test_partial_probe_never_returns_short_neighbour_lists(self):
        # Tiny shards + k larger than any single shard: the per-group
        # fallback must widen to the full reference set, not truncate.
        rng = np.random.default_rng(0)
        vectors, rp_indices, locations = _random_reference(rng, 30, 8)
        head = KNNHead(
            k=10, index=IndexConfig(kind="kmeans", n_shards=15, n_probe=1)
        ).fit(vectors, rp_indices, locations)
        dist, idx = head.kneighbors(vectors[:9])
        assert idx.shape == (9, 10)
        assert len(set(map(tuple, idx))) >= 1  # well-formed rows
        assert (dist >= 0).all()

    def test_partial_probe_is_deterministic(self):
        rng = np.random.default_rng(1)
        vectors, rp_indices, locations = _random_reference(rng, 90, 12)
        queries = rng.uniform(-95.0, -25.0, size=(40, 12))
        cfg = IndexConfig(kind="kmeans", n_shards=9, n_probe=2, seed=4)
        a = KNNHead(k=3, index=cfg).fit(vectors, rp_indices, locations)
        b = KNNHead(k=3, index=cfg).fit(vectors, rp_indices, locations)
        assert np.array_equal(
            a.predict_location(queries), b.predict_location(queries)
        )

    def test_chunked_sharded_search_matches_unchunked(self):
        # The in-group chunking is a memory bound, never a value change.
        rng = np.random.default_rng(2)
        vectors, rp_indices, locations = _random_reference(rng, 100, 10)
        queries = rng.uniform(-95.0, -25.0, size=(64, 10))
        cfg = IndexConfig(kind="region", n_shards=6, n_probe=2)
        whole = KNNHead(k=3, index=cfg).fit(vectors, rp_indices, locations)
        chunked = KNNHead(k=3, chunk_size=7, index=cfg).fit(
            vectors, rp_indices, locations
        )
        assert np.array_equal(
            whole.predict_location(queries), chunked.predict_location(queries)
        )


class TestLocalizerIntegration:
    @pytest.mark.parametrize("cls", [KNNLocalizer, LTKNNLocalizer])
    def test_full_probe_localizer_matches_unsharded(self, cls, tiny_suite):
        rng = np.random.default_rng(0)
        queries = np.vstack([ds.rssi for ds in tiny_suite.test_epochs])[:80]
        plain = cls().fit(tiny_suite.train, tiny_suite.floorplan, rng=rng)
        sharded = cls(
            index=IndexConfig(kind="region", n_shards=8, n_probe=8)
        ).fit(tiny_suite.train, tiny_suite.floorplan, rng=rng)
        assert np.array_equal(plain.predict(queries), sharded.predict(queries))

    def test_partial_probe_error_stays_close(self, tiny_suite):
        # Sharding trades a bounded amount of accuracy; on the tiny
        # suite the mean error shift must stay small (< 10 cm).
        from repro.eval import evaluate_localizer

        plain = evaluate_localizer(
            KNNLocalizer(), tiny_suite, rng=np.random.default_rng(0)
        )
        sharded = evaluate_localizer(
            KNNLocalizer(index=IndexConfig(kind="kmeans", n_shards=8, n_probe=2)),
            tiny_suite,
            rng=np.random.default_rng(0),
        )
        assert abs(sharded.overall_mean() - plain.overall_mean()) < 0.1

    def test_unsharded_localizer_routes_none(self, tiny_suite):
        loc = KNNLocalizer().fit(tiny_suite.train, tiny_suite.floorplan)
        assert loc.index_describe()["kind"] == "exhaustive"
