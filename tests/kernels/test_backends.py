"""Contract tests for the kernel-backend seam (``repro.kernels``).

Three tiers, mirroring the seam's documented contract:

* **Registry** — names, aliases, the ``$REPRO_KERNEL_BACKEND``
  resolution order, and the ``changes_results`` flags the fingerprint
  rule is built on.
* **Bit-identity** — ``blas64`` must reproduce ``reference``
  byte-for-byte on every distance surface (``sq_distances``, subset
  ``take``, ``kneighbors``, the sharded-index path and
  ``per_rp_distances``), hypothesis-pinned over random radio maps.
* **Bounded error** — ``blas`` (float32) and ``quantized`` (int8) stay
  inside their error envelopes and agree with reference on neighbour
  *structure* for well-separated data.

The negative-clamp boundary (squared distances must never go below
zero before the downstream ``sqrt``) gets its own class with a
deterministic input whose raw matmul decomposition IS negative.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knn_head import KNNHead
from repro.index import IndexConfig
from repro.kernels import (
    BACKEND_ENV_VAR,
    KernelBackend,
    available_backends,
    backend_changes_results,
    canonical_backend_name,
    get_backend,
    resolve_backend,
    resolve_backend_name,
)
from repro.kernels.reference import squared_distances

#: Same envelopes as ``benchmarks/bench_kernels.py`` — relative to the
#: mean reference neighbour distance.
BLAS_REL_ERROR_BOUND = 1e-3
QUANTIZED_REL_ERROR_BOUND = 0.15

ALL_BACKENDS = ("reference", "blas64", "blas", "quantized")
EXACT_BACKENDS = ("reference", "blas64")
BOUNDED_BACKENDS = ("blas", "quantized")


def _radio_map(rng, n_rows, n_dims):
    """RSSI-like float64 rows, the distance kernels' native domain."""
    return rng.uniform(-90.0, -30.0, size=(n_rows, n_dims))


def _fitted_heads(rng, n_rows=60, n_dims=12, k=3, index=None):
    refs = _radio_map(rng, n_rows, n_dims)
    rp = rng.integers(0, max(2, n_rows // 4), size=n_rows)
    locs = rng.uniform(0.0, 40.0, size=(n_rows, 2))
    return {
        name: KNNHead(k=k, index=index, backend=name).fit(refs, rp, locs)
        for name in ALL_BACKENDS
    }


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(ALL_BACKENDS) <= set(available_backends())

    @pytest.mark.parametrize(
        ("alias", "canonical"),
        [
            ("blas-f64", "blas64"),
            ("blas-float64", "blas64"),
            ("blas32", "blas"),
            ("blas-f32", "blas"),
            ("blas-float32", "blas"),
            ("int8", "quantized"),
            ("quantized-int8", "quantized"),
            ("REFERENCE", "reference"),
            ("  Blas64 ", "blas64"),
        ],
    )
    def test_aliases_and_case(self, alias, canonical):
        assert canonical_backend_name(alias) == canonical

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown kernel backend"):
            canonical_backend_name("cuda")

    def test_changes_results_flags(self):
        # THE fingerprint-participation rule: exact backends share the
        # legacy cache keys, bounded-error backends never may.
        for name in EXACT_BACKENDS:
            assert not backend_changes_results(name)
        for name in BOUNDED_BACKENDS:
            assert backend_changes_results(name)

    def test_env_override_fills_unset(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "int8")
        assert resolve_backend_name(None) == "quantized"
        assert resolve_backend(None).name == "quantized"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "quantized")
        assert resolve_backend_name("blas64") == "blas64"

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend_name(None) == "reference"

    def test_resolve_accepts_instance(self):
        backend = get_backend("blas")
        assert resolve_backend(backend) is backend

    def test_head_resolves_through_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blas-f32")
        assert KNNHead(k=1).backend_name == "blas"


class TestNegativeClamp:
    """Squared distances are clamped at zero before any sqrt.

    ``default_rng(0)`` radio-map rows compared against *themselves*
    make the raw decomposition ``|q|^2 + |r|^2 - 2 q.r`` go slightly
    negative (about ``-3e-11``) on the diagonal — exactly the rounding
    noise the clamp exists for.
    """

    def _identical_rows(self):
        rng = np.random.default_rng(0)
        refs = _radio_map(rng, 40, 16)
        return refs, refs.copy()

    def test_raw_decomposition_is_negative(self):
        # The precondition: without a clamp this input WOULD produce a
        # negative squared distance (and a NaN after sqrt).
        queries, refs = self._identical_rows()
        refs_sq = (refs * refs).sum(axis=1)
        raw = (
            (queries * queries).sum(axis=1)[:, None]
            + refs_sq[None, :]
            - 2.0 * (queries @ refs.T)
        )
        assert raw.min() < 0.0

    def test_shared_kernel_clamps_at_zero(self):
        queries, refs = self._identical_rows()
        d2 = squared_distances(queries, refs)
        # Raw-negative entries land on exactly 0.0; entries that round
        # slightly positive stay (the clamp bounds, it doesn't snap).
        assert d2.min() == 0.0
        assert np.diagonal(d2).max() <= 1e-9
        assert not np.isnan(np.sqrt(d2)).any()

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_every_backend_is_nonnegative(self, name):
        queries, refs = self._identical_rows()
        backend = get_backend(name)
        d2 = backend.sq_distances(queries, backend.pack(refs))
        assert d2.min() >= 0.0
        assert not np.isnan(np.sqrt(d2)).any()

    @pytest.mark.parametrize("name", EXACT_BACKENDS)
    def test_exact_backends_identical_rows_near_zero(self, name):
        queries, refs = self._identical_rows()
        backend = get_backend(name)
        d2 = backend.sq_distances(queries, backend.pack(refs))
        assert d2.min() >= 0.0
        assert np.diagonal(d2).max() <= 1e-9

    def test_scalar_boundary_pair(self):
        # A near-identical pair whose decomposition is ~-1.4e-14 raw.
        rng = np.random.default_rng(0)
        a = rng.uniform(1.0, 2.0, size=(1, 16))
        b = a + rng.normal(0.0, 1e-9, size=(1, 16))
        raw = (a * a).sum() + (b * b).sum() - 2.0 * (a @ b.T).item()
        assert raw < 0.0
        assert squared_distances(a, b)[0, 0] == 0.0


class TestBlas64BitIdentity:
    """``blas64`` == ``reference``, byte for byte, on every surface."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_rows=st.integers(min_value=3, max_value=100),
        n_dims=st.integers(min_value=1, max_value=24),
        n_queries=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_property_sq_distances(self, n_rows, n_dims, n_queries, seed):
        rng = np.random.default_rng(seed)
        refs = _radio_map(rng, n_rows, n_dims)
        queries = rng.uniform(-95.0, -25.0, size=(n_queries, n_dims))
        ref, b64 = get_backend("reference"), get_backend("blas64")
        d_ref = ref.sq_distances(queries, ref.pack(refs))
        d_b64 = b64.sq_distances(queries, b64.pack(refs))
        assert np.array_equal(d_ref, d_b64)

    @settings(max_examples=20, deadline=None)
    @given(
        n_rows=st.integers(min_value=6, max_value=80),
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_property_kneighbors_and_per_rp(self, n_rows, k, seed):
        rng = np.random.default_rng(seed)
        heads = _fitted_heads(rng, n_rows=n_rows, k=min(k, n_rows))
        queries = rng.uniform(-95.0, -25.0, size=(11, 12))
        d_ref, i_ref = heads["reference"].kneighbors(queries)
        d_b64, i_b64 = heads["blas64"].kneighbors(queries)
        assert np.array_equal(d_ref, d_b64)
        assert np.array_equal(i_ref, i_b64)
        l_ref, p_ref = heads["reference"].per_rp_distances(queries)
        l_b64, p_b64 = heads["blas64"].per_rp_distances(queries)
        assert np.array_equal(l_ref, l_b64)
        assert np.array_equal(p_ref, p_b64)

    @settings(max_examples=15, deadline=None)
    @given(
        n_rows=st.integers(min_value=12, max_value=90),
        n_shards=st.integers(min_value=2, max_value=8),
        n_probe=st.integers(min_value=1, max_value=8),
        kind=st.sampled_from(["region", "kmeans"]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_property_sharded_index_path(
        self, n_rows, n_shards, n_probe, kind, seed
    ):
        # The partial-probe path runs backend.take() on shard row
        # subsets — the gather must preserve bit-identity too.
        rng = np.random.default_rng(seed)
        index = IndexConfig(
            kind=kind, n_shards=n_shards, n_probe=n_probe, seed=seed
        )
        heads = _fitted_heads(rng, n_rows=n_rows, k=3, index=index)
        queries = rng.uniform(-95.0, -25.0, size=(9, 12))
        d_ref, i_ref = heads["reference"].kneighbors(queries)
        d_b64, i_b64 = heads["blas64"].kneighbors(queries)
        assert np.array_equal(d_ref, d_b64)
        assert np.array_equal(i_ref, i_b64)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_take_equals_column_subset(self, name):
        # take(rows) then distances == distances on the packed subset
        # built from scratch — the sharded path's correctness anchor.
        rng = np.random.default_rng(3)
        refs = _radio_map(rng, 50, 10)
        queries = _radio_map(rng, 7, 10)
        rows = np.sort(rng.choice(50, size=18, replace=False))
        backend = get_backend(name)
        packed = backend.pack(refs)
        d_taken = backend.sq_distances(queries, backend.take(packed, rows))
        d_fresh = backend.sq_distances(queries, backend.pack(refs[rows]))
        if name == "quantized":
            # Per-tensor scale is computed from the packed matrix, so a
            # subset re-pack may choose a different scale; the gather
            # itself must stay within quantization error.
            assert np.allclose(d_taken, d_fresh, rtol=0.05, atol=1.0)
        else:
            assert np.array_equal(d_taken, d_fresh)


class TestBoundedError:
    def _reference_distances(self, heads, queries):
        d_ref, _ = heads["reference"].kneighbors(queries)
        return d_ref

    @pytest.mark.parametrize(
        ("name", "bound"),
        [
            ("blas", BLAS_REL_ERROR_BOUND),
            ("quantized", QUANTIZED_REL_ERROR_BOUND),
        ],
    )
    def test_neighbour_distance_envelope(self, name, bound):
        rng = np.random.default_rng(7)
        heads = _fitted_heads(rng, n_rows=200, n_dims=16, k=3)
        queries = rng.uniform(-95.0, -25.0, size=(64, 16))
        d_ref = self._reference_distances(heads, queries)
        d, _ = heads[name].kneighbors(queries)
        rel = np.abs(d - d_ref).max() / d_ref.mean()
        assert rel <= bound

    @pytest.mark.parametrize("name", BOUNDED_BACKENDS)
    def test_well_separated_neighbours_agree(self, name):
        # Cluster centers far apart: quantization/rounding noise must
        # not change which cluster a query snaps to.
        rng = np.random.default_rng(11)
        centers = rng.uniform(-90.0, -30.0, size=(8, 12))
        refs = np.repeat(centers, 5, axis=0) + rng.normal(
            0.0, 0.2, size=(40, 12)
        )
        rp = np.repeat(np.arange(8), 5)
        locs = rng.uniform(0.0, 40.0, size=(40, 2))
        queries = centers + rng.normal(0.0, 0.2, size=centers.shape)
        ref_head = KNNHead(k=1, backend="reference").fit(refs, rp, locs)
        head = KNNHead(k=1, backend=name).fit(refs, rp, locs)
        assert np.array_equal(
            ref_head.predict_rp(queries), head.predict_rp(queries)
        )

    def test_quantized_packs_smaller(self):
        rng = np.random.default_rng(5)
        refs = _radio_map(rng, 400, 24)
        nbytes = {
            name: get_backend(name).pack(refs).nbytes for name in ALL_BACKENDS
        }
        assert nbytes["quantized"] * 5 < nbytes["reference"]
        assert nbytes["blas"] < nbytes["reference"]

    def test_packed_nbytes_surfaced_by_head(self):
        rng = np.random.default_rng(5)
        heads = _fitted_heads(rng, n_rows=80)
        assert heads["quantized"].packed_nbytes < heads["reference"].packed_nbytes


class TestDenseForwardContract:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_fused_relu_matches_layer_arithmetic(self, name):
        from repro.nn import Dense, ReLU

        rng = np.random.default_rng(2)
        layer = Dense(20, 12, rng=rng)
        relu = ReLU()
        x = rng.normal(size=(16, 20)).astype(np.float32)
        y_plain, _ = layer.forward(x, training=False)
        y_plain, _ = relu.forward(y_plain, training=False)
        backend = get_backend(name)
        y_fused = backend.dense_forward(x, layer, fuse_relu=True)
        # The fused forward is an optimization for EVERY backend — the
        # float32 layer weights leave no precision to trade, so even
        # bounded-error backends stay byte-identical here.
        assert np.array_equal(y_plain, y_fused)

    def test_abstract_contract_surface(self):
        backend = get_backend("reference")
        assert isinstance(backend, KernelBackend)
        facts = backend.describe()
        assert facts == {"name": "reference", "changes_results": False}
