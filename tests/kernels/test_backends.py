"""Contract tests for the kernel-backend seam (``repro.kernels``).

Three tiers, mirroring the seam's documented contract:

* **Registry** — names, aliases, the ``$REPRO_KERNEL_BACKEND``
  resolution order, and the ``changes_results`` flags the fingerprint
  rule is built on.
* **Subset gather** — ``take(pack(refs), rows)`` scores exactly like
  ``pack(refs[rows])`` on every backend: the sharded path's anchor.
* **Bounded error** — ``blas`` (float32) and ``quantized`` (int8) stay
  inside their error envelopes and agree with reference on neighbour
  *structure* for well-separated data.

The negative-clamp boundary (squared distances must never go below
zero before the downstream ``sqrt``) gets its own class with a
deterministic input whose raw matmul decomposition IS negative.

The fused forwards are pinned byte-equal to the layer pass, including
across the per-thread conv workspace's growth, aliasing and threading
rules, and warm STONE inference is pinned to take no page faults.
"""

from __future__ import annotations

import os
import pickle
import resource
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import StoneConfig, StoneLocalizer
from repro.core.knn_head import KNNHead
from repro.geometry import build_grid_floorplan
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
from repro.kernels.base import _conv_workspace
from repro.kernels.reference import squared_distances
from repro.nn import Conv2D, Dense, ReLU

from ..conftest import make_synthetic_dataset

#: Same envelopes as ``benchmarks/bench_kernels.py`` — relative to the
#: mean reference neighbour distance.
BLAS_REL_ERROR_BOUND = 1e-3
QUANTIZED_REL_ERROR_BOUND = 0.15

ALL_BACKENDS = ("reference", "blas", "quantized")
EXACT_BACKENDS = ("reference",)
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
            ("blas32", "blas"),
            ("blas-f32", "blas"),
            ("blas-float32", "blas"),
            ("int8", "quantized"),
            ("quantized-int8", "quantized"),
            ("REFERENCE", "reference"),
            ("  Blas32 ", "blas"),
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
        assert resolve_backend_name("blas") == "blas"

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


class TestTakeGather:
    """A subset gather scores exactly like a fresh pack of the subset."""

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


#: Layers behind the fused forwards. Dense keeps the bare backend id.
FORWARD_CASES = {
    "": lambda rng: (Dense(20, 12, rng=rng), (16, 20)),
    "conv": lambda rng: (Conv2D(3, 8, (2, 2), rng=rng), (5, 3, 7, 7)),
    "conv-s2-same": lambda rng: (
        Conv2D(3, 8, (3, 3), stride=2, padding="same", rng=rng),
        (5, 3, 8, 8),
    ),
}


def _layer_pass(layer, x, fuse):
    """``layer.forward`` (+ ``ReLU``) — the pass every fused forward matches."""
    y, _ = layer.forward(x, training=False)
    if fuse:
        y, _ = ReLU().forward(y, training=False)
    return y


def _fit_stone(backend=None):
    """A tiny STONE fit on 64 APs: an 8x8 image, so conv2 is 6x6x128."""
    train = make_synthetic_dataset(n_rps=6, fpr=4, n_aps=64, seed=3)
    fp = build_grid_floorplan("t", width=8, height=6, rp_spacing=2.0, margin=1.0)
    config = StoneConfig(epochs=1, steps_per_epoch=2, batch_size=16, seed=1)
    return StoneLocalizer(config, backend=backend).fit(
        train, fp, rng=np.random.default_rng(1)
    )


@pytest.fixture(scope="module")
def fitted_stone():
    return _fit_stone()


class TestDenseForwardContract:
    @pytest.mark.parametrize(
        ("name", "case"),
        [
            pytest.param(name, case, id="-".join(filter(None, (name, case))))
            for name in ALL_BACKENDS
            for case in FORWARD_CASES
        ],
    )
    def test_fused_relu_matches_layer_arithmetic(self, name, case):
        rng = np.random.default_rng(2)
        layer, x_shape = FORWARD_CASES[case](rng)
        layer.params["b"][...] = rng.normal(size=layer.params["b"].shape)
        x = rng.normal(size=x_shape).astype(np.float32)
        backend = get_backend(name)
        forward = (
            backend.conv2d_forward if isinstance(layer, Conv2D) else backend.dense_forward
        )
        for fuse in (True, False):
            y_plain = _layer_pass(layer, x, fuse)
            y_fused = forward(x, layer, fuse_relu=fuse)
            # The fused forward is an optimization for EVERY backend — the
            # float32 layer weights leave no precision to trade, so even
            # bounded-error backends stay byte-identical here.
            assert y_fused.shape == y_plain.shape
            assert y_fused.tobytes() == y_plain.tobytes()

    @pytest.mark.parametrize("case", ["conv", "conv-s2-same"])
    def test_conv_workspace_across_row_counts(self, case):
        # The per-thread workspace grows and is reused as blocks change
        # size; every call must still be the layer pass byte for byte.
        rng = np.random.default_rng(3)
        layer, x_shape = FORWARD_CASES[case](rng)
        layer.params["b"][...] = rng.normal(size=layer.params["b"].shape)
        backend = get_backend("reference")
        for n in (64, 256, 1, 0, 64):
            x = rng.normal(size=(n,) + x_shape[1:]).astype(np.float32)
            for fuse in (True, False):
                y_plain = _layer_pass(layer, x, fuse)
                y_fused = backend.conv2d_forward(x, layer, fuse_relu=fuse)
                assert y_fused.shape == y_plain.shape
                assert y_fused.tobytes() == y_plain.tobytes()

    @pytest.mark.parametrize(
        ("out_channels", "kernel"),
        # (1, (7, 7)) has a 1x1x1 output, whose NHWC->NCHW transpose is
        # already contiguous: a no-copy conversion would alias the
        # workspace there.
        [(8, (2, 2)), (1, (2, 2)), (1, (7, 7))],
    )
    def test_conv_outputs_never_alias_the_workspace(self, out_channels, kernel):
        rng = np.random.default_rng(4)
        layer = Conv2D(3, out_channels, kernel, rng=rng)
        backend = get_backend("reference")
        held = backend.conv2d_forward(
            rng.normal(size=(16, 3, 7, 7)).astype(np.float32), layer, fuse_relu=True
        )
        snapshot = held.copy()
        for n in (16, 64, 1):
            later = backend.conv2d_forward(
                rng.normal(size=(n, 3, 7, 7)).astype(np.float32), layer
            )
            assert not np.shares_memory(held, later)
            assert not np.shares_memory(later, _conv_workspace(0))
        assert held.tobytes() == snapshot.tobytes()

    def test_threads_predict_stone_concurrently(self, fitted_stone):
        # Each thread owns its workspace: threads started together on
        # different inputs (and block sizes) give the serial answers.
        # More threads than cores and a short switch interval make the
        # interleaving dense.
        rng = np.random.default_rng(6)
        inputs = [rng.uniform(-95.0, -30.0, size=(n, 64)) for n in (64, 200, 1, 128)]
        serial = [fitted_stone.predict(x).tobytes() for x in inputs]
        barrier = threading.Barrier(len(inputs), timeout=30)

        def run(x):
            barrier.wait()
            return [fitted_stone.predict(x).tobytes() for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(inputs)) as pool:
                futures = [pool.submit(run, x) for x in inputs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, serial):
            assert got == [want] * 10

    def test_abstract_contract_surface(self):
        backend = get_backend("reference")
        assert isinstance(backend, KernelBackend)
        facts = backend.describe()
        assert facts == {"name": "reference", "changes_results": False}


_FAULTS_CODE = """
import pickle, resource, sys
from concurrent.futures import ThreadPoolExecutor
import numpy as np
stone = pickle.loads(open(sys.argv[1], "rb").read())
x = np.random.default_rng(0).uniform(-95.0, -30.0, size=(64, 64))
def faults_per_call():
    for _ in range(3):
        stone.predict(x)
    f0 = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(20):
        stone.predict(x)
    return (resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - f0) / 20
with ThreadPoolExecutor(1) as pool:
    print(pool.submit(faults_per_call).result())
"""


@pytest.mark.skipif(
    not hasattr(resource, "RUSAGE_THREAD"), reason="needs Linux RUSAGE_THREAD"
)
class TestConvWorkspacePageFaults:
    """Warm STONE inference must not page-fault its conv buffers back in.

    Without the workspace, each 64-row predict allocates ~6 MB of conv
    scratch (the conv2 patch matrix alone is 2.4 MB) that glibc hands
    back to the OS after the call, so the next call takes ~1,300-1,500
    minor faults. glibc's mmap/trim thresholds are process-global and rise
    after any large free (a fit, another test), which hides the faults,
    so the measurement runs where a server runs: a fresh interpreter
    that loads a fitted model and predicts on an executor thread.
    """

    @pytest.mark.parametrize("backend", [None, "blas"])
    def test_warm_predict_takes_no_conv_faults(self, backend, tmp_path):
        path = tmp_path / "stone.pkl"
        path.write_bytes(pickle.dumps(_fit_stone(backend)))
        src = str(Path(__file__).resolve().parents[2] / "src")
        out = subprocess.run(
            [sys.executable, "-c", _FAULTS_CODE, str(path)],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert float(out.stdout.strip()) <= 50
