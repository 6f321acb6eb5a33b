"""The backend seam end to end: specs, stores, localizers, encoder.

What ships in artifacts and fingerprints is the load-bearing half of
the seam: bit-identical backends must keep addressing the *same*
cached/persisted models as the pre-seam code, result-changing backends
must never collide with them, and everything a fit produces must
record which backend produced it.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import FleetSpec, LocalizerSpec
from repro.baselines import KNNLocalizer, build_localizer, supports_kernel_backend
from repro.baselines.ltknn import LTKNNLocalizer
from repro.baselines.scnn import SCNNLocalizer
from repro.core import EncoderConfig, build_encoder
from repro.kernels import BACKEND_ENV_VAR
from repro.kernels.reference import ReferenceBackend
from repro.serve import ModelStore


class TestFingerprintRule:
    """Bit-identical backends share identities; bounded ones never do."""

    @pytest.mark.parametrize("backend", ["blas", "quantized"])
    def test_result_changing_backend_changes_fingerprint(self, backend):
        base = LocalizerSpec(framework="KNN", fast=True)
        other = LocalizerSpec(framework="KNN", fast=True, backend=backend)
        assert other.fingerprint() != base.fingerprint()

    def test_legacy_dict_roundtrip_defaults_to_reference(self):
        # Pre-seam to_dict payloads have no "backend" key; they must
        # deserialize (reference) and fingerprint exactly as before.
        payload = LocalizerSpec(framework="KNN", fast=True).to_dict()
        del payload["backend"]
        spec = LocalizerSpec.from_dict(payload)
        assert spec.backend == "reference"
        assert spec.fingerprint() == LocalizerSpec(
            framework="KNN", fast=True
        ).fingerprint()

    def test_store_key_matches_spec_model_key(self, tiny_suite):
        spec = LocalizerSpec(
            framework="KNN",
            suite_name=tiny_suite.name,
            fast=True,
            backend="quantized",
        )
        store = ModelStore()
        assert (
            store.key_for(
                "KNN", tiny_suite, fast=True, backend="quantized"
            ).digest
            == spec.model_key(tiny_suite).digest
        )

    def test_store_digest_unchanged_for_exact_backends(self, tiny_suite):
        store = ModelStore()
        legacy = store.key_for("KNN", tiny_suite, fast=True)
        pinned = store.key_for("KNN", tiny_suite, fast=True, backend="reference")
        quant = store.key_for("KNN", tiny_suite, fast=True, backend="quantized")
        assert pinned.digest == legacy.digest
        assert quant.digest != legacy.digest


class TestFrameworkGating:
    def test_seam_capable_frameworks(self):
        for name in ("STONE", "KNN", "LT-KNN"):
            assert supports_kernel_backend(name)
        assert not supports_kernel_backend("GIFT")

    def test_explicit_changing_backend_on_gift_raises(self):
        with pytest.raises(ValueError, match="kernel-backend seam"):
            build_localizer("GIFT", fast=True, backend="quantized")

    def test_exact_backend_on_gift_is_dropped(self):
        localizer = build_localizer("GIFT", fast=True, backend="reference")
        assert localizer.kernel_backend == "reference"

    def test_spec_env_backend_normalizes_on_non_seam(self, monkeypatch):
        # An env-derived result-changing backend on a framework without
        # the seam silently falls back (the env var is fleet-wide);
        # only an *explicit* spec field is a hard error.
        monkeypatch.setenv(BACKEND_ENV_VAR, "quantized")
        spec = LocalizerSpec(framework="GIFT", fast=True)
        assert spec.backend == "reference"
        with pytest.raises(ValueError, match="kernel-backend seam"):
            LocalizerSpec(framework="GIFT", fast=True, backend="quantized")

    def test_fleet_spec_same_gating(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "int8")
        spec = FleetSpec.from_string("HQ:2,LAB:3", framework="KNN", fast=True)
        assert spec.backend == "quantized"


class TestLocalizerBackends:
    def test_localizers_report_resolved_backend(self, tiny_suite):
        knn = KNNLocalizer(backend="quantized")
        assert knn.kernel_backend == "quantized"
        lt = LTKNNLocalizer(backend="blas")
        assert lt.kernel_backend == "blas"
        assert KNNLocalizer().kernel_backend == "reference"

    @pytest.mark.parametrize("backend", ["blas", "quantized"])
    def test_accuracy_gate_on_eval_suite(self, tiny_suite, backend):
        # The bounded-error backends must not move the paper metric:
        # mean localization error within 25 cm of reference on the
        # tiny office suite (reference error is meters-scale).
        queries = tiny_suite.test_epochs[0]
        errors = {}
        for name in ("reference", backend):
            loc = KNNLocalizer(backend=name).fit(
                tiny_suite.train,
                tiny_suite.floorplan,
                rng=np.random.default_rng(0),
            )
            predicted = loc.predict(queries.rssi)
            errors[name] = float(
                np.linalg.norm(predicted - queries.locations, axis=1).mean()
            )
        assert abs(errors[backend] - errors["reference"]) <= 0.25


class TestStorePayloads:
    def test_payload_embeds_spec_and_backend(self, tiny_suite, tmp_path):
        store = ModelStore(tmp_path)
        entry = store.get_or_fit(
            "KNN", tiny_suite, fast=True, backend="quantized"
        )
        assert entry.key.backend == "quantized"
        assert entry.spec is not None
        assert entry.spec["backend"] == "quantized"
        assert entry.spec["framework"] == "KNN"
        with (tmp_path / f"{entry.key.digest}.pkl").open("rb") as fh:
            payload = pickle.load(fh)
        assert payload["backend"] == "quantized"
        assert payload["spec"] == entry.spec
        # And the persisted spec rebuilds the exact same identity.
        rebuilt = LocalizerSpec.from_dict(payload["spec"])
        assert rebuilt.model_key(tiny_suite).digest == entry.key.digest

    def test_describe_reports_backend(self, tiny_suite):
        store = ModelStore()
        store.get_or_fit("KNN", tiny_suite, fast=True, backend="blas")
        models = store.describe()["models"]
        assert models[0]["backend"] == "blas"

    def test_exact_backends_share_persisted_artifact(self, tiny_suite, tmp_path):
        # A fit persisted with the backend left unset must warm-load
        # for an explicit reference request — they are one artifact.
        store_a = ModelStore(tmp_path)
        store_a.get_or_fit("KNN", tiny_suite, fast=True)
        store_b = ModelStore(tmp_path)
        entry = store_b.get_or_fit(
            "KNN", tiny_suite, fast=True, backend="reference"
        )
        assert entry.source == "disk"
        assert store_b.fits == 0

    def test_versionless_payload_is_a_warned_miss(
        self, tiny_suite, tmp_path
    ):
        # The pre-seam grace window is closed: an artifact without
        # backend/spec records is refit (with a migration warning) and
        # rewritten in the self-describing format.
        store = ModelStore(tmp_path)
        entry = store.get_or_fit("KNN", tiny_suite, fast=True)
        path = tmp_path / f"{entry.key.digest}.pkl"
        with path.open("rb") as fh:
            payload = pickle.load(fh)
        del payload["backend"]
        del payload["spec"]
        with path.open("wb") as fh:
            pickle.dump(payload, fh)
        fresh = ModelStore(tmp_path)
        with pytest.warns(UserWarning, match="backend/spec"):
            loaded = fresh.get_or_fit("KNN", tiny_suite, fast=True)
        assert loaded.source == "fitted"
        assert fresh.fits == 1
        with path.open("rb") as fh:
            rewritten = pickle.load(fh)
        assert rewritten["backend"] == "reference"
        assert rewritten["spec"] is not None

    def test_mislabeled_backend_record_is_a_miss(self, tiny_suite, tmp_path):
        # A payload claiming a result-changing backend under an exact
        # key digest is a foreign artifact: refit, never serve.
        store = ModelStore(tmp_path)
        entry = store.get_or_fit("KNN", tiny_suite, fast=True)
        path = tmp_path / f"{entry.key.digest}.pkl"
        with path.open("rb") as fh:
            payload = pickle.load(fh)
        payload["backend"] = "quantized"
        with path.open("wb") as fh:
            pickle.dump(payload, fh)
        fresh = ModelStore(tmp_path)
        with pytest.warns(UserWarning, match="backend 'quantized' does not match"):
            refit = fresh.get_or_fit("KNN", tiny_suite, fast=True)
        assert refit.source == "fitted"

    def test_quantized_artifact_roundtrips(self, tiny_suite, tmp_path):
        store_a = ModelStore(tmp_path)
        fitted = store_a.get_or_fit(
            "KNN", tiny_suite, fast=True, backend="quantized"
        )
        store_b = ModelStore(tmp_path)
        loaded = store_b.get_or_fit(
            "KNN", tiny_suite, fast=True, backend="quantized"
        )
        assert loaded.source == "disk"
        assert loaded.key.backend == "quantized"
        queries = tiny_suite.test_epochs[0].rssi
        np.testing.assert_array_equal(
            fitted.localizer.predict(queries), loaded.localizer.predict(queries)
        )


class TestEncoderSeam:
    @pytest.mark.parametrize("backend", [None, "reference", "blas", "quantized"])
    def test_predict_backend_is_bit_identical(self, backend):
        # The fused dense and conv forwards are an optimization, never a
        # precision trade: every backend's output equals the plain pass,
        # for STONE's encoder and for SCNN's classifier.
        rng = np.random.default_rng(4)
        models = [
            build_encoder(8, EncoderConfig(embedding_dim=6), rng=rng),
            SCNNLocalizer()._build(8, 5, rng),
        ]
        x = rng.random((70, 1, 8, 8)).astype(np.float32)
        for model in models:
            plain = model.predict(x)
            routed = model.predict(x, backend=backend)
            assert plain.tobytes() == routed.tobytes()

    def test_predict_routes_conv_and_dense_through_backend(self):
        calls = []

        class Spy(ReferenceBackend):
            def conv2d_forward(self, x, layer, *, fuse_relu=False):
                calls.append((layer.name, fuse_relu))
                return super().conv2d_forward(x, layer, fuse_relu=fuse_relu)

            def dense_forward(self, x, layer, *, fuse_relu=False):
                calls.append((layer.name, fuse_relu))
                return super().dense_forward(x, layer, fuse_relu=fuse_relu)

        rng = np.random.default_rng(4)
        model = build_encoder(8, EncoderConfig(embedding_dim=6), rng=rng)
        model.predict(rng.random((3, 1, 8, 8)).astype(np.float32), backend=Spy())
        assert calls == [
            ("conv1", True), ("conv2", True), ("fc", True), ("embed", False)
        ]

    def test_chunked_predict_matches_unchunked(self):
        rng = np.random.default_rng(4)
        model = build_encoder(8, EncoderConfig(embedding_dim=6), rng=rng)
        x = rng.random((70, 1, 8, 8)).astype(np.float32)
        assert np.array_equal(
            model.predict(x, batch_size=16, backend="blas"),
            model.predict(x, backend="blas"),
        )
