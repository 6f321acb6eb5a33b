"""ModelStore: warm reuse, content-addressed keys, disk round-trips."""

from __future__ import annotations

import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from repro.eval import task_fingerprint, train_fingerprint, suite_fingerprint
from repro.serve import ModelStore


class TestWarmMemory:
    def test_get_or_fit_fits_once(self, tiny_suite):
        store = ModelStore()
        first = store.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        second = store.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        assert first is second
        assert first.localizer is second.localizer
        assert store.fits == 1
        assert second.hits == 1

    def test_alias_resolves_to_same_model(self, tiny_suite):
        store = ModelStore()
        a = store.get_or_fit("LTKNN", tiny_suite, seed=0, fast=True)
        b = store.get_or_fit("LT-KNN", tiny_suite, seed=0, fast=True)
        assert a is b
        assert a.key.framework == "LT-KNN"

    def test_seed_changes_key(self, tiny_suite):
        store = ModelStore()
        a = store.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        b = store.get_or_fit("KNN", tiny_suite, seed=1, fast=True)
        assert a is not b
        assert store.fits == 2

    def test_fit_matches_engine_seeding(self, tiny_suite):
        # The store's fit RNG is the engine's per-task seeding at
        # framework index 0 — a served model answers exactly like the
        # model the evaluation engine fits.
        from repro.baselines.registry import build_localizer

        store = ModelStore()
        entry = store.get_or_fit("KNN", tiny_suite, seed=3, fast=True)
        reference = build_localizer("KNN", suite_name=tiny_suite.name, fast=True)
        reference.fit(
            tiny_suite.train,
            tiny_suite.floorplan,
            rng=np.random.default_rng([3, 0]),
        )
        queries = tiny_suite.test_epochs[0].rssi
        np.testing.assert_array_equal(
            entry.localizer.predict_batched(queries),
            reference.predict_batched(queries),
        )


class TestContentAddressing:
    def test_key_digest_uses_shared_fingerprint_scheme(self, tiny_suite):
        store = ModelStore()
        key = store.key_for("KNN", tiny_suite, seed=0, fast=True)
        assert key.train_hash == train_fingerprint(tiny_suite)
        assert key.digest == task_fingerprint(
            "KNN", key.train_hash, seed=0, fast=True, schema_tag="store-v2"
        )
        # ...but under the store's own schema tag, so engine cache-schema
        # bumps never orphan persisted models.
        assert key.digest != task_fingerprint(
            "KNN", key.train_hash, seed=0, fast=True
        )

    def test_train_fingerprint_ignores_test_epochs(self, tiny_suite):
        shorter = dataclasses.replace(
            tiny_suite,
            test_epochs=tiny_suite.test_epochs[:2],
            epoch_labels=tiny_suite.epoch_labels[:2],
        )
        assert train_fingerprint(shorter) == train_fingerprint(tiny_suite)
        # ...while the full suite fingerprint (trace identity) differs.
        assert suite_fingerprint(shorter) != suite_fingerprint(tiny_suite)

    def test_train_fingerprint_tracks_training_data(self, tiny_suite):
        perturbed = dataclasses.replace(
            tiny_suite,
            train=tiny_suite.train.select(
                np.arange(tiny_suite.train.n_samples - 1)
            ),
        )
        assert train_fingerprint(perturbed) != train_fingerprint(tiny_suite)


class TestDiskPersistence:
    def test_save_load_round_trip_bit_identical(self, tiny_suite, tmp_path):
        queries = np.vstack([ds.rssi for ds in tiny_suite.test_epochs])
        first = ModelStore(tmp_path / "models")
        fitted = first.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        assert fitted.source == "fitted"

        restarted = ModelStore(tmp_path / "models")
        loaded = restarted.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        assert loaded.source == "disk"
        assert restarted.fits == 0
        assert restarted.loads == 1
        np.testing.assert_array_equal(
            loaded.localizer.predict_batched(queries),
            fitted.localizer.predict_batched(queries),
        )

    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"\x80\x7fbad protocol", b""],
        ids=["text", "bad-protocol", "empty"],
    )
    def test_corrupt_artifact_refits(self, tiny_suite, tmp_path, garbage):
        model_dir = tmp_path / "models"
        ModelStore(model_dir).get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        for path in model_dir.glob("*.pkl"):
            path.write_bytes(garbage)
        store = ModelStore(model_dir)
        entry = store.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        assert entry.source == "fitted"
        assert store.loads == 0

    @pytest.mark.parametrize(
        ("name", "missing"),
        [
            (b"KNNLocalizer", b"KNNLocalizeR"),
            (b"repro.baselines.knn", b"repro.baselines.kNN"),
        ],
        ids=["class", "module"],
    )
    def test_artifact_naming_missing_code_is_a_warned_miss(
        self, tiny_suite, tmp_path, name, missing
    ):
        # A class or module renamed since the artifact was written makes
        # unpickling raise AttributeError/ImportError: the refit is a
        # migration, so it warns once, naming the file and the error.
        model_dir = tmp_path / "models"
        ModelStore(model_dir).get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        (path,) = model_dir.glob("*.pkl")
        blob = path.read_bytes()
        assert blob.count(name) == 1
        path.write_bytes(blob.replace(name, missing))
        store = ModelStore(model_dir)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entry = store.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        assert entry.source == "fitted"
        assert store.loads == 0
        assert len(caught) == 1, [str(w.message) for w in caught]
        message = str(caught[0].message)
        assert path.name in message
        assert missing.decode().rsplit(".", 1)[-1] in message

    def test_mislabeled_artifact_rejected(self, tiny_suite, tmp_path):
        # A payload whose localizer is not an instance of the registered
        # class must be refit, not served (the warm-load validation hook).
        model_dir = tmp_path / "models"
        store = ModelStore(model_dir)
        key = store.key_for("KNN", tiny_suite, seed=0, fast=True)
        payload = {
            "schema": 1,
            "framework": key.framework,
            "train_hash": key.train_hash,
            "seed": 0,
            "fast": True,
            "suite_name": tiny_suite.name,
            "n_aps": tiny_suite.n_aps,
            "localizer": object(),  # wrong class
        }
        with (model_dir / f"{key.digest}.pkl").open("wb") as fh:
            pickle.dump(payload, fh)
        entry = store.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        assert entry.source == "fitted"

    def test_renamed_artifact_with_wrong_seed_rejected(
        self, tiny_suite, tmp_path
    ):
        # Same suite → same train_hash, so only the payload's own seed
        # record can expose the rename; it must be refit, not served.
        model_dir = tmp_path / "models"
        store = ModelStore(model_dir)
        store.get_or_fit("KNN", tiny_suite, seed=1, fast=True)
        key0 = store.key_for("KNN", tiny_suite, seed=0, fast=True)
        key1 = store.key_for("KNN", tiny_suite, seed=1, fast=True)
        (model_dir / f"{key1.digest}.pkl").rename(
            model_dir / f"{key0.digest}.pkl"
        )
        fresh = ModelStore(model_dir)
        entry = fresh.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        assert entry.source == "fitted"
        assert fresh.loads == 0

    def test_describe_lists_entries(self, tiny_suite, tmp_path):
        store = ModelStore(tmp_path / "models")
        store.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        store.get_or_fit("GIFT", tiny_suite, seed=0, fast=True)
        summary = store.describe()
        assert {m["framework"] for m in summary["models"]} == {"KNN", "GIFT"}
        assert summary["fits"] == 2
        assert summary["model_dir"] == str(tmp_path / "models")


@pytest.mark.parametrize("framework", ["KNN", "GIFT"])
def test_store_entry_describe_is_json_ready(tiny_suite, framework):
    import json

    store = ModelStore()
    entry = store.get_or_fit(framework, tiny_suite, seed=0, fast=True)
    encoded = json.dumps(entry.describe())
    assert framework in encoded
