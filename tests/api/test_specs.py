"""Spec round-trip, canonicalization and fingerprint-subsumption tests.

The load-bearing property is *subsumption*: the new spec surface must
address exactly the artifacts the legacy plumbing addressed —
``IndexSpec.fingerprint() == IndexConfig.tag()`` (one class, two names),
``LocalizerSpec.model_key(suite) == ModelStore.key_for(...)`` and
``LocalizerSpec.task_key(...) == EvalTask.cache_key(...)`` — so caches
and model stores written before `repro.api` existed keep hitting.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FleetSpec, IndexSpec, LocalizerSpec, ServeSpec, engine_index
from repro.baselines.registry import ALL_FRAMEWORKS
from repro.index import INDEX_KINDS, IndexConfig

index_specs = st.builds(
    IndexSpec,
    kind=st.sampled_from(INDEX_KINDS),
    n_shards=st.integers(min_value=1, max_value=64),
    n_probe=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

localizer_specs = st.builds(
    LocalizerSpec,
    framework=st.sampled_from(("STONE", "KNN", "LT-KNN")),
    suite_name=st.one_of(st.none(), st.sampled_from(("office", "basement", "uji"))),
    fast=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.one_of(st.none(), index_specs),
)


class TestIndexSpec:
    @given(spec=index_specs)
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, spec):
        assert IndexSpec.from_dict(spec.to_dict()) == spec

    @given(spec=index_specs)
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_is_the_legacy_tag(self, spec):
        assert spec.fingerprint() == spec.tag()

    def test_index_spec_is_index_config(self):
        assert IndexSpec is IndexConfig

    def test_validation_delegates_to_index_config(self):
        with pytest.raises(ValueError):
            IndexSpec(kind="voronoi")
        with pytest.raises(ValueError):
            IndexSpec(n_shards=0)

    def test_engine_index_normalizes_exhaustive_to_none(self):
        assert engine_index(None) is None
        assert engine_index(IndexSpec()) is None
        sharded = IndexSpec(kind="region", n_shards=4)
        assert engine_index(sharded) is sharded


class TestLocalizerSpec:
    @given(spec=localizer_specs)
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, spec):
        clone = LocalizerSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_aliases_canonicalize(self):
        assert LocalizerSpec(framework="ltknn").framework == "LT-KNN"
        assert (
            LocalizerSpec(framework="ltknn").fingerprint()
            == LocalizerSpec(framework="LT-KNN").fingerprint()
        )

    def test_unknown_framework_rejected(self):
        with pytest.raises(KeyError):
            LocalizerSpec(framework="DeepMagic")

    def test_exhaustive_index_equals_no_index(self):
        bare = LocalizerSpec(framework="KNN")
        explicit = LocalizerSpec(framework="KNN", index=IndexSpec())
        assert bare.fingerprint() == explicit.fingerprint()
        assert bare.index_tag == explicit.index_tag == "exhaustive"

    def test_sharded_index_changes_fingerprint(self):
        bare = LocalizerSpec(framework="KNN")
        sharded = LocalizerSpec(
            framework="KNN", index=IndexSpec(kind="region", n_shards=4)
        )
        assert bare.fingerprint() != sharded.fingerprint()

    def test_index_on_unshardable_framework_rejected_at_construction(self):
        with pytest.raises(ValueError, match="no reference radio map"):
            LocalizerSpec(framework="GIFT", index=IndexSpec(kind="kmeans"))
        # Exhaustive is not sharding; it stays allowed.
        LocalizerSpec(framework="GIFT", index=IndexSpec())

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            LocalizerSpec.from_dict({"framework": "KNN", "epochs": 3})

    @pytest.mark.parametrize("name", ALL_FRAMEWORKS)
    def test_build_constructs_every_framework(self, name):
        localizer = LocalizerSpec(framework=name, fast=True).build()
        assert localizer.name == name


class TestFingerprintSubsumption:
    """Spec-addressed artifacts == legacy-addressed artifacts."""

    def test_model_key_matches_model_store(self, tiny_suite):
        from repro.serve import ModelStore

        store = ModelStore()
        for index in (None, IndexSpec(kind="region", n_shards=4)):
            spec = LocalizerSpec(
                framework="KNN", suite_name=tiny_suite.name,
                fast=True, seed=3, index=index,
            )
            legacy = store.key_for(
                "KNN", tiny_suite, seed=3, fast=True,
                index=engine_index(index),
            )
            assert spec.model_key(tiny_suite) == legacy
            assert spec.model_key(tiny_suite).digest == legacy.digest

    def test_spec_fit_hits_legacy_persisted_artifact(self, tiny_suite, tmp_path):
        """A model persisted pre-spec warm-loads through the spec path."""
        from repro.serve import ModelStore

        legacy_store = ModelStore(tmp_path)
        legacy_store.get_or_fit("KNN", tiny_suite, seed=0, fast=True)
        assert legacy_store.fits == 1

        from repro.api import LocalizationSession

        spec = LocalizerSpec(framework="KNN", suite_name=tiny_suite.name, fast=True)
        session = LocalizationSession.local(spec, tiny_suite, model_dir=tmp_path)
        assert session.entry.source == "disk"  # loaded, not refitted
        assert session.store.fits == 0

    def test_task_key_matches_eval_task(self, tiny_suite):
        from repro.eval.engine import EvalTask, suite_fingerprint

        suite_hash = suite_fingerprint(tiny_suite)
        index = IndexConfig(kind="kmeans", n_shards=4, n_probe=2)
        task = EvalTask(
            framework="KNN", suite_name=tiny_suite.name,
            seed=5, seed_index=2, fast=True, index=index,
        )
        spec_key = task.spec().task_key(suite_hash, seed_index=2)
        assert spec_key == task.cache_key(suite_hash)

    def test_eval_task_spec_round_trip(self):
        from repro.eval.engine import EvalTask

        task = EvalTask(
            framework="ltknn", suite_name="office",
            seed=1, seed_index=0, fast=True,
        )
        spec = task.spec()
        assert spec.framework == "LT-KNN"
        assert spec.suite_name == "office"
        assert spec.index is None


class TestServeSpec:
    def test_dict_round_trip(self):
        spec = ServeSpec(
            localizer=LocalizerSpec(framework="KNN", suite_name="office"),
            port=9000,
            batch_window_ms=1.5,
            chunk_size=128,
        )
        assert ServeSpec.from_dict(spec.to_dict()) == spec
        assert ServeSpec.from_dict(spec.to_dict()).fingerprint() == spec.fingerprint()

    def test_validation(self):
        knn = LocalizerSpec(framework="KNN")
        with pytest.raises(ValueError):
            ServeSpec(localizer=knn, batch_window_ms=-1)
        with pytest.raises(ValueError):
            ServeSpec(localizer=knn, max_batch=0)
        with pytest.raises(ValueError):
            ServeSpec(localizer=knn, chunk_size=0)

    def test_build_serves_a_warm_entry(self, tiny_suite):
        spec = ServeSpec(
            localizer=LocalizerSpec(framework="KNN", fast=True), port=0
        )
        server = spec.build(tiny_suite)
        assert server.entry.key.framework == "KNN"
        assert server.store.fits == 1
        server.dispatcher.close()

    def test_obs_knobs_only_fingerprint_when_set(self):
        knn = LocalizerSpec(framework="KNN", suite_name="office")
        plain = ServeSpec(localizer=knn)
        # Defaults must keep pre-obs fingerprints stable.
        assert plain.fingerprint() == ServeSpec(
            localizer=knn, log_json=False, slow_ms=None
        ).fingerprint()
        assert ServeSpec(localizer=knn, log_json=True).fingerprint() != (
            plain.fingerprint()
        )
        assert ServeSpec(localizer=knn, slow_ms=5.0).fingerprint() != (
            plain.fingerprint()
        )
        with pytest.raises(ValueError):
            ServeSpec(localizer=knn, slow_ms=-1.0)


class TestFleetSpec:
    def test_string_round_trip(self):
        spec = FleetSpec.from_string("HQ:2,LAB:3:kmeans", fast=True)
        assert spec.buildings_string == "HQ:2,LAB:3:kmeans"
        assert FleetSpec.from_dict(spec.to_dict()) == spec

    def test_dict_round_trip_with_index(self):
        spec = FleetSpec.from_string(
            "HQ:2", index=IndexSpec(kind="region", n_shards=4), months=2
        )
        clone = FleetSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_alias_framework_canonicalizes(self):
        assert FleetSpec.from_string("HQ:2", framework="ltknn").framework == "LT-KNN"

    @pytest.mark.parametrize(
        "knob",
        [
            {"max_batch": 0},
            {"batch_window_ms": -1},
            {"chunk_size": 0},
            {"max_pending_rows": 0},
        ],
        ids=lambda knob: next(iter(knob)),
    )
    def test_unrunnable_serving_knob_rejected_at_construction(self, knob):
        # The dispatcher would reject these only after every building
        # was generated, fitted and handed to its workers.
        with pytest.raises(ValueError, match=next(iter(knob))):
            FleetSpec.from_string("HQ:2", **knob)

    def test_cli_rejects_bad_knob_before_building_the_fleet(self, monkeypatch):
        from repro.cli import main

        def never(*args, **kwargs):
            raise AssertionError("the fleet was built before validation")

        monkeypatch.setattr(FleetSpec, "build_registry", never)
        argv = ["serve", "--fleet", "HQ:2", "--framework", "KNN", "--fast"]
        with pytest.raises(ValueError, match="max_batch"):
            main([*argv, "--workers", "2", "--max-batch", "0"])

    def test_empty_buildings_rejected(self):
        with pytest.raises(ValueError, match="at least one building"):
            FleetSpec(buildings=())

    def test_buildings_as_dicts_accepted(self):
        spec = FleetSpec.from_dict(
            {"buildings": [{"name": "HQ", "n_floors": 2}]}
        )
        assert spec.buildings_string == "HQ:2"

    def test_obs_knobs_only_fingerprint_when_set(self):
        plain = FleetSpec.from_string("HQ:2")
        assert plain.fingerprint() == FleetSpec.from_string(
            "HQ:2", log_json=False, slow_ms=None
        ).fingerprint()
        assert FleetSpec.from_string("HQ:2", log_json=True).fingerprint() != (
            plain.fingerprint()
        )
        clone = FleetSpec.from_dict(
            FleetSpec.from_string("HQ:2", slow_ms=2.5).to_dict()
        )
        assert clone.slow_ms == 2.5
        assert clone.fingerprint() != plain.fingerprint()
