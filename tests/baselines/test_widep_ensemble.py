"""Tests for the WiDeep and pseudo-label ensemble baselines."""

from __future__ import annotations

import numpy as np
import pytest
from tests.conftest import make_synthetic_dataset

from repro.baselines import (
    EXTENDED_FRAMEWORKS,
    EnsembleConfig,
    PseudoLabelEnsembleLocalizer,
    WiDeepConfig,
    WiDeepLocalizer,
    build_localizer,
)


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(n_rps=6, fpr=4, n_aps=16, seed=3)


def quick_widep() -> WiDeepLocalizer:
    # The synthetic fixture has only 24 rows; small batches and a hot
    # learning rate keep the gradient-step count meaningful.
    return WiDeepLocalizer(
        WiDeepConfig(
            hidden_units=32,
            ae_epochs=20,
            classifier_epochs=150,
            n_corruptions=4,
            batch_size=8,
            learning_rate=5e-3,
        )
    )


def quick_ensemble(**overrides) -> PseudoLabelEnsembleLocalizer:
    defaults = dict(n_members=3, hidden_units=32, epochs=40, refit_epochs=5)
    defaults.update(overrides)
    return PseudoLabelEnsembleLocalizer(EnsembleConfig(**defaults))


class TestWiDeepConfig:
    def test_invalid_corruption_rejected(self):
        with pytest.raises(ValueError):
            WiDeepConfig(corruption_rate=1.0)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            WiDeepConfig(hidden_units=0)
        with pytest.raises(ValueError):
            WiDeepConfig(ae_epochs=0)


class TestWiDeepLocalizer:
    def test_learns_separable_synthetic_rps(self, dataset, tiny_floorplan):
        loc = quick_widep().fit(
            dataset, tiny_floorplan, rng=np.random.default_rng(0)
        )
        predicted = loc.predict(dataset.rssi)
        errors = np.linalg.norm(predicted - dataset.locations, axis=1)
        # Synthetic RPs are cleanly separable; training error must be low.
        assert errors.mean() < 1.0

    def test_predict_before_fit_rejected(self, dataset):
        with pytest.raises(RuntimeError):
            quick_widep().predict(dataset.rssi)

    def test_wrong_ap_count_rejected(self, dataset, tiny_floorplan):
        loc = quick_widep().fit(
            dataset, tiny_floorplan, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            loc.predict(np.full((1, dataset.n_aps + 3), -60.0))

    def test_single_scan_vector_accepted(self, dataset, tiny_floorplan):
        loc = quick_widep().fit(
            dataset, tiny_floorplan, rng=np.random.default_rng(0)
        )
        out = loc.predict(dataset.rssi[0])
        assert out.shape == (1, 2)

    def test_no_retraining_flag(self):
        assert WiDeepLocalizer.requires_retraining is False


class TestEnsembleConfig:
    def test_invalid_agreement_rejected(self):
        with pytest.raises(ValueError):
            EnsembleConfig(agreement=0.0)
        with pytest.raises(ValueError):
            EnsembleConfig(agreement=1.5)

    def test_invalid_members_rejected(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n_members=0)


class TestPseudoLabelEnsemble:
    def test_learns_and_votes(self, dataset, tiny_floorplan):
        loc = quick_ensemble().fit(
            dataset, tiny_floorplan, rng=np.random.default_rng(1)
        )
        assert len(loc.members) == 3
        predicted = loc.predict(dataset.rssi)
        errors = np.linalg.norm(predicted - dataset.locations, axis=1)
        assert errors.mean() < 1.0

    def test_begin_epoch_adopts_confident_pseudolabels(
        self, dataset, tiny_floorplan
    ):
        loc = quick_ensemble(agreement=0.5).fit(
            dataset, tiny_floorplan, rng=np.random.default_rng(2)
        )
        loc.begin_epoch(1, dataset.rssi)
        assert len(loc.pseudo_counts) == 1
        # Training fingerprints are confidently classified, so most
        # should be adopted at a majority threshold of 0.5.
        assert loc.pseudo_counts[0] > 0

    def test_begin_epoch_empty_input_noop(self, dataset, tiny_floorplan):
        loc = quick_ensemble().fit(
            dataset, tiny_floorplan, rng=np.random.default_rng(3)
        )
        before = [m.parameters() for m in loc.members]
        loc.begin_epoch(1, np.zeros((0, dataset.n_aps)))
        assert loc.pseudo_counts == [0]
        for member, params in zip(loc.members, before):
            for k, v in member.parameters().items():
                assert np.array_equal(v, params[k])

    def test_pseudo_cap_respected(self, dataset, tiny_floorplan):
        loc = quick_ensemble(agreement=0.34, max_pseudo_per_epoch=5).fit(
            dataset, tiny_floorplan, rng=np.random.default_rng(4)
        )
        loc.begin_epoch(1, dataset.rssi)
        assert loc.pseudo_counts[0] <= 5

    def test_retraining_flag(self):
        assert PseudoLabelEnsembleLocalizer.requires_retraining is True


class TestRegistry:
    def test_extended_frameworks_constructible(self):
        for name in EXTENDED_FRAMEWORKS:
            loc = build_localizer(name, fast=True)
            assert loc.name == name

    def test_unknown_name_lists_extended(self):
        with pytest.raises(KeyError, match="PL-Ensemble"):
            build_localizer("nonexistent")
