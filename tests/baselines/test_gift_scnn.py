"""Tests for the GIFT and SCNN baselines and the registry."""

import numpy as np
import pytest

from repro.baselines import (
    PAPER_FRAMEWORKS,
    GIFTLocalizer,
    SCNNConfig,
    SCNNLocalizer,
    build_localizer,
)
from repro.core import StoneLocalizer
from repro.geometry import build_grid_floorplan

from ..conftest import make_synthetic_dataset


@pytest.fixture()
def floorplan():
    return build_grid_floorplan("t", width=8, height=6, rp_spacing=2.0, margin=1.0)


@pytest.fixture()
def train():
    return make_synthetic_dataset(n_rps=6, fpr=4, n_aps=16, seed=10)


class TestGIFT:
    def test_gradient_map_includes_self_pairs(self, train, floorplan):
        gift = GIFTLocalizer(max_step_m=2.5).fit(train, floorplan)
        self_pairs = (gift._grad_from == gift._grad_to).sum()
        assert self_pairs == train.rp_set.size

    def test_stationary_walk_stays_put(self, train, floorplan):
        gift = GIFTLocalizer().fit(train, floorplan)
        # the same scan repeated: gradients are zero, position constant
        walk = np.tile(train.rssi[0], (5, 1))
        pred = gift.predict(walk)
        assert (pred == pred[0]).all()

    def test_clean_walk_tracks_path(self, floorplan):
        train = make_synthetic_dataset(n_rps=9, fpr=3, n_aps=24, seed=11, spacing=3.0)
        gift = GIFTLocalizer(max_step_m=4.0).fit(train, floorplan)
        # walk over RPs 0..8 using (noiseless) mean train fingerprints
        walk = np.array(
            [
                train.rssi[train.rp_indices == rp].mean(axis=0)
                for rp in range(9)
            ]
        )
        pred = gift.predict(walk)
        true = np.array(
            [train.locations[train.rp_indices == rp][0] for rp in range(9)]
        )
        err = np.linalg.norm(pred - true, axis=1)
        assert err.mean() < 2.0

    def test_predict_shape_single_scan(self, train, floorplan):
        gift = GIFTLocalizer().fit(train, floorplan)
        assert gift.predict(train.rssi[0]).shape == (1, 2)

    def test_no_retraining_flag(self):
        assert GIFTLocalizer().requires_retraining is False

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GIFTLocalizer(max_step_m=0)
        with pytest.raises(ValueError):
            GIFTLocalizer(reanchor_factor=0.5)


class TestSCNN:
    def test_learns_training_set(self, train, floorplan):
        scnn = SCNNLocalizer(SCNNConfig(epochs=30, batch_size=8))
        scnn.fit(train, floorplan, rng=np.random.default_rng(0))
        pred_idx = scnn.predict_class_index(train.rssi)
        labels = {int(rp): i for i, rp in enumerate(train.rp_set)}
        true_idx = np.array([labels[int(rp)] for rp in train.rp_indices])
        accuracy = (pred_idx == true_idx).mean()
        assert accuracy > 0.8

    def test_predict_returns_rp_coordinates(self, train, floorplan):
        scnn = SCNNLocalizer(SCNNConfig(epochs=5))
        scnn.fit(train, floorplan, rng=np.random.default_rng(0))
        pred = scnn.predict(train.rssi[:6])
        rp_locs = {tuple(train.locations[train.rp_indices == rp][0]) for rp in train.rp_set}
        for p in pred:
            assert tuple(p) in rp_locs

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SCNNConfig(epochs=0)
        with pytest.raises(ValueError):
            SCNNConfig(dropout_rate=1.0)

    def test_no_retraining_flag(self):
        assert SCNNLocalizer().requires_retraining is False


class TestRegistry:
    def test_all_paper_frameworks_buildable(self):
        for name in PAPER_FRAMEWORKS:
            localizer = build_localizer(name, suite_name="office", fast=True)
            assert localizer.name == name

    def test_stone_suite_tuning(self):
        from repro.core import PER_SUITE_EMBEDDING_DIM

        stone = build_localizer("STONE", suite_name="uji")
        assert isinstance(stone, StoneLocalizer)
        assert stone.config.encoder.embedding_dim == PER_SUITE_EMBEDDING_DIM["uji"]

    def test_case_insensitive(self):
        assert build_localizer("ltknn").name == "LT-KNN"
        assert build_localizer("stone", fast=True).name == "STONE"

    def test_unknown_framework(self):
        with pytest.raises(KeyError):
            build_localizer("DeepMagic")
