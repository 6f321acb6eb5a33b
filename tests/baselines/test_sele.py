"""Tests for the SELE contrastive Siamese baseline."""

import numpy as np
import pytest

from repro.baselines import SELEConfig, SELELocalizer, build_localizer
from repro.geometry import build_grid_floorplan

from ..conftest import make_synthetic_dataset

FAST = SELEConfig(epochs=6, steps_per_epoch=10, batch_size=24, seed=0)


@pytest.fixture(scope="module")
def fitted():
    train = make_synthetic_dataset(n_rps=6, fpr=4, n_aps=12, seed=12)
    fp = build_grid_floorplan("t", width=8, height=6, rp_spacing=2.0, margin=1.0)
    sele = SELELocalizer(FAST)
    sele.fit(train, fp, rng=np.random.default_rng(0))
    return sele, train


class TestSELE:
    def test_predict_shape(self, fitted):
        sele, train = fitted
        assert sele.predict(train.rssi[:4]).shape == (4, 2)

    def test_contrastive_loss_decreases(self, fitted):
        sele, _ = fitted
        assert sele.loss_history[-1] < sele.loss_history[0]

    def test_train_rssi_relocalized_close(self, fitted):
        sele, train = fitted
        pred = sele.predict(train.rssi)
        err = np.linalg.norm(pred - train.locations, axis=1)
        assert np.median(err) < 2.5

    def test_requires_retraining_flag(self):
        # The cited SELE recalibrates monthly (paper Sec. II).
        assert SELELocalizer().requires_retraining is True

    def test_registry_entry(self):
        sele = build_localizer("SELE", fast=True)
        assert isinstance(sele, SELELocalizer)
        assert sele.config.epochs == 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SELEConfig(similar_fraction=0.0)
        with pytest.raises(ValueError):
            SELEConfig(margin=0.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            SELELocalizer().predict(np.zeros((1, 12)) - 100)
