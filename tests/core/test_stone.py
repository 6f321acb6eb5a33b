"""Tests for the STONE facade and its configuration."""

import numpy as np
import pytest

from repro.core import StoneConfig, StoneLocalizer
from repro.core.encoder import PER_SUITE_EMBEDDING_DIM
from repro.geometry import build_grid_floorplan

from ..conftest import make_synthetic_dataset

FAST = dict(epochs=4, steps_per_epoch=8, batch_size=16)


@pytest.fixture(scope="module")
def fitted_stone():
    train = make_synthetic_dataset(n_rps=6, fpr=4, n_aps=12, seed=3)
    fp = build_grid_floorplan("t", width=8, height=6, rp_spacing=2.0, margin=1.0)
    stone = StoneLocalizer(StoneConfig(**FAST, seed=1))
    stone.fit(train, fp, rng=np.random.default_rng(1))
    return stone, train, fp


class TestStoneConfig:
    def test_paper_defaults(self):
        config = StoneConfig()
        assert config.p_upper == 0.90
        assert config.triplet_strategy == "floorplan"
        assert config.encoder.conv_filters == (64, 128)
        assert config.encoder.kernel_size == (2, 2)

    def test_for_suite_embedding_dims(self):
        for suite, dim in PER_SUITE_EMBEDDING_DIM.items():
            assert StoneConfig.for_suite(suite).encoder.embedding_dim == dim
        # paper: embedding length lies in 3..10
        assert all(3 <= d <= 10 for d in PER_SUITE_EMBEDDING_DIM.values())

    def test_with_embedding_dim(self):
        config = StoneConfig().with_embedding_dim(9)
        assert config.encoder.embedding_dim == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            StoneConfig(p_upper=1.5)
        with pytest.raises(ValueError):
            StoneConfig(triplet_strategy="magic")
        with pytest.raises(ValueError):
            StoneConfig(learning_rate=-1)


class TestStoneLocalizer:
    def test_predict_shape(self, fitted_stone):
        stone, train, _ = fitted_stone
        pred = stone.predict(train.rssi[:5])
        assert pred.shape == (5, 2)

    def test_training_rssi_relocalized_close(self, fitted_stone):
        stone, train, _ = fitted_stone
        pred = stone.predict(train.rssi)
        err = np.linalg.norm(pred - train.locations, axis=1)
        # synthetic RPs are well separated; most train scans must come home
        assert np.median(err) < 2.0

    def test_predict_rp_labels_valid(self, fitted_stone):
        stone, train, _ = fitted_stone
        rps = stone.predict_rp(train.rssi[:8])
        assert set(rps.tolist()) <= set(train.rp_set.tolist())

    def test_embeddings_unit_norm(self, fitted_stone):
        stone, train, _ = fitted_stone
        emb = stone.embed_rssi(train.rssi[:6])
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, rtol=1e-5)

    @pytest.mark.parametrize("backend", [None, "blas"])
    def test_zero_row_inference(self, backend):
        train = make_synthetic_dataset(n_rps=4, fpr=3, n_aps=10, seed=7)
        fp = build_grid_floorplan("t", width=8, height=6, rp_spacing=2.0, margin=1.0)
        stone = StoneLocalizer(StoneConfig(**FAST, seed=3), backend=backend)
        stone.fit(train, fp, rng=np.random.default_rng(3))
        empty = np.empty((0, train.rssi.shape[1]))
        dim = stone.config.encoder.embedding_dim
        assert stone.embed_rssi(empty).shape == (0, dim)
        assert stone.predict_rp(empty).shape == (0,)
        assert stone.predict(empty).shape == (0, 2)
        images = stone.preprocessor.transform(empty)
        assert stone.encoder.predict(images, backend=backend).shape == (0, dim)

    def test_predict_before_fit_rejected(self):
        stone = StoneLocalizer(StoneConfig(**FAST))
        with pytest.raises(RuntimeError):
            stone.predict(np.zeros((1, 12)) - 100)

    def test_wrong_ap_count_rejected(self, fitted_stone):
        stone, _, _ = fitted_stone
        with pytest.raises(ValueError):
            stone.predict(np.zeros((1, 99)) - 100)

    def test_begin_epoch_is_noop(self, fitted_stone):
        """STONE never re-trains: begin_epoch must not change predictions."""
        stone, train, _ = fitted_stone
        before = stone.predict(train.rssi[:5])
        stone.begin_epoch(3, train.rssi)
        after = stone.predict(train.rssi[:5])
        np.testing.assert_array_equal(before, after)
        assert stone.requires_retraining is False

    def test_deterministic_under_seed(self):
        train = make_synthetic_dataset(n_rps=5, fpr=3, n_aps=10, seed=4)
        fp = build_grid_floorplan("t", width=8, height=6, rp_spacing=2.0, margin=1.0)
        preds = []
        for _ in range(2):
            stone = StoneLocalizer(StoneConfig(**FAST, seed=9))
            stone.fit(train, fp, rng=np.random.default_rng(9))
            preds.append(stone.predict(train.rssi[:6]))
        np.testing.assert_array_equal(preds[0], preds[1])

    def test_save_load_encoder_roundtrip(self, fitted_stone, tmp_path):
        stone, train, fp = fitted_stone
        path = tmp_path / "encoder.npz"
        stone.save_encoder(path)
        restored = StoneLocalizer(stone.config).load_encoder(path, train)
        np.testing.assert_allclose(
            restored.predict(train.rssi[:6]), stone.predict(train.rssi[:6])
        )

    def test_history_populated(self, fitted_stone):
        stone, _, _ = fitted_stone
        assert stone.history is not None
        assert len(stone.history.loss) == FAST["epochs"]
        assert np.isfinite(stone.history.final_loss)

    def test_set_encoder_quantized_predictions_close(self, fitted_stone):
        from repro.compress import quantize_model

        stone, train, fp = fitted_stone
        before = stone.predict(train.rssi)
        original = stone.encoder
        quantized = quantize_model(original)
        stone.set_encoder(quantized.dequantized_model())
        after = stone.predict(train.rssi)
        drift = np.linalg.norm(before - after, axis=1)
        # int8 weight error must not move predictions more than one RP.
        assert np.median(drift) <= 2.0
        stone.set_encoder(original)
        assert np.allclose(stone.predict(train.rssi), before)

    def test_set_encoder_before_fit_rejected(self):
        stone = StoneLocalizer(StoneConfig(**FAST))
        with pytest.raises(RuntimeError):
            stone.set_encoder(None)

    def test_set_encoder_after_load(self, fitted_stone, tmp_path):
        stone, train, fp = fitted_stone
        path = tmp_path / "enc.npz"
        stone.save_encoder(path)
        fresh = StoneLocalizer(StoneConfig(**FAST))
        fresh.load_encoder(path, train)
        fresh.set_encoder(fresh.encoder)  # cache populated by load
        assert fresh.predict(train.rssi).shape == (train.n_samples, 2)

    def test_uniform_strategy_variant(self):
        train = make_synthetic_dataset(n_rps=5, fpr=3, n_aps=10, seed=5)
        fp = build_grid_floorplan("t", width=8, height=6, rp_spacing=2.0, margin=1.0)
        stone = StoneLocalizer(
            StoneConfig(**FAST, triplet_strategy="uniform", seed=2)
        )
        stone.fit(train, fp, rng=np.random.default_rng(2))
        assert stone.predict(train.rssi[:3]).shape == (3, 2)

    def test_augmentation_disabled_variant(self):
        train = make_synthetic_dataset(n_rps=5, fpr=3, n_aps=10, seed=6)
        fp = build_grid_floorplan("t", width=8, height=6, rp_spacing=2.0, margin=1.0)
        stone = StoneLocalizer(StoneConfig(**FAST, p_upper=0.0, seed=2))
        stone.fit(train, fp, rng=np.random.default_rng(2))
        assert stone.predict(train.rssi[:3]).shape == (3, 2)
