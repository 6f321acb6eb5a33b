"""STONE's convolutional Siamese encoder (paper Sec. IV.D, Fig. 1).

Architecture (paper defaults):

    input (1, s, s)
    -> GaussianNoise(sigma=0.10)          # short-term RSSI resilience
    -> Conv2D(64, 2x2, stride 1) + ReLU
    -> Dropout
    -> Conv2D(128, 2x2, stride 1) + ReLU
    -> Dropout
    -> Flatten -> Dense(100) + ReLU
    -> Dense(embedding_dim) -> L2Normalize

The embedding dimension "was empirically evaluated for each floorplan
independently ... in the range of 3 to 10"; the per-suite defaults below
follow that guidance, and the ablation bench sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.layers.activations import ReLU
from ..nn.layers.conv import Conv2D
from ..nn.layers.dense import Dense
from ..nn.layers.dropout import Dropout
from ..nn.layers.noise import GaussianNoise
from ..nn.layers.normalization import L2Normalize
from ..nn.layers.reshape import Flatten
from ..nn.model import Sequential


@dataclass(frozen=True)
class EncoderConfig:
    """Hyperparameters of the Siamese encoder."""

    embedding_dim: int = 5
    conv_filters: tuple[int, int] = (64, 128)
    kernel_size: tuple[int, int] = (2, 2)
    fc_units: int = 100
    dropout_rate: float = 0.25
    input_noise_sigma: float = 0.10

    def __post_init__(self) -> None:
        if not 2 <= self.embedding_dim <= 64:
            raise ValueError("embedding_dim must be in [2, 64]")
        if len(self.conv_filters) != 2 or min(self.conv_filters) <= 0:
            raise ValueError("conv_filters must be two positive counts")
        if self.fc_units <= 0:
            raise ValueError("fc_units must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.input_noise_sigma < 0:
            raise ValueError("input_noise_sigma must be non-negative")


#: The paper picks the embedding length per floorplan (3..10). These
#: defaults were tuned once on seed 0 and then frozen.
PER_SUITE_EMBEDDING_DIM = {"uji": 10, "office": 10, "basement": 10}


def build_encoder(
    image_side: int,
    config: EncoderConfig | None = None,
    *,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """Assemble the Fig. 1 encoder for ``image_side`` x ``image_side`` inputs."""
    if image_side < 3:
        raise ValueError(
            f"image side {image_side} too small for two 2x2 valid convolutions"
        )
    config = config or EncoderConfig()
    rng = rng or np.random.default_rng()
    f1, f2 = config.conv_filters
    after_conv_side = image_side - (config.kernel_size[0] - 1) * 2
    flat_features = f2 * after_conv_side * after_conv_side
    model = Sequential(
        [
            GaussianNoise(config.input_noise_sigma, name="input_noise"),
            Conv2D(1, f1, config.kernel_size, rng=rng, name="conv1"),
            ReLU(name="relu1"),
            Dropout(config.dropout_rate, name="drop1"),
            Conv2D(f1, f2, config.kernel_size, rng=rng, name="conv2"),
            ReLU(name="relu2"),
            Dropout(config.dropout_rate, name="drop2"),
            Flatten(name="flatten"),
            Dense(flat_features, config.fc_units, rng=rng, name="fc"),
            ReLU(name="relu3"),
            Dense(config.fc_units, config.embedding_dim, rng=rng, name="embed"),
            L2Normalize(name="l2norm"),
        ]
    )
    # Fail fast if the geometry doesn't compose.
    out_shape = model.output_shape((1, image_side, image_side))
    if out_shape != (config.embedding_dim,):
        raise AssertionError(f"encoder output shape {out_shape} unexpected")
    return model


def embed(
    model: Sequential,
    images: np.ndarray,
    *,
    batch_size: int = 512,
    backend: str | None = None,
) -> np.ndarray:
    """Inference-mode embeddings for a batch of fingerprint images.

    ``backend`` names a :mod:`repro.kernels` backend whose fused
    ``conv2d_forward`` and ``dense_forward`` run the encoder's
    Conv2D(+ReLU) and Dense(+ReLU) layers; ``None`` means
    ``"reference"`` (see :meth:`repro.nn.model.Sequential.predict`).
    """
    return model.predict(
        np.asarray(images, dtype=np.float32),
        batch_size=batch_size,
        backend=backend,
    )
