"""The STONE localizer facade (paper Sec. IV, Fig. 2).

Offline phase (:meth:`fit`): preprocess the offline fingerprints into
images, train the Siamese encoder with floorplan-aware triplets and
turn-off augmentation, embed the offline set, and fit the KNN head.

Online phase (:meth:`predict`): preprocess a raw scan, embed it, let the
KNN head vote a reference point — no re-training, ever
(``requires_retraining = False`` is the point of the paper).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..baselines.base import BatchedLocalizer
from ..datasets.fingerprint import FingerprintDataset
from ..geometry.floorplan import Floorplan
from ..index import IndexConfig
from ..nn.losses import TripletLoss
from ..nn.model import Sequential
from ..nn.optimizers import Adam
from .augmentation import TurnOffAugmentation
from .config import StoneConfig
from .encoder import build_encoder, embed
from .knn_head import KNNHead
from .preprocessing import FingerprintImagePreprocessor
from .siamese import SiameseHistory, SiameseTrainer
from .triplets import make_selector


class StoneLocalizer(BatchedLocalizer):
    """STONE: Siamese neural encoder + KNN head, re-training-free."""

    name = "STONE"
    requires_retraining = False
    supports_index = True
    supports_kernel_backend = True

    def __init__(
        self,
        config: StoneConfig | None = None,
        *,
        chunk_size: int | None = None,
        index: IndexConfig | None = None,
        backend: str | None = None,
    ) -> None:
        super().__init__()
        self.config = config or StoneConfig()
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        #: Queries per inference block, bounding both the encoder's
        #: activation memory and the KNN head's distance matrices.
        self.chunk_size = int(chunk_size) if chunk_size else 512
        self.preprocessor = FingerprintImagePreprocessor()
        self.encoder: Sequential | None = None
        #: Sharding the *embedding* reference set: the index is rebuilt
        #: from the embedded offline fingerprints at every (re)fit.
        self.index_config = index
        #: Kernel backend for the embedding distance path AND the
        #: encoder's fused dense forward (:mod:`repro.kernels`).
        self.backend = backend
        self.knn = KNNHead(
            k=self.config.knn_k,
            mode=self.config.knn_mode,
            chunk_size=self.chunk_size,
            index=index,
            backend=backend,
        )
        self.history: SiameseHistory | None = None

    # -- offline phase -----------------------------------------------------

    def fit(
        self,
        train: FingerprintDataset,
        floorplan: Floorplan,
        *,
        rng: np.random.Generator | None = None,
    ) -> StoneLocalizer:
        """Offline phase: train encoder + KNN head on ``train``."""
        rng = rng or np.random.default_rng(self.config.seed)
        images = self.preprocessor.fit(train.rssi).transform(train.rssi)
        self.encoder = build_encoder(
            self.preprocessor.image_side, self.config.encoder, rng=rng
        )
        selector = make_selector(
            self.config.triplet_strategy,
            train.rp_indices,
            floorplan,
            sigma_m=self.config.selector_sigma_m,
        )
        augmentation = (
            TurnOffAugmentation(self.config.p_upper)
            if self.config.p_upper > 0
            else None
        )
        trainer = SiameseTrainer(
            self.encoder,
            TripletLoss(self.config.margin),
            Adam(self.config.learning_rate),
            selector,
            augmentation=augmentation,
            grad_clip_norm=self.config.grad_clip_norm,
        )
        self.history = trainer.fit(
            images,
            epochs=self.config.epochs,
            steps_per_epoch=self.config.steps_per_epoch,
            batch_size=min(self.config.batch_size, max(2, train.n_samples)),
            rng=rng,
        )
        reference = embed(self.encoder, images, backend=self.backend)
        self.knn.fit(
            reference, train.rp_indices, train.locations, floorplan=floorplan
        )
        # Cached so a swapped-in (e.g. quantized) encoder can re-embed
        # the reference set without the caller re-supplying the data.
        self._reference_images = images
        self._reference_rp_indices = train.rp_indices.copy()
        self._reference_locations = train.locations.copy()
        self._floorplan = floorplan
        self._fitted = True
        return self

    def set_encoder(self, encoder: Sequential) -> StoneLocalizer:
        """Swap the encoder and rebuild the KNN reference embeddings.

        The deployment-time hook for model compression: quantize or
        prune the trained encoder (see :mod:`repro.compress`), then
        install it here — the offline reference set is re-embedded with
        the new weights so query and reference embeddings stay in the
        same space.
        """
        self._check_fitted()
        self.encoder = encoder
        self.knn.fit(
            embed(encoder, self._reference_images, backend=self.backend),
            self._reference_rp_indices,
            self._reference_locations,
            floorplan=self._floorplan,
        )
        return self

    # -- online phase ------------------------------------------------------

    def embed_rssi(self, rssi: np.ndarray) -> np.ndarray:
        """Raw dBm scans -> L2-normalized embeddings."""
        self._check_fitted()
        rssi = self._check_rssi(rssi, self.preprocessor.n_aps)
        images = self.preprocessor.transform(rssi)
        return embed(
            self.encoder,
            images,
            batch_size=self.chunk_size,
            backend=self.backend,
        )

    def predict(self, rssi: np.ndarray) -> np.ndarray:
        """Raw dBm scans -> (n, 2) estimated coordinates."""
        self._check_fitted()
        rssi = self._check_rssi(rssi, self.preprocessor.n_aps)
        if rssi.shape[0] == 0:
            return np.empty((0, 2), dtype=np.float64)
        return self.knn.predict_location(self.embed_rssi(rssi))

    def predict_rp(self, rssi: np.ndarray) -> np.ndarray:
        """Raw dBm scans -> predicted RP labels."""
        return self.knn.predict_rp(self.embed_rssi(rssi))

    # -- persistence ------------------------------------------------------

    def save_encoder(self, path: str | Path) -> None:
        """Persist the trained encoder weights+architecture (.npz)."""
        self._check_fitted()
        self.encoder.save(path)

    def load_encoder(
        self,
        path: str | Path,
        train: FingerprintDataset,
        *,
        floorplan: Floorplan | None = None,
    ) -> StoneLocalizer:
        """Restore an encoder and rebuild the KNN reference set.

        ``train`` must be the same offline dataset used when the encoder
        was saved (it defines the AP columns and the reference set).
        ``floorplan`` only matters with a ``region`` index config.
        """
        self.preprocessor.fit(train.rssi)
        self.encoder = Sequential.load(path)
        images = self.preprocessor.transform(train.rssi)
        self.knn.fit(
            embed(self.encoder, images, backend=self.backend),
            train.rp_indices,
            train.locations,
            floorplan=floorplan,
        )
        self._reference_images = images
        self._reference_rp_indices = train.rp_indices.copy()
        self._reference_locations = train.locations.copy()
        self._floorplan = floorplan
        self._fitted = True
        return self

    # -- index introspection ----------------------------------------------

    def index_describe(self) -> dict | None:
        """Shard statistics of the embedding-space radio-map index."""
        return self.knn.index_describe()

    @property
    def kernel_backend(self) -> str:
        """Resolved kernel-backend name of the embedding KNN head."""
        return self.knn.backend_name
