"""LearnLoc-style KNN baseline [11] (paper Sec. V.A.3).

"A lightweight non-parametric approach that employs a Euclidean
distance-based metric to match fingerprints. The technique ... is
incognizant of temporal-variation" — raw RSSI vectors, no adaptation.
"""

from __future__ import annotations

import numpy as np

from ..core.knn_head import KNNHead
from ..datasets.fingerprint import FingerprintDataset
from ..geometry.floorplan import Floorplan
from ..index import IndexConfig
from .base import BatchedLocalizer


class KNNLocalizer(BatchedLocalizer):
    """Plain K-nearest-neighbour matching on raw RSSI vectors.

    ``weighted=True`` uses inverse-distance weighting of the neighbour
    locations (the LearnLoc paper's refinement); ``False`` is a plain
    neighbour-average. The chunked distance/top-k machinery is
    :class:`~repro.core.knn_head.KNNHead`'s, fitted on raw RSSI instead
    of embeddings. ``index`` shards the stored radio map
    (:mod:`repro.index`) so each query scores only its probed shards;
    ``backend`` selects the distance-kernel backend
    (:mod:`repro.kernels`) the radio map is packed for.
    """

    name = "KNN"
    requires_retraining = False
    supports_index = True
    supports_kernel_backend = True

    def __init__(
        self,
        k: int = 3,
        *,
        weighted: bool = True,
        chunk_size: int | None = None,
        index: IndexConfig | None = None,
        backend: str | None = None,
    ) -> None:
        super().__init__()
        if k <= 0:
            raise ValueError("k must be positive")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.k = int(k)
        self.weighted = bool(weighted)
        self.chunk_size = chunk_size
        self.index_config = index
        self.backend = backend
        self._train_rssi: np.ndarray | None = None
        self._train_locations: np.ndarray | None = None
        self._head: KNNHead | None = None

    def fit(
        self,
        train: FingerprintDataset,
        floorplan: Floorplan,
        *,
        rng: np.random.Generator | None = None,
    ) -> KNNLocalizer:
        """Store the raw-RSSI reference set (no model to train)."""
        del rng
        if train.n_samples == 0:
            raise ValueError("empty training set")
        self._train_rssi = np.clip(train.rssi, -100.0, 0.0)
        self._train_locations = train.locations.copy()
        self._head = KNNHead(
            k=self.k,
            chunk_size=self.chunk_size,
            index=self.index_config,
            backend=self.backend,
        ).fit(
            self._train_rssi,
            np.arange(train.n_samples),
            self._train_locations,
            floorplan=floorplan,
        )
        self._fitted = True
        return self

    def _kneighbors(self, rssi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._head.kneighbors(np.clip(rssi, -100.0, 0.0))

    @property
    def kernel_backend(self) -> str:
        """Resolved kernel-backend name the radio map is packed for."""
        if self._head is not None:
            return self._head.backend_name
        from ..kernels import resolve_backend_name

        return resolve_backend_name(self.backend)

    @property
    def macs_per_row(self) -> int | None:
        """One distance pass: stored fingerprints x APs."""
        if self._train_rssi is None:
            return None
        return int(self._train_rssi.size)

    def index_describe(self) -> dict | None:
        """Shard statistics of the fitted radio-map index."""
        return self._head.index_describe() if self._head else None

    def predict(self, rssi: np.ndarray) -> np.ndarray:
        """Match scans to the K nearest stored fingerprints."""
        self._check_fitted()
        rssi = self._check_rssi(rssi, self._train_rssi.shape[1])
        if rssi.shape[0] == 0:
            return np.empty((0, 2), dtype=np.float64)
        dist, idx = self._kneighbors(rssi)
        neigh = self._train_locations[idx]  # (n, k, 2)
        if not self.weighted:
            return neigh.mean(axis=1)
        w = 1.0 / (dist + 1e-6)
        w = w / w.sum(axis=1, keepdims=True)
        return (neigh * w[:, :, None]).sum(axis=1)
