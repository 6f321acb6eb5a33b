"""Hierarchical multi-floor localization: floor first, then (x, y).

The standard decomposition for multi-building/multi-floor fingerprint
corpora (UJIIndoorLoc et al.): a floor classifier routes each scan to a
per-floor localizer. Any :class:`~repro.baselines.base.Localizer` can be
the per-floor stage — STONE for the re-training-free deployment, or any
baseline for comparison.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..baselines.base import Localizer
from ..core.preprocessing import normalize_rssi
from .building import Building
from .dataset import MultiFloorDataset, floor_local_dataset


class FloorClassifier:
    """K-nearest-neighbour floor detector over normalized RSSI.

    Floor signatures are dominated by which APs are audible at all (the
    slab kills most cross-floor signal), a structure KNN on normalized
    vectors captures without training — and, crucially for the paper's
    theme, without anything to go stale.
    """

    def __init__(self, k: int = 5) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = int(k)
        self._vectors: np.ndarray | None = None
        self._sq_norms: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._label_idx: np.ndarray | None = None

    def fit(self, rssi: np.ndarray, floors: np.ndarray) -> FloorClassifier:
        rssi = np.asarray(rssi, dtype=np.float64)
        floors = np.asarray(floors, dtype=np.int64)
        if rssi.ndim != 2 or rssi.shape[0] == 0:
            raise ValueError("rssi must be a non-empty (n, n_aps) matrix")
        if floors.shape != (rssi.shape[0],):
            raise ValueError("floors must align with rssi rows")
        self._vectors = normalize_rssi(rssi)
        self._sq_norms = (self._vectors * self._vectors).sum(axis=1)
        # Sorted distinct floors; each reference's position among them.
        self._labels, self._label_idx = np.unique(floors, return_inverse=True)
        return self

    @property
    def macs_per_row(self) -> int:
        """One distance pass: reference fingerprints x APs."""
        if self._vectors is None:
            raise RuntimeError("FloorClassifier used before fit()")
        return int(self._vectors.size)

    def predict(self, rssi: np.ndarray) -> np.ndarray:
        """Majority floor among the K nearest reference fingerprints.

        Vote ties go to the lowest floor.
        """
        if self._vectors is None:
            raise RuntimeError("FloorClassifier used before fit()")
        q = normalize_rssi(np.atleast_2d(np.asarray(rssi, dtype=np.float64)))
        refs = self._vectors
        d2 = (
            (q * q).sum(axis=1)[:, None]
            + self._sq_norms[None, :]
            - 2.0 * q @ refs.T
        )
        k = min(self.k, refs.shape[0])
        idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
        # One count per (row, floor) over the whole batch; argmax picks
        # the first maximum, and labels are sorted ascending.
        n_labels = self._labels.shape[0]
        offsets = n_labels * np.arange(q.shape[0])[:, None]
        counts = np.bincount(
            (self._label_idx[idx] + offsets).ravel(),
            minlength=q.shape[0] * n_labels,
        ).reshape(q.shape[0], n_labels)
        return self._labels[counts.argmax(axis=1)]


def nearest_fitted_floor(predicted: np.ndarray, fitted: np.ndarray) -> np.ndarray:
    """Snap each predicted floor to the nearest of ``fitted``.

    ``fitted`` must be sorted ascending, so a floor equidistant from two
    fitted ones snaps to the lower (``argmin`` returns the first
    minimum). Fitted floors map to themselves.
    """
    fitted = np.asarray(fitted, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    return fitted[np.abs(fitted[None, :] - predicted[:, None]).argmin(axis=1)]


class HierarchicalLocalizer:
    """Floor classifier + one single-floor localizer per floor.

    ``localizer_factory`` builds a fresh localizer for each floor (e.g.
    ``lambda floor: StoneLocalizer(config)``); floors with no training
    data are simply absent and scans routed to them fall back to the
    nearest available floor.
    """

    def __init__(
        self,
        localizer_factory: Callable[[int], Localizer],
        *,
        floor_k: int = 5,
    ) -> None:
        self.localizer_factory = localizer_factory
        self.floor_classifier = FloorClassifier(k=floor_k)
        self.per_floor: dict[int, Localizer] = {}
        self._fitted = False

    def fit(
        self,
        train: MultiFloorDataset,
        building: Building,
        *,
        rng: np.random.Generator | None = None,
    ) -> HierarchicalLocalizer:
        """Fit the floor detector, then every per-floor localizer.

        Global RP labels are remapped to floorplan-local indices before
        the per-floor fit (floor f's labels form a contiguous block
        aligned with its floorplan's RP order), so floorplan-aware
        machinery like STONE's triplet selector works unchanged.
        """
        rng = rng or np.random.default_rng(0)
        self.floor_classifier.fit(train.fingerprints.rssi, train.floor_indices)
        self.per_floor = {}
        for floor in train.floor_set:
            floorplan = building.floor(int(floor))
            floor_train = floor_local_dataset(train, int(floor), floorplan)
            localizer = self.localizer_factory(int(floor))
            localizer.fit(floor_train, floorplan, rng=rng)
            self.per_floor[int(floor)] = localizer
        self._fitted = True
        return self

    def begin_epoch(self, epoch: int, unlabeled_rssi: np.ndarray) -> None:
        """Forward the anonymous scans to per-floor localizers that adapt."""
        if unlabeled_rssi.shape[0] == 0:
            return
        floors = self.floor_classifier.predict(unlabeled_rssi)
        for floor, localizer in self.per_floor.items():
            rows = floors == floor
            localizer.begin_epoch(epoch, unlabeled_rssi[rows])

    def predict(self, rssi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per scan: (floor label, (x, y) on that floor)."""
        if not self._fitted:
            raise RuntimeError("HierarchicalLocalizer used before fit()")
        rssi = np.atleast_2d(np.asarray(rssi, dtype=np.float64))
        # Route unfittable floors to the nearest fitted one.
        floors = nearest_fitted_floor(
            self.floor_classifier.predict(rssi), sorted(self.per_floor)
        )
        coords = np.empty((rssi.shape[0], 2), dtype=np.float64)
        for floor in np.unique(floors):
            rows = floors == floor
            coords[rows] = self.per_floor[int(floor)].predict(rssi[rows])
        return floors, coords
