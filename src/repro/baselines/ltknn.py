"""LT-KNN baseline [21] (paper Sec. V.A.3).

"LT-KNN ... has enhancements to maintain localization performance as APs
are removed or replaced over time. LT-KNN achieves this by imputing the
RSSI values of APs that have been removed (are no longer observable on
the floorplan) using regression. The KNN model is re-trained using the
imputed data to maintain localization accuracy over time."

Mechanics of this reimplementation (following Montoliu et al., IPIN'18):

1. At each test epoch, :meth:`begin_epoch` receives the epoch's *unlabeled*
   scans — the "newly collected (anonymous) fingerprint samples" the paper
   says LT-KNN needs every month — and detects which training-time APs
   are no longer observable on the floorplan.
2. For each missing AP, a ridge regression fit **on the offline data**
   (alive APs' RSSI -> missing AP's RSSI) reconstructs what the missing
   AP would have read for each online scan. The completed scan is then
   matched against the original, full radio map with plain KNN.
3. Imputers are (re)fit whenever the missing-AP set changes — that refit
   is the recurring maintenance cost STONE avoids.
"""

from __future__ import annotations


import numpy as np

from ..datasets.fingerprint import FingerprintDataset
from ..geometry.floorplan import Floorplan
from ..index import IndexConfig
from .base import BatchedLocalizer
from .knn import KNNLocalizer

NO_SIGNAL = -100.0


class RidgeImputer:
    """Ridge regression from alive-AP RSSI to one missing AP's RSSI.

    Fit on the offline dataset (where the missing AP was still
    observable); applied to online scans after the AP vanished.
    """

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = float(alpha)
        self.weights: np.ndarray | None = None
        self.bias: float = NO_SIGNAL

    def fit(self, x_alive: np.ndarray, y_missing: np.ndarray) -> RidgeImputer:
        x = np.asarray(x_alive, dtype=np.float64)
        y = np.asarray(y_missing, dtype=np.float64).reshape(-1)
        if x.shape[0] != y.shape[0]:
            raise ValueError("sample count mismatch")
        x_mean = x.mean(axis=0)
        y_mean = float(y.mean())
        xc = x - x_mean
        yc = y - y_mean
        gram = xc.T @ xc + self.alpha * np.eye(x.shape[1])
        self.weights = np.linalg.solve(gram, xc.T @ yc)
        self.bias = y_mean - float(x_mean @ self.weights)
        return self

    def predict(self, x_alive: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("imputer used before fit()")
        x = np.asarray(x_alive, dtype=np.float64)
        return np.clip(x @ self.weights + self.bias, NO_SIGNAL, 0.0)


class LTKNNLocalizer(BatchedLocalizer):
    """Long-Term KNN: per-epoch missing-AP detection + scan imputation."""

    name = "LT-KNN"
    requires_retraining = True
    supports_index = True
    supports_kernel_backend = True

    def __init__(
        self,
        k: int = 3,
        *,
        weighted: bool = True,
        ridge_alpha: float = 1.0,
        missing_threshold: float = 0.02,
        index: IndexConfig | None = None,
        backend: str | None = None,
    ) -> None:
        super().__init__()
        self.k = int(k)
        self.weighted = bool(weighted)
        self.index_config = index
        self.backend = backend
        self.ridge_alpha = float(ridge_alpha)
        if not 0.0 <= missing_threshold <= 1.0:
            raise ValueError("missing_threshold must be in [0, 1]")
        self.missing_threshold = float(missing_threshold)
        self._train: FingerprintDataset | None = None
        self._knn: KNNLocalizer | None = None
        self._train_visible: np.ndarray | None = None
        self._current_missing: np.ndarray = np.array([], dtype=np.int64)
        self._imputers: dict[int, RidgeImputer] = {}
        # Stacked imputer coefficients: one matmul fills every missing
        # column of a whole scan batch at once.
        self._imputer_weights: np.ndarray | None = None
        self._imputer_bias: np.ndarray | None = None
        #: Number of maintenance refits performed post-deployment — the
        #: overhead counter reports surface next to accuracy.
        self.refit_count = 0

    # -- offline -----------------------------------------------------------

    def fit(
        self,
        train: FingerprintDataset,
        floorplan: Floorplan,
        *,
        rng: np.random.Generator | None = None,
    ) -> LTKNNLocalizer:
        """Fit the base KNN and reset all maintenance state."""
        del rng
        self._train = train
        self._train_visible = train.visible_ap_union()
        self._knn = KNNLocalizer(
            self.k,
            weighted=self.weighted,
            index=self.index_config,
            backend=self.backend,
        ).fit(train, floorplan)
        self._current_missing = np.array([], dtype=np.int64)
        self._imputers.clear()
        self.refit_count = 0
        self._fitted = True
        return self

    # -- per-epoch maintenance ---------------------------------------------

    def begin_epoch(self, epoch: int, unlabeled_rssi: np.ndarray) -> None:
        """Detect vanished APs from this epoch's anonymous scans; refit."""
        del epoch
        self._check_fitted()
        scans = self._check_rssi(unlabeled_rssi, self._train.n_aps)
        observed_frac = (scans > NO_SIGNAL).mean(axis=0)
        missing = np.array(
            sorted(
                ap
                for ap in self._train_visible
                if observed_frac[ap] <= self.missing_threshold
            ),
            dtype=np.int64,
        )
        if np.array_equal(missing, self._current_missing):
            return  # AP population unchanged: no maintenance needed.
        self._current_missing = missing
        self._fit_imputers()
        self.refit_count += 1

    def _alive_columns(self) -> np.ndarray:
        alive = np.setdiff1d(self._train_visible, self._current_missing)
        return alive if alive.size else self._train_visible

    def _fit_imputers(self) -> None:
        """One ridge imputer per currently-missing AP (offline data only)."""
        train_rssi = np.clip(self._train.rssi, NO_SIGNAL, 0.0)
        alive = self._alive_columns()
        self._imputers = {
            int(ap): RidgeImputer(self.ridge_alpha).fit(
                train_rssi[:, alive], train_rssi[:, ap]
            )
            for ap in self._current_missing
        }
        if self._imputers:
            self._imputer_weights = np.stack(
                [self._imputers[int(ap)].weights for ap in self._current_missing]
            )
            self._imputer_bias = np.array(
                [self._imputers[int(ap)].bias for ap in self._current_missing]
            )
        else:
            self._imputer_weights = None
            self._imputer_bias = None

    # -- online ------------------------------------------------------------

    def impute(self, rssi: np.ndarray) -> np.ndarray:
        """Fill the currently-missing AP columns of online scans.

        In the normal case (alive and missing columns disjoint) all
        missing columns of the whole batch are reconstructed by a
        single stacked matmul; when every train-visible AP is missing
        the imputations chain and fall back to the sequential loop.
        """
        scans = np.clip(np.array(rssi, copy=True), NO_SIGNAL, 0.0)
        if self._current_missing.size == 0 or scans.shape[0] == 0:
            return scans
        alive = self._alive_columns()
        if np.intersect1d(alive, self._current_missing).size:
            # Degenerate epoch (every train-visible AP missing): the
            # imputers read columns they also write, so earlier
            # imputations feed later ones — keep the sequential
            # reference semantics here instead of the one-shot matmul.
            for ap in self._current_missing:
                scans[:, ap] = self._imputers[int(ap)].predict(scans[:, alive])
            return scans
        scans[:, self._current_missing] = np.clip(
            scans[:, alive] @ self._imputer_weights.T + self._imputer_bias,
            NO_SIGNAL,
            0.0,
        )
        return scans

    def predict(self, rssi: np.ndarray) -> np.ndarray:
        """Impute currently-missing AP columns, then KNN-match."""
        self._check_fitted()
        rssi = self._check_rssi(rssi, self._train.n_aps)
        if rssi.shape[0] == 0:
            return np.empty((0, 2), dtype=np.float64)
        return self._knn.predict(self.impute(rssi))

    def index_describe(self) -> dict | None:
        """Shard statistics of the inner KNN's radio-map index."""
        return self._knn.index_describe() if self._knn else None

    @property
    def kernel_backend(self) -> str:
        """Resolved kernel-backend name of the inner KNN matcher."""
        if self._knn is not None:
            return self._knn.kernel_backend
        from ..kernels import resolve_backend_name

        return resolve_backend_name(self.backend)
