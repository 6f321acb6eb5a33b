"""The localizer interface every framework implements.

The evaluation protocol (``repro.eval.runner``) drives all five frameworks
— STONE and the four prior works — through this interface:

1. ``fit(train, floorplan, rng)`` once, on the offline dataset.
2. For each test epoch, ``begin_epoch(epoch, unlabeled_rssi)`` is called
   first with the epoch's *unlabeled* scans. Most frameworks ignore it;
   LT-KNN uses it for its imputation + refit step (the paper stresses
   LT-KNN "requires re-training every month with newly collected
   (anonymous) fingerprint samples" while STONE needs nothing).
3. ``predict(rssi)`` maps raw scans to estimated coordinates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..datasets.fingerprint import FingerprintDataset
from ..geometry.floorplan import Floorplan


class Localizer(ABC):
    """Base class for fingerprinting-based indoor localization frameworks."""

    #: Human-readable framework name used in reports and figures.
    name: str = "localizer"

    #: Whether the framework re-trains/refits after deployment. Purely
    #: informational — reports surface it because re-training cost is a
    #: central axis of the paper's comparison.
    requires_retraining: bool = False

    #: Whether ``predict`` treats query rows independently, so a batched
    #: call equals the row-by-row calls concatenated. Frameworks whose
    #: online phase is stateful over the scan sequence (GIFT's walk
    #: decoding) must leave this False; the evaluation engine then feeds
    #: each epoch as one ordered sequence instead of chunking it, and
    #: the serving layer dispatches requests one at a time instead of
    #: micro-batching them across clients.
    batched_inference: bool = False

    #: Whether the framework's reference radio map can be sharded with a
    #: :class:`repro.index.IndexConfig` (``index=`` constructor arg).
    #: True for the frameworks whose online phase is nearest-neighbour
    #: search over a stored reference set (STONE, KNN, LT-KNN); False
    #: for pure forward-pass models (SCNN, WiDeep, PL-Ensemble) and
    #: sequential decoders (GIFT), which have no radio map to shard.
    supports_index: bool = False

    #: Whether the framework's hot distance path runs through the
    #: :mod:`repro.kernels` backend seam (``backend=`` constructor
    #: arg). True exactly for the radio-map frameworks above; pure
    #: forward-pass models always execute the reference arithmetic.
    supports_kernel_backend: bool = False

    def __init__(self) -> None:
        self._fitted = False

    # -- lifecycle ---------------------------------------------------------

    @abstractmethod
    def fit(
        self,
        train: FingerprintDataset,
        floorplan: Floorplan,
        *,
        rng: np.random.Generator | None = None,
    ) -> Localizer:
        """Train on the offline dataset. Returns self."""

    def begin_epoch(self, epoch: int, unlabeled_rssi: np.ndarray) -> None:
        """Hook called before predicting a test epoch.

        ``unlabeled_rssi`` contains the epoch's scans *without* location
        labels — the "anonymous fingerprints" a deployed system observes
        for free. Default: no adaptation.
        """
        del epoch, unlabeled_rssi

    @abstractmethod
    def predict(self, rssi: np.ndarray) -> np.ndarray:
        """Estimate ``(n, 2)`` coordinates for raw ``(n, n_aps)`` dBm scans."""

    # -- index introspection -------------------------------------------------

    def index_describe(self) -> dict | None:
        """JSON-ready shard statistics of the fitted index, or ``None``."""
        return None

    @property
    def kernel_backend(self) -> str:
        """Resolved kernel-backend name driving the hot distance path.

        Frameworks without a backend seam always report ``"reference"``
        — their arithmetic is the reference arithmetic by construction.
        Seam-capable subclasses override this.
        """
        return "reference"

    @property
    def macs_per_row(self) -> int | None:
        """Multiply-adds one query row of ``predict`` costs.

        The serving layer runs a batch inline on its event loop while
        rows x this stays small, and on an inference thread above that
        (:func:`repro.serve.dispatcher.run_inline_or_offload`).
        ``None`` (the default) means unknown: always offload.
        """
        return None

    # -- helpers -----------------------------------------------------------

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{self.name}: predict() before fit()")

    @staticmethod
    def _check_rssi(rssi: np.ndarray, n_aps: int) -> np.ndarray:
        rssi = np.asarray(rssi, dtype=np.float64)
        if rssi.ndim == 1:
            rssi = rssi[None, :]
        if rssi.ndim != 2 or rssi.shape[1] != n_aps:
            raise ValueError(f"expected (n, {n_aps}) RSSI matrix, got {rssi.shape}")
        return rssi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(name={self.name!r})"


class BatchedLocalizer(Localizer):
    """A localizer whose ``predict`` is row-independent and batch-safe.

    The contract: for any ``(n, n_aps)`` query matrix,
    ``predict(queries)`` equals the per-row predictions stacked, and an
    empty ``(0, n_aps)`` matrix yields ``(0, 2)``. Subclasses implement
    ``predict`` fully vectorized; :meth:`predict_batched` adds uniform
    empty-input handling and optional memory-bounding chunking on top.

    This single guarantee carries the scaling stack: the evaluation
    engine chunks huge epochs and the serving dispatcher coalesces
    concurrent clients' scans into one call, both bit-identical to the
    unchunked/uncoalesced answers (see ``docs/architecture.md``).
    """

    batched_inference = True

    def predict_batched(
        self, rssi: np.ndarray, *, chunk_size: int | None = None
    ) -> np.ndarray:
        """Batched prediction with bounded peak memory.

        ``chunk_size`` caps how many query rows hit ``predict`` at once;
        ``None`` sends the whole batch through in one call.
        """
        self._check_fitted()
        rssi = np.asarray(rssi, dtype=np.float64)
        if rssi.ndim == 1:
            rssi = rssi[None, :]
        if rssi.shape[0] == 0:
            return np.empty((0, 2), dtype=np.float64)
        if chunk_size is None or rssi.shape[0] <= chunk_size:
            return self.predict(rssi)
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        return np.concatenate(
            [
                self.predict(rssi[i : i + chunk_size])
                for i in range(0, rssi.shape[0], chunk_size)
            ],
            axis=0,
        )
