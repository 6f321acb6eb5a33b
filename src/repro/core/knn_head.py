"""Non-parametric KNN head over encoder embeddings (paper Sec. IV.A).

After the Siamese encoder is trained, every offline fingerprint is
embedded and the (embedding, RP) pairs form the deployment-time reference
set. Online, a query embedding is matched to its K nearest reference
embeddings; the predicted location is the majority-vote RP's coordinates
(classification, the paper's formulation) or the mean of the neighbours'
coordinates (regression variant, kept for ablations).

All query paths are fully batched: an ``(n, d)`` query matrix is
processed without per-row Python loops, in distance blocks of at most
``chunk_size`` queries so the ``(chunk, n_refs)`` distance matrix never
exceeds a bounded footprint. ``fit()`` precomputes the reference-side
tables (squared norms, RP label codes, first-row coordinates and the
per-RP column grouping) so every ``predict`` call is pure ndarray work.

With an :class:`~repro.index.IndexConfig`, ``fit()`` additionally
partitions the reference set into shards
(:class:`~repro.index.ShardedRadioMap`) and ``kneighbors`` scores only
the ``n_probe`` probed shards' rows per query instead of the full
reference matrix — sub-linear distance work at a small recall cost.
Probing ``n_probe >= n_shards`` shards covers every row and is
bit-identical to exhaustive search; :meth:`per_rp_distances` always
stays exhaustive (it needs the distance to *every* RP by definition).

The distance arithmetic itself lives behind the kernel-backend seam
(:mod:`repro.kernels`): ``fit()`` packs the reference set into the
selected backend's resident representation (float64 rows, transposed
float32, int8 codes) and every distance block — exhaustive, sharded and
:meth:`per_rp_distances` — runs through that one backend. The default
``reference`` backend is byte-for-byte the pre-seam float64 path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..index import ExhaustiveIndex, IndexConfig, build_index
from ..kernels import KernelBackend, resolve_backend

if TYPE_CHECKING:  # annotation-only: the head never constructs one
    from ..geometry.floorplan import Floorplan

#: Queries per distance block; bounds the (chunk, n_refs) scratch matrix.
DEFAULT_CHUNK_SIZE = 2048


class KNNHead:
    """K-nearest-neighbour localization head in embedding space."""

    def __init__(
        self,
        k: int = 3,
        *,
        mode: str = "classify",
        chunk_size: int | None = None,
        index: IndexConfig | None = None,
        backend: str | KernelBackend | None = None,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if mode not in ("classify", "regress"):
            raise ValueError("mode must be 'classify' or 'regress'")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.k = int(k)
        self.mode = mode
        self.chunk_size = int(chunk_size) if chunk_size else DEFAULT_CHUNK_SIZE
        self.index_config = index
        # ``None`` resolves through $REPRO_KERNEL_BACKEND, then the
        # bit-identical ``reference`` default (see repro.kernels).
        self._backend = resolve_backend(backend)
        self.backend_name = self._backend.name
        self._index = None
        self._packed = None
        self._embeddings: np.ndarray | None = None
        self._rp_indices: np.ndarray | None = None
        self._locations: np.ndarray | None = None
        # Precomputed in fit(); make every predict call loop-free.
        self._rp_labels: np.ndarray | None = None
        self._ref_codes: np.ndarray | None = None
        self._rp_coords: np.ndarray | None = None
        self._rp_col_order: np.ndarray | None = None
        self._rp_col_starts: np.ndarray | None = None

    def fit(
        self,
        embeddings: np.ndarray,
        rp_indices: np.ndarray,
        locations: np.ndarray,
        *,
        floorplan: "Floorplan" | None = None,
    ) -> KNNHead:
        """Store the reference set and build the per-RP index tables.

        ``floorplan`` only matters with a ``region`` index config: it
        supplies the grid bounds the partitioner cuts into cells
        (without it, the bounding box of ``locations`` is used).
        """
        embeddings = np.asarray(embeddings, dtype=np.float64)
        rp_indices = np.asarray(rp_indices, dtype=np.int64)
        locations = np.asarray(locations, dtype=np.float64)
        if embeddings.ndim != 2 or embeddings.shape[0] == 0:
            raise ValueError("embeddings must be a non-empty (n, d) matrix")
        if rp_indices.shape != (embeddings.shape[0],):
            raise ValueError("rp_indices must align with embeddings")
        if locations.shape != (embeddings.shape[0], 2):
            raise ValueError("locations must be (n, 2)")
        # The backend owns the resident representation. Exact backends
        # pack the float64 matrix itself (no copy), so keeping the
        # ``_embeddings`` alias costs nothing; bounded-error backends
        # hold a smaller layout and drop the float64 original — that
        # shrinkage is the quantized backend's whole point.
        self._packed = self._backend.pack(embeddings)
        self._embeddings = (
            embeddings if not self._backend.changes_results else None
        )
        self._rp_indices = rp_indices
        self._locations = locations
        # RP label codes: reference row -> dense [0, n_rps) code.
        labels, first_rows, codes = np.unique(
            rp_indices, return_index=True, return_inverse=True
        )
        self._rp_labels = labels
        self._ref_codes = codes.astype(np.int64)
        # Each RP's representative coordinates: its first reference row
        # (matches the pre-vectorization behaviour exactly).
        self._rp_coords = locations[first_rows]
        # Column grouping for per-RP min reductions: reference columns
        # sorted by RP code, plus each group's start offset.
        order = np.argsort(codes, kind="stable")
        self._rp_col_order = order
        self._rp_col_starts = np.searchsorted(
            codes[order], np.arange(labels.shape[0])
        )
        self._index = build_index(
            self.index_config,
            embeddings,
            locations,
            floorplan=floorplan,
            backend=self.backend_name,
        )
        return self

    def _require_fitted(self) -> None:
        if self._packed is None:
            raise RuntimeError("KNNHead used before fit()")

    @property
    def rp_labels(self) -> np.ndarray:
        """Sorted unique RP labels of the reference set."""
        self._require_fitted()
        return self._rp_labels

    @property
    def n_references(self) -> int:
        self._require_fitted()
        return int(self._packed.n_rows)

    @property
    def kernel_backend(self) -> str:
        """Canonical name of the distance-kernel backend in use."""
        return self.backend_name

    @property
    def packed_nbytes(self) -> int | None:
        """Resident bytes of the packed reference set (None pre-fit)."""
        return self._packed.nbytes if self._packed is not None else None

    # -- distance blocks ----------------------------------------------------

    def _as_queries(self, queries: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if q.ndim != 2 or (q.shape[0] and q.shape[1] != self._packed.n_dims):
            raise ValueError(
                f"queries must be (n, {self._packed.n_dims}), got {q.shape}"
            )
        return q

    def _sq_distances(self, q: np.ndarray) -> np.ndarray:
        """(n, n_refs) squared Euclidean distances, clipped at zero."""
        return self._backend.sq_distances(q, self._packed)

    def _chunks(self, n: int):
        step = self.chunk_size
        for start in range(0, n, step):
            yield start, min(start + step, n)

    def kneighbors(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(distances, indices) of the K nearest references per query.

        With a sharded index, only the probed shards' rows are scored
        (see :meth:`_kneighbors_indexed`); otherwise the full reference
        matrix is, in bounded-memory chunks.
        """
        self._require_fitted()
        q = self._as_queries(queries)
        k = min(self.k, self._packed.n_rows)
        if not isinstance(self._index, (type(None), ExhaustiveIndex)):
            return self._kneighbors_indexed(q, k)
        dist = np.empty((q.shape[0], k), dtype=np.float64)
        idx = np.empty((q.shape[0], k), dtype=np.int64)
        for start, stop in self._chunks(q.shape[0]):
            d2 = self._sq_distances(q[start:stop])
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
            rows = np.arange(d2.shape[0])[:, None]
            order = np.argsort(d2[rows, part], axis=1)
            block_idx = part[rows, order]
            idx[start:stop] = block_idx
            dist[start:stop] = np.sqrt(d2[rows, block_idx])
        return dist, idx

    def _kneighbors_indexed(
        self, q: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k restricted to each query's probed shards.

        Queries are grouped by their (canonically sorted) probe set, so
        every group shares one candidate row list and one gathered
        reference block. A group whose candidate union holds fewer than
        ``k`` rows falls back to the full reference matrix — exact
        results, never a short neighbour list. When probing covers all
        shards the candidate set is the identity permutation and the
        arithmetic matches the exhaustive path bit for bit.
        """
        n_refs = self._packed.n_rows
        dist = np.empty((q.shape[0], k), dtype=np.float64)
        idx = np.empty((q.shape[0], k), dtype=np.int64)
        if q.shape[0] == 0:
            return dist, idx
        shard_ids = self._index.probe(q)
        combos, inverse = np.unique(shard_ids, axis=0, return_inverse=True)
        for g in range(combos.shape[0]):
            members = np.flatnonzero(inverse == g)
            cand = self._index.rows_for(combos[g])
            if cand.size < k:
                cand = np.arange(n_refs, dtype=np.int64)
            full = cand.size == n_refs
            sub = self._packed if full else self._backend.take(self._packed, cand)
            for start, stop in self._chunks(members.shape[0]):
                rows = members[start:stop]
                d2 = self._backend.sq_distances(q[rows], sub)
                part = np.argpartition(d2, k - 1, axis=1)[:, :k]
                rr = np.arange(d2.shape[0])[:, None]
                order = np.argsort(d2[rr, part], axis=1)
                block_idx = part[rr, order]
                idx[rows] = cand[block_idx]
                dist[rows] = np.sqrt(d2[rr, block_idx])
        return dist, idx

    # -- index introspection ------------------------------------------------

    @property
    def candidate_index(self):
        """The fitted :class:`~repro.index.CandidateIndex` (None pre-fit)."""
        return self._index

    def index_describe(self) -> dict | None:
        """JSON-ready shard statistics, or ``None`` without an index."""
        if self._index is None:
            return None
        return self._index.describe()

    # -- batched voting -----------------------------------------------------

    def _vote_codes(self, idx: np.ndarray) -> np.ndarray:
        """Majority-vote RP *code* per query row, loop-free.

        Tie-break: the closest neighbour whose label's count equals the
        row maximum — identical to the per-row reference semantics
        (``kneighbors`` columns are distance-sorted).
        """
        codes = self._ref_codes[idx]  # (n, k) dense RP codes
        n, k = codes.shape
        counts = np.zeros((n, self._rp_labels.shape[0]), dtype=np.int64)
        np.add.at(counts, (np.arange(n)[:, None], codes), 1)
        max_count = counts.max(axis=1, keepdims=True)
        own_count = np.take_along_axis(counts, codes, axis=1)
        # First distance-sorted position whose label is a max-count winner.
        winner_pos = np.argmax(own_count == max_count, axis=1)
        return codes[np.arange(n), winner_pos]

    def predict_rp(self, queries: np.ndarray) -> np.ndarray:
        """Majority-vote RP label per query (ties -> nearest neighbour's RP)."""
        _, idx = self.kneighbors(queries)
        if idx.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return self._rp_labels[self._vote_codes(idx)]

    def per_rp_distances(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance from each query to the closest reference of every RP.

        Returns ``(rp_labels, distances)`` where ``rp_labels`` is the
        sorted unique RP labels of the reference set and ``distances`` is
        ``(n_queries, n_rps)``. This is the soft score the tracking
        subsystem turns into emission likelihoods: nearer reference
        fingerprints of an RP mean the user is more plausibly there.
        """
        self._require_fitted()
        q = self._as_queries(queries)
        labels = self._rp_labels
        out = np.empty((q.shape[0], labels.shape[0]), dtype=np.float64)
        for start, stop in self._chunks(q.shape[0]):
            d2 = self._sq_distances(q[start:stop])
            if d2.shape[0]:
                out[start:stop] = np.minimum.reduceat(
                    d2[:, self._rp_col_order], self._rp_col_starts, axis=1
                )
        return labels, np.sqrt(out)

    def predict_location(self, queries: np.ndarray) -> np.ndarray:
        """(n, 2) coordinates per query, by vote or neighbour averaging."""
        self._require_fitted()
        if self.mode == "classify":
            _, idx = self.kneighbors(queries)
            if idx.shape[0] == 0:
                return np.empty((0, 2), dtype=np.float64)
            return self._rp_coords[self._vote_codes(idx)]
        _, idx = self.kneighbors(queries)
        if idx.shape[0] == 0:
            return np.empty((0, 2), dtype=np.float64)
        return self._locations[idx].mean(axis=1)
