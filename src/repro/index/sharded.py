"""Sharded radio-map index: sub-linear candidate selection for KNN.

Every framework in this reproduction bottoms out in nearest-neighbour
search over a dense reference fingerprint matrix, so each query pays
O(n_reference) distance work. A :class:`CandidateIndex` cuts that down:
the reference rows are partitioned into shards
(:mod:`repro.index.partitioners`), each shard gets an RSSI/embedding
centroid, and a query scores only the ``n_probe`` shards whose
centroids are nearest — the IVF recipe, specialised to radio maps.

Two concrete indexes:

* :class:`ExhaustiveIndex` — one shard holding every row. The KNN head
  treats it exactly like having no index at all, so results are
  bit-identical to the pre-index code by construction.
* :class:`ShardedRadioMap` — the real thing, built from an
  :class:`~repro.index.config.IndexConfig` by :func:`build_index`.
  When ``n_probe >= n_shards`` every query probes every shard and the
  candidate set is the full row range in ascending order, which makes
  full-probe results bit-identical to exhaustive search (the gate
  ``benchmarks/bench_index.py`` enforces).

The index answers *which rows to score*; the distance/top-k kernel
stays in :class:`repro.core.knn_head.KNNHead`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from ..geometry.floorplan import Floorplan
from ..kernels.reference import squared_distances
from .config import IndexConfig
from .partitioners import kmeans_partition, region_partition


class CandidateIndex(ABC):
    """Which reference rows should be scored for a batch of queries."""

    #: Mirrors :attr:`IndexConfig.kind` for reporting.
    kind: str = "exhaustive"

    @property
    @abstractmethod
    def n_rows(self) -> int:
        """Total reference rows the index covers."""

    @property
    @abstractmethod
    def n_shards(self) -> int:
        """Number of (non-empty) shards."""

    @property
    @abstractmethod
    def n_probe(self) -> int:
        """Shards scored per query (clamped to ``n_shards``)."""

    @abstractmethod
    def probe(self, queries: np.ndarray) -> np.ndarray:
        """``(n, n_probe)`` shard ids per query, ascending within a row.

        Ascending ids make the row a canonical grouping key: two
        queries probing the same shard set compare equal, whatever the
        centroid distance order was.
        """

    @abstractmethod
    def rows_for(self, shard_ids: Sequence[int]) -> np.ndarray:
        """Sorted union of the reference rows in the given shards."""

    @abstractmethod
    def primary_shard(self, queries: np.ndarray) -> np.ndarray:
        """``(n,)`` nearest-centroid shard id per query (for routing)."""

    @abstractmethod
    def describe(self) -> dict:
        """JSON-ready shard statistics for ``/models`` and reports."""


class ExhaustiveIndex(CandidateIndex):
    """The no-op index: a single shard holding every reference row."""

    kind = "exhaustive"

    def __init__(self, n_rows: int) -> None:
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        self._n_rows = int(n_rows)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_shards(self) -> int:
        return 1

    @property
    def n_probe(self) -> int:
        return 1

    def probe(self, queries: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(queries))
        return np.zeros((q.shape[0], 1), dtype=np.int64)

    def rows_for(self, shard_ids: Sequence[int]) -> np.ndarray:
        return np.arange(self._n_rows, dtype=np.int64)

    def primary_shard(self, queries: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(queries))
        return np.zeros(q.shape[0], dtype=np.int64)

    def describe(self) -> dict:
        return {"kind": self.kind, "n_shards": 1, "n_probe": 1,
                "n_rows": self._n_rows}


class ShardedRadioMap(CandidateIndex):
    """Partitioned reference set with nearest-centroid probing.

    Parameters
    ----------
    shard_rows:
        One sorted row-index array per (non-empty) shard; together they
        must partition ``range(n_rows)`` exactly.
    vectors:
        The ``(n_rows, d)`` reference vectors the shards were drawn
        over. Centroids are per-shard means of these vectors, in the
        *same space queries arrive in* — raw clipped RSSI for the KNN
        baselines, embeddings for STONE — so probing is one small
        ``(n, n_shards)`` distance block.
    n_probe:
        Shards scored per query, clamped to the shard count.
    kind:
        Partitioner name, for reporting and cache tags.
    backend:
        Kernel-backend name (:mod:`repro.kernels`) for the centroid
        probe distances; ``None`` is the bit-identical reference
        kernel. Full probing never computes a distance, so it stays
        identical across backends by construction.
    """

    def __init__(
        self,
        shard_rows: list[np.ndarray],
        vectors: np.ndarray,
        *,
        n_probe: int,
        kind: str,
        backend: str | None = None,
    ) -> None:
        if not shard_rows:
            raise ValueError("a sharded index needs at least one shard")
        if n_probe <= 0:
            raise ValueError("n_probe must be positive")
        vectors = np.asarray(vectors, dtype=np.float64)
        self._shard_rows = [
            np.sort(np.asarray(rows, dtype=np.int64)) for rows in shard_rows
        ]
        counted = np.concatenate(self._shard_rows)
        if counted.size != vectors.shape[0] or (
            np.sort(counted).size
            and not np.array_equal(np.sort(counted), np.arange(vectors.shape[0]))
        ):
            raise ValueError("shard_rows must partition the reference rows")
        self.kind = str(kind)
        self._n_rows = int(vectors.shape[0])
        self._n_probe = min(int(n_probe), len(self._shard_rows))
        self._centroids = np.stack(
            [vectors[rows].mean(axis=0) for rows in self._shard_rows]
        )
        self._centroid_sq = (self._centroids * self._centroids).sum(axis=1)
        # Probe kernel seam. Lazy import: repro.kernels reaches back
        # into this package for the shared distance function.
        from ..kernels import resolve_backend_name

        self._probe_backend = resolve_backend_name(backend)

    # -- geometry of the index ----------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_shards(self) -> int:
        return len(self._shard_rows)

    @property
    def n_probe(self) -> int:
        return self._n_probe

    def shard_sizes(self) -> np.ndarray:
        """Row count per shard."""
        return np.array([rows.size for rows in self._shard_rows])

    # -- probing --------------------------------------------------------------

    def _as_queries(self, queries: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if q.shape[1] != self._centroids.shape[1]:
            raise ValueError(
                f"queries must be (n, {self._centroids.shape[1]}), got {q.shape}"
            )
        return q

    def _centroid_sq_distances(self, queries: np.ndarray) -> np.ndarray:
        backend_name = self._probe_backend
        if backend_name == "reference":
            return squared_distances(
                self._as_queries(queries), self._centroids, self._centroid_sq
            )
        from ..kernels import get_backend

        backend = get_backend(backend_name)
        packed = getattr(self, "_packed_centroids", None)
        if packed is None or packed.backend != backend_name:
            packed = backend.pack(self._centroids)
            self._packed_centroids = packed
        return backend.sq_distances(self._as_queries(queries), packed)

    def probe(self, queries: np.ndarray) -> np.ndarray:
        if self._n_probe >= self.n_shards:
            # Full probe needs no centroid distances at all — every
            # query probes every shard.
            q = self._as_queries(queries)
            return np.broadcast_to(
                np.arange(self.n_shards, dtype=np.int64),
                (q.shape[0], self.n_shards),
            ).copy()
        d2 = self._centroid_sq_distances(queries)
        # Stable sort: deterministic shard choice on centroid-distance
        # ties. The selected ids are re-sorted ascending so identical
        # probe sets compare equal row-wise (canonical grouping key).
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : self._n_probe]
        return np.sort(nearest, axis=1).astype(np.int64)

    def rows_for(self, shard_ids: Sequence[int]) -> np.ndarray:
        ids = np.unique(np.asarray(shard_ids, dtype=np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= self.n_shards):
            raise IndexError(f"shard id out of range [0, {self.n_shards})")
        if ids.size == self.n_shards:
            return np.arange(self._n_rows, dtype=np.int64)
        # Shards are disjoint and internally sorted; the union of a few
        # sorted arrays merges with one concatenate + sort.
        return np.sort(np.concatenate([self._shard_rows[i] for i in ids]))

    def primary_shard(self, queries: np.ndarray) -> np.ndarray:
        d2 = self._centroid_sq_distances(queries)
        return d2.argmin(axis=1).astype(np.int64)

    # -- reporting -----------------------------------------------------------

    def describe(self) -> dict:
        sizes = self.shard_sizes()
        return {
            "kind": self.kind,
            "n_shards": self.n_shards,
            "n_probe": self._n_probe,
            "n_rows": self._n_rows,
            "probe_backend": self._probe_backend,
            "rows_per_shard": {
                "min": int(sizes.min()),
                "mean": round(float(sizes.mean()), 1),
                "max": int(sizes.max()),
            },
        }


def build_index(
    config: IndexConfig | None,
    vectors: np.ndarray,
    locations: np.ndarray,
    *,
    floorplan: Floorplan | None = None,
    backend: str | None = None,
) -> CandidateIndex:
    """Build the index an :class:`IndexConfig` describes over a reference set.

    ``vectors`` must be the same matrix queries are compared against
    (raw clipped RSSI or embeddings); ``locations`` are the rows'
    capture coordinates (used by the region partitioner only).
    ``backend`` is the owning head's kernel backend, used for probe
    distances unless the config names its own.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if config is None or config.is_exhaustive:
        return ExhaustiveIndex(vectors.shape[0])
    if config.kind == "region":
        shards = region_partition(
            locations, config.n_shards, floorplan=floorplan
        )
    elif config.kind == "kmeans":
        shards = kmeans_partition(
            vectors, config.n_shards, seed=config.seed
        )
    else:  # pragma: no cover - IndexConfig validates kinds
        raise ValueError(f"unknown index kind {config.kind!r}")
    if len(shards) <= 1:
        # Degenerate partition (all rows in one cell/cluster): the
        # exhaustive index is the honest description of what happens.
        return ExhaustiveIndex(vectors.shape[0])
    return ShardedRadioMap(
        shards,
        vectors,
        n_probe=config.n_probe,
        kind=config.kind,
        backend=config.backend if config.backend is not None else backend,
    )
