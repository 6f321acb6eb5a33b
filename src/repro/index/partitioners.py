"""Reference-set partitioners: floorplan regions and a coarse quantizer.

Both partitioners map every reference row to exactly one shard and
return the same structure — a list of sorted row-index arrays — so the
:class:`~repro.index.sharded.ShardedRadioMap` built on top is agnostic
to how the shards were drawn:

* :func:`region_partition` cuts the floorplan's bounding box into a
  near-square grid of cells (geometry from
  :class:`repro.geometry.floorplan.Floorplan`) and assigns each
  reference row by its capture location. Physically adjacent
  fingerprints — which are also the radio-similar ones — land in the
  same shard.
* :func:`kmeans_partition` runs a small deterministic k-means (Lloyd's
  algorithm, k-means++-style seeding from an explicit RNG) directly on
  the RSSI/embedding vectors — the classic IVF coarse quantizer. It
  needs no geometry, so it also covers reference sets whose locations
  are unknown or unhelpful.

Empty shards are dropped (a grid cell with no reference points, a
k-means cluster that lost all members), so callers may receive fewer
shards than requested; singleton shards are legal.
"""

from __future__ import annotations


import numpy as np

from ..geometry.floorplan import Floorplan
from ..kernels.reference import squared_distances


def _grid_dims(n_shards: int, width: float, height: float) -> tuple[int, int]:
    """Grid (nx, ny) with nx*ny <= n_shards, cells as square as possible.

    The cap matters: callers promise at most ``n_shards`` shards (the
    ``n_probe >= n_shards`` full-probe identity guarantee leans on it),
    so the grid rounds *down*, never up.
    """
    aspect = width / height if height > 0 else 1.0
    nx = max(1, min(n_shards, int(round(np.sqrt(n_shards * aspect)))))
    ny = max(1, n_shards // nx)
    return nx, ny


def region_partition(
    locations: np.ndarray,
    n_shards: int,
    *,
    floorplan: Floorplan | None = None,
) -> list[np.ndarray]:
    """Partition reference rows into floorplan grid-cell shards.

    ``locations`` is the ``(n, 2)`` capture coordinates of the
    reference rows. With a ``floorplan``, the grid spans its
    ``[0, width] x [0, height]`` bounds; without one, the bounding box
    of the locations. Points exactly on an interior cell boundary
    belong to the higher cell (``floor`` of the scaled coordinate);
    points on the outer edge are clamped into the last cell, so every
    row is assigned exactly once.
    """
    locations = np.asarray(locations, dtype=np.float64)
    if locations.ndim != 2 or locations.shape[1] != 2:
        raise ValueError(f"locations must be (n, 2), got {locations.shape}")
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    n = locations.shape[0]
    if n == 0:
        return []
    if floorplan is not None:
        x0, y0 = 0.0, 0.0
        x1, y1 = float(floorplan.width), float(floorplan.height)
    else:
        x0, y0 = locations.min(axis=0)
        x1, y1 = locations.max(axis=0)
    nx, ny = _grid_dims(min(n_shards, n), x1 - x0 or 1.0, y1 - y0 or 1.0)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    cx = np.clip(
        ((locations[:, 0] - x0) / span_x * nx).astype(np.int64), 0, nx - 1
    )
    cy = np.clip(
        ((locations[:, 1] - y0) / span_y * ny).astype(np.int64), 0, ny - 1
    )
    cell = cy * nx + cx
    # unique() sorts, so shard order is deterministic; rows ascend.
    return [np.flatnonzero(cell == c) for c in np.unique(cell)]


def kmeans_partition(
    vectors: np.ndarray,
    n_shards: int,
    *,
    seed: int = 0,
    n_iter: int = 12,
) -> list[np.ndarray]:
    """Coarse-quantize reference vectors into k-means cluster shards.

    Deterministic: seeding and iteration count are fixed by the
    arguments, and ties in the assignment step break toward the lowest
    cluster id (``argmin``). Clusters that lose every member are
    dropped from the result rather than re-seeded, so the shard count
    can come back smaller than requested.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be (n, d), got {vectors.shape}")
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    n = vectors.shape[0]
    if n == 0:
        return []
    k = min(n_shards, n)
    rng = np.random.default_rng([seed, n, vectors.shape[1]])
    # k-means++-style seeding: spread the initial centers out so a bad
    # draw cannot collapse most of the map into one shard.
    centers = np.empty((k, vectors.shape[1]), dtype=np.float64)
    centers[0] = vectors[int(rng.integers(n))]
    d2 = ((vectors - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:  # all remaining points coincide with a center
            centers[j:] = vectors[int(rng.integers(n))]
            break
        centers[j] = vectors[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, ((vectors - centers[j]) ** 2).sum(axis=1))
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(max(1, n_iter)):
        # (n, k) squared distances in one shot; k is small by design.
        new_assign = squared_distances(vectors, centers).argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = vectors[assign == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
    return [
        np.flatnonzero(assign == j)
        for j in range(k)
        if (assign == j).any()
    ]
