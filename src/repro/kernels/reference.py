"""The exact float64 backends: ``reference`` and ``blas64``.

``reference`` is *today's* shipped arithmetic, verbatim: float64 rows,
precomputed reference norms, and the one shared
:func:`squared_distances` kernel — the path every bit-identity pin in
the repo compares against.

:func:`squared_distances` is the one squared-Euclidean-distance kernel
every search path shares. The index layer's bit-identity guarantee
(full-probe sharded search == exhaustive search) holds because both
paths run *the same float ops in the same order*. Keeping the kernel in
exactly one place makes that provable: ``KNNHead``'s exhaustive and
sharded paths, the shard centroid probing and the k-means partitioner
all call it, so a numeric tweak (dtype, clamp, BLAS ordering) can never
drift one copy away from the others.

``blas64`` is the matmul-decomposed kernel at full precision. It runs
the identical float64 ops in the identical order on the identical
layouts, so it is bit-for-bit the reference path (hypothesis-pinned by
``tests/kernels/test_backends.py``); it exists so the seam itself — the
packing, the subset gathers, the dispatch — is pinned against drift
independently of any precision change.
"""

from __future__ import annotations

import numpy as np

from .base import KernelBackend, PackedReferences


def squared_distances(
    queries: np.ndarray,
    refs: np.ndarray,
    refs_sq: np.ndarray | None = None,
) -> np.ndarray:
    """``(n, m)`` squared Euclidean distances, clamped at zero.

    ``refs_sq`` is the precomputed ``(refs * refs).sum(axis=1)`` —
    pass it on hot paths to skip recomputing the reference norms.
    """
    if refs_sq is None:
        refs_sq = (refs * refs).sum(axis=1)
    d2 = (
        (queries * queries).sum(axis=1)[:, None]
        + refs_sq[None, :]
        - 2.0 * (queries @ refs.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


class ReferenceBackend(KernelBackend):
    """Shipped float64 arithmetic behind the seam (bit-identical)."""

    name = "reference"
    changes_results = False

    def pack(self, refs: np.ndarray) -> PackedReferences:
        refs = np.ascontiguousarray(refs, dtype=np.float64)
        return PackedReferences(
            backend=self.name,
            n_rows=int(refs.shape[0]),
            n_dims=int(refs.shape[1]),
            arrays={
                "refs": refs,
                # The exact precomputation KNNHead.fit has always done.
                "refs_sq": (refs * refs).sum(axis=1),
            },
        )

    def take(self, packed: PackedReferences, rows: np.ndarray) -> PackedReferences:
        return PackedReferences(
            backend=self.name,
            n_rows=int(rows.shape[0]),
            n_dims=packed.n_dims,
            arrays={
                "refs": packed.arrays["refs"][rows],
                "refs_sq": packed.arrays["refs_sq"][rows],
            },
        )

    def sq_distances(
        self, queries: np.ndarray, packed: PackedReferences
    ) -> np.ndarray:
        return squared_distances(
            queries, packed.arrays["refs"], packed.arrays["refs_sq"]
        )


class Blas64Backend(ReferenceBackend):
    """Full-precision matmul decomposition — bit-identical by contract.

    Same float64 arrays, same op order, same clamp as ``reference``
    (both bottom out in :func:`squared_distances`,
    whose ``q @ refs.T`` is already a BLAS dgemm); registering it
    separately keeps the identity claim *testable* — the hypothesis
    property compares two genuinely distinct registry entries.
    """

    name = "blas64"
    changes_results = False
