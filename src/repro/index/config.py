"""Index configuration shared by every layer that names an index.

One small frozen dataclass travels from the CLI down to the fitted
:class:`~repro.core.knn_head.KNNHead`: it says *how* the reference
radio map should be partitioned (``kind``), into how many shards
(``n_shards``), how many shards a query probes (``n_probe``) and which
seed drives the coarse quantizer's k-means. Its :meth:`tag` string is
the canonical cache-key component — the evaluation engine's
``ResultCache`` and the serving layer's ``ModelStore`` both hash it, so
a sharded and an exhaustive fit of the same suite can never collide.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..spec_fields import POSITIVE, Spec, spec_field

#: Index kinds the partitioner layer implements.
INDEX_KINDS = ("exhaustive", "region", "kmeans")


def _canonical_backend(name: str | None) -> str | None:
    # Canonicalize (and validate) eagerly so equal behaviour always
    # means equal config objects and equal tags. Local import:
    # repro.kernels reaches back into this package for the shared
    # distance kernel.
    from ..kernels import canonical_backend_name

    return None if name is None else canonical_backend_name(name)


@dataclass(frozen=True)
class IndexConfig(Spec):
    """How the reference fingerprint set is partitioned and probed.

    This one class is also the public spec :class:`repro.api.IndexSpec`
    (the same object under both names): its dict round-trip comes from
    :class:`~repro.spec_fields.Spec` and its :meth:`fingerprint` is
    :meth:`tag`. ``kind="exhaustive"`` means *no sharding* and is
    equivalent to passing no index at all (see :func:`engine_index`).

    Attributes
    ----------
    kind:
        ``"exhaustive"`` (score every reference row — today's behaviour,
        bit-identical), ``"region"`` (floorplan grid-cell shards) or
        ``"kmeans"`` (coarse quantizer over RSSI/embedding vectors).
    n_shards:
        Target shard count. Region partitioning may produce fewer
        (empty grid cells are dropped); k-means may produce fewer when
        clusters collapse.
    n_probe:
        Shards scored per query. ``n_probe >= n_shards`` degenerates to
        exhaustive search (and is bit-identical to it); smaller values
        trade a little recall for sub-linear distance work.
    seed:
        Seed for the coarse quantizer's k-means iterations (ignored by
        the region partitioner).
    backend:
        Kernel backend (:mod:`repro.kernels`) for the *probe* distance
        blocks — which shards a query scores. ``None`` inherits the
        owning head's backend. Participates in :meth:`tag` only when it
        can change results (a bit-identical backend probes identically).
    """

    kind: str = spec_field(
        "exhaustive",
        check=(
            lambda v: v in INDEX_KINDS,
            f"index kind must be one of {INDEX_KINDS}, got {{value!r}}",
        ),
        flag="--index",
        choices=INDEX_KINDS,
        help=(
            "shard the reference radio map so each query scores only "
            "its probed shards: 'region' = floorplan grid cells, "
            "'kmeans' = coarse quantizer over RSSI/embedding vectors "
            "(default: exhaustive, score everything — today's exact "
            "behaviour; applies to STONE/KNN/LT-KNN, other frameworks "
            "run unchanged)"
        ),
    )
    n_shards: int = spec_field(
        16,
        check=POSITIVE,
        flag=True,
        help="target shard count for --index region/kmeans (default: 16)",
    )
    n_probe: int = spec_field(
        4,
        check=POSITIVE,
        flag=True,
        help=(
            "shards scored per query; n-probe >= n-shards is "
            "bit-identical to exhaustive search (default: 4)"
        ),
    )
    seed: int = 0
    backend: str | None = spec_field(None, convert=_canonical_backend)

    @property
    def is_exhaustive(self) -> bool:
        """True when this configuration performs no sharding at all."""
        return self.kind == "exhaustive"

    def tag(self) -> str:
        """Canonical string naming this configuration in cache keys.

        Canonical means *behaviorally* normalized, so configs that
        cannot differ in results share one tag (one refit, one cached
        artifact): exhaustive configs all tag ``"exhaustive"``
        regardless of the unused shard parameters, ``n_probe`` is
        clamped to ``n_shards`` (the index clamps it the same way), and
        the seed appears only for ``kmeans`` (the region partitioner
        never reads it).
        """
        if self.is_exhaustive:
            return "exhaustive"
        probe = min(self.n_probe, self.n_shards)
        tag = f"{self.kind}:s{self.n_shards}:p{probe}"
        if self.kind == "kmeans":
            tag += f":r{self.seed}"
        if self.backend is not None:
            from ..kernels import backend_changes_results

            # Backend participates only when it can change which shards
            # are probed; bit-identical backends share the legacy tag.
            if backend_changes_results(self.backend):
                tag += f":k{self.backend}"
        return tag

    #: An index's identity is the cache-key tag every layer hashes.
    fingerprint = tag


#: The do-nothing default: score the full reference matrix.
EXHAUSTIVE = IndexConfig()


def index_tag(config: IndexConfig | None) -> str:
    """Cache-key tag for an optional config (``None`` = exhaustive)."""
    return (config or EXHAUSTIVE).tag()


def engine_index(config: IndexConfig | None) -> IndexConfig | None:
    """Normalize to the engine's convention (``None`` = exhaustive).

    The cache/store layers treat "no index" and "exhaustive index" as
    one artifact; this is the single conversion point that keeps every
    caller on that convention.
    """
    if config is None or config.is_exhaustive:
        return None
    return config
