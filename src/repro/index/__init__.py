"""Sharded radio-map index: sub-linear candidate selection for KNN.

Public surface:

* :class:`IndexConfig` — the configuration object every layer passes
  around (CLI flags → registry → fitted heads → cache keys); the public
  :class:`repro.api.IndexSpec` is this same class.
  :func:`engine_index` normalizes an exhaustive config to ``None``.
* :func:`build_index` — construct the concrete index a config
  describes over a reference set.
* :class:`CandidateIndex` / :class:`ExhaustiveIndex` /
  :class:`ShardedRadioMap` — the interface and its implementations.
* :func:`region_partition` / :func:`kmeans_partition` — the
  partitioners, exposed for tests and custom indexes.
"""

from ..kernels.reference import squared_distances
from .config import EXHAUSTIVE, INDEX_KINDS, IndexConfig, engine_index, index_tag
from .partitioners import kmeans_partition, region_partition
from .sharded import (
    CandidateIndex,
    ExhaustiveIndex,
    ShardedRadioMap,
    build_index,
)

__all__ = [
    "EXHAUSTIVE",
    "INDEX_KINDS",
    "IndexConfig",
    "engine_index",
    "index_tag",
    "CandidateIndex",
    "ExhaustiveIndex",
    "ShardedRadioMap",
    "build_index",
    "kmeans_partition",
    "region_partition",
    "squared_distances",
]
