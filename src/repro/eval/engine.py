"""Unified batched-inference / parallel evaluation engine.

The longitudinal protocol itself lives in :mod:`repro.eval.runner`
(fit once, walk the test epochs); this module is the layer that scales
it:

* :class:`ParallelRunner` fans (framework x suite) evaluation tasks out
  over a process pool with *deterministic per-task seeding* — a parallel
  run produces bit-identical results to the serial walk, in any
  completion order, because every task's RNG is derived from
  ``(seed, framework_index)`` exactly as the serial loop derives it.
* :class:`ResultCache` memoizes finished :class:`FrameworkResult` traces
  on disk, keyed by a content hash of the suite's arrays plus the task
  configuration, so regenerating a figure after an unrelated change
  skips every fit that is already on disk.

Every figure/ablation path (``repro.eval.experiments``, ``repro.cli``)
drives evaluation through this engine; ``jobs=1`` without a cache
degenerates to the plain serial protocol.

The content-hash helpers (:func:`suite_fingerprint`,
:func:`train_fingerprint`, :func:`task_fingerprint`) are shared with
the serving layer's :class:`repro.serve.store.ModelStore`, so artifact
identity is computed one way everywhere.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..baselines.registry import canonical_name, supports_candidate_index
from ..datasets.fingerprint import LongitudinalSuite
from ..index import IndexConfig, index_tag
from ..mp import mp_context
from .runner import Comparison, FrameworkResult, evaluate_localizer

#: Bumped when the evaluation protocol changes in a way that invalidates
#: previously cached traces. v2: cache keys carry the radio-map index
#: configuration, so sharded and exhaustive traces can never collide.
CACHE_SCHEMA_VERSION = 2


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    In containers/cgroups ``os.cpu_count()`` reports the host's cores;
    the scheduler affinity mask is what bounds real parallelism.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- content hashing ----------------------------------------------------------


def _update_array(digest: hashlib._Hash, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())


def _update_floorplan(digest: hashlib._Hash, suite: LongitudinalSuite) -> None:
    # The floorplan feeds fit() (STONE's floorplan-aware triplets), so
    # its geometry is result-affecting state like the arrays are.
    fp = suite.floorplan
    digest.update(fp.name.encode())
    digest.update(f"{fp.width}:{fp.height}:{fp.rp_spacing}".encode())
    _update_array(digest, fp.reference_points)
    for wall in fp.walls.walls:
        digest.update(
            f"{tuple(wall.a)}:{tuple(wall.b)}:{wall.material}".encode()
        )


def _update_train(digest: hashlib._Hash, suite: LongitudinalSuite) -> None:
    digest.update(suite.name.encode())
    _update_floorplan(digest, suite)
    for arr in (
        suite.train.rssi,
        suite.train.rp_indices,
        suite.train.locations,
    ):
        _update_array(digest, arr)


def train_fingerprint(suite: LongitudinalSuite) -> str:
    """Content hash of everything that can affect a *fitted model*.

    Covers the suite name (it selects per-floorplan configuration), the
    floorplan geometry and the offline training arrays — but *not* the
    test epochs, which only matter to evaluation traces. This is the
    artifact-identity key the serving layer's ``ModelStore`` uses: two
    suites with identical offline data produce interchangeable fitted
    localizers even when their longitudinal test sequences differ.
    """
    digest = hashlib.sha256()
    _update_train(digest, suite)
    return digest.hexdigest()


def suite_fingerprint(suite: LongitudinalSuite) -> str:
    """Content hash of everything in a suite that can affect results."""
    digest = hashlib.sha256()
    _update_train(digest, suite)
    for label, ds in zip(suite.epoch_labels, suite.test_epochs):
        digest.update(label.encode())
        _update_array(digest, ds.rssi)
        _update_array(digest, ds.locations)
    return digest.hexdigest()


def task_fingerprint(
    framework: str,
    data_hash: str,
    *,
    seed: int,
    fast: bool,
    seed_index: int = 0,
    schema_tag: str | None = None,
    index: IndexConfig | None = None,
    backend: str | None = None,
) -> str:
    """Digest identifying one deterministic (framework, data, config) unit.

    The shared cache-key helper: :meth:`EvalTask.cache_key` feeds it the
    full :func:`suite_fingerprint` (traces depend on the test epochs);
    the serving layer's ``ModelStore`` feeds it :func:`train_fingerprint`
    (fitted state depends only on the offline data). ``framework`` may
    be an alias; it is canonicalized before hashing. ``seed_index`` is
    the positional component of the engine's per-task seeding
    (``rng([seed, seed_index])``); single-model consumers leave it 0.

    ``index`` is the radio-map index configuration the model was (or
    will be) fitted with — its canonical tag is part of the digest, so
    a sharded fit and an exhaustive fit of the same suite address
    different artifacts (``None`` hashes as ``"exhaustive"``).

    ``backend`` is the kernel backend (:mod:`repro.kernels`) the hot
    distance path runs on. It feeds the digest *only when it can change
    results*: the bit-identical ``reference`` backend hashes exactly
    like the pre-seam scheme, so every artifact computed before
    the seam existed stays addressable.

    ``schema_tag`` names the artifact layout the key addresses; the
    default is this module's result-trace schema. Consumers with their
    own payload format (the model store) pass their own tag so bumping
    one schema never invalidates the other's artifacts.
    """
    digest = hashlib.sha256()
    digest.update((schema_tag or f"v{CACHE_SCHEMA_VERSION}").encode())
    digest.update(data_hash.encode())
    digest.update(canonical_name(framework).encode())
    digest.update(f"{seed}:{seed_index}:{fast}".encode())
    digest.update(index_tag(index).encode())
    if backend is not None:
        from ..kernels import backend_changes_results, canonical_backend_name

        backend = canonical_backend_name(backend)
        if backend_changes_results(backend):
            digest.update(f"backend:{backend}".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class EvalTask:
    """One (framework, suite) evaluation unit of the fan-out.

    ``index`` is normalized at task-creation time: frameworks whose
    ``supports_index`` capability is False always carry ``None`` here,
    so their cache keys stay index-independent (a GIFT trace computed
    during a sharded sweep is reusable in an exhaustive one).
    """

    framework: str
    suite_name: str
    seed: int
    seed_index: int
    fast: bool
    chunk_size: int | None = None
    index: IndexConfig | None = None

    def spec(self):
        """This task's public :class:`repro.api.LocalizerSpec` view.

        The engine constructs its localizers through the same typed
        spec clients use, so the two paths cannot drift.
        """
        # Local import: repro.api.session pulls in the serving layer,
        # which imports this module — resolving the spec lazily keeps
        # the import graph acyclic in both directions.
        from ..api.config import LocalizerSpec

        return LocalizerSpec(
            framework=self.framework,
            suite_name=self.suite_name,
            fast=self.fast,
            seed=self.seed,
            index=self.index,
        )

    def cache_key(self, suite_hash: str) -> str:
        """Digest identifying this task's *result* (chunking excluded:
        it bounds memory, not values; the index config is included —
        probing changes values)."""
        return task_fingerprint(
            self.framework,
            suite_hash,
            seed=self.seed,
            fast=self.fast,
            seed_index=self.seed_index,
            index=self.index,
        )


# -- result cache -------------------------------------------------------------


class ResultCache:
    """Disk memo of finished framework traces, one pickle per task.

    The key is a content hash (see :meth:`EvalTask.cache_key`), so a
    hit is only possible when the suite's arrays, the framework, the
    seed and the fast flag all match — there is no staleness to manage,
    only disk space.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    def get(self, key: str) -> FrameworkResult | None:
        """Cached trace for ``key``, or ``None`` on a miss.

        A corrupt or unreadable entry (truncated pickle, stale schema)
        counts as a miss — the caller recomputes and overwrites it.
        """
        path = self._path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ValueError, IndexError, ImportError):
            # A truncated or stale-schema entry is a miss, not an error.
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: FrameworkResult) -> None:
        """Store a finished trace under ``key`` (atomic rename write)."""
        tmp = self._path(key).with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(self._path(key))

    def clear(self) -> int:
        """Delete all cached entries; returns how many were removed."""
        n = 0
        for path in self.cache_dir.glob("*.pkl"):
            path.unlink()
            n += 1
        return n


# -- task execution -----------------------------------------------------------


def run_task(task: EvalTask, suite: LongitudinalSuite) -> FrameworkResult:
    """Fit + longitudinally evaluate one framework (process-pool safe).

    The RNG is seeded from ``(seed, seed_index)`` exactly as the serial
    comparison loop seeds it, so results are independent of *where* and
    *when* the task runs.
    """
    localizer = task.spec().build()
    rng = np.random.default_rng([task.seed, task.seed_index])
    return evaluate_localizer(
        localizer, suite, rng=rng, chunk_size=task.chunk_size
    )


#: Per-worker suite registry, populated once by the pool initializer so
#: each task payload is just the (tiny) EvalTask instead of re-pickling
#: the suite's arrays for every task.
_WORKER_SUITES: dict[str, LongitudinalSuite] = {}


def _init_worker(suites: dict[str, LongitudinalSuite]) -> None:
    global _WORKER_SUITES
    _WORKER_SUITES = suites


def _run_task_in_worker(task: EvalTask) -> FrameworkResult:
    return run_task(task, _WORKER_SUITES[task.suite_name])


# -- the engine ---------------------------------------------------------------


class ParallelRunner:
    """Fan (framework x suite) evaluations out over a process pool.

    Parameters
    ----------
    jobs:
        Worker process count. ``1`` (default) runs everything inline —
        no pool, no pickling — and is the reference serial behaviour.
        ``0`` means *auto*: use every CPU the process is allowed to run
        on (affinity-aware, so a 1-CPU container stays serial instead of
        paying pool overhead for no parallelism). An explicit ``N > 1``
        is honoured as given.
    chunk_size:
        Per-predict query block size forwarded to batch-safe
        localizers; bounds peak inference memory on huge epochs.
    cache_dir:
        When set, finished traces are memoized here and repeated runs
        with identical inputs skip the fit entirely.
    index:
        Radio-map index configuration applied to every framework that
        supports sharding (``supports_index`` capability flag);
        frameworks without a reference radio map run unchanged. Cache
        keys include the per-task (normalized) config.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        chunk_size: int | None = None,
        cache_dir: str | Path | None = None,
        index: IndexConfig | None = None,
    ) -> None:
        if jobs < 0:
            raise ValueError("jobs must be positive, or 0 for auto")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.jobs = int(jobs) if jobs else available_cpus()
        self.chunk_size = chunk_size
        self.index = index
        self.cache: ResultCache | None = (
            ResultCache(cache_dir) if cache_dir else None
        )

    # -- single suite ------------------------------------------------------

    def run(
        self,
        suite: LongitudinalSuite,
        framework_names: Sequence[str],
        *,
        seed: int = 0,
        fast: bool = False,
    ) -> Comparison:
        """Evaluate several frameworks on one suite (the Fig. 5/6 shape)."""
        return self.run_suites([suite], framework_names, seed=seed, fast=fast)[
            suite.name
        ]

    # -- frameworks x suites ----------------------------------------------

    def run_suites(
        self,
        suites: Sequence[LongitudinalSuite],
        framework_names: Sequence[str],
        *,
        seed: int = 0,
        fast: bool = False,
    ) -> dict[str, Comparison]:
        """Evaluate the full frameworks x suites grid.

        Returns ``{suite.name: Comparison}`` with framework order
        preserved. Task seeding is per (suite, framework-index), so each
        suite's comparison is bit-identical to a serial
        ``compare_frameworks`` call on that suite.
        """
        names = [suite.name for suite in suites]
        if len(set(names)) != len(names):
            raise ValueError(
                f"suite names must be unique within one run, got {names}"
            )
        tasks: list[tuple[EvalTask, LongitudinalSuite]] = []
        for suite in suites:
            for i, name in enumerate(framework_names):
                # Normalize per framework: index-less frameworks carry
                # None so their cache keys stay index-independent.
                task_index = (
                    self.index
                    if self.index is not None and supports_candidate_index(name)
                    else None
                )
                tasks.append(
                    (
                        EvalTask(
                            framework=name,
                            suite_name=suite.name,
                            seed=seed,
                            seed_index=i,
                            fast=fast,
                            chunk_size=self.chunk_size,
                            index=task_index,
                        ),
                        suite,
                    )
                )
        results = self._execute(tasks)
        comparisons: dict[str, Comparison] = {}
        for (_task, suite), result in zip(tasks, results):
            comparison = comparisons.setdefault(
                suite.name, Comparison(suite=suite.name)
            )
            comparison.results[result.framework] = result
        return comparisons

    # -- execution core ----------------------------------------------------

    def _execute(
        self, tasks: Sequence[tuple[EvalTask, LongitudinalSuite]]
    ) -> list[FrameworkResult]:
        results: list[FrameworkResult | None] = [None] * len(tasks)
        pending: list[int] = []
        suite_hashes: dict[int, str] = {}
        for pos, (task, suite) in enumerate(tasks):
            if self.cache is not None:
                suite_hash = suite_hashes.setdefault(
                    id(suite), suite_fingerprint(suite)
                )
                cached = self.cache.get(task.cache_key(suite_hash))
                if cached is not None:
                    results[pos] = cached
                    continue
            pending.append(pos)
        if pending:
            workers = min(self.jobs, len(pending))
            if workers > 1:
                # Each worker receives the suites once (initializer)
                # rather than once per task; payloads stay tiny.
                suites = {tasks[pos][1].name: tasks[pos][1] for pos in pending}
                # The start method honors $REPRO_MP_START (see
                # repro.mp) so CI exercises this fan-out under both
                # fork and spawn, matching macOS/Windows defaults.
                with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=mp_context(),
                    initializer=_init_worker,
                    initargs=(suites,),
                ) as pool:
                    fresh = list(
                        pool.map(
                            _run_task_in_worker,
                            [tasks[pos][0] for pos in pending],
                        )
                    )
            else:
                fresh = [run_task(*tasks[pos]) for pos in pending]
            for pos, result in zip(pending, fresh):
                results[pos] = result
                if self.cache is not None:
                    task, suite = tasks[pos]
                    self.cache.put(
                        task.cache_key(suite_hashes[id(suite)]), result
                    )
        return results  # type: ignore[return-value]
