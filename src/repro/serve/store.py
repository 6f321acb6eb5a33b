"""Long-lived fitted-model store for the serving layer.

A server process fits (or loads) each localizer exactly once and keeps
it warm; every request after that is pure inference. The
:class:`ModelStore` owns that lifecycle:

* **Identity.** A fitted model is keyed by
  :class:`ModelKey` — ``(framework, train-content-hash, seed, fast)``.
  The hash is :func:`repro.eval.engine.train_fingerprint`: the suite
  name, floorplan geometry and offline training arrays, but *not* the
  test epochs, which never feed ``fit``. The digest reuses the same
  :func:`repro.eval.engine.task_fingerprint` scheme as the evaluation
  engine's :class:`~repro.eval.engine.ResultCache`, so artifact identity
  is content-addressed everywhere: identical inputs, identical key.
* **Warm memory cache.** ``get_or_fit`` returns the same fitted
  instance for repeated calls with the same key — one fit per process
  lifetime.
* **Disk persistence.** With a ``model_dir``, fitted state is pickled
  to ``<digest>.pkl`` after a fit and re-loaded on the next process
  start, so a server restart skips the refit entirely. Loaded artifacts
  are validated against the registry
  (:func:`repro.baselines.registry.framework_class`) before they are
  served: a payload whose localizer is not an instance of the registered
  class — a stale pickle from before a refactor, a mislabeled file — is
  treated as a miss and refit, never served.

Pickles execute code on load; point ``model_dir`` only at directories
you trust (the same caveat as the engine's result cache).
"""

from __future__ import annotations

import pickle
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..baselines.base import Localizer
from ..baselines.registry import canonical_name, framework_class
from ..datasets.fingerprint import LongitudinalSuite
from ..eval.engine import task_fingerprint, train_fingerprint
from ..index import IndexConfig, engine_index, index_tag

#: Bumped when the on-disk fitted-model payload layout changes.
#: v2: keys and payloads carry the radio-map index configuration, so a
#: sharded and an exhaustive fit of the same suite never collide.
#: (The kernel-backend seam did NOT bump this: payloads grew
#: ``backend``/``spec`` records — now *required*; the pre-seam grace
#: window is closed — and bit-identical backends share their digests.)
STORE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ModelKey:
    """Content-addressed identity of one fitted localizer.

    ``index`` is the radio-map index configuration the model was fitted
    with (``None`` = exhaustive); its canonical tag feeds the digest.
    ``backend`` is the kernel backend the radio map is packed for; it
    feeds the digest only when it can change results, so reference fits
    keep their pre-seam digests — and their artifacts.
    """

    framework: str
    train_hash: str
    seed: int
    fast: bool
    index: IndexConfig | None = None
    backend: str = "reference"

    @property
    def index_tag(self) -> str:
        """Canonical index tag (``"exhaustive"`` when unsharded)."""
        return index_tag(self.index)

    @property
    def digest(self) -> str:
        """Hex digest used as the memory-cache key and disk filename.

        Tagged with the *store's* schema version, so engine result-cache
        schema bumps never orphan persisted fitted models (and vice
        versa).
        """
        return task_fingerprint(
            self.framework,
            self.train_hash,
            seed=self.seed,
            fast=self.fast,
            schema_tag=f"store-v{STORE_SCHEMA_VERSION}",
            index=self.index,
            backend=self.backend,
        )


@dataclass
class StoreEntry:
    """One warm model plus its provenance."""

    key: ModelKey
    localizer: Localizer
    suite_name: str
    n_aps: int
    #: ``"fitted"`` (trained in this process) or ``"disk"`` (loaded).
    source: str
    #: Wall-clock seconds spent fitting (0.0 when loaded from disk).
    fit_seconds: float = 0.0
    #: How often ``get_or_fit`` returned this entry after creation.
    hits: int = field(default=0)
    #: The producing :class:`~repro.api.config.LocalizerSpec` as a
    #: ``to_dict`` payload. Required in persisted artifacts (the
    #: version-less grace window is closed); in-memory entries built
    #: by hand may leave it None.
    spec: dict | None = None

    def describe(self) -> dict:
        """JSON-ready summary for the ``/models`` endpoint."""
        return {
            "framework": self.key.framework,
            "suite": self.suite_name,
            "n_aps": self.n_aps,
            "train_hash": self.key.train_hash[:16],
            "digest": self.key.digest[:16],
            "seed": self.key.seed,
            "fast": self.key.fast,
            # The warm model's actual kernel backend (base-class
            # "reference" for frameworks without the seam).
            "backend": getattr(self.localizer, "kernel_backend", "reference"),
            "source": self.source,
            "fit_seconds": round(self.fit_seconds, 3),
            "hits": self.hits,
            # Shard statistics of the warm model's radio-map index
            # (None for frameworks without one).
            "index": self.localizer.index_describe(),
        }


class ModelStore:
    """Fit/load localizers once and keep them warm, keyed by content.

    Parameters
    ----------
    model_dir:
        When set, fitted state is persisted here (one pickle per
        :class:`ModelKey` digest) and future stores pointed at the same
        directory warm-load instead of refitting.
    """

    def __init__(self, model_dir: str | Path | None = None) -> None:
        self.model_dir = Path(model_dir) if model_dir else None
        if self.model_dir is not None:
            self.model_dir.mkdir(parents=True, exist_ok=True)
        self._entries: dict[str, StoreEntry] = {}
        self.fits = 0
        self.loads = 0

    # -- identity ----------------------------------------------------------

    def key_for(
        self,
        framework: str,
        suite: LongitudinalSuite,
        *,
        seed: int = 0,
        fast: bool = False,
        index: IndexConfig | None = None,
        backend: str | None = None,
    ) -> ModelKey:
        """The content-addressed key this store would use for a fit.

        ``backend=None`` resolves through ``$REPRO_KERNEL_BACKEND``
        before defaulting to ``"reference"``, exactly like construction.
        """
        from ..kernels import resolve_backend_name

        return ModelKey(
            framework=canonical_name(framework),
            train_hash=train_fingerprint(suite),
            seed=seed,
            fast=fast,
            index=engine_index(index),
            backend=resolve_backend_name(backend),
        )

    # -- lifecycle ---------------------------------------------------------

    def get_or_fit(
        self,
        framework: str,
        suite: LongitudinalSuite,
        *,
        seed: int = 0,
        fast: bool = False,
        index: IndexConfig | None = None,
        backend: str | None = None,
    ) -> StoreEntry:
        """Return a warm fitted model, loading or fitting only on miss.

        Resolution order: in-memory entry → ``model_dir`` pickle
        (validated against the registry) → fresh ``fit``. The fit RNG is
        ``default_rng([seed, 0])`` — exactly the evaluation engine's
        per-task seeding at framework index 0, so a served model is
        bit-identical to the model the engine fits for the first
        framework of a comparison with the same seed.

        ``index`` shards the model's radio map; it is part of the key,
        so sharded and exhaustive fits of the same suite live (and
        persist) side by side. The fitted shard structures ride inside
        the localizer, so a warm entry answers without rebuilding them.
        ``backend`` selects the kernel backend the same way; backends
        that cannot change results share the reference artifacts.
        """
        key = self.key_for(
            framework, suite, seed=seed, fast=fast, index=index, backend=backend
        )
        entry = self._entries.get(key.digest)
        if entry is not None:
            entry.hits += 1
            return entry
        entry = self._load(key, suite)
        if entry is None:
            entry = self._fit(key, suite)
        self._entries[key.digest] = entry
        return entry

    def _fit(self, key: ModelKey, suite: LongitudinalSuite) -> StoreEntry:
        # Local import: repro.api imports this module (session facade);
        # constructing through the public spec here closes that loop,
        # so the spec is resolved lazily.
        from ..api.config import LocalizerSpec

        spec = LocalizerSpec(
            framework=key.framework,
            suite_name=suite.name,
            fast=key.fast,
            seed=key.seed,
            index=key.index,
            backend=key.backend,
        )
        localizer = spec.build()
        rng = np.random.default_rng([key.seed, 0])
        t0 = time.perf_counter()
        localizer.fit(suite.train, suite.floorplan, rng=rng)
        fit_seconds = time.perf_counter() - t0
        self.fits += 1
        entry = StoreEntry(
            key=key,
            localizer=localizer,
            suite_name=suite.name,
            n_aps=suite.n_aps,
            source="fitted",
            fit_seconds=fit_seconds,
            spec=spec.to_dict(),
        )
        if self.model_dir is not None:
            self._save(entry)
        return entry

    # -- persistence -------------------------------------------------------

    def _path(self, key: ModelKey) -> Path:
        assert self.model_dir is not None
        return self.model_dir / f"{key.digest}.pkl"

    def _save(self, entry: StoreEntry) -> None:
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "framework": entry.key.framework,
            "train_hash": entry.key.train_hash,
            "seed": entry.key.seed,
            "fast": entry.key.fast,
            "index_tag": entry.key.index_tag,
            "backend": entry.key.backend,
            # The full producing spec, so an artifact is self-describing
            # (audits and tooling never reverse-engineer the filename).
            "spec": entry.spec,
            "suite_name": entry.suite_name,
            "n_aps": entry.n_aps,
            "localizer": entry.localizer,
        }
        tmp = self._path(entry.key).with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(self._path(entry.key))

    def _load(
        self, key: ModelKey, suite: LongitudinalSuite
    ) -> StoreEntry | None:
        if self.model_dir is None:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
        except (AttributeError, ImportError) as exc:
            # Names a class or module this release no longer has: the
            # refit that follows is a migration the operator should see.
            warnings.warn(
                f"model artifact {path.name} names code this release does "
                f"not have ({type(exc).__name__}: {exc}); refitting and "
                "rewriting it",
                stacklevel=2,
            )
            return None
        except (OSError, pickle.UnpicklingError, EOFError, ValueError, IndexError):
            return None  # corrupt/stale artifact: refit instead
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != STORE_SCHEMA_VERSION:
            return None
        # The filename already encodes the full key, but a renamed or
        # mislabeled artifact must not slip through: every key field is
        # re-checked against the payload's own record.
        if (
            payload.get("framework") != key.framework
            or payload.get("train_hash") != key.train_hash
            or payload.get("seed") != key.seed
            or payload.get("fast") != key.fast
            or payload.get("index_tag") != key.index_tag
        ):
            return None
        # Version-less artifacts (persisted before the kernel seam, so
        # no ``backend``/``spec`` records) had a one-release grace
        # window that is now closed: they are a miss — warned about so
        # the operator knows the refit is a migration, then
        # overwritten by a fully-recorded artifact.
        if "backend" not in payload or payload.get("spec") is None:
            warnings.warn(
                f"model artifact {path.name} predates the self-describing "
                "payload format (no backend/spec records); its support "
                "window is over — refitting and rewriting it in the "
                "current format",
                stacklevel=2,
            )
            return None
        from ..kernels import backend_changes_results

        stored_backend = str(payload["backend"])
        try:
            stored_changes = backend_changes_results(stored_backend)
        except KeyError:
            return None  # unknown backend record: foreign artifact
        # A *result-changing* backend mismatch is a mislabeled file:
        # the digest would have differed.
        if (
            stored_changes or backend_changes_results(key.backend)
        ) and stored_backend != key.backend:
            return None
        localizer = payload.get("localizer")
        # Warm-load validation hook: the artifact must be an instance of
        # the class the registry maps this framework name to *today*.
        if not isinstance(localizer, framework_class(key.framework)):
            return None
        if not getattr(localizer, "_fitted", False):
            return None
        if payload.get("n_aps") != suite.n_aps:
            return None
        self.loads += 1
        return StoreEntry(
            key=key,
            localizer=localizer,
            suite_name=str(payload.get("suite_name", suite.name)),
            n_aps=suite.n_aps,
            source="disk",
            spec=payload.get("spec"),
        )

    # -- introspection -----------------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """All warm entries, in insertion order."""
        return list(self._entries.values())

    def disk_manifest(self) -> list[dict]:
        """Every persisted artifact, described from its own payload.

        Artifacts are self-describing (the ``spec`` record is required),
        so the manifest never reverse-engineers filenames. Unreadable or
        foreign pickles are listed with an ``"error"`` field rather than
        skipped — an audit that silently drops files is not an audit.
        Sorted newest-first by mtime.
        """
        if self.model_dir is None:
            return []
        manifest: list[dict] = []
        for path in sorted(self.model_dir.glob("*.pkl")):
            stat = path.stat()
            row: dict = {
                "digest": path.stem,
                "path": str(path),
                "size_bytes": stat.st_size,
                "mtime": stat.st_mtime,
            }
            try:
                with path.open("rb") as fh:
                    payload = pickle.load(fh)
            except Exception as exc:  # noqa: BLE001 - audit, not serving
                row["error"] = f"unreadable: {type(exc).__name__}"
                manifest.append(row)
                continue
            if not isinstance(payload, dict) or "framework" not in payload:
                row["error"] = "not a repro model artifact"
                manifest.append(row)
                continue
            row.update(
                schema=payload.get("schema"),
                framework=payload.get("framework"),
                suite=payload.get("suite_name"),
                n_aps=payload.get("n_aps"),
                seed=payload.get("seed"),
                fast=payload.get("fast"),
                index_tag=payload.get("index_tag"),
                backend=payload.get("backend"),
                train_hash=str(payload.get("train_hash", ""))[:16],
            )
            spec = payload.get("spec")
            if isinstance(spec, dict):
                try:
                    from ..api.config import LocalizerSpec

                    row["spec_fingerprint"] = (
                        LocalizerSpec.from_dict(spec).fingerprint()[:16]
                    )
                except (ValueError, TypeError, KeyError):
                    row["spec_fingerprint"] = None
            else:
                row["spec_fingerprint"] = None
            manifest.append(row)
        manifest.sort(key=lambda r: r["mtime"], reverse=True)
        return manifest

    def prune(
        self,
        *,
        keep: int = 1,
        dry_run: bool = False,
        referenced: set[str] | None = None,
    ) -> list[dict]:
        """Delete superseded artifact versions; returns what was removed.

        Artifacts group by configuration — ``(framework, suite, seed,
        fast, index_tag, backend)`` — so a live refit (same config, new
        training content) creates a *version* within its group. Each
        group keeps its ``keep`` newest versions by mtime; digests in
        ``referenced`` (e.g. a running fleet's slot bindings) are always
        kept regardless of age. Unreadable artifacts are never pruned —
        deleting what you cannot identify is how data loss happens.
        ``dry_run=True`` reports without unlinking.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        referenced = referenced or set()
        groups: dict[tuple, list[dict]] = {}
        for row in self.disk_manifest():
            if "error" in row:
                continue
            group = (
                row["framework"], row["suite"], row["seed"],
                row["fast"], row["index_tag"], row["backend"],
            )
            groups.setdefault(group, []).append(row)
        removed: list[dict] = []
        for rows in groups.values():
            # disk_manifest is newest-first; everything past `keep` is
            # a superseded version unless a live slot still serves it.
            for row in rows[keep:]:
                if row["digest"] in referenced:
                    continue
                if not dry_run:
                    Path(row["path"]).unlink(missing_ok=True)
                    self._entries.pop(row["digest"], None)
                removed.append(row)
        return removed

    def describe(self) -> dict:
        """JSON-ready store summary for the ``/models`` endpoint."""
        return {
            "models": [entry.describe() for entry in self.entries()],
            "fits": self.fits,
            "disk_loads": self.loads,
            "model_dir": str(self.model_dir) if self.model_dir else None,
        }
