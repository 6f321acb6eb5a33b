"""Typed, versioned configuration specs — the public construction surface.

Four frozen dataclasses describe everything a client can ask this
system to build, each with a ``to_dict``/``from_dict`` JSON round-trip
and a canonical :meth:`fingerprint`:

* :class:`IndexSpec` — how a reference radio map is sharded and probed
  (the public face of :class:`repro.index.IndexConfig`).
* :class:`LocalizerSpec` — one framework + its training configuration.
  :meth:`LocalizerSpec.build` is the public constructor;
  :meth:`LocalizerSpec.model_key` produces the
  *exact* content-addressed :class:`~repro.serve.store.ModelKey` the
  serving layer's ``ModelStore`` has always used, so artifacts fitted
  before this API existed keep warm-loading.
* :class:`ServeSpec` — a single-model HTTP deployment
  (model + dispatcher + bind address), buildable into a running
  :class:`~repro.serve.server.LocalizationServer`.
* :class:`FleetSpec` — a multi-building deployment
  (buildings grammar + fleet-wide tuning), buildable into a
  :class:`~repro.fleet.registry.FleetRegistry` and
  :class:`~repro.fleet.server.FleetServer`.

Canonicalization happens at construction: framework aliases resolve to
their registry names, and an exhaustive :class:`IndexSpec` is
interchangeable with ``index=None`` everywhere (both fingerprint as
``"exhaustive"``), mirroring the normalization the cache/store layers
already apply. Two specs that cannot differ in behaviour therefore
share one fingerprint — and one cached artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from ..baselines.base import Localizer
from ..baselines.registry import (
    build_localizer,
    canonical_name,
    supports_candidate_index,
    supports_kernel_backend,
)
from ..index import IndexConfig
from ..kernels import backend_changes_results, resolve_backend_name


def _canonical_digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON rendering of a spec dict."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _check_known_keys(cls: type, data: dict) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"{cls.__name__}.from_dict: unknown keys {unknown}; "
            f"known keys: {sorted(known)}"
        )


@dataclass(frozen=True)
class IndexSpec:
    """How a reference radio map is partitioned and probed.

    The typed public face of :class:`repro.index.IndexConfig` —
    identical fields, identical validation, plus the dict round-trip.
    ``kind="exhaustive"`` means *no sharding* and is behaviourally (and
    fingerprint-) equivalent to passing no index at all.
    """

    kind: str = "exhaustive"
    n_shards: int = 16
    n_probe: int = 4
    seed: int = 0
    #: Kernel backend for the probe distances (``None`` inherits the
    #: owning head's backend); canonicalized at construction.
    backend: str | None = None

    def __post_init__(self) -> None:
        # IndexConfig owns the validation rules; constructing one here
        # keeps the two surfaces impossible to drift apart.
        config = self.to_config()
        object.__setattr__(self, "backend", config.backend)

    @property
    def is_exhaustive(self) -> bool:
        return self.kind == "exhaustive"

    def to_config(self) -> IndexConfig:
        """The internal :class:`~repro.index.IndexConfig` equivalent."""
        return IndexConfig(
            kind=self.kind,
            n_shards=self.n_shards,
            n_probe=self.n_probe,
            seed=self.seed,
            backend=self.backend,
        )

    @classmethod
    def from_config(cls, config: IndexConfig | None) -> IndexSpec | None:
        """Wrap an internal config (``None`` stays ``None``)."""
        if config is None:
            return None
        return cls(
            kind=config.kind,
            n_shards=config.n_shards,
            n_probe=config.n_probe,
            seed=config.seed,
            backend=config.backend,
        )

    def fingerprint(self) -> str:
        """Canonical identity — exactly ``IndexConfig.tag()``.

        This *is* the cache-key component every layer already hashes
        (engine result cache, model store), so spec-built artifacts
        collide with — i.e. reuse — legacy-built ones by construction.
        """
        return self.to_config().tag()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_shards": self.n_shards,
            "n_probe": self.n_probe,
            "seed": self.seed,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: dict) -> IndexSpec:
        _check_known_keys(cls, data)
        return cls(**data)


def engine_index(spec: IndexSpec | None) -> IndexConfig | None:
    """Normalize a spec to the engine's convention (``None`` = exhaustive).

    The cache/store layers treat "no index" and "exhaustive index" as
    one artifact; this is the single conversion point that keeps
    spec-driven callers on that convention.
    """
    if spec is None or spec.is_exhaustive:
        return None
    return spec.to_config()


@dataclass(frozen=True)
class LocalizerSpec:
    """One localization framework plus its training configuration.

    ``framework`` accepts any registry name or alias and is stored
    canonically (``LocalizerSpec(framework="ltknn")`` equals
    ``LocalizerSpec(framework="LT-KNN")``). A non-exhaustive ``index``
    on a framework without a shardable radio map raises ``ValueError``
    at construction — the earliest possible moment.

    ``backend`` selects the kernel backend (:mod:`repro.kernels`) for
    the framework's hot distance/encoder path. ``None`` resolves
    through ``$REPRO_KERNEL_BACKEND`` before defaulting to
    ``"reference"``, so the stored spec always records the backend that
    actually runs. An *explicit* result-changing backend on a framework
    without the seam raises; an env-derived one silently normalizes to
    ``"reference"`` (one exported variable must not break GIFT/SCNN
    sweeps).
    """

    framework: str
    suite_name: str | None = None
    fast: bool = False
    seed: int = 0
    index: IndexSpec | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "framework", canonical_name(self.framework))
        if (
            self.index is not None
            and not self.index.is_exhaustive
            and not supports_candidate_index(self.framework)
        ):
            raise ValueError(
                f"{self.framework} has no reference radio map to shard "
                f"(supports_index is False); drop index= or pick one of "
                f"the NN-search frameworks (STONE, KNN, LT-KNN)"
            )
        explicit = self.backend is not None
        resolved = resolve_backend_name(self.backend)
        if not supports_kernel_backend(self.framework) and backend_changes_results(
            resolved
        ):
            if explicit:
                raise ValueError(
                    f"{self.framework} has no kernel-backend seam "
                    f"(supports_kernel_backend is False); drop backend= "
                    f"or pick one of the radio-map frameworks (STONE, "
                    f"KNN, LT-KNN)"
                )
            resolved = "reference"
        object.__setattr__(self, "backend", resolved)

    # -- construction ------------------------------------------------------

    def build(self) -> Localizer:
        """Build the (unfitted) localizer this spec describes.

        Bit-identical to what
        :func:`~repro.baselines.registry.build_localizer` builds for the
        same arguments (the registry kernel it delegates to) — pinned
        by ``tests/api/test_shims.py``.
        """
        return build_localizer(
            self.framework,
            suite_name=self.suite_name,
            fast=self.fast,
            index=engine_index(self.index),
            backend=self.backend,
        )

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Canonical data-free digest of this spec's configuration.

        Aliases, ``index=None`` vs an explicit exhaustive index, and
        unused shard parameters are all normalized away first — equal
        behaviour, equal fingerprint. The kernel backend joins the
        payload only when it can change results: reference (and blas64)
        specs keep their pre-seam fingerprints.
        """
        payload = {
            "spec": "localizer",
            "framework": self.framework,
            "suite_name": self.suite_name,
            "fast": self.fast,
            "seed": self.seed,
            "index": self.index_tag,
        }
        if backend_changes_results(self.backend):
            payload["backend"] = self.backend
        return _canonical_digest(payload)

    @property
    def index_tag(self) -> str:
        """Canonical index tag (``"exhaustive"`` when unsharded)."""
        config = engine_index(self.index)
        return config.tag() if config is not None else "exhaustive"

    def model_key(self, suite):
        """The content-addressed serving identity for this spec + data.

        Returns the exact :class:`~repro.serve.store.ModelKey` the
        ``ModelStore`` computes today — same ``train_fingerprint``, same
        digest — so every artifact persisted under the legacy scheme
        stays addressable through the spec surface (fingerprint
        subsumption is an equality, not a migration).
        """
        # Local import: repro.serve.store imports repro.eval.engine,
        # which reaches back into this module lazily; importing it at
        # module scope would freeze the cycle into import order.
        from ..eval.engine import train_fingerprint
        from ..serve.store import ModelKey

        return ModelKey(
            framework=self.framework,
            train_hash=train_fingerprint(suite),
            seed=self.seed,
            fast=self.fast,
            index=engine_index(self.index),
            backend=self.backend,
        )

    def task_key(self, suite_hash: str, *, seed_index: int = 0) -> str:
        """The evaluation engine's result-cache key for this spec.

        Identical to :meth:`repro.eval.engine.EvalTask.cache_key` for
        the equivalent task — spec-driven sweeps hit traces cached by
        pre-spec runs.
        """
        from ..eval.engine import task_fingerprint

        return task_fingerprint(
            self.framework,
            suite_hash,
            seed=self.seed,
            fast=self.fast,
            seed_index=seed_index,
            index=engine_index(self.index),
            backend=self.backend,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "framework": self.framework,
            "suite_name": self.suite_name,
            "fast": self.fast,
            "seed": self.seed,
            "index": self.index.to_dict() if self.index else None,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: dict) -> LocalizerSpec:
        _check_known_keys(cls, data)
        data = dict(data)
        if data.get("index") is not None:
            data["index"] = IndexSpec.from_dict(data["index"])
        return cls(**data)


@dataclass(frozen=True)
class ServeSpec:
    """One single-model HTTP deployment: what to serve, and how.

    ``localizer.suite_name`` names the dataset suite to fit on (the
    CLI's positional argument); the remaining fields are the serving
    knobs that used to live only in ``repro serve`` flags.
    """

    localizer: LocalizerSpec
    host: str = "127.0.0.1"
    port: int = 8000
    batch_window_ms: float = 2.0
    max_batch: int = 256
    chunk_size: int | None = None
    model_dir: str | None = None
    #: Structured JSON request logging to stderr (``repro serve --log-json``).
    log_json: bool = False
    #: Only log successful requests slower than this many milliseconds
    #: (errors always log); ``None`` logs every request when enabled.
    slow_ms: float | None = None

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.slow_ms is not None and self.slow_ms < 0:
            raise ValueError("slow_ms must be >= 0")

    def build(self, suite, *, store=None):
        """Fit (or warm-load) the model and assemble the HTTP server.

        Returns an unstarted
        :class:`~repro.serve.server.LocalizationServer`; call ``run()``
        or ``start_background()`` on it. ``store`` overrides the
        :class:`~repro.serve.store.ModelStore` (defaults to one rooted
        at ``model_dir``).
        """
        from ..serve.dispatcher import BatchingDispatcher
        from ..serve.server import LocalizationServer
        from ..serve.store import ModelStore

        store = store if store is not None else ModelStore(self.model_dir)
        entry = store.get_or_fit(
            self.localizer.framework,
            suite,
            seed=self.localizer.seed,
            fast=self.localizer.fast,
            index=engine_index(self.localizer.index),
            backend=self.localizer.backend,
        )
        dispatcher = BatchingDispatcher(
            entry.localizer,
            batch_window_ms=self.batch_window_ms,
            max_batch=self.max_batch,
            chunk_size=self.chunk_size,
        )
        return LocalizationServer(
            entry, dispatcher, store=store, host=self.host, port=self.port,
            log_json=self.log_json, slow_ms=self.slow_ms,
        )

    def fingerprint(self) -> str:
        """Canonical digest of the whole deployment configuration."""
        payload = {
            "spec": "serve",
            "localizer": self.localizer.fingerprint(),
            "host": self.host,
            "port": self.port,
            "batch_window_ms": self.batch_window_ms,
            "max_batch": self.max_batch,
            "chunk_size": self.chunk_size,
            "model_dir": self.model_dir,
        }
        # Observability knobs never change answers, so — like exact
        # backends — they join the digest only when switched on and
        # pre-obs serve fingerprints stay valid.
        if self.log_json:
            payload["log_json"] = True
        if self.slow_ms is not None:
            payload["slow_ms"] = self.slow_ms
        return _canonical_digest(payload)

    def to_dict(self) -> dict:
        return {
            "localizer": self.localizer.to_dict(),
            "host": self.host,
            "port": self.port,
            "batch_window_ms": self.batch_window_ms,
            "max_batch": self.max_batch,
            "chunk_size": self.chunk_size,
            "model_dir": self.model_dir,
            "log_json": self.log_json,
            "slow_ms": self.slow_ms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> ServeSpec:
        _check_known_keys(cls, data)
        data = dict(data)
        data["localizer"] = LocalizerSpec.from_dict(data["localizer"])
        return cls(**data)


@dataclass(frozen=True)
class FleetSpec:
    """One multi-building fleet deployment.

    ``buildings`` carries the same grammar as the CLI spec string
    (``"HQ:2,LAB:3:kmeans"`` — see :mod:`repro.fleet.spec`), held as
    parsed :class:`~repro.fleet.spec.BuildingSpec` entries; the
    remaining fields are the fleet-wide generation and serving knobs.
    """

    buildings: tuple
    framework: str = "KNN"
    seed: int = 0
    fast: bool = False
    index: IndexSpec | None = None
    backend: str | None = None
    months: int = 4
    aps_per_floor: int = 24
    model_dir: str | None = None
    host: str = "127.0.0.1"
    port: int = 8000
    batch_window_ms: float = 2.0
    max_batch: int = 256
    chunk_size: int | None = None
    #: ``None`` = the dispatcher's default (two protocol-max batches).
    max_pending_rows: int | None = None
    #: ``0`` = in-process slot execution (the default); ``N > 0`` runs
    #: the slots in N worker processes sharing every model array over
    #: ``multiprocessing.shared_memory`` (answers are bit-identical).
    workers: int = 0
    #: Multiprocessing start method for worker processes (``"fork"`` /
    #: ``"spawn"`` / ``"forkserver"``); ``None`` defers to the
    #: ``REPRO_MP_START`` env var, then the platform default.
    start_method: str | None = None
    #: Structured JSON request logging to stderr (``repro serve --log-json``).
    log_json: bool = False
    #: Only log successful requests slower than this many milliseconds
    #: (errors always log); ``None`` logs every request when enabled.
    slow_ms: float | None = None
    #: Live ingest (``POST /observe``) drift policy: refit + hot-swap a
    #: slot once the buffered observations' mean error under its serving
    #: model exceeds this many meters. ``None`` disables drift scoring
    #: (the buffer-full trigger still applies).
    drift_threshold_m: float | None = None
    #: Never judge drift (or refit) on fewer buffered scans than this.
    live_min_scans: int = 32
    #: Refit unconditionally once this many scans are buffered.
    live_max_scans: int = 4096
    #: Refit once the oldest buffered scan is this old (seconds);
    #: ``None`` disables the age trigger.
    live_max_age_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "framework", canonical_name(self.framework))
        object.__setattr__(self, "buildings", tuple(self.buildings))
        if not self.buildings:
            raise ValueError("FleetSpec needs at least one building")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = in-process)")
        if self.slow_ms is not None and self.slow_ms < 0:
            raise ValueError("slow_ms must be >= 0")
        # DriftPolicy owns the live-knob validation rules; constructing
        # one here keeps the two surfaces impossible to drift apart.
        self.drift_policy()
        # Same resolution + gating rules as LocalizerSpec.backend.
        explicit = self.backend is not None
        resolved = resolve_backend_name(self.backend)
        if not supports_kernel_backend(self.framework) and backend_changes_results(
            resolved
        ):
            if explicit:
                raise ValueError(
                    f"{self.framework} has no kernel-backend seam "
                    f"(supports_kernel_backend is False); drop backend= "
                    f"or pick one of the radio-map frameworks (STONE, "
                    f"KNN, LT-KNN)"
                )
            resolved = "reference"
        object.__setattr__(self, "backend", resolved)

    @classmethod
    def from_string(cls, spec: str, **kwargs) -> FleetSpec:
        """Parse the CLI grammar (``"HQ:2,LAB:3:kmeans"``) into a spec."""
        from ..fleet.spec import parse_fleet_spec

        return cls(buildings=tuple(parse_fleet_spec(spec)), **kwargs)

    @property
    def buildings_string(self) -> str:
        """The canonical round-trip form of the buildings grammar."""
        from ..fleet.spec import format_fleet_spec

        return format_fleet_spec(list(self.buildings))

    # -- construction ------------------------------------------------------

    def build_registry(self, *, store=None):
        """Generate, fit and register every building this spec names."""
        from ..fleet.registry import FleetRegistry

        return FleetRegistry.from_specs(
            list(self.buildings),
            framework=self.framework,
            seed=self.seed,
            fast=self.fast,
            index=engine_index(self.index),
            backend=self.backend,
            months=self.months,
            aps_per_floor=self.aps_per_floor,
            store=store,
            model_dir=self.model_dir if store is None else None,
        )

    def drift_policy(self):
        """The :class:`~repro.live.DriftPolicy` these knobs describe."""
        from ..live import DriftPolicy

        return DriftPolicy(
            drift_threshold_m=self.drift_threshold_m,
            min_scans=self.live_min_scans,
            max_scans=self.live_max_scans,
            max_age_s=self.live_max_age_s,
        )

    def build_server(self, registry=None, *, store=None):
        """Assemble the fleet dispatcher + HTTP server (unstarted).

        Pass a prebuilt ``registry`` to reuse already-warm slots;
        otherwise :meth:`build_registry` runs first. The live-update
        loop behind ``POST /observe`` runs the spec's drift policy.
        """
        from ..fleet.frontend import FleetDispatcher
        from ..fleet.server import FleetServer
        from ..live import LiveManager

        if registry is None:
            registry = self.build_registry(store=store)
        dispatcher_kwargs: dict = dict(
            batch_window_ms=self.batch_window_ms,
            max_batch=self.max_batch,
            chunk_size=self.chunk_size,
        )
        if self.max_pending_rows is not None:
            dispatcher_kwargs["max_pending_rows"] = self.max_pending_rows
        if self.workers:
            dispatcher_kwargs["workers"] = self.workers
            dispatcher_kwargs["start_method"] = self.start_method
        dispatcher = FleetDispatcher(registry, **dispatcher_kwargs)
        live = LiveManager(dispatcher, policy=self.drift_policy())
        return FleetServer(
            registry, dispatcher, host=self.host, port=self.port,
            log_json=self.log_json, slow_ms=self.slow_ms, live=live,
        )

    # -- identity / serialization ------------------------------------------

    def fingerprint(self) -> str:
        payload = {
                "spec": "fleet",
                "buildings": self.buildings_string,
                "framework": self.framework,
                "seed": self.seed,
                "fast": self.fast,
                "index": (
                    engine_index(self.index).tag()
                    if engine_index(self.index) is not None
                    else "exhaustive"
                ),
                "months": self.months,
                "aps_per_floor": self.aps_per_floor,
                "model_dir": self.model_dir,
                "host": self.host,
                "port": self.port,
                "batch_window_ms": self.batch_window_ms,
                "max_batch": self.max_batch,
                "chunk_size": self.chunk_size,
                "max_pending_rows": self.max_pending_rows,
        }
        # Same rule as LocalizerSpec: only result-changing backends
        # participate, so pre-seam fleet fingerprints stay valid.
        if backend_changes_results(self.backend):
            payload["backend"] = self.backend
        # Worker processes never change answers (bit-identity is the
        # pool's contract), so — like exact backends — they join the
        # fingerprint only when nonzero and single-process fleet
        # fingerprints stay valid.
        if self.workers:
            payload["workers"] = self.workers
        # Observability knobs never change answers either; same
        # only-when-switched-on rule keeps pre-obs fingerprints valid.
        if self.log_json:
            payload["log_json"] = True
        if self.slow_ms is not None:
            payload["slow_ms"] = self.slow_ms
        # Live-update knobs join only when tuned away from the inert
        # default policy, so pre-live fleet fingerprints stay valid.
        # (A refit *does* change what a slot answers — but that identity
        # lives in the refit model's content-addressed ModelKey, which
        # hashes the merged training data. The spec only fingerprints
        # the policy that decides *when* to refit.)
        if not self.drift_policy().is_default:
            payload["live"] = self.drift_policy().to_dict()
        return _canonical_digest(payload)

    def to_dict(self) -> dict:
        return {
            "buildings": self.buildings_string,
            "framework": self.framework,
            "seed": self.seed,
            "fast": self.fast,
            "index": self.index.to_dict() if self.index else None,
            "backend": self.backend,
            "months": self.months,
            "aps_per_floor": self.aps_per_floor,
            "model_dir": self.model_dir,
            "host": self.host,
            "port": self.port,
            "batch_window_ms": self.batch_window_ms,
            "max_batch": self.max_batch,
            "chunk_size": self.chunk_size,
            "max_pending_rows": self.max_pending_rows,
            "workers": self.workers,
            "start_method": self.start_method,
            "log_json": self.log_json,
            "slow_ms": self.slow_ms,
            "drift_threshold_m": self.drift_threshold_m,
            "live_min_scans": self.live_min_scans,
            "live_max_scans": self.live_max_scans,
            "live_max_age_s": self.live_max_age_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> FleetSpec:
        _check_known_keys(cls, data)
        data = dict(data)
        if data.get("index") is not None:
            data["index"] = IndexSpec.from_dict(data["index"])
        buildings = data.pop("buildings")
        if isinstance(buildings, str):
            from ..fleet.spec import parse_fleet_spec

            data["buildings"] = tuple(parse_fleet_spec(buildings))
        else:
            from ..fleet.spec import BuildingSpec

            data["buildings"] = tuple(
                b if isinstance(b, BuildingSpec) else BuildingSpec(**b)
                for b in buildings
            )
        return cls(**data)


__all__ = [
    "IndexSpec",
    "LocalizerSpec",
    "ServeSpec",
    "FleetSpec",
    "engine_index",
]
