"""Typed, versioned configuration specs — the public construction surface.

Four frozen dataclasses describe everything a client can ask this
system to build, each with a ``to_dict``/``from_dict`` JSON round-trip
and a canonical :meth:`fingerprint`:

* :class:`IndexSpec` — how a reference radio map is sharded and probed
  (the same class as :class:`repro.index.IndexConfig`).
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

Each field declares its default, check, fingerprint rule and (for
serving knobs) its ``repro serve`` flag once, through
:func:`~repro.spec_fields.spec_field`; the dict round-trip and the
fingerprint are derived from those declarations
(:class:`~repro.spec_fields.Spec`).

Canonicalization happens at construction: framework aliases resolve to
their registry names, and an exhaustive :class:`IndexSpec` is
interchangeable with ``index=None`` everywhere (both fingerprint as
``"exhaustive"``), mirroring the normalization the cache/store layers
already apply. Two specs that cannot differ in behaviour therefore
share one fingerprint — and one cached artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.base import Localizer
from ..baselines.registry import (
    build_localizer,
    canonical_name,
    supports_candidate_index,
    supports_kernel_backend,
)
from ..index import IndexConfig, engine_index, index_tag
from ..kernels import backend_changes_results, resolve_backend_name
from ..spec_fields import (
    AT_LEAST_0,
    AT_LEAST_1,
    NEVER,
    NON_DEFAULT,
    POSITIVE,
    Spec,
    spec_field,
)

#: The public name of the radio-map index configuration.
IndexSpec = IndexConfig


def _gate_backend(framework: str, backend: str | None) -> str:
    """Resolve a spec's kernel backend against its framework.

    ``None`` resolves through ``$REPRO_KERNEL_BACKEND`` before
    defaulting to ``"reference"``. An *explicit* result-changing
    backend on a framework without the seam raises; an env-derived one
    normalizes to ``"reference"`` (one exported variable must not break
    GIFT/SCNN sweeps).
    """
    resolved = resolve_backend_name(backend)
    if supports_kernel_backend(framework) or not backend_changes_results(resolved):
        return resolved
    if backend is not None:
        raise ValueError(
            f"{framework} has no kernel-backend seam "
            f"(supports_kernel_backend is False); drop backend= "
            f"or pick one of the radio-map frameworks (STONE, "
            f"KNN, LT-KNN)"
        )
    return "reference"


#: The serving knobs :class:`ServeSpec` and :class:`FleetSpec` share,
#: declared once: default, check, fingerprint rule and ``repro serve``
#: flag. Observability knobs never change answers, so — like exact
#: backends — they join a fingerprint only when switched on.
_SERVING_KNOBS = {
    "host": dict(default="127.0.0.1", flag=True, help="bind address"),
    "port": dict(default=8000, flag=True, help="0 = ephemeral port"),
    "batch_window_ms": dict(
        default=2.0,
        check=AT_LEAST_0,
        flag=True,
        help=(
            "upper bound on how long rows wait behind an in-flight "
            "batch; an idle slot dispatches on the next event-loop tick "
            "(default: 2.0)"
        ),
    ),
    "max_batch": dict(
        default=256,
        check=AT_LEAST_1,
        flag=True,
        help="dispatch immediately at this many pending rows (default: 256)",
    ),
    "chunk_size": dict(
        default=None,
        check=POSITIVE,
        flag=True,
        help=(
            "max query rows per inference block; bounds peak memory, "
            "never changes results (default: unchunked)"
        ),
    ),
    "model_dir": dict(
        default=None,
        flag=True,
        help=(
            "persist fitted models here so a server restart warm-loads "
            "instead of refitting (default: fit in-process only)"
        ),
    ),
    "log_json": dict(
        default=False,
        fingerprint=NON_DEFAULT,
        flag=True,
        help=(
            "emit one structured JSON log line per request to stderr "
            "(component, request_id, endpoint, status, duration)"
        ),
    ),
    "slow_ms": dict(
        default=None,
        check=AT_LEAST_0,
        fingerprint=NON_DEFAULT,
        flag=True,
        help=(
            "with --log-json, only log successful requests slower than "
            "this many milliseconds; errors always log (default: log all)"
        ),
    ),
}


def _serving_knob(name: str):
    return spec_field(**_SERVING_KNOBS[name])


@dataclass(frozen=True)
class LocalizerSpec(Spec):
    """One localization framework plus its training configuration.

    ``framework`` accepts any registry name or alias and is stored
    canonically (``LocalizerSpec(framework="ltknn")`` equals
    ``LocalizerSpec(framework="LT-KNN")``). A non-exhaustive ``index``
    on a framework without a shardable radio map raises ``ValueError``
    at construction — the earliest possible moment.

    ``backend`` selects the kernel backend (:mod:`repro.kernels`) for
    the framework's hot distance/encoder path, resolved at construction
    (see :func:`_gate_backend`) so the stored spec always records the
    backend that actually runs. It joins the fingerprint only when it
    can change results: reference specs keep their pre-seam
    fingerprints.
    """

    SPEC_NAME = "localizer"

    framework: str = spec_field(convert=canonical_name)
    suite_name: str | None = None
    fast: bool = False
    seed: int = 0
    index: IndexSpec | None = spec_field(
        None, canon=index_tag, decode=IndexSpec.from_dict
    )
    backend: str | None = spec_field(None, fingerprint=backend_changes_results)

    def __post_init__(self) -> None:
        super().__post_init__()
        if engine_index(self.index) is not None and not supports_candidate_index(
            self.framework
        ):
            raise ValueError(
                f"{self.framework} has no reference radio map to shard "
                f"(supports_index is False); drop index= or pick one of "
                f"the NN-search frameworks (STONE, KNN, LT-KNN)"
            )
        object.__setattr__(
            self, "backend", _gate_backend(self.framework, self.backend)
        )

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

    @property
    def index_tag(self) -> str:
        """Canonical index tag (``"exhaustive"`` when unsharded)."""
        return index_tag(self.index)

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


@dataclass(frozen=True)
class ServeSpec(Spec):
    """One single-model HTTP deployment: what to serve, and how.

    ``localizer.suite_name`` names the dataset suite to fit on (the
    CLI's positional argument); the remaining fields are the serving
    knobs shared with :class:`FleetSpec` (``repro serve`` flags).
    """

    SPEC_NAME = "serve"

    localizer: LocalizerSpec = spec_field(
        canon=LocalizerSpec.fingerprint, decode=LocalizerSpec.from_dict
    )
    host: str = _serving_knob("host")
    port: int = _serving_knob("port")
    batch_window_ms: float = _serving_knob("batch_window_ms")
    max_batch: int = _serving_knob("max_batch")
    chunk_size: int | None = _serving_knob("chunk_size")
    model_dir: str | None = _serving_knob("model_dir")
    log_json: bool = _serving_knob("log_json")
    slow_ms: float | None = _serving_knob("slow_ms")

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


def _format_buildings(buildings: tuple) -> str:
    from ..fleet.spec import format_fleet_spec

    return format_fleet_spec(list(buildings))


def _parse_buildings(buildings) -> tuple:
    """A buildings grammar string, or a list of entries/dicts."""
    from ..fleet.spec import BuildingSpec, parse_fleet_spec

    if isinstance(buildings, str):
        return tuple(parse_fleet_spec(buildings))
    return tuple(
        b if isinstance(b, BuildingSpec) else BuildingSpec(**b) for b in buildings
    )


@dataclass(frozen=True)
class FleetSpec(Spec):
    """One multi-building fleet deployment.

    ``buildings`` carries the same grammar as the CLI spec string
    (``"HQ:2,LAB:3:kmeans"`` — see :mod:`repro.fleet.spec`), held as
    parsed :class:`~repro.fleet.spec.BuildingSpec` entries; the
    remaining fields are the fleet-wide generation and serving knobs.

    Worker processes never change answers (bit-identity is the pool's
    contract), so ``workers`` joins the fingerprint only when nonzero.
    The live-update knobs join as one ``"live"`` policy record, and
    only when tuned away from the inert default policy. (A refit *does*
    change what a slot answers — but that identity lives in the refit
    model's content-addressed ModelKey, which hashes the merged
    training data. The spec only fingerprints the policy that decides
    *when* to refit.)
    """

    SPEC_NAME = "fleet"

    buildings: tuple = spec_field(
        convert=tuple,
        check=(bool, "FleetSpec needs at least one building"),
        encode=_format_buildings,
        canon=_format_buildings,
        decode=_parse_buildings,
    )
    framework: str = spec_field("KNN", convert=canonical_name)
    seed: int = 0
    fast: bool = False
    index: IndexSpec | None = spec_field(
        None, canon=index_tag, decode=IndexSpec.from_dict
    )
    backend: str | None = spec_field(None, fingerprint=backend_changes_results)
    months: int = spec_field(
        4,
        flag="--fleet-months",
        help="longitudinal test months per generated building (default: 4)",
    )
    aps_per_floor: int = spec_field(
        24, flag="--fleet-aps-per-floor", help="APs per generated floor (default: 24)"
    )
    model_dir: str | None = _serving_knob("model_dir")
    host: str = _serving_knob("host")
    port: int = _serving_knob("port")
    batch_window_ms: float = _serving_knob("batch_window_ms")
    max_batch: int = _serving_knob("max_batch")
    chunk_size: int | None = _serving_knob("chunk_size")
    max_pending_rows: int | None = spec_field(
        None,
        check=AT_LEAST_1,
        flag=True,
        help=(
            "fleet admission bound: rows in flight before new requests "
            "get 429 (default: two protocol-maximum batches; fleet "
            "mode only)"
        ),
    )
    workers: int = spec_field(
        0,
        check=(lambda v: v >= 0, "workers must be >= 0 (0 = in-process)"),
        fingerprint=NON_DEFAULT,
        flag=True,
        help=(
            "run fleet slots in this many worker processes, model "
            "arrays shared over shared memory; answers stay bit-identical "
            "(default: 0 = in-process; fleet mode only)"
        ),
    )
    #: Multiprocessing start method for worker processes (``"fork"`` /
    #: ``"spawn"`` / ``"forkserver"``); ``None`` defers to the
    #: ``REPRO_MP_START`` env var, then the platform default.
    start_method: str | None = spec_field(None, fingerprint=NEVER)
    log_json: bool = _serving_knob("log_json")
    slow_ms: float | None = _serving_knob("slow_ms")
    # The live-update (``POST /observe``) drift policy; DriftPolicy owns
    # the validation rules.
    drift_threshold_m: float | None = spec_field(
        None,
        group=("live", "drift_threshold_m"),
        flag=True,
        metavar="M",
        help=(
            "live ingest (POST /observe): refit + hot-swap a slot once "
            "its buffered observations' mean error under the serving "
            "model exceeds this many meters (default: drift scoring "
            "off; the buffer-full trigger still applies; fleet mode only)"
        ),
    )
    live_min_scans: int = spec_field(
        32,
        group=("live", "min_scans"),
        flag=True,
        help=(
            "never judge drift (or refit) on fewer buffered scans than "
            "this (default: 32; fleet mode only)"
        ),
    )
    live_max_scans: int = spec_field(
        4096,
        group=("live", "max_scans"),
        flag=True,
        help=(
            "refit unconditionally once this many scans are buffered "
            "(default: 4096; fleet mode only)"
        ),
    )
    live_max_age_s: float | None = spec_field(
        None,
        group=("live", "max_age_s"),
        flag=True,
        metavar="S",
        help=(
            "refit once the oldest buffered scan is this old "
            "(default: no age trigger; fleet mode only)"
        ),
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        self.drift_policy()
        object.__setattr__(
            self, "backend", _gate_backend(self.framework, self.backend)
        )

    @classmethod
    def from_string(cls, spec: str, **kwargs) -> FleetSpec:
        """Parse the CLI grammar (``"HQ:2,LAB:3:kmeans"``) into a spec."""
        return cls(buildings=_parse_buildings(spec), **kwargs)

    @property
    def buildings_string(self) -> str:
        """The canonical round-trip form of the buildings grammar."""
        return _format_buildings(self.buildings)

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


__all__ = [
    "IndexSpec",
    "LocalizerSpec",
    "ServeSpec",
    "FleetSpec",
    "engine_index",
]
