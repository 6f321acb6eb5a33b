"""HTTP front-end over a whole fleet of deployment slots.

Same stdlib plumbing as the single-model server
(:class:`~repro.serve.server.JsonHttpServer` — persistent connections,
background hosting), with the fleet semantics on top:

==================  ======  ==============================================
endpoint            method  semantics
==================  ======  ==============================================
``/localize``       POST    one fleet-wide scan → coordinate + routing
``/localize_batch`` POST    ``(n, fleet_aps)`` scans → coordinates + routing
``/observe``        POST    labeled scans → a slot's live buffer (drift →
                            background refit → atomic hot-swap)
``/healthz``        GET     liveness + admission-queue depth + counters
``/models``         GET     shared store entries + per-slot shard/routing
``/fleet``          GET     topology: buildings, AP blocks, slot table
==================  ======  ==============================================

``/localize*`` requests may pin routing with ``"building"`` (and
optionally ``"floor"``) — see
:func:`repro.serve.protocol.parse_routing_fields`; responses always
carry a ``routing`` field naming the slot(s) that answered. When the
fleet's bounded admission queue is full the response is **429** with a
``Retry-After`` hint in the body; in-flight work is never disturbed.
When a fleet worker process crashes past the retry budget the response
is **503** (retryable — the slot respawns warm from the shared store).
"""

from __future__ import annotations

from ..live import LiveManager
from ..obs import MetricsRegistry, MetricsSnapshot
from ..serve.protocol import (
    API_VERSION,
    RequestContext,
    RequestError,
    error_payload,
    location_response,
    locations_response,
    parse_localize,
    parse_localize_batch,
    parse_observe,
    parse_routing_fields,
    require_method,
    wants_trace,
)
from ..serve.server import JsonHttpServer, _repro_version
from .frontend import FleetDispatcher, FleetOverloadError
from .registry import FleetRegistry
from .router import RoutingDecision
from .worker import WorkerCrashedError


class FleetServer(JsonHttpServer):
    """HTTP/JSON API over a :class:`FleetDispatcher`.

    Parameters
    ----------
    registry / dispatcher:
        The fitted fleet and its admission-bounded dispatcher.
    host / port:
        Bind address (see :class:`~repro.serve.server.JsonHttpServer`).
    metrics / log_json / slow_ms:
        Observability knobs (see
        :class:`~repro.serve.server.JsonHttpServer`). ``/metrics``
        scrapes merge every worker process's snapshot into the serving
        process's registry, so per-slot in-worker latency is visible
        from one endpoint.
    live:
        The :class:`~repro.live.LiveManager` behind ``POST /observe``.
        One with the default (inert-until-buffer-full) policy is
        created when not supplied, so every fleet server can ingest
        observations out of the box.
    """

    _component = "fleet"

    def __init__(
        self,
        registry: FleetRegistry,
        dispatcher: FleetDispatcher,
        *,
        host: str = "127.0.0.1",
        port: int = 8000,
        metrics: MetricsRegistry | None = None,
        log_json: bool = False,
        slow_ms: float | None = None,
        live: LiveManager | None = None,
    ) -> None:
        super().__init__(
            host=host, port=port, metrics=metrics,
            log_json=log_json, slow_ms=slow_ms,
        )
        self.registry = registry
        self.dispatcher = dispatcher
        self.live = live if live is not None else LiveManager(dispatcher)
        dispatcher.bind_metrics(self.metrics)
        self.live.bind_metrics(self.metrics)

    async def _collect_metrics(self) -> MetricsSnapshot:
        """Parent registry + every worker's snapshot, freshly merged.

        Workers keep *cumulative* registries and the merge starts from
        a fresh parent snapshot each scrape, so nothing double-counts.
        """
        self.dispatcher.update_gauges()
        snapshot = self.metrics.snapshot()
        for worker_snapshot in await self.dispatcher.collect_worker_metrics():
            snapshot.merge(worker_snapshot)
        return snapshot

    # -- routing helpers ---------------------------------------------------

    def _routing_entries(self, decision: RoutingDecision) -> list[dict]:
        return [
            {
                "building": slot.building,
                "floor": slot.floor,
                "forced": decision.forced,
            }
            for slot in decision.slot_ids(self.registry)
        ]

    async def _localize(
        self, request: RequestContext, batch: bool
    ) -> tuple[int, dict]:
        payload = request.json()
        if wants_trace(payload):
            request.begin_trace()
        parse = parse_localize_batch if batch else parse_localize
        queries = parse(payload, self.registry.n_aps)
        building, floor = parse_routing_fields(payload)
        try:
            coords, decision = await self.dispatcher.localize(
                queries, building=building, floor=floor,
                trace=request.trace,
            )
        except FleetOverloadError as exc:
            body = error_payload(str(exc), status=429, retryable=True)
            body.update(
                retry_after_ms=50,
                pending_rows=exc.pending_rows,
                max_pending_rows=exc.max_pending_rows,
            )
            return 429, body
        except WorkerCrashedError as exc:
            # A worker died mid-batch and the retry budget is spent;
            # its slots are respawning warm from the shared store, so
            # the same request succeeds shortly — 503, retryable.
            body = error_payload(str(exc), status=503, retryable=True)
            body.update(retry_after_ms=200)
            return 503, body
        except KeyError as exc:
            # An unknown building/floor pin is a client error.
            raise ValueError(
                str(exc.args[0]) if exc.args else str(exc)
            ) from exc
        routing = self._routing_entries(decision)
        if batch:
            return 200, {**locations_response(coords), "routing": routing}
        return 200, {**location_response(coords), "routing": routing[0]}

    async def _observe_ingest(self, request: RequestContext) -> tuple[int, dict]:
        """``POST /observe`` — ingest labeled scans for one slot."""
        payload = request.json()
        scans, locations = parse_observe(payload, self.registry.n_aps)
        building, floor = parse_routing_fields(payload)
        if building is None or floor is None:
            raise RequestError(
                'observations are labeled facts about one slot; both '
                '"building" and "floor" are required'
            )
        try:
            result = await self.live.observe(
                scans, locations, building=building, floor=floor
            )
        except KeyError as exc:
            # An unknown building/floor pin is a client error (400).
            raise ValueError(
                str(exc.args[0]) if exc.args else str(exc)
            ) from exc
        return 200, result

    # -- endpoints ---------------------------------------------------------

    async def _route(self, request: RequestContext) -> tuple[int, dict]:
        method, path = request.method, request.path
        if path == "/healthz":
            require_method(method, "GET", path)
            return 200, self._healthz()
        if path == "/models":
            require_method(method, "GET", path)
            return 200, self._models()
        if path == "/fleet":
            require_method(method, "GET", path)
            return 200, self._fleet()
        if path == "/localize":
            require_method(method, "POST", path)
            return await self._localize(request, batch=False)
        if path == "/localize_batch":
            require_method(method, "POST", path)
            return await self._localize(request, batch=True)
        if path == "/observe":
            require_method(method, "POST", path)
            return await self._observe_ingest(request)
        raise RequestError(f"unknown endpoint {path!r}", status=404)

    def _healthz(self) -> dict:
        stats = self.dispatcher.describe()
        return {
            "status": "ok",
            "api_version": API_VERSION,
            "version": _repro_version(),
            "mode": "fleet",
            "n_buildings": len(self.registry.buildings),
            "n_slots": self.registry.n_slots,
            "n_aps": self.registry.n_aps,
            "uptime_seconds": self.uptime_seconds(),
            "requests_served": self.requests_served,
            "admission": stats["admission"],
            "fleet": stats["fleet"],
            "workers": self.dispatcher.worker_liveness(),
        }

    def _models(self) -> dict:
        payload = self.registry.store.describe()
        slot_stats = self.dispatcher.slot_stats()
        # Live version fields: which store digest each slot is serving
        # right now, and how many times it has been (re)bound.
        for slot in self.registry.slots():
            stats = slot_stats.get(slot.slot.label)
            if stats is not None:
                stats["version"] = slot.version
                stats["digest"] = slot.entry.key.digest[:16]
        payload["slots"] = slot_stats
        payload["fleet"] = self.dispatcher.stats.as_dict()
        payload["live"] = self.live.describe()
        # Multi-process fleets surface per-worker process stats; the
        # in-process mode reports no worker table.
        pool = self.dispatcher.pool
        payload["executor_mode"] = "in-process" if pool is None else "multi-process"
        payload["workers"] = [] if pool is None else pool.worker_stats()
        return payload

    def _fleet(self) -> dict:
        payload = self.registry.describe()
        payload["dispatch"] = self.dispatcher.describe()
        payload["live"] = self.live.describe()
        return payload

    # -- lifecycle ---------------------------------------------------------

    def _banner(self) -> str:
        return (
            f"serving fleet of {len(self.registry.buildings)} buildings / "
            f"{self.registry.n_slots} slots on http://{self.host}:{self.port}"
        )

    def _close_backend(self) -> None:
        self.live.close()
        self.dispatcher.close()
