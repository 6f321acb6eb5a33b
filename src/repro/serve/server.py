"""Stdlib-only asyncio HTTP/JSON server for long-lived localizers.

No web framework, no new runtime dependency: a minimal HTTP/1.1
implementation over ``asyncio.start_server``. The plumbing lives in
:class:`JsonHttpServer` — request parsing, keep-alive connection
handling, graceful shutdown, background-thread hosting — and concrete
servers supply the endpoint table:

* :class:`LocalizationServer` (this module): one warm model behind one
  dispatcher — ``/localize``, ``/localize_batch``, ``/healthz``,
  ``/models``.
* :class:`repro.fleet.server.FleetServer`: many ``(building, floor)``
  deployment slots behind a scan router — the same endpoints plus
  ``/fleet``.

Connections are **persistent** (HTTP/1.1 keep-alive): a client may pipe
any number of request/response cycles through one TCP connection, which
is what the load generator and fleet clients do to stop paying
per-request TCP setup. ``Connection: close`` (and HTTP/1.0 without an
explicit keep-alive) is honored — the response carries
``Connection: close`` and the server ends the connection after it. An
idle connection is dropped after ``_READ_TIMEOUT_S`` without a request.

Request/response JSON shapes live in :mod:`repro.serve.protocol`.

Run blocking (:meth:`JsonHttpServer.run`, what ``repro serve`` does),
or in a daemon thread (:meth:`JsonHttpServer.start_background`, what
the tests, the load example and the CI smoke step use).
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections.abc import Callable

from ..obs import JsonLogger, MetricsRegistry, MetricsSnapshot
from .dispatcher import BatchingDispatcher
from .protocol import (
    API_VERSION,
    MAX_BODY_BYTES,
    RequestContext,
    RequestError,
    encode_json,
    error_payload,
    location_response,
    locations_response,
    parse_localize,
    parse_localize_batch,
    require_method,
    versioned_payload,
    wants_trace,
)
from .store import ModelStore, StoreEntry

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Seconds a client may dawdle sending its request before the
#: connection is dropped. On a kept-alive connection this doubles as
#: the idle timeout between requests.
_READ_TIMEOUT_S = 30.0


def _repro_version() -> str:
    """The package version (lazy: ``repro`` imports this module)."""
    import repro

    return getattr(repro, "__version__", "unknown")


class BackgroundServer:
    """Handle on a server running in a daemon thread (tests/benches)."""

    def __init__(self, thread: threading.Thread, loop: asyncio.AbstractEventLoop,
                 stop: asyncio.Event, port: int) -> None:
        self._thread = thread
        self._loop = loop
        self._stop = stop
        self.port = port

    def shutdown(self, timeout: float = 10.0) -> None:
        """Signal the serving loop to exit and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout)


class JsonHttpServer:
    """HTTP/JSON plumbing shared by the single-model and fleet servers.

    Subclasses implement :meth:`_route` (endpoint dispatch), and may
    override :meth:`_banner` (the line printed when :meth:`run` binds)
    and :meth:`_close_backend` (dispatcher teardown on shutdown).

    Parameters
    ----------
    host / port:
        Bind address. ``port=0`` picks an ephemeral port; the bound
        port is written back to ``self.port`` once listening.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` every layer behind this
        server records into (``/metrics`` scrapes it). One is created
        when not supplied; pass ``MetricsRegistry(enabled=False)`` to
        run with no-op instrumentation.
    log_json / slow_ms:
        Structured JSON request logging to stderr (``repro serve
        --log-json``); ``slow_ms`` drops successful requests faster
        than the threshold (errors always log).
    """

    #: Stamped on every structured log line; subclasses override.
    _component = "serve"

    #: Endpoint label whitelist for ``/metrics`` — anything else is
    #: folded into ``"other"`` so probing random paths cannot grow the
    #: label space without bound.
    _endpoints = ("/healthz", "/models", "/localize", "/localize_batch",
                  "/observe", "/fleet", "/metrics")

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8000,
        metrics: MetricsRegistry | None = None,
        log_json: bool = False,
        slow_ms: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.requests_served = 0
        self._started_at = time.monotonic()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = JsonLogger(
            self._component, enabled=log_json, slow_ms=slow_ms
        )
        self._m_requests = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint/method/status.",
            ("endpoint", "method", "status"),
        )
        self._m_latency = self.metrics.histogram(
            "repro_http_request_seconds",
            "Wall-clock request handling time, by endpoint.",
            ("endpoint",),
        )

    # -- endpoint hooks (subclass API) -------------------------------------

    async def _route(self, request: RequestContext) -> tuple[int, dict]:
        """Dispatch one parsed request to its endpoint handler.

        Handlers read the JSON body through ``request.json()`` (which
        also negotiates ``api_version``) and signal client errors by
        raising :class:`~repro.serve.protocol.RequestError` — the
        connection loop renders them in the negotiated error shape.
        """
        raise NotImplementedError

    def _banner(self) -> str:
        """One line announcing what is being served (printed by run())."""
        return f"serving on http://{self.host}:{self.port}"

    def _close_backend(self) -> None:
        """Release model dispatchers etc. when the serve loop exits."""

    # -- request handling --------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes, bool] | None:
        """Parse one request into ``(method, path, body, keep_alive)``.

        Returns ``None`` when the client closed the connection cleanly
        (EOF before a request line — the normal end of a kept-alive
        connection). A few bare CRLFs before the request line are
        tolerated, per the HTTP robustness principle.
        """
        request_line = b"\r\n"
        for _ in range(4):
            if request_line not in (b"\r\n", b"\n"):
                break
            request_line = await reader.readline()
        if request_line == b"":
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise RequestError("malformed request line")
        method, target, version = parts[0].upper(), parts[1], parts[2]
        path = target.split("?", 1)[0]
        # HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
        keep_alive = version != "HTTP/1.0"
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as exc:
                    raise RequestError("invalid Content-Length") from exc
                if content_length < 0:
                    raise RequestError("invalid Content-Length")
            elif name == "connection":
                tokens = {t.strip().lower() for t in value.split(",")}
                if "close" in tokens:
                    keep_alive = False
                elif "keep-alive" in tokens:
                    keep_alive = True
            elif name == "transfer-encoding":
                # Only Content-Length framing is implemented. A chunked
                # body left unread would be parsed as the next request
                # line on a kept-alive connection (desync), so reject
                # and close instead.
                raise RequestError(
                    "Transfer-Encoding is not supported; "
                    "frame the body with Content-Length"
                )
        if content_length > MAX_BODY_BYTES:
            raise RequestError(
                f"request body exceeds {MAX_BODY_BYTES} bytes", status=413
            )
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method, path, body, keep_alive

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | bytes,
        *,
        keep_alive: bool,
        content_type: str = "application/json",
    ) -> bool:
        data = payload if isinstance(payload, bytes) else encode_json(payload)
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + data)
            await writer.drain()
            return True
        except ConnectionError:  # pragma: no cover - client went away
            return False

    def _observe(
        self,
        *,
        endpoint: str,
        method: str,
        status: int,
        duration_s: float,
        request_id: str,
    ) -> None:
        """Account one served request into metrics + the structured log."""
        label = endpoint if endpoint in self._endpoints else "other"
        self._m_requests.labels(label, method, str(status)).inc()
        self._m_latency.labels(label).observe(duration_s)
        self.log.request(
            request_id=request_id,
            endpoint=label,
            status=status,
            duration_ms=duration_s * 1e3,
        )

    async def _collect_metrics(self) -> MetricsSnapshot:
        """The snapshot ``/metrics`` renders; fleet merges workers in."""
        return self.metrics.snapshot()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: a loop of request/response cycles."""
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), timeout=_READ_TIMEOUT_S
                    )
                except RequestError as exc:
                    # The request framing cannot be trusted after a
                    # malformed read; answer and end the connection.
                    self.requests_served += 1
                    await self._respond(
                        writer,
                        exc.status,
                        error_payload(
                            exc.message, status=exc.status, code=exc.code,
                            retryable=exc.retryable,
                        ),
                        keep_alive=False,
                    )
                    return
                except (
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    return  # idle or half-sent connection: drop silently
                if request is None:
                    return  # client closed between requests
                method, path, body, keep_alive = request
                ctx = RequestContext(method, path, body)
                t_start = time.perf_counter()
                if path == "/metrics":
                    status, payload = await self._metrics_response(ctx)
                    self.requests_served += 1
                    self._observe(
                        endpoint=path, method=method, status=status,
                        duration_s=time.perf_counter() - t_start,
                        request_id=ctx.request_id,
                    )
                    sent = await self._respond(
                        writer, status, payload, keep_alive=keep_alive,
                        content_type=(
                            "text/plain; version=0.0.4; charset=utf-8"
                            if status == 200 else "application/json"
                        ),
                    )
                    if not sent or not keep_alive:
                        return
                    continue
                try:
                    status, payload = await self._route(ctx)
                    if status == 200:
                        payload = versioned_payload(
                            payload, versioned=ctx.versioned
                        )
                        if ctx.trace is not None:
                            payload["trace"] = ctx.trace.to_dict(
                                total_s=time.perf_counter() - t_start
                            )
                except RequestError as exc:
                    status, payload = exc.status, error_payload(
                        exc.message, status=exc.status, code=exc.code,
                        retryable=exc.retryable,
                    )
                except ValueError as exc:
                    # predict()-level rejections (shape mismatch) are
                    # client errors.
                    status, payload = 400, error_payload(str(exc), status=400)
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    status, payload = 500, error_payload(
                        f"{type(exc).__name__}: {exc}", status=500
                    )
                if status >= 400:
                    # Echo the id into the error envelope so a client
                    # log line can be joined to the server's.
                    payload["request_id"] = ctx.request_id
                self.requests_served += 1
                self._observe(
                    endpoint=path, method=method, status=status,
                    duration_s=time.perf_counter() - t_start,
                    request_id=ctx.request_id,
                )
                sent = await self._respond(
                    writer, status, payload, keep_alive=keep_alive
                )
                if not sent or not keep_alive:
                    return
        finally:
            with contextlib.suppress(Exception):  # pragma: no cover - teardown race
                writer.close()

    async def _metrics_response(
        self, ctx: RequestContext
    ) -> tuple[int, bytes | dict]:
        """``GET /metrics`` → Prometheus text exposition (no JSON body)."""
        if ctx.method != "GET":
            return 405, error_payload("use GET /metrics", status=405)
        snapshot = await self._collect_metrics()
        return 200, snapshot.to_text().encode("utf-8")

    # -- lifecycle ---------------------------------------------------------

    def uptime_seconds(self) -> float:
        """Seconds since this server object was created."""
        return round(time.monotonic() - self._started_at, 3)

    async def serve(
        self,
        stop: asyncio.Event | None = None,
        *,
        on_ready: Callable[[], None] | None = None,
    ) -> None:
        """Bind and serve until ``stop`` is set (forever when ``None``).

        ``on_ready`` fires once the socket is bound and ``self.port``
        holds the resolved port (meaningful with ``port=0``).
        """
        server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if on_ready is not None:
            on_ready()
        try:
            async with server:
                if stop is None:
                    await server.serve_forever()
                else:
                    await stop.wait()
        finally:
            self._close_backend()

    def run(
        self, startup: dict[str, float] | None = None, *, since: float | None = None
    ) -> int:
        """Blocking entry point (``repro serve``); returns an exit code.

        SIGINT/SIGTERM trigger a clean shutdown with exit code 0.
        ``startup`` maps the finished startup stages to wall seconds;
        when given, one ``startup:`` line (and, with ``--log-json``, a
        ``startup`` record) reports them plus ``start_s`` — from
        ``since`` (a ``time.perf_counter()`` stamp, default: now) to the
        bound socket — just before the banner.
        """
        import signal

        since = time.perf_counter() if since is None else since

        def _announce() -> None:
            if startup is not None:
                stages = {**startup, "start_s": time.perf_counter() - since}
                print(
                    "startup: " + " ".join(f"{k}={v:.3f}" for k, v in stages.items()),
                    flush=True,
                )
                self.log.event("startup", **{k: round(v, 4) for k, v in stages.items()})
            print(self._banner(), flush=True)

        async def _main() -> None:
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                # pragma: no cover - non-Unix
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(sig, stop.set)
            await self.serve(stop, on_ready=_announce)

        # pragma: no cover - signal-handler race
        with contextlib.suppress(KeyboardInterrupt):
            asyncio.run(_main())
        print("shutdown complete", flush=True)
        return 0

    def start_background(self) -> BackgroundServer:
        """Serve from a daemon thread; returns a stoppable handle.

        Blocks until the socket is bound so the caller can connect
        immediately; ``handle.port`` carries the resolved port (useful
        with ``port=0``).
        """
        ready = threading.Event()
        box: dict = {}

        def _thread_main() -> None:
            async def _main() -> None:
                stop = asyncio.Event()
                box["loop"] = asyncio.get_running_loop()
                box["stop"] = stop
                await self.serve(stop, on_ready=ready.set)

            try:
                asyncio.run(_main())
            except BaseException as exc:  # surfaced to the waiting caller
                box["error"] = exc
                raise

        thread = threading.Thread(
            target=_thread_main, name="repro-serve", daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 30.0
        while not ready.wait(timeout=0.05):
            if not thread.is_alive():
                raise RuntimeError(
                    "server thread died during startup"
                ) from box.get("error")
            if time.monotonic() > deadline:
                raise RuntimeError("server failed to start within 30s")
        return BackgroundServer(thread, box["loop"], box["stop"], self.port)


class LocalizationServer(JsonHttpServer):
    """HTTP front-end over one warm model and its dispatcher.

    Parameters
    ----------
    entry:
        The warm :class:`~repro.serve.store.StoreEntry` to serve.
    dispatcher:
        The :class:`~repro.serve.dispatcher.BatchingDispatcher` wrapping
        ``entry.localizer``.
    store:
        Optional :class:`~repro.serve.store.ModelStore` backing
        ``/models``; without it the endpoint reports just this entry.
    host / port:
        Bind address (see :class:`JsonHttpServer`).
    """

    def __init__(
        self,
        entry: StoreEntry,
        dispatcher: BatchingDispatcher,
        *,
        store: ModelStore | None = None,
        host: str = "127.0.0.1",
        port: int = 8000,
        metrics: MetricsRegistry | None = None,
        log_json: bool = False,
        slow_ms: float | None = None,
    ) -> None:
        super().__init__(
            host=host, port=port, metrics=metrics,
            log_json=log_json, slow_ms=slow_ms,
        )
        self.entry = entry
        self.dispatcher = dispatcher
        self.store = store
        dispatcher.bind_metrics(self.metrics)

    async def _route(self, request: RequestContext) -> tuple[int, dict]:
        method, path = request.method, request.path
        if path == "/healthz":
            require_method(method, "GET", path)
            return 200, self._healthz()
        if path == "/models":
            require_method(method, "GET", path)
            return 200, self._models()
        if path == "/localize":
            require_method(method, "POST", path)
            payload = request.json()
            if wants_trace(payload):
                request.begin_trace()
            queries = parse_localize(payload, self.entry.n_aps)
            coords = await self.dispatcher.localize(
                queries, trace=request.trace
            )
            return 200, location_response(coords)
        if path == "/localize_batch":
            require_method(method, "POST", path)
            payload = request.json()
            if wants_trace(payload):
                request.begin_trace()
            queries = parse_localize_batch(payload, self.entry.n_aps)
            coords = await self.dispatcher.localize(
                queries, trace=request.trace
            )
            return 200, locations_response(coords)
        raise RequestError(
            f"unknown endpoint {path!r}", status=404
        )

    def _healthz(self) -> dict:
        return {
            "status": "ok",
            "api_version": API_VERSION,
            "version": _repro_version(),
            "framework": self.entry.key.framework,
            "suite": self.entry.suite_name,
            "n_aps": self.entry.n_aps,
            "model_source": self.entry.source,
            "uptime_seconds": self.uptime_seconds(),
            "requests_served": self.requests_served,
            "dispatcher": self.dispatcher.stats.as_dict(),
        }

    def _models(self) -> dict:
        if self.store is not None:
            payload = self.store.describe()
        else:
            payload = {"models": [self.entry.describe()]}
        payload["dispatcher"] = self.dispatcher.stats.as_dict()
        return payload

    def _banner(self) -> str:
        return (
            f"serving {self.entry.key.framework} "
            f"({self.entry.suite_name}, {self.entry.source}) "
            f"on http://{self.host}:{self.port}"
        )

    def _close_backend(self) -> None:
        self.dispatcher.close()
