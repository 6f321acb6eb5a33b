"""``repro.serve`` — the serving layer for long-lived localizers.

PR 1 made every framework batched end-to-end; this package turns that
substrate into a system that serves online traffic:

* :class:`ModelStore` (``store.py``) — fit/load each localizer once,
  keep it warm keyed by ``(framework, train-content-hash, seed, fast)``,
  persist fitted state to disk so a restart skips the refit.
* :class:`BatchingDispatcher` (``dispatcher.py``) — asyncio
  micro-batching: coalesce concurrent single-scan requests into one
  ``(n, n_aps)`` ``predict_batched`` call while a batch computes (an
  idle dispatcher flushes on the next loop tick), bit-identical to per-request dispatch; sequential decoders (GIFT)
  fall back to ordered per-request dispatch automatically.
* :class:`LocalizationServer` (``server.py``) — stdlib-only HTTP/JSON
  API: ``POST /localize``, ``POST /localize_batch``, ``GET /healthz``,
  ``GET /models``. Wired into the CLI as ``repro serve``.

See ``docs/api.md`` for the JSON request/response schemas and
``docs/architecture.md`` for where this layer sits in the stack.
"""

from .dispatcher import BatchingDispatcher, DispatchStats
from .protocol import (
    API_VERSION,
    MAX_BATCH_ROWS,
    RequestContext,
    RequestError,
    as_scan_matrix,
    parse_localize,
    parse_localize_batch,
)
from .server import BackgroundServer, JsonHttpServer, LocalizationServer
from .store import ModelKey, ModelStore, StoreEntry

__all__ = [
    "API_VERSION",
    "BatchingDispatcher",
    "DispatchStats",
    "ModelKey",
    "ModelStore",
    "StoreEntry",
    "JsonHttpServer",
    "LocalizationServer",
    "BackgroundServer",
    "RequestContext",
    "RequestError",
    "MAX_BATCH_ROWS",
    "as_scan_matrix",
    "parse_localize",
    "parse_localize_batch",
]
