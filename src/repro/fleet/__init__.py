"""``repro.fleet`` — multi-building / multi-floor serving in one process.

STONE's pitch is re-training-free deployment *at building scale*; this
package serves that scale from one process. A fleet is a set of
``(building, floor)`` deployment slots, each backed by a warm fitted
localizer out of the shared :class:`~repro.serve.store.ModelStore`
(with its own optional radio-map :class:`~repro.index.IndexConfig`),
and traffic is routed to slots hierarchically — building signature,
then floor classifier, then the slot's model:

* :mod:`spec` — the ``"HQ:2,LAB:3:kmeans"`` building-spec grammar.
* :class:`FleetRegistry` (``registry.py``) — slots, AP namespace
  stacking, per-building floor classifiers, warm/persistent models.
* :class:`ScanRouter` (``router.py``) — hierarchical classification and
  slot-grouped batch inference, bit-identical to direct slot queries.
* :class:`FleetDispatcher` (``frontend.py``) — the admission/routing
  front-end: per-slot micro-batching behind one asyncio loop with
  bounded admission (429 on overload), computing in-process or in
  worker processes.
* :class:`WorkerPool` (``worker.py``) — processes, placement and IPC
  for multi-process fleets: N worker processes own slots round-robin
  (fixed for the pool's life) and map every model array zero-copy
  from one shared-memory segment per slot (``repro serve --workers
  N``).
* :func:`run_fleet_experiment` (``experiment.py``) — routing accuracy
  and routed-vs-oracle error across the longitudinal epochs.
* :class:`FleetServer` (``server.py``) — the HTTP/JSON front-end
  (``repro serve --fleet``).

See ``docs/architecture.md`` (fleet layer) and ``docs/api.md``.
"""

from .experiment import (
    FleetEpochResult,
    FleetExperimentResult,
    fleet_epoch_traffic,
    run_fleet_experiment,
)
from .frontend import (
    FleetDispatcher,
    FleetOverloadError,
    FleetStats,
    SlotCounters,
)
from .registry import BuildingDeployment, FleetRegistry, FleetSlot, SlotId
from .router import RoutingDecision, ScanRouter
from .server import FleetServer
from .spec import BuildingSpec, format_fleet_spec, parse_fleet_spec
from .worker import WorkerCrashedError, WorkerPool

__all__ = [
    "BuildingDeployment",
    "BuildingSpec",
    "FleetDispatcher",
    "FleetEpochResult",
    "FleetExperimentResult",
    "FleetOverloadError",
    "FleetRegistry",
    "FleetServer",
    "FleetSlot",
    "FleetStats",
    "RoutingDecision",
    "ScanRouter",
    "SlotCounters",
    "SlotId",
    "WorkerCrashedError",
    "WorkerPool",
    "fleet_epoch_traffic",
    "format_fleet_spec",
    "parse_fleet_spec",
    "run_fleet_experiment",
]
