"""Hierarchical scan routing: building → floor → warm slot model.

An incoming fleet-wide scan resolves in three stages, cheapest first:

1. **Building** — which AP block is audible. Far-apart buildings never
   share audible APs, so the classifier counts observed APs per block
   (tie-broken by total received power, then by block order). No
   training, nothing to go stale — in keeping with the paper's theme.
2. **Floor** — the building's fitted
   :class:`~repro.multifloor.FloorClassifier` over its own columns: a
   K-nearest vote against cached reference norms, counted for the whole
   batch at once. Floors the classifier names but no slot serves snap
   to the nearest fitted floor, ties to the lower
   (:func:`~repro.multifloor.nearest_fitted_floor`, shared with the
   hierarchical localizer).
3. **Slot** — the ``(building, floor)`` slot's warm localizer predicts
   ``(x, y)`` on the floor's own floorplan.

Routing is *row-independent and deterministic*: a batch is grouped by
resolved slot, each group rides one ``predict_batched`` call on the
building-block columns, and results scatter back to arrival order —
bit-identical to querying each target slot's localizer directly
(``tests/fleet/test_router.py`` asserts the property). Stages 1–2 cost
about rows × the floor classifier's multiply-adds per row
(:meth:`ScanRouter.macs_per_row`); the serving front-end runs them by
the dispatcher's one offload rule
(:func:`~repro.serve.dispatcher.run_inline_or_offload`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.base import BatchedLocalizer
from ..multifloor import nearest_fitted_floor
from ..radio.access_point import NO_SIGNAL_DBM
from .registry import FleetRegistry, SlotId


@dataclass
class RoutingDecision:
    """Per-row resolved slots for one batch of fleet-wide scans.

    ``building_idx`` indexes :attr:`FleetRegistry.buildings` (block
    order); ``floors`` are fitted floor labels. ``forced`` marks rows
    whose slot was pinned by the caller rather than classified.
    """

    building_idx: np.ndarray
    floors: np.ndarray
    forced: bool = False

    @property
    def n_rows(self) -> int:
        return int(self.building_idx.shape[0])

    def slot_ids(self, registry: FleetRegistry) -> list[SlotId]:
        """Per-row :class:`SlotId` (for response routing fields)."""
        names = [b.name for b in registry.buildings]
        return [
            SlotId(building=names[int(b)], floor=int(f))
            for b, f in zip(self.building_idx, self.floors)
        ]


class ScanRouter:
    """Classify fleet-wide scans and fan them out to slot models."""

    def __init__(self, registry: FleetRegistry) -> None:
        if not registry.buildings:
            raise ValueError("cannot route over an empty fleet")
        self.registry = registry

    # -- validation --------------------------------------------------------

    def check_scans(self, scans: np.ndarray) -> np.ndarray:
        """Coerce to a fleet-width ``(n, n_aps)`` float matrix."""
        scans = np.asarray(scans, dtype=np.float64)
        if scans.ndim == 1:
            scans = scans[None, :]
        if scans.ndim != 2 or scans.shape[1] != self.registry.n_aps:
            raise ValueError(
                f"expected (n, {self.registry.n_aps}) fleet-wide scans, "
                f"got {scans.shape}"
            )
        if scans.shape[0] == 0:
            raise ValueError("expected at least one scan row")
        return scans

    # -- classification ----------------------------------------------------

    def macs_per_row(self, building: str | None = None) -> int:
        """Multiply-adds routing one scan costs: its floor classification.

        The pinned building's classifier, or the costliest one when the
        building is still to be classified.
        """
        if building is not None:
            return self.registry.building(building).floor_classifier.macs_per_row
        return max(d.floor_classifier.macs_per_row for d in self.registry.buildings)

    def classify_buildings(self, scans: np.ndarray) -> np.ndarray:
        """Audibility-signature building detection per row.

        Primary key: observed-AP count per building block; ties break
        by total received power above the no-signal floor, then by
        block order (so an all-silent scan deterministically lands on
        building 0). The power term is scaled strictly below 1 so it
        can never override a count difference.
        """
        buildings = self.registry.buildings
        n = scans.shape[0]
        counts = np.empty((n, len(buildings)), dtype=np.float64)
        power = np.empty((n, len(buildings)), dtype=np.float64)
        for j, deployment in enumerate(buildings):
            block = deployment.block(scans)
            observed = block > NO_SIGNAL_DBM
            counts[:, j] = observed.sum(axis=1)
            power[:, j] = ((block - NO_SIGNAL_DBM) * observed).sum(axis=1)
        key = counts + power / (power.max() + 1.0)
        return np.argmax(key, axis=1).astype(np.int64)

    def route(self, scans: np.ndarray) -> RoutingDecision:
        """Hierarchically classify every row into a fitted slot."""
        scans = self.check_scans(scans)
        building_idx = self.classify_buildings(scans)
        floors = np.zeros(scans.shape[0], dtype=np.int64)
        for j, deployment in enumerate(self.registry.buildings):
            rows = np.flatnonzero(building_idx == j)
            if rows.shape[0] == 0:
                continue
            predicted = deployment.floor_classifier.predict(
                deployment.block(scans[rows])
            )
            floors[rows] = nearest_fitted_floor(predicted, deployment.floors)
        return RoutingDecision(building_idx=building_idx, floors=floors)

    def decide(
        self,
        building_idx: np.ndarray,
        floors: np.ndarray,
    ) -> RoutingDecision:
        """A *forced* decision from caller-supplied slots (oracle path).

        Every ``(building, floor)`` pair must name a fitted slot;
        anything else raises ``ValueError`` (a client error upstream).
        """
        building_idx = np.asarray(building_idx, dtype=np.int64)
        floors = np.asarray(floors, dtype=np.int64)
        if building_idx.shape != floors.shape or building_idx.ndim != 1:
            raise ValueError("forced buildings/floors must be equal-length 1-D")
        buildings = self.registry.buildings
        for b in np.unique(building_idx):
            if not 0 <= b < len(buildings):
                raise ValueError(
                    f"forced building index {int(b)} not in fleet "
                    f"(0..{len(buildings) - 1})"
                )
        for b, f in {
            (int(b), int(f)) for b, f in zip(building_idx, floors)
        }:
            if f not in buildings[b].slots:
                raise ValueError(
                    f"building {buildings[b].name!r} has no fitted floor {f}; "
                    f"fitted: {buildings[b].floors}"
                )
        return RoutingDecision(
            building_idx=building_idx, floors=floors, forced=True
        )

    def decide_slot(self, building: str, floor: int, n_rows: int) -> RoutingDecision:
        """A forced decision pinning all ``n_rows`` rows to one slot.

        Used by the HTTP layer for the request-level ``building`` +
        ``floor`` fields (building-only pinning goes through
        :meth:`route_building` instead). Raises ``KeyError`` when the
        slot does not exist.
        """
        b = self.registry.building_index(building)
        self.registry.slot(building, floor)  # raises KeyError when absent
        return RoutingDecision(
            building_idx=np.full(n_rows, b, dtype=np.int64),
            floors=np.full(n_rows, int(floor), dtype=np.int64),
            forced=True,
        )

    def route_building(self, scans: np.ndarray, building: str) -> RoutingDecision:
        """Pin the building, classify only the floor (partial forcing)."""
        scans = self.check_scans(scans)
        b = self.registry.building_index(building)
        deployment = self.registry.buildings[b]
        predicted = deployment.floor_classifier.predict(deployment.block(scans))
        floors = nearest_fitted_floor(predicted, deployment.floors)
        return RoutingDecision(
            building_idx=np.full(scans.shape[0], b, dtype=np.int64),
            floors=floors,
            forced=True,
        )

    # -- inference ---------------------------------------------------------

    def group_rows(
        self, decision: RoutingDecision
    ) -> dict[tuple[int, int], np.ndarray]:
        """Row indices per resolved ``(building_idx, floor)`` slot.

        Deterministic slot order (building block order, then floor), so
        grouped dispatch is reproducible run to run.
        """
        groups: dict[tuple[int, int], np.ndarray] = {}
        for j, deployment in enumerate(self.registry.buildings):
            in_building = decision.building_idx == j
            if not in_building.any():
                continue
            for floor in deployment.floors:
                rows = np.flatnonzero(in_building & (decision.floors == floor))
                if rows.shape[0]:
                    groups[(j, floor)] = rows
        return groups

    @staticmethod
    def check_groups_cover(
        groups: dict[tuple[int, int], np.ndarray], n_rows: int
    ) -> None:
        """Reject decisions whose rows name slots the fleet doesn't serve.

        ``group_rows`` only iterates fitted slots, so a hand-built (or
        stale, cross-registry) decision naming an unknown slot would
        silently drop its rows — and the coordinate buffer is allocated
        with ``np.empty``, which must never reach a caller unwritten.
        """
        covered = sum(rows.shape[0] for rows in groups.values())
        if covered != n_rows:
            raise ValueError(
                f"routing decision names slots outside the fleet: only "
                f"{covered} of {n_rows} rows map to fitted slots (build "
                f"decisions with route()/decide(), not by hand)"
            )

    def predict(
        self,
        scans: np.ndarray,
        *,
        decision: RoutingDecision | None = None,
        chunk_size: int | None = None,
    ) -> tuple[np.ndarray, RoutingDecision]:
        """Route (or honor a forced decision) and run every slot model.

        The synchronous path — the evaluation harness and the bench use
        it directly; the serving layer goes through
        :class:`~repro.fleet.frontend.FleetDispatcher` instead so slot
        models micro-batch across concurrent requests.
        """
        scans = self.check_scans(scans)
        if decision is None:
            decision = self.route(scans)
        elif decision.n_rows != scans.shape[0]:
            raise ValueError(
                f"decision covers {decision.n_rows} rows, scans have "
                f"{scans.shape[0]}"
            )
        groups = self.group_rows(decision)
        self.check_groups_cover(groups, scans.shape[0])
        coords = np.empty((scans.shape[0], 2), dtype=np.float64)
        for (j, floor), rows in groups.items():
            deployment = self.registry.buildings[j]
            localizer = deployment.slots[floor].entry.localizer
            block = deployment.block(scans[rows])
            if isinstance(localizer, BatchedLocalizer):
                coords[rows] = localizer.predict_batched(
                    block, chunk_size=chunk_size
                )
            else:
                coords[rows] = localizer.predict(block)
        return coords, decision
