"""Deployment-slot registry: ``(building, floor)`` → warm localizer.

The fleet's unit of deployment is a **slot** — one floor of one
building, served by one fitted localizer over that floor's radio map.
The :class:`FleetRegistry` owns the mapping:

* Every slot's model comes from one shared
  :class:`~repro.serve.store.ModelStore`, so all models stay warm in
  one process and — with a ``model_dir`` — persist across restarts
  (a fleet server restart warm-loads every slot instead of refitting).
* Each slot carries its own optional
  :class:`~repro.index.IndexConfig`: a big floor can shard its radio
  map while a small one stays exhaustive, per building or per floor.
* Buildings are stacked into one **fleet AP namespace**: building *i*'s
  scan vector occupies a contiguous column block after building
  *i-1*'s. A fleet-wide scan is the concatenation — physically, APs of
  far-apart buildings are never co-audible, so a real scan has signal
  in (at most) one block, which is exactly what the router's building
  classifier keys on.
* Each building keeps a fitted
  :class:`~repro.multifloor.FloorClassifier` over its own training
  fingerprints, the second stage of the routing hierarchy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..datasets.fingerprint import LongitudinalSuite
from ..index import IndexConfig
from ..multifloor import FloorClassifier, MultiFloorConfig, MultiFloorSuite
from ..multifloor.generator import floor_suite, generate_multifloor_suite
from ..serve.store import ModelStore, StoreEntry
from .spec import BuildingSpec

#: ``index=`` arguments accepted per building: one config for every
#: floor, or a ``{floor: config}`` mapping for per-floor control.
IndexArg = IndexConfig | dict[int, IndexConfig | None] | None


@dataclass(frozen=True)
class SlotId:
    """Address of one deployment slot in the fleet."""

    building: str
    floor: int

    @property
    def label(self) -> str:
        return f"{self.building}/f{self.floor}"


@dataclass
class FleetSlot:
    """One warm deployment slot: its suite view and fitted model.

    ``version`` counts bindings: 1 for the offline fit at registration,
    +1 per live hot-swap (``FleetRegistry.rebind_slot``). It is serving
    state, not model identity — the model's identity stays the
    content-addressed store digest.
    """

    slot: SlotId
    suite: LongitudinalSuite
    entry: StoreEntry
    index: IndexConfig | None = None
    version: int = 1

    def describe(self) -> dict:
        """JSON-ready summary for the ``/fleet`` endpoint."""
        return {
            "slot": self.slot.label,
            "building": self.slot.building,
            "floor": self.slot.floor,
            "framework": self.entry.key.framework,
            "digest": self.entry.key.digest[:16],
            "version": self.version,
            "source": self.entry.source,
            "fit_seconds": round(self.entry.fit_seconds, 3),
            "n_rps": self.suite.floorplan.n_reference_points,
            "index": self.entry.localizer.index_describe(),
            "backend": getattr(
                self.entry.localizer, "kernel_backend", "reference"
            ),
        }


@dataclass
class BuildingDeployment:
    """One building's routing state: AP block, floor detector, slots."""

    name: str
    suite: MultiFloorSuite
    #: Half-open column range of this building in the fleet namespace.
    ap_start: int
    ap_stop: int
    floor_classifier: FloorClassifier
    slots: dict[int, FleetSlot] = field(default_factory=dict)

    @property
    def n_aps(self) -> int:
        return self.ap_stop - self.ap_start

    @property
    def floors(self) -> list[int]:
        """Fitted floor labels, sorted."""
        return sorted(self.slots)

    def block(self, scans: np.ndarray) -> np.ndarray:
        """This building's columns of fleet-wide ``(n, fleet_aps)`` scans."""
        return scans[:, self.ap_start : self.ap_stop]

    def describe(self) -> dict:
        return {
            "building": self.name,
            "ap_range": [self.ap_start, self.ap_stop],
            "n_floors": len(self.slots),
            "slots": [self.slots[f].describe() for f in self.floors],
        }


class FleetRegistry:
    """Build and hold every deployment slot of a fleet.

    Parameters
    ----------
    store:
        The shared :class:`~repro.serve.store.ModelStore`. Defaults to a
        fresh in-memory store; pass one with a ``model_dir`` (or use the
        ``model_dir`` shortcut) so slot models persist across restarts.
    model_dir:
        Shortcut for ``store=ModelStore(model_dir)``; ignored when
        ``store`` is given.
    """

    def __init__(
        self,
        *,
        store: ModelStore | None = None,
        model_dir: str | Path | None = None,
    ) -> None:
        self.store = store if store is not None else ModelStore(model_dir)
        self._buildings: dict[str, BuildingDeployment] = {}
        self._order: list[str] = []
        #: Wall seconds :meth:`from_specs` spent generating suites (the
        #: rest of its time is model fit/load); reported at startup.
        self.generate_seconds = 0.0

    # -- construction ------------------------------------------------------

    def add_building(
        self,
        name: str,
        suite: MultiFloorSuite,
        *,
        framework: str = "KNN",
        seed: int = 0,
        fast: bool = False,
        index: IndexArg = None,
        backend: str | None = None,
        floor_k: int = 5,
    ) -> BuildingDeployment:
        """Register a building: fit its floor detector and every slot.

        ``index`` shards each slot's radio map — pass one
        :class:`~repro.index.IndexConfig` for all floors or a
        ``{floor: config}`` mapping. ``backend`` selects every slot's
        kernel backend (:mod:`repro.kernels`). Slots resolve through
        the shared store, so re-adding an identical building (or
        restarting against the same ``model_dir``) is warm, not a
        refit.
        """
        if name in self._buildings:
            raise ValueError(f"building {name!r} already registered")
        ap_start = self.n_aps
        ap_stop = ap_start + suite.train.n_aps
        classifier = FloorClassifier(k=floor_k).fit(
            suite.train.fingerprints.rssi, suite.train.floor_indices
        )
        deployment = BuildingDeployment(
            name=name,
            suite=suite,
            ap_start=ap_start,
            ap_stop=ap_stop,
            floor_classifier=classifier,
        )
        for floor in suite.train.floor_set:
            floor = int(floor)
            slot_suite = floor_suite(suite, floor)
            slot_index = index.get(floor) if isinstance(index, dict) else index
            entry = self.store.get_or_fit(
                framework,
                slot_suite,
                seed=seed,
                fast=fast,
                index=slot_index,
                backend=backend,
            )
            deployment.slots[floor] = FleetSlot(
                slot=SlotId(building=name, floor=floor),
                suite=slot_suite,
                entry=entry,
                index=slot_index,
            )
        self._buildings[name] = deployment
        self._order.append(name)
        return deployment

    @classmethod
    def from_specs(
        cls,
        specs: list[BuildingSpec],
        *,
        framework: str = "KNN",
        seed: int = 0,
        fast: bool = False,
        index: IndexConfig | None = None,
        backend: str | None = None,
        months: int = 4,
        aps_per_floor: int = 24,
        store: ModelStore | None = None,
        model_dir: str | Path | None = None,
    ) -> FleetRegistry:
        """Generate one multi-floor suite per spec and register them all.

        Each building draws from an independent seed stream derived from
        ``(seed, building position)``, so fleets are reproducible and
        buildings are radio-independent. A spec's ``index_kind``
        overrides the fleet-wide ``index`` default for that building.
        """
        registry = cls(store=store, model_dir=model_dir)
        fpr_kwargs = (
            {"train_fpr": 3, "test_fpr": 1} if fast else {"train_fpr": 6, "test_fpr": 2}
        )
        for i, spec in enumerate(specs):
            building_seed = int(
                np.random.SeedSequence([seed, i]).generate_state(1)[0]
            ) % (2**31)
            config = MultiFloorConfig(
                n_floors=spec.n_floors,
                aps_per_floor=aps_per_floor,
                n_months=months,
                **fpr_kwargs,
            )
            started = time.perf_counter()
            suite = generate_multifloor_suite(building_seed, config=config)
            registry.generate_seconds += time.perf_counter() - started
            building_index = index
            if spec.index_kind is not None:
                if spec.index_kind == "exhaustive":
                    building_index = None
                else:
                    # Override only the *kind*; shard/probe tuning from
                    # the fleet-wide config (the --n-shards/--n-probe
                    # flags) still applies to this building.
                    base = index if index is not None else IndexConfig()
                    building_index = IndexConfig(
                        kind=spec.index_kind,
                        n_shards=base.n_shards,
                        n_probe=base.n_probe,
                        seed=seed,
                    )
            registry.add_building(
                spec.name,
                suite,
                framework=framework,
                seed=seed,
                fast=fast,
                index=building_index,
                backend=backend,
            )
        return registry

    # -- lookup ------------------------------------------------------------

    @property
    def n_aps(self) -> int:
        """Width of the fleet AP namespace (sum of building blocks)."""
        if not self._order:
            return 0
        last = self._buildings[self._order[-1]]
        return last.ap_stop

    @property
    def n_slots(self) -> int:
        return sum(len(b.slots) for b in self._buildings.values())

    @property
    def buildings(self) -> list[BuildingDeployment]:
        """Deployments in registration (= AP block) order."""
        return [self._buildings[name] for name in self._order]

    def building(self, name: str) -> BuildingDeployment:
        try:
            return self._buildings[name]
        except KeyError:
            raise KeyError(
                f"unknown building {name!r}; fleet has {self._order}"
            ) from None

    def building_index(self, name: str) -> int:
        """Position of a building in block order (KeyError when absent)."""
        self.building(name)
        return self._order.index(name)

    def slot(self, building: str, floor: int) -> FleetSlot:
        deployment = self.building(building)
        try:
            return deployment.slots[int(floor)]
        except KeyError:
            raise KeyError(
                f"building {building!r} has no floor {floor}; "
                f"fitted floors: {deployment.floors}"
            ) from None

    def slots(self) -> list[FleetSlot]:
        """Every slot, building-block order then floor order."""
        return [
            deployment.slots[floor]
            for deployment in self.buildings
            for floor in deployment.floors
        ]

    # -- live rebinding ----------------------------------------------------

    def rebind_slot(
        self,
        building: str,
        floor: int,
        *,
        entry: StoreEntry,
        suite: LongitudinalSuite,
    ) -> FleetSlot:
        """Atomically bind a slot to a new model version.

        The registry-side half of a live hot-swap: the slot object is
        mutated in place (dispatchers hold the slot, not the entry), its
        ``version`` bumps and the old entry stays warm in the shared
        store until pruned. AP width must match — a refit never changes
        a slot's AP namespace.
        """
        slot = self.slot(building, floor)
        if suite.n_aps != slot.suite.n_aps:
            raise ValueError(
                f"refit suite for {slot.slot.label} has {suite.n_aps} APs, "
                f"slot namespace expects {slot.suite.n_aps}"
            )
        if entry.n_aps != slot.entry.n_aps:
            raise ValueError(
                f"refit model for {slot.slot.label} covers {entry.n_aps} APs, "
                f"slot namespace expects {slot.entry.n_aps}"
            )
        slot.suite = suite
        slot.entry = entry
        slot.version += 1
        return slot

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict:
        """JSON-ready topology for the ``/fleet`` endpoint."""
        return {
            "n_buildings": len(self._order),
            "n_slots": self.n_slots,
            "n_aps": self.n_aps,
            "buildings": [b.describe() for b in self.buildings],
        }

    def describe_text(self) -> str:
        """Aligned console rendering (``repro fleet``)."""
        lines = [
            f"fleet: {len(self._order)} buildings, {self.n_slots} slots, "
            f"{self.n_aps} AP columns"
        ]
        for deployment in self.buildings:
            lines.append(
                f"  {deployment.name}: APs "
                f"[{deployment.ap_start}, {deployment.ap_stop})"
            )
            for floor in deployment.floors:
                slot = deployment.slots[floor]
                stats = slot.entry.localizer.index_describe()
                kind = stats["kind"] if stats else "exhaustive"
                lines.append(
                    f"    f{floor}: {slot.entry.key.framework} "
                    f"({slot.entry.source}, "
                    f"{slot.suite.floorplan.n_reference_points} RPs, "
                    f"index {kind}, digest {slot.entry.key.digest[:12]})"
                )
        return "\n".join(lines)
