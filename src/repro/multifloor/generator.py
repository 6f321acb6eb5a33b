"""Two-floor UJI-like longitudinal suite generator.

Each floor gets its own radio environment (own APs, shadowing, temporal
processes, AP lifecycle); the floors are coupled through the building's
slab model: a scan on floor *f* also hears floor *g*'s APs, attenuated
by the slabs in between plus a stable per-(AP, floor) leak offset —
stairwells leak the same way every day, which is what makes cross-floor
RSSI a usable floor signature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.fingerprint import FingerprintDataset, LongitudinalSuite
from ..datasets.generators import build_environment
from ..radio.access_point import NO_SIGNAL_DBM
from ..radio.ephemerality import uji_like_schedule
from ..radio.sampler import RadioEnvironment
from ..radio.time import SimTime, monthly_times
from .building import Building, SlabModel
from .dataset import MultiFloorDataset, MultiFloorSuite, floor_local_dataset


@dataclass(frozen=True)
class MultiFloorConfig:
    """Knobs of the two-floor generator."""

    n_floors: int = 2
    aps_per_floor: int = 40
    train_fpr: int = 6
    test_fpr: int = 2
    n_months: int = 10
    slab: SlabModel = SlabModel()

    def __post_init__(self) -> None:
        if self.n_floors < 2:
            raise ValueError("a multi-floor suite needs at least two floors")
        if min(self.aps_per_floor, self.train_fpr, self.test_fpr) <= 0:
            raise ValueError("counts must be positive")
        if self.n_months <= 0:
            raise ValueError("n_months must be positive")


def _leak_offsets(
    n_floors: int, aps_per_floor: int, slab: SlabModel, rng: np.random.Generator
) -> np.ndarray:
    """Stable attenuation for (AP's floor, AP, listener's floor) triples."""
    out = np.zeros((n_floors, aps_per_floor, n_floors))
    for src in range(n_floors):
        for ap in range(aps_per_floor):
            for dst in range(n_floors):
                out[src, ap, dst] = slab.attenuation_db(abs(src - dst), rng)
    return out


def _capture_row(
    envs: list[RadioEnvironment],
    floor: int,
    rp_local: int,
    time: SimTime,
    epoch: int,
    leaks: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One global scan: own-floor scan + attenuated other-floor signals."""
    aps_per_floor = envs[0].n_aps
    row = np.full(len(envs) * aps_per_floor, NO_SIGNAL_DBM)
    location = envs[floor].floorplan.reference_points[rp_local]
    for src, env in enumerate(envs):
        lo = src * aps_per_floor
        if src == floor:
            row[lo : lo + aps_per_floor] = env.scan_at_rp(
                rp_local, time, rng, epoch=epoch, position_jitter_m=0.15
            )
            continue
        noise_std = env.scan_noise_std_db(time)
        means = env.mean_rssi_vector(location, time, epoch=epoch)
        for ap, mean in enumerate(means.tolist()):
            if mean <= NO_SIGNAL_DBM:
                continue
            attenuated = mean - leaks[src, ap, floor]
            measured = env.device.measure(
                attenuated + rng.normal(0.0, noise_std), rng
            )
            row[lo + ap] = measured
    return row


def _capture_epoch(
    envs: list[RadioEnvironment],
    time: SimTime,
    epoch: int,
    fpr: int,
    leaks: np.ndarray,
    rng: np.random.Generator,
) -> MultiFloorDataset:
    """``fpr`` fingerprints at every RP of every floor at one epoch."""
    rows: list[np.ndarray] = []
    rp_idx: list[int] = []
    locs: list[np.ndarray] = []
    floors: list[int] = []
    rp_offset = 0
    for floor, env in enumerate(envs):
        n_rp = env.floorplan.n_reference_points
        for rp in range(n_rp):
            for _ in range(fpr):
                rows.append(
                    _capture_row(envs, floor, rp, time, epoch, leaks, rng)
                )
                rp_idx.append(rp_offset + rp)
                locs.append(env.floorplan.reference_points[rp])
                floors.append(floor)
        rp_offset += n_rp
    n = len(rows)
    fingerprints = FingerprintDataset(
        rssi=np.vstack(rows),
        rp_indices=np.asarray(rp_idx, dtype=np.int64),
        locations=np.vstack(locs),
        times_hours=np.full(n, time.hours),
        epochs=np.full(n, epoch, dtype=np.int64),
    )
    return MultiFloorDataset(
        fingerprints=fingerprints,
        floor_indices=np.asarray(floors, dtype=np.int64),
    )


def floor_suite(suite: MultiFloorSuite, floor: int) -> LongitudinalSuite:
    """One floor of a multi-floor suite as a single-floor deployment.

    The returned :class:`~repro.datasets.fingerprint.LongitudinalSuite`
    is exactly what the single-floor stack (the evaluation engine, the
    serving layer's :class:`~repro.serve.store.ModelStore`) consumes:
    the floor's floorplan, its training slice with floorplan-local RP
    labels, and its slice of every test epoch. This is the fleet layer's
    deployment-slot unit — one warm model per ``(building, floor)``.

    The AP columns stay *building-wide* (all floors of the building),
    not floor-local: the slab-leaked signal from neighbouring floors is
    a stable part of each floor's radio signature, and keeping the
    columns shared means every slot of a building accepts the same scan
    vector the building's floor classifier saw.

    The training slice must cover the floor (the generators always do);
    its global RP offset then anchors the remap of sparse test epochs.
    """
    floor = int(floor)
    floorplan = suite.building.floor(floor)
    # Offset from a label-array mask, not a full slice — the slice of
    # every column happens once, inside floor_local_dataset.
    on_floor = suite.train.floor_indices == floor
    if not on_floor.any():
        raise ValueError(f"floor {floor}: no training rows in {suite.name!r}")
    offset = int(suite.train.fingerprints.rp_indices[on_floor].min())
    train = floor_local_dataset(suite.train, floor, floorplan, rp_offset=offset)
    test_epochs = [
        floor_local_dataset(ds, floor, floorplan, rp_offset=offset)
        for ds in suite.test_epochs
    ]
    return LongitudinalSuite(
        name=f"{suite.name}/f{floor}",
        floorplan=floorplan,
        train=train,
        test_epochs=test_epochs,
        epoch_labels=list(suite.epoch_labels),
        metadata={
            "building": suite.building.name,
            "floor": floor,
            "rp_offset": offset,
            "parent_suite": suite.name,
        },
    )


def generate_multifloor_suite(
    seed: int = 0,
    *,
    config: MultiFloorConfig | None = None,
) -> MultiFloorSuite:
    """UJI-like building with ``n_floors`` near-identical library floors.

    Training fingerprints come from month 0 (one day); each following
    month is a test epoch. Every floor keeps its own AP lifecycle with
    the catastrophic change near 70% of the horizon, like the
    single-floor UJI generator.
    """
    config = config or MultiFloorConfig()
    root = np.random.SeedSequence(seed)
    floor_seeds = root.spawn(config.n_floors)
    envs: list[RadioEnvironment] = []
    change_epoch = max(1, int(round(0.7 * config.n_months)))
    for seq in floor_seeds:
        floor_seed = int(seq.generate_state(1)[0]) % (2**31)
        schedule = uji_like_schedule(
            config.aps_per_floor,
            np.random.default_rng(seq.spawn(1)[0]),
            n_epochs=config.n_months + 1,
            change_epoch=change_epoch,
        )
        envs.append(
            build_environment(
                "uji",
                floor_seed,
                n_aps=config.aps_per_floor,
                schedule=schedule,
            )
        )
    building = Building(
        name=f"uji-{config.n_floors}f",
        floors=[env.floorplan for env in envs],
        slab=config.slab,
    )
    leak_rng = np.random.default_rng(root.spawn(1)[0])
    leaks = _leak_offsets(
        config.n_floors, config.aps_per_floor, config.slab, leak_rng
    )
    rng = np.random.default_rng(root.spawn(2)[1])
    train = _capture_epoch(
        envs, SimTime.at(hours=2.0), 0, config.train_fpr, leaks, rng
    )
    test_epochs = [
        _capture_epoch(envs, t, month, config.test_fpr, leaks, rng)
        for month, t in enumerate(monthly_times(config.n_months), start=1)
    ]
    labels = [f"month {m}" for m in range(1, config.n_months + 1)]
    return MultiFloorSuite(
        name=f"uji-{config.n_floors}f",
        building=building,
        train=train,
        test_epochs=test_epochs,
        epoch_labels=labels,
        metadata={
            "seed": seed,
            "config": config,
            "environments": envs,
        },
    )
