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
from ..radio.device import scaled_normals
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


#: Surveyor position jitter on the listener's own floor (meters).
JITTER_M = 0.15


def _capture_epoch(
    envs: list[RadioEnvironment],
    time: SimTime,
    epoch: int,
    fpr: int,
    leaks: np.ndarray,
    rng: np.random.Generator,
) -> MultiFloorDataset:
    """``fpr`` fingerprints at every RP of every floor at one epoch.

    A global scan is the own-floor survey scan plus every other floor's
    APs heard through the slabs: their mean power at the listener's RP,
    less the leak offset, plus that floor's scan noise, then a device
    reading. The epoch's normals are one block laid out scan by scan
    (floor, RP, scan) as a scan-at-a-time capture draws them; within a
    scan, floor by floor of the building, the own floor takes
    :meth:`RadioEnvironment.survey_draws` normals and any other floor
    one noise and (with receiver noise) one device normal per AP whose
    mean power there is above ``NO_SIGNAL_DBM``.
    """
    n_aps = envs[0].n_aps
    own_width = [env.survey_draws(JITTER_M) for env in envs]
    per_ap = [2 if env.device.noise_std_db > 0 else 1 for env in envs]
    # Other floors' means depend on the RP, not on the scan: one per
    # (listener RP, source floor), which also fixes that floor's draws.
    means: list[dict[int, np.ndarray]] = []
    widths: list[np.ndarray] = []
    for floor, env in enumerate(envs):
        rps = env.floorplan.reference_points
        means.append({})
        widths.append(np.empty((len(rps), len(envs)), dtype=np.int64))
        for src, src_env in enumerate(envs):
            if src == floor:
                widths[floor][:, src] = own_width[src]
                continue
            mean = np.array([src_env.mean_rssi_vector(p, time, epoch=epoch) for p in rps])
            means[floor][src] = mean
            widths[floor][:, src] = (mean > NO_SIGNAL_DBM).sum(axis=1) * per_ap[src]
    row_widths = np.concatenate([np.repeat(width.sum(axis=1), fpr) for width in widths])
    z = rng.standard_normal(int(row_widths.sum()))
    row_starts = np.cumsum(row_widths) - row_widths

    rssi, rp_idx, locs, floors = [], [], [], []
    rp_offset = first_row = 0
    for floor, env in enumerate(envs):
        rps = env.floorplan.reference_points
        rp_of_row = np.repeat(np.arange(len(rps)), fpr)
        rows = len(rp_of_row)
        # Where each (row, source floor) segment starts in ``z``.
        seg = (np.cumsum(widths[floor], axis=1) - widths[floor])[rp_of_row]
        seg += row_starts[first_row : first_row + rows, None]
        block = np.full((rows, len(envs) * n_aps), NO_SIGNAL_DBM)
        for src, src_env in enumerate(envs):
            cols = block[:, src * n_aps : (src + 1) * n_aps]
            if src == floor:
                own_z = z[seg[:, src, None] + np.arange(own_width[src])]
                cols[:] = env.survey(
                    range(len(rps)),
                    [time] * fpr,
                    own_z.reshape(len(rps), fpr, -1),
                    epoch=epoch,
                    position_jitter_m=JITTER_M,
                ).reshape(rows, n_aps)
                continue
            heard = (means[floor][src] > NO_SIGNAL_DBM)[rp_of_row]
            at = np.where(heard, seg[:, src, None] + (heard.cumsum(axis=1) - 1) * per_ap[src], 0)
            true_power = (means[floor][src] - leaks[src, :, floor])[rp_of_row]
            true_power += scaled_normals(src_env.scan_noise_std_db(time), z[at])
            device_z = z[at + 1] if per_ap[src] == 2 else None
            cols[heard] = src_env.device.readings(true_power, device_z)[heard]
        rssi.append(block)
        rp_idx.append(rp_offset + rp_of_row)
        locs.append(rps[rp_of_row])
        floors.append(np.full(rows, floor, dtype=np.int64))
        rp_offset += len(rps)
        first_row += rows
    fingerprints = FingerprintDataset(
        rssi=np.vstack(rssi),
        rp_indices=np.concatenate(rp_idx),
        locations=np.vstack(locs),
        times_hours=np.full(first_row, time.hours),
        epochs=np.full(first_row, epoch, dtype=np.int64),
    )
    return MultiFloorDataset(fingerprints=fingerprints, floor_indices=np.concatenate(floors))


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
