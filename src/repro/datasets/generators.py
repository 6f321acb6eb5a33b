"""Longitudinal fingerprint suite generators.

These functions reproduce the *shapes* of the paper's three evaluation
corpora (Sec. V.A) from the radio simulator:

- :func:`generate_path_suite` — Office/Basement: 16 collection instances
  (3 intra-day, 6 daily, 7 monthly), 6 fingerprints per RP per CI,
  ~20% of APs removed after CI:11, training on a subset of CI:0.
- :func:`generate_uji_suite` — UJI-like: up to 9 same-day fingerprints per
  RP for training, 15 monthly test epochs, ~50% of APs changed
  (removed/replaced) around month 11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.builders import (
    build_basement_path,
    build_office_path,
    build_uji_library_floor,
)
from ..radio.access_point import place_access_points
from ..radio.device import DeviceProfile
from ..radio.ephemerality import (
    EphemeralitySchedule,
    office_like_schedule,
    uji_like_schedule,
)
from ..radio.propagation import make_propagation
from ..radio.sampler import RadioEnvironment
from ..radio.shadowing import ShadowingModel
from ..radio.temporal import TEMPORAL_PRESETS, TemporalModel
from ..radio.time import SimTime, collection_instance_times, monthly_times
from .fingerprint import FingerprintDataset, LongitudinalSuite

PATH_BUILDERS = {
    "office": (build_office_path, "office"),
    "basement": (build_basement_path, "basement"),
}


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by the suite generators."""

    n_aps: int = 60
    fpr: int = 6
    train_fpr: int = 4
    position_jitter_m: float = 0.15
    device: DeviceProfile | None = None

    def __post_init__(self) -> None:
        if self.n_aps <= 0 or self.fpr <= 0 or self.train_fpr <= 0:
            raise ValueError("counts must be positive")
        if self.train_fpr > self.fpr:
            raise ValueError("train_fpr cannot exceed fpr")


def build_environment(
    kind: str,
    seed: int,
    *,
    n_aps: int = 60,
    schedule: EphemeralitySchedule | None = None,
    device: DeviceProfile | None = None,
) -> RadioEnvironment:
    """A ready radio environment for ``kind`` in {office, basement, uji}.

    Seeds are split deterministically: AP placement, shadowing, temporal
    processes and the lifecycle schedule each get an independent stream so
    that changing one knob does not silently reshuffle the others.
    """
    root = np.random.SeedSequence(seed)
    s_place, s_shadow, s_temporal, s_schedule, s_env = root.spawn(5)
    if kind in PATH_BUILDERS:
        builder, env_name = PATH_BUILDERS[kind]
        floorplan = builder()
        if schedule is None:
            schedule = office_like_schedule(
                n_aps, np.random.default_rng(s_schedule), n_epochs=16
            )
        temporal_preset = TEMPORAL_PRESETS[env_name]
        fading = 1.8 if kind == "basement" else 1.5
    elif kind == "uji":
        floorplan = build_uji_library_floor()
        env_name = "open"
        if schedule is None:
            schedule = uji_like_schedule(
                n_aps, np.random.default_rng(s_schedule), n_epochs=16
            )
        temporal_preset = TEMPORAL_PRESETS["uji"]
        fading = 1.4
    else:
        known = ", ".join(sorted(list(PATH_BUILDERS) + ["uji"]))
        raise KeyError(f"unknown environment kind {kind!r}; known: {known}")
    aps = place_access_points(
        floorplan, n_aps, np.random.default_rng(s_place)
    )
    return RadioEnvironment(
        floorplan=floorplan,
        access_points=aps,
        propagation=make_propagation(
            env_name if env_name in ("office", "basement") else "open", floorplan
        ),
        shadowing=ShadowingModel(
            floorplan.width,
            floorplan.height,
            base_seed=int(s_shadow.generate_state(1)[0]),
        ),
        temporal=TemporalModel(
            temporal_preset, base_seed=int(s_temporal.generate_state(1)[0])
        ),
        device=device or DeviceProfile(),
        schedule=schedule,
        fading_std_db=fading,
        base_seed=int(s_env.generate_state(1)[0]),
    )


def _capture_epoch(
    env: RadioEnvironment,
    time: SimTime,
    epoch: int,
    fpr: int,
    rng: np.random.Generator,
    *,
    jitter: float,
) -> FingerprintDataset:
    """Capture ``fpr`` fingerprints at every RP at one epoch.

    The epoch's normals are one block, laid out RP by RP and scan by
    scan in :meth:`RadioEnvironment.survey_draws` order, so each scan
    draws what a scan-at-a-time capture would.
    """
    fp = env.floorplan
    n_rp = fp.n_reference_points
    rows = n_rp * fpr
    # Scans within one visit are ~5 s apart (paper: 6 scans in 30 s).
    times = [SimTime(time.hours + k * (5.0 / 3600.0)) for k in range(fpr)]
    width = env.survey_draws(jitter)
    z = rng.standard_normal(rows * width).reshape(n_rp, fpr, width)
    rssi = env.survey(range(n_rp), times, z, epoch=epoch, position_jitter_m=jitter)
    rp_idx = np.repeat(np.arange(n_rp, dtype=np.int64), fpr)
    return FingerprintDataset(
        rssi=rssi.reshape(rows, env.n_aps),
        rp_indices=rp_idx,
        locations=fp.reference_points[rp_idx],
        times_hours=np.full(rows, time.hours),
        epochs=np.full(rows, epoch, dtype=np.int64),
    )


def generate_path_suite(
    kind: str,
    seed: int = 0,
    *,
    config: SuiteConfig | None = None,
    n_cis: int = 16,
) -> LongitudinalSuite:
    """Office/Basement longitudinal suite (paper Sec. V.A.2, Fig. 6).

    Training uses ``config.train_fpr`` of the ``config.fpr`` fingerprints
    captured at CI:0 (8 AM); the held-out CI:0 fingerprints and all of
    CIs 1..15 form the test sequence, exactly mirroring "we utilized a
    subset of CI:0 ... for the offline phase. The rest of the data from
    CI:0 and CIs:1-15 was used for testing."
    """
    if kind not in PATH_BUILDERS:
        raise KeyError(f"kind must be one of {sorted(PATH_BUILDERS)}")
    config = config or SuiteConfig()
    env = build_environment(kind, seed, n_aps=config.n_aps, device=config.device)
    times = collection_instance_times(n_cis)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(6)[5])
    epochs_data = [
        _capture_epoch(
            env, times[ci], ci, config.fpr, rng, jitter=config.position_jitter_m
        )
        for ci in range(n_cis)
    ]
    ci0 = epochs_data[0]
    train_rows: list[int] = []
    heldout_rows: list[int] = []
    for rp in ci0.rp_set:
        rows = np.flatnonzero(ci0.rp_indices == rp)
        picked = rng.choice(rows, size=config.train_fpr, replace=False)
        train_rows.extend(picked.tolist())
        heldout_rows.extend(sorted(set(rows.tolist()) - set(picked.tolist())))
    train = ci0.select(np.sort(np.asarray(train_rows, dtype=np.int64)))
    test_epochs = [ci0.select(np.sort(np.asarray(heldout_rows, dtype=np.int64)))]
    test_epochs.extend(epochs_data[1:])
    labels = [f"CI:{ci}" for ci in range(n_cis)]
    return LongitudinalSuite(
        name=kind,
        floorplan=env.floorplan,
        train=train,
        test_epochs=test_epochs,
        epoch_labels=labels,
        metadata={
            "seed": seed,
            "fpr": config.fpr,
            "train_fpr": config.train_fpr,
            "n_aps": config.n_aps,
            "ci_hours": [t.hours for t in times],
            "schedule": env.schedule,
            "environment": env,
        },
    )


def generate_uji_suite(
    seed: int = 0,
    *,
    n_aps: int = 90,
    train_fpr: int = 9,
    test_fpr: int = 3,
    n_months: int = 15,
    device: DeviceProfile | None = None,
) -> LongitudinalSuite:
    """UJI-like longitudinal suite (paper Sec. V.A.1, Fig. 5).

    Epoch 0 is the training month (fingerprints captured on one day);
    epochs 1..15 are the monthly test sets. The AP lifecycle schedule is
    indexed by month, with the ~50% change near month 11.
    """
    if train_fpr <= 0 or train_fpr > 9:
        raise ValueError("train_fpr must be in 1..9 (dataset has up to 9)")
    root = np.random.SeedSequence(seed)
    schedule_rng = np.random.default_rng(root.spawn(4)[3])
    # The ~50% AP change lands at month 11 on the full timeline (paper
    # Sec. V.A.2); shorter test timelines place it at ~70% of the horizon.
    change_epoch = min(11, max(1, int(round(0.7 * n_months))))
    schedule = uji_like_schedule(
        n_aps, schedule_rng, n_epochs=n_months + 1, change_epoch=change_epoch
    )
    env = build_environment(
        "uji", seed, n_aps=n_aps, schedule=schedule, device=device
    )
    rng = np.random.default_rng(root.spawn(6)[5])
    train = _capture_epoch(
        env, SimTime.at(hours=2.0), 0, train_fpr, rng, jitter=0.15
    )
    test_epochs = [
        _capture_epoch(env, t, month_idx, test_fpr, rng, jitter=0.15)
        for month_idx, t in enumerate(monthly_times(n_months), start=1)
    ]
    labels = [f"month {m}" for m in range(1, n_months + 1)]
    return LongitudinalSuite(
        name="uji",
        floorplan=env.floorplan,
        train=train,
        test_epochs=test_epochs,
        epoch_labels=labels,
        metadata={
            "seed": seed,
            "train_fpr": train_fpr,
            "test_fpr": test_fpr,
            "n_aps": n_aps,
            "schedule": schedule,
            "environment": env,
        },
    )
