"""Epoch-at-a-time survey capture against a scan-at-a-time reference.

The generators build each epoch's scans as arrays from one block of
standard normals. The references below restate the capture they
replaced — one ``scan_at_rp`` per row, and the multi-floor generator's
per-row loop with one scalar device reading per AP heard through the
slabs — drawing every normal from the generator one call at a time.
Each property asserts the readings byte for byte and the RNG state
after the epoch (the train-row ``rng.choice`` that follows depends on
it).

Readings are unquantized (``quantization_db=0``) so the 1 dB rounding
cannot hide a last-bit change.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import build_environment
from repro.datasets.generators import _capture_epoch as capture_path_epoch
from repro.multifloor.building import SlabModel
from repro.multifloor.generator import _capture_epoch as capture_floors_epoch
from repro.multifloor.generator import _leak_offsets
from repro.radio import NO_SIGNAL_DBM, DeviceProfile, SimTime, uji_like_schedule


def ref_measure_array(device: DeviceProfile, true, rng) -> np.ndarray:
    anchored = -70.0 + (np.asarray(true, dtype=np.float64) + 70.0) * device.gain_slope
    reading = anchored + device.rssi_offset_db
    if device.noise_std_db > 0:
        reading = reading + rng.normal(0.0, device.noise_std_db, size=reading.shape)
    q = device.quantization_db
    quantized = np.round(reading / q) * q if q > 0 else reading
    out = np.clip(quantized, NO_SIGNAL_DBM, 0.0)
    out[reading < device.detection_threshold_dbm] = NO_SIGNAL_DBM
    return out


def ref_measure(device: DeviceProfile, true: float, rng) -> float:
    reading = -70.0 + (true + 70.0) * device.gain_slope + device.rssi_offset_db
    if device.noise_std_db > 0:
        reading += rng.normal(0.0, device.noise_std_db)
    if reading < device.detection_threshold_dbm:
        return NO_SIGNAL_DBM
    if device.quantization_db > 0:
        reading = round(reading / device.quantization_db) * device.quantization_db
    return float(np.clip(reading, NO_SIGNAL_DBM, 0.0))


def ref_scan_at_rp(env, rp, time, rng, epoch, jitter) -> np.ndarray:
    """One survey scan as the per-row capture computed and drew it."""
    aps = env._epoch_aps(epoch)
    nominal = env.floorplan.reference_points[rp]
    site = env._site(nominal)
    rp_loc = nominal
    if jitter > 0:
        rp_loc = nominal + rng.normal(0.0, jitter, size=2)
    diff = aps.locations - rp_loc[None, :]
    pl = env.propagation.path_loss.loss_db_array(np.sqrt((diff * diff).sum(axis=1)))
    structure = env._shadow_db(aps, nominal, time) - env._wall_db(aps, nominal, site)
    mean = aps.tx_power_dbm - pl + structure + env.temporal.drift_db_vector(env.n_aps, time)
    mean -= env._activity_sensitivity(nominal, site) * env.temporal.activity_attenuation_db(
        time
    )
    true_power = mean + rng.normal(0.0, env._fading_std_db(time), size=env.n_aps)
    out = ref_measure_array(env.device, true_power, rng)
    out[~aps.active] = NO_SIGNAL_DBM
    return out


def ref_path_epoch(env, time, epoch, fpr, rng, jitter) -> np.ndarray:
    rows = []
    for rp in range(env.floorplan.n_reference_points):
        for k in range(fpr):
            t = SimTime(time.hours + k * (5.0 / 3600.0))
            rows.append(ref_scan_at_rp(env, rp, t, rng, epoch, jitter))
    return np.vstack(rows)


def ref_floors_row(envs, floor, rp, time, epoch, leaks, rng) -> np.ndarray:
    n_aps = envs[0].n_aps
    row = np.full(len(envs) * n_aps, NO_SIGNAL_DBM)
    location = envs[floor].floorplan.reference_points[rp]
    for src, env in enumerate(envs):
        lo = src * n_aps
        if src == floor:
            row[lo : lo + n_aps] = ref_scan_at_rp(env, rp, time, rng, epoch, 0.15)
            continue
        noise_std = env.scan_noise_std_db(time)
        means = env.mean_rssi_vector(location, time, epoch=epoch)
        for ap, mean in enumerate(means.tolist()):
            if mean <= NO_SIGNAL_DBM:
                continue
            attenuated = mean - leaks[src, ap, floor]
            row[lo + ap] = ref_measure(
                env.device, attenuated + rng.normal(0.0, noise_std), rng
            )
    return row


def ref_floors_epoch(envs, time, epoch, fpr, leaks, rng) -> np.ndarray:
    return np.vstack(
        [
            ref_floors_row(envs, floor, rp, time, epoch, leaks, rng)
            for floor, env in enumerate(envs)
            for rp in range(env.floorplan.n_reference_points)
            for _ in range(fpr)
        ]
    )


devices = st.builds(
    DeviceProfile,
    rssi_offset_db=st.floats(-6.0, 6.0),
    gain_slope=st.floats(0.9, 1.1),
    noise_std_db=st.sampled_from([0.0, 1.3]),
    quantization_db=st.just(0.0),
)


@pytest.fixture(scope="module")
def office():
    """Office path: APs removed after CI:11, none replaced."""
    return build_environment("office", seed=4, n_aps=10)


@pytest.fixture(scope="module")
def library():
    """UJI library floor; removals and replacements from epoch 2 on."""
    schedule = uji_like_schedule(
        9, np.random.default_rng(8), n_epochs=5, change_epoch=2,
        change_fraction=0.6, replace_share=0.5,
    )
    return build_environment("uji", seed=6, n_aps=9, schedule=schedule)


@pytest.fixture(scope="module")
def building():
    """Three library floors with their own schedules, plus slab leaks."""
    envs = []
    for floor in range(3):
        schedule = uji_like_schedule(
            6, np.random.default_rng(20 + floor), n_epochs=4, change_epoch=2,
            change_fraction=0.6, replace_share=0.5,
        )
        envs.append(build_environment("uji", seed=30 + floor, n_aps=6, schedule=schedule))
    leaks = _leak_offsets(3, 6, SlabModel(), np.random.default_rng(5))
    return envs, leaks


def _assert_same_capture(got: np.ndarray, ref: np.ndarray, rng, ref_rng) -> None:
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.standard_normal() == ref_rng.standard_normal()


class TestPathEpoch:
    @settings(max_examples=12, deadline=None)
    @given(
        device=devices, seed=st.integers(0, 2**32 - 1),
        ci=st.sampled_from([0, 1, 9, 13, 15]), fpr=st.integers(1, 3),
        jitter=st.sampled_from([0.0, 0.15]), hours=st.floats(0.0, 24.0 * 240),
    )
    def test_office_equals_per_row_capture(self, office, device, seed, ci, fpr, jitter, hours):
        env = replace(office, device=device)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        time = SimTime(hours)
        got = capture_path_epoch(env, time, ci, fpr, rng, jitter=jitter)
        ref = ref_path_epoch(env, time, ci, fpr, ref_rng, jitter)
        _assert_same_capture(got.rssi, ref, rng, ref_rng)
        n_rp = env.floorplan.n_reference_points
        np.testing.assert_array_equal(got.rp_indices, np.repeat(np.arange(n_rp), fpr))
        np.testing.assert_array_equal(
            got.locations, env.floorplan.reference_points[got.rp_indices]
        )
        assert (got.times_hours == hours).all() and (got.epochs == ci).all()

    @settings(max_examples=12, deadline=None)
    @given(
        device=devices, seed=st.integers(0, 2**32 - 1), epoch=st.integers(0, 4),
        fpr=st.integers(1, 3), jitter=st.sampled_from([0.0, 0.15]),
        hours=st.floats(0.0, 24.0 * 400),
    )
    def test_removed_and_replaced_aps(self, library, device, seed, epoch, fpr, jitter, hours):
        env = replace(library, device=device)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        time = SimTime(hours)
        got = capture_path_epoch(env, time, epoch, fpr, rng, jitter=jitter)
        ref = ref_path_epoch(env, time, epoch, fpr, ref_rng, jitter)
        _assert_same_capture(got.rssi, ref, rng, ref_rng)

    def test_fixtures_cover_removed_and_replaced_aps(self, office, library):
        assert (~office._epoch_aps(13).active).any()
        late = library._epoch_aps(4)
        assert (~late.active).any()
        assert (late.active & (late.generations > 0)).any()

    def test_zero_noise_everywhere(self, office):
        # No jitter, no receiver noise: only the fading normals are drawn.
        env = replace(office, device=DeviceProfile(noise_std_db=0.0, quantization_db=0.0))
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = capture_path_epoch(env, SimTime(30.0), 2, 2, rng, jitter=0.0)
        ref = ref_path_epoch(env, SimTime(30.0), 2, 2, ref_rng, 0.0)
        _assert_same_capture(got.rssi, ref, rng, ref_rng)
        assert env.survey_draws(0.0) == env.n_aps


class TestMultiFloorEpoch:
    @settings(max_examples=8, deadline=None)
    @given(
        floor_devices=st.lists(devices, min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1), epoch=st.integers(0, 3), fpr=st.integers(1, 2),
        hours=st.floats(0.0, 24.0 * 300),
    )
    def test_three_floors_equal_per_row_capture(
        self, building, floor_devices, seed, epoch, fpr, hours
    ):
        bases, leaks = building
        envs = [replace(env, device=d) for env, d in zip(bases, floor_devices)]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        time = SimTime(hours)
        got = capture_floors_epoch(envs, time, epoch, fpr, leaks, rng)
        ref = ref_floors_epoch(envs, time, epoch, fpr, leaks, ref_rng)
        _assert_same_capture(got.fingerprints.rssi, ref, rng, ref_rng)
        n_rp = [env.floorplan.n_reference_points for env in envs]
        np.testing.assert_array_equal(
            got.floor_indices, np.repeat(np.arange(3), np.array(n_rp) * fpr)
        )
        np.testing.assert_array_equal(
            got.fingerprints.rp_indices, np.repeat(np.arange(sum(n_rp)), fpr)
        )

    def test_cross_floor_signal_is_heard(self, building):
        # The slab-leaked columns carry readings, not only -100 padding.
        envs, leaks = building
        got = capture_floors_epoch(envs, SimTime(2.0), 0, 1, leaks, np.random.default_rng(1))
        rows = got.floor_indices == 1
        others = np.r_[0:6, 12:18]
        assert (got.fingerprints.rssi[rows][:, others] > NO_SIGNAL_DBM).any()
