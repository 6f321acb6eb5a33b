"""The array signal chain against scalar reference formulas, byte for byte.

The references below restate the per-AP code the array path replaced
(bilinear shadowing per field, then path loss + capped walls + shadowing
+ drift - activity per AP), built only from scalar primitives, so the
comparison is not the array code checked against itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import as_point, build_grid_floorplan, euclidean, wall_attenuation_db
from repro.radio import (
    NO_SIGNAL_DBM,
    DeviceProfile,
    RadioEnvironment,
    ShadowingField,
    ShadowingModel,
    SimTime,
    TemporalConfig,
    TemporalModel,
    make_propagation,
    place_access_points,
    uji_like_schedule,
)


def ref_value_db(fld: ShadowingField, x: float, y: float) -> float:
    """The scalar bilinear lookup, as ``value_db`` computed it per call."""
    lattice = fld._ensure_lattice()
    gx = (x + fld.margin) / fld.correlation_m
    gy = (y + fld.margin) / fld.correlation_m
    ny, nx = lattice.shape
    ix = int(np.clip(np.floor(gx), 0, nx - 2))
    iy = int(np.clip(np.floor(gy), 0, ny - 2))
    fx = float(np.clip(gx - ix, 0.0, 1.0))
    fy = float(np.clip(gy - iy, 0.0, 1.0))
    interp = (
        lattice[iy, ix] * (1 - fx) * (1 - fy)
        + lattice[iy, ix + 1] * fx * (1 - fy)
        + lattice[iy + 1, ix] * (1 - fx) * fy
        + lattice[iy + 1, ix + 1] * fx * fy
    )
    return float(fld.sigma_db * interp)


def ref_drift_db(temporal: TemporalModel, ap_id: int, time: SimTime) -> float:
    """OU drift interpolated between daily samples, plus the saturating trend."""
    ou = temporal._ou(ap_id)
    drift = 0.0
    if ou.sigma_db != 0.0:
        day = time.days
        k = int(np.floor(day))
        ou._ensure(k)
        frac = day - k
        drift = float((1.0 - frac) * ou._samples[k] + frac * ou._samples[k + 1])
    slope = temporal.trend_slope_db_per_month(ap_id)
    trend = 0.0 if slope == 0.0 else slope * min(time.months, 10.0)
    return drift + trend


def ref_sensitivity(env: RadioEnvironment, ap_id: int, x: float, y: float) -> float:
    shadow = env.shadowing
    raw = ref_value_db(shadow.field_for(ap_id, layer=7777), x, y) / max(shadow.sigma_db, 1e-9)
    return float(1.0 / (1.0 + np.exp(-2.0 * raw)))


def ref_shadow_db(env: RadioEnvironment, ap_id: int, generation: int, x, y, weight) -> float:
    shadow = env.shadowing
    layer = generation * 100
    value = float(np.sqrt(1.0 - weight**2)) * ref_value_db(
        shadow.field_for(ap_id, layer=layer), x, y
    )
    if weight > 0.0:
        value += weight * ref_value_db(shadow.field_for(ap_id, layer=layer + 1), x, y)
    return value


def ref_mean_dbm(env: RadioEnvironment, ap_id, location, time, epoch) -> float:
    """One AP's expected power, term by term as the per-AP chain did."""
    ap = env._effective_ap(ap_id, epoch)
    if ap is None:
        return NO_SIGNAL_DBM
    x, y = float(location[0]), float(location[1])
    src, dst = as_point(ap.location), as_point((x, y))
    prop = env.propagation
    loss = prop.path_loss.loss_db(euclidean(src, dst))
    loss += min(wall_attenuation_db(src, dst, prop.floorplan.walls.walls), prop.wall_loss_cap_db)
    rssi = float(ap.tx_power_dbm - loss)
    weight = env.temporal.furniture_weight(time)
    rssi += ref_shadow_db(env, ap_id, ap.generation, x, y, weight)
    rssi += ref_drift_db(env.temporal, ap_id, time)
    rssi -= ref_sensitivity(env, ap_id, x, y) * env.temporal.activity_attenuation_db(time)
    return float(rssi)


def ref_scan_at_rp(env: RadioEnvironment, rp, time, rng, epoch, jitter) -> np.ndarray:
    """The survey-path scan as the per-AP code computed it (own formula:
    ``tx - pl + (shadow - wall) + drift - sensitivity * activity``)."""
    aps = env._epoch_aps(epoch)
    nominal = env.floorplan.rp_location(rp)
    rp_loc = nominal + rng.normal(0.0, jitter, size=2) if jitter > 0 else nominal
    diff = aps.locations - rp_loc[None, :]
    pl = env.propagation.path_loss.loss_db_array(np.sqrt((diff * diff).sum(axis=1)))
    weight = env.temporal.furniture_weight(time)
    x, y = float(nominal[0]), float(nominal[1])
    walls = env.propagation.floorplan.walls.walls
    structure = np.zeros(env.n_aps)
    for a in np.flatnonzero(aps.active):
        wall = min(wall_attenuation_db(aps.locations[a], nominal, walls),
                   env.propagation.wall_loss_cap_db)
        shadow = ref_shadow_db(env, a, int(aps.generations[a]), x, y, weight)
        structure[a] = shadow - wall
    drift = np.array([ref_drift_db(env.temporal, a, time) for a in range(env.n_aps)])
    sens = np.array([ref_sensitivity(env, a, x, y) for a in range(env.n_aps)])
    mean = aps.tx_power_dbm - pl + structure + drift
    mean -= sens * env.temporal.activity_attenuation_db(time)
    sigma = float(np.sqrt(
        env.fading_std_db**2 + env.temporal.interference_std_db() ** 2
        + env.temporal.activity_noise_std_db(time) ** 2
    ))
    out = env.device.measure_array(mean + rng.normal(0.0, sigma, size=env.n_aps), rng)
    out[~aps.active] = NO_SIGNAL_DBM
    return out


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.fixture(scope="module")
def env():
    """Removals and replacements both happen from epoch 3 on."""
    fp = build_grid_floorplan("arr", width=18, height=14, rp_spacing=3.0, margin=2.0)
    rng = np.random.default_rng(11)
    aps = place_access_points(fp, 12, rng)
    sched = uji_like_schedule(
        12, rng, n_epochs=6, change_epoch=3, change_fraction=0.6,
        replace_share=0.5, sporadic_rate=0.0,
    )
    return RadioEnvironment(
        floorplan=fp,
        access_points=aps,
        propagation=make_propagation("office", fp),
        shadowing=ShadowingModel(fp.width, fp.height, base_seed=5),
        temporal=TemporalModel(
            TemporalConfig(trend_sigma_db_per_month=0.7, furniture_rate_per_month=1.5),
            base_seed=6,
        ),
        schedule=sched,
    )


coord = st.floats(-8.0, 26.0, allow_nan=False, allow_infinity=False)


class TestShadowingGather:
    @settings(max_examples=60, deadline=None)
    @given(x=coord, y=coord)
    def test_model_gather_equals_scalar_lookup(self, x, y):
        # Points well outside the 18 x 14 domain clip to the border cell.
        model = ShadowingModel(18.0, 14.0, base_seed=3)
        ap_ids = np.array([0, 3, 1, 3, 2])
        layers = np.array([0, 0, 100, 1, 7777])
        got = model.values_db(ap_ids, layers, x, y)
        ref = [ref_value_db(model.field_for(a, layer=l), x, y) for a, l in zip(ap_ids, layers)]
        assert got.tobytes() == _bytes(ref)

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
    def test_field_values_and_value_equal_scalar_lookup(self, points):
        fld = ShadowingField(width=18.0, height=14.0, sigma_db=4.0, correlation_m=6.0, seed=9)
        ref = [ref_value_db(fld, x, y) for x, y in points]
        assert fld.values_db(np.array(points)).tobytes() == _bytes(ref)
        assert _bytes([fld.value_db(x, y) for x, y in points]) == _bytes(ref)

    def test_furniture_weight_outside_unit_interval_raises(self, env):
        for weight in (-0.1, 1.5):
            with pytest.raises(ValueError, match="furniture_weight"):
                env.shadowing.shadow_db_many([0, 1], [0, 0], 3.0, 3.0, furniture_weight=weight)
            with pytest.raises(ValueError, match="furniture_weight"):
                env.shadowing.shadow_db(0, 3.0, 3.0, furniture_weight=weight)

    def test_environment_propagates_bad_furniture_weight(self, env, monkeypatch):
        monkeypatch.setattr(env.temporal, "furniture_weight", lambda time: 1.2)
        with pytest.raises(ValueError, match="furniture_weight"):
            env.mean_rssi_vector((4.0, 4.0), SimTime(0.0), epoch=0)


class TestMeanVector:
    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(0.0, 18.0), y=st.floats(0.0, 14.0),
        hours=st.floats(0.0, 24.0 * 200), epoch=st.sampled_from([None, 0, 2, 3, 5]),
    )
    def test_equals_scalar_formula(self, env, x, y, hours, epoch):
        time = SimTime(hours)
        ref = [ref_mean_dbm(env, a, (x, y), time, epoch) for a in range(env.n_aps)]
        got = env.mean_rssi_vector((x, y), time, epoch=epoch)
        assert got.tobytes() == _bytes(ref)
        assert _bytes(
            [env.mean_rssi_dbm(a, (x, y), time, epoch=epoch) for a in range(env.n_aps)]
        ) == _bytes(ref)

    def test_removed_replaced_and_active_all_covered(self, env):
        late = env._epoch_aps(5)
        assert (~late.active).any()
        assert (late.generations > 0).any()
        assert (late.active & (late.generations == 0)).any()

    @pytest.mark.parametrize("epoch", [0, 3, 5])
    def test_rp_sites_cached_and_equal_to_scalar_formula(self, env, epoch):
        for rp in env.floorplan.reference_points[:6]:
            for hours in (0.0, 700.5):
                time = SimTime(hours)
                ref = [ref_mean_dbm(env, a, rp, time, epoch) for a in range(env.n_aps)]
                for _ in range(2):  # miss, then hit
                    got = env.mean_rssi_vector(rp, time, epoch=epoch)
                    assert got.tobytes() == _bytes(ref)
                assert (tuple(rp.tolist()), env._epoch_aps(epoch).key) in env._link_loss

    def test_drift_vector_equals_scalar_drift(self, env):
        for hours in (0.0, 13.25, 24.0 * 31 + 5.5, 24.0 * 400):
            time = SimTime(hours)
            ref = [ref_drift_db(env.temporal, a, time) for a in range(env.n_aps)]
            assert env.temporal.drift_db_vector(env.n_aps, time).tobytes() == _bytes(ref)
            assert _bytes([env.temporal.drift_db(a, time) for a in range(env.n_aps)]) == (
                _bytes(ref)
            )


    def test_visible_count_matches_per_ap_scan(self, env):
        time = SimTime(0.0)
        threshold = env.device.detection_threshold_dbm
        expected = sum(
            any(
                ref_mean_dbm(env, a, rp, time, 4) > threshold
                for rp in env.floorplan.reference_points
            )
            for a in range(env.n_aps)
        )
        assert env.visible_ap_count(time, epoch=4) == expected


class TestScanAtRp:
    """Unquantized readings, so a last-bit change in the mean shows.

    The suite pins alone cannot see one: the default 1 dB quantization
    rounds it away.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        rp=st.integers(0, 19), hours=st.floats(0.0, 24.0 * 200),
        epoch=st.sampled_from([None, 0, 3, 5]), jitter=st.sampled_from([0.0, 0.15]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_ap_formula(self, env, rp, hours, epoch, jitter, seed):
        from dataclasses import replace

        raw = replace(env, device=DeviceProfile(quantization_db=0.0))
        time = SimTime(hours)
        got = raw.scan_at_rp(
            rp, time, np.random.default_rng(seed), epoch=epoch, position_jitter_m=jitter
        )
        ref = ref_scan_at_rp(raw, rp, time, np.random.default_rng(seed), epoch, jitter)
        assert got.tobytes() == ref.tobytes()


class TestCachesBounded:
    def test_walks_cache_rp_sites_only(self):
        from repro.datasets import build_environment
        from repro.tracking.trajectory import simulate_random_walk, simulate_walk

        env = build_environment("office", seed=2, n_aps=16)

        def sizes():
            return (
                len(env._walls), len(env._link_loss), len(env._sensitivity),
                len(env._epochs), len(env.shadowing._row_sets),
                len(env.shadowing._lattices), len(env.temporal._day_samples),
            )

        # Random walks turn at RPs: only those points may be cached.
        for seed in range(4):
            simulate_random_walk(env, epoch=4, rng=np.random.default_rng(seed))
        rps = set(map(tuple, env.floorplan.reference_points.tolist()))
        assert {key for key, _ in env._link_loss} <= rps
        assert set(env._sensitivity) <= rps
        before = sizes()
        for start in ((0.31, 0.77), (1.13, 0.59)):
            simulate_walk(
                env, [start, (17.03, 11.9)], epoch=4, rng=np.random.default_rng(0)
            )
        assert sizes() == before
