"""Tests for the end-to-end scan sampler (RadioEnvironment)."""

import numpy as np
import pytest

from repro.geometry import build_grid_floorplan
from repro.radio import (
    NO_SIGNAL_DBM,
    RadioEnvironment,
    ShadowingModel,
    SimTime,
    TemporalConfig,
    TemporalModel,
    make_propagation,
    office_like_schedule,
    place_access_points,
)


@pytest.fixture()
def env():
    fp = build_grid_floorplan("t", width=20, height=16, rp_spacing=4.0, margin=2.0)
    rng = np.random.default_rng(0)
    aps = place_access_points(fp, 20, rng)
    sched = office_like_schedule(
        20, rng, n_epochs=8, drop_after_epoch=3, drop_fraction=0.3, sporadic_rate=0.0
    )
    return RadioEnvironment(
        floorplan=fp,
        access_points=aps,
        propagation=make_propagation("office", fp),
        shadowing=ShadowingModel(fp.width, fp.height, base_seed=1),
        temporal=TemporalModel(TemporalConfig(), base_seed=2),
        schedule=sched,
    )


class TestScanBasics:
    def test_scan_shape_and_range(self, env):
        scan = env.scan((5.0, 5.0), SimTime(0.0), np.random.default_rng(1), epoch=0)
        assert scan.shape == (20,)
        assert (scan <= 0).all()
        assert (scan >= NO_SIGNAL_DBM).all()

    def test_scan_at_rp_shape_and_range(self, env):
        scan = env.scan_at_rp(0, SimTime(0.0), np.random.default_rng(1), epoch=0)
        assert scan.shape == (20,)
        assert (scan <= 0).all()
        assert (scan >= NO_SIGNAL_DBM).all()

    def test_some_aps_visible(self, env):
        scan = env.scan_at_rp(5, SimTime(0.0), np.random.default_rng(2), epoch=0)
        assert (scan > NO_SIGNAL_DBM).sum() >= 3

    def test_scan_determinism_under_rng(self, env):
        a = env.scan_at_rp(3, SimTime(0.0), np.random.default_rng(7), epoch=0)
        b = env.scan_at_rp(3, SimTime(0.0), np.random.default_rng(7), epoch=0)
        np.testing.assert_array_equal(a, b)

    def test_same_rp_scans_correlate(self, env):
        a = env.scan_at_rp(3, SimTime(0.0), np.random.default_rng(1), epoch=0)
        b = env.scan_at_rp(3, SimTime(0.0), np.random.default_rng(2), epoch=0)
        both = (a > NO_SIGNAL_DBM) & (b > NO_SIGNAL_DBM)
        assert both.sum() >= 3
        corr = np.corrcoef(a[both], b[both])[0, 1]
        assert corr > 0.7

    def test_nearby_rps_more_similar_than_far(self, env):
        rng = np.random.default_rng(3)
        t = SimTime(0.0)
        base = env.scan_at_rp(0, t, rng, epoch=0, position_jitter_m=0.0)
        near = env.scan_at_rp(1, t, rng, epoch=0, position_jitter_m=0.0)
        far = env.scan_at_rp(
            env.floorplan.n_reference_points - 1, t, rng, epoch=0, position_jitter_m=0.0
        )
        d_near = np.linalg.norm(base - near)
        d_far = np.linalg.norm(base - far)
        assert d_near < d_far


class TestAPLifecycleEffects:
    def test_removed_aps_read_no_signal(self, env):
        vis = env.schedule.visibility_matrix()
        removed = np.flatnonzero(~vis[7])
        assert removed.size > 0
        scan = env.scan_at_rp(0, SimTime.at(months=4), np.random.default_rng(4), epoch=7)
        assert (scan[removed] == NO_SIGNAL_DBM).all()

    def test_no_schedule_means_always_active(self):
        fp = build_grid_floorplan("t2", width=10, height=10, rp_spacing=5.0, margin=2.0)
        rng = np.random.default_rng(5)
        env = RadioEnvironment(
            floorplan=fp,
            access_points=place_access_points(fp, 5, rng),
            propagation=make_propagation("open", fp),
            shadowing=ShadowingModel(10, 10, base_seed=1),
            temporal=TemporalModel(TemporalConfig(), base_seed=2),
        )
        mean = env.mean_rssi_dbm(0, (5.0, 5.0), SimTime(0.0))
        assert mean > NO_SIGNAL_DBM

    def test_schedule_size_mismatch_rejected(self):
        fp = build_grid_floorplan("t3", width=10, height=10, rp_spacing=5.0, margin=2.0)
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="schedule"):
            RadioEnvironment(
                floorplan=fp,
                access_points=place_access_points(fp, 5, rng),
                propagation=make_propagation("open", fp),
                shadowing=ShadowingModel(10, 10),
                temporal=TemporalModel(TemporalConfig()),
                schedule=office_like_schedule(
                    9, rng, n_epochs=4, drop_after_epoch=1
                ),
            )

    def test_replacement_changes_fingerprint(self):
        from repro.radio import uji_like_schedule

        fp = build_grid_floorplan("t4", width=16, height=16, rp_spacing=4.0, margin=2.0)
        rng = np.random.default_rng(7)
        aps = place_access_points(fp, 10, rng, indoor_fraction=1.0)
        sched = uji_like_schedule(
            10, rng, n_epochs=6, change_epoch=3, change_fraction=0.8,
            replace_share=1.0, sporadic_rate=0.0,
        )
        env = RadioEnvironment(
            floorplan=fp,
            access_points=aps,
            propagation=make_propagation("open", fp),
            shadowing=ShadowingModel(16, 16, base_seed=3),
            temporal=TemporalModel(
                TemporalConfig(drift_sigma_db=0.0, activity_atten_db=0.0,
                               furniture_rate_per_month=0.0),
                base_seed=4,
            ),
            schedule=sched,
            fading_std_db=0.0,
        )
        t = SimTime(0.0)
        before = np.array([env.mean_rssi_dbm(a, (8.0, 8.0), t, epoch=0) for a in range(10)])
        after = np.array([env.mean_rssi_dbm(a, (8.0, 8.0), t, epoch=5) for a in range(10)])
        changed = np.abs(before - after) > 0.5
        assert changed.sum() >= 5  # most replaced APs moved

    def test_scan_noise_increases_with_activity(self, env):
        quiet = env.scan_noise_std_db(SimTime(20.0))  # 4 AM
        busy = env.scan_noise_std_db(SimTime(6.0))  # 2 PM
        assert busy > quiet


class TestFastPathConsistency:
    def test_scan_at_rp_matches_scan_statistics(self, env):
        """The vectorized RP fast path and the generic path agree in mean."""
        rp = 4
        t = SimTime(0.0)
        loc = env.floorplan.rp_location(rp)
        slow = np.array(
            [
                env.scan(loc, t, np.random.default_rng(100 + i), epoch=0)
                for i in range(40)
            ]
        )
        fast = np.array(
            [
                env.scan_at_rp(
                    rp, t, np.random.default_rng(200 + i), epoch=0,
                    position_jitter_m=0.0,
                )
                for i in range(40)
            ]
        )
        slow_heard = slow > NO_SIGNAL_DBM
        fast_heard = fast > NO_SIGNAL_DBM
        # Both paths hear the same APs; the one AP neither ever hears
        # at RP 4 is left out of the means.
        np.testing.assert_array_equal(
            slow_heard.any(axis=0), fast_heard.any(axis=0)
        )
        both = slow_heard.any(axis=0) & fast_heard.any(axis=0)
        assert (both.sum(), env.n_aps) == (19, 20)
        sm = np.nanmean(np.where(slow_heard, slow, np.nan)[:, both], axis=0)
        fm = np.nanmean(np.where(fast_heard, fast, np.nan)[:, both], axis=0)
        np.testing.assert_allclose(sm, fm, atol=2.5)

    def test_visible_ap_count_positive(self, env):
        count = env.visible_ap_count(SimTime(0.0), epoch=0)
        assert 0 < count <= env.n_aps
