"""Tests for the longitudinal suite generators (the paper's protocols)."""

import numpy as np
import pytest

from repro.datasets import (
    SuiteConfig,
    build_environment,
    generate_path_suite,
    generate_uji_suite,
)
from repro.radio import SimTime


class TestSuiteConfig:
    def test_defaults(self):
        config = SuiteConfig()
        assert config.fpr == 6  # paper: 6 fingerprints per RP per CI
        assert config.train_fpr <= config.fpr

    def test_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(train_fpr=9, fpr=6)
        with pytest.raises(ValueError):
            SuiteConfig(n_aps=0)


class TestBuildEnvironment:
    def test_kinds(self):
        for kind in ("office", "basement", "uji"):
            env = build_environment(kind, seed=0, n_aps=12)
            assert env.n_aps == 12
            assert env.schedule is not None

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            build_environment("spaceship", seed=0)

    def test_determinism_across_instances(self):
        a = build_environment("office", seed=3, n_aps=10)
        b = build_environment("office", seed=3, n_aps=10)
        t = SimTime(0.0)
        ra = a.scan_at_rp(0, t, np.random.default_rng(1), epoch=0)
        rb = b.scan_at_rp(0, t, np.random.default_rng(1), epoch=0)
        np.testing.assert_array_equal(ra, rb)

    def test_different_seeds_differ(self):
        a = build_environment("office", seed=3, n_aps=10)
        b = build_environment("office", seed=4, n_aps=10)
        t = SimTime(0.0)
        ra = a.scan_at_rp(0, t, np.random.default_rng(1), epoch=0)
        rb = b.scan_at_rp(0, t, np.random.default_rng(1), epoch=0)
        assert not np.array_equal(ra, rb)


class TestPathSuite:
    def test_protocol_shape(self, tiny_suite):
        # train: train_fpr per RP from CI:0; epoch 0 tests: the held-out rest
        config_fpr, train_fpr = 4, 3
        n_rp = tiny_suite.floorplan.n_reference_points
        assert tiny_suite.train.n_samples == n_rp * train_fpr
        assert tiny_suite.test_epochs[0].n_samples == n_rp * (config_fpr - train_fpr)
        for ds in tiny_suite.test_epochs[1:]:
            assert ds.n_samples == n_rp * config_fpr

    def test_train_is_morning_of_day_zero(self, tiny_suite):
        assert (tiny_suite.train.epochs == 0).all()
        assert (tiny_suite.train.times_hours < 1.0).all()

    def test_labels(self, tiny_suite):
        assert tiny_suite.epoch_labels[0] == "CI:0"
        assert tiny_suite.epoch_labels[-1] == f"CI:{tiny_suite.n_epochs - 1}"

    def test_train_and_heldout_disjoint(self, tiny_suite):
        """No CI:0 fingerprint appears in both train and test."""
        train_keys = {
            (float(t), int(r), tuple(np.round(row, 6)))
            for t, r, row in zip(
                tiny_suite.train.times_hours,
                tiny_suite.train.rp_indices,
                tiny_suite.train.rssi,
            )
        }
        test0 = tiny_suite.test_epochs[0]
        test_keys = {
            (float(t), int(r), tuple(np.round(row, 6)))
            for t, r, row in zip(
                test0.times_hours, test0.rp_indices, test0.rssi
            )
        }
        assert not train_keys & test_keys

    def test_invalid_kind(self):
        with pytest.raises(KeyError):
            generate_path_suite("mall", seed=0)

    def test_reproducible(self):
        a = generate_path_suite(
            "office", seed=5, config=SuiteConfig(n_aps=10, fpr=2, train_fpr=1), n_cis=3
        )
        b = generate_path_suite(
            "office", seed=5, config=SuiteConfig(n_aps=10, fpr=2, train_fpr=1), n_cis=3
        )
        np.testing.assert_array_equal(a.train.rssi, b.train.rssi)
        np.testing.assert_array_equal(
            a.test_epochs[2].rssi, b.test_epochs[2].rssi
        )


@pytest.mark.slow
class TestUJISuite:
    def test_protocol_shape(self):
        suite = generate_uji_suite(
            seed=1, n_aps=20, train_fpr=4, test_fpr=2, n_months=3
        )
        n_rp = suite.floorplan.n_reference_points
        assert suite.train.n_samples == n_rp * 4
        assert suite.n_epochs == 3
        for ds in suite.test_epochs:
            assert ds.n_samples == n_rp * 2
        assert suite.epoch_labels[0] == "month 1"

    def test_train_fpr_capped_at_nine(self):
        with pytest.raises(ValueError):
            generate_uji_suite(train_fpr=10)


class TestByteIdentityPins:
    """Generated corpora are pinned by content hash.

    Served models are keyed by the hash of the suite they were fitted
    on, so any change to a single generated byte silently orphans every
    stored artifact. These literals were computed before the signal
    chain was evaluated array-at-a-time and must never move.
    """

    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("office", "302fa0d00afd9dd17c88a30879daae5a87c333c386c893fec1ae5be74e59e21b"),
            ("basement", "745a143e2c72f2e03dc947f8fe7040ff825d725d63f100043236d8efeb141504"),
        ],
    )
    def test_path_suites(self, kind, digest):
        from repro.eval.engine import suite_fingerprint

        assert suite_fingerprint(generate_path_suite(kind, 0)) == digest

    def test_uji_suite(self):
        from repro.eval.engine import suite_fingerprint

        assert suite_fingerprint(generate_uji_suite(0)) == (
            "df020cf307b2233574765df2596e4d39fe59eb0e6eb910347600e0b2b4d33f6c"
        )

    def test_tiny_suite(self, tiny_suite):
        from repro.eval.engine import suite_fingerprint

        assert suite_fingerprint(tiny_suite) == (
            "4e3f757d901600fec55481918c5bc88a0a4575fdd277f6d1057f8ea7dcc2d606"
        )

    def test_walk_rssi(self):
        """``scan()`` (per-AP noise draws in AP order) on walks."""
        import hashlib

        from repro.tracking.trajectory import simulate_path_walk, simulate_random_walk

        walk = simulate_path_walk(
            build_environment("office", 0), epoch=12, start_time=SimTime(5.0),
            rng=np.random.default_rng(3),
        )
        assert walk.rssi.shape == (12, 60)
        assert hashlib.sha256(walk.rssi.tobytes()).hexdigest() == (
            "8c8fe252a80d1c11a56a7de24344e94d0cf4651d9579f3cda4f74bd65380548e"
        )
        walk = simulate_random_walk(
            build_environment("uji", 1), epoch=12, rng=np.random.default_rng(4)
        )
        assert walk.rssi.shape == (26, 60)
        assert hashlib.sha256(walk.rssi.tobytes()).hexdigest() == (
            "9e5e25d23bf756f74258e8b316562fc4f32b19d7585634f7548b4470c7989839"
        )

    def test_fig3_visible_ap_counts(self):
        from repro.eval.experiments import run_fig3

        series = run_fig3().series
        assert {k: v["visible_aps"] for k, v in series.items()} == {
            "uji": 59, "office": 51, "basement": 48,
        }
