"""Edge cases in hierarchical floor routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import KNNLocalizer
from repro.datasets.fingerprint import FingerprintDataset
from repro.geometry import build_grid_floorplan
from repro.multifloor import Building, HierarchicalLocalizer, MultiFloorDataset


def grid(name):
    return build_grid_floorplan(name, width=12.0, height=10.0, rp_spacing=2.0)


def make_train(n_floors=2, per_floor=6, n_aps=8, seed=0):
    """Distinct per-floor RSSI signatures on disjoint AP blocks."""
    rng = np.random.default_rng(seed)
    aps_per_floor = n_aps // n_floors
    rows, rp_idx, locs, floors = [], [], [], []
    fp = grid("f")
    for floor in range(n_floors):
        for i in range(per_floor):
            row = np.full(n_aps, -100.0)
            lo = floor * aps_per_floor
            row[lo : lo + aps_per_floor] = rng.uniform(-70, -40, aps_per_floor)
            rows.append(row)
            rp = i % fp.n_reference_points
            rp_idx.append(floor * fp.n_reference_points + rp)
            locs.append(fp.reference_points[rp])
            floors.append(floor)
    n = len(rows)
    return MultiFloorDataset(
        fingerprints=FingerprintDataset(
            rssi=np.vstack(rows),
            rp_indices=np.asarray(rp_idx, dtype=np.int64),
            locations=np.vstack(locs),
            times_hours=np.zeros(n),
            epochs=np.zeros(n, dtype=np.int64),
        ),
        floor_indices=np.asarray(floors, dtype=np.int64),
    )


class TestRoutingFallback:
    def test_unfitted_floor_routes_to_nearest_available(self):
        # Train on floors 0 and 2 only; a classifier fitted on those
        # can still only emit {0, 2}, so force the fallback by fitting
        # a classifier aware of floor 1 via direct surgery.
        train = make_train(n_floors=2)
        building = Building("b", [grid("f0"), grid("f1"), grid("f2")])
        # Relabel the second block as floor 2 (leaving floor 1 empty).
        train = MultiFloorDataset(
            fingerprints=train.fingerprints,
            floor_indices=np.where(train.floor_indices == 1, 2, 0),
        )
        hl = HierarchicalLocalizer(lambda floor: KNNLocalizer())
        hl.fit(train, building)
        assert sorted(hl.per_floor) == [0, 2]
        # Refit the classifier with a floor label that has no localizer
        # to exercise the nearest-available fallback.
        hl.floor_classifier.fit(
            train.fingerprints.rssi, np.ones(train.n_samples, dtype=np.int64)
        )
        floors, coords = hl.predict(train.fingerprints.rssi[:3])
        assert set(floors.tolist()) <= {0, 2}
        assert coords.shape == (3, 2)

    def test_begin_epoch_routes_by_predicted_floor(self):
        train = make_train()
        building = Building("b", [grid("f0"), grid("f1")])

        seen = {}

        class Recorder(KNNLocalizer):
            def __init__(self, floor):
                super().__init__()
                self._floor = floor

            def begin_epoch(self, epoch, unlabeled_rssi):
                seen[self._floor] = unlabeled_rssi.shape[0]

        hl = HierarchicalLocalizer(lambda floor: Recorder(floor))
        hl.fit(train, building)
        hl.begin_epoch(1, train.fingerprints.rssi)
        # Every training scan is routed to exactly one floor.
        assert sum(seen.values()) == train.n_samples
        assert set(seen) == {0, 1}

    def test_begin_epoch_empty_noop(self):
        train = make_train()
        building = Building("b", [grid("f0"), grid("f1")])
        hl = HierarchicalLocalizer(lambda floor: KNNLocalizer())
        hl.fit(train, building)
        hl.begin_epoch(1, np.zeros((0, train.n_aps)))  # must not raise

    def test_non_contiguous_rp_labels_rejected(self):
        train = make_train()
        # Corrupt one label far outside the contiguous block.
        bad = train.fingerprints.rp_indices.copy()
        bad[0] = 10_000
        broken = MultiFloorDataset(
            fingerprints=FingerprintDataset(
                rssi=train.fingerprints.rssi,
                rp_indices=bad,
                locations=train.fingerprints.locations,
                times_hours=train.fingerprints.times_hours,
                epochs=train.fingerprints.epochs,
            ),
            floor_indices=train.floor_indices,
        )
        building = Building("b", [grid("f0"), grid("f1")])
        hl = HierarchicalLocalizer(lambda floor: KNNLocalizer())
        with pytest.raises(ValueError, match="contiguous"):
            hl.fit(broken, building)
