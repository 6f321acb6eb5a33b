"""Byte-identity pins for the multi-floor generator.

The fleet's per-slot models are keyed by the content hash of each
floor's suite, so these prefixes (computed before the cross-floor means
were evaluated array-at-a-time) guard every stored fleet artifact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.engine import suite_fingerprint
from repro.multifloor import MultiFloorConfig, floor_suite, generate_multifloor_suite

#: ``FleetRegistry.from_specs`` defaults with ``fast=True`` (two floors).
FAST_FLEET = MultiFloorConfig(
    n_floors=2, aps_per_floor=24, n_months=4, train_fpr=3, test_fpr=1
)


@pytest.mark.parametrize(
    "position, building_seed, prefixes",
    [
        (0, 821328062, ("bc3936e740fc1181", "af17763792e23178")),
        (1, 1817441348, ("e4329dfd0df3b886", "5403c74bf897b21c")),
    ],
)
def test_fleet_building_floor_suites(position, building_seed, prefixes):
    # The seed derivation of FleetRegistry.from_specs for fleet seed 0.
    derived = int(np.random.SeedSequence([0, position]).generate_state(1)[0]) % (2**31)
    assert derived == building_seed
    suite = generate_multifloor_suite(building_seed, config=FAST_FLEET)
    got = tuple(suite_fingerprint(floor_suite(suite, f))[:16] for f in range(2))
    assert got == prefixes
