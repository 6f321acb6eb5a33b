"""Construction-path equivalence: the registry kernel behind the spec
surface builds bit-identical models to ``LocalizerSpec.build()``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import IndexSpec, LocalizerSpec
from repro.baselines.registry import build_localizer


class TestMakeLocalizerShim:
    def test_build_localizer_does_not_warn(self, recwarn):
        build_localizer("KNN")
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_invalid_index_still_rejected(self):
        from repro.index import IndexConfig

        with pytest.raises(ValueError, match="no reference radio map"):
            build_localizer("GIFT", index=IndexConfig(kind="kmeans"))

    @pytest.mark.parametrize("name", ["KNN", "LT-KNN", "GIFT"])
    def test_predictions_bit_identical_to_spec_path(self, name, tiny_suite):
        """build_localizer(...) == LocalizerSpec(...).build() end to end."""
        kernel = build_localizer(name, suite_name=tiny_suite.name, fast=True)
        modern = LocalizerSpec(
            framework=name, suite_name=tiny_suite.name, fast=True
        ).build()
        assert type(kernel) is type(modern)
        kernel.fit(tiny_suite.train, tiny_suite.floorplan,
                   rng=np.random.default_rng([0, 0]))
        modern.fit(tiny_suite.train, tiny_suite.floorplan,
                   rng=np.random.default_rng([0, 0]))
        queries = tiny_suite.test_epochs[0].rssi[:12]
        np.testing.assert_array_equal(
            kernel.predict(queries), modern.predict(queries)
        )

    def test_sharded_equivalence(self, tiny_suite):
        """The index kwarg maps onto IndexSpec bit-identically."""
        from repro.index import IndexConfig

        config = IndexConfig(kind="region", n_shards=4, n_probe=2)
        kernel = build_localizer("KNN", index=config)
        modern = LocalizerSpec(
            framework="KNN", index=IndexSpec.from_config(config)
        ).build()
        kernel.fit(tiny_suite.train, tiny_suite.floorplan,
                   rng=np.random.default_rng([0, 0]))
        modern.fit(tiny_suite.train, tiny_suite.floorplan,
                   rng=np.random.default_rng([0, 0]))
        queries = tiny_suite.test_epochs[0].rssi[:12]
        np.testing.assert_array_equal(
            kernel.predict(queries), modern.predict(queries)
        )
