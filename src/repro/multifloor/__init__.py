"""Multi-floor indoor localization.

The paper evaluated only UJI floor 3 "for brevity"; this package builds
the full problem back: a multi-floor building model with slab
attenuation, a two-floor UJI-like longitudinal suite generator, a floor
classifier + hierarchical localizer wrapper around any single-floor
framework, and EvAAL-style combined error metrics.
"""

from .building import Building, SlabModel
from .dataset import MultiFloorDataset, MultiFloorSuite, floor_local_dataset
from .generator import MultiFloorConfig, floor_suite, generate_multifloor_suite
from .hierarchical import (
    FloorClassifier,
    HierarchicalLocalizer,
    nearest_fitted_floor,
)
from .metrics import (
    MultiFloorEpochResult,
    combined_error_m,
    evaluate_multifloor,
    floor_hit_rate,
)

__all__ = [
    "Building",
    "FloorClassifier",
    "HierarchicalLocalizer",
    "MultiFloorConfig",
    "MultiFloorDataset",
    "MultiFloorEpochResult",
    "MultiFloorSuite",
    "SlabModel",
    "combined_error_m",
    "evaluate_multifloor",
    "floor_hit_rate",
    "floor_local_dataset",
    "floor_suite",
    "generate_multifloor_suite",
    "nearest_fitted_floor",
]
