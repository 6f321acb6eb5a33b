"""Factory registry over all implemented localization frameworks.

The evaluation harness and the benches build frameworks by name, so the
set compared in every figure matches the paper's five: STONE plus KNN
(LearnLoc [11]), LT-KNN [21], GIFT [9] and SCNN [6].
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..core.config import StoneConfig
from ..core.stone import StoneLocalizer
from ..index import IndexConfig
from .base import BatchedLocalizer, Localizer
from .ensemble import EnsembleConfig, PseudoLabelEnsembleLocalizer
from .gift import GIFTLocalizer
from .knn import KNNLocalizer
from .ltknn import LTKNNLocalizer
from .scnn import SCNNConfig, SCNNLocalizer
from .sele import SELEConfig, SELELocalizer
from .widep import WiDeepConfig, WiDeepLocalizer

LocalizerFactory = Callable[[], Localizer]

PAPER_FRAMEWORKS = ("STONE", "KNN", "LT-KNN", "GIFT", "SCNN")

#: Related-work frameworks beyond the paper's four comparison points.
EXTENDED_FRAMEWORKS = ("SELE", "WiDeep", "PL-Ensemble")

ALL_FRAMEWORKS = PAPER_FRAMEWORKS + EXTENDED_FRAMEWORKS

#: Canonical name -> implementing class, for capability inspection
#: without building (and hence configuring) an instance.
_FRAMEWORK_CLASSES: dict[str, type] = {
    "STONE": StoneLocalizer,
    "KNN": KNNLocalizer,
    "LT-KNN": LTKNNLocalizer,
    "GIFT": GIFTLocalizer,
    "SCNN": SCNNLocalizer,
    "SELE": SELELocalizer,
    "WiDeep": WiDeepLocalizer,
    "PL-Ensemble": PseudoLabelEnsembleLocalizer,
}

_ALIASES = {
    "LTKNN": "LT-KNN",
    "WIDEEP": "WiDeep",
    "ENSEMBLE": "PL-Ensemble",
    "PLENSEMBLE": "PL-Ensemble",
    "PL-ENSEMBLE": "PL-Ensemble",
}


def canonical_name(name: str) -> str:
    """Resolve a registry name or alias to its canonical framework name."""
    key = name.strip().upper()
    if key in _ALIASES:
        return _ALIASES[key]
    for canonical in _FRAMEWORK_CLASSES:
        if key == canonical.upper():
            return canonical
    raise KeyError(f"unknown framework {name!r}; known: {ALL_FRAMEWORKS}")


@dataclass(frozen=True)
class FrameworkCapabilities:
    """Static facts the evaluation engine needs before building a model."""

    name: str
    batched_inference: bool
    requires_retraining: bool
    supports_index: bool
    supports_kernel_backend: bool


def framework_capabilities(name: str) -> FrameworkCapabilities:
    """Capability flags of a framework, resolved without instantiation."""
    canonical = canonical_name(name)
    cls = _FRAMEWORK_CLASSES[canonical]
    return FrameworkCapabilities(
        name=canonical,
        batched_inference=bool(getattr(cls, "batched_inference", False)),
        requires_retraining=bool(getattr(cls, "requires_retraining", False)),
        supports_index=bool(getattr(cls, "supports_index", False)),
        supports_kernel_backend=bool(
            getattr(cls, "supports_kernel_backend", False)
        ),
    )


def supports_candidate_index(name: str) -> bool:
    """True when the framework's radio map can be sharded (``index=``)."""
    return bool(
        getattr(_FRAMEWORK_CLASSES[canonical_name(name)], "supports_index", False)
    )


def supports_kernel_backend(name: str) -> bool:
    """True when the framework's hot path honours ``backend=``."""
    return bool(
        getattr(
            _FRAMEWORK_CLASSES[canonical_name(name)],
            "supports_kernel_backend",
            False,
        )
    )


def framework_class(name: str) -> type:
    """Implementing class of a framework, resolved without instantiation.

    The serving layer's warm-load path uses this to validate that a
    fitted artifact deserialized from disk really is an instance of the
    framework it claims to be — a stale pickle from before a refactor
    (or a mislabeled file) is rejected instead of served.
    """
    return _FRAMEWORK_CLASSES[canonical_name(name)]


def supports_batched_inference(name: str) -> bool:
    """True when the framework's predict is row-independent (batch-safe)."""
    return issubclass(
        _FRAMEWORK_CLASSES[canonical_name(name)], BatchedLocalizer
    )


def build_localizer(
    name: str,
    *,
    suite_name: str | None = None,
    fast: bool = False,
    index: IndexConfig | None = None,
    backend: str | None = None,
) -> Localizer:
    """Build a framework by its paper name.

    The construction kernel behind :meth:`repro.api.LocalizerSpec.build`
    (the public entry point). ``suite_name`` selects STONE's per-floorplan tuning.
    ``fast=True`` shrinks the trained models' schedules for CI-scale
    runs (tests and smoke benches); figure-quality runs leave it False.
    ``index`` shards the framework's reference radio map
    (:mod:`repro.index`); passing a non-exhaustive config to a framework
    whose ``supports_index`` flag is False raises ``ValueError`` —
    callers that sweep mixed framework sets filter on
    :func:`framework_capabilities` first. ``backend`` selects the
    distance-kernel backend (:mod:`repro.kernels`) for the radio-map
    frameworks; naming a result-changing backend for a framework
    without the seam raises the same way.
    """
    key = canonical_name(name)
    if index is not None and not index.is_exhaustive and not supports_candidate_index(key):
        raise ValueError(
            f"{key} has no reference radio map to shard "
            f"(supports_index is False); drop index= or pick one of the "
            f"NN-search frameworks (STONE, KNN, LT-KNN)"
        )
    if backend is not None and not supports_kernel_backend(key):
        from ..kernels import backend_changes_results, canonical_backend_name

        backend = canonical_backend_name(backend)
        if backend_changes_results(backend):
            raise ValueError(
                f"{key} has no kernel-backend seam "
                f"(supports_kernel_backend is False); drop backend= or "
                f"pick one of the radio-map frameworks (STONE, KNN, "
                f"LT-KNN)"
            )
        # Bit-identical backends are the reference arithmetic anyway.
        backend = None
    if key == "STONE":
        config = StoneConfig.for_suite(suite_name or "office")
        if fast:
            config = StoneConfig.for_suite(
                suite_name or "office",
                epochs=8,
                steps_per_epoch=15,
                batch_size=64,
            )
        return StoneLocalizer(config, index=index, backend=backend)
    if key == "KNN":
        return KNNLocalizer(index=index, backend=backend)
    if key == "LT-KNN":
        return LTKNNLocalizer(index=index, backend=backend)
    if key == "GIFT":
        return GIFTLocalizer()
    if key == "SCNN":
        config = SCNNConfig(epochs=15) if fast else SCNNConfig()
        return SCNNLocalizer(config)
    if key == "SELE":
        config = SELEConfig(epochs=8, steps_per_epoch=15) if fast else SELEConfig()
        return SELELocalizer(config)
    if key == "WiDeep":
        config = (
            WiDeepConfig(ae_epochs=15, classifier_epochs=30, n_corruptions=4)
            if fast
            else WiDeepConfig()
        )
        return WiDeepLocalizer(config)
    if key == "PL-Ensemble":
        config = (
            EnsembleConfig(n_members=3, epochs=30, refit_epochs=5, agreement=0.66)
            if fast
            else EnsembleConfig()
        )
        return PseudoLabelEnsembleLocalizer(config)
    raise AssertionError(
        f"{key!r} is registered but has no builder in build_localizer"
    )
