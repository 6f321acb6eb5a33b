"""``repro.baselines`` — prior works compared against STONE.

The paper's four comparison frameworks — KNN (LearnLoc [11]), LT-KNN
[21], GIFT [9] and SCNN [6] — plus three extended baselines from the
related-work design space: SELE [18] (contrastive Siamese), WiDeep [17]
(denoising-autoencoder classifier) and the pseudo-label ensemble of
"Train Once, Locate Anytime" [8]. All implement the shared
:class:`Localizer` interface; the registry builds any of them by name.
"""

from .base import Localizer
from .ensemble import EnsembleConfig, PseudoLabelEnsembleLocalizer
from .gift import GIFTLocalizer
from .knn import KNNLocalizer
from .ltknn import LTKNNLocalizer, RidgeImputer
from .registry import (
    EXTENDED_FRAMEWORKS,
    PAPER_FRAMEWORKS,
    build_localizer,
    framework_capabilities,
    framework_class,
    supports_candidate_index,
    supports_kernel_backend,
)
from .scnn import SCNNConfig, SCNNLocalizer
from .sele import SELEConfig, SELELocalizer
from .widep import WiDeepConfig, WiDeepLocalizer

__all__ = [
    "Localizer",
    "KNNLocalizer",
    "LTKNNLocalizer",
    "RidgeImputer",
    "GIFTLocalizer",
    "SCNNLocalizer",
    "SCNNConfig",
    "SELELocalizer",
    "SELEConfig",
    "WiDeepLocalizer",
    "WiDeepConfig",
    "PseudoLabelEnsembleLocalizer",
    "EnsembleConfig",
    "build_localizer",
    "framework_capabilities",
    "framework_class",
    "supports_candidate_index",
    "supports_kernel_backend",
    "PAPER_FRAMEWORKS",
    "EXTENDED_FRAMEWORKS",
]
