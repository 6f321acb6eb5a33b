"""Multi-backend distance/encoder kernels behind a single seam.

Public surface:

* :class:`KernelBackend` / :class:`PackedReferences` — the contract
  every hot path codes against.
* :func:`resolve_backend` / :func:`resolve_backend_name` — name (or
  ``None`` + ``$REPRO_KERNEL_BACKEND``) to backend instance.
* :func:`get_backend` / :func:`register_backend` /
  :func:`available_backends` / :func:`canonical_backend_name` — the
  registry.
* :func:`backend_changes_results` — the fingerprint-participation rule.
* :class:`SharedArtifactRegion` / :class:`SharedRegionHandle` — one
  shared-memory segment per fleet slot holding every out-of-band
  buffer of the slot's pickled model (the multi-process fleet's model
  transport; workers rebuild the arrays as read-only views).

Registered backends:

========== ========== ==================================================
name       contract   representation
========== ========== ==================================================
reference  bit-exact  float64 rows + cached norms (today's shipped path)
blas       bounded    transposed contiguous float32 + in-place sgemm
quantized  bounded    int8 codes (8x packing) + code-space float32 gemm
========== ========== ==================================================
"""

from .base import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    KernelBackend,
    PackedReferences,
    available_backends,
    backend_changes_results,
    canonical_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    resolve_backend_name,
)
from .blas import BlasBackend
from .quantized import QuantizedBackend
from .reference import ReferenceBackend
from .shared import (
    AttachedRegion,
    SharedArtifactRegion,
    SharedRegionHandle,
)

register_backend(ReferenceBackend())
register_backend(BlasBackend(), aliases=("blas32", "blas-float32", "blas-f32"))
register_backend(QuantizedBackend(), aliases=("int8", "quantized-int8"))

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "AttachedRegion",
    "BlasBackend",
    "KernelBackend",
    "PackedReferences",
    "QuantizedBackend",
    "ReferenceBackend",
    "SharedArtifactRegion",
    "SharedRegionHandle",
    "available_backends",
    "backend_changes_results",
    "canonical_backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
]
