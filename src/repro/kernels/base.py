"""The kernel-backend seam: one contract for every distance/encoder hot path.

Every scale claim in this repo bottoms out in two kinds of inner loop —
the squared-Euclidean distance kernel behind
:class:`~repro.core.knn_head.KNNHead`, and the encoder's dense and
convolution forwards inside :meth:`~repro.nn.model.Sequential.predict`.
A :class:`KernelBackend` owns all of them, so the *representation* of a
radio map (float64, packed float32, int8 codes) and the arithmetic over
it can change without touching any search or serving logic.

The contract has two tiers, mirroring the house bit-identity invariant:

* ``changes_results = False`` backends (``reference``) must be
  **byte-for-byte identical** to the shipped float64 path — they are
  interchangeable everywhere and share cache/store fingerprints with it.
* ``changes_results = True`` backends (``blas`` float32, ``quantized``
  int8) are **bounded-error** and accuracy-gated on the eval suites;
  their name participates in every fingerprint that addresses results
  (spec fingerprints, model-store keys, index tags), so a float32
  artifact can never shadow a float64 one.

Backends are resolved by name through a registry
(:func:`register_backend` / :func:`get_backend`); the
``REPRO_KERNEL_BACKEND`` environment variable overrides an unset
backend wherever a default would apply (see :func:`resolve_backend`).
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

#: Environment variable overriding the default backend selection.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The backend every layer assumes when nothing is configured.
DEFAULT_BACKEND = "reference"


@dataclass
class PackedReferences:
    """One reference matrix in a backend's resident representation.

    ``arrays`` is backend-private (float64 rows + norms for
    ``reference``, a transposed float32 layout for ``blas``, int8 codes
    plus decode scale for ``quantized``). Callers only rely on the
    shape metadata and :attr:`nbytes` (the resident footprint — what
    caps fleet density per process).
    """

    backend: str
    n_rows: int
    n_dims: int
    arrays: dict

    @property
    def nbytes(self) -> int:
        """Resident bytes of the packed representation."""
        return int(
            sum(
                a.nbytes
                for a in self.arrays.values()
                if isinstance(a, np.ndarray)
            )
        )


class KernelBackend(ABC):
    """Distance, dense-forward and conv-forward kernels over one representation."""

    #: Registry name (canonical, lowercase).
    name: str = "abstract"

    #: False when the backend is bit-identical to ``reference`` — such
    #: backends are interchangeable and share fingerprints with it.
    changes_results: bool = True

    # -- radio-map distance kernel ----------------------------------------

    @abstractmethod
    def pack(self, refs: np.ndarray) -> PackedReferences:
        """Convert a float64 ``(n, d)`` reference matrix to resident form.

        Called once per ``fit``; everything per-query must be
        precomputed here (norms, layouts, codes).
        """

    @abstractmethod
    def take(self, packed: PackedReferences, rows: np.ndarray) -> PackedReferences:
        """A packed view of a sorted row subset (the sharded-index path)."""

    @abstractmethod
    def sq_distances(
        self, queries: np.ndarray, packed: PackedReferences
    ) -> np.ndarray:
        """``(n, m)`` squared Euclidean distances, clamped at zero.

        ``queries`` arrive as float64 rows in the reference space; the
        backend owns any dtype conversion. The clamp is part of the
        contract: the matmul decomposition can produce tiny negative
        values from rounding noise, and a negative square root
        downstream is never acceptable (see
        ``tests/kernels/test_backends.py::TestNegativeClamp``).
        """

    # -- dense / encoder forward ------------------------------------------

    def dense_forward(self, x: np.ndarray, layer, *, fuse_relu: bool = False):
        """Inference forward of one Dense layer, optionally fused with ReLU.

        The default replicates the layer's own forward (plus the ReLU
        layer's arithmetic when fused) exactly — byte-for-byte what
        ``Sequential.forward`` produces. Backends may override with a
        faster equivalent; overrides of ``changes_results = False``
        backends must stay bit-identical.
        """
        y, _ = layer.forward(x, training=False)
        if fuse_relu:
            y = y * (y > 0)
        return y

    def conv2d_forward(self, x: np.ndarray, layer, *, fuse_relu: bool = False):
        """Inference forward of one Conv2D layer, optionally fused with ReLU.

        im2col, one gemm, bias added in place, then ReLU applied in place
        on the gemm output before the one copy to NCHW — the same floats
        as ``Conv2D.forward`` followed by ``ReLU.forward`` (``y *= y > 0``
        is the ReLU layer's ``x * (x > 0)``), without the ReLU layer's
        separate output array. Every backend shares this implementation.

        The patch matrix and the gemm output live in this thread's conv
        workspace (:func:`_conv_workspace`) rather than fresh heap, so a
        steady stream of same-sized calls allocates only the result —
        glibc would otherwise unmap or trim those megabytes after every
        call and page-fault them back in on the next. The returned NCHW
        array is always a fresh copy and never aliases the workspace.
        """
        y, _ = layer.forward_nhwc(x, scratch=_conv_workspace)
        if fuse_relu:
            y *= y > 0
        return y.transpose(0, 3, 1, 2).copy()

    # -- reporting ---------------------------------------------------------

    def describe(self) -> dict:
        """JSON-ready backend facts for ``/models`` and bench reports."""
        return {"name": self.name, "changes_results": self.changes_results}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


#: Per-thread conv scratch. Module-level on purpose: layers, models and
#: backends are pickled into artifacts and worker payloads, so none of
#: them may hold it.
_WORKSPACE = threading.local()


def _conv_workspace(n: int) -> np.ndarray:
    """This thread's grow-only float32 arena, at least ``n`` elements.

    It holds one Conv2D call's patch matrix plus gemm output, so it
    grows to the largest conv layer of the largest block the thread has
    run (``Sequential.predict``'s ``batch_size`` bounds that: STONE's
    conv2 needs ~3.5 MB at 64 rows, ~28 MB at 512) and is freed with
    the thread.
    """
    buf = getattr(_WORKSPACE, "buf", None)
    if buf is None or buf.size < n:
        buf = _WORKSPACE.buf = np.empty(n, dtype=np.float32)
    return buf


_REGISTRY: dict[str, KernelBackend] = {}
_ALIASES: dict[str, str] = {}


def register_backend(backend: KernelBackend, *, aliases: tuple = ()) -> KernelBackend:
    """Add a backend instance to the registry (idempotent by name)."""
    _REGISTRY[backend.name] = backend
    for alias in aliases:
        _ALIASES[alias.lower()] = backend.name
    return backend


def available_backends() -> tuple:
    """Canonical names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def canonical_backend_name(name: str) -> str:
    """Resolve a backend name or alias to its canonical registry name."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown kernel backend {name!r}; known: {available_backends()}"
        )
    return key


def get_backend(name: str) -> KernelBackend:
    """The registered backend instance for a name or alias."""
    return _REGISTRY[canonical_backend_name(name)]


def backend_changes_results(name: str) -> bool:
    """True when the named backend's arithmetic can differ from reference.

    This is the fingerprint-participation rule: backends for which this
    is False are interchangeable with ``reference`` and must share its
    cache keys, store digests and index tags.
    """
    return get_backend(name).changes_results


def resolve_backend_name(name: str | None = None) -> str:
    """Canonical backend name after applying the environment override.

    Resolution order: explicit ``name`` → ``$REPRO_KERNEL_BACKEND`` →
    :data:`DEFAULT_BACKEND`. The override only fills an *unset*
    selection; code that was handed an explicit backend keeps it, so a
    spec's recorded backend always matches what actually ran.
    """
    if name is None or name == "":
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    return canonical_backend_name(name)


def resolve_backend(
    name: str | KernelBackend | None = None,
) -> KernelBackend:
    """Backend instance for a name/instance/None (None = env/default)."""
    if isinstance(name, KernelBackend):
        return name
    return get_backend(resolve_backend_name(name))
