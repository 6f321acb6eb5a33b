"""Sequential model container with save/load support."""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from .initializers import DTYPE
from .layers.activations import ELU, LeakyReLU, ReLU, Sigmoid, Softmax, Tanh
from .layers.base import Layer
from .layers.conv import Conv2D
from .layers.dense import Dense
from .layers.dropout import Dropout
from .layers.noise import GaussianDropout, GaussianNoise
from .layers.normalization import BatchNorm, L2Normalize
from .layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from .layers.reshape import Flatten, Reshape

_LAYER_CLASSES = {
    cls.__name__: cls
    for cls in (
        ReLU,
        LeakyReLU,
        Sigmoid,
        Tanh,
        ELU,
        Softmax,
        Conv2D,
        Dense,
        Dropout,
        GaussianNoise,
        GaussianDropout,
        BatchNorm,
        L2Normalize,
        MaxPool2D,
        AvgPool2D,
        GlobalAvgPool2D,
        Flatten,
        Reshape,
    )
}


class Sequential:
    """A linear stack of layers with functional forward/backward.

    The model carries *no* activation caches of its own: ``forward``
    returns the list of per-layer caches, and ``backward`` consumes it.
    This allows several independent forward passes through the same
    weights before any backward pass — the property Siamese triplet
    training depends on.
    """

    def __init__(self, layers: Sequence[Layer] | None = None) -> None:
        self.layers: list[Layer] = list(layers) if layers else []

    # -- construction --------------------------------------------------------

    def add(self, layer: Layer) -> Sequential:
        """Append a layer; returns self for chaining."""
        if not isinstance(layer, Layer):
            raise TypeError(f"expected a Layer, got {type(layer).__name__}")
        self.layers.append(layer)
        return self

    # -- execution -----------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        *,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, list[Any]]:
        """Run all layers; returns (output, caches) for a later backward."""
        caches: list[Any] = []
        out = np.asarray(x, dtype=DTYPE)
        for layer in self.layers:
            out, cache = layer.forward(out, training=training, rng=rng)
            caches.append(cache)
        return out, caches

    def predict(
        self,
        x: np.ndarray,
        *,
        batch_size: int | None = 256,
        backend: Any | None = None,
    ) -> np.ndarray:
        """Inference-mode forward pass, batched to bound memory.

        ``batch_size=None`` runs the whole input in one pass. Chunked
        passes write into a preallocated output so peak memory is one
        chunk's activations plus the result, never 2x the result.

        Every ``Dense`` layer runs through the kernel backend's
        ``dense_forward`` and every ``Conv2D`` layer through its
        ``conv2d_forward``, each fused with a directly following
        ``ReLU``. ``backend`` is a :mod:`repro.kernels` backend name or
        instance; ``None`` means ``"reference"`` by name, so
        ``$REPRO_KERNEL_BACKEND`` does not apply here. The fusion reuses
        the gemm output buffer for bias and activation, so it is bitwise
        identical to :meth:`forward` (``y + b`` and ``y += b`` produce
        the same floats; ``ReLU`` is ``x * (x > 0)`` in both). Conv
        scratch comes from a per-thread workspace that ``batch_size``
        bounds; returned arrays never alias it.
        """
        from ..kernels import resolve_backend

        x = np.asarray(x, dtype=DTYPE)
        backend = resolve_backend("reference" if backend is None else backend)
        if batch_size is None or x.shape[0] <= batch_size:
            return self._predict_block(x, backend)
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        first = self._predict_block(x[:batch_size], backend)
        out = np.empty((x.shape[0],) + first.shape[1:], dtype=first.dtype)
        out[:batch_size] = first
        for i in range(batch_size, x.shape[0], batch_size):
            out[i : i + batch_size] = self._predict_block(
                x[i : i + batch_size], backend
            )
        return out

    def _predict_block(self, x: np.ndarray, backend: Any) -> np.ndarray:
        """One inference block, Dense/Conv2D(+ReLU)-fused via ``backend``.

        ``backend`` is a resolved ``KernelBackend``. The calling
        thread's conv workspace grows to this block's largest conv
        layer, so the block size bounds it.
        """
        out = np.asarray(x, dtype=DTYPE)
        skip_next = False
        for idx, layer in enumerate(self.layers):
            if skip_next:
                skip_next = False
                continue
            fuse = idx + 1 < len(self.layers) and type(self.layers[idx + 1]) is ReLU
            if isinstance(layer, Dense):
                out = backend.dense_forward(out, layer, fuse_relu=fuse)
                skip_next = fuse
            elif isinstance(layer, Conv2D):
                out = backend.conv2d_forward(out, layer, fuse_relu=fuse)
                skip_next = fuse
            else:
                out, _ = layer.forward(out, training=False)
        return out

    def backward(
        self, dy: np.ndarray, caches: Sequence[Any]
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Backpropagate ``dy``; returns (dx, grads keyed like parameters())."""
        if len(caches) != len(self.layers):
            raise ValueError(
                f"cache count {len(caches)} != layer count {len(self.layers)}"
            )
        grads: dict[str, np.ndarray] = {}
        dx = np.asarray(dy, dtype=DTYPE)
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            dx, layer_grads = layer.backward(dx, caches[idx])
            for pname, g in layer_grads.items():
                grads[f"{idx}.{pname}"] = g
        return dx, grads

    # -- parameters ----------------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Flat dict of all trainable parameters, keyed ``"<idx>.<name>"``."""
        params: dict[str, np.ndarray] = {}
        for idx, layer in enumerate(self.layers):
            for pname, arr in layer.params.items():
                params[f"{idx}.{pname}"] = arr
        return params

    def n_params(self) -> int:
        """Total scalar parameter count."""
        return sum(layer.n_params() for layer in self.layers)

    def zero_grads(self) -> dict[str, np.ndarray]:
        """Zero gradient dict matching :meth:`parameters` (for accumulation)."""
        return {k: np.zeros_like(v) for k, v in self.parameters().items()}

    @staticmethod
    def accumulate_grads(
        total: dict[str, np.ndarray], part: dict[str, np.ndarray]
    ) -> None:
        """Add ``part`` into ``total`` in place (missing keys are errors)."""
        for key, g in part.items():
            total[key] += g

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        """Copy values into the model's parameter arrays (strict keys)."""
        params = self.parameters()
        if set(values) != set(params):
            missing = set(params) - set(values)
            extra = set(values) - set(params)
            raise KeyError(f"parameter mismatch: missing={missing} extra={extra}")
        for key, arr in values.items():
            if params[key].shape != arr.shape:
                raise ValueError(
                    f"{key}: shape {arr.shape} != expected {params[key].shape}"
                )
            params[key][...] = arr

    # -- introspection --------------------------------------------------------

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Propagate a sample shape (no batch dim) through all layers."""
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def summary(self, input_shape: tuple[int, ...] | None = None) -> str:
        """Human-readable architecture table."""
        lines = ["layer                     output shape        params"]
        shape = tuple(input_shape) if input_shape else None
        total = 0
        for layer in self.layers:
            if shape is not None:
                shape = layer.output_shape(shape)
                shape_str = str(shape)
            else:
                shape_str = "?"
            n = layer.n_params()
            total += n
            lines.append(f"{layer.name:<25} {shape_str:<19} {n:>6}")
        lines.append(f"total params: {total}")
        return "\n".join(lines)

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialize architecture + weights to a single ``.npz`` file."""
        path = Path(path)
        arch = [
            {"class": layer.__class__.__name__, "config": layer.get_config()}
            for layer in self.layers
        ]
        arrays: dict[str, np.ndarray] = {
            f"param:{k}": v for k, v in self.parameters().items()
        }
        for idx, layer in enumerate(self.layers):
            if isinstance(layer, BatchNorm):
                arrays[f"state:{idx}.running_mean"] = layer.running_mean
                arrays[f"state:{idx}.running_var"] = layer.running_var
        arrays["__architecture__"] = np.frombuffer(
            json.dumps(arch).encode("utf-8"), dtype=np.uint8
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path: str | Path) -> Sequential:
        """Rebuild a model saved by :meth:`save`."""
        with np.load(Path(path)) as data:
            arch = json.loads(bytes(data["__architecture__"]).decode("utf-8"))
            model = cls()
            for spec in arch:
                layer_cls = _LAYER_CLASSES.get(spec["class"])
                if layer_cls is None:
                    raise ValueError(f"unknown layer class {spec['class']!r}")
                config = dict(spec["config"])
                for key in ("kernel_size", "stride", "pool_size", "target_shape", "padding"):
                    if key in config and isinstance(config[key], list):
                        config[key] = tuple(config[key])
                model.add(layer_cls(**config))
            values = {
                k[len("param:") :]: data[k] for k in data.files if k.startswith("param:")
            }
            model.set_parameters(values)
            for idx, layer in enumerate(model.layers):
                if isinstance(layer, BatchNorm):
                    layer.running_mean = data[f"state:{idx}.running_mean"]
                    layer.running_var = data[f"state:{idx}.running_var"]
        return model

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterable[Layer]:
        return iter(self.layers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(layer.name for layer in self.layers)
        return f"Sequential([{inner}])"
