"""Shape-manipulation layers."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from ..initializers import DTYPE
from .base import Cache, Layer


class Flatten(Layer):
    """Collapse all non-batch dimensions: ``(N, ...) -> (N, prod(...))``."""

    def forward(
        self,
        x: np.ndarray,
        *,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, Cache]:
        del training, rng
        x = np.asarray(x, dtype=DTYPE)
        # An explicit width, not -1: a zero-row batch cannot infer it.
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:]))), x.shape

    def backward(
        self, dy: np.ndarray, cache: Cache
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        in_shape: tuple[int, ...] = cache
        return np.asarray(dy, dtype=DTYPE).reshape(in_shape), {}

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class Reshape(Layer):
    """Reshape the non-batch dimensions to ``target_shape``."""

    def __init__(
        self, target_shape: Sequence[int], *, name: str | None = None
    ) -> None:
        super().__init__(name)
        self.target_shape = tuple(int(d) for d in target_shape)
        if any(d <= 0 for d in self.target_shape):
            raise ValueError(f"target dims must be positive, got {self.target_shape}")

    def forward(
        self,
        x: np.ndarray,
        *,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, Cache]:
        del training, rng
        x = np.asarray(x, dtype=DTYPE)
        expected = int(np.prod(self.target_shape))
        actual = int(np.prod(x.shape[1:]))
        if expected != actual:
            raise ValueError(
                f"{self.name}: cannot reshape sample of size {actual} "
                f"to {self.target_shape}"
            )
        return x.reshape((x.shape[0],) + self.target_shape), x.shape

    def backward(
        self, dy: np.ndarray, cache: Cache
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        in_shape: tuple[int, ...] = cache
        return np.asarray(dy, dtype=DTYPE).reshape(in_shape), {}

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if int(np.prod(input_shape)) != int(np.prod(self.target_shape)):
            raise ValueError(
                f"{self.name}: {input_shape} incompatible with {self.target_shape}"
            )
        return self.target_shape

    def get_config(self) -> dict[str, Any]:
        return {"name": self.name, "target_shape": list(self.target_shape)}
