"""2-D convolution via im2col + BLAS matmul.

Data layout is NCHW (batch, channels, height, width); kernels are
(out_channels, in_channels, kh, kw). STONE's encoder uses 2x2 kernels with
stride 1 on small (<= 14x14) fingerprint images, so im2col's memory
overhead is negligible and the matmul formulation is by far the fastest
pure-NumPy approach.

:func:`im2col` and its adjoint :func:`col2im` both loop over the
``KH * KW`` kernel offsets and move one strided ``(N, C, OH, OW)`` slice
per offset, so the per-element work stays in NumPy's copy loops.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from ..initializers import DTYPE, InitializerLike, get_initializer
from .base import Cache, Layer

PaddingLike = str | int | tuple[int, int]


def resolve_padding(
    padding: PaddingLike, kernel: tuple[int, int], stride: tuple[int, int]
) -> tuple[int, int]:
    """Turn ``'valid'``/``'same'``/int/tuple padding specs into (ph, pw).

    ``'same'`` padding is computed for stride 1 (output size == input size);
    for larger strides it keeps ``ceil(n/stride)`` outputs like common DL
    frameworks when the input size is divisible by the stride.
    """
    if isinstance(padding, str):
        mode = padding.lower()
        if mode == "valid":
            return (0, 0)
        if mode == "same":
            # For stride 1 the standard formula is (k - 1) // 2 per side when
            # k is odd; even kernels need asymmetric padding in general,
            # which we approximate symmetrically with ceil((k-1)/2).
            ph = int(np.ceil((kernel[0] - 1) / 2))
            pw = int(np.ceil((kernel[1] - 1) / 2))
            return (ph, pw)
        raise ValueError(f"unknown padding mode {padding!r}")
    if isinstance(padding, int):
        return (padding, padding)
    ph, pw = padding
    return (int(ph), int(pw))


def conv_output_hw(
    in_hw: tuple[int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int],
) -> tuple[int, int]:
    """Output spatial size of a convolution/pool with the given geometry."""
    oh = (in_hw[0] + 2 * pad[0] - kernel[0]) // stride[0] + 1
    ow = (in_hw[1] + 2 * pad[1] - kernel[1]) // stride[1] + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"convolution collapses spatial dims: in={in_hw} kernel={kernel} "
            f"stride={stride} pad={pad} -> ({oh}, {ow})"
        )
    return oh, ow


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int],
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold NCHW input into a (N*OH*OW, C*KH*KW) matrix of patches.

    Columns are ordered ``(c, kh, kw)``, matching a row of the
    ``(O, C, KH, KW)`` kernel reshaped to ``(O, C*KH*KW)``. The float32
    result is filled in a preallocated ``(N, OH, OW, C, KH, KW)`` buffer
    with one strided slice copy per kernel offset.

    ``out`` supplies that buffer: a C-contiguous float32 array of the
    result's shape, filled in place and returned instead of a fresh
    allocation (:meth:`Conv2D.forward_nhwc` passes a workspace view).
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    oh, ow = conv_output_hw((h, w), kernel, stride, pad)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    if out is None:
        out = np.empty((n * oh * ow, c * kh * kw), dtype=DTYPE)
    elif out.dtype != DTYPE or not out.flags.c_contiguous:
        raise ValueError("im2col out must be a C-contiguous float32 array")
    cols = out.reshape(n, oh, ow, c, kh, kw)  # a view: out is C-contiguous
    x_nhwc = x.transpose(0, 2, 3, 1)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, :, i, j] = x_nhwc[
                :, i : i + sh * oh : sh, j : j + sw * ow : sw, :
            ]
    return cols.reshape(n * oh * ow, c * kh * kw), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int],
) -> np.ndarray:
    """Fold patch gradients back into an NCHW input gradient.

    Inverse (adjoint) of :func:`im2col`: overlapping patch contributions
    are summed with ``np.add.at``.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    oh, ow = conv_output_hw((h, w), kernel, stride, pad)
    dx_pad = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=DTYPE)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    # Scatter each kernel offset in one vectorized slice-add.
    for i in range(kh):
        for j in range(kw):
            dx_pad[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols6[
                :, :, :, :, i, j
            ]
    if ph or pw:
        return dx_pad[:, :, ph : ph + h, pw : pw + w]
    return dx_pad


class Conv2D(Layer):
    """2-D convolution layer (NCHW), ``y = W * x + b``.

    Parameters mirror the usual DL-framework conventions. STONE uses
    ``Conv2D(1, 64, (2, 2))`` and ``Conv2D(64, 128, (2, 2))`` with stride 1
    and valid padding (Sec. IV.D of the paper).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int] = (2, 2),
        *,
        stride: int | tuple[int, int] = 1,
        padding: PaddingLike = "valid",
        use_bias: bool = True,
        kernel_init: InitializerLike = "he_normal",
        bias_init: InitializerLike = "zeros",
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = (
            (int(kernel_size), int(kernel_size))
            if isinstance(kernel_size, int)
            else (int(kernel_size[0]), int(kernel_size[1]))
        )
        self.stride = (
            (int(stride), int(stride))
            if isinstance(stride, int)
            else (int(stride[0]), int(stride[1]))
        )
        if min(self.kernel_size) <= 0 or min(self.stride) <= 0:
            raise ValueError("kernel and stride must be positive")
        self.padding_spec = padding
        self.pad = resolve_padding(padding, self.kernel_size, self.stride)
        self.use_bias = bool(use_bias)
        self._kernel_init = kernel_init
        rng = rng or np.random.default_rng()
        kh, kw = self.kernel_size
        self.params["W"] = get_initializer(kernel_init)(
            (self.out_channels, self.in_channels, kh, kw), rng
        )
        if self.use_bias:
            self.params["b"] = get_initializer(bias_init)((self.out_channels,), rng)

    def forward(
        self,
        x: np.ndarray,
        *,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, Cache]:
        del training, rng
        y, cols = self.forward_nhwc(x)
        out = np.ascontiguousarray(y.transpose(0, 3, 1, 2))
        return out, (cols, x.shape, y.shape[1:3])

    def forward_nhwc(
        self,
        x: np.ndarray,
        *,
        scratch: Callable[[int], np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """im2col, one gemm, bias added in place: ``(N, OH, OW, O)`` output.

        Also returns the patch matrix, which the backward pass reuses.
        :meth:`forward` is this plus the transpose to NCHW.

        ``scratch(n)`` returns a flat float32 buffer of at least ``n``
        elements. When given, the patch matrix and the gemm output are
        written into two disjoint views of it instead of fresh arrays,
        so both returned arrays alias the buffer and are only valid
        until its next use. The floats are the same either way.
        """
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        w_mat = self.params["W"].reshape(self.out_channels, -1)  # (O, C*KH*KW)
        cols_buf = out_buf = None
        if scratch is not None:
            oh, ow = conv_output_hw(
                x.shape[2:], self.kernel_size, self.stride, self.pad
            )
            rows, k, o = x.shape[0] * oh * ow, w_mat.shape[1], self.out_channels
            buf = scratch(rows * (k + o))
            cols_buf = buf[: rows * k].reshape(rows, k)
            out_buf = buf[rows * k : rows * (k + o)].reshape(rows, o)
        cols, (oh, ow) = im2col(
            x, self.kernel_size, self.stride, self.pad, out=cols_buf
        )
        out = np.matmul(cols, w_mat.T, out=out_buf)  # (N*OH*OW, O)
        if self.use_bias:
            out += self.params["b"]
        return out.reshape(x.shape[0], oh, ow, self.out_channels), cols

    def backward(
        self, dy: np.ndarray, cache: Cache
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        cols, x_shape, (oh, ow) = cache
        n = x_shape[0]
        dy_mat = (
            np.ascontiguousarray(dy, dtype=DTYPE)
            .transpose(0, 2, 3, 1)
            .reshape(n * oh * ow, self.out_channels)
        )
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        grads = {"W": (dy_mat.T @ cols).reshape(self.params["W"].shape)}
        if self.use_bias:
            grads["b"] = dy_mat.sum(axis=0)
        dcols = dy_mat @ w_mat  # (N*OH*OW, C*KH*KW)
        dx = col2im(dcols, x_shape, self.kernel_size, self.stride, self.pad)
        return dx, grads

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[0] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected (C={self.in_channels}, H, W), got {input_shape}"
            )
        oh, ow = conv_output_hw(
            (input_shape[1], input_shape[2]), self.kernel_size, self.stride, self.pad
        )
        return (self.out_channels, oh, ow)

    def get_config(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": list(self.kernel_size),
            "stride": list(self.stride),
            "padding": self.padding_spec
            if isinstance(self.padding_spec, (str, int))
            else list(self.padding_spec),
            "use_bias": self.use_bias,
        }
