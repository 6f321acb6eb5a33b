"""Behavioral tests for layers (beyond gradient correctness)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GaussianDropout,
    GaussianNoise,
    L2Normalize,
    MaxPool2D,
    ReLU,
    Reshape,
    Softmax,
)
from repro.nn.layers.conv import col2im, conv_output_hw, im2col, resolve_padding


def im2col_oracle(x, kernel, stride, pad):
    """The ``sliding_window_view`` im2col formulation, kept as an oracle."""
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    oh, ow = conv_output_hw((h, w), kernel, stride, pad)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]  # (N, C, OH, OW, KH, KW)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols, dtype=np.float32), (oh, ow)


@st.composite
def conv_geometries(draw):
    """(x, kernel, stride, pad) with a non-collapsing output."""
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    pad = resolve_padding(draw(st.sampled_from(["valid", "same", 0, 1, 2])), kernel, stride)
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    assume(h + 2 * pad[0] >= kernel[0] and w + 2 * pad[1] >= kernel[1])
    shape = (draw(st.integers(0, 3)), draw(st.integers(1, 3)), h, w)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**16))
    x = np.random.default_rng(seed).normal(size=shape).astype(dtype)
    return x, kernel, stride, pad


def rng():
    return np.random.default_rng(3)


class TestConvMechanics:
    def test_known_convolution_value(self):
        """Hand-checked 2x2 convolution on a 3x3 input."""
        layer = Conv2D(1, 1, (2, 2), rng=rng())
        layer.params["W"][...] = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32)
        layer.params["b"][...] = 0.5
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        y, _ = layer.forward(x)
        # top-left window [[0,1],[3,4]] -> 0*1+1*2+3*3+4*4 = 27, +bias
        assert y.shape == (1, 1, 2, 2)
        assert y[0, 0, 0, 0] == pytest.approx(27.5)
        assert y[0, 0, 1, 1] == pytest.approx(4 + 10 + 21 + 32 + 0.5)

    def test_output_shape_helper(self):
        assert conv_output_hw((10, 10), (2, 2), (1, 1), (0, 0)) == (9, 9)
        assert conv_output_hw((10, 10), (3, 3), (2, 2), (1, 1)) == (5, 5)

    def test_collapsed_output_raises(self):
        with pytest.raises(ValueError, match="collapses"):
            conv_output_hw((2, 2), (3, 3), (1, 1), (0, 0))

    def test_im2col_patch_content(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols, (oh, ow) = im2col(x, (2, 2), (1, 1), (0, 0))
        assert (oh, ow) == (3, 3)
        np.testing.assert_array_equal(cols[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[-1], [10, 11, 14, 15])

    @settings(max_examples=150, deadline=None)
    @given(conv_geometries())
    def test_im2col_byte_equals_sliding_window_oracle(self, geometry):
        x, kernel, stride, pad = geometry
        cols, out_hw = im2col(x, kernel, stride, pad)
        expected, expected_hw = im2col_oracle(x, kernel, stride, pad)
        assert out_hw == expected_hw
        assert cols.dtype == np.float32 and cols.shape == expected.shape
        assert cols.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(conv_geometries())
    def test_col2im_is_adjoint_of_im2col(self, geometry):
        x, kernel, stride, pad = geometry
        x = x.astype(np.float32)
        cols, _ = im2col(x, kernel, stride, pad)
        y = np.random.default_rng(1).normal(size=cols.shape).astype(np.float32)
        lhs = np.vdot(cols.astype(np.float64), y.astype(np.float64))
        back = col2im(y, x.shape, kernel, stride, pad)
        rhs = np.vdot(x.astype(np.float64), back.astype(np.float64))
        assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-4)

    def test_padding_resolution(self):
        assert resolve_padding("valid", (2, 2), (1, 1)) == (0, 0)
        assert resolve_padding("same", (3, 3), (1, 1)) == (1, 1)
        assert resolve_padding(2, (3, 3), (1, 1)) == (2, 2)
        with pytest.raises(ValueError):
            resolve_padding("weird", (2, 2), (1, 1))

    def test_bad_input_channel_count(self):
        layer = Conv2D(3, 4, (2, 2), rng=rng())
        with pytest.raises(ValueError, match="expected"):
            layer.forward(np.zeros((1, 2, 5, 5), np.float32))

    def test_same_padding_preserves_hw(self):
        layer = Conv2D(1, 2, (3, 3), padding="same", rng=rng())
        y, _ = layer.forward(np.zeros((1, 1, 7, 7), np.float32))
        assert y.shape == (1, 2, 7, 7)


class TestDropout:
    def test_identity_at_inference(self):
        layer = Dropout(0.5)
        x = rng().normal(size=(10, 20)).astype(np.float32)
        y, _ = layer.forward(x, training=False)
        np.testing.assert_array_equal(x, y)

    def test_training_zeroes_and_rescales(self):
        layer = Dropout(0.5)
        x = np.ones((200, 100), np.float32)
        y, _ = layer.forward(x, training=True, rng=rng())
        kept = y > 0
        assert 0.4 < kept.mean() < 0.6
        np.testing.assert_allclose(y[kept], 2.0, rtol=1e-6)

    def test_training_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            Dropout(0.5).forward(np.ones((2, 2), np.float32), training=True)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_zero_rate_is_identity_even_training(self):
        x = rng().normal(size=(4, 4)).astype(np.float32)
        y, _ = Dropout(0.0).forward(x, training=True, rng=rng())
        np.testing.assert_array_equal(x, y)


class TestNoiseLayers:
    def test_gaussian_noise_inference_identity(self):
        x = rng().normal(size=(5, 5)).astype(np.float32)
        y, _ = GaussianNoise(0.3).forward(x, training=False)
        np.testing.assert_array_equal(x, y)

    def test_gaussian_noise_training_statistics(self):
        x = np.zeros((500, 100), np.float32)
        y, _ = GaussianNoise(0.1).forward(x, training=True, rng=rng())
        assert abs(float(y.std()) - 0.1) < 0.01
        assert abs(float(y.mean())) < 0.01

    def test_gaussian_dropout_mean_preserving(self):
        x = np.ones((500, 100), np.float32)
        y, _ = GaussianDropout(0.2).forward(x, training=True, rng=rng())
        assert abs(float(y.mean()) - 1.0) < 0.01

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianNoise(-0.1)


class TestL2Normalize:
    def test_unit_norm_output(self):
        x = rng().normal(size=(8, 5)).astype(np.float32) * 10
        y, _ = L2Normalize().forward(x)
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, rtol=1e-5)

    def test_direction_preserved(self):
        x = np.array([[3.0, 4.0]], np.float32)
        y, _ = L2Normalize().forward(x)
        np.testing.assert_allclose(y, [[0.6, 0.8]], rtol=1e-6)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            L2Normalize().forward(np.zeros((2, 3, 4), np.float32))


class TestBatchNormBehavior:
    def test_training_normalizes_batch(self):
        layer = BatchNorm(10)
        x = (rng().normal(size=(64, 10)) * 5 + 3).astype(np.float32)
        y, _ = layer.forward(x, training=True)
        assert np.abs(y.mean(axis=0)).max() < 1e-4
        assert np.abs(y.std(axis=0) - 1.0).max() < 1e-2

    def test_running_stats_converge(self):
        layer = BatchNorm(4, momentum=0.5)
        x = (rng().normal(size=(256, 4)) * 2 + 1).astype(np.float32)
        for _ in range(20):
            layer.forward(x, training=True)
        # Tolerances cover the sampling error of the batch statistics
        # themselves (256 samples -> var estimate sd ~ 0.35).
        assert np.abs(layer.running_mean - 1.0).max() < 0.3
        assert np.abs(layer.running_var - 4.0).max() < 1.0

    def test_4d_channel_stats(self):
        layer = BatchNorm(3)
        x = rng().normal(size=(8, 3, 5, 5)).astype(np.float32)
        y, _ = layer.forward(x, training=True)
        assert y.shape == x.shape
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-4

    def test_wrong_feature_count(self):
        with pytest.raises(ValueError):
            BatchNorm(5).forward(np.zeros((2, 4), np.float32))


class TestPoolingAndReshape:
    def test_maxpool_selects_maximum(self):
        x = np.array(
            [[[[1.0, 2.0], [3.0, 9.0]]]], np.float32
        )
        y, _ = MaxPool2D(2).forward(x)
        assert y.item() == 9.0

    def test_flatten_roundtrip_through_backward(self):
        layer = Flatten()
        x = rng().normal(size=(3, 2, 4, 4)).astype(np.float32)
        y, cache = layer.forward(x)
        assert y.shape == (3, 32)
        dx, _ = layer.backward(y, cache)
        np.testing.assert_array_equal(dx, x)

    def test_reshape_validates_size(self):
        with pytest.raises(ValueError):
            Reshape((5, 5)).forward(np.zeros((2, 24), np.float32))

    def test_softmax_rows_sum_to_one(self):
        y, _ = Softmax().forward(rng().normal(size=(6, 9)).astype(np.float32) * 30)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, rtol=1e-5)
        assert (y >= 0).all()


class TestDenseBehavior:
    def test_linear_map_applied(self):
        layer = Dense(2, 2, rng=rng())
        layer.params["W"][...] = np.array([[1, 0], [0, 2]], np.float32)
        layer.params["b"][...] = np.array([0.5, -0.5], np.float32)
        y, _ = layer.forward(np.array([[2.0, 3.0]], np.float32))
        np.testing.assert_allclose(y, [[2.5, 5.5]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dense(3, 2, rng=rng()).forward(np.zeros((1, 4), np.float32))

    def test_relu_zeroes_negatives(self):
        y, _ = ReLU().forward(np.array([[-1.0, 2.0, 0.0]], np.float32))
        np.testing.assert_array_equal(y, [[0.0, 2.0, 0.0]])
