"""Tests for the dense CNN kernel, checked against nested-loop and
finite-difference oracles."""

import tracemalloc

import numpy as np
import pytest

import conv_oracles
from conftest import central_diff, conv2d_reference, rel_err
from warpdet import nn
from warpdet.model import CONV_GEOMETRY
from warpdet.nn import (
    ConvSpec,
    ShapeError,
    conv2d_backward,
    conv2d_forward,
    fully_connected,
    fully_connected_backward,
    maxpool2x2,
    maxpool2x2_backward,
    relu,
    relu_backward,
    sgd_step,
    softmax_cross_entropy,
    softmax_cross_entropy_backward,
    uniform_init,
)
from warpdet.roiconv import RoiMask, roi_conv_forward


def _patch_matrix(x, spec):
    """The package's (C*K*K, out_h*out_w) patch matrix of x, the one its
    im2col lowering multiplies: row (c, ky, kx) holds that tap for every
    output position."""
    xp, out_h, out_w = nn._padded_input(x, spec)
    return nn._patch_matrix(xp, spec, out_h, out_w)


def _patch_bytes(x, spec):
    """Bytes of x's patch matrix, C*K*K*out_h*out_w items of x's dtype: the
    size the lowering rule compares with IM2COL_BUDGET_BYTES."""
    out_h, out_w = spec.out_size(x.shape[1], x.shape[2])
    return spec.in_channels * spec.kernel**2 * out_h * out_w * x.itemsize


class TestIm2col:
    def test_single_patch_is_row_major_input(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 3, 3)
        cols = _patch_matrix(x, ConvSpec(1, 1, kernel=3))
        assert cols.shape == (9, 1)
        np.testing.assert_array_equal(cols[:, 0], np.arange(9))

    def test_non_overlapping_tiling(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        cols = _patch_matrix(x, ConvSpec(1, 1, kernel=2, stride=2))
        assert cols.shape == (4, 4)
        np.testing.assert_array_equal(cols[:, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[:, 1], [2, 3, 6, 7])
        np.testing.assert_array_equal(cols[:, 2], [8, 9, 12, 13])
        np.testing.assert_array_equal(cols[:, 3], [10, 11, 14, 15])

    def test_matmul_equals_nested_loop_oracle(self, rng):
        x = rng.standard_normal((3, 8, 8))
        filters = rng.standard_normal((4, 3, 3, 3))
        spec = ConvSpec(3, 4, kernel=3, stride=1, padding=1)
        out = (filters.reshape(4, -1) @ _patch_matrix(x, spec)).reshape(4, 8, 8)
        ref = conv2d_reference(x, filters, stride=1, padding=1)
        assert np.max(np.abs(out - ref)) < 1e-12


class TestConvForward:
    def test_identity_1x1(self, rng):
        x = rng.standard_normal((1, 5, 5))
        f = np.ones((1, 1, 1, 1))
        out = conv2d_forward(x, f, ConvSpec(1, 1, kernel=1))
        np.testing.assert_array_equal(out, x)

    def test_ones_3x3_on_constant(self):
        x = np.full((1, 6, 6), 2.5)
        f = np.ones((1, 1, 3, 3))
        out = conv2d_forward(x, f, ConvSpec(1, 1, kernel=3))
        np.testing.assert_allclose(out, 9 * 2.5, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_oracle(self, rng, stride, padding):
        x = rng.standard_normal((2, 7, 6))
        filters = rng.standard_normal((3, 2, 3, 3))
        spec = ConvSpec(2, 3, kernel=3, stride=stride, padding=padding)
        out = conv2d_forward(x, filters, spec)
        ref = conv2d_reference(x, filters, stride=stride, padding=padding)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_single_precision_matches_oracle(self, rng):
        x = rng.standard_normal((2, 6, 6)).astype(np.float32)
        filters = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        spec = ConvSpec(2, 2, kernel=3, padding=1)
        ref = conv2d_reference(
            x.astype(np.float64), filters.astype(np.float64), padding=1
        )
        assert np.max(np.abs(conv2d_forward(x, filters, spec) - ref)) < 1e-5

    def test_deterministic(self, rng):
        x = rng.standard_normal((2, 8, 8))
        filters = rng.standard_normal((3, 2, 3, 3))
        spec = ConvSpec(2, 3, kernel=3, padding=1)
        a = conv2d_forward(x, filters, spec)
        b = conv2d_forward(x, filters, spec)
        np.testing.assert_array_equal(a, b)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            conv2d_forward(
                rng.standard_normal((2, 4, 4)),
                rng.standard_normal((1, 3, 3, 3)),
                ConvSpec(3, 1, kernel=3),
            )

    @pytest.mark.parametrize("extent", [(4, 9), (9, 4), (1, 1)])
    def test_input_smaller_than_a_window_raises_before_any_view(
        self, monkeypatch, extent
    ):
        def no_view(*args, **kwargs):
            raise AssertionError("window view built for a too-small input")

        monkeypatch.setattr(nn, "_read_only_view", no_view)
        with pytest.raises(ShapeError, match="too small"):
            conv2d_forward(np.zeros((1,) + extent), np.zeros((1, 1, 7, 7)),
                           ConvSpec(1, 1, 7, stride=2, padding=1))


class TestConvBackward:
    def test_zero_grad_out(self, rng):
        x = rng.standard_normal((2, 5, 5))
        f = rng.standard_normal((3, 2, 3, 3))
        spec = ConvSpec(2, 3, kernel=3)
        gx, gf, gb = conv2d_backward(np.zeros((3, 3, 3)), x, f, spec)
        assert not gx.any() and not gf.any() and not gb.any()

    def test_identity_filter_passes_gradient(self, rng):
        x = rng.standard_normal((1, 4, 4))
        f = np.ones((1, 1, 1, 1))
        g = rng.standard_normal((1, 4, 4))
        gx, _, _ = conv2d_backward(g, x, f, ConvSpec(1, 1, kernel=1))
        np.testing.assert_allclose(gx, g, atol=1e-15)

    def test_finite_difference_agreement(self, rng):
        x = rng.standard_normal((2, 5, 5))
        filters = rng.standard_normal((3, 2, 3, 3))
        spec = ConvSpec(2, 3, kernel=3, stride=1, padding=1)
        w = rng.standard_normal((3, 5, 5))  # fixed projection -> scalar loss

        def loss_of_x(xv):
            return float(np.sum(conv2d_forward(xv, filters, spec) * w))

        def loss_of_f(fv):
            return float(np.sum(conv2d_forward(x, fv, spec) * w))

        gx, gf, _ = conv2d_backward(w, x, filters, spec)
        assert rel_err(gx, central_diff(loss_of_x, x)) < 1e-5
        assert rel_err(gf, central_diff(loss_of_f, filters)) < 1e-5

    @pytest.mark.parametrize(
        "kernel,stride,padding", [(7, 2, 3), (5, 2, 2)], ids=["rpn.conv1", "rcnn.conv1"]
    )
    def test_finite_difference_agreement_strided(self, rng, kernel, stride, padding):
        # odd extents: the last window stops short of the padded edge
        x = rng.standard_normal((2, 9, 11))
        filters = rng.standard_normal((3, 2, kernel, kernel))
        spec = ConvSpec(2, 3, kernel=kernel, stride=stride, padding=padding)
        w = rng.standard_normal((3, *spec.out_size(9, 11)))

        def loss_of_x(xv):
            return float(np.sum(conv2d_forward(xv, filters, spec) * w))

        def loss_of_f(fv):
            return float(np.sum(conv2d_forward(x, fv, spec) * w))

        gx, gf, _ = conv2d_backward(w, x, filters, spec)
        assert rel_err(gx, central_diff(loss_of_x, x)) < 1e-5
        assert rel_err(gf, central_diff(loss_of_f, filters)) < 1e-5

    def test_bias_gradient(self, rng):
        x = rng.standard_normal((2, 4, 4))
        filters = rng.standard_normal((3, 2, 3, 3))
        bias = rng.standard_normal(3)
        spec = ConvSpec(2, 3, kernel=3, padding=1)
        w = rng.standard_normal((3, 4, 4))

        def loss_of_b(bv):
            return float(np.sum(conv2d_forward(x, filters, spec, bias=bv) * w))

        _, _, gb = conv2d_backward(w, x, filters, spec)
        assert rel_err(gb, central_diff(loss_of_b, bias)) < 1e-5


# Odd and even kernels at padding 0 and K//2, and paddings of at least the
# kernel, above the K-1 at which a flipped-filter product would need a
# negative padding, at strides 1 to 3. A stride splits each filter into
# stride**2 phases of ceil(K/s) taps: one tap when K < s, zero-padded taps
# when K is no multiple of s.
ORACLE_GEOMETRIES = [
    (k, s, p, extent)
    for k, p in [(k, p) for k in (1, 2, 3, 4, 5, 7) for p in sorted({0, k // 2})]
    + [(1, 1), (2, 2), (3, 3), (2, 4)]
    for s in (1, 2, 3)
    for extent in ((11, 9), (12, 10))
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
@pytest.mark.parametrize(
    "kernel,stride,padding,extent",
    ORACLE_GEOMETRIES,
    ids=[f"k{k}s{s}p{p}-{h}x{w}" for k, s, p, (h, w) in ORACLE_GEOMETRIES],
)
def test_matches_index_gather_oracles(rng, kernel, stride, padding, extent, dtype):
    """The strided-window gather, the forward, and the filter and bias
    gradients reproduce the fancy-index oracles bit for bit. The input
    gradient is a convolution, summed in another order than the np.add.at
    scatter: the oracle's values to rounding. A uint8 map computes in the
    float64 parameters' dtype."""
    spec = ConvSpec(3, 4, kernel=kernel, stride=stride, padding=padding)
    if dtype == np.uint8:
        x = rng.integers(0, 256, size=(3, *extent)).astype(dtype)
        param_dtype = np.float64
    else:
        x = rng.standard_normal((3, *extent)).astype(dtype)
        param_dtype = dtype
    filters = rng.standard_normal((4, 3, kernel, kernel)).astype(param_dtype)
    bias = rng.standard_normal(4).astype(param_dtype)
    g = rng.standard_normal((4, *spec.out_size(*extent))).astype(param_dtype)

    assert np.array_equal(_patch_matrix(x, spec), conv_oracles.im2col(x, spec))
    assert np.array_equal(
        conv2d_forward(x, filters, spec, bias=bias),
        conv_oracles.conv2d_forward(x, filters, spec, bias=bias),
    )
    _assert_backward_matches_oracle(g, x, filters, spec)


def _assert_backward_matches_oracle(g, x, filters, spec):
    """conv2d_backward against the scatter oracle: the bias gradient bit for
    bit; the filter gradient bit for bit while the patch matrix fits the
    budget, to rounding above it; the input gradient to rounding."""
    got = conv2d_backward(g, x, filters, spec)
    want = conv_oracles.conv2d_backward(g, x, filters, spec)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
    (gx, gf, gb), (wx, wf, wb) = got, want
    input_bound, filter_bound = _backward_rounding_bounds(g, x, filters, spec)
    assert gb.tobytes() == wb.tobytes()
    if _patch_bytes(x, spec) <= nn.IM2COL_BUDGET_BYTES:
        assert gf.tobytes() == wf.tobytes()
    else:
        assert np.all(np.abs(gf - wf) <= filter_bound)
    assert np.all(np.abs(gx - wx) <= input_bound)


def _backward_rounding_bounds(g, x, filters, spec):
    """Elementwise bounds on the difference between two summation orders of
    the input and filter gradients in g's dtype: 2 * n * eps * magnitude,
    the magnitude being the oracle's gradients of |g| through |x| and
    |filters|, and n the terms of each sum, N*K*K per input pixel and
    out_h*out_w per filter tap."""
    grad_input, grad_filters, _ = conv_oracles.conv2d_backward(
        *(np.abs(a.astype(np.float64)) for a in (g, x, filters)), spec)
    eps = np.finfo(g.dtype).eps
    n_input = spec.out_channels * spec.kernel**2
    n_filter = g.shape[1] * g.shape[2]
    return 2 * n_input * eps * grad_input, 2 * n_filter * eps * grad_filters


# (in channels, out channels, input extent) of each conv in a joint step of
# the benchmark: the proposal net on a 96-px image, the verification net on
# a 64-px crop. Kernel, stride and padding come from CONV_GEOMETRY.
BENCH_GEOMETRIES = {
    "rpn.conv1": (1, 8, (96, 96)),
    "rpn.conv2": (8, 12, (24, 24)),
    "rpn.conv3": (12, 16, (12, 12)),
    "rpn.score_head": (16, 2, (12, 12)),
    "rpn.point_head": (16, 10, (12, 12)),
    "rcnn.conv1": (1, 8, (64, 64)),
    "rcnn.conv2": (8, 16, (16, 16)),
}


def _bench_case(rng, role, dtype=np.float64):
    """Spec, input, filters and upstream gradient of one bench conv; the
    gradient holds signed zeros, as relu_backward gives."""
    c, n, extent = BENCH_GEOMETRIES[role]
    spec = ConvSpec(c, n, *CONV_GEOMETRY[role])
    x = rng.standard_normal((c, *extent))
    filters = rng.standard_normal((n, c, spec.kernel, spec.kernel))
    g = rng.standard_normal((n, *spec.out_size(*extent)))
    g[g < -1.0] = -0.0
    g[np.abs(g) < 0.2] = 0.0
    return spec, x.astype(dtype), filters.astype(dtype), g.astype(dtype)


class TestConvBackwardAtBenchGeometries:
    @pytest.mark.parametrize("role", BENCH_GEOMETRIES)
    def test_matches_scatter_oracle(self, rng, role):
        """rpn.conv1-conv3 take the kernel-row filter gradient; rpn.conv1
        and rcnn.conv1 the strided, phase-split input gradient."""
        spec, x, filters, g = _bench_case(rng, role)
        _assert_backward_matches_oracle(g, x, filters, spec)

    @pytest.mark.parametrize("filter_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("role", ["rpn.conv2", "rcnn.conv1", "rpn.point_head"])
    def test_float32_stays_float32_within_single_precision(
        self, rng, role, filter_dtype
    ):
        """Float32 maps give float32 gradients, on float32 filters and on
        the float64 model's, which the input gradient casts."""
        spec, x, filters, g = _bench_case(rng, role, np.float32)
        got = conv2d_backward(g, x, filters.astype(filter_dtype), spec)
        want = conv2d_backward(
            g.astype(np.float64), x.astype(np.float64),
            filters.astype(np.float64), spec,
        )
        for a, b in zip(got, want, strict=True):
            assert a.dtype == np.float32 and a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(b))

    @pytest.mark.parametrize("role", BENCH_GEOMETRIES)
    def test_without_input_grad_gives_none_and_the_same_parameter_grads(
        self, rng, role
    ):
        spec, x, filters, g = _bench_case(rng, role)
        _, want_filters, want_bias = conv2d_backward(g, x, filters, spec)
        grad_input, grad_filters, grad_bias = conv2d_backward(
            g, x, filters, spec, False)
        assert grad_input is None
        assert grad_filters.tobytes() == want_filters.tobytes()
        assert grad_bias.tobytes() == want_bias.tobytes()

    def test_without_input_grad_runs_no_input_gradient_product(self, rng, monkeypatch):
        spec, x, filters, g = _bench_case(rng, "rcnn.conv1")
        calls = []
        real = nn._flipped_filter_product
        monkeypatch.setattr(nn, "_flipped_filter_product",
                            lambda *a: calls.append(a) or real(*a))
        conv2d_backward(g, x, filters, spec, False)
        assert not calls
        conv2d_backward(g, x, filters, spec)
        assert len(calls) == 1

    @pytest.mark.parametrize("role", ["rpn.conv1", "rpn.conv2"])
    def test_peak_allocation_is_one_patch_matrix(self, rng, role):
        """The filter gradient's copy of the input is freed before the input
        gradient's product, whose copies of the padded output gradient and
        its phase outputs stay under one patch matrix of the input."""
        spec, x, filters, g = _bench_case(rng, role)
        patch_matrix_bytes = _patch_bytes(x, spec)
        conv2d_backward(g, x, filters, spec)
        tracemalloc.start()
        try:
            conv2d_backward(g, x, filters, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * patch_matrix_bytes

    @pytest.mark.parametrize("role,input_grad,share", [
        ("rpn.conv1", False, 0.5), ("rpn.conv2", True, 1.0)])
    def test_peak_allocation_above_the_budget(self, rng, role, input_grad, share):
        """Above the budget no patch matrix is built. rpn.conv1's filter
        gradient holds two row phases of its padded input, under half its
        882 KB patch matrix; rpn.conv2 frees its filter gradient's phase
        copy before the input gradient's product copies the padded output
        gradient's, and stays under one 1,764 KB patch matrix."""
        spec, x, filters, g = _bench_case(rng, role)
        patch_matrix_bytes = _patch_bytes(x, spec)
        assert patch_matrix_bytes > nn.IM2COL_BUDGET_BYTES
        conv2d_backward(g, x, filters, spec, input_grad)
        tracemalloc.start()
        try:
            conv2d_backward(g, x, filters, spec, input_grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < share * patch_matrix_bytes


class TestConvInInputDtype:
    """A conv computes in its input's floating dtype: a float32 map on the
    float64 model gives the oracle's values on the model cast to float32,
    and a float64 map casts nothing."""

    @pytest.mark.parametrize("role", BENCH_GEOMETRIES)
    def test_float32_input_equals_oracle_on_float32_parameters(self, rng, role):
        """The oracle's bytes while the patch matrix fits the budget. Above
        it (rpn.conv2, whose float32 matrix is 903 KB) the products are
        summed one kernel row at a time, so the oracle's values to float32
        rounding."""
        spec, x, filters, _ = _bench_case(rng, role)
        bias = rng.standard_normal(spec.out_channels)
        x = x.astype(np.float32)
        got = conv2d_forward(x, filters, spec, bias=bias)
        want = conv_oracles.conv2d_forward(
            x, filters.astype(np.float32), spec, bias=bias.astype(np.float32))
        assert got.dtype == np.float32 and got.shape == want.shape
        if _patch_bytes(x, spec) <= nn.IM2COL_BUDGET_BYTES:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= _rounding_bound(x, filters, spec, bias))

    def test_float64_input_casts_no_parameter(self, rng):
        x = rng.standard_normal((2, 5, 5))
        filters = rng.standard_normal((3, 2, 3, 3))
        assert nn.as_input_dtype(filters, x) is filters
        assert nn.as_input_dtype(filters, x.astype(np.float32)).dtype == np.float32

    def test_integer_input_keeps_the_parameters_dtype(self, rng):
        """An integer map is not a compute dtype: the product is promoted
        to float64, as numpy promotes it, rather than run on truncated
        filters."""
        spec = ConvSpec(1, 2, kernel=3, padding=1)
        x = rng.integers(0, 256, size=(1, 7, 6)).astype(np.uint8)
        filters = rng.standard_normal((2, 1, 3, 3))
        bias = rng.standard_normal(2)
        got = conv2d_forward(x, filters, spec, bias=bias)
        want = conv2d_forward(x.astype(np.float64), filters, spec, bias=bias)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_integer_input_gets_gradients_in_the_products_dtype(self, rng, stride):
        """An integer map's input gradient is float64, the dtype of its
        product, rather than truncated and wrapped into the map's dtype."""
        spec = ConvSpec(1, 2, kernel=3, stride=stride, padding=1)
        x = rng.integers(0, 256, size=(1, 7, 6)).astype(np.uint8)
        filters = rng.standard_normal((2, 1, 3, 3))
        g = rng.standard_normal((2, *spec.out_size(7, 6)))
        got = conv2d_backward(g, x, filters, spec)
        want = conv2d_backward(g, x.astype(np.float64), filters, spec)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == np.float64
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def _rounding_bound(x, filters, spec, bias):
    """Elementwise bound on the difference between two summation orders of
    a conv output in x's dtype: n * eps * (|x| conv |filters| + |bias|),
    n = C*K*K + 1 terms, each partial sum rounded at most once."""
    magnitude = conv_oracles.conv2d_forward(
        np.abs(x.astype(np.float64)), np.abs(filters), spec, bias=np.abs(bias))
    n = spec.in_channels * spec.kernel**2 + 1
    return 2 * n * np.finfo(x.dtype).eps * magnitude


# (channels, kernel, stride, padding): stride 1 and 2, and stride 3 with a
# kernel larger and smaller than it; one and several channels.
LOWERING_GEOMETRIES = [
    (c, k, s, p)
    for c in (1, 3)
    for k, s, p in ((3, 1, 0), (3, 1, 1), (7, 1, 3), (5, 2, 0), (7, 2, 3),
                    (1, 2, 0), (7, 3, 2), (2, 3, 0))
]

# (channels, out channels, input extent) of the proposal convs on the
# 160-px level of a detect pyramid, whose patch matrices exceed the budget.
DETECT_GEOMETRIES = {
    "rpn.conv1": (1, 8, (160, 160)),
    "rpn.conv2": (8, 12, (40, 40)),
    "rpn.conv3": (12, 16, (20, 20)),
}


class TestKernelRowLowering:
    """Above IM2COL_BUDGET_BYTES conv2d_forward sums one GEMM per kernel row
    over a column-only copy of the padded input: the oracle's values to the
    rounding of the other summation order, in the input's dtype."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("extent", [(11, 9), (12, 10)])
    @pytest.mark.parametrize(
        "channels,kernel,stride,padding", LOWERING_GEOMETRIES,
        ids=[f"c{c}k{k}s{s}p{p}" for c, k, s, p in LOWERING_GEOMETRIES])
    def test_forced_lowering_matches_oracle_within_rounding(
        self, rng, monkeypatch, channels, kernel, stride, padding, extent, dtype
    ):
        spec = ConvSpec(channels, 4, kernel, stride=stride, padding=padding)
        x = rng.standard_normal((channels, *extent)).astype(dtype)
        filters = rng.standard_normal((4, channels, kernel, kernel))
        bias = rng.standard_normal(4)
        want = conv_oracles.conv2d_forward(
            x, filters.astype(dtype), spec, bias=bias.astype(dtype))
        monkeypatch.setattr(nn, "IM2COL_BUDGET_BYTES", 0)
        got = conv2d_forward(x, filters, spec, bias=bias)
        assert got.dtype == dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert np.all(np.abs(got - want) <= _rounding_bound(x, filters, spec, bias))
        g = rng.standard_normal(want.shape).astype(dtype)
        _assert_backward_matches_oracle(g, x, filters.astype(dtype), spec)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("role", DETECT_GEOMETRIES)
    def test_detect_geometries_match_oracle_within_rounding(self, rng, role, dtype):
        c, n, extent = DETECT_GEOMETRIES[role]
        spec = ConvSpec(c, n, *CONV_GEOMETRY[role])
        x = rng.standard_normal((c, *extent)).astype(dtype)
        filters = rng.standard_normal((n, c, spec.kernel, spec.kernel))
        bias = rng.standard_normal(n)
        assert _patch_bytes(x, spec) > nn.IM2COL_BUDGET_BYTES
        got = conv2d_forward(x, filters, spec, bias=bias)
        want = conv_oracles.conv2d_forward(
            x, filters.astype(dtype), spec, bias=bias.astype(dtype))
        assert got.dtype == dtype and got.shape == want.shape
        assert np.all(np.abs(got - want) <= _rounding_bound(x, filters, spec, bias))

    @pytest.mark.parametrize("product",
                             ["forward", "filter gradient", "full-mask roi conv"])
    @pytest.mark.parametrize("width,lowered", [(256, False), (257, True)])
    def test_the_patch_bytes_pick_the_lowering(
        self, rng, monkeypatch, width, lowered, product
    ):
        """A 1x1 float64 conv over 256 x 256 positions has a patch matrix
        of exactly the budget: the forward, the filter gradient and a
        full-mask roi_conv_forward each build it once and give the oracle's
        bytes. One column more builds none and runs by kernel rows."""
        spec = ConvSpec(1, 2, kernel=1)
        x = rng.standard_normal((1, 256, width))
        filters = rng.standard_normal((2, 1, 1, 1))
        bias = rng.standard_normal(2)
        g = rng.standard_normal((2, 256, width))
        built = []
        real = nn._patch_matrix
        monkeypatch.setattr(nn, "_patch_matrix",
                            lambda *a: built.append(a) or real(*a))
        if product == "filter gradient":
            got = conv2d_backward(g, x, filters, spec, False)[1]
            want = conv_oracles.conv2d_backward(g, x, filters, spec)[1]
            bound = _backward_rounding_bounds(g, x, filters, spec)[1]
        else:
            if product == "forward":
                got = conv2d_forward(x, filters, spec, bias=bias)
            else:
                mask = RoiMask(np.ones((256, width), dtype=bool))
                got = roi_conv_forward(x, filters, mask, spec, bias=bias)
            want = conv_oracles.conv2d_forward(x, filters, spec, bias=bias)
            bound = _rounding_bound(x, filters, spec, bias)
        assert (_patch_bytes(x, spec) > nn.IM2COL_BUDGET_BYTES) == lowered
        assert len(built) == (0 if lowered else 1)
        if lowered:
            assert np.all(np.abs(got - want) <= bound)
        else:
            assert got.tobytes() == want.tobytes()

    def test_peak_allocation_is_under_half_the_patch_matrix(self, rng):
        """At the 160-px float32 rpn.conv2 geometry the call holds the
        column-only copy, K/s = 7 times smaller than the 2.5 MB patch
        matrix, and two output-sized buffers."""
        c, n, extent = DETECT_GEOMETRIES["rpn.conv2"]
        spec = ConvSpec(c, n, *CONV_GEOMETRY["rpn.conv2"])
        x = rng.standard_normal((c, *extent)).astype(np.float32)
        filters = rng.standard_normal((n, c, spec.kernel, spec.kernel))
        bias = rng.standard_normal(n)
        patch_matrix_bytes = _patch_bytes(x, spec)
        tracemalloc.start()
        try:
            conv2d_forward(x, filters, spec, bias=bias)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < patch_matrix_bytes / 2


def _signed_zero_grad(rng, shape, dtype=np.float64):
    """Upstream gradient with +0 and -0 entries among the nonzero ones."""
    g = rng.standard_normal(shape)
    g[g < -0.5] = -0.0
    g[np.abs(g) < 0.2] = 0.0
    return g.astype(dtype)


def _assert_pool_bytes_equal_oracle(x, rng=None):
    """Forward bytes equal the argmax oracle's output; the backward, from
    the input and output alone, equals the oracle's argmax scatter."""
    out = maxpool2x2(x)
    want_out, argmax = conv_oracles.maxpool2x2(x)
    assert out.dtype == want_out.dtype and out.shape == want_out.shape
    assert out.tobytes() == want_out.tobytes()
    g = _signed_zero_grad(rng or np.random.default_rng(0), out.shape, x.dtype)
    got = maxpool2x2_backward(g, x, out)
    want = conv_oracles.maxpool2x2_backward(g, argmax, x.shape)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestMaxPool:
    @pytest.mark.parametrize("extent", [(8, 8), (7, 8), (8, 7), (5, 5), (1, 1), (2, 3)])
    def test_relu_zero_ties_match_argmax_oracle_bytes(self, rng, extent):
        for _ in range(20):
            x = relu(rng.standard_normal((3,) + extent) - 0.5)
            _assert_pool_bytes_equal_oracle(x, rng)

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -2.0])
    def test_constant_blocks_match_argmax_oracle_bytes(self, value):
        _assert_pool_bytes_equal_oracle(np.full((2, 6, 5), value))

    def test_signed_zeros_keep_the_first_index_and_its_sign(self, rng):
        for _ in range(50):
            x = rng.choice([0.0, -0.0], size=(2, 6, 7))
            _assert_pool_bytes_equal_oracle(x, rng)
        x = np.array([[[-0.0, 0.0], [0.0, -0.0]]])
        out = maxpool2x2(x)
        assert np.signbit(out[0, 0, 0])
        grad = maxpool2x2_backward(np.ones((1, 1, 1)), x, out)
        np.testing.assert_array_equal(grad, [[[1.0, 0.0], [0.0, 0.0]]])

    def test_float32_and_small_integer_ties_match_argmax_oracle_bytes(self, rng):
        for _ in range(20):
            x = np.round(rng.standard_normal((3, 9, 10)) * 2)
            _assert_pool_bytes_equal_oracle(x, rng)
            _assert_pool_bytes_equal_oracle(x.astype(np.float32), rng)
            _assert_pool_bytes_equal_oracle(x[:, ::-1], rng)  # non-contiguous input

    def test_np_maximum_returns_its_second_argument_on_a_tie(self):
        """maxpool2x2's first-index rule rests on this; a numpy that breaks
        it fails here rather than silently flipping pooled zero signs."""
        for dtype in (np.float64, np.float32):
            pos, neg = np.zeros(16, dtype), np.full(16, -0.0, dtype)
            assert np.signbit(np.maximum(pos, neg)).all()
            assert not np.signbit(np.maximum(neg, pos)).any()
            assert np.signbit(np.maximum(pos[0], neg[0]))
            assert not np.signbit(np.maximum(neg[0], pos[0]))

    def test_constant_ties_route_to_first_index(self):
        x = np.ones((1, 4, 4))
        out = maxpool2x2(x)
        np.testing.assert_array_equal(out, np.ones((1, 2, 2)))
        grad = maxpool2x2_backward(np.ones((1, 2, 2)), x, out)
        expected = np.zeros((1, 4, 4))
        expected[0, ::2, ::2] = 1.0
        np.testing.assert_array_equal(grad, expected)

    def test_increasing_ramp_picks_bottom_right(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = maxpool2x2(x)
        np.testing.assert_array_equal(out[0], [[5, 7], [13, 15]])
        grad = maxpool2x2_backward(np.ones((1, 2, 2)), x, out)
        expected = np.zeros((1, 4, 4))
        expected[0, 1::2, 1::2] = 1.0
        np.testing.assert_array_equal(grad, expected)

    def test_matches_exhaustive_blocks(self, rng):
        x = rng.standard_normal((3, 4, 4))
        out = maxpool2x2(x)
        for c in range(3):
            for by in range(2):
                for bx in range(2):
                    block = x[c, 2 * by : 2 * by + 2, 2 * bx : 2 * bx + 2]
                    assert out[c, by, bx] == block.max()

    def test_odd_extent_replication(self, rng):
        x = rng.standard_normal((1, 5, 5))
        out = maxpool2x2(x)
        assert out.shape == (1, 3, 3)
        # bottom-right output comes from the single original corner value
        assert out[0, 2, 2] == x[0, 4, 4]
        grad = maxpool2x2_backward(np.ones((1, 3, 3)), x, out)
        assert grad.shape == (1, 5, 5)
        assert grad.sum() == 9.0  # nothing lost to replicated cells

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "extent", [(8, 8), (7, 8), (8, 7), (5, 5), (1, 1), (1, 4), (2, 3), (48, 48)]
    )
    def test_backward_bytes_equal_put_along_axis_oracle(self, rng, extent, dtype):
        for _ in range(10):
            x = relu(rng.standard_normal((3,) + extent) - 0.5).astype(dtype)
            _assert_pool_bytes_equal_oracle(x, rng)

    def test_backward_finite_difference(self, rng):
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((2, 2, 2))

        def loss(xv):
            return float(np.sum(maxpool2x2(xv) * w))

        grad = maxpool2x2_backward(w, x, maxpool2x2(x))
        assert rel_err(grad, central_diff(loss, x)) < 1e-5

    def test_block_origins_are_cached_read_only_per_shape(self, rng):
        x = rng.standard_normal((3, 8, 6))
        maxpool2x2_backward(np.ones((3, 4, 3)), x, maxpool2x2(x))
        origins = nn._block_origins(3, 8, 6)
        assert origins is nn._block_origins(3, 8, 6)
        assert not origins.flags.writeable
        with pytest.raises(ValueError):
            origins[0, 0, 0] = 1
        assert nn._block_origins.cache_info().maxsize is not None


class TestSimpleOps:
    def test_relu_values(self):
        np.testing.assert_array_equal(
            relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_relu_backward_fd(self, rng):
        x = rng.standard_normal(20) + 0.05  # keep away from the kink at 0
        w = rng.standard_normal(20)
        grad = relu_backward(w, x)
        assert rel_err(grad, central_diff(lambda v: float(np.sum(relu(v) * w)), x)) < 1e-5

    def test_softmax_uniform_on_equal_logits(self):
        _, probs = softmax_cross_entropy(np.zeros(5), 2)
        np.testing.assert_allclose(probs, 0.2, atol=1e-15)

    def test_softmax_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((3, 0)), [0, 0, 0])

    def test_softmax_backward_fd(self, rng):
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])

        def loss(lv):
            return softmax_cross_entropy(lv, labels)[0]

        _, probs = softmax_cross_entropy(logits, labels)
        grad = softmax_cross_entropy_backward(probs, labels)
        assert rel_err(grad, central_diff(loss, logits)) < 1e-5

    def test_fc_fd(self, rng):
        x = rng.standard_normal(6)
        weight = rng.standard_normal((4, 6))
        bias = rng.standard_normal(4)
        w = rng.standard_normal(4)

        def loss_x(v):
            return float(np.dot(fully_connected(v, weight, bias), w))

        def loss_w(wv):
            return float(np.dot(fully_connected(x, wv, bias), w))

        gx, gw, gb = fully_connected_backward(w, x, weight)
        assert rel_err(gx, central_diff(loss_x, x)) < 1e-5
        assert rel_err(gw, central_diff(loss_w, weight)) < 1e-5
        np.testing.assert_allclose(gb, w)


class TestCrossEntropyLabels:
    """A label must be an integer class index in [0, K). numpy would read
    -1 as the last class, truncate 1.7 to 1, and raise IndexError on K."""

    LOGITS = np.array([0.0, 2.0])

    @pytest.mark.parametrize("label", [-1, 1.7, 2], ids=["negative", "fraction", "K"])
    def test_one_row_rejects_the_label(self, label):
        _, probs = softmax_cross_entropy(self.LOGITS, 1)
        with pytest.raises(ValueError, match="label"):
            softmax_cross_entropy(self.LOGITS, label)
        with pytest.raises(ValueError, match="label"):
            softmax_cross_entropy_backward(probs, label)

    @pytest.mark.parametrize("label", [-1, 1.7, 2], ids=["negative", "fraction", "K"])
    def test_a_batch_rejects_the_label(self, label):
        logits = np.stack([self.LOGITS, self.LOGITS[::-1]])
        labels = np.array([0, label])
        _, probs = softmax_cross_entropy(logits, [0, 1])
        for weights in (None, np.array([0.25, 0.75])):
            with pytest.raises(ValueError, match="label"):
                softmax_cross_entropy(logits, labels, weights)
            with pytest.raises(ValueError, match="label"):
                softmax_cross_entropy_backward(probs, labels, weights)

    def test_a_label_count_unlike_the_rows_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((3, 2)), [0, 1])
        with pytest.raises(ShapeError):
            softmax_cross_entropy_backward(np.full((3, 2), 0.5), [0, 1, 1, 0])

    def test_one_row_takes_no_row_weights(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(self.LOGITS, 1, np.ones(1))
        with pytest.raises(ShapeError):
            softmax_cross_entropy_backward(np.full(2, 0.5), 1, np.ones(1))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_row_gives_the_bytes_of_the_one_row_batch(self, rng, dtype):
        """A (K,) row with an int label scores as the (1, K) batch with a
        (1,) label: the same loss bytes and dtype, probabilities and
        gradient, also where a class's probability underflows."""
        rows = [rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3)
                for k in rng.integers(1, 7, size=200)]
        rows += [np.array([0.0, 800.0]), np.array([-0.0, 0.0]), np.array([300.0, -700.0])]
        for row in rows:
            row = row.astype(dtype)
            for label in (0, len(row) - 1, np.int64(len(row) // 2)):
                loss, probs = softmax_cross_entropy(row, label)
                want_loss, want_probs = softmax_cross_entropy(row[None], np.array([label]))
                assert np.asarray(loss).dtype == np.asarray(want_loss).dtype
                assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
                assert probs.tobytes() == want_probs[0].tobytes()
                grad = softmax_cross_entropy_backward(probs, label)
                want_grad = softmax_cross_entropy_backward(want_probs, np.array([label]))
                assert grad.shape == row.shape
                assert grad.tobytes() == want_grad[0].tobytes()


class TestSgd:
    def test_zero_lr_keeps_params(self, rng):
        p = rng.standard_normal(5)
        before = p.copy()
        sgd_step([p], [rng.standard_normal(5)], [np.zeros(5)], 0.0, 0.9)
        np.testing.assert_array_equal(p, before)

    def test_plain_step_decreases_by_grad(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, -0.25])
        sgd_step([p], [g], [np.zeros(2)], 1.0, 0.0)
        np.testing.assert_allclose(p, [0.5, 2.25])

    def test_momentum_matches_hand_recurrence(self):
        # v1 = g1, p1 = p0 - lr*v1; v2 = 0.9*v1 + g2, p2 = p1 - lr*v2
        p = np.array([1.0])
        v = np.array([0.0])
        g1, g2, lr = 0.3, -0.1, 0.5
        sgd_step([p], [np.array([g1])], [v], lr, 0.9)
        sgd_step([p], [np.array([g2])], [v], lr, 0.9)
        v1 = g1
        p1 = 1.0 - lr * v1
        v2 = 0.9 * v1 + g2
        p2 = p1 - lr * v2
        np.testing.assert_allclose(p, [p2])
        np.testing.assert_allclose(v, [v2])

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(FloatingPointError):
            sgd_step([np.zeros(2)], [np.array([np.nan, 0.0])], [np.zeros(2)], 0.1, 0.0)


class TestInitAndLoss:
    def test_uniform_init_bounds_and_seeding(self):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        a = uniform_init(rng1, (50, 20), 20, 50)
        b = uniform_init(rng2, (50, 20), 20, 50)
        np.testing.assert_array_equal(a, b)
        s = np.sqrt(6.0 / 70.0)
        assert np.all(np.abs(a) <= s)
