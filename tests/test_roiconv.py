"""Tests for masked convolution, octave grouping, mask propagation, and the
receptive-field cap, checked against the dense convolution oracle."""

import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

import conv_oracles
import fern_oracles
import roi_oracles
from conftest import open_cascade
from warpdet import nn, pipeline, roiconv, synthetic
from warpdet.ferns import scan
from warpdet.nn import ConvSpec, ShapeError, conv2d_forward, maxpool2x2
from warpdet.pipeline import (
    CELL_OFFSET,
    CELL_STRIDE,
    TrainConfig,
    build_detector,
    rpn_forward,
)
from warpdet.roiconv import (
    DEFAULT_RF_CAP,
    MAX_LEVELS,
    MIN_FACE,
    MIN_LEVEL_SIDE,
    RoiMask,
    RoiPyramid,
    build_mask,
    downsample_image,
    downsample_mask,
    group_candidates,
    octave_levels,
    roi_conv_forward,
    roi_conv_macs,
)


def random_mask(rng, height, width, density):
    return RoiMask(rng.random((height, width)) < density)


def full_mask(height, width, value=True):
    return RoiMask(np.full((height, width), value))


@dataclass(frozen=True)
class LayerRfSpec:
    """One layer's receptive-field relationship: rf_in = alpha * rf_out + beta."""

    kind: str
    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 0:
            raise ValueError(f"invalid receptive-field relationship: {self}")

    @classmethod
    def from_kernel_stride(cls, kind: str, kernel: int, stride: int) -> "LayerRfSpec":
        return cls(kind, alpha=stride, beta=kernel - stride)


def receptive_field(layers: list[LayerRfSpec]) -> list[int]:
    """Per-layer receptive-field sizes, composed back to front from a single
    output unit; entry i is the extent in layer i's input space."""
    if not layers:
        raise ValueError("layer list must be non-empty")
    sizes = []
    rf = 1
    for layer in reversed(layers):
        rf = layer.alpha * rf + layer.beta
        sizes.append(rf)
    return sizes[::-1]


def pyramid_overhead(levels: int) -> float:
    """Extra pixel cost of half-sampled pyramid levels beyond the base level:
    sum of 4^-k for k = 1..levels-1, approaching 1/3."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    return sum(4.0**-k for k in range(1, levels))


def boxes(rows):
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)


def assert_same_groups(got, want):
    """Array groups equal the per-box oracle's, octave for octave, byte for
    byte."""
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.dtype == np.float64 and a.shape == (len(b), 4)
        assert a.tobytes() == boxes(b).tobytes()


def assert_same_levels(got, want):
    assert [k for k, _, _ in got] == [k for k, _, _ in want]
    for (_, image, mask), (_, oracle_image, oracle_bits) in zip(got, want):
        assert image.dtype == oracle_image.dtype and image.shape == oracle_image.shape
        assert image.tobytes() == oracle_image.tobytes()
        assert mask.bits.shape == oracle_bits.shape
        assert mask.bits.tobytes() == oracle_bits.tobytes()


class TestGrouping:
    def test_octave_assignment(self):
        groups = group_candidates(boxes([(10, 10, 50, 50), (30, 30, 100, 100), (5, 5, 20, 20)]))
        assert [k for k, _ in groups] == [0, 1]
        assert groups[0][1].tolist() == [[10, 10, 50, 50], [5, 5, 20, 20]]
        assert groups[1][1].tolist() == [[30, 30, 100, 100]]

    def test_scan_rows_keep_their_box_columns_in_input_order(self):
        rows = np.array([[1, 2, 40, 40, 0.5], [3, 4, 90, 90, -1.0], [5, 6, 50, 50, 2.0]])
        groups = group_candidates(rows)
        assert [k for k, _ in groups] == [0, 1]
        assert groups[0][1].tolist() == [[1, 2, 40, 40], [5, 6, 50, 50]]
        assert groups[1][1].tolist() == [[3, 4, 90, 90]]

    def test_a_side_rounded_just_under_36_joins_octave_0(self):
        rows = boxes([(0, 0, 35.96, 35.96), (1, 2, 35.4375, 30), (0, 0, 35.43, 35.43)])
        groups = group_candidates(rows)
        assert [k for k, _ in groups] == [0]
        assert groups[0][1].tolist() == rows.tolist()

    def test_every_window_of_the_finest_scan_level_joins_octave_0(self):
        """The finest level is round(n * 32 / 36) px wide, so its windows
        span 32 * n / lw image px: 35.96 px at n = 100 and 200. On every
        n x n image from 48 to 400 px, they all join octave 0."""
        cascade = open_cascade(np.random.default_rng(1), n_ferns=1)
        for n in range(48, 401):
            rows = scan(np.zeros((n, n)), cascade)
            finest = rows[rows[:, 2] == rows[0, 2]]
            if n in (100, 200):
                assert finest[0, 2] < MIN_FACE
            groups = group_candidates(finest)
            assert [k for k, _ in groups] == [0] and len(groups[0][1]) == len(finest)

    def test_totality_every_box_in_exactly_one_octave(self, rng):
        sizes = rng.uniform(36, 400, size=200)
        groups = group_candidates(np.column_stack([np.zeros((200, 2)), sizes, sizes]))
        assert sum(len(members) for _, members in groups) == len(sizes)
        for octave, members in groups:
            side = np.maximum(members[:, 2], members[:, 3]) * 2.0**-octave
            assert (side >= 36.0).all() and (side < 72.0 + 1e-9).all()

    def test_empty_input(self):
        assert group_candidates(np.empty((0, 5))) == []
        assert group_candidates([]) == []

    @pytest.mark.parametrize("row", [
        (5.0, 5.0, 0.0, 0.0), (5.0, 5.0, -4.0, -2.0), (np.nan, 5.0, 40.0, 40.0),
        (5.0, -np.inf, 40.0, 40.0), (5.0, 5.0, np.inf, 40.0), (5.0, 5.0, 40.0, np.nan),
    ], ids=["zero side", "negative side", "nan origin", "inf origin", "inf width",
            "nan height"])
    def test_a_box_it_cannot_place_is_rejected_without_a_warning(self, row):
        """A zero side used to warn in log2, a NaN origin to give an octave-0
        level with an empty mask, and an infinite width to end in an
        OverflowError from int(); each now raises ValueError, as does any
        row whose x, y, w or h is not finite or whose side is not positive."""
        rows = np.array([[10.0, 10.0, 50.0, 50.0, 1.0], [*row, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite x, y, w, h and a positive side"):
                group_candidates(rows)


class TestArrayCandidatesMatchPerBoxOracles:
    """group_candidates, build_mask and RoiPyramid.build against the per-box
    forms in tests/roi_oracles.py, byte for byte."""

    @pytest.mark.parametrize("size", [96, 160, 320])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_open_cascade_survivors(self, size, dtype):
        image = synthetic.generate_synthetic_corpus(
            11, 1, synthetic.CorpusParams(image_size=size)
        )[0].image
        raw = scan(image[0], open_cascade(np.random.default_rng(size)))
        assert len(raw) > 0
        groups = group_candidates(raw)
        oracle_groups = roi_oracles.group_candidates(raw[:, :4].tolist())
        assert_same_groups(groups, oracle_groups)
        work = image.astype(dtype)
        levels = RoiPyramid.build(work, groups).levels
        assert levels
        assert_same_levels(levels, roi_oracles.pyramid_levels(work, oracle_groups))

    def test_boxes_partly_or_wholly_off_the_level(self, rng):
        xy = rng.uniform(-150, 200, size=(400, 2))
        wh = rng.uniform(0.5, 120, size=(400, 2))
        rows = np.column_stack([xy, wh])
        outside = ((xy + 2 * wh < 0) | (xy - wh > [80, 64])).any(axis=1)
        assert outside.sum() >= 20 and (~outside).sum() >= 20
        for chunk in np.array_split(rows, 40):
            got = build_mask(chunk, (64, 80)).bits
            want = roi_oracles.build_mask(chunk.tolist(), (64, 80))
            assert got.tobytes() == want.tobytes()
        for row in rows[outside][:10]:
            assert not build_mask(row[None], (64, 80)).bits.any()

    def test_boxes_with_a_zero_or_negative_side_draw_nothing(self):
        rows = boxes([(10, 10, 0, 30), (10, 10, -20, 30), (20, 5, 30, -40), (5, 5, 20, 20)])
        got = build_mask(rows, (64, 80)).bits
        assert got.tobytes() == roi_oracles.build_mask(rows.tolist(), (64, 80)).tobytes()
        assert got.tobytes() == build_mask(rows[3:], (64, 80)).bits.tobytes()

    def test_sides_at_and_above_the_receptive_field_cap(self):
        half = DEFAULT_RF_CAP / 2.0
        sides = [42.0, np.nextafter(half, 0), half, np.nextafter(half, np.inf), 43.0,
                 60.0, 200.0]
        for w in sides:
            for h in sides:
                rows = [(30.25, 20.5, w, h), (-10.0, 70.0, h, w)]
                got = build_mask(boxes(rows), (120, 140)).bits
                assert got.tobytes() == roi_oracles.build_mask(rows, (120, 140)).tobytes()

    def test_footprint_edges_on_half_pixel_ties(self, rng):
        rows = np.column_stack([
            rng.integers(-40, 240, size=(300, 2)) / 4.0,
            rng.integers(1, 100, size=(300, 2)) / 2.0,
        ])
        x, _, w, _ = rows.T
        edge = x + w / 2.0 - np.minimum(2.0 * w, DEFAULT_RF_CAP) / 2.0
        assert (edge % 1.0 == 0.5).sum() >= 50
        for chunk in np.array_split(rows, 30):
            got = build_mask(chunk, (50, 60)).bits
            assert got.tobytes() == roi_oracles.build_mask(chunk.tolist(), (50, 60)).tobytes()

    def test_sides_at_octave_bounds_and_one_ulp_below(self):
        rows = []
        for k in range(7):
            side = MIN_FACE * 2.0**k
            for s in (side, np.nextafter(side, 0)):
                rows += [(k, 2 * k, s, s), (k, 0.0, s, 1.0), (0.0, k, 20.0, s)]
        rows = np.array(rows)
        groups = group_candidates(rows)
        assert_same_groups(groups, roi_oracles.group_candidates(rows.tolist()))
        assert [k for k, _ in groups] == list(range(7))
        for k, members in groups:
            assert MIN_FACE * 2.0**k in np.maximum(members[:, 2], members[:, 3])

    def test_empty_input(self):
        assert group_candidates(np.empty((0, 5))) == roi_oracles.group_candidates([]) == []
        got = build_mask(np.empty((0, 4)), (5, 7)).bits
        assert got.tobytes() == roi_oracles.build_mask([], (5, 7)).tobytes()
        assert RoiPyramid.build(np.zeros((1, 64, 64)), []).levels == []


class TestBuildMask:
    def test_side_doubling(self):
        mask = build_mask([(80, 80, 40, 40)], (200, 200))
        ys, xs = np.nonzero(mask.bits)
        assert mask.ones_count == 80 * 80
        assert ys.min() == 60 and ys.max() == 139
        assert xs.min() == 60 and xs.max() == 139

    def test_receptive_field_cap(self):
        mask = build_mask([(70, 70, 60, 60)], (200, 200))
        ys, xs = np.nonzero(mask.bits)
        assert ys.max() - ys.min() + 1 == 85
        assert xs.max() - xs.min() + 1 == 85
        assert mask.ones_count == 85 * 85

    def test_no_candidates(self):
        mask = build_mask([], (64, 48))
        assert mask.sparsity == 0.0
        assert mask.bits.shape == (64, 48)

    def test_clipping_at_borders(self):
        mask = build_mask([(0, 0, 40, 40)], (100, 100))
        assert mask.bits[0, 0]
        assert mask.ones_count == 60 * 60  # doubled box clipped at the origin


class TestRoiMask:
    def test_copies_the_callers_array(self):
        bits = np.zeros((4, 4), dtype=bool)
        mask = RoiMask(bits)
        bits[0, 0] = True
        assert not mask.bits[0, 0]
        assert not mask.bits.flags.writeable

    def test_fortran_ordered_bits_are_held_c_contiguous(self):
        bits = np.asfortranarray(np.eye(3, 5, dtype=bool))
        mask = RoiMask(bits)
        assert mask.bits.flags.c_contiguous
        assert np.array_equal(mask.bits, bits)


class TestDownsampleMask:
    def test_all_ones(self):
        assert downsample_mask(full_mask(8, 8)) == full_mask(4, 4)

    def test_single_one_index_halves(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[5, 7] = True
        half = downsample_mask(RoiMask(bits))
        assert half.ones_count == 1
        assert half.bits[2, 3]

    def test_checkerboard_fills(self):
        ys, xs = np.mgrid[0:8, 0:8]
        half = downsample_mask(RoiMask((ys + xs) % 2 == 0))
        assert half == full_mask(4, 4)

    def test_exhaustive_small_grids(self, rng):
        for _ in range(20):
            bits = rng.random((5, 6)) < 0.4
            half = downsample_mask(RoiMask(bits))
            assert half.bits.shape == (3, 3)
            for by in range(3):
                for bx in range(3):
                    block = bits[2 * by : 2 * by + 2, 2 * bx : 2 * bx + 2]
                    assert half.bits[by, bx] == block.any()


def assert_positive_zero_outside(out, mask):
    """Every position outside the mask holds +0.0 in every channel."""
    outside = out[:, ~mask.bits]
    assert not outside.any() and not np.signbit(outside).any()


class TestRoiConvForward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (7, 2, 3)])
    def test_all_ones_is_the_dense_conv_bit_for_bit(self, rng, kernel, stride,
                                                    padding, dtype):
        """Under a full mask the one band is the whole input, run through
        the dense conv's lowering: the same bytes, bias included."""
        x = rng.standard_normal((3, 10, 11)).astype(dtype)
        f = rng.standard_normal((5, 3, kernel, kernel)).astype(dtype)
        b = rng.standard_normal(5).astype(dtype)
        spec = ConvSpec(3, 5, kernel=kernel, stride=stride, padding=padding)
        out = roi_conv_forward(x, f, full_mask(*spec.out_size(10, 11)), spec, bias=b)
        dense = conv2d_forward(x, f, spec, bias=b)
        assert out.dtype == dense.dtype == dtype
        assert out.tobytes() == dense.tobytes()

    def test_extent_mismatch_rejected(self, rng):
        x = rng.standard_normal((1, 8, 8))
        with pytest.raises(ShapeError):
            roi_conv_forward(x, rng.standard_normal((1, 1, 3, 3)), full_mask(8, 8),
                             ConvSpec(1, 1, kernel=3))

    @pytest.mark.parametrize("shape", [(2, 3, 3, 3), (3, 3, 3, 2), (3, 2, 9)])
    def test_filters_of_another_shape_raise_shape_error(self, rng, shape):
        """Filters of the right size but the wrong shape are rejected, as
        conv2d_forward rejects them, not reshaped into a filter bank."""
        spec = ConvSpec(2, 3, kernel=3, padding=1)
        x = rng.standard_normal((2, 8, 8))
        f = rng.standard_normal(shape)
        with pytest.raises(ShapeError, match="filters"):
            conv2d_forward(x, f, spec)
        with pytest.raises(ShapeError, match="filters"):
            roi_conv_forward(x, f, full_mask(8, 8), spec)

    def test_zero_mask_zero_output_zero_macs(self, rng):
        x = rng.standard_normal((2, 8, 8))
        f = rng.standard_normal((3, 2, 3, 3))
        spec = ConvSpec(2, 3, kernel=3, padding=1)
        mask = full_mask(8, 8, False)
        assert not roi_conv_forward(x, f, mask, spec).any()
        assert roi_conv_macs(mask, spec) == 0

    @pytest.mark.parametrize("density", [0.05, 0.3, 0.7, 1.0])
    def test_masked_positions_match_dense(self, rng, density):
        x = rng.standard_normal((4, 12, 12))
        f = rng.standard_normal((6, 4, 3, 3))
        spec = ConvSpec(4, 6, kernel=3, padding=1)
        mask = random_mask(rng, 12, 12, density)
        out = roi_conv_forward(x, f, mask, spec)
        dense = conv2d_forward(x, f, spec)
        assert np.max(np.abs((out - dense)[:, mask.bits])) < 1e-12
        assert_positive_zero_outside(out, mask)
        assert roi_conv_macs(mask, spec) == mask.ones_count * 4 * 9 * 6

    def test_single_precision(self, rng):
        x = rng.standard_normal((2, 8, 8)).astype(np.float32)
        f = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        spec = ConvSpec(2, 3, kernel=3, padding=1)
        mask = random_mask(rng, 8, 8, 0.5)
        out = roi_conv_forward(x, f, mask, spec)
        dense = conv2d_forward(x, f, spec)
        assert out.dtype == np.float32
        assert np.max(np.abs((out - dense)[:, mask.bits])) < 1e-5
        assert_positive_zero_outside(out, mask)

    @pytest.mark.parametrize("density", [0.4, 1.0])
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (7, 2, 3)])
    def test_float32_input_on_float64_parameters_runs_float32(
        self, rng, kernel, stride, padding, density
    ):
        """The masked conv computes in its input's dtype, as the dense one:
        it gives the bytes of the same call on the parameters cast to
        float32, and the dense oracle's float32 values to rounding (the
        oracle's gathered matrix is laid out otherwise than the lowering's,
        so BLAS may sum in another order even under a full mask)."""
        x = rng.standard_normal((2, 13, 11)).astype(np.float32)
        f = rng.standard_normal((3, 2, kernel, kernel))
        b = rng.standard_normal(3)
        spec = ConvSpec(2, 3, kernel=kernel, stride=stride, padding=padding)
        f32, b32 = f.astype(np.float32), b.astype(np.float32)
        mask = random_mask(rng, *spec.out_size(13, 11), density)
        out = roi_conv_forward(x, f, mask, spec, bias=b)
        want = roi_conv_forward(x, f32, mask, spec, bias=b32)
        assert out.dtype == np.float32 and out.tobytes() == want.tobytes()
        dense = conv_oracles.conv2d_forward(x, f32, spec, bias=b32)
        assert dense.dtype == np.float32
        assert np.max(np.abs((out - dense)[:, mask.bits])) < 1e-5 * np.abs(dense).max()
        assert_positive_zero_outside(out, mask)

    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_integer_input_is_promoted_to_float64_as_the_dense_conv(self, rng, density):
        """An integer map is not truncated into its own dtype: the masked
        output is the float64 dense output at masked positions."""
        x = rng.integers(0, 256, size=(1, 8, 8)).astype(np.uint8)
        f = rng.standard_normal((2, 1, 3, 3))
        b = rng.standard_normal(2)
        spec = ConvSpec(1, 2, kernel=3, padding=1)
        mask = random_mask(rng, 8, 8, density)
        out = roi_conv_forward(x, f, mask, spec, bias=b)
        dense = conv2d_forward(x, f, spec, bias=b)
        assert out.dtype == dense.dtype == np.float64
        np.testing.assert_allclose(out[:, mask.bits], dense[:, mask.bits], rtol=1e-12)
        assert_positive_zero_outside(out, mask)

    @pytest.mark.parametrize("shape", [(8, 8), (1, 1, 8, 8)])
    def test_input_that_is_not_chw_raises_shape_error(self, rng, shape):
        spec = ConvSpec(1, 2, kernel=3, padding=1)
        with pytest.raises(ShapeError, match="input"):
            roi_conv_forward(rng.standard_normal(shape),
                             rng.standard_normal((2, 1, 3, 3)), full_mask(8, 8), spec)

    @pytest.mark.parametrize("kernel,stride,padding", [(1, 1, 0), (3, 1, 1), (7, 2, 3)])
    def test_dense_and_masked_outputs_are_c_contiguous_chw(
        self, rng, kernel, stride, padding
    ):
        # relu and max-pool read conv outputs without a copy only when the
        # GEMM itself writes them in CHW order.
        x = rng.standard_normal((2, 13, 11))
        f = rng.standard_normal((3, 2, kernel, kernel))
        spec = ConvSpec(2, 3, kernel=kernel, stride=stride, padding=padding)
        oh, ow = spec.out_size(13, 11)
        dense = conv2d_forward(x, f, spec, bias=rng.standard_normal(3))
        masked = roi_conv_forward(
            x, f, random_mask(rng, oh, ow, 0.5), spec, bias=rng.standard_normal(3)
        )
        for out in (dense, masked):
            assert out.shape == (3, oh, ow)
            assert out.flags.c_contiguous

    @pytest.mark.parametrize("pattern", [
        "random", "runs split by empty rows", "border frame", "corners",
        "last row", "last column", "one bit",
    ])
    def test_stride_two_mask_extents(self, rng, pattern):
        """rpn.conv1's geometry (K 7, stride 2, padding 3) on a 17x16 input:
        masks of several row runs, and masks whose bands reach the padded
        border on every side."""
        x = rng.standard_normal((2, 17, 16))
        f = rng.standard_normal((3, 2, 7, 7))
        b = rng.standard_normal(3)
        spec = ConvSpec(2, 3, kernel=7, stride=2, padding=3)
        oh, ow = spec.out_size(17, 16)
        bits = np.zeros((oh, ow), dtype=bool)
        if pattern == "random":
            bits = rng.random((oh, ow)) < 0.5
        elif pattern == "runs split by empty rows":
            bits[0, 3] = bits[2:4, 1:3] = bits[4:6, 6] = bits[8, :] = True
        elif pattern == "border frame":
            bits[[0, -1], :] = bits[:, [0, -1]] = True
        elif pattern == "corners":
            bits[0, 0] = bits[0, -1] = bits[-1, 0] = bits[-1, -1] = True
        elif pattern == "last row":
            bits[-1] = True
        elif pattern == "last column":
            bits[:, -1] = True
        else:
            bits[4, 5] = True
        mask = RoiMask(bits)
        out = roi_conv_forward(x, f, mask, spec, bias=b)
        dense = conv2d_forward(x, f, spec, bias=b)
        assert np.max(np.abs((out - dense)[:, mask.bits])) < 1e-12
        assert_positive_zero_outside(out, mask)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_band_over_the_byte_budget_runs_the_kernel_row_lowering(
        self, rng, monkeypatch, dtype
    ):
        """The byte rule picks each band's lowering: a small band's patch
        matrix fits IM2COL_BUDGET_BYTES and is one block, a large band's
        does not and comes as one block per kernel row. Both match the
        dense conv to 1e-12 in float64 and to float32 rounding in float32."""
        x = rng.standard_normal((4, 96, 96)).astype(dtype)
        f = rng.standard_normal((3, 4, 7, 7)).astype(dtype)
        spec = ConvSpec(4, 3, kernel=7, stride=2, padding=3)
        bits = np.zeros(spec.out_size(96, 96), dtype=bool)
        bits[1:3, 5:9] = True  # a 2x4 band: kilobytes of patches, im2col
        bits[6:45, 2:47] = rng.random((39, 45)) < 0.7
        bits[6:45, [2, 46]] = True  # a 39x45 band: 1.4 MB or more, kernel rows
        assert 4 * 49 * 39 * 45 * x.itemsize > nn.IM2COL_BUDGET_BYTES
        lowered = []
        real = nn._patch_blocks

        def recorded(*args):
            blocks = real(*args)
            lowered.append([block.shape for block in blocks])
            return blocks

        monkeypatch.setattr(nn, "_patch_blocks", recorded)
        mask = RoiMask(bits)
        out = roi_conv_forward(x, f, mask, spec)
        assert lowered == [[(4 * 49, 2 * 4)], [(4 * 7, 39 * 45)] * 7]
        dense = conv2d_forward(x, f, spec)
        tol = 1e-12 if dtype == np.float64 else 1e-5 * np.abs(dense).max()
        assert out.dtype == dtype
        assert np.max(np.abs((out - dense)[:, mask.bits])) < tol
        assert_positive_zero_outside(out, mask)


class TestMaskPropagationSoundness:
    """conv -> pool -> conv with OR-propagated masks reproduces the dense
    stack exactly at every final position whose receptive field lies inside
    the input mask; everything outside the final mask is exactly zero."""

    @staticmethod
    def _rf_cover(qy, qx, h, w):
        # back-project a final position through conv3x3 -> pool2x2 -> conv3x3
        y0, y1 = 2 * (qy - 1) - 1, 2 * (qy + 1) + 1 + 1
        x0, x1 = 2 * (qx - 1) - 1, 2 * (qx + 1) + 1 + 1
        return max(0, y0), min(h - 1, y1), max(0, x0), min(w - 1, x1)

    def test_stack_equivalence_at_covered_positions(self, rng):
        h = w = 48
        x = rng.standard_normal((2, h, w))
        f1 = rng.standard_normal((3, 2, 3, 3))
        f2 = rng.standard_normal((4, 3, 3, 3))
        s1 = ConvSpec(2, 3, kernel=3, padding=1)
        s2 = ConvSpec(3, 4, kernel=3, padding=1)

        m0 = build_mask([(12, 10, 16, 18)], (h, w))
        m1 = downsample_mask(m0)

        r1 = roi_conv_forward(x, f1, m0, s1)
        r1p = maxpool2x2(r1) * m1.bits
        r2 = roi_conv_forward(r1p, f2, m1, s2)

        d2 = conv2d_forward(maxpool2x2(conv2d_forward(x, f1, s1)), f2, s2)

        covered = 0
        for qy, qx in zip(*np.nonzero(m1.bits)):
            y0, y1, x0, x1 = self._rf_cover(qy, qx, h, w)
            if m0.bits[y0 : y1 + 1, x0 : x1 + 1].all():
                covered += 1
                np.testing.assert_allclose(
                    r2[:, qy, qx], d2[:, qy, qx], atol=1e-12
                )
        assert covered >= 0.25 * m1.ones_count  # coverage is the common case
        assert not r2[:, ~m1.bits].any()

    def test_rpn_forward_matches_dense_where_the_mask_covers_the_receptive_field(
        self, rng
    ):
        """The masked proposal trunk and heads: every head cell whose 85-px
        receptive field (clipped to the image) lies inside the input mask
        matches the dense pass, and both head maps are zero outside the head
        mask. The odd extents exercise pooling's round-up."""
        h, w = 100, 92
        rpn = build_detector(TrainConfig()).rpn
        image = rng.standard_normal((1, h, w))
        mask = build_mask([(10, 12, 40, 40), (62, 58, 24, 30)], (h, w))
        dense = rpn_forward(rpn, image)
        roi = rpn_forward(rpn, image, mask)
        assert roi.score.shape == dense.score.shape

        half = DEFAULT_RF_CAP // 2
        covered = 0
        for qy, qx in np.ndindex(roi.score.shape[1:]):
            cy, cx = CELL_OFFSET + CELL_STRIDE * qy, CELL_OFFSET + CELL_STRIDE * qx
            y0, y1 = int(max(0, cy - half)), int(min(h, cy + half + 1))
            x0, x1 = int(max(0, cx - half)), int(min(w, cx + half + 1))
            if mask.bits[y0:y1, x0:x1].all():
                covered += 1
                for a, b in ((roi.score, dense.score), (roi.point, dense.point)):
                    np.testing.assert_allclose(a[:, qy, qx], b[:, qy, qx],
                                               rtol=0, atol=1e-12)
        assert covered >= 8
        outside = ~roi.head_mask.bits
        assert outside.any()
        assert not roi.score[:, outside].any()
        assert not roi.point[:, outside].any()

    def test_masked_pooled_maps_are_zero_outside_the_halved_mask(self, rng):
        """Every pooled map of a masked proposal pass is exactly zero outside
        the input mask halved down to that map: the masked conv writes zeros
        there, and a cell outside the OR-halved mask pools only those zeros."""
        h, w = 100, 92
        rpn = build_detector(TrainConfig()).rpn
        image = rng.standard_normal((1, h, w))
        mask = build_mask([(10, 12, 40, 40), (62, 58, 24, 30)], (h, w))
        state = rpn_forward(rpn, image, mask)
        pooled_maps = 0
        for (layer, pooled), (_, _, p) in zip(rpn.trunk(), state.trunk):
            if layer.spec.stride == 2:
                mask = downsample_mask(mask)
            if pooled:
                mask = downsample_mask(mask)
                outside = ~mask.bits
                assert p.shape[1:] == outside.shape
                assert outside.any() and p[:, ~outside].any()
                assert not p[:, outside].any()
                pooled_maps += 1
        assert pooled_maps >= 1

    def test_or_keeps_what_subsampling_starves(self):
        bits = np.zeros((10, 10), dtype=bool)
        bits[5, 7] = True
        or_half = downsample_mask(RoiMask(bits))
        naive = bits[::2, ::2]
        assert or_half.ones_count == 1
        assert naive.sum() == 0  # a needed position silently dropped


class TestReceptiveField:
    def test_reference_stack(self):
        layers = [
            LayerRfSpec.from_kernel_stride("conv", 7, 2),
            LayerRfSpec.from_kernel_stride("pool", 2, 2),
            LayerRfSpec.from_kernel_stride("conv", 1, 1),
            LayerRfSpec.from_kernel_stride("conv", 3, 1),
            LayerRfSpec.from_kernel_stride("pool", 2, 2),
            LayerRfSpec("inception", 1, 4),
            LayerRfSpec("inception", 1, 4),
        ]
        assert receptive_field(layers) == [85, 40, 20, 20, 18, 9, 5]

    def test_single_layers(self):
        assert receptive_field([LayerRfSpec.from_kernel_stride("conv", 1, 1)]) == [1]
        assert receptive_field([LayerRfSpec.from_kernel_stride("conv", 3, 1)]) == [3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            receptive_field([])

    def test_rpn_receptive_field_is_the_mask_cap(self):
        # rpn_forward runs the trunk's blocks, then the 1x1 heads; the
        # hand-written mask cap must equal the receptive field they span.
        rpn = build_detector(TrainConfig()).rpn
        pool = LayerRfSpec.from_kernel_stride("pool", 2, 2)

        def conv(layer):
            return LayerRfSpec.from_kernel_stride(
                "conv", layer.spec.kernel, layer.spec.stride
            )

        layers = []
        for layer, pooled in rpn.trunk():
            layers += [conv(layer), pool] if pooled else [conv(layer)]
        layers.append(conv(rpn.score_head))
        assert rpn.point_head.spec.kernel == rpn.score_head.spec.kernel == 1
        assert receptive_field(layers)[0] == DEFAULT_RF_CAP == 85

    def test_cell_stride_is_the_rpn_trunk_stride(self):
        rpn = build_detector(TrainConfig()).rpn
        stride = 1
        for layer, pooled in rpn.trunk():
            stride *= layer.spec.stride * (2 if pooled else 1)
        assert stride == CELL_STRIDE == 8


class TestPyramidOverhead:
    def test_single_level_is_free(self):
        assert pyramid_overhead(1) == 0.0

    def test_four_levels(self):
        assert pyramid_overhead(4) == pytest.approx(0.328125, abs=1e-12)

    def test_limit_one_third(self):
        assert pyramid_overhead(5) == pytest.approx(1 / 3, abs=0.01)
        assert pyramid_overhead(30) == pytest.approx(1 / 3, abs=1e-9)

    def test_monotone_below_limit(self):
        vals = [pyramid_overhead(k) for k in range(1, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < 1 / 3 for v in vals)


class TestPyramid:
    def test_level_extents_and_budget(self, rng):
        # the dense pyramid of a 200 x 190 image has three octaves, the
        # third 50 x 48
        img = rng.random((1, 200, 190))
        rows = boxes([(5, 5, 40, 40), (10, 10, 80, 80), (0, 0, 45, 160)])
        pyramid = RoiPyramid.build(img, group_candidates(rows))
        octaves = [k for k, _, _ in pyramid.levels]
        assert octaves == [0, 1, 2]
        assert octaves == [k for k, _, _ in pipeline._dense_levels(img)]
        for k, level_img, mask in pyramid.levels:
            eh = int(np.ceil(200 / 2**k))
            ew = int(np.ceil(190 / 2**k))
            assert level_img.shape == (1, eh, ew)
            assert mask.bits.shape == (eh, ew)
        total_pixels = sum(img.shape[1] * img.shape[2] for _, img, _ in pyramid.levels)
        assert total_pixels <= (1 + 1 / 3 + 0.05) * 200 * 190

    def test_roi_octaves_are_dense_octaves(self):
        """Under the one level rule, an open cascade's survivors on a 159-px
        image, the largest 144 px or more (octave 2, a 40 x 40 level), run
        only octaves the dense path runs, on the dense path's level images.
        (At 160 px the coarsest window spans 32 * 160 / 36 = 142.2 px.)"""
        image = synthetic.generate_synthetic_corpus(
            11, 1, synthetic.CorpusParams(image_size=159)
        )[0].image
        model = SimpleNamespace(cascade=open_cascade(np.random.default_rng(0)))
        work = image.astype(pipeline.INFERENCE_DTYPE)
        grouped = [k for k, _ in group_candidates(scan(image[0], model.cascade))]
        assert max(grouped) >= 2
        dense = {k: level for k, level, _ in pipeline._dense_levels(work)}
        roi = pipeline._roi_levels(image, work, model)
        assert roi and all(k in dense for k, _, _ in roi)
        for k, level, _ in roi:
            assert level.tobytes() == dense[k].tobytes()

    def test_levels_stop_at_max_levels(self):
        img = np.zeros((1, 48 * 2**MAX_LEVELS, 48 * 2**MAX_LEVELS))
        octaves = [k for k, _ in octave_levels(img)]
        assert octaves == list(range(MAX_LEVELS))
        groups = group_candidates(boxes([(0, 0, MIN_FACE * 2.0**k, 40) for k in range(6)]))
        assert [k for k, _, _ in RoiPyramid.build(img, groups).levels] == octaves

    @pytest.mark.parametrize("height, width, count", [
        (160, 160, 1), (160, 200, 1), (95, 95, 1), (96, 400, 1), (48, 48, 0),
        (400, 400, 3)])
    def test_no_level_is_half_sampled_only_to_be_rejected(
            self, monkeypatch, height, width, count):
        """A 160-px image has levels 160 and 80 and half-samples once: its
        40-px level would fall under the floor. The levels are the
        half-samplings of the image up to the first under the floor."""
        calls = []

        def counted(level):
            calls.append(level.shape)
            return downsample_image(level)

        img = np.random.default_rng(3).random((1, height, width)).astype(np.float32)
        monkeypatch.setattr(roiconv, "downsample_image", counted)
        levels = list(octave_levels(img))
        assert len(calls) == count and len(levels) == count + 1
        want = img
        for octave, level in levels:
            if octave:
                want = conv_oracles.downsample_image(want)
            assert level.tobytes() == want.tobytes()
        assert min(conv_oracles.downsample_image(want).shape[1:]) < MIN_LEVEL_SIDE or (
            len(levels) == MAX_LEVELS)

    def test_an_image_under_the_floor_has_no_levels(self):
        img = np.zeros((1, MIN_LEVEL_SIDE - 1, 200))
        assert list(octave_levels(img)) == []
        assert RoiPyramid.build(img, group_candidates(boxes([(0, 0, 40, 40)]))).levels == []

    def test_downsample_image_box_average(self):
        img = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        half = downsample_image(img)
        np.testing.assert_allclose(half[0], [[2.5, 4.5], [10.5, 12.5]])

    def test_downsample_image_odd_replicates(self):
        img = np.ones((1, 5, 5))
        half = downsample_image(img)
        assert half.shape == (1, 3, 3)
        np.testing.assert_allclose(half, 1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "extent", [(160, 160), (96, 96), (8, 6), (7, 8), (8, 7), (5, 5), (13, 4), (2, 3)]
    )
    def test_downsample_image_bytes_equal_mean_oracle(self, rng, extent, dtype):
        """Covers the benchmark's 160 -> 80 px level and odd extents."""
        for channels in (1, 2):
            img = rng.standard_normal((channels,) + extent).astype(dtype)
            got = downsample_image(img)
            want = conv_oracles.downsample_image(img)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("width", [1, 2])
    def test_downsample_image_one_pixel_wide_output_within_rounding(
        self, rng, width, dtype
    ):
        """The documented exception: for a 1-px-wide output np.mean sums the
        four taps in sequence, so the last bits may differ, by no more than
        two orders of rounding a 4-term sum can."""
        img = rng.standard_normal((2, 31, width)).astype(dtype)
        got = downsample_image(img)
        want = conv_oracles.downsample_image(img)
        assert got.dtype == want.dtype and got.shape == want.shape == (2, 16, 1)
        bound = 3 * np.finfo(dtype).eps * conv_oracles.downsample_image(np.abs(img))
        assert (np.abs(got - want) <= bound).all()

    def test_downsample_image_averages_integer_pixels_in_float64(self):
        img = np.full((1, 4, 6), 250, dtype=np.uint8)
        img[0, 0, 0] = 255
        got = downsample_image(img)
        want = conv_oracles.downsample_image(img)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestResizeBilinearMatchesGatherOracle:
    """resize_bilinear blends every input row across its column taps, then
    takes and blends two rows per output row; the oracle gathers each of the
    four taps in 2-D. Every output pixel sums the same products in the same
    order, so the bytes agree."""

    # with each input below: up- and down-sampling, odd and even extents,
    # 1-px rows, columns and images
    OUT_SIZES = [(1, 1), (1, 6), (7, 1), (3, 4), (8, 8), (9, 15), (16, 5), (31, 40), (48, 33)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 7, 9), (2, 8, 8), (1, 16, 5), (3, 31, 40)])
    def test_equal_bytes(self, rng, dtype, shape):
        image = (rng.random(shape) * 255).astype(dtype)
        for out_size in self.OUT_SIZES:
            got = roiconv.resize_bilinear(image, out_size)
            want = fern_oracles.resize_bilinear(image, out_size)
            assert got.dtype == want.dtype
            assert got.shape == want.shape == (shape[0], *out_size)
            assert got.tobytes() == want.tobytes(), out_size

    @pytest.mark.parametrize("out_size", [(0, 4), (4, 0), (-1, 3)])
    def test_empty_output_is_rejected(self, out_size):
        with pytest.raises(ValueError, match="output size must be positive"):
            roiconv.resize_bilinear(np.zeros((1, 4, 4)), out_size)

