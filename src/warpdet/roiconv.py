"""ROI-masked convolution and its supporting geometry.

The pre-filter's candidate boxes stay one float64 array from the scan to
the masks: group_candidates buckets them into scale octaves, and each
octave gets its level of octave_levels, the one pyramid both detect paths
run, plus a binary occupancy mask. A masked convolution runs the dense
conv's own lowering, under the same im2col/kernel-row byte rule, once per
band: a run of output rows holding a mask bit, over the columns between
its first and last bit. It then writes the band's masked positions, so
every other position stays +0.0. Rows without a bit cost nothing, and a
band computes its whole rectangle. Under a full mask the one band is the
dense conv, bit for bit; otherwise masked positions agree with it to
rounding (the tests hold them to 1e-12), as a smaller product, or another
lowering, may sum in another order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (ConvSpec, ShapeError, _conv_product, _filters_matrix, _padded_input,
                 as_input_dtype, block_taps)

# Smallest face the downstream network resolves; octave k covers sizes
# [MIN_FACE * 2^k, 2 * MIN_FACE * 2^k).
MIN_FACE = 36
# group_candidates' floor. The fern scan's finest level is lw = round(w * 32 /
# 36) >= 32 px wide, so its 32-px window spans 32 * w / lw >= 36 * (1 - 0.5 /
# 32) image px; a side that rounding shrank below MIN_FACE still counts.
MIN_CANDIDATE_SIDE = MIN_FACE * (1 - 0.5 / 32)
# Largest mask footprint side: the receptive field of one proposal cell.
DEFAULT_RF_CAP = 85
# octave_levels' rule: at most MAX_LEVELS octaves, no side under MIN_LEVEL_SIDE px.
MAX_LEVELS = 4
MIN_LEVEL_SIDE = 48


class RoiMask:
    """Immutable copy of a binary occupancy grid over an image plane."""

    def __init__(self, bits: np.ndarray):
        bits = np.array(bits, dtype=bool, order="C")
        if bits.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {bits.shape}")
        bits.flags.writeable = False
        self.bits = bits

    @property
    def ones_count(self) -> int:
        return int(self.bits.sum())

    @property
    def sparsity(self) -> float:
        """Fraction of positions marked 1, in [0, 1]."""
        return self.ones_count / self.bits.size

    def __eq__(self, other):
        return isinstance(other, RoiMask) and np.array_equal(self.bits, other.bits)


def group_candidates(candidates) -> list[tuple[int, np.ndarray]]:
    """Bucket boxes into scale octaves by their larger side, in one pass:
    (octave k, (M, 4) float64 boxes) pairs in octave order, rows in input
    order, from [x, y, w, h, ...] rows such as the pre-filter scan's. Boxes
    under MIN_CANDIDATE_SIDE (35.4375 px, the smallest window side on the
    fern scan's finest level) are discarded; every other box lands in octave
    max(0, floor(log2(side / 36))): within [36, 72) px at scale 2^-k, or in
    octave 0 for a side in [35.4375, 36)."""
    if len(candidates) == 0:
        return []
    boxes = np.asarray(candidates, dtype=np.float64)[:, :4]
    side = boxes[:, 2:].max(axis=1)
    kept = side >= MIN_CANDIDATE_SIDE
    boxes, side = boxes[kept], side[kept]
    octaves = np.maximum(np.floor(np.log2(side / MIN_FACE)), 0.0)
    return [(int(k), boxes[octaves == k]) for k in np.unique(octaves)]


def build_mask(scaled_candidates, level_size) -> RoiMask:
    """Union of candidate footprints: each box keeps its center, doubles each
    side (capped at the receptive field), and is clipped to the level bounds.
    The (M, 4) boxes are placed in one float64 pass, edges rounded half to
    even; with +1 at each footprint's top-left and bottom-right corners and
    -1 at the other two, running sums count the footprints over each pixel."""
    height, width = level_size
    x, y, w, h = np.asarray(scaled_candidates, dtype=np.float64).reshape(-1, 4).T
    ww, hh = np.minimum([2.0 * w, 2.0 * h], float(DEFAULT_RF_CAP))
    x0, y0 = np.round([x + w / 2.0 - ww / 2.0, y + h / 2.0 - hh / 2.0])
    x0, x1 = np.clip([x0, x0 + np.round(ww)], 0, width).astype(np.intp)
    y0, y1 = np.clip([y0, y0 + np.round(hh)], 0, height).astype(np.intp)
    signed = np.zeros((height + 1, width + 1), dtype=np.intp)
    on = (x0 < x1) & (y0 < y1)
    for ys, xs, sign in ((y0, x0, 1), (y1, x1, 1), (y0, x1, -1), (y1, x0, -1)):
        np.add.at(signed, (ys[on], xs[on]), sign)
    cover = signed.cumsum(0).cumsum(1)
    return RoiMask(cover[:height, :width] > 0)


def downsample_mask(mask: RoiMask) -> RoiMask:
    """Half-sample a mask: a low-res cell is 1 iff any of its 2x2 block is 1.

    OR-pooling is the only halving rule that never starves a later layer of
    an input the dense stack would have computed. nn.block_taps replicates
    an odd edge, which under OR gives what zero padding would.
    """
    tl, tr, bl, br = block_taps(mask.bits[None])
    return RoiMask(((tl | tr) | (bl | br))[0])


def roi_conv_forward(
    x: np.ndarray,
    filters: np.ndarray,
    mask: RoiMask,
    spec: ConvSpec,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Convolution evaluated only at masked output positions, in the
    input's floating dtype as conv2d_forward, and in float64 for an integer
    input, as numpy promotes that product; all other positions are exactly
    +0.0. Each run of mask rows is one band through the dense lowering."""
    fmat = as_input_dtype(_filters_matrix(filters, spec), x)
    xp, out_h, out_w = _padded_input(x, spec)
    if mask.bits.shape != (out_h, out_w):
        raise ShapeError(
            f"mask is {mask.bits.shape}, convolution output is {(out_h, out_w)}"
        )
    out = np.zeros((spec.out_channels, out_h, out_w), np.result_type(fmat, xp))
    k, s = spec.kernel, spec.stride
    edges = np.diff(mask.bits.any(axis=1), prepend=False, append=False)
    for y0, y1 in np.flatnonzero(edges).reshape(-1, 2):
        cols = np.flatnonzero(mask.bits[y0:y1].any(axis=0))
        x0, x1 = cols[0], cols[-1] + 1
        slab = np.ascontiguousarray(
            xp[:, s * y0 : s * (y1 - 1) + k, s * x0 : s * (x1 - 1) + k])
        band = _conv_product(slab, fmat, spec, y1 - y0, x1 - x0)
        if bias is not None:
            band += as_input_dtype(bias, x)[:, None]
        np.copyto(out[:, y0:y1, x0:x1], band.reshape(-1, y1 - y0, x1 - x0),
                  where=mask.bits[y0:y1, x0:x1])
    return out


def roi_conv_macs(mask: RoiMask, spec: ConvSpec) -> int:
    """Multiply-accumulate count of the masked positions: M*C*K^2*N, M being
    the mask's ones count. roi_conv_forward computes each band's whole
    rectangle, so it runs at least this many; wall-clock benchmarks carry
    the difference and the slab copies."""
    return mask.ones_count * spec.in_channels * spec.kernel**2 * spec.out_channels


def resize_bilinear(image: np.ndarray, out_size: tuple[int, int]) -> np.ndarray:
    """Resize a CHW image bilinearly with pixel-center alignment and edge
    clamping (used by the pyramid scan, not the gradient path)."""
    c, h, w = image.shape
    out_h, out_w = out_size
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output size must be positive, got {out_size}")
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    by = np.clip(ys - y0, 0.0, 1.0)[:, None]
    bx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    # each input row blends its column taps once, then each output row its
    # two row taps: per pixel the arithmetic of a 2-D gather, bit for bit
    cols = image.take(x0, axis=2) * (1 - bx) + image.take(x1, axis=2) * bx
    return cols.take(y0, axis=1) * (1 - by) + cols.take(y1, axis=1) * by


def downsample_image(image: np.ndarray) -> np.ndarray:
    """Half-sample a CHW image by 2x2 box averaging; odd extents replicate
    their last row/column, so the output measures ceil(input / 2). Blocks
    sum as ((tl + tr) + (bl + br)) / 4, as np.mean does, bit for bit, on
    every output wider than 1 px. Integer pixels average in float64."""
    if image.dtype.kind != "f":
        image = image.astype(np.float64)
    tl, tr, bl, br = block_taps(image)
    return ((tl + tr) + (bl + br)) / 4


def octave_levels(image: np.ndarray):
    """Yield (octave k, image half-sampled k times) under the level rule,
    half-sampling, to ceil(side / 2), only a level asked for that passes."""
    level, side = image, min(image.shape[1:])
    for octave in range(MAX_LEVELS):
        if side < MIN_LEVEL_SIDE:
            return
        if octave:
            level = downsample_image(level)
        yield octave, level
        side = -(-side // 2)


@dataclass
class RoiPyramid:
    """Per-octave (downsampled image, mask) pairs for the masked RPN pass."""

    levels: list  # (octave_index, image CHW, RoiMask)

    @classmethod
    def build(cls, image: np.ndarray, groups) -> "RoiPyramid":
        """One level per (octave, boxes) pair of group_candidates, in octave
        order, whose octave octave_levels yields: that level image, and the
        mask of the boxes scaled by 2^-octave in one multiply."""
        if image.ndim != 3:
            raise ValueError(f"expected CHW image, got {image.shape}")
        levels = []
        pyramid = octave_levels(image)
        for octave, boxes in groups:
            level = next((lv for k, lv in pyramid if k == octave), None)
            if level is None:  # past the last level, as every later group
                break
            levels.append((octave, level, build_mask(boxes * 2.0**-octave, level.shape[1:])))
        return cls(levels)
