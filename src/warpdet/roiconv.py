"""ROI-masked convolution and its supporting geometry.

Candidate boxes from the pre-filter are bucketed into scale octaves, each
octave gets a half-sampled pyramid level plus a binary occupancy mask, and
convolution layers gather only the patches whose output centers fall inside
the mask. Each patch is a (C*K*K,) column read from the same strided window
view the dense im2col path copies, and the reshaped filter bank multiplies
the gathered (C*K*K, M) matrix like the dense path. Masked positions agree
with dense convolution to rounding (the tests hold them to 1e-12), not bit
for bit: BLAS may sum a product of fewer columns in another order. Skipped
positions cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import ConvSpec, ShapeError, as_input_dtype, block_taps, conv_windows

# Smallest face the downstream network resolves; octave k covers sizes
# [MIN_FACE * 2^k, 2 * MIN_FACE * 2^k).
MIN_FACE = 36
# Largest mask footprint side: the receptive field of one proposal cell.
DEFAULT_RF_CAP = 85


class RoiMask:
    """Immutable binary occupancy grid over an image plane."""

    def __init__(self, bits: np.ndarray):
        bits = np.ascontiguousarray(np.asarray(bits, dtype=bool))
        if bits.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {bits.shape}")
        bits.flags.writeable = False
        self.bits = bits

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def ones_count(self) -> int:
        return int(self.bits.sum())

    @property
    def sparsity(self) -> float:
        """Fraction of positions marked 1, in [0, 1]."""
        return self.ones_count / self.bits.size

    def __eq__(self, other):
        return isinstance(other, RoiMask) and np.array_equal(self.bits, other.bits)


def group_candidates(candidates) -> list[tuple[int, list]]:
    """Bucket boxes into scale octaves by their larger side.

    Returns (octave k, boxes at original resolution) pairs in octave order.
    Boxes smaller than the detector minimum (36 px) are discarded; every
    retained box lands in exactly one octave and measures within [36, 72)
    after downsampling by 2^-k.
    """
    groups: dict[int, list] = {}
    for box in candidates:
        x, y, w, h = box
        size = max(w, h)
        if size < MIN_FACE:
            continue
        k = int(np.floor(np.log2(size / MIN_FACE)))
        groups.setdefault(k, []).append((x, y, w, h))
    return sorted(groups.items())


def build_mask(scaled_candidates, level_size) -> RoiMask:
    """Union of candidate footprints: each box keeps its center, doubles each
    side (capped at the receptive field), and is clipped to the level bounds."""
    height, width = level_size
    bits = np.zeros((height, width), dtype=bool)
    for x, y, w, h in scaled_candidates:
        cx, cy = x + w / 2.0, y + h / 2.0
        ww = min(2.0 * w, float(DEFAULT_RF_CAP))
        hh = min(2.0 * h, float(DEFAULT_RF_CAP))
        x0 = int(round(cx - ww / 2.0))
        y0 = int(round(cy - hh / 2.0))
        x1 = x0 + int(round(ww))
        y1 = y0 + int(round(hh))
        bits[max(0, y0) : max(0, min(y1, height)), max(0, x0) : max(0, min(x1, width))] = True
    return RoiMask(bits)


def downsample_mask(mask: RoiMask) -> RoiMask:
    """Half-sample a mask: a low-res cell is 1 iff any of its 2x2 block is 1.

    OR-pooling is the only halving rule that never starves a later layer of
    an input the dense stack would have computed.
    """
    bits = mask.bits
    h, w = bits.shape
    padded = np.zeros((h + h % 2, w + w % 2), dtype=bool)
    padded[:h, :w] = bits
    blocks = padded.reshape(padded.shape[0] // 2, 2, padded.shape[1] // 2, 2)
    return RoiMask(blocks.any(axis=(1, 3)))


def roi_im2col(x: np.ndarray, mask: RoiMask, spec: ConvSpec):
    """Gather only the patches whose output centers are marked in the mask.

    Returns (data matrix of shape (C*K*K, M), flat output positions in
    row-major order), M being the mask's ones count: column m is the patch
    of output position positions[m], laid out as the dense im2col column.
    """
    if x.ndim != 3 or x.shape[0] != spec.in_channels:
        raise ShapeError(f"expected ({spec.in_channels}, H, W) input, got {x.shape}")
    out_h, out_w = spec.out_size(x.shape[1], x.shape[2])
    if (mask.height, mask.width) != (out_h, out_w):
        raise ShapeError(
            f"mask is {mask.height}x{mask.width}, convolution output is {out_h}x{out_w}"
        )
    positions = np.flatnonzero(mask.bits)
    oy, ox = np.divmod(positions, out_w)
    cols = conv_windows(x, spec)[..., oy, ox]
    return cols.reshape(spec.in_channels * spec.kernel**2, positions.size), positions


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
    zero."""
    cols, positions = roi_im2col(x, mask, spec)
    fmat = as_input_dtype(filters.reshape(spec.out_channels, -1), x)
    out = np.zeros((spec.out_channels, mask.bits.size),
                   dtype=np.result_type(fmat, cols))
    if positions.size:
        vals = fmat @ cols
        if bias is not None:
            vals += as_input_dtype(bias, x)[:, None]
        out[:, positions] = vals
    return out.reshape(spec.out_channels, mask.height, mask.width)


def roi_conv_macs(mask: RoiMask, spec: ConvSpec) -> int:
    """Multiply-accumulate count of the masked filter product: M*C*K^2*N.
    Gather and scatter overhead is excluded; wall-clock benchmarks carry it."""
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
    top = image[:, y0[:, None], x0[None, :]] * (1 - bx) + image[
        :, y0[:, None], x1[None, :]
    ] * bx
    bot = image[:, y1[:, None], x0[None, :]] * (1 - bx) + image[
        :, y1[:, None], x1[None, :]
    ] * bx
    return top * (1 - by) + bot * by


def downsample_image(image: np.ndarray) -> np.ndarray:
    """Half-sample a CHW image by 2x2 box averaging; odd extents replicate
    their last row/column so the output measures ceil(input / 2).

    Each block sums as ((tl + tr) + (bl + br)) / 4, the order in which
    np.mean over the block axes sums it, so the result matches that mean bit
    for bit. The one exception is an output 1 px wide, where np.mean adds
    the four taps in sequence and the last bits may differ; no detector
    level is that narrow. Integer pixels are averaged in float64, as
    np.mean averages them."""
    if image.dtype.kind != "f":
        image = image.astype(np.float64)
    tl, tr, bl, br = block_taps(image)
    return ((tl + tr) + (bl + br)) / 4


@dataclass
class RoiPyramid:
    """Per-octave (downsampled image, mask) pairs for the masked RPN pass."""

    levels: list  # (octave_index, image CHW, RoiMask)

    @classmethod
    def build(cls, image: np.ndarray, groups) -> "RoiPyramid":
        """One level per (octave, boxes) pair of group_candidates: the image
        half-sampled octave times, and the mask of the boxes scaled by
        2^-octave."""
        if image.ndim != 3:
            raise ValueError(f"expected CHW image, got {image.shape}")
        levels = []
        current = image
        depth = 0
        for octave, boxes in sorted(groups):
            while depth < octave:
                current = downsample_image(current)
                depth += 1
            s = 2.0 ** (-octave)
            scaled = [(x * s, y * s, w * s, h * s) for x, y, w, h in boxes]
            levels.append((octave, current, build_mask(scaled, current.shape[1:])))
        return cls(levels)
