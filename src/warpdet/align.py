"""Landmark-driven alignment layer.

A closed-form two-parameter similarity fit maps detected landmarks onto a set
of canonical positions; the inverse map pulls a rectified crop out of the
source image by bilinear sampling. Both the fit and the sampling are
differentiable, so a classification loss on the rectified crop produces
gradients for the transform parameters, the detected landmarks, and the
canonical positions themselves (which makes the canonical layout learnable).

The sampler is the bilinear one of Spatial Transformer Networks (Jaderberg et
al., 2015). warp and warp_backward share one tap gather, which reads a
zero-bordered window of the source over the crop's footprint, so no tap
needs a validity mask. The footprint is an affine image of the rectified
grid, so the grid's four corners bound it. warp computes in its source's
floating dtype, float64 for an integer source, as the nn kernels compute in
their input's: detection's float32 image gives float32 positions, taps,
weights and crop. warp_backward computes in float64 whatever the source's
dtype. It recomputes the sample positions and taps from the transform and
the source, so warp stores nothing for a backward pass that detection never
runs.

The transform is parameterized as

    [xr - mxr]   [ a  b] [x - mx]
    [yr - myr] = [-b  a] [y - my]

where (x, y) are source-image landmark coordinates, (xr, yr) rectified-image
coordinates, and (mx, my) / (mxr, myr) the centroids of the two point sets.
The least-squares solution is a = c1/c3, b = c2/c3 with

    c1 = sum(Xr*X + Yr*Y),  c2 = sum(Xr*Y - Yr*X),  c3 = sum(X^2 + Y^2)

over centered coordinates. A rectified point maps back to the source via

    x = ( a*(xr - mxr) - b*(yr - myr)) / (a^2 + b^2) + mx
    y = ( b*(xr - mxr) + a*(yr - myr)) / (a^2 + b^2) + my

(inverse_offsets). Whether a transform can be warped is decided in one
place, _sample_points, which runs before every warp and warp_backward: it
raises SingularTransformError, and warns of nothing, when a centroid
coordinate or a^2 + b^2 is not finite or exceeds the sampling dtype's
largest value, when a^2 + b^2 underflows to 0 in that dtype, or when it is
so small that warp_backward's derivatives of the map would overflow.

The one fit, fit_similarity, takes one (N, 2) landmark set, for the warp,
or a (..., N, 2) stack, for synthetic.box_from_landmarks. A set fits to
the same bits alone or stacked: its sums are np.vecdot over C-contiguous
rows, equal to np.dot bit for bit (strided views round apart). A canonical
layout is centred once per value: its centroid and centered rows are
cached, read-only, under the layout's bytes, so the many fits of one
detection or one joint step to the same layout share them, and a layout
that training moves in place is centred again.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


CANONICAL_MARGIN = 2  # pixels between a canonical point and the crop border


class SingularTransformError(ValueError):
    """Landmarks are (near-)coincident or not finite, so the fit is
    degenerate, or a transform's inverse map cannot be computed."""


@dataclass(frozen=True)
class SimilarityTransform:
    a: float
    b: float
    m_x: float
    m_y: float
    m_xr: float
    m_yr: float

    @property
    def norm_sq(self) -> float:
        return self.a * self.a + self.b * self.b


@dataclass
class CanonicalShape:
    """Learnable target landmark layout in rectified-image pixel coordinates."""

    points: np.ndarray  # (N, 2) float64

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2 or len(self.points) < 2:
            raise ValueError(f"need at least 2 (x, y) points, got {self.points.shape}")

    def clamp(self, width: int, height: int) -> None:
        """Keep every point at least CANONICAL_MARGIN pixels inside the
        rectified image."""
        m = CANONICAL_MARGIN
        np.clip(self.points[:, 0], m, width - 1 - m, out=self.points[:, 0])
        np.clip(self.points[:, 1], m, height - 1 - m, out=self.points[:, 1])


@dataclass
class TransformGradients:
    """Loss gradients of the warp with respect to the transform's (a, b) and
    its four centroid coordinates; all finite, all zero when the upstream
    gradient is zero. landmark_and_canonical_gradients chains them into the
    landmarks and the canonical points. The source image gets no gradient:
    it is the input, and nothing upstream of it learns."""

    d_a: float
    d_b: float
    d_m_x: float
    d_m_y: float
    d_m_xr: float
    d_m_yr: float


def _center(points: np.ndarray, name: str):
    """Centroid (..., 2) of (..., N, 2) points, their centered coordinates as
    C-contiguous (..., 2, N) rows [X, Y], their squared spread (...), and a
    flag (...), False where the spread is not above 1e-12 * max(1, largest
    squared norm): (near-)coincident or non-finite points. One flagged
    (N, 2) set raises SingularTransformError instead."""
    mean = points.sum(axis=-2) / points.shape[-2]  # np.mean's arithmetic
    rows = np.subtract(points.swapaxes(-1, -2), mean[..., None], order="C")
    squares = np.vecdot(rows, rows)
    spread = squares[..., 0] + squares[..., 1]
    ok = spread > 1e-12 * np.square(points).sum(axis=-1).max(axis=-1, initial=1.0)
    if points.ndim == 2 and not ok:
        kind = "coincident" if np.isfinite(spread) else "non-finite"
        raise SingularTransformError(f"{kind} {name} (squared spread {spread:g})")
    return mean, rows, spread, ok


@lru_cache(maxsize=32)
def _centred_layout(shape: tuple[int, int], data: bytes):
    """Read-only centroid (2,) and centered rows (2, N) of the (N, 2)
    float64 layout whose bytes are data, as _center gives them. Keyed on
    the bytes, so a layout updated in place (by CanonicalShape.clamp or an
    SGD step) is centred again; a singular layout raises on every call, as
    nothing is cached for it."""
    mean, rows, _, _ = _center(np.frombuffer(data).reshape(shape), "canonical points")
    mean.flags.writeable = False
    rows.flags.writeable = False
    return mean, rows


def fit_similarity(landmarks, canonical):
    """Fit one (N, 2) landmark set, or each set of a (..., N, 2) stack, to
    one (N, 2) canonical layout. Returns the centroids (..., 2) and (2,),
    the centered rows (..., 2, N) and (2, N), c1, c2, c3 (...), and a flag
    (...), False where _center flags the landmarks or where c1 = c2 = 0:
    such a set gives a = b = 0, whose inverse map divides by zero. A
    flagged layout raises SingularTransformError; so does one flagged
    landmark set. The layout's centroid and rows are read-only, centred
    once per value of the layout (_centred_layout)."""
    src = np.asarray(landmarks, dtype=np.float64)
    dst = np.asarray(canonical, dtype=np.float64)
    if dst.ndim != 2 or dst.shape[1] != 2 or src.shape[-2:] != dst.shape:
        raise ValueError(f"expected (..., N, 2) and (N, 2) points, "
                         f"got shapes {src.shape} and {dst.shape}")
    if len(dst) < 2:
        raise ValueError("need at least 2 landmark pairs")
    m_r, rows_r = _centred_layout(dst.shape, dst.tobytes())
    m, rows, c3, ok = _center(src, "landmarks")
    straight = np.vecdot(rows, rows_r)        # X.Xr, Y.Yr
    crossed = np.vecdot(rows, rows_r[::-1])  # X.Yr, Y.Xr
    c1 = straight[..., 0] + straight[..., 1]
    c2 = crossed[..., 1] - crossed[..., 0]
    ok = ok & ((c1 != 0) | (c2 != 0))
    if src.ndim == 2 and not ok:
        raise SingularTransformError("landmarks fit the canonical points at zero scale")
    return m, m_r, rows, rows_r, c1, c2, c3, ok


def _fit_one(landmarks, canonical):
    """fit_similarity of one (N, 2) set, with c1, c2, c3 as floats."""
    src = np.asarray(landmarks, dtype=np.float64)
    if src.ndim != 2:
        raise ValueError(f"expected (N, 2) points, got shape {src.shape}")
    m, m_r, rows, rows_r, c1, c2, c3, _ = fit_similarity(src, canonical)
    return m, m_r, rows, rows_r, float(c1), float(c2), float(c3)


def estimate_similarity(landmarks, canonical) -> SimilarityTransform:
    """Closed-form least-squares similarity from (N, 2) landmarks to (N, 2)
    canonical points."""
    (m_x, m_y), (m_xr, m_yr), _, _, c1, c2, c3 = _fit_one(landmarks, canonical)
    return SimilarityTransform(c1 / c3, c2 / c3, m_x, m_y, m_xr, m_yr)


def inverse_offsets(a, b, u, v):
    """Source offsets (x - m_x, y - m_y) of rectified offsets (u, v) =
    (xr - m_xr, yr - m_yr) under the similarity (a, b), all four broadcast."""
    d = a * a + b * b
    x_off = a * u - b * v
    x_off /= d
    y_off = b * u + a * v
    y_off /= d
    return x_off, y_off


def _sample_points(t: SimilarityTransform, out_h: int, out_w: int,
                   dtype: np.dtype = np.dtype(np.float64)):
    """The inverse map of the rectified grid, from a row u and a column v of
    offsets from the canonical centroid, computed in dtype: the transform's
    numbers are cast to it first. Returns (u, v, x - m_x, y - m_y).

    This is the one validity gate of a SimilarityTransform, run before every
    warp and warp_backward. It raises SingularTransformError when a centroid
    coordinate or a^2 + b^2 is not finite or exceeds dtype's largest value
    (float64's, for a wider dtype), when a^2 + b^2, the map's divisor,
    underflows to 0 in dtype, or when the grid's largest |u| + |v| over
    a^2 + b^2 overflows float64. That quotient bounds the derivatives of
    the map in (a, b), which warp_backward computes in float64 whatever the
    dtype, so a scale it would turn into an inf or a NaN gradient is
    rejected by warp too. The range tests compare Python floats, which
    never warn, before any number is cast to dtype; the underflow test runs
    in dtype, where numpy ignores an underflow. (An np.errstate block here
    cost about 1% of a joint step.)"""
    a, b, m_x, m_y, m_xr, m_yr = map(float, (t.a, t.b, t.m_x, t.m_y, t.m_xr, t.m_yr))
    norm_sq = a * a + b * b
    reach = (max(abs(m_xr), abs(out_w - 1 - m_xr))
             + max(abs(m_yr), abs(out_h - 1 - m_yr)))
    top = min(float(np.finfo(dtype).max), sys.float_info.max)
    if (norm_sq <= top and reach <= norm_sq * sys.float_info.max
            and abs(m_x) <= top and abs(m_y) <= top
            and abs(m_xr) <= top and abs(m_yr) <= top):
        cast = dtype.type
        a, b, m_xr, m_yr = cast(a), cast(b), cast(m_xr), cast(m_yr)
        if a * a + b * b > 0:
            u = np.arange(out_w, dtype=dtype) - m_xr
            v = np.arange(out_h, dtype=dtype)[:, None] - m_yr
            return (u, v, *inverse_offsets(a, b, u, v))
    raise SingularTransformError(f"{t} has no inverse map in {dtype.name}")


# Tap coordinates are clipped to the image plus this many pixels on each side.
# A tap pair clipped to -2 or to the far edge reads two border zeros, as the
# unclipped pair reads two pixels outside the image.
TAP_BORDER = 2


def _corner_span(grid: np.ndarray) -> tuple[int, int]:
    """(least, greatest) of a 2-D grid that is monotone along each axis,
    read off its four corners."""
    ends = (grid[0, 0], grid[0, -1], grid[-1, 0], grid[-1, -1])
    return int(min(ends)), int(max(ends))


def _window_taps(source: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Bilinear taps of (H, W) sample points with zero padding: one new
    (C, H, W) array per tap in tl, tr, bl, br order, read in the sample
    points' floating dtype whatever the source's, so an integer source's tap
    differences cannot wrap; then bx and by.

    The taps come from a zero-bordered copy of the source window that
    covers their footprint, clipped to the image plus TAP_BORDER pixels, so
    no tap needs a validity mask and the window is at most (H+4) x (W+4)
    however far the footprint reaches. The points are an affine image of
    the rectified grid, so along each grid axis each coordinate, rounded,
    floored and clipped, is monotone, and the window's bounds are read off
    the grid's four corners (one or two where the grid is a row or a
    column). The flat tap index is formed in intp, exact at any window
    size, as a float32 index is not past 2**24 window pixels."""
    c, h, w = source.shape
    cols = np.floor(xs)
    rows = np.floor(ys)
    bx = xs - cols
    by = ys - rows
    cols = np.minimum(np.maximum(cols, -TAP_BORDER, out=cols), w, out=cols).astype(np.intp)
    rows = np.minimum(np.maximum(rows, -TAP_BORDER, out=rows), h, out=rows).astype(np.intp)
    x0, x1 = _corner_span(cols)
    y0, y1 = _corner_span(rows)
    win_w, win_h = x1 - x0 + 2, y1 - y0 + 2
    window = np.zeros((c, win_h, win_w), dtype=xs.dtype)
    top, left = max(y0, 0), max(x0, 0)
    bottom, right = min(y0 + win_h, h), min(x0 + win_w, w)
    window[:, top - y0 : bottom - y0, left - x0 : right - x0] = (
        source[:, top:bottom, left:right]
    )
    index = rows
    index *= win_w
    index += cols
    index -= y0 * win_w + x0
    flat = window.reshape(c, -1)
    values = [flat[:, offset:].take(index, axis=1)
              for offset in (0, 1, win_w, win_w + 1)]
    return values, bx, by


def warp(source: np.ndarray, t: SimilarityTransform, out_size: tuple[int, int]) -> np.ndarray:
    """Rectify a CHW image: sample the source at the inverse map of every
    rectified grid point, bilinearly, with zero padding outside the image.

    The warp computes in the source's floating dtype, float64 for an
    integer source: the sample positions, the taps, their weights and the
    crop. The weighted taps are summed in place in tl, tr, bl, br order
    from the first weighted tap, not from zero: only a crop pixel whose
    four products are zeros and whose top-left tap reads a -0.0 source
    pixel comes out -0.0 rather than +0.0."""
    if source.ndim != 3:
        raise ValueError(f"expected CHW source, got shape {source.shape}")
    out_h, out_w = out_size
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output size must be positive, got {out_size}")
    dtype = source.dtype if source.dtype.kind == "f" else np.dtype(np.float64)
    _, _, xs, ys = _sample_points(t, out_h, out_w, dtype)
    xs += dtype.type(t.m_x)
    ys += dtype.type(t.m_y)
    (out, v_tr, v_bl, v_br), bx, by = _window_taps(source, xs, ys)
    ax, ay = 1.0 - bx, 1.0 - by
    weight = ax * ay
    out *= weight
    for val, first, second in ((v_tr, bx, ay), (v_bl, ax, by), (v_br, bx, by)):
        val *= np.multiply(first, second, out=weight)
        out += val
    return out


def warp_backward(
    upstream: np.ndarray, source: np.ndarray, t: SimilarityTransform
) -> TransformGradients:
    """Backward pass of warp: gradients for (a, b) and the four centroids.
    The source pixels get none. The positions and taps are float64 whatever
    the source's dtype, so the six sums keep float64 precision.

    The transform-parameter gradients chain the upstream signal through the
    horizontal/vertical image derivatives of the bilinear interpolant and the
    analytic derivatives of the inverse map. landmark_and_canonical_gradients
    chains these into the landmark and canonical-point gradients.
    """
    if upstream.ndim != 3 or source.ndim != 3 or upstream.shape[0] != source.shape[0]:
        raise ValueError(
            f"upstream {upstream.shape} incompatible with source {source.shape}"
        )
    out_h, out_w = upstream.shape[1], upstream.shape[2]
    u, v, x_off, y_off = _sample_points(t, out_h, out_w)
    (v_tl, v_tr, v_bl, v_br), bx, by = _window_taps(
        source, x_off + t.m_x, y_off + t.m_y
    )

    # Image derivatives of the interpolant at the sample points.
    ix = by * (v_br - v_bl) + (1.0 - by) * (v_tr - v_tl)
    iy = bx * (v_br - v_tr) + (1.0 - bx) * (v_bl - v_tl)

    # Upstream folded through the image gradient, summed over channels.
    gx_img = (upstream * ix).sum(axis=0)
    gy_img = (upstream * iy).sum(axis=0)

    d = t.norm_sq
    dx_da = (u - 2.0 * t.a * x_off) / d
    dy_da = (v - 2.0 * t.a * y_off) / d
    dx_db = (-v - 2.0 * t.b * x_off) / d
    dy_db = (u - 2.0 * t.b * y_off) / d

    return TransformGradients(
        d_a=float((gx_img * dx_da + gy_img * dy_da).sum()),
        d_b=float((gx_img * dx_db + gy_img * dy_db).sum()),
        d_m_x=float(gx_img.sum()),
        d_m_y=float(gy_img.sum()),
        d_m_xr=float((gx_img * (-t.a / d) + gy_img * (-t.b / d)).sum()),
        d_m_yr=float((gx_img * (t.b / d) + gy_img * (-t.a / d)).sum()),
    )


def landmark_and_canonical_gradients(grads: TransformGradients, landmarks, canonical):
    """The (N, 2) gradients (d_landmarks, d_canonical) of the landmarks and
    the canonical points.

    Chains the (a, b) and centroid gradients through the closed-form
    least-squares solution; must be called with the same point sets the
    transform was estimated from.
    """
    _, _, (X, Y), (Xr, Yr), c1, c2, c3 = _fit_one(landmarks, canonical)
    n = len(X)
    c3sq = c3 * c3

    # Partials of a = c1/c3 and b = c2/c3; centering makes the centroid terms
    # of dc1/dc2 vanish, leaving the centered coordinates themselves.
    da_dx = (Xr * c3 - c1 * 2.0 * X) / c3sq
    da_dy = (Yr * c3 - c1 * 2.0 * Y) / c3sq
    db_dx = (-Yr * c3 - c2 * 2.0 * X) / c3sq
    db_dy = (Xr * c3 - c2 * 2.0 * Y) / c3sq
    # da/dxr = -db/dyr = X/c3 and da/dyr = db/dxr = Y/c3
    x3, y3 = X / c3, Y / c3

    d_landmarks = np.stack([grads.d_a * da_dx + grads.d_b * db_dx + grads.d_m_x / n,
                            grads.d_a * da_dy + grads.d_b * db_dy + grads.d_m_y / n], axis=1)
    d_canonical = np.stack([grads.d_a * x3 + grads.d_b * y3 + grads.d_m_xr / n,
                            grads.d_a * y3 - grads.d_b * x3 + grads.d_m_yr / n], axis=1)
    return d_landmarks, d_canonical
