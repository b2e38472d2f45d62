"""Reference forms of the similarity fit and the bilinear warp in
``warpdet.align``, kept in the tests as oracles: the fit handles one point
set at a time with scalar np.dot sums over column views, the sample grid
goes through ``inverse_map`` as an (out_h, out_w, 2) point array and every
tap is a 2-D fancy-index read. The warp computes in the source's floating
dtype, float64 for an integer source, as ``warpdet.align.warp`` does; the
backward pass in float64."""

import dataclasses

import numpy as np

from warpdet.align import SimilarityTransform, SingularTransformError, TransformGradients


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (N, 2) points, got shape {pts.shape}")
    return pts


def _centered(points: np.ndarray, name: str):
    """Centroid, centered coordinates and squared spread of (N, 2) points;
    raises SingularTransformError when they are (near-)coincident or not
    finite."""
    m_x, m_y = points.sum(axis=0) / len(points)
    X, Y = points[:, 0] - m_x, points[:, 1] - m_y
    spread = float(np.dot(X, X) + np.dot(Y, Y))
    reach = max(1.0, float((points[:, 0] ** 2 + points[:, 1] ** 2).max()))
    if not spread > 1e-12 * reach:
        kind = "coincident" if np.isfinite(spread) else "non-finite"
        raise SingularTransformError(f"{kind} {name} (squared spread {spread:g})")
    return m_x, m_y, X, Y, spread


def fit_terms(landmarks, canonical):
    """(m_x, m_y, m_xr, m_yr, X, Y, Xr, Yr, c1, c2, c3) of the fit of one
    (N, 2) landmark set to (N, 2) canonical points, the canonical points
    checked first."""
    src = _as_points(landmarks)
    dst = _as_points(canonical)
    if src.shape != dst.shape:
        raise ValueError(f"point sets differ: {src.shape} vs {dst.shape}")
    if len(src) < 2:
        raise ValueError("need at least 2 landmark pairs")
    m_xr, m_yr, Xr, Yr, _ = _centered(dst, "canonical points")
    m_x, m_y, X, Y, c3 = _centered(src, "landmarks")
    c1 = float(np.dot(Xr, X) + np.dot(Yr, Y))
    c2 = float(np.dot(Xr, Y) - np.dot(Yr, X))
    if c1 == 0.0 and c2 == 0.0:
        raise SingularTransformError("landmarks fit the canonical points at zero scale")
    return m_x, m_y, m_xr, m_yr, X, Y, Xr, Yr, c1, c2, c3


def estimate_similarity(landmarks, canonical) -> SimilarityTransform:
    """Oracle of align.estimate_similarity."""
    m_x, m_y, m_xr, m_yr, _, _, _, _, c1, c2, c3 = fit_terms(landmarks, canonical)
    return SimilarityTransform(c1 / c3, c2 / c3, m_x, m_y, m_xr, m_yr)


def landmark_and_canonical_gradients(grads: TransformGradients, landmarks, canonical):
    """Oracle of align.landmark_and_canonical_gradients: (d_landmarks,
    d_canonical)."""
    *_, X, Y, Xr, Yr, c1, c2, c3 = fit_terms(landmarks, canonical)
    n = len(X)
    c3sq = c3 * c3
    da_dx = (Xr * c3 - c1 * 2.0 * X) / c3sq
    da_dy = (Yr * c3 - c1 * 2.0 * Y) / c3sq
    db_dx = (-Yr * c3 - c2 * 2.0 * X) / c3sq
    db_dy = (Xr * c3 - c2 * 2.0 * Y) / c3sq
    d_landmarks = np.empty((n, 2), dtype=np.float64)
    d_landmarks[:, 0] = grads.d_a * da_dx + grads.d_b * db_dx + grads.d_m_x / n
    d_landmarks[:, 1] = grads.d_a * da_dy + grads.d_b * db_dy + grads.d_m_y / n
    d_canonical = np.empty((n, 2), dtype=np.float64)
    d_canonical[:, 0] = grads.d_a * (X / c3) + grads.d_b * (Y / c3) + grads.d_m_xr / n
    d_canonical[:, 1] = grads.d_a * (Y / c3) + grads.d_b * (-X / c3) + grads.d_m_yr / n
    return d_landmarks, d_canonical


def inverse_map(t: SimilarityTransform, points, dtype=np.float64) -> np.ndarray:
    """Rectified-image points -> source-image points, one point at a time
    along the last axis of an (..., 2) array, computed in dtype, to which
    the transform's numbers are cast first."""
    pts = np.asarray(points, dtype=dtype)
    a, b, m_x, m_y, m_xr, m_yr = (pts.dtype.type(n) for n in dataclasses.astuple(t))
    d = a * a + b * b
    u = pts[..., 0] - m_xr
    v = pts[..., 1] - m_yr
    return np.stack(
        [
            (a * u - b * v) / d + m_x,
            (b * u + a * v) / d + m_y,
        ],
        axis=-1,
    )


def bilinear_taps(source: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Tap values, weights, (col, row) index pairs and valid masks, in
    top-left, top-right, bottom-left, bottom-right order, plus bx, by."""
    _, h, w = source.shape
    xl = np.floor(xs)
    yt = np.floor(ys)
    bx = xs - xl
    by = ys - yt
    xl = xl.astype(np.intp)
    yt = yt.astype(np.intp)
    xr, yb = xl + 1, yt + 1

    weights = (
        (1.0 - bx) * (1.0 - by),
        bx * (1.0 - by),
        (1.0 - bx) * by,
        bx * by,
    )
    coords = ((xl, yt), (xr, yt), (xl, yb), (xr, yb))
    values = []
    valids = []
    for cx, cy in coords:
        valid = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        cxc = np.clip(cx, 0, w - 1)
        cyc = np.clip(cy, 0, h - 1)
        values.append(source[:, cyc, cxc] * valid)
        valids.append(valid)
    return values, weights, coords, valids, bx, by


def rect_grid(out_h: int, out_w: int, dtype=np.float64):
    ys, xs = np.mgrid[0:out_h, 0:out_w]
    return xs.astype(dtype), ys.astype(dtype)


def warp(source: np.ndarray, t: SimilarityTransform, out_size) -> np.ndarray:
    """Oracle of align.warp, in the source's floating dtype, float64 for an
    integer source."""
    dtype = source.dtype if source.dtype.kind == "f" else np.float64
    out_h, out_w = out_size
    gx, gy = rect_grid(out_h, out_w, dtype)
    src_pts = inverse_map(t, np.stack([gx, gy], axis=-1), dtype)
    values, weights, _, _, _, _ = bilinear_taps(source, src_pts[..., 0], src_pts[..., 1])
    out = np.zeros((source.shape[0], out_h, out_w), dtype=dtype)
    for val, wgt in zip(values, weights):
        out += val * wgt
    return out


def warp_backward(upstream: np.ndarray, source: np.ndarray,
                  t: SimilarityTransform) -> TransformGradients:
    """Oracle of align.warp_backward."""
    out_h, out_w = upstream.shape[1], upstream.shape[2]
    gx, gy = rect_grid(out_h, out_w)
    src_pts = inverse_map(t, np.stack([gx, gy], axis=-1))
    xs, ys = src_pts[..., 0], src_pts[..., 1]
    values, _, _, _, bx, by = bilinear_taps(source, xs, ys)
    # each tap promoted to float64, as warp promotes it by its weight
    v_tl, v_tr, v_bl, v_br = (val.astype(np.float64) for val in values)

    ix = by * (v_br - v_bl) + (1.0 - by) * (v_tr - v_tl)
    iy = bx * (v_br - v_tr) + (1.0 - bx) * (v_bl - v_tl)
    gx_img = (upstream * ix).sum(axis=0)
    gy_img = (upstream * iy).sum(axis=0)

    d = t.norm_sq
    u = gx - t.m_xr
    v = gy - t.m_yr
    x_off = (t.a * u - t.b * v) / d
    y_off = (t.b * u + t.a * v) / d

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
