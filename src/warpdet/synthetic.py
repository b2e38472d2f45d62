"""Parametric synthetic face corpus.

Each face is a soft-edged ellipse carrying two eye disks, a nose bar and a
mouth bar, rendered at a random size, rotation and position over a noisy
background with optional featureless clutter. Ground-truth boxes and the five
landmarks (eye centers, nose tip, mouth corners) come straight from the
render parameters, so every annotation is analytically exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Landmark layout in face-local units (x right, y down, face spans ~[-0.5, 0.5]).
GLYPH_LANDMARKS = np.array(
    [
        [-0.20, -0.17],  # left eye center
        [0.20, -0.17],   # right eye center
        [0.00, 0.06],    # nose tip
        [-0.17, 0.28],   # left mouth corner
        [0.17, 0.28],    # right mouth corner
    ]
)

# Face ellipse semi-axes in face-local units; the ground-truth box is the
# axis-aligned bounding box of this ellipse after rotation.
ELLIPSE_AXES = (0.42, 0.48)


@dataclass
class CorpusParams:
    image_size: int = 96
    size_range: tuple[float, float] = (38.0, 64.0)
    rotation_deg: float = 45.0
    noise: float = 0.03
    background: float = 0.35
    face_contrast: float = 0.35
    max_clutter: int = 3
    no_face_rate: float = 0.0


@dataclass
class AnnotatedSample:
    image: np.ndarray  # (1, H, W) float64 grayscale
    faces: list        # (box (x, y, w, h), landmarks (5, 2)) pairs
    provenance: str = ""


def _rot(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def glyph_landmarks(center, size: float, angle: float) -> np.ndarray:
    """Image-space landmark positions of a face glyph."""
    return np.asarray(center) + size * (GLYPH_LANDMARKS @ _rot(angle).T)


def glyph_box(center, size: float, angle: float) -> tuple:
    """Axis-aligned bounding box of the rotated face ellipse."""
    ax, ay = ELLIPSE_AXES
    c, s = np.cos(angle), np.sin(angle)
    hw = size * np.hypot(ax * c, ay * s)
    hh = size * np.hypot(ax * s, ay * c)
    cx, cy = center
    return (cx - hw, cy - hh, 2 * hw, 2 * hh)


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.dot of each row of (N, K) x with the same row of y, or with (K,) y.
    A stacked matmul of vectors calls np.dot's BLAS routine per row, so each
    result equals np.dot's bit for bit; a summed product rounds differently."""
    return (x[:, None, :] @ y[..., None])[:, 0, 0]


def box_from_landmarks(landmarks) -> tuple[np.ndarray, np.ndarray]:
    """Recover face boxes from (N, 5, 2) landmarks by fitting the glyph layout.

    The similarity fit of each row against GLYPH_LANDMARKS yields the face
    frame (scale, rotation, center); the box is the rotated-ellipse bounding
    box in that frame, so exact landmarks reproduce the generator's
    ground-truth box. Returns (N, 4) boxes (x, y, w, h) and an (N,) flag
    that is False, and the box meaningless, where the landmarks are
    (near-)coincident. All rows are fitted at once, in the arithmetic order
    of align.estimate_similarity on one row, so each box is bit-identical
    to a per-row fit.
    """
    pts = np.asarray(landmarks, dtype=np.float64)
    n = len(GLYPH_LANDMARKS)
    if pts.ndim != 3 or pts.shape[1:] != (n, 2):
        raise ValueError(f"expected (N, {n}, 2) landmarks, got shape {pts.shape}")
    m_xr, m_yr = GLYPH_LANDMARKS.sum(axis=0) / n
    Xr, Yr = GLYPH_LANDMARKS[:, 0] - m_xr, GLYPH_LANDMARKS[:, 1] - m_yr
    m_x, m_y = (pts.sum(axis=1) / n).T
    X, Y = pts[:, :, 0] - m_x[:, None], pts[:, :, 1] - m_y[:, None]
    c3 = _row_dots(X, X) + _row_dots(Y, Y)
    reach = np.maximum(1.0, (pts[:, :, 0] ** 2 + pts[:, :, 1] ** 2).max(axis=1))
    ok = ~(c3 <= 1e-12 * reach)
    c1 = _row_dots(X, Xr) + _row_dots(Y, Yr)
    c2 = _row_dots(Y, Xr) - _row_dots(X, Yr)
    with np.errstate(divide="ignore", invalid="ignore"):  # singular rows
        a, b = c1 / c3, c2 / c3
        d = a * a + b * b

        def inverse_map(px, py):
            u, v = px - m_xr, py - m_yr
            return (a * u - b * v) / d + m_x, (b * u + a * v) / d + m_y

        ox, oy = inverse_map(0.0, 0.0)
        x1, y1 = inverse_map(1.0, 0.0)
        x2, y2 = inverse_map(0.0, 1.0)
        ax, ay = ELLIPSE_AXES
        hw = np.hypot(ax * (x1 - ox), ay * (x2 - ox))
        hh = np.hypot(ax * (y1 - oy), ay * (y2 - oy))
        return np.stack([ox - hw, oy - hh, 2 * hw, 2 * hh], axis=1), ok


def _soft_edge(distance: np.ndarray, width: float = 0.9) -> np.ndarray:
    """1 inside, 0 outside, linear ramp of `width` pixels at the boundary."""
    return np.clip(distance / width + 0.5, 0.0, 1.0)


def _bar(u, v, cx, cy, half_len, half_thick):
    return _soft_edge(half_len - np.abs(u - cx)) * _soft_edge(
        half_thick - np.abs(v - cy)
    )


def render_face(canvas: np.ndarray, center, size: float, angle: float,
                contrast: float = 0.35) -> None:
    """Additively render one face glyph onto a 2-D canvas."""
    h, w = canvas.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    dx = xs - center[0]
    dy = ys - center[1]
    c, s = np.cos(angle), np.sin(angle)
    u = c * dx + s * dy    # face-local coordinates, in pixels
    v = -s * dx + c * dy
    ax, ay = ELLIPSE_AXES[0] * size, ELLIPSE_AXES[1] * size
    rho = np.sqrt((u / ax) ** 2 + (v / ay) ** 2)
    face = _soft_edge((1.0 - rho) * min(ax, ay))
    canvas += contrast * face

    eye_r = 0.065 * size
    for ex, ey in (GLYPH_LANDMARKS[0], GLYPH_LANDMARKS[1]):
        d = np.hypot(u - ex * size, v - ey * size)
        canvas -= 1.15 * contrast * _soft_edge(eye_r - d)
    nx, ny = GLYPH_LANDMARKS[2] * size
    canvas -= 0.55 * contrast * _bar(u, v, nx, ny, 0.045 * size, 0.10 * size)
    my = GLYPH_LANDMARKS[3, 1] * size
    canvas -= contrast * _bar(u, v, 0.0, my, 0.17 * size, 0.045 * size)


def _render_clutter(canvas: np.ndarray, rng: np.random.Generator,
                    face_box, contrast: float) -> None:
    """One featureless distractor (bare ellipse, dark disk, or bar) placed
    away from the face."""
    h, w = canvas.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    for _ in range(10):
        cx, cy = rng.uniform(8, w - 8), rng.uniform(8, h - 8)
        size = rng.uniform(8, 30)
        if face_box is None:
            break
        fx, fy, fw, fh = face_box
        if not (fx - size < cx < fx + fw + size and fy - size < cy < fy + fh + size):
            break
    else:
        return
    kind = rng.integers(0, 3)
    dx, dy = xs - cx, ys - cy
    if kind == 0:  # bare bright ellipse, a featureless face-sized decoy
        a = size * rng.uniform(0.7, 1.0)
        b = size * rng.uniform(0.7, 1.0)
        rho = np.sqrt((dx / a) ** 2 + (dy / b) ** 2)
        canvas += rng.uniform(0.6, 1.0) * contrast * _soft_edge((1 - rho) * min(a, b))
    elif kind == 1:  # dark disk
        d = np.hypot(dx, dy)
        canvas -= rng.uniform(0.5, 1.0) * contrast * _soft_edge(size * 0.4 - d)
    else:  # bar
        angle = rng.uniform(0, np.pi)
        c, s = np.cos(angle), np.sin(angle)
        u = c * dx + s * dy
        v = -s * dx + c * dy
        canvas += rng.uniform(-1.0, 1.0) * contrast * _bar(
            u, v, 0.0, 0.0, size * 0.6, size * 0.12
        )


def generate_sample(rng: np.random.Generator, params: CorpusParams,
                    provenance: str = "") -> AnnotatedSample:
    """Render one annotated image with params-driven randomness."""
    n = params.image_size
    ys, xs = np.mgrid[0:n, 0:n].astype(np.float64)
    gx, gy = rng.uniform(-0.06, 0.06, size=2)
    canvas = params.background + gx * (xs / n - 0.5) + gy * (ys / n - 0.5)

    faces = []
    face_box = None
    if rng.random() >= params.no_face_rate:
        size = rng.uniform(*params.size_range)
        angle = np.deg2rad(rng.uniform(-params.rotation_deg, params.rotation_deg))
        margin = 0.55 * size
        cx = rng.uniform(margin, n - margin)
        cy = rng.uniform(margin, n - margin)
        render_face(canvas, (cx, cy), size, angle, params.face_contrast)
        face_box = glyph_box((cx, cy), size, angle)
        faces.append((face_box, glyph_landmarks((cx, cy), size, angle)))

    for _ in range(rng.integers(0, params.max_clutter + 1)):
        _render_clutter(canvas, rng, face_box, params.face_contrast)

    if params.noise > 0:
        canvas = canvas + rng.normal(0.0, params.noise, size=canvas.shape)
    return AnnotatedSample(canvas[None].copy(), faces, provenance)


def generate_synthetic_corpus(
    seed: int, count: int, params: CorpusParams | None = None
) -> list[AnnotatedSample]:
    """Deterministic corpus: a fixed seed yields a bit-identical sample list."""
    params = params or CorpusParams()
    rng = np.random.default_rng(seed)
    return [
        generate_sample(rng, params, provenance=f"seed={seed} index={i}")
        for i in range(count)
    ]
