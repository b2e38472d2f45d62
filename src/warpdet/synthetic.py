"""Synthetic face corpus.

Each face is a soft-edged ellipse carrying two eye disks, a nose bar and a
mouth bar, rendered at a random size, rotation and position over a noisy
background with optional featureless clutter. Ground-truth boxes and the five
landmarks (eye centers, nose tip, mouth corners) come straight from the
render parameters, so every annotation is analytically exact.

The recipe's values (face sizes, rotation, noise, levels, clutter, the
face-free share) are module constants, read when a sample is drawn; a test
that needs another value patches one. CorpusParams holds only the image
side, the one value callers choose.

Each glyph is drawn into the canvas view over its footprint, clipped to the
canvas: for a face, the square of half-side 0.48 * size + FOOTPRINT_MARGIN
around its center (its larger ellipse semi-axis plus the margin; the eyes,
nose and mouth lie inside the ellipse); for a distractor, the square of
half-side size + FOOTPRINT_MARGIN. This is exact. The view's coordinates are
the float64 values a full-canvas grid holds there, and every glyph term is a
_soft_edge, exactly 0 from 0.45 px beyond its boundary. An ellipse's edge
distance is scaled by its smaller semi-axis, so its nonzero ring ends within
0.45 * (larger / smaller semi-axis) px of the larger one: 0.52 px for a face,
0.65 px for a distractor ellipse; the disk and the bars end well inside
their squares. So every nonzero term lies over 1 px inside the footprint, and
the view receives the full-canvas sums bit for bit. A face costs in
proportion to its own size, not the canvas's. The background gradient is one
row plus one column, the same sums as over a full grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import fit_similarity, inverse_offsets
from .ferns import check_int

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

# Pixels added around each glyph's extent on every side of its footprint.
FOOTPRINT_MARGIN = 2.0

SIZE_RANGE = (38.0, 64.0)  # face side in pixels, drawn uniformly
ROTATION_DEG = 45.0        # in-plane rotation, drawn uniformly in +-this
NOISE = 0.03               # standard deviation of the additive pixel noise
BACKGROUND = 0.35          # mean background level
FACE_CONTRAST = 0.35       # face level over the background; sets every glyph's gain
MAX_CLUTTER = 3            # distractors per image, drawn uniformly in [0, this]
NO_FACE_RATE = 0.0         # share of images drawn without a face


@dataclass
class CorpusParams:
    image_size: int = 96

    def __post_init__(self):
        """Reject, naming it, an image side that cannot hold the largest
        face: a face keeps 0.55 * size off each side."""
        check_int("image_size", self.image_size, int(np.ceil(1.1 * SIZE_RANGE[1])))


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


def box_from_landmarks(landmarks) -> tuple[np.ndarray, np.ndarray]:
    """Recover face boxes from (N, 5, 2) landmarks: one align.fit_similarity
    call fits every row to GLYPH_LANDMARKS, to the bits of a fit of that row
    alone, for the face frame (scale, rotation, center); the box bounds the
    rotated ellipse in that frame, so exact landmarks reproduce the
    generator's box. Returns (N, 4) boxes (x, y, w, h) and the fit's (N,)
    flag, False where the box is meaningless: (near-)coincident or
    non-finite landmarks."""
    pts = np.asarray(landmarks, dtype=np.float64)
    if pts.ndim != 3:
        raise ValueError(f"expected (N, 5, 2) landmarks, got shape {pts.shape}")
    m, (m_xr, m_yr), _, _, c1, c2, c3, ok = fit_similarity(pts, GLYPH_LANDMARKS)
    with np.errstate(divide="ignore", invalid="ignore"):  # singular rows
        a, b = c1 / c3, c2 / c3
        # the face-local origin and unit points (0, 0), (1, 0), (0, 1)
        x_off, y_off = inverse_offsets(a[:, None], b[:, None],
                                       np.array([0.0, 1.0, 0.0]) - m_xr,
                                       np.array([0.0, 0.0, 1.0]) - m_yr)
        (ox, x1, x2), (oy, y1, y2) = (x_off + m[:, :1]).T, (y_off + m[:, 1:]).T
        ax, ay = ELLIPSE_AXES
        hw = np.hypot(ax * (x1 - ox), ay * (x2 - ox))
        hh = np.hypot(ax * (y1 - oy), ay * (y2 - oy))
        return np.stack([ox - hw, oy - hh, 2 * hw, 2 * hh], axis=1), ok


def _soft_edge(distance: np.ndarray) -> np.ndarray:
    """1 inside, 0 outside, linear ramp of 0.9 pixels at the boundary."""
    return np.clip(distance / 0.9 + 0.5, 0.0, 1.0)


def _bar(u, v, cx, cy, half_len, half_thick):
    return _soft_edge(half_len - np.abs(u - cx)) * _soft_edge(
        half_thick - np.abs(v - cy)
    )


def _footprint(canvas: np.ndarray, center, half: float):
    """The view of a 2-D canvas over the pixels within `half` of center on
    both axes, clipped to the canvas, and the np.mgrid of its rows and
    columns offset by the view's origin, in float64: the values a
    full-canvas grid holds there."""
    spans = []
    for c, n in zip((center[1], center[0]), canvas.shape):
        lo = min(max(int(np.ceil(c - half)), 0), n)
        spans.append(slice(lo, max(lo, min(int(np.floor(c + half)) + 1, n))))
    ys, xs = np.mgrid[spans[0], spans[1]].astype(np.float64)
    return canvas[spans[0], spans[1]], xs, ys


def render_face(canvas: np.ndarray, center, size: float, angle: float) -> None:
    """Additively render one face glyph onto a 2-D canvas, inside its
    footprint."""
    canvas, xs, ys = _footprint(canvas, center, max(ELLIPSE_AXES) * size + FOOTPRINT_MARGIN)
    dx = xs - center[0]
    dy = ys - center[1]
    c, s = np.cos(angle), np.sin(angle)
    u = c * dx + s * dy    # face-local coordinates, in pixels
    v = -s * dx + c * dy
    ax, ay = ELLIPSE_AXES[0] * size, ELLIPSE_AXES[1] * size
    rho = np.sqrt((u / ax) ** 2 + (v / ay) ** 2)
    face = _soft_edge((1.0 - rho) * min(ax, ay))
    canvas += FACE_CONTRAST * face

    eye_r = 0.065 * size
    for ex, ey in (GLYPH_LANDMARKS[0], GLYPH_LANDMARKS[1]):
        d = np.hypot(u - ex * size, v - ey * size)
        canvas -= 1.15 * FACE_CONTRAST * _soft_edge(eye_r - d)
    nx, ny = GLYPH_LANDMARKS[2] * size
    canvas -= 0.55 * FACE_CONTRAST * _bar(u, v, nx, ny, 0.045 * size, 0.10 * size)
    my = GLYPH_LANDMARKS[3, 1] * size
    canvas -= FACE_CONTRAST * _bar(u, v, 0.0, my, 0.17 * size, 0.045 * size)


def _render_clutter(canvas: np.ndarray, rng: np.random.Generator, face_box) -> None:
    """One featureless distractor (bare ellipse, dark disk, or bar) placed
    away from the face, drawn inside its footprint."""
    h, w = canvas.shape
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
    canvas, xs, ys = _footprint(canvas, (cx, cy), size + FOOTPRINT_MARGIN)
    dx, dy = xs - cx, ys - cy
    if kind == 0:  # bare bright ellipse, a featureless face-sized decoy
        a = size * rng.uniform(0.7, 1.0)
        b = size * rng.uniform(0.7, 1.0)
        rho = np.sqrt((dx / a) ** 2 + (dy / b) ** 2)
        canvas += rng.uniform(0.6, 1.0) * FACE_CONTRAST * _soft_edge((1 - rho) * min(a, b))
    elif kind == 1:  # dark disk
        d = np.hypot(dx, dy)
        canvas -= rng.uniform(0.5, 1.0) * FACE_CONTRAST * _soft_edge(size * 0.4 - d)
    else:  # bar
        angle = rng.uniform(0, np.pi)
        c, s = np.cos(angle), np.sin(angle)
        u = c * dx + s * dy
        v = -s * dx + c * dy
        canvas += rng.uniform(-1.0, 1.0) * FACE_CONTRAST * _bar(
            u, v, 0.0, 0.0, size * 0.6, size * 0.12
        )


def generate_sample(rng: np.random.Generator, params: CorpusParams,
                    provenance: str = "") -> AnnotatedSample:
    """Render one annotated image of params.image_size pixels a side under
    the module's recipe constants."""
    n = params.image_size
    line = np.arange(n, dtype=np.float64)
    gx, gy = rng.uniform(-0.06, 0.06, size=2)
    canvas = (BACKGROUND + gx * (line / n - 0.5)) + gy * (line[:, None] / n - 0.5)

    faces = []
    face_box = None
    if rng.random() >= NO_FACE_RATE:
        size = rng.uniform(*SIZE_RANGE)
        angle = np.deg2rad(rng.uniform(-ROTATION_DEG, ROTATION_DEG))
        margin = 0.55 * size
        cx = rng.uniform(margin, n - margin)
        cy = rng.uniform(margin, n - margin)
        render_face(canvas, (cx, cy), size, angle)
        face_box = glyph_box((cx, cy), size, angle)
        faces.append((face_box, glyph_landmarks((cx, cy), size, angle)))

    for _ in range(rng.integers(0, MAX_CLUTTER + 1)):
        _render_clutter(canvas, rng, face_box)

    if NOISE > 0:
        canvas = canvas + rng.normal(0.0, NOISE, size=canvas.shape)
    return AnnotatedSample(canvas[None].copy(), faces, provenance)


def generate_synthetic_corpus(
    seed: int, count: int, params: CorpusParams | None = None
) -> list[AnnotatedSample]:
    """Deterministic corpus: a fixed seed yields a bit-identical sample list."""
    check_int("seed", seed, 0)
    check_int("count", count, 0)
    params = params or CorpusParams()
    rng = np.random.default_rng(seed)
    return [
        generate_sample(rng, params, provenance=f"seed={seed} index={i}")
        for i in range(count)
    ]
