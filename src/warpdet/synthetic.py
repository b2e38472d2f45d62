"""Parametric synthetic face corpus.

Each face is a soft-edged ellipse carrying two eye disks, a nose bar and a
mouth bar, rendered at a random size, rotation and position over a noisy
background with optional featureless clutter. Ground-truth boxes and the five
landmarks (eye centers, nose tip, mouth corners) come straight from the
render parameters, so every annotation is analytically exact.

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

import numbers
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

    def __post_init__(self):
        """Reject, naming the field, what generate_sample cannot draw."""
        pair = self.size_range
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in pair)):
            raise ValueError(f"size_range must be a pair of numbers, got {pair!r}")
        low, high = pair
        if not 0 < low <= high:
            raise ValueError(f"size_range must hold 0 < low <= high, got {self.size_range}")
        for name in ("image_size", "max_clutter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not self.image_size >= 1.1 * high:  # a face keeps 0.55 * size off each side
            raise ValueError(f"image_size {self.image_size} is under 1.1 * size_range[1]")
        if not self.max_clutter >= 0:
            raise ValueError(f"max_clutter must be >= 0, got {self.max_clutter}")
        if self.max_clutter > 0 and self.image_size < 16:  # centers lie in [8, n - 8]
            raise ValueError(f"image_size {self.image_size} is under 16 with clutter")
        for name in ("rotation_deg", "noise", "background", "face_contrast"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.rotation_deg >= 0:
            raise ValueError(f"rotation_deg must be >= 0, got {self.rotation_deg}")
        if not self.noise >= 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if not 0 <= self.no_face_rate <= 1:
            raise ValueError(f"no_face_rate must lie in [0, 1], got {self.no_face_rate}")


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


def _soft_edge(distance: np.ndarray, width: float = 0.9) -> np.ndarray:
    """1 inside, 0 outside, linear ramp of `width` pixels at the boundary."""
    return np.clip(distance / width + 0.5, 0.0, 1.0)


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


def render_face(canvas: np.ndarray, center, size: float, angle: float,
                contrast: float = 0.35) -> None:
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
    line = np.arange(n, dtype=np.float64)
    gx, gy = rng.uniform(-0.06, 0.06, size=2)
    canvas = (params.background + gx * (line / n - 0.5)) + gy * (line[:, None] / n - 0.5)

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
    check_int("seed", seed, 0)
    check_int("count", count, 0)
    params = params or CorpusParams()
    rng = np.random.default_rng(seed)
    return [
        generate_sample(rng, params, provenance=f"seed={seed} index={i}")
        for i in range(count)
    ]
