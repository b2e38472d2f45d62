"""Full-canvas reference forms of ``warpdet.synthetic``'s renderer, kept in
the tests as oracles: every glyph and the background gradient are evaluated
over a full np.mgrid of the canvas, so each glyph term is computed (and is
exactly 0) at every pixel outside its footprint too. The recipe constants
are read from ``warpdet.synthetic`` when a sample is drawn, so a test's
patch reaches both the package and the oracle."""

import numpy as np

from warpdet import synthetic
from warpdet.synthetic import (
    ELLIPSE_AXES,
    GLYPH_LANDMARKS,
    AnnotatedSample,
    _bar,
    _soft_edge,
    glyph_box,
    glyph_landmarks,
)


def render_face(canvas: np.ndarray, center, size: float, angle: float) -> None:
    """Additively render one face glyph onto a 2-D canvas."""
    contrast = synthetic.FACE_CONTRAST
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


def _render_clutter(canvas: np.ndarray, rng: np.random.Generator, face_box) -> None:
    """One featureless distractor (bare ellipse, dark disk, or bar) placed
    away from the face."""
    contrast = synthetic.FACE_CONTRAST
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


def background(rng: np.random.Generator, params) -> np.ndarray:
    """The background gradient over a full-canvas grid."""
    n = params.image_size
    ys, xs = np.mgrid[0:n, 0:n].astype(np.float64)
    gx, gy = rng.uniform(-0.06, 0.06, size=2)
    return synthetic.BACKGROUND + gx * (xs / n - 0.5) + gy * (ys / n - 0.5)


def generate_sample(rng: np.random.Generator, params,
                    provenance: str = "") -> AnnotatedSample:
    """Render one annotated image under synthetic's recipe constants."""
    n = params.image_size
    canvas = background(rng, params)

    faces = []
    face_box = None
    if rng.random() >= synthetic.NO_FACE_RATE:
        size = rng.uniform(*synthetic.SIZE_RANGE)
        angle = np.deg2rad(rng.uniform(-synthetic.ROTATION_DEG, synthetic.ROTATION_DEG))
        margin = 0.55 * size
        cx = rng.uniform(margin, n - margin)
        cy = rng.uniform(margin, n - margin)
        render_face(canvas, (cx, cy), size, angle)
        face_box = glyph_box((cx, cy), size, angle)
        faces.append((face_box, glyph_landmarks((cx, cy), size, angle)))

    for _ in range(rng.integers(0, synthetic.MAX_CLUTTER + 1)):
        _render_clutter(canvas, rng, face_box)

    if synthetic.NOISE > 0:
        canvas = canvas + rng.normal(0.0, synthetic.NOISE, size=canvas.shape)
    return AnnotatedSample(canvas[None].copy(), faces, provenance)


def generate_synthetic_corpus(seed: int, count: int, params) -> list[AnnotatedSample]:
    """A seeded corpus, drawn in the package's order."""
    rng = np.random.default_rng(seed)
    return [
        generate_sample(rng, params, provenance=f"seed={seed} index={i}")
        for i in range(count)
    ]
