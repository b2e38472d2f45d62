"""Boosted-fern cascade pre-filter.

A fern is a depth-8 stack of pixel-difference tests on a 32x32 grayscale
patch; its 8 bits index one of 256 partitions, each carrying a half-log-odds
score. Ferns are trained stagewise with RealBoost, every fern gets a soft
rejection threshold, and a sliding-window scan over an image pyramid turns
the cascade into a candidate generator; the pyramid's levels share one
float64 plane, so each stage is one gather over the windows of all levels.
A CascadeModel holds its ferns as stacked arrays, row f for stage f, as the
model file stores them.
Training reads one pixel-major copy of the patches and scores each stage's
candidate pool in chunks that fit the convolutions' scratch budget: per
chunk, one gather of pixel differences and one sort for the thresholds; then,
per class, one bincount gives the per-partition weight sums of every
candidate, each sum adding its partition's weights in sample order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nn
from .roiconv import MIN_FACE, resize_bilinear

PATCH_SIZE = 32
CANDIDATE_POOL = 60            # random fern candidates drawn per training stage
STAGE_DETECTION_TARGET = 0.99  # share of the training positives each stage keeps
NUM_SPLITS = 8
NUM_PARTITIONS = 1 << NUM_SPLITS
# Laplace smoothing of partition scores, as a fraction of the total weight
SMOOTHING_FRACTION = 1e-4
SCAN_SCALE_STEP = 2.0 ** (1.0 / 3.0)  # size ratio of adjacent scan pyramid levels
SCAN_STRIDE = 4                       # window step in level pixels


class TrainingError(RuntimeError):
    pass


def check_int(name: str, value, low: int) -> None:
    """Reject, naming it, a value whose type is not int (so a bool too) or
    that is below low."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


def _partition_sums(partitions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-partition weight sums for each column of (n, P) partition indices:
    (P, NUM_PARTITIONS) sums from one bincount over column-offset keys, each
    adding its partition's weights in sample order."""
    cols = partitions.shape[1]
    keys = partitions.T + NUM_PARTITIONS * np.arange(cols)[:, None]
    sums = np.bincount(keys.ravel(), np.tile(weights, cols), minlength=cols * NUM_PARTITIONS)
    return sums.reshape(cols, NUM_PARTITIONS)


class Fern(NamedTuple):
    """One stage of a CascadeModel: a row of each of its fern arrays."""

    coords: np.ndarray      # (8, 4) int64: x1, y1, x2, y2 in patch coordinates
    thresholds: np.ndarray  # (8,) float64
    scores: np.ndarray      # (256,) float64


def _partitions(diffs: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """uint8 partition indices from (..., 8) pixel differences, bit i set where
    difference i is below threshold i, packed from a C-ordered copy of the bits."""
    bits = np.ascontiguousarray(diffs < thresholds)
    return np.packbits(bits, bitorder="little").reshape(bits.shape[:-1])


def _half_log_odds(pos: np.ndarray, neg: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Half-log-odds score per partition, 0.5*log(pos / neg), from the
    per-partition positive and negative weight sums; both are
    Laplace-smoothed by SMOOTHING_FRACTION of the total weight, so an empty
    partition scores exactly zero."""
    eps = SMOOTHING_FRACTION * weights.sum()
    return 0.5 * np.log((pos + eps) / (neg + eps))


@dataclass
class CascadeModel:
    """F fern stages as stacked arrays, row f for stage f, each with one soft
    rejection threshold."""

    patch_size = PATCH_SIZE  # side of the square window every fern reads
    coords: np.ndarray            # (F, 8, 4) int64: x1, y1, x2, y2 in patch coordinates
    thresholds: np.ndarray        # (F, 8) float64 split thresholds
    scores: np.ndarray            # (F, 256) float64 partition scores
    stage_thresholds: np.ndarray  # (F,) float64
    train_log: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.int64)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.stage_thresholds = np.asarray(self.stage_thresholds, dtype=np.float64)
        f = self.coords.shape[0] if self.coords.ndim else 0
        if f == 0:
            raise ValueError("a cascade needs at least one fern")
        if self.stage_thresholds.shape != (f,):
            raise ValueError("one stage threshold per fern required")
        for name, shape in (("coords", (f, NUM_SPLITS, 4)), ("thresholds", (f, NUM_SPLITS)),
                            ("scores", (f, NUM_PARTITIONS))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must be {shape}, got {getattr(self, name).shape}")
        if self.coords.min() < 0 or self.coords.max() >= PATCH_SIZE:
            raise ValueError(
                f"split coordinates outside [0, {PATCH_SIZE}): "
                f"{self.coords.min()}..{self.coords.max()}"
            )

    @property
    def ferns(self) -> list[Fern]:
        """Each stage's row of coords, thresholds and scores, as views."""
        return [Fern(*row) for row in zip(self.coords, self.thresholds, self.scores)]


def _draw_pool(rng, pixels, size):
    """A stage's random fern candidates and the partition of each of n
    samples, given as (PATCH_SIZE**2, n) pixel rows, under each. Every
    candidate draws uniform coordinates, then uniform quantiles of the
    empirical pixel-difference distribution; each threshold is the order
    statistic np.quantile(method="inverted_cdf") takes, n*q - 1 rounded up
    (never below 0, as q > 0), so it depends only on the difference multiset.
    The candidates are scored in chunks, each of at least one candidate,
    whose (chunk, 8, n) differences take at most a third of
    nn.IM2COL_BUDGET_BYTES, as their gather temporary and their sorted copy
    are as large; each row is sorted and compared as in one whole-pool pass.
    Returns (coords (P, 8, 4), thresholds (P, 8), partitions (n, P))."""
    draws = [(rng.integers(0, PATCH_SIZE, size=(NUM_SPLITS, 4)),
              rng.uniform(0.05, 0.95, size=NUM_SPLITS)) for _ in range(size)]
    coords, qs = map(np.array, zip(*draws))
    n = pixels.shape[1]
    rank = np.ceil(n * qs - 1).astype(np.intp)
    thresholds = np.empty((size, NUM_SPLITS))
    partitions = np.empty((size, n), dtype=np.uint8)
    chunk = max(1, nn.IM2COL_BUDGET_BYTES // (3 * NUM_SPLITS * n * pixels.itemsize))
    for lo in range(0, size, chunk):
        hi = lo + chunk
        x1, y1, x2, y2 = np.moveaxis(coords[lo:hi], -1, 0)
        diffs = pixels[y1 * PATCH_SIZE + x1]  # (chunk, 8, n): one row per test
        diffs -= pixels[y2 * PATCH_SIZE + x2]
        thresholds[lo:hi] = np.take_along_axis(
            np.sort(diffs), rank[lo:hi, :, None], axis=-1)[..., 0]
        partitions[lo:hi] = _partitions(diffs.transpose(0, 2, 1), thresholds[lo:hi, None])
    return coords, thresholds, partitions.T


def train_cascade(
    positives: np.ndarray, negatives: np.ndarray, num_ferns: int, seed: int
) -> CascadeModel:
    """Greedy stagewise RealBoost over random fern candidates: num_ferns
    stages, drawn from a generator seeded by seed.

    Per stage: draw CANDIDATE_POOL candidates, keep the fern minimizing the
    Bhattacharyya-style error sum(2*sqrt(W+ * W-)) over partitions, set its
    partition scores, reweight with exp(-y*f) and renormalize, then calibrate
    the stage threshold so at least STAGE_DETECTION_TARGET of the training
    positives keep a cumulative score above it.
    """
    ps = PATCH_SIZE
    check_int("num_ferns", num_ferns, 1)
    check_int("seed", seed, 0)
    if positives.size == 0 or negatives.size == 0:
        raise ValueError("both classes must be non-empty")
    if positives.ndim != 3 or negatives.ndim != 3:
        raise ValueError("expected stacks of 2-D grayscale patches")
    if positives.shape[1:] != (ps, ps) or negatives.shape[1:] != (ps, ps):
        raise ValueError(f"patches must be {ps}x{ps}")

    if not (np.isfinite(positives).all() and np.isfinite(negatives).all()):
        raise ValueError("patches must be finite")

    rng = np.random.default_rng(seed)
    n_pos, n = len(positives), len(positives) + len(negatives)
    pixels = np.empty((ps * ps, n))  # pixel-major, positives first
    planes = pixels.reshape(ps, ps, n)
    planes[..., :n_pos] = np.moveaxis(positives, 0, -1)
    planes[..., n_pos:] = np.moveaxis(negatives, 0, -1)
    signs = np.repeat([1.0, -1.0], [n_pos, n - n_pos])
    weights = np.full(n, 1.0 / n)

    chosen = []  # (coords, thresholds, scores) of each stage's fern
    stage_thresholds = np.empty(num_ferns)
    cumulative = np.zeros(n)
    stage_losses = []
    allowed_rejects = int(np.floor((1.0 - STAGE_DETECTION_TARGET) * n_pos))

    for stage in range(num_ferns):
        coords, threshs, parts = _draw_pool(rng, pixels, CANDIDATE_POOL)
        pos_sums = _partition_sums(parts[:n_pos], weights[:n_pos])
        neg_sums = _partition_sums(parts[n_pos:], weights[n_pos:])
        best = int(np.argmin(np.sqrt(pos_sums * neg_sums).sum(axis=1)))
        if np.count_nonzero(pos_sums[best] + neg_sums[best]) <= 1:
            raise TrainingError(
                f"degenerate fern pool at stage {stage}: best candidate keeps "
                "all samples in one partition"
            )
        fern_scores = _half_log_odds(pos_sums[best], neg_sums[best], weights)
        chosen.append((coords[best].copy(), threshs[best].copy(), fern_scores))

        sample_scores = fern_scores[parts[:, best]]
        weights = weights * np.exp(-signs * sample_scores)
        total = weights.sum()
        stage_losses.append(total)
        weights = weights / total

        cumulative = cumulative + sample_scores
        stage_thresholds[stage] = np.sort(cumulative[:n_pos])[min(allowed_rejects, n_pos - 1)]

    return CascadeModel(*map(np.array, zip(*chosen)), stage_thresholds,
                        train_log={"stage_partition_losses": stage_losses})


def scan_levels(image: np.ndarray):
    """The scan pyramid of one (H, W) grayscale plane: levels SCAN_SCALE_STEP
    apart, from a PATCH_SIZE window over a MIN_FACE face to the last level a
    window fits, each resampled from the image and stacked below the last in
    one float64 plane whose row pitch is the first level's width; no window
    reads the zero padding of a narrower level. Returns (flat plane, pitch,
    (L, 3) [first row, lh, lw] per level, every window's flat origin), the
    windows SCAN_STRIDE level pixels apart, level by level, row-major."""
    if image.ndim != 2:
        raise ValueError(f"expected an (H, W) grayscale plane, got {image.shape}")
    gray = image.astype(np.float64)
    if not np.isfinite(gray).all():
        raise ValueError("image must be finite")
    h, w = gray.shape
    sizes, factor = [], PATCH_SIZE / float(MIN_FACE)
    while min(size := (round(h * factor), round(w * factor))) >= PATCH_SIZE:
        sizes.append(size)
        factor /= SCAN_SCALE_STEP
    sizes = np.array(sizes, dtype=np.intp).reshape(-1, 2)
    tops = np.cumsum(sizes[:, 0]) - sizes[:, 0]
    pitch = int(sizes[0, 1]) if len(sizes) else 0
    plane = np.zeros((sizes[:, 0].sum(), pitch))
    origins = [np.empty(0, dtype=np.intp)]
    for top, (lh, lw) in zip(tops, sizes):
        plane[top : top + lh, :lw] = resize_bilinear(gray[None], (lh, lw))[0]
        ys = np.arange(top, top + lh - PATCH_SIZE + 1, SCAN_STRIDE)
        xs = np.arange(0, lw - PATCH_SIZE + 1, SCAN_STRIDE)
        origins.append((ys[:, None] * pitch + xs).ravel())
    return plane.ravel(), pitch, np.column_stack([tops, sizes]), np.concatenate(origins)


def scan(image: np.ndarray, model: CascadeModel) -> np.ndarray:
    """Slide the cascade over the windows of scan_levels, each fern stage
    once over the alive windows of all levels; return the accepted windows,
    in order, as one (N, 5) float64 array of [x, y, w, h, cumulative score]
    rows in original coordinates. image is one finite (H, W) grayscale plane.

    A box spans exactly the image its window samples: level pixel i of an
    lw-px-wide level reads image coordinate (i + 0.5) * w / lw - 0.5, so the
    window at level pixel (x0, y0) of an lw x lh level is the box (x0 * w /
    lw - 0.5, y0 * h / lh - 0.5, ps * w / lw, ps * h / lh); on a square image
    crop_patch of it samples the window's own pixels."""
    ps = PATCH_SIZE
    plane, pitch, levels, origins = scan_levels(image)
    h, w = image.shape
    scores = np.zeros(origins.size)
    alive = np.arange(origins.size)
    x1, y1, x2, y2 = np.moveaxis(model.coords, -1, 0)
    stages = zip(y1 * pitch + x1, y2 * pitch + x2, model.thresholds, model.scores,
                 model.stage_thresholds)
    for first, second, thresholds, fern_scores, stage_threshold in stages:
        if alive.size == 0:
            break
        base = origins[alive, None]
        diffs = plane[base + first] - plane[base + second]
        scores[alive] += fern_scores[_partitions(diffs, thresholds)]
        alive = alive[scores[alive] >= stage_threshold]
    row, x0 = np.divmod(origins[alive], pitch)
    top, lh, lw = levels[np.searchsorted(levels[:, 0], row, side="right") - 1].T
    return np.column_stack([x0 * w / lw - 0.5, (row - top) * h / lh - 0.5,
                            ps * w / lw, ps * h / lh, scores[alive]])
