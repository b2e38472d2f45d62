"""Boosted-fern cascade pre-filter.

A fern is a depth-8 stack of pixel-difference tests on a 32x32 grayscale
patch; its 8 bits index one of 256 partitions, each carrying a half-log-odds
score. Ferns are trained stagewise with RealBoost, every fern gets a soft
rejection threshold, and a sliding-window scan over an image pyramid turns
the cascade into a candidate generator. Training scores each stage's whole
candidate pool at once: one gather of pixel differences, one sort for the
thresholds and one fold for the per-partition weight sums of every candidate.

All weight reductions go through an adjacent-pair folding sum. Folding halves
exactly commute with scaling by powers of two in IEEE arithmetic, so a
training set with every sample duplicated in place produces bit-identical
partition sums after weight normalization, and therefore a bit-identical
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .roiconv import MIN_FACE, resize_bilinear

PATCH_SIZE = 32
NUM_SPLITS = 8
NUM_PARTITIONS = 1 << NUM_SPLITS
# Laplace smoothing of partition scores, as a fraction of the total weight
SMOOTHING_FRACTION = 1e-4
SCAN_SCALE_STEP = 2.0 ** (1.0 / 3.0)  # size ratio of adjacent scan pyramid levels
SCAN_STRIDE = 4                       # window step in level pixels


class TrainingError(RuntimeError):
    pass


def fold_sum(values: np.ndarray) -> float:
    """Adjacent-pair folding sum (pad to a power of two, halve repeatedly).

    Unlike a sequential sum, fold_sum([a, a, b, b, ...]) is exactly twice
    fold_sum([a, b, ...]), which the duplicated-training-set invariance of
    cascade training relies on.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        return 0.0
    size = 1 << int(np.ceil(np.log2(v.size)))
    if size != v.size:
        v = np.concatenate([v, np.zeros(size - v.size)])
    else:
        v = v.copy()
    while v.size > 1:
        v = v[0::2] + v[1::2]
    return float(v[0])


def _bucket_fold_sums(partitions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-partition folding sums of weights for each column of (n, P)
    partition indices: (P, NUM_PARTITIONS) sums, each folding its partition's
    weights in sample order.

    One segmented fold serves every column: with entries sorted by (column,
    partition, sample), each odd-ranked entry of a partition adds into its
    even-ranked predecessor, and the even ones stay at half their rank. That
    is fold_sum over each partition zero-padded to a power of two, since
    x + 0 == x.
    """
    n, cols = partitions.shape
    keys = (partitions.T + NUM_PARTITIONS * np.arange(cols)[:, None]).ravel()
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], weights[order % n]
    counts = np.bincount(keys, minlength=cols * NUM_PARTITIONS)
    ranks = np.arange(keys.size) - (np.cumsum(counts) - counts)[keys]
    while ranks.any():
        odd = (ranks & 1).astype(bool)
        values[np.flatnonzero(odd) - 1] += values[odd]
        keys, values, ranks = keys[~odd], values[~odd], ranks[~odd] >> 1
    sums = np.zeros(cols * NUM_PARTITIONS)
    sums[keys] = values
    return sums.reshape(cols, NUM_PARTITIONS)


@dataclass
class Fern:
    """Eight pixel-difference splits plus one score per bit partition."""

    coords: np.ndarray      # (8, 4) int: x1, y1, x2, y2 in patch coordinates
    thresholds: np.ndarray  # (8,) float
    scores: np.ndarray      # (256,) float

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.int64)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.coords.shape != (NUM_SPLITS, 4):
            raise ValueError(f"coords must be (8, 4), got {self.coords.shape}")
        if self.thresholds.shape != (NUM_SPLITS,):
            raise ValueError(f"thresholds must be (8,), got {self.thresholds.shape}")
        if self.scores.shape != (NUM_PARTITIONS,):
            raise ValueError(f"scores must be (256,), got {self.scores.shape}")

    def validate_coords(self, patch_size: int) -> None:
        if self.coords.min() < 0 or self.coords.max() >= patch_size:
            raise ValueError(
                f"split coordinates outside [0, {patch_size}): "
                f"{self.coords.min()}..{self.coords.max()}"
            )


def _partitions(diffs: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Partition indices from (..., 8) pixel differences: bit i is set where
    difference i is below threshold i."""
    return (diffs < thresholds) @ (1 << np.arange(NUM_SPLITS))


def _half_log_odds(pos: np.ndarray, neg: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Half-log-odds score per partition, 0.5*log(pos / neg), from the
    per-partition positive and negative weight sums; both are
    Laplace-smoothed by SMOOTHING_FRACTION of the total weight, so an empty
    partition scores exactly zero."""
    eps = SMOOTHING_FRACTION * fold_sum(weights)
    return 0.5 * np.log((pos + eps) / (neg + eps))


@dataclass
class CascadeModel:
    """Ordered ferns with one soft rejection threshold per fern."""

    ferns: list[Fern]
    stage_thresholds: np.ndarray
    patch_size: int = PATCH_SIZE
    train_log: dict = field(default_factory=dict)

    def __post_init__(self):
        self.stage_thresholds = np.asarray(self.stage_thresholds, dtype=np.float64)
        if not self.ferns:
            raise ValueError("a cascade needs at least one fern")
        if self.stage_thresholds.shape != (len(self.ferns),):
            raise ValueError("one stage threshold per fern required")
        for fern in self.ferns:
            fern.validate_coords(self.patch_size)


@dataclass
class CascadeConfig:
    """Training knobs; the full-scale default is 1000 ferns from pools of 200
    candidates at a 99% per-stage detection target, desk-scale runs use fewer
    ferns and smaller pools."""

    num_ferns: int = 1000
    candidate_pool: int = 200
    per_stage_detection_target: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if self.num_ferns < 1 or self.candidate_pool < 1:
            raise ValueError("num_ferns and candidate_pool must be at least 1")
        if not 0.0 < self.per_stage_detection_target <= 1.0:
            raise ValueError("detection target must be in (0, 1]")


def _draw_pool(rng, flat, size):
    """A stage's random fern candidates and each sample's partition under
    each. Every candidate draws uniform coordinates, then uniform quantiles of
    the empirical pixel-difference distribution; each threshold is the order
    statistic np.quantile(method="inverted_cdf") takes, n*q - 1 rounded up
    (never below 0, as q > 0), so it depends only on the difference multiset.
    Returns (coords (P, 8, 4), thresholds (P, 8), partitions (n, P))."""
    coords = np.empty((size, NUM_SPLITS, 4), dtype=np.int64)
    qs = np.empty((size, NUM_SPLITS))
    for c in range(size):
        coords[c] = rng.integers(0, PATCH_SIZE, size=(NUM_SPLITS, 4))
        qs[c] = rng.uniform(0.05, 0.95, size=NUM_SPLITS)
    x1, y1, x2, y2 = np.moveaxis(coords, -1, 0)
    diffs = flat[:, y1 * PATCH_SIZE + x1]
    diffs -= flat[:, y2 * PATCH_SIZE + x2]
    rank = np.ceil(len(diffs) * qs - 1).astype(np.intp)
    thresholds = np.take_along_axis(np.sort(diffs, axis=0), rank[None], axis=0)[0]
    return coords, thresholds, _partitions(diffs, thresholds)


def train_cascade(
    positives: np.ndarray, negatives: np.ndarray, config: CascadeConfig
) -> CascadeModel:
    """Greedy stagewise RealBoost over random fern candidates.

    Per stage: draw a candidate pool, keep the fern minimizing the
    Bhattacharyya-style error sum(2*sqrt(W+ * W-)) over partitions, set its
    partition scores, reweight with exp(-y*f) and renormalize, then calibrate
    the stage threshold so at least the target fraction of training positives
    keeps a cumulative score above it.
    """
    ps = PATCH_SIZE
    if positives.size == 0 or negatives.size == 0:
        raise ValueError("both classes must be non-empty")
    if positives.ndim != 3 or negatives.ndim != 3:
        raise ValueError("expected stacks of 2-D grayscale patches")
    if positives.shape[1:] != (ps, ps) or negatives.shape[1:] != (ps, ps):
        raise ValueError(f"patches must be {ps}x{ps}")

    rng = np.random.default_rng(config.seed)
    patches = np.concatenate([positives, negatives], dtype=np.float64)
    flat = patches.reshape(len(patches), -1)
    labels = np.concatenate(
        [np.ones(len(positives), dtype=np.int64), np.zeros(len(negatives), dtype=np.int64)]
    )
    signs = np.where(labels == 1, 1.0, -1.0)
    n = len(patches)
    weights = np.full(n, 1.0 / n)

    ferns: list[Fern] = []
    thresholds = np.empty(config.num_ferns)
    cumulative = np.zeros(n)
    stage_losses = []
    n_pos = len(positives)
    allowed_rejects = int(np.floor((1.0 - config.per_stage_detection_target) * n_pos))

    for stage in range(config.num_ferns):
        coords, threshs, parts = _draw_pool(rng, flat, config.candidate_pool)
        pos_sums = _bucket_fold_sums(parts[labels == 1], weights[labels == 1])
        neg_sums = _bucket_fold_sums(parts[labels == 0], weights[labels == 0])
        errors = 2.0 * np.sqrt(pos_sums * neg_sums)
        while errors.shape[1] > 1:  # fold_sum of each row
            errors = errors[:, 0::2] + errors[:, 1::2]
        best = int(np.argmin(errors[:, 0]))
        if np.count_nonzero(pos_sums[best] + neg_sums[best]) <= 1:
            raise TrainingError(
                f"degenerate fern pool at stage {stage}: best candidate keeps "
                "all samples in one partition"
            )
        fern = Fern(coords[best].copy(), threshs[best].copy(),
                    _half_log_odds(pos_sums[best], neg_sums[best], weights))
        ferns.append(fern)

        sample_scores = fern.scores[parts[:, best]]
        weights = weights * np.exp(-signs * sample_scores)
        total = fold_sum(weights)
        stage_losses.append(total)
        weights = weights / total

        cumulative = cumulative + sample_scores
        pos_sorted = np.sort(cumulative[labels == 1])
        thresholds[stage] = pos_sorted[min(allowed_rejects, n_pos - 1)]

    return CascadeModel(
        ferns, thresholds, train_log={"stage_partition_losses": stage_losses}
    )


def _scan_level(gray_flat, level_w, wins_x, wins_y, model, stride):
    """Vectorized soft-cascade evaluation of all windows at one pyramid level.
    Returns (alive window flat-positions, their cumulative scores)."""
    wy, wx = np.divmod(np.arange(wins_y * wins_x), wins_x)
    wy = wy * stride
    wx = wx * stride
    scores = np.zeros(wy.size)
    alive = np.arange(wy.size)
    for stage, fern in enumerate(model.ferns):
        if alive.size == 0:
            break
        x1, y1, x2, y2 = fern.coords.T
        base = wy[alive, None] * level_w + wx[alive, None]
        diffs = (
            gray_flat[base + (y1 * level_w + x1)]
            - gray_flat[base + (y2 * level_w + x2)]
        )
        scores[alive] += fern.scores[_partitions(diffs, fern.thresholds)]
        keep = scores[alive] >= model.stage_thresholds[stage]
        alive = alive[keep]
    return alive, scores[alive]


def scan(image: np.ndarray, model: CascadeModel) -> np.ndarray:
    """Slide the cascade over an image pyramid; return the accepted windows
    as one (N, 5) float64 array of [x, y, w, h, cumulative score] rows.

    Pyramid levels shrink by SCAN_SCALE_STEP starting from the level where
    the 32-pixel window covers a MIN_FACE-sized face; windows step by
    SCAN_STRIDE level pixels. Rows run level by level in row-major window
    order, in original coordinates. image is one (H, W) grayscale plane.
    """
    if image.ndim != 2:
        raise ValueError(f"expected an (H, W) grayscale plane, got {image.shape}")
    gray = image.astype(np.float64)
    h, w = gray.shape
    ps = model.patch_size
    stride = SCAN_STRIDE
    rows = []
    factor = ps / float(MIN_FACE)
    while True:
        lh, lw = int(round(h * factor)), int(round(w * factor))
        if lh < ps or lw < ps:
            break
        level = resize_bilinear(gray[None], (lh, lw))[0]
        wins_y = (lh - ps) // stride + 1
        wins_x = (lw - ps) // stride + 1
        alive, scores = _scan_level(level.ravel(), lw, wins_x, wins_y, model, stride)
        if alive.size:
            wy, wx = np.divmod(alive, wins_x)
            side = np.full(alive.size, ps / factor)
            rows.append(np.column_stack(
                [wx * stride / factor, wy * stride / factor, side, side, scores]))
        factor /= SCAN_SCALE_STEP
    return np.concatenate(rows) if rows else np.empty((0, 5))
