"""Scalar reference forms of the vectorized fern code in ``warpdet.ferns``,
kept in the tests as oracles: one patch, one fern, one scan window and one
training candidate at a time; and the 2-D-gather form of the scan's
resampler, ``roiconv.resize_bilinear``."""

import numpy as np

import warpdet.ferns
from warpdet.ferns import (
    NUM_PARTITIONS,
    NUM_SPLITS,
    PATCH_SIZE,
    SCAN_SCALE_STEP,
    SCAN_STRIDE,
    SMOOTHING_FRACTION,
    CascadeModel,
    TrainingError,
    _half_log_odds,
    _partition_sums,
)
from warpdet.roiconv import MIN_FACE


def fern_index(patch: np.ndarray, coords: np.ndarray, thresholds: np.ndarray) -> int:
    """Scalar oracle of ferns._partitions: partition index of one patch under
    one fern's (8, 4) split coordinates and (8,) thresholds; bit i is set
    when p(x1_i, y1_i) - p(x2_i, y2_i) < threshold_i."""
    x1, y1, x2, y2 = coords.T
    bits = (patch[y1, x1] - patch[y2, x2]) < thresholds
    return int(bits @ (1 << np.arange(NUM_SPLITS)))


def cascade_score(patch: np.ndarray, model: CascadeModel, early_exit: bool = True):
    """Scalar oracle of the scan's stage loop: cumulative fern score of one patch
    with soft-cascade early exit.

    Returns (score, rejected_at_stage) where rejected_at_stage is None for an
    accepted patch. With early_exit disabled the full chain is evaluated and
    the decision is derived from the same thresholds afterwards.
    """
    if patch.shape != (model.patch_size, model.patch_size):
        raise ValueError(
            f"patch must be {model.patch_size}x{model.patch_size}, got {patch.shape}"
        )
    score = 0.0
    rejected_at = None
    stages = zip(model.coords, model.thresholds, model.scores, model.stage_thresholds)
    for stage, (coords, thresholds, scores, stage_threshold) in enumerate(stages):
        score += scores[fern_index(patch, coords, thresholds)]
        if score < stage_threshold:
            if early_exit:
                return score, stage
            if rejected_at is None:
                rejected_at = stage
    return score, rejected_at


def resize_bilinear(image: np.ndarray, out_size: tuple[int, int]) -> np.ndarray:
    """Oracle of roiconv.resize_bilinear: each of the four taps of every
    output pixel read in one 2-D gather."""
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


def scan_level_sizes(shape, patch_size: int) -> list[tuple[int, int]]:
    """(lh, lw) of each scan pyramid level of an (H, W) image: from a
    MIN_FACE-sized face over one window, SCAN_SCALE_STEP apart, down to the
    last level a window fits."""
    h, w = shape
    sizes = []
    factor = patch_size / float(MIN_FACE)
    while True:
        lh, lw = int(round(h * factor)), int(round(w * factor))
        if lh < patch_size or lw < patch_size:
            return sizes
        sizes.append((lh, lw))
        factor /= SCAN_SCALE_STEP


def scan(image: np.ndarray, model: CascadeModel) -> np.ndarray:
    """Per-window oracle of ferns.scan: every window of every level of the
    oracle resampler's pyramid is scored alone by cascade_score, and each
    accepted one becomes an (x, y, w, h, score) row of Python floats, in the
    scan's order; the rows come back as an (N, 5) float64 array."""
    gray = image.astype(np.float64)
    h, w = gray.shape
    ps = model.patch_size
    rows = []
    for lh, lw in scan_level_sizes(gray.shape, ps):
        level = resize_bilinear(gray[None], (lh, lw))[0]
        for y0 in range(0, lh - ps + 1, SCAN_STRIDE):
            for x0 in range(0, lw - ps + 1, SCAN_STRIDE):
                score, rejected_at = cascade_score(level[y0 : y0 + ps, x0 : x0 + ps], model)
                if rejected_at is None:
                    rows.append((x0 * w / lw - 0.5, y0 * h / lh - 0.5,
                                 ps * w / lw, ps * h / lh, float(score)))
    return np.array(rows, dtype=np.float64).reshape(-1, 5)


# --------------------------------------------------------------------------
# per-candidate cascade training, the oracle of ferns.train_cascade


def _bucket_sums(partitions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-partition sums of weights, one sample at a time: each weight adds
    into its partition's sum in sample order. Returns an array of
    NUM_PARTITIONS sums."""
    sums = np.zeros(NUM_PARTITIONS)
    for part, weight in zip(partitions, weights):
        sums[part] += weight
    return sums


def _indices_flat(patches_flat: np.ndarray, coords: np.ndarray, thresholds: np.ndarray,
                  patch_size: int) -> np.ndarray:
    """Partition indices for (B, patch_size*patch_size) flattened patches
    under one fern's split coordinates and thresholds."""
    x1, y1, x2, y2 = coords.T
    diffs = patches_flat[:, y1 * patch_size + x1] - patches_flat[:, y2 * patch_size + x2]
    bits = diffs < thresholds
    return bits @ (1 << np.arange(NUM_SPLITS))


def partition_scores(
    partitions: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """The fern scores train_cascade gives one column of partition indices:
    the half-log-odds of each class's weight sums, through the pooled
    bincount of ferns._partition_sums."""
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    column = np.asarray(partitions)[:, None]
    pos = _partition_sums(column[labels == 1], weights[labels == 1])[0]
    neg = _partition_sums(column[labels == 0], weights[labels == 0])[0]
    return _half_log_odds(pos, neg, weights)


def partition_scores_reference(
    partitions: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Half-log-odds score per partition: 0.5*log(sum of positive weights /
    sum of negative weights), both sums Laplace-smoothed by SMOOTHING_FRACTION
    of the total weight so empty partitions score exactly zero."""
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    pos = _bucket_sums(partitions[labels == 1], weights[labels == 1])
    neg = _bucket_sums(partitions[labels == 0], weights[labels == 0])
    eps = SMOOTHING_FRACTION * weights.sum()
    return 0.5 * np.log((pos + eps) / (neg + eps))


def _draw_candidate(rng, patches_flat, patch_size):
    """One random fern candidate: uniform coordinates, thresholds drawn from
    the empirical pixel-difference distribution's quantiles (inverted CDF, so
    the draw only depends on the difference multiset's distribution)."""
    coords = rng.integers(0, patch_size, size=(NUM_SPLITS, 4))
    x1, y1, x2, y2 = coords.T
    diffs = (
        patches_flat[:, y1 * patch_size + x1] - patches_flat[:, y2 * patch_size + x2]
    )
    qs = rng.uniform(0.05, 0.95, size=NUM_SPLITS)
    thresholds = np.array(
        [
            np.quantile(diffs[:, i], qs[i], method="inverted_cdf")
            for i in range(NUM_SPLITS)
        ],
        dtype=np.float64,
    )
    return coords, thresholds


def train_cascade_reference(
    positives: np.ndarray, negatives: np.ndarray, num_ferns: int, seed: int
) -> CascadeModel:
    """Greedy stagewise RealBoost over random fern candidates, reading the
    pool size and the stage target from warpdet.ferns when it is called.

    Per stage: draw a candidate pool, keep the fern minimizing the
    Bhattacharyya-style error sum(2*sqrt(W+ * W-)) over partitions, set its
    partition scores, reweight with exp(-y*f) and renormalize, then calibrate
    the stage threshold so at least the target fraction of training positives
    keeps a cumulative score above it.
    """
    ps = PATCH_SIZE
    if positives.ndim != 3 or negatives.ndim != 3:
        raise ValueError("expected stacks of 2-D grayscale patches")
    if len(positives) == 0 or len(negatives) == 0:
        raise ValueError("both classes must be non-empty")
    if positives.shape[1:] != (ps, ps) or negatives.shape[1:] != (ps, ps):
        raise ValueError(f"patches must be {ps}x{ps}")

    rng = np.random.default_rng(seed)
    patches = np.concatenate([positives, negatives]).astype(np.float64)
    flat = patches.reshape(len(patches), -1)
    labels = np.concatenate(
        [np.ones(len(positives), dtype=np.int64), np.zeros(len(negatives), dtype=np.int64)]
    )
    signs = np.where(labels == 1, 1.0, -1.0)
    n = len(patches)
    weights = np.full(n, 1.0 / n)

    coords = np.empty((num_ferns, NUM_SPLITS, 4), dtype=np.int64)
    thresholds = np.empty((num_ferns, NUM_SPLITS))
    scores = np.empty((num_ferns, NUM_PARTITIONS))
    stage_thresholds = np.empty(num_ferns)
    cumulative = np.zeros(n)
    stage_losses = []
    n_pos = len(positives)
    allowed_rejects = int(np.floor((1.0 - warpdet.ferns.STAGE_DETECTION_TARGET) * n_pos))

    for stage in range(num_ferns):
        best = None
        for _ in range(warpdet.ferns.CANDIDATE_POOL):
            cand = _draw_candidate(rng, flat, ps)
            parts = _indices_flat(flat, *cand, ps)
            pos_sums = _bucket_sums(parts[labels == 1], weights[labels == 1])
            neg_sums = _bucket_sums(parts[labels == 0], weights[labels == 0])
            error = np.sqrt(pos_sums * neg_sums).sum()
            occupied = int(np.count_nonzero(pos_sums + neg_sums))
            if best is None or error < best[0]:
                best = (error, cand, parts, occupied)
        error, (coords[stage], thresholds[stage]), parts, occupied = best
        if occupied <= 1:
            raise TrainingError(
                f"degenerate fern pool at stage {stage}: best candidate keeps "
                "all samples in one partition"
            )
        scores[stage] = partition_scores_reference(parts, labels, weights)

        sample_scores = scores[stage][parts]
        weights = weights * np.exp(-signs * sample_scores)
        total = weights.sum()
        stage_losses.append(total)
        weights = weights / total

        cumulative = cumulative + sample_scores
        pos_sorted = np.sort(cumulative[labels == 1])
        stage_thresholds[stage] = pos_sorted[min(allowed_rejects, n_pos - 1)]

    return CascadeModel(coords, thresholds, scores, stage_thresholds,
                        train_log={"stage_partition_losses": stage_losses})
