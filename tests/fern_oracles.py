"""Scalar reference forms of the vectorized fern code in ``warpdet.ferns``,
kept in the tests as oracles: one patch, one fern, one scan window and one
training candidate at a time."""

import numpy as np

from warpdet.ferns import (
    NUM_PARTITIONS,
    NUM_SPLITS,
    PATCH_SIZE,
    SCAN_SCALE_STEP,
    SCAN_STRIDE,
    SMOOTHING_FRACTION,
    CascadeConfig,
    CascadeModel,
    Fern,
    TrainingError,
    _half_log_odds,
    _scan_level,
    fold_sum,
)
from warpdet.ferns import _bucket_fold_sums as _pooled_fold_sums
from warpdet.roiconv import MIN_FACE, resize_bilinear


def fern_index(patch: np.ndarray, fern: Fern) -> int:
    """Scalar oracle of ferns._partitions: partition index of one patch;
    bit i is set when p(x1_i, y1_i) - p(x2_i, y2_i) < threshold_i."""
    x1, y1, x2, y2 = fern.coords.T
    bits = (patch[y1, x1] - patch[y2, x2]) < fern.thresholds
    return int(bits @ (1 << np.arange(NUM_SPLITS)))


def cascade_score(patch: np.ndarray, model: CascadeModel, early_exit: bool = True):
    """Scalar oracle of ferns._scan_level: cumulative fern score of one patch
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
    for stage, fern in enumerate(model.ferns):
        score += fern.scores[fern_index(patch, fern)]
        if score < model.stage_thresholds[stage]:
            if early_exit:
                return score, stage
            if rejected_at is None:
                rejected_at = stage
    return score, rejected_at


def scan(image: np.ndarray, model: CascadeModel) -> np.ndarray:
    """Per-window oracle of ferns.scan: each surviving window of each
    pyramid level becomes one (x, y, w, h, score) row of Python floats, in
    the scan's order; the rows come back as an (N, 5) float64 array."""
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
        for flat_pos, score in zip(alive, scores):
            wy, wx = divmod(int(flat_pos), wins_x)
            rows.append((wx * stride / factor, wy * stride / factor,
                         ps / factor, ps / factor, float(score)))
        factor /= SCAN_SCALE_STEP
    return np.array(rows, dtype=np.float64).reshape(-1, 5)


# --------------------------------------------------------------------------
# per-candidate cascade training, the oracle of ferns.train_cascade


def _bucket_fold_sums(partitions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-partition folding sums of weights, order-preserving within each
    partition. Returns an array of NUM_PARTITIONS sums."""
    if partitions.size == 0:
        return np.zeros(NUM_PARTITIONS)
    order = np.argsort(partitions, kind="stable")
    sorted_parts = partitions[order]
    counts = np.bincount(sorted_parts, minlength=NUM_PARTITIONS)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    ranks = np.arange(partitions.size) - offsets[sorted_parts]
    width = 1 << max(0, int(np.ceil(np.log2(max(1, counts.max())))))
    mat = np.zeros((NUM_PARTITIONS, width))
    mat[sorted_parts, ranks] = weights[order]
    while mat.shape[1] > 1:
        mat = mat[:, 0::2] + mat[:, 1::2]
    return mat[:, 0]


def _indices_flat(patches_flat: np.ndarray, fern: Fern, patch_size: int) -> np.ndarray:
    """Partition indices for (B, patch_size*patch_size) flattened patches."""
    x1, y1, x2, y2 = fern.coords.T
    diffs = patches_flat[:, y1 * patch_size + x1] - patches_flat[:, y2 * patch_size + x2]
    bits = diffs < fern.thresholds
    return bits @ (1 << np.arange(NUM_SPLITS))


def partition_scores(
    partitions: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """The fern scores train_cascade gives one column of partition indices:
    the half-log-odds of each class's weight sums, through the pooled fold
    of ferns._bucket_fold_sums."""
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    column = np.asarray(partitions)[:, None]
    pos = _pooled_fold_sums(column[labels == 1], weights[labels == 1])[0]
    neg = _pooled_fold_sums(column[labels == 0], weights[labels == 0])[0]
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
    pos = _bucket_fold_sums(partitions[labels == 1], weights[labels == 1])
    neg = _bucket_fold_sums(partitions[labels == 0], weights[labels == 0])
    eps = SMOOTHING_FRACTION * fold_sum(weights)
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
    if positives.ndim != 3 or negatives.ndim != 3:
        raise ValueError("expected stacks of 2-D grayscale patches")
    if len(positives) == 0 or len(negatives) == 0:
        raise ValueError("both classes must be non-empty")
    if positives.shape[1:] != (ps, ps) or negatives.shape[1:] != (ps, ps):
        raise ValueError(f"patches must be {ps}x{ps}")

    rng = np.random.default_rng(config.seed)
    patches = np.concatenate([positives, negatives]).astype(np.float64)
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
        best = None
        for _ in range(config.candidate_pool):
            coords, threshs = _draw_candidate(rng, flat, ps)
            cand = Fern(coords, threshs, np.zeros(NUM_PARTITIONS))
            parts = _indices_flat(flat, cand, ps)
            pos_sums = _bucket_fold_sums(parts[labels == 1], weights[labels == 1])
            neg_sums = _bucket_fold_sums(parts[labels == 0], weights[labels == 0])
            error = fold_sum(2.0 * np.sqrt(pos_sums * neg_sums))
            occupied = int(np.count_nonzero(pos_sums + neg_sums))
            if best is None or error < best[0]:
                best = (error, cand, parts, occupied)
        error, fern, parts, occupied = best
        if occupied <= 1:
            raise TrainingError(
                f"degenerate fern pool at stage {stage}: best candidate keeps "
                "all samples in one partition"
            )
        fern.scores = partition_scores_reference(parts, labels, weights)
        ferns.append(fern)

        sample_scores = fern.scores[parts]
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
