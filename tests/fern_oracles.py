"""Scalar reference forms of the vectorized fern code in ``warpdet.ferns``,
kept in the tests as oracles: one patch and one fern at a time."""

import numpy as np

from warpdet.ferns import NUM_SPLITS, CascadeModel, Fern


def fern_index(patch: np.ndarray, fern: Fern) -> int:
    """Scalar oracle of ferns._indices_flat: partition index of one patch;
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
