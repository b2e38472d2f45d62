"""Record-list reference forms of the suppression in ``warpdet.suppress``,
kept in the tests as oracles: each candidate is one ``Candidate`` object,
and the filters walk and return lists of them, where the package carries
one (N, 5) row array and returns the kept row indices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from warpdet.suppress import IOU_THRESHOLD, TOP_K, iou


@dataclass
class Candidate:
    """One proposal: scored box, optionally with its predicted landmarks and
    the proposal-net feature column at its cell."""

    box: tuple  # (x, y, w, h) at original image resolution
    score: float
    landmarks: np.ndarray | None = None  # (5, 2), source-image coordinates
    feature: np.ndarray | None = None


def sorted_order(candidates) -> list[int]:
    # score descending; ties broken by lower box x, then y, for determinism
    return sorted(
        range(len(candidates)),
        key=lambda i: (-candidates[i].score, candidates[i].box[0], candidates[i].box[1]),
    )


def nms(candidates) -> list[Candidate]:
    """Oracle of suppress.nms: non_top_k with K = 1."""
    return non_top_k(candidates, 1)


def non_top_k(candidates, k: int = TOP_K) -> list[Candidate]:
    """Oracle of suppress.non_top_k: the kept candidates themselves."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    order = sorted_order(candidates)
    assigned = [False] * len(candidates)
    kept: list[Candidate] = []
    for pos, seed_idx in enumerate(order):
        if assigned[seed_idx]:
            continue
        seed = candidates[seed_idx]
        cluster = [seed]
        for other_idx in order[pos + 1 :]:
            if assigned[other_idx]:
                continue
            if iou(seed.box, candidates[other_idx].box) >= IOU_THRESHOLD:
                assigned[other_idx] = True
                cluster.append(candidates[other_idx])
        kept.extend(cluster[:k])  # cluster is already in score order
    return kept
