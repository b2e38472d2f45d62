"""Candidate filtering: IoU, greedy NMS, and non-top-K suppression.

Non-top-K keeps the K highest-scoring candidates inside each local cluster
instead of only the cluster maximum, so a downstream verifier gets several
shots at every potential face. Clusters are grown greedily: the best-scoring
unassigned detection seeds a cluster and absorbs every unassigned detection
overlapping it by at least the IoU threshold. With K = 1 this reduces exactly
to greedy NMS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class SuppressionConfig:
    iou_threshold: float = 0.5
    k: int = 3

    def __post_init__(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")


@dataclass
class Detection:
    """Scored candidate box, optionally carrying predicted landmarks."""

    box: tuple  # (x, y, w, h) at original image resolution
    score: float
    landmarks: np.ndarray | None = None  # (N, 2), source-image coordinates
    feature: np.ndarray | None = None  # proposal-net feature column at the cell

    @property
    def x(self):
        return self.box[0]

    @property
    def y(self):
        return self.box[1]

    @property
    def w(self):
        return self.box[2]

    @property
    def h(self):
        return self.box[3]


def iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def _sorted_order(detections) -> list[int]:
    # score descending; ties broken by lower box x, then y, for determinism
    return sorted(
        range(len(detections)),
        key=lambda i: (-detections[i].score, detections[i].x, detections[i].y),
    )


def nms(detections, config: SuppressionConfig = SuppressionConfig()) -> list[Detection]:
    """Greedy non-maximum suppression: walk in score order, keep a detection
    iff it overlaps every already-kept detection below the IoU threshold.
    This is non_top_k with K = 1; config.k is ignored."""
    return non_top_k(detections, replace(config, k=1))


def non_top_k(
    detections, config: SuppressionConfig = SuppressionConfig()
) -> list[Detection]:
    """Keep the top-K detections per greedy IoU cluster, in score order.

    Every NMS survivor at the same threshold seeds a cluster and heads it,
    even a zero-area box, whose IoU with itself is 0; so the result is a
    superset of the NMS output.
    """
    order = _sorted_order(detections)
    assigned = [False] * len(detections)
    kept: list[Detection] = []
    for pos, seed_idx in enumerate(order):
        if assigned[seed_idx]:
            continue
        seed = detections[seed_idx]
        cluster = [seed]
        for other_idx in order[pos + 1 :]:
            if assigned[other_idx]:
                continue
            if iou(seed.box, detections[other_idx].box) >= config.iou_threshold:
                assigned[other_idx] = True
                cluster.append(detections[other_idx])
        kept.extend(cluster[: config.k])  # cluster is already in score order
    return kept
