"""Candidate filtering: IoU, greedy NMS, and non-top-K suppression.

Non-top-K keeps the K highest-scoring candidates inside each local cluster
instead of only the cluster maximum, so a downstream verifier gets several
shots at every potential face. Clusters are grown greedily: the best-scoring
unassigned detection seeds a cluster and absorbs every unassigned detection
overlapping it by at least the IoU threshold. With K = 1 this reduces exactly
to greedy NMS. The IoU threshold (0.5) and K (3) are the paper's fixed
choices, held as the constants IOU_THRESHOLD and TOP_K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IOU_THRESHOLD = 0.5  # overlap at which a detection joins a cluster
TOP_K = 3            # detections kept per cluster by non-top-K


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


def nms(detections) -> list[Detection]:
    """Greedy non-maximum suppression: walk in score order, keep a detection
    iff it overlaps every already-kept detection below the IoU threshold.
    This is non_top_k with K = 1."""
    return non_top_k(detections, 1)


def non_top_k(detections, k: int = TOP_K) -> list[Detection]:
    """Keep the top-k detections per greedy IoU cluster, in score order.

    Every NMS survivor at the same threshold seeds a cluster and heads it,
    even a zero-area box, whose IoU with itself is 0; so the result is a
    superset of the NMS output.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
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
            if iou(seed.box, detections[other_idx].box) >= IOU_THRESHOLD:
                assigned[other_idx] = True
                cluster.append(detections[other_idx])
        kept.extend(cluster[:k])  # cluster is already in score order
    return kept
