"""Candidate filtering: IoU, greedy NMS, and non-top-K suppression.

Candidates are one (N, 5) float64 array of [x, y, w, h, score] rows, the
layout ferns.scan also returns; each filter returns the indices of the rows
it keeps, in output order. Non-top-K keeps the K highest-scoring candidates
inside each local cluster instead of only the cluster maximum, so a
downstream verifier gets several shots at every potential face. Clusters are
grown greedily: the best-scoring unassigned row seeds a cluster and absorbs
every unassigned row overlapping it by at least the IoU threshold. With K = 1
this reduces exactly to greedy NMS. The IoU threshold (0.5) and K (3) are the
paper's fixed choices, held as the constants IOU_THRESHOLD and TOP_K.
"""

from __future__ import annotations

import numpy as np

IOU_THRESHOLD = 0.5  # overlap at which a candidate joins a cluster
TOP_K = 3            # candidates kept per cluster by non-top-K


def iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def nms(rows) -> list[int]:
    """Greedy non-maximum suppression: walk in score order, keep a row iff
    it overlaps every already-kept row below the IoU threshold. This is
    non_top_k with K = 1."""
    return non_top_k(rows, 1)


def non_top_k(rows, k: int = TOP_K) -> list[int]:
    """Indices of the top-k rows of each greedy IoU cluster, in score order.

    Rows are walked by score descending, ties going to the lower x, then the
    lower y, then the lower index. Every NMS survivor at the same threshold
    seeds a cluster and heads it, even a zero-area box, whose IoU with itself
    is 0; so the result is a superset of the NMS output. The IoUs are Python
    float arithmetic, so a box with an infinite side raises no warning.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    rows = np.asarray(rows).tolist()
    boxes = [row[:4] for row in rows]
    order = sorted(range(len(rows)), key=lambda i: (-rows[i][4], rows[i][0], rows[i][1]))
    assigned = [False] * len(rows)
    kept: list[int] = []
    for pos, seed in enumerate(order):
        if assigned[seed]:
            continue
        cluster = [seed]
        for other in order[pos + 1 :]:
            if not assigned[other] and iou(boxes[seed], boxes[other]) >= IOU_THRESHOLD:
                assigned[other] = True
                cluster.append(other)
        kept.extend(cluster[:k])  # cluster is already in score order
    return kept
