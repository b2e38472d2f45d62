"""Float64 reference form of ``warpdet.pipeline.detect``, kept in the tests
as an oracle: the package's own net and fit functions, run on the caller's
image as given, with one record per candidate from the per-cell decode of
``decode_oracles`` through the record-list suppression of
``suppress_oracles``. A float64 image then runs both nets in float64, as
training runs them, where ``detect`` runs them on a float32 copy.

``max_matching`` is the one-to-one maximum matching of detections to truths
that FDDB scores (Jain & Learned-Miller 2010), by brute force, beside
``pipeline.evaluate``'s greedy score-ordered matching."""

import numpy as np

from decode_oracles import level_candidates
from suppress_oracles import Candidate, nms, non_top_k
from warpdet import nn, pipeline
from warpdet.align import SingularTransformError
from warpdet.suppress import iou


def detect(image, model, options=pipeline.DetectOptions()):
    """Oracle of pipeline.detect, in the dtype of image."""
    if options.use_roi_conv:
        levels = pipeline._roi_levels(image, image, model)
    else:
        levels = pipeline._dense_levels(image)
    candidates = []
    for octave, level, mask in levels:
        state = pipeline.rpn_forward(model.rpn, level, mask)
        candidates.extend(level_candidates(model, state, octave))
    if options.suppression == "non_top_k":
        candidates = non_top_k(candidates)
    elif options.suppression == "nms":
        candidates = nms(candidates)
    final = []
    for cand in candidates:
        try:
            geometry = cand.landmarks if model.multitask else cand.box
            transform = pipeline._candidate_transform(model, geometry)
        except SingularTransformError:
            continue
        cache = pipeline.verify_forward(model, image, transform, cand.feature)
        prob = float(np.exp(nn.log_softmax(cache.logits))[1])
        final.append(Candidate(cand.box, prob, landmarks=cand.landmarks))
    return nms(final)


def max_matching(boxes, truths, iou_threshold=0.5) -> int:
    """Size of a largest one-to-one matching of one image's detection boxes
    to its truths at IoU >= iou_threshold: every matching tried, so at most
    6 boxes and 4 truths."""
    if len(boxes) > 6 or len(truths) > 4:
        raise ValueError(f"{len(boxes)} boxes and {len(truths)} truths: too many to try")

    def largest(i, free):
        if i == len(boxes):
            return 0
        return max([largest(i + 1, free)] + [
            1 + largest(i + 1, free - {t})
            for t in free if iou(boxes[i], truths[t]) >= iou_threshold])

    return largest(0, frozenset(range(len(truths))))
