"""Float64 reference form of ``warpdet.pipeline.detect``, kept in the tests
as an oracle: the package's own stage functions, run on the caller's image
as given. A float64 image then runs both nets in float64, as training runs
them, where ``detect`` runs them on a float32 copy."""

import numpy as np

from warpdet import nn, pipeline
from warpdet.align import SingularTransformError
from warpdet.suppress import Detection, nms, non_top_k


def detect(image, model, options=pipeline.DetectOptions()):
    """Oracle of pipeline.detect, in the dtype of image."""
    if options.use_roi_conv:
        levels = pipeline._roi_levels(image, image, model)
    else:
        levels = pipeline._dense_levels(image)
    candidates = []
    for octave, level, mask in levels:
        state = pipeline.rpn_forward(model.rpn, level, mask)
        candidates.extend(pipeline._level_candidates(model, state, octave))
    if options.suppression == "non_top_k":
        candidates = non_top_k(candidates)
    elif options.suppression == "nms":
        candidates = nms(candidates)
    final = []
    for cand in candidates:
        try:
            transform = pipeline._candidate_transform(model, cand.landmarks, cand.box)
        except SingularTransformError:
            continue
        cache = pipeline.verify_forward(model, image, transform, cand.feature)
        prob = float(np.exp(nn.log_softmax(cache.logits))[1])
        final.append(Detection(cand.box, prob, landmarks=cand.landmarks))
    return nms(final)
