"""Per-cell reference forms of the proposal decode in ``warpdet.pipeline``
and of the batched box fit in ``warpdet.synthetic``, kept in the tests as
oracles: one cell is decoded, and one landmark set fitted, at a time."""

import numpy as np

from warp_oracles import estimate_similarity, inverse_map
from warpdet import nn
from warpdet.align import SingularTransformError
from warpdet.pipeline import POINT_SCALE, PROPOSAL_THRESHOLD, cell_centers
from warpdet.suppress import Detection
from warpdet.synthetic import ELLIPSE_AXES, GLYPH_LANDMARKS


def box_from_landmarks(landmarks) -> tuple:
    """Oracle of one row of synthetic.box_from_landmarks: the face box of
    five (5, 2) landmarks; raises SingularTransformError where the batched
    fit flags the row."""
    t = estimate_similarity(np.asarray(landmarks), GLYPH_LANDMARKS)
    origin = inverse_map(t, np.array([0.0, 0.0]))
    e1 = inverse_map(t, np.array([1.0, 0.0])) - origin
    e2 = inverse_map(t, np.array([0.0, 1.0])) - origin
    ax, ay = ELLIPSE_AXES
    hw = np.hypot(ax * e1[0], ay * e2[0])
    hh = np.hypot(ax * e1[1], ay * e2[1])
    return (origin[0] - hw, origin[1] - hh, 2 * hw, 2 * hh)


def decode_cell(state, i, j, multitask: bool, scale: float = 1.0):
    """Oracle of one row of pipeline._decode_cells: (five landmarks, None)
    from the landmark head, or (None, square box) from the box head."""
    xs, ys = cell_centers(state.point.shape[1], state.point.shape[2])
    if multitask:
        center = np.array([xs[j], ys[i]])
        return (state.point[:, i, j].reshape(5, 2) * POINT_SCALE + center) * scale, None
    dx, dy, dlog = state.point[:, i, j]
    cx = xs[j] + dx * POINT_SCALE
    cy = ys[i] + dy * POINT_SCALE
    side = POINT_SCALE * np.exp(dlog)
    x, y = cx - side / 2.0, cy - side / 2.0
    return None, (x * scale, y * scale, side * scale, side * scale)


def level_candidates(model, state, octave):
    """Oracle of pipeline._level_candidates: every eligible cell decoded and
    fitted on its own, in row-major order; a cell whose fit raises
    SingularTransformError proposes nothing."""
    probs = np.exp(nn.log_softmax(state.score.reshape(2, -1).T))[:, 1]
    probs = probs.reshape(state.score.shape[1:])
    eligible = probs >= PROPOSAL_THRESHOLD
    if state.head_mask is not None:
        eligible &= state.head_mask.bits
    out = []
    for i, j in np.argwhere(eligible):
        lms, box = decode_cell(state, i, j, model.multitask, 2.0**octave)
        if box is None:
            try:
                box = box_from_landmarks(lms)
            except SingularTransformError:
                continue
        out.append(
            Detection(
                box=box,
                score=float(probs[i, j]),
                landmarks=lms,
                feature=state.feat[:, i, j].copy() if model.use_concat else None,
            )
        )
    return out
