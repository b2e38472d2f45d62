"""Per-cell reference forms of the proposal decode in ``warpdet.pipeline``
and of the batched box fit in ``warpdet.synthetic``, kept in the tests as
oracles: one cell is decoded, and one landmark set fitted, at a time, and
each candidate is one record."""

import numpy as np

from suppress_oracles import Candidate
from warp_oracles import estimate_similarity, inverse_map
from warpdet import nn
from warpdet.align import SingularTransformError
from warpdet.pipeline import POINT_SCALE, PROPOSAL_THRESHOLD, cell_centers
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
    """Oracle of one row of pipeline._decode_cells: five landmarks from the
    landmark head, or a square box from the box head."""
    xs, ys = cell_centers(state.point.shape[1], state.point.shape[2])
    if multitask:
        center = np.array([xs[j], ys[i]])
        return (state.point[:, i, j].reshape(5, 2) * POINT_SCALE + center) * scale
    dx, dy, dlog = state.point[:, i, j]
    cx = xs[j] + dx * POINT_SCALE
    cy = ys[i] + dy * POINT_SCALE
    side = POINT_SCALE * np.exp(dlog)
    x, y = cx - side / 2.0, cy - side / 2.0
    return (x * scale, y * scale, side * scale, side * scale)


def level_candidates(model, state, octave):
    """Oracle of pipeline._level_candidates: every eligible cell decoded and
    fitted on its own, in row-major order; a cell whose fit raises
    SingularTransformError proposes nothing. Every candidate carries its
    proposal feature, and its landmarks from the landmark head."""
    probs = np.exp(nn.log_softmax(state.score.reshape(2, -1).T))[:, 1]
    probs = probs.reshape(state.score.shape[1:])
    eligible = probs >= PROPOSAL_THRESHOLD
    if state.head_mask is not None:
        eligible &= state.head_mask.bits
    out = []
    for i, j in np.argwhere(eligible):
        lms = box = decode_cell(state, i, j, model.multitask, 2.0**octave)
        if model.multitask:
            try:
                box = box_from_landmarks(lms)
            except SingularTransformError:
                continue
        else:
            lms = None
        out.append(
            Candidate(
                box=box,
                score=float(probs[i, j]),
                landmarks=lms,
                feature=state.feat[:, i, j].copy(),
            )
        )
    return out


def level_candidate_rows(model, state, octave):
    """level_candidates in the arrays that pipeline._level_candidates
    returns: (N, 5) rows, the geometry ((N, 5, 2) landmarks, or (N, 4)
    boxes from the box head) and (N, C) features in the maps' dtype."""
    cands = level_candidates(model, state, octave)
    rows = np.array([[*c.box, c.score] for c in cands], dtype=np.float64).reshape(-1, 5)
    geometry = rows[:, :4].copy()
    if model.multitask:
        geometry = np.array([c.landmarks for c in cands], dtype=np.float64).reshape(-1, 5, 2)
    feats = np.array([c.feature for c in cands], dtype=state.feat.dtype)
    return rows, geometry, feats.reshape(len(cands), len(state.feat))
