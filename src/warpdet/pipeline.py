"""End-to-end two-stage detector over the synthetic corpus.

Stage one is a proposal net: a convolution trunk (stride 8, receptive field
85) with a per-cell face score and a per-cell five-landmark regression.
Stage two warps each surviving candidate to a canonical 64x64 pose using the
closed-form similarity fit, runs a verification net on the crop, and
arbitrates face/non-face over the concatenated proposal + verification
features. Joint training backpropagates the verdict loss through the warp
into the predicted landmarks and the canonical positions.

Both nets open with a trunk of conv -> relu -> optional 2x2 max-pool
blocks, given as a (layer, pooled) table by RpnNet.trunk and RcnnNet.trunk.
One loop runs either table forward, keeping one record per block, and one
walks the records back. Inference runs the proposal trunk densely over an
image pyramid, or only inside ROI masks built from a boosted-fern
pre-filter's candidates; the same forward loop halves the mask at each
stride-2 conv and each pooling. The four net functions add only what
differs: the 1x1 heads in the proposal net, and the fc feature, l2
normalisation, concatenation and verdict head in the verification net.
Detection and the joint step hold their candidates in one record of two
arrays gathered at proposal cells: the geometry, (N, 5, 2) landmarks or,
from the box head, (N, 4) boxes, and the (N, C) proposal features, which
verify_forward reads only with the concatenation. Inference fits a level's
landmark boxes in one closed-form pass. An image's proposals travel as one
(N, 5) [x, y, w, h, score] row array, the record beside it, through
non-top-K, which returns the indices of the rows it keeps, into
verification; the verified rows, scored by their verdicts, go on as one
such array into the final NMS. Detection is only detect's output record.

Training runs in float64. Detection runs every convolution of both nets in
INFERENCE_DTYPE, float32: detect casts the image once, and the conv kernels
cast the float64 model's filters to the dtype of the map they convolve. warp
samples each candidate crop in the image's dtype, so the verification trunk
reads a float32 crop; the verification net's fc layer, l2 normalisation and
verdict then run in float64, as numpy promotes the float32 trunk output
against the float64 weights. The fern pre-filter scans the
caller's image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .align import (
    SimilarityTransform,
    SingularTransformError,
    estimate_similarity,
    landmark_and_canonical_gradients,
    warp,
    warp_backward,
)
from .ferns import PATCH_SIZE, check_int, train_cascade
from .ferns import scan as cascade_scan
from .model import ConvLayer, DetectorModel, RpnNet, create_detector
from .nn import ShapeError
from .roiconv import (
    RoiMask,
    RoiPyramid,
    downsample_mask,
    group_candidates,
    octave_levels,
    roi_conv_forward,
)
from .suppress import iou, nms, non_top_k
from .synthetic import box_from_landmarks

CELL_STRIDE = 8
CELL_OFFSET = 3.0
PROPOSAL_THRESHOLD = 0.5  # face probability at which a proposal cell is a candidate
L2_EPS = 1e-6
NEGATIVES_PER_IMAGE = 3   # face-free crops per corpus image for the pre-filter
# The training recipe's fixed choices. The regression head's outputs are
# offsets in units of POINT_SCALE px, which the targets, the loss, the decode
# and the warp supervision all read.
POINT_SCALE = 48.0
POS_RADIUS = 0.15         # cells this near a face, as a share of its side, are positives
IGNORE_RADIUS = 0.55      # other cells this near are neither positive nor negative
LAMBDA_LANDMARK = 3.0     # weight of the landmark loss against the score loss
VERIFY_SAMPLES = 2        # positive and negative verification cells each, per image
RPN_CHANNELS = (8, 12, 16)
RCNN_CHANNELS = (8, 16)
RCNN_FEATURE = 48
RECT_SIZE = 64
LEARNING_RATE = 0.01
MOMENTUM = 0.9
CANONICAL_LR_SCALE = 2.0
# weight of the verdict loss's gradient on the predicted landmarks; the raw
# chain is orders of magnitude stronger than the landmark MSE term and would
# swamp the shared trunk at desk scale
WARP_SUPERVISION_SCALE = 0.02
# weight of the verdict loss's gradient on the proposal feature column; damps
# the multi-task tug-of-war that otherwise erodes landmark accuracy
CONCAT_SUPERVISION_SCALE = 0.1
INFERENCE_DTYPE = np.float32  # dtype in which detect runs the proposal and verification nets


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3  # joint epochs
    seed: int = 0

    def __post_init__(self):
        check_int("epochs", self.epochs, 0)
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class DetectOptions:
    use_roi_conv: bool = False
    suppression: str = "non_top_k"  # non_top_k | nms | none

    def __post_init__(self):
        if type(self.use_roi_conv) is not bool:
            raise ValueError(f"use_roi_conv must be a bool, got {self.use_roi_conv!r}")
        if self.suppression not in ("non_top_k", "nms", "none"):
            raise ValueError(f"unknown suppression mode {self.suppression!r}")


def build_detector(config: TrainConfig, multitask: bool = True,
                   use_concat: bool = True, supervised_transform: bool = True
                   ) -> DetectorModel:
    """Randomly initialized detector; ablation switches select the variant."""
    return create_detector(
        np.random.default_rng(config.seed), RPN_CHANNELS, RCNN_CHANNELS,
        RCNN_FEATURE, multitask=multitask, use_concat=use_concat,
        supervised_transform=supervised_transform, rect_size=RECT_SIZE,
    )


# --------------------------------------------------------------------------
# conv trunks, shared by both nets


def _conv(layer: ConvLayer, x, mask=None):
    if mask is None:
        return nn.conv2d_forward(x, layer.filters, layer.spec, bias=layer.bias)
    return roi_conv_forward(x, layer.filters, mask, layer.spec, bias=layer.bias)


def _trunk_forward(trunk, x, mask: RoiMask | None = None):
    """Run a net's (conv, pooled) blocks on x: conv -> relu, then a 2x2
    max-pool where pooled is set.

    With an ROI mask at x's resolution, the mask halves at each stride-2 conv
    and each pooling, and every conv runs only inside it. Each pooled map is
    then zero outside its mask: the conv writes zeros outside the mask, and a
    cell outside the OR-halved mask pools only such zeros. Returns (output,
    the mask at the output's resolution or None, one (input, relu output,
    pooled or None) record per block).
    """
    records = []
    for layer, pooled in trunk:
        if mask is not None and layer.spec.stride == 2:
            mask = downsample_mask(mask)
        a = nn.relu(_conv(layer, x, mask))
        p = None
        if pooled:
            p = nn.maxpool2x2(a)
            if mask is not None:
                mask = downsample_mask(mask)
        records.append((x, a, p))
        x = a if p is None else p
    return x, mask, records


def _trunk_backward(trunk, records, d_out, input_grad):
    """Backward through the blocks _trunk_forward ran, last to first.

    A pooling stores no argmax: its backward re-derives the routing from the
    relu and pooled maps, which is exact on the dense path, the only one
    training runs. The relu's backward reads its output, which is positive
    exactly where its input is. A pooled block gates the relu at pooled
    resolution, before the routing: a pooled gradient reaches only its
    block's winner, whose relu output is the pooled value, so on a finite map
    this is relu_backward of the routed gradient, byte for byte, on a quarter
    of the cells. Returns (gradient of the trunk's input, or None unless
    input_grad is set, [d_w, d_b] of each block in block order)."""
    grads = []
    for n, ((layer, _), (x, a, p)) in enumerate(
            zip(reversed(trunk), reversed(records)), start=1):
        if p is None:
            d_z = nn.relu_backward(d_out, a)
        else:
            d_z = nn.maxpool2x2_backward(d_out * (p > 0), a, p)
        d_out, d_w, d_b = nn.conv2d_backward(
            d_z, x, layer.filters, layer.spec, input_grad or n < len(trunk))
        grads[:0] = [d_w, d_b]
    return d_out, grads


# --------------------------------------------------------------------------
# proposal net forward/backward


@dataclass
class RpnState:
    """One proposal-net pass, kept for rpn_backward: the trunk's block
    records, its feature map, both head maps, and on the ROI path the mask
    at head resolution, outside which both head maps are zero."""

    trunk: list
    feat: np.ndarray
    score: np.ndarray
    point: np.ndarray
    head_mask: RoiMask | None = None


def rpn_forward(rpn: RpnNet, image: np.ndarray, mask: RoiMask | None = None) -> RpnState:
    """Run the proposal trunk and heads densely, or inside an
    input-resolution ROI mask."""
    feat, head_mask, records = _trunk_forward(rpn.trunk(), image, mask)
    score = _conv(rpn.score_head, feat, head_mask)
    point = _conv(rpn.point_head, feat, head_mask)
    return RpnState(records, feat, score, point, head_mask)


def rpn_backward(rpn: RpnNet, state: RpnState, d_score, d_point, d_feat_extra=None):
    """Gradients for every proposal-net parameter (dense path only)."""
    d_feat, d_ws, d_bs = nn.conv2d_backward(
        d_score, state.feat, rpn.score_head.filters, rpn.score_head.spec
    )
    d_feat_p, d_wp, d_bp = nn.conv2d_backward(
        d_point, state.feat, rpn.point_head.filters, rpn.point_head.spec
    )
    d_feat = d_feat + d_feat_p
    if d_feat_extra is not None:
        d_feat = d_feat + d_feat_extra
    _, grads = _trunk_backward(rpn.trunk(), state.trunk, d_feat, False)
    return grads + [d_ws, d_bs, d_wp, d_bp]


def cell_centers(cells_h: int, cells_w: int):
    """Input-space (x, y) centers of the proposal grid cells."""
    xs = CELL_OFFSET + CELL_STRIDE * np.arange(cells_w)
    ys = CELL_OFFSET + CELL_STRIDE * np.arange(cells_h)
    return xs, ys


# --------------------------------------------------------------------------
# targets and proposal losses


@dataclass
class RpnTargets:
    labels: np.ndarray        # (Hc, Wc) in {1 pos, 0 neg, -1 ignore}
    cls_weights: np.ndarray   # (Hc, Wc), sums to 1
    reg_targets: np.ndarray   # (R, Hc, Wc) regression targets where positive
    face_size: np.ndarray     # (Hc, Wc) matched face size for normalization


def rpn_targets(faces, cells_h, cells_w, multitask: bool = True) -> RpnTargets:
    xs, ys = cell_centers(cells_h, cells_w)
    cx_grid, cy_grid = np.meshgrid(xs, ys)
    labels = np.zeros((cells_h, cells_w), dtype=np.int64)
    reg_dim = 10 if multitask else 3
    reg = np.zeros((reg_dim, cells_h, cells_w))
    sizes = np.full((cells_h, cells_w), POINT_SCALE)

    for box, lms in faces:
        bx, by, bw, bh = box
        fcx, fcy = bx + bw / 2.0, by + bh / 2.0
        size = max(bw, bh)
        dist = np.hypot(cx_grid - fcx, cy_grid - fcy)
        ignore = dist <= IGNORE_RADIUS * size
        pos = dist <= POS_RADIUS * size
        nearest = np.unravel_index(np.argmin(dist), dist.shape)
        pos[nearest] = True
        labels[ignore & (labels == 0)] = -1
        labels[pos] = 1
        sel = pos
        sizes[sel] = size
        if multitask:
            centers = np.stack([cx_grid[sel], cy_grid[sel]], axis=1)
            offs = lms.reshape(-1)[None, :] - np.tile(centers, (1, 5))
            reg[:, sel] = (offs / POINT_SCALE).T
        else:
            reg[0, sel] = (fcx - cx_grid[sel]) / POINT_SCALE
            reg[1, sel] = (fcy - cy_grid[sel]) / POINT_SCALE
            reg[2, sel] = np.log(size / POINT_SCALE)

    weights = np.zeros((cells_h, cells_w))
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos and n_neg:
        weights[labels == 1] = 0.5 / n_pos
        weights[labels == 0] = 0.5 / n_neg
    elif n_neg:
        weights[labels == 0] = 1.0 / n_neg
    elif n_pos:
        weights[labels == 1] = 1.0 / n_pos
    return RpnTargets(labels, weights, reg, sizes)


def rpn_losses(state: RpnState, targets: RpnTargets, multitask: bool = True):
    """Multi-task proposal loss, the face/non-face cross-entropy plus
    LAMBDA_LANDMARK times the landmark regression loss, and the gradients of
    both head maps."""
    cells_h, cells_w = targets.labels.shape
    logits = state.score.reshape(2, -1).T
    flat_labels = np.clip(targets.labels.reshape(-1), 0, 1)
    flat_weights = targets.cls_weights.reshape(-1)
    cls_loss, probs = nn.softmax_cross_entropy(logits, flat_labels, flat_weights)
    d_logits = nn.softmax_cross_entropy_backward(probs, flat_labels, flat_weights)
    d_score = d_logits.T.reshape(state.score.shape)

    d_point = np.zeros_like(state.point)
    pos = targets.labels == 1
    reg_loss = 0.0
    n_pos = int(pos.sum())
    if n_pos:
        pred = state.point[:, pos]
        tgt = targets.reg_targets[:, pos]
        # landmark error is measured in box-normalized coordinates
        norm = (POINT_SCALE / targets.face_size[pos])[None, :] if multitask else 1.0
        diff = (pred - tgt) * norm
        reg_loss = float((diff**2).mean(axis=0).sum() / n_pos)
        d_point[:, pos] = (
            LAMBDA_LANDMARK * 2.0 * diff * norm / (pred.shape[0] * n_pos)
        )
    loss = cls_loss + LAMBDA_LANDMARK * reg_loss
    return loss, d_score, d_point, probs.reshape(cells_h, cells_w, 2)


# --------------------------------------------------------------------------
# verification path (shared by training and inference)


def l2_normalize(x: np.ndarray):
    """Unit-norm feature scaling; keeps the verdict head's input bounded
    regardless of how the upstream feature magnitudes drift in training."""
    norm = float(np.sqrt(np.dot(x, x) + L2_EPS * L2_EPS))
    return x / norm, norm


def l2_normalize_backward(d_out: np.ndarray, x: np.ndarray, norm: float):
    return d_out / norm - x * (np.dot(x, d_out) / norm**3)


def crop_transform(box, rect_size: int):
    """Axis-aligned crop of a box's bounding square onto the rectified grid:
    the similarity whose inverse map scales the crop by side / rect_size
    source pixels per crop pixel about its centre and moves that centre onto
    the box's. Raises SingularTransformError when that scale is not finite
    and positive; the warp's gate (align._sample_points) rejects the rest,
    a centre that is not finite or a^2 + b^2 that under- or overflows."""
    x, y, w, h = box
    side = float(max(w, h))  # so 1 / a subnormal scale is inf, not a numpy warning
    if not 0.0 < side / rect_size < np.inf:
        raise SingularTransformError(f"box side {side:g}")
    c = (rect_size - 1) / 2.0
    return SimilarityTransform(1.0 / (side / rect_size), 0.0,
                               x + w / 2.0, y + h / 2.0, c, c)


@dataclass
class VerifyCache:
    """One verification pass, kept for verify_backward: the trunk's block
    records (the first input is the crop, the last pooled map the trunk's
    output), the fc feature after its relu, the l2 norms, the verdict head's
    input and logits."""

    trunk: list
    feat: np.ndarray
    feat_norm: float
    rpn_feat: np.ndarray
    rpn_norm: float
    joint: np.ndarray
    logits: np.ndarray


def verify_forward(model: DetectorModel, image: np.ndarray, transform,
                   rpn_feat: np.ndarray) -> VerifyCache:
    """Warp a candidate and run the verification net on the crop, in the
    image's floating dtype, in which warp samples the crop, up to the fc
    layer, which numpy promotes against the float64 weight. rpn_feat is
    read only with the concatenation."""
    crop = warp(image, transform, (model.rect_size, model.rect_size))
    out, _, records = _trunk_forward(model.rcnn.trunk(), crop)
    feat = nn.relu(nn.fully_connected(out.reshape(-1), model.rcnn.fc.weight,
                                      model.rcnn.fc.bias))
    feat_n, feat_norm = l2_normalize(feat)
    joint, rpn_norm = feat_n, 1.0
    if model.use_concat:
        rpn_n, rpn_norm = l2_normalize(rpn_feat)
        joint = np.concatenate([rpn_n, feat_n])
    logits = nn.fully_connected(joint, model.verdict.weight, model.verdict.bias)
    return VerifyCache(records, feat, feat_norm, rpn_feat, rpn_norm, joint, logits)


def verify_backward(model: DetectorModel, cache: VerifyCache, d_logits,
                    need_crop: bool):
    """Backward through the verdict head and the verification net.

    Returns (the R-CNN and verdict grads as one list in model.params()
    order, d_rpn_feat or None without the concatenation, d_crop); the caller
    chains d_crop into the warp. d_crop is None unless need_crop is set.
    """
    d_joint, d_wv, d_bv = nn.fully_connected_backward(
        d_logits, cache.joint, model.verdict.weight
    )
    d_rpn_feat, d_feat_n = None, d_joint
    if model.use_concat:
        cut = len(cache.rpn_feat)
        d_rpn_n, d_feat_n = d_joint[:cut], d_joint[cut:]
        d_rpn_feat = l2_normalize_backward(d_rpn_n, cache.rpn_feat, cache.rpn_norm)
    d_feat = l2_normalize_backward(d_feat_n, cache.feat, cache.feat_norm)
    trunk_out = cache.trunk[-1][2]
    d_flat, d_wfc, d_bfc = nn.fully_connected_backward(
        nn.relu_backward(d_feat, cache.feat), trunk_out.reshape(-1), model.rcnn.fc.weight
    )
    d_crop, conv_grads = _trunk_backward(
        model.rcnn.trunk(), cache.trunk, d_flat.reshape(trunk_out.shape), need_crop,
    )
    return conv_grads + [d_wfc, d_bfc, d_wv, d_bv], d_rpn_feat, d_crop


# --------------------------------------------------------------------------
# training drivers

SNAPSHOT_EVERY = 500  # joint-training images between canonical-shape snapshots


def _check_real_pixels(image: np.ndarray):
    """Raise ValueError unless image's dtype is bool, integer or float: a
    complex, object or string image fails here, before any arithmetic,
    rather than be read through a cast or a warning."""
    if image.dtype.kind not in "biuf":
        raise ValueError(f"image dtype {image.dtype} is not bool, integer or float")


def _proposal_step(model: DetectorModel, sample, epoch: int):
    """Proposal forward pass, targets and multi-task loss on one image.

    Returns (state, targets, loss, d_score, d_point, probs). Raises ValueError
    on pixels that are not real numbers or not finite, and DivergenceError
    when the loss is not finite.
    """
    _check_real_pixels(sample.image)
    if not np.isfinite(sample.image).all():
        raise ValueError("training image has non-finite pixels")
    state = rpn_forward(model.rpn, sample.image)
    ch, cw = state.score.shape[1:]
    targets = rpn_targets(sample.faces, ch, cw, model.multitask)
    loss, d_score, d_point, probs = rpn_losses(state, targets, model.multitask)
    if not np.isfinite(loss):
        raise DivergenceError(f"proposal loss diverged at epoch {epoch}: {loss}")
    return state, targets, loss, d_score, d_point, probs


def train_rpn(corpus, config: TrainConfig, model: DetectorModel | None = None, *,
              epochs: int):
    """Train the proposal net alone (classification + regression heads).

    Returns (model, history); history holds each epoch's mean proposal loss.
    """
    check_int("epochs", epochs, 0)
    if len(corpus) == 0:
        raise ValueError("empty training corpus")
    if model is None:
        model = build_detector(config)
    rng = np.random.default_rng(config.seed + 1)
    params = model.rpn.params()
    velocities = [np.zeros_like(p) for p in params]
    history = {"epochs": []}
    order = np.arange(len(corpus))
    for epoch in range(epochs):
        rng.shuffle(order)
        losses = []
        for idx in order:
            state, _, loss, d_score, d_point, _ = _proposal_step(model, corpus[idx], epoch)
            losses.append(loss)
            nn.sgd_step(params, rpn_backward(model.rpn, state, d_score, d_point),
                        velocities, LEARNING_RATE, MOMENTUM)
        history["epochs"].append({"loss": float(np.mean(losses))})
    return model, history


def _decode_cells(state: RpnState, ii, jj, multitask: bool, scale: float = 1.0):
    """The geometry of proposal cells (ii[n], jj[n]), in pixels of the
    level's input times scale, each from one fancy index over all cells:
    (N, 5, 2) landmarks from the landmark head, or (N, 4) square boxes
    from the box head."""
    xs, ys = cell_centers(state.point.shape[1], state.point.shape[2])
    reg = state.point[:, ii, jj]
    if multitask:
        centers = np.stack([xs[jj], ys[ii]], axis=1)[:, None, :]
        return (reg.T.reshape(-1, 5, 2) * POINT_SCALE + centers) * scale
    dx, dy, dlog = reg
    # an overflowing side decodes to inf, which crop_transform rejects
    with np.errstate(over="ignore"):
        side = POINT_SCALE * np.exp(dlog)
    x = xs[jj] + dx * POINT_SCALE - side / 2.0
    y = ys[ii] + dy * POINT_SCALE - side / 2.0
    return np.stack([x * scale, y * scale, side * scale, side * scale], axis=1)


def _candidate_transform(model: DetectorModel, geometry):
    """Map from a candidate's row of _decode_cells' geometry onto the
    rectified grid: the similarity fit of its landmarks to the canonical
    shape, or the crop of its box. Raises SingularTransformError on a
    degenerate fit."""
    if model.multitask:
        return estimate_similarity(geometry, model.canonical.points)
    return crop_transform(geometry, model.rect_size)


def train_end_to_end(corpus, model: DetectorModel, config: TrainConfig):
    """Joint training of proposal net, verification net, verdict head and
    (when enabled) the canonical positions. Returns (model, history) with
    canonical-position snapshots along the run."""
    if len(corpus) == 0:
        raise ValueError("empty training corpus")
    rng = np.random.default_rng(config.seed + 2)
    params = model.params()
    velocities = [np.zeros_like(p) for p in params]
    history = {
        "canonical_snapshots": [model.canonical.points.copy()],
        "epochs": [],
        "singular_skips": 0,
    }
    order = np.arange(len(corpus))
    seen = 0
    for epoch in range(config.epochs):
        rng.shuffle(order)
        verdict_correct = verdict_total = 0
        losses = []
        for idx in order:
            sample = corpus[idx]
            state, targets, loss, d_score, d_point, probs = _proposal_step(
                model, sample, epoch
            )
            verify_grads = [np.zeros_like(p)
                            for p in model.rcnn.params() + model.verdict.params()]
            d_canonical = np.zeros_like(model.canonical.points)
            d_feat_extra = np.zeros_like(state.feat)

            cells, labels = _sample_cells(targets, probs, rng)
            ii, jj = cells.T
            geometry = _decode_cells(state, ii, jj, model.multitask)
            feats = state.feat[:, ii, jj].T.copy()
            verdict_losses = []
            loss_weight = 1.0 / max(1, len(cells))  # mean over the image's batch
            for (i, j), label, geom, feat in zip(cells, labels.tolist(), geometry, feats):
                try:
                    transform = _candidate_transform(model, geom)
                    cache = verify_forward(model, sample.image, transform, feat)
                except SingularTransformError:
                    history["singular_skips"] += 1
                    continue
                vloss, probs_v = nn.softmax_cross_entropy(cache.logits, label)
                d_logits = nn.softmax_cross_entropy_backward(probs_v, label) * loss_weight
                # geometry supervision from the verdict loss applies to true faces;
                # a background candidate's landmarks carry no pose to refine
                supervise = model.multitask and model.supervised_transform and label == 1
                grads, d_rpn_feat, d_crop = verify_backward(model, cache, d_logits, supervise)
                for acc, g in zip(verify_grads, grads, strict=True):
                    acc += g
                if d_rpn_feat is not None:
                    d_feat_extra[:, i, j] += CONCAT_SUPERVISION_SCALE * d_rpn_feat
                if supervise:
                    d_landmarks, d_canon = landmark_and_canonical_gradients(
                        warp_backward(d_crop, sample.image, transform), geom,
                        model.canonical.points)
                    # landmarks came from the head as offsets scaled by POINT_SCALE
                    d_point[:, i, j] += (WARP_SUPERVISION_SCALE * d_landmarks.reshape(-1)
                                         * POINT_SCALE)
                    d_canonical += d_canon
                verdict_losses.append(vloss)
                verdict_correct += int(np.argmax(cache.logits) == label)
                verdict_total += 1
                del cache, grads  # so the next candidate reuses their memory

            grads = rpn_backward(model.rpn, state, d_score, d_point, d_feat_extra)
            grads += verify_grads
            if model.supervised_transform:
                grads.append(CANONICAL_LR_SCALE * d_canonical)
            nn.sgd_step(params, grads, velocities, LEARNING_RATE, MOMENTUM)
            if model.supervised_transform:
                model.canonical.clamp(model.rect_size, model.rect_size)
            losses.append(loss + float(np.mean(verdict_losses or [0.0])))
            seen += 1
            if seen % SNAPSHOT_EVERY == 0:
                history["canonical_snapshots"].append(model.canonical.points.copy())
        history["epochs"].append(
            {
                "loss": float(np.mean(losses)),
                "verdict_accuracy": verdict_correct / max(1, verdict_total),
            }
        )
        history["canonical_snapshots"].append(model.canonical.points.copy())
    return model, history


def _sample_cells(targets: RpnTargets, probs, rng):
    """Pick positive and negative cells for verification training; half the
    negatives are drawn by current face probability (hard negatives), the
    rest uniformly. Returns ((M, 2) cells, (M,) labels): the positives in
    draw order, then the negatives in cell order."""
    pos = np.argwhere(targets.labels == 1)
    pos = pos[rng.choice(len(pos), size=min(VERIFY_SAMPLES, len(pos)), replace=False)]
    neg = np.argwhere(targets.labels == 0)
    if len(neg):
        n_hard = min((VERIFY_SAMPLES + 1) // 2, len(neg))
        weights = probs[neg[:, 0], neg[:, 1], 1] + 1e-3
        hard = rng.choice(len(neg), size=n_hard, replace=False, p=weights / weights.sum())
        rest = np.delete(np.arange(len(neg)), hard)
        n_rand = min(VERIFY_SAMPLES - n_hard, len(rest))
        rand = rest[rng.choice(len(rest), size=n_rand, replace=False)]
        neg = neg[np.sort(np.concatenate([hard, rand]))]
    return np.concatenate([pos, neg]), np.repeat([1, 0], [len(pos), len(neg)])


# --------------------------------------------------------------------------
# detection


def _dense_levels(image: np.ndarray):
    """Every octave level of image, unmasked."""
    return [(octave, level, None) for octave, level in octave_levels(image)]


def _roi_levels(image: np.ndarray, work: np.ndarray, model: DetectorModel):
    """ROI levels of work, masked by the pre-filter's scan of image."""
    groups = group_candidates(cascade_scan(image[0], model.cascade))
    return RoiPyramid.build(work, groups).levels


def _level_candidates(model, state, octave):
    """Candidates proposed by one pyramid level's score map: its eligible
    cells decoded as arrays and, with the landmark head, their boxes fitted
    in one pass, which drops each cell whose fit box_from_landmarks flags.
    Returns ((N, 5) float64 [x, y, w, h, score] rows, their _decode_cells
    geometry, their (N, C) proposal features), in row-major cell order. A
    level with no eligible cell returns these arrays empty, with neither
    decode nor fit."""
    probs = np.exp(nn.log_softmax(state.score.reshape(2, -1).T))[:, 1]
    probs = probs.reshape(state.score.shape[1:])
    eligible = probs >= PROPOSAL_THRESHOLD
    if state.head_mask is not None:
        eligible &= state.head_mask.bits
    ii, jj = np.nonzero(eligible)
    if not len(ii):
        return (np.empty((0, 5)), np.empty((0, 5, 2) if model.multitask else (0, 4)),
                np.empty((0, len(state.feat)), state.feat.dtype))
    geometry = boxes = _decode_cells(state, ii, jj, model.multitask, 2.0**octave)
    if model.multitask:
        boxes, ok = box_from_landmarks(geometry)
        ii, jj, geometry, boxes = ii[ok], jj[ok], geometry[ok], boxes[ok]
    return np.column_stack([boxes, probs[ii, jj]]), geometry, state.feat[:, ii, jj].T.copy()


@dataclass
class Detection:
    """One box of detect's output: its verdict score and, from the
    landmark head, its five landmarks."""

    box: tuple  # (x, y, w, h) at original image resolution
    score: float
    landmarks: np.ndarray | None = None  # (5, 2), source-image coordinates


def detect(image: np.ndarray, model: DetectorModel,
           options: DetectOptions = DetectOptions()) -> list[Detection]:
    """Full two-stage detection on one (1, H, W) grayscale image.

    The proposal and verification nets run on one INFERENCE_DTYPE copy of
    the image; the fern pre-filter scans the image as given. An image whose
    dtype is not bool, integer or float, or a pixel that is not finite in
    either, raises ValueError. A candidate whose fit or crop is singular
    (SingularTransformError) is dropped unverified."""
    if image.ndim != 3 or image.shape[0] != 1:
        raise ShapeError(f"expected a (1, H, W) grayscale image, got {image.shape}")
    _check_real_pixels(image)
    # a pixel beyond the copy's range becomes inf, so one check covers both
    with np.errstate(over="ignore"):
        work = image.astype(INFERENCE_DTYPE)
    if not np.isfinite(work).all():
        raise ValueError("image has non-finite pixels")
    if options.use_roi_conv:
        if model.cascade is None:
            raise ValueError("ROI path requires a trained cascade pre-filter")
        levels = _roi_levels(image, work, model)
    else:
        levels = _dense_levels(work)

    found = [_level_candidates(model, rpn_forward(model.rpn, level_img, mask), octave)
             for octave, level_img, mask in levels]
    # with no level, every array is empty and read only by its length
    rows, geometry, feats = ([np.concatenate(p) for p in zip(*found)]
                             if found else (np.empty((0, 5)),) * 3)

    if options.suppression == "non_top_k":
        kept = non_top_k(rows)
    elif options.suppression == "nms":
        kept = nms(rows)
    else:
        kept = range(len(rows))
    rows, geometry, feats = rows[kept], geometry[kept], feats[kept]

    verified, logits = [], []
    for n, (geom, feature) in enumerate(zip(geometry, feats)):
        try:
            transform = _candidate_transform(model, geom)
            logits.append(verify_forward(model, work, transform, feature).logits)
        except SingularTransformError:
            continue
        verified.append(n)
    rows = rows[verified]
    rows[:, 4] = np.exp(nn.log_softmax(np.reshape(logits, (-1, 2))))[:, 1]
    return [Detection(tuple(rows[n, :4].tolist()), float(rows[n, 4]),
                      geometry[verified[n]] if model.multitask else None)
            for n in nms(rows)]


# --------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    """Match flags of the detections in descending score order."""

    tp_flags: np.ndarray   # 1 where the detection matched a ground truth
    total_gt: int

    def recall_at_false_alarms(self, budget: int) -> float:
        fp = np.cumsum(1 - self.tp_flags)
        tp = np.cumsum(self.tp_flags)
        ok = fp <= budget
        if not ok.any():
            return 0.0
        return float(tp[ok].max() / max(1, self.total_gt))

    def average_precision(self) -> float:
        tp = np.cumsum(self.tp_flags)
        ranks = np.arange(1, len(self.tp_flags) + 1)
        precision = tp / ranks
        return float((precision * self.tp_flags).sum() / max(1, self.total_gt))


def evaluate(detections_per_image, truths_per_image, iou_threshold: float = 0.5
             ) -> EvalReport:
    """Greedy score-ordered matching, one detection per ground truth."""
    if len(detections_per_image) != len(truths_per_image):
        raise ValueError("detections and truths must cover the same images")
    rows = []
    for img_idx, dets in enumerate(detections_per_image):
        for d in dets:
            rows.append((-d.score, d.box[0], d.box[1], img_idx, d))
    rows.sort(key=lambda r: r[:3])
    matched = [set() for _ in truths_per_image]
    tp_flags = np.zeros(len(rows), dtype=np.int64)
    for pos, (*_, img_idx, det) in enumerate(rows):
        best_iou, best_gt = 0.0, None
        for gt_idx, gt_box in enumerate(truths_per_image[img_idx]):
            if gt_idx in matched[img_idx]:
                continue
            value = iou(det.box, gt_box)
            if value > best_iou:
                best_iou, best_gt = value, gt_idx
        if best_gt is not None and best_iou >= iou_threshold:
            matched[img_idx].add(best_gt)
            tp_flags[pos] = 1
    total_gt = sum(len(t) for t in truths_per_image)
    return EvalReport(tp_flags, total_gt)


# --------------------------------------------------------------------------
# fern pre-filter training


def crop_patch(image: np.ndarray, box, out_size: int) -> np.ndarray:
    """Resize a box's bounding square out of a CHW image."""
    return warp(image, crop_transform(box, out_size), (out_size, out_size))[0]


def harvest_cascade_patches(corpus, rng):
    """Face crops and face-free crops from a corpus, as fern-sized patches:
    every face, and per image NEGATIVES_PER_IMAGE slots of up to ten draws
    each; a slot whose draws all overlap a face is left empty. Negative
    squares have sides in [36, 72), capped at the image's shorter side so
    each lies inside its image; an image under 36 px leaves its slots empty."""
    pos, neg = [], []
    for sample in corpus:
        h, w = sample.image.shape[1:]
        for box, _ in sample.faces:
            pos.append(crop_patch(sample.image, box, PATCH_SIZE))
        if min(w, h) < 36:
            continue
        for _ in range(NEGATIVES_PER_IMAGE):
            for _attempt in range(10):
                side = rng.uniform(36, min(72, w, h))
                x = rng.uniform(0, w - side)
                y = rng.uniform(0, h - side)
                cand = (x, y, side, side)
                if all(iou(cand, box) < 0.1 for box, _ in sample.faces):
                    neg.append(crop_patch(sample.image, cand, PATCH_SIZE))
                    break
    return np.array(pos), np.array(neg)


def train_prefilter(corpus, num_ferns: int, seed: int):
    """Train the fern cascade on corpus-derived patches. Its train_log
    also records the negative slots requested and the crops harvested, so
    a shortfall shows. Raises ValueError on an image whose dtype is not
    bool, integer or float, before it harvests."""
    check_int("seed", seed, 0)
    for sample in corpus:
        _check_real_pixels(sample.image)
    rng = np.random.default_rng(seed + 3)
    pos, neg = harvest_cascade_patches(corpus, rng)
    cascade = train_cascade(pos, neg, num_ferns, seed)
    cascade.train_log["negatives_requested"] = NEGATIVES_PER_IMAGE * len(corpus)
    cascade.train_log["negatives_harvested"] = len(neg)
    return cascade
