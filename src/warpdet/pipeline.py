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
Inference decodes each level's eligible cells as arrays, one fancy index
per head map, and fits all their landmark boxes in one closed-form pass.

Training runs in float64. Detection runs both nets in INFERENCE_DTYPE,
float32: detect casts the image once, and the conv kernels cast the float64
model's filters to the dtype of the map they convolve. The fern pre-filter
scans the caller's image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .align import (
    SingularTransformError,
    estimate_similarity,
    landmark_and_canonical_gradients,
    similarity_from_pose,
    warp,
    warp_backward,
)
from .ferns import PATCH_SIZE, CascadeConfig, train_cascade
from .ferns import scan as cascade_scan
from .model import ConvLayer, DetectorModel, RpnNet, create_detector
from .nn import SgdOptimizer, ShapeError
from .roiconv import (
    RoiMask,
    RoiPyramid,
    downsample_image,
    downsample_mask,
    group_candidates,
    roi_conv_forward,
)
from .suppress import Detection, iou, nms, non_top_k
from .synthetic import box_from_landmarks

CELL_STRIDE = 8
CELL_OFFSET = 3.0
PROPOSAL_THRESHOLD = 0.5  # face probability at which a proposal cell is a candidate
MAX_LEVELS = 4            # octaves of the dense detection pyramid
L2_EPS = 1e-6
NEGATIVES_PER_IMAGE = 3   # face-free crops per corpus image for the pre-filter
PREFILTER_POOL = 60       # random fern candidates per pre-filter stage
# The proposal stage's fixed choices. The regression head's outputs are
# offsets in units of POINT_SCALE px, which the targets, the loss, the decode
# and the warp supervision all read.
POINT_SCALE = 48.0
POS_RADIUS = 0.15         # cells this near a face, as a share of its side, are positives
IGNORE_RADIUS = 0.55      # other cells this near are neither positive nor negative
LAMBDA_LANDMARK = 3.0     # weight of the landmark loss against the score loss
VERIFY_SAMPLES = 2        # positive and negative verification cells each, per image
INFERENCE_DTYPE = np.float32  # dtype in which detect runs the proposal and verification nets


class DivergenceError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    rpn_channels: tuple[int, int, int] = (8, 12, 16)
    rcnn_channels: tuple[int, int] = (8, 16)
    rcnn_feature: int = 48
    rect_size: int = 64
    learning_rate: float = 0.01
    momentum: float = 0.9
    canonical_lr_scale: float = 2.0
    # weight of the verdict loss's gradient on the predicted landmarks; the
    # raw chain is orders of magnitude stronger than the landmark MSE term
    # and would swamp the shared trunk at desk scale
    warp_supervision_scale: float = 0.02
    # weight of the verdict loss's gradient on the proposal feature column;
    # damps the multi-task tug-of-war that otherwise erodes landmark accuracy
    concat_supervision_scale: float = 0.1
    epochs: int = 3
    seed: int = 0


@dataclass(frozen=True)
class DetectOptions:
    use_roi_conv: bool = False
    suppression: str = "non_top_k"  # non_top_k | nms | none

    def __post_init__(self):
        if self.suppression not in ("non_top_k", "nms", "none"):
            raise ValueError(f"unknown suppression mode {self.suppression!r}")


def build_detector(config: TrainConfig, multitask: bool = True,
                   use_concat: bool = True, supervised_transform: bool = True
                   ) -> DetectorModel:
    """Randomly initialized detector; ablation switches select the variant."""
    return create_detector(
        np.random.default_rng(config.seed), config.rpn_channels,
        config.rcnn_channels, config.rcnn_feature, multitask=multitask,
        use_concat=use_concat, supervised_transform=supervised_transform,
        rect_size=config.rect_size,
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
    the mask at the output's resolution or None, one (input, conv output,
    relu, pooled or None) record per block).
    """
    records = []
    for layer, pooled in trunk:
        if mask is not None and layer.spec.stride == 2:
            mask = downsample_mask(mask)
        z = _conv(layer, x, mask)
        a = nn.relu(z)
        p = None
        if pooled:
            p = nn.maxpool2x2(a)
            if mask is not None:
                mask = downsample_mask(mask)
        records.append((x, z, a, p))
        x = a if p is None else p
    return x, mask, records


def _trunk_backward(trunk, records, d_out, input_grad):
    """Backward through the blocks _trunk_forward ran, last to first.

    A pooling stores no argmax: its backward re-derives the routing from the
    relu and pooled maps, which is exact on the dense path, the only one
    training runs. Returns (gradient of the trunk's input, or None unless
    input_grad is set, [d_w, d_b] of each block in block order)."""
    grads = []
    for n, ((layer, _), (x, z, a, p)) in enumerate(
            zip(reversed(trunk), reversed(records)), start=1):
        if p is not None:
            d_out = nn.maxpool2x2_backward(d_out, a, p)
        d_z = nn.relu_backward(d_out, z)
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
    """Axis-aligned crop of a box's bounding square onto the rectified grid."""
    x, y, w, h = box
    side = max(w, h)
    return similarity_from_pose(
        side / rect_size,
        0.0,
        (x + w / 2.0, y + h / 2.0),
        ((rect_size - 1) / 2.0, (rect_size - 1) / 2.0),
    )


@dataclass
class VerifyCache:
    """One verification pass, kept for verify_backward: the trunk's block
    records (the first input is the crop) and output, the fc feature before
    and after its relu, the l2 norms, the verdict head's input and logits."""

    trunk: list
    trunk_out: np.ndarray
    feat_pre: np.ndarray
    feat: np.ndarray
    feat_norm: float
    rpn_feat: np.ndarray | None
    rpn_norm: float
    joint: np.ndarray
    logits: np.ndarray


def verify_forward(model: DetectorModel, image: np.ndarray, transform,
                   rpn_feat: np.ndarray | None) -> VerifyCache:
    """Warp a candidate and run the verification net on the crop, in the
    image's dtype up to the fc layer, which numpy promotes against the
    float64 weight."""
    crop = warp(image, transform, (model.rect_size, model.rect_size))
    crop = crop.astype(image.dtype, copy=False)
    out, _, records = _trunk_forward(model.rcnn.trunk(), crop)
    feat_pre = nn.fully_connected(out.reshape(-1), model.rcnn.fc.weight, model.rcnn.fc.bias)
    feat = nn.relu(feat_pre)
    feat_n, feat_norm = l2_normalize(feat)
    if model.use_concat:
        rpn_n, rpn_norm = l2_normalize(rpn_feat)
        joint = np.concatenate([rpn_n, feat_n])
    else:
        rpn_norm = 1.0
        joint = feat_n
    logits = nn.fully_connected(joint, model.verdict.weight, model.verdict.bias)
    return VerifyCache(records, out, feat_pre, feat, feat_norm, rpn_feat, rpn_norm,
                       joint, logits)


def verify_backward(model: DetectorModel, cache: VerifyCache, d_logits,
                    need_crop: bool):
    """Backward through the verdict head and the verification net.

    Returns (R-CNN grads, verdict grads, each in model.params() order,
    d_rpn_feat or None, d_crop); the caller chains d_crop into the warp.
    d_crop is None unless need_crop is set.
    """
    d_joint, d_wv, d_bv = nn.fully_connected_backward(
        d_logits, cache.joint, model.verdict.weight
    )
    if model.use_concat:
        n_rpn = cache.rpn_feat.shape[0]
        d_rpn_feat = l2_normalize_backward(d_joint[:n_rpn], cache.rpn_feat, cache.rpn_norm)
        d_feat_n = d_joint[n_rpn:]
    else:
        d_rpn_feat, d_feat_n = None, d_joint
    d_feat = l2_normalize_backward(d_feat_n, cache.feat, cache.feat_norm)
    d_feat_pre = nn.relu_backward(d_feat, cache.feat_pre)
    d_flat, d_wfc, d_bfc = nn.fully_connected_backward(
        d_feat_pre, cache.trunk_out.reshape(-1), model.rcnn.fc.weight
    )
    d_crop, conv_grads = _trunk_backward(
        model.rcnn.trunk(), cache.trunk, d_flat.reshape(cache.trunk_out.shape),
        need_crop,
    )
    return conv_grads + [d_wfc, d_bfc], [d_wv, d_bv], d_rpn_feat, d_crop


# --------------------------------------------------------------------------
# training drivers

SNAPSHOT_EVERY = 500  # joint-training images between canonical-shape snapshots


def _proposal_step(model: DetectorModel, sample, epoch: int):
    """Proposal forward pass, targets and multi-task loss on one image.

    Returns (state, targets, loss, d_score, d_point, probs); raises
    DivergenceError when the loss is not finite.
    """
    state = rpn_forward(model.rpn, sample.image)
    ch, cw = state.score.shape[1:]
    targets = rpn_targets(sample.faces, ch, cw, model.multitask)
    loss, d_score, d_point, probs = rpn_losses(state, targets, model.multitask)
    if not np.isfinite(loss):
        raise DivergenceError(f"proposal loss diverged at epoch {epoch}: {loss}")
    return state, targets, loss, d_score, d_point, probs


def train_rpn(corpus, config: TrainConfig, model: DetectorModel | None = None,
              epochs: int | None = None):
    """Train the proposal net alone (classification + regression heads).

    Returns (model, history); history carries per-epoch classification
    accuracy and mean landmark error in pixels normalized to a 36-px face.
    """
    if len(corpus) == 0:
        raise ValueError("empty training corpus")
    if model is None:
        model = build_detector(config)
    rng = np.random.default_rng(config.seed + 1)
    params = model.rpn.params()
    opt = SgdOptimizer(config.learning_rate, config.momentum)
    history = {"epochs": []}
    n_epochs = config.epochs if epochs is None else epochs
    order = np.arange(len(corpus))
    for epoch in range(n_epochs):
        rng.shuffle(order)
        cls_correct = cls_total = 0
        lm_errors = []
        losses = []
        for idx in order:
            state, targets, loss, d_score, d_point, probs = _proposal_step(
                model, corpus[idx], epoch
            )
            losses.append(loss)
            opt.step(params, rpn_backward(model.rpn, state, d_score, d_point))

            decided = targets.labels >= 0
            pred_cls = (probs[..., 1] > 0.5).astype(np.int64)
            cls_correct += int((pred_cls[decided] == targets.labels[decided]).sum())
            cls_total += int(decided.sum())
            if model.multitask:
                lm_errors.extend(_landmark_errors(state, targets))
        history["epochs"].append(
            {
                "loss": float(np.mean(losses)),
                "cls_accuracy": cls_correct / max(1, cls_total),
                "landmark_error_36px": float(np.mean(lm_errors)) if lm_errors else None,
            }
        )
    return model, history


def _landmark_errors(state, targets):
    """Per-positive-cell mean landmark error, rescaled to a 36-px face."""
    pos = targets.labels == 1
    if not pos.any():
        return []
    pred = state.point[:, pos] * POINT_SCALE
    tgt = targets.reg_targets[:, pos] * POINT_SCALE
    diff = (pred - tgt).T.reshape(-1, 5, 2)
    err = np.linalg.norm(diff, axis=2).mean(axis=1)
    scale = 36.0 / targets.face_size[pos]
    return list(err * scale)


def _decode_cells(state: RpnState, ii, jj, multitask: bool, scale: float = 1.0):
    """The regressions at proposal cells (ii[n], jj[n]), in pixels of the
    level's input times scale, each from one fancy index over all cells:
    ((N, 5, 2) landmarks, None) from the landmark head, or (None, (N, 4)
    square boxes) from the box head."""
    xs, ys = cell_centers(state.point.shape[1], state.point.shape[2])
    reg = state.point[:, ii, jj]
    if multitask:
        centers = np.stack([xs[jj], ys[ii]], axis=1)[:, None, :]
        return (reg.T.reshape(-1, 5, 2) * POINT_SCALE + centers) * scale, None
    dx, dy, dlog = reg
    side = POINT_SCALE * np.exp(dlog)
    x = xs[jj] + dx * POINT_SCALE - side / 2.0
    y = ys[ii] + dy * POINT_SCALE - side / 2.0
    return None, np.stack([x * scale, y * scale, side * scale, side * scale], axis=1)


def _candidate_transform(model: DetectorModel, landmarks, box):
    """Map from a candidate onto the rectified grid: the similarity fit of its
    landmarks to the canonical shape, or without a landmark head the crop of
    its box. Raises SingularTransformError on a degenerate fit."""
    if model.multitask:
        return estimate_similarity(landmarks, model.canonical.points)
    return crop_transform(box, model.rect_size)


def train_end_to_end(corpus, model: DetectorModel, config: TrainConfig):
    """Joint training of proposal net, verification net, verdict head and
    (when enabled) the canonical positions. Returns (model, history) with
    canonical-position snapshots along the run."""
    if len(corpus) == 0:
        raise ValueError("empty training corpus")
    rng = np.random.default_rng(config.seed + 2)
    params = model.params()
    n_rpn = len(model.rpn.params())
    opt = SgdOptimizer(config.learning_rate, config.momentum)
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
            grads = [np.zeros_like(p) for p in params]  # model.params() order
            d_feat_extra = np.zeros_like(state.feat)

            cells = _sample_cells(targets, probs, rng)
            verdict_losses = []
            loss_weight = 1.0 / max(1, len(cells))  # mean over the image's batch
            for (i, j, label) in cells:
                out = _candidate_step(
                    model, sample.image, state, i, j, label,
                    d_point, d_feat_extra, config, loss_weight,
                )
                if out is None:
                    history["singular_skips"] += 1
                    continue
                vloss, correct, head_grads, d_canonical = out
                for k, g in enumerate(head_grads, start=n_rpn):
                    grads[k] += g
                if d_canonical is not None:
                    grads[-1] += d_canonical
                verdict_losses.append(vloss)
                verdict_correct += correct
                verdict_total += 1

            rpn_grads = rpn_backward(model.rpn, state, d_score, d_point, d_feat_extra)
            for k, g in enumerate(rpn_grads):
                grads[k] += g
            if model.supervised_transform:
                grads[-1] *= config.canonical_lr_scale
            opt.step(params, grads)
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
    rest uniformly."""
    cells = []
    pos = np.argwhere(targets.labels == 1)
    if len(pos):
        take = pos[rng.choice(len(pos), size=min(VERIFY_SAMPLES, len(pos)), replace=False)]
        cells.extend((int(i), int(j), 1) for i, j in take)
    neg = np.argwhere(targets.labels == 0)
    if len(neg):
        n_hard = min((VERIFY_SAMPLES + 1) // 2, len(neg))
        weights = probs[neg[:, 0], neg[:, 1], 1] + 1e-3
        weights = weights / weights.sum()
        hard = rng.choice(len(neg), size=n_hard, replace=False, p=weights)
        chosen = set(hard.tolist())
        remaining = [k for k in range(len(neg)) if k not in chosen]
        n_rand = min(VERIFY_SAMPLES - n_hard, len(remaining))
        if n_rand > 0:
            rand = rng.choice(len(remaining), size=n_rand, replace=False)
            chosen.update(remaining[r] for r in rand)
        cells.extend((int(neg[k][0]), int(neg[k][1]), 0) for k in sorted(chosen))
    return cells


def _candidate_step(model, image, state, i, j, label, d_point, d_feat_extra,
                    config, loss_weight=1.0):
    """Forward + backward for one sampled verification candidate.

    Adds the candidate's gradients on the proposal maps into d_point and
    d_feat_extra. Returns (verdict loss, correct flag, R-CNN + verdict
    gradients in model.params() order, canonical gradient or None), or None
    when the similarity fit is singular.
    """
    lms, box = _decode_cells(state, [i], [j], model.multitask)
    lms, box = (lms[0], None) if box is None else (None, box[0])
    try:
        transform = _candidate_transform(model, lms, box)
    except SingularTransformError:
        return None

    rpn_feat = state.feat[:, i, j].copy() if model.use_concat else None
    cache = verify_forward(model, image, transform, rpn_feat)
    vloss, probs_v = nn.softmax_cross_entropy(cache.logits, label)
    d_logits = nn.softmax_cross_entropy_backward(probs_v, label) * loss_weight
    # geometry supervision from the verdict loss applies to true faces; a
    # background candidate's landmarks carry no pose to refine
    supervise = model.multitask and model.supervised_transform and label == 1
    rcnn_grads, verdict_grads, d_rpn_feat, d_crop = verify_backward(
        model, cache, d_logits, supervise
    )
    if d_rpn_feat is not None:
        d_feat_extra[:, i, j] += config.concat_supervision_scale * d_rpn_feat

    d_canonical = None
    if supervise:
        grads = warp_backward(d_crop, image, transform)
        grads = landmark_and_canonical_gradients(grads, lms, model.canonical.points)
        # landmarks came from the head as offsets scaled by POINT_SCALE
        d_point[:, i, j] += (
            config.warp_supervision_scale
            * grads.d_landmarks.reshape(-1)
            * POINT_SCALE
        )
        d_canonical = grads.d_canonical
    predicted = int(np.argmax(cache.logits))
    return vloss, int(predicted == label), rcnn_grads + verdict_grads, d_canonical


# --------------------------------------------------------------------------
# detection


def _dense_levels(image: np.ndarray):
    levels = []
    current = image
    for k in range(MAX_LEVELS):
        if min(current.shape[1], current.shape[2]) < 48:
            break
        levels.append((k, current, None))
        current = downsample_image(current)
    return levels


def _roi_levels(image: np.ndarray, work: np.ndarray, model: DetectorModel):
    """ROI levels of work, masked by the pre-filter's scan of image."""
    raw = cascade_scan(image[0], model.cascade)
    # as Python floats: the per-box arithmetic costs twice as much on numpy scalars
    groups = group_candidates(raw[:, :4].tolist())
    return RoiPyramid.build(work, groups).levels


def _level_candidates(model, state, octave):
    """Detections proposed by one pyramid level's score map: its eligible
    cells decoded as arrays and, with the landmark head, their boxes fitted
    in one pass, which drops each cell whose landmarks coincide."""
    probs = np.exp(nn.log_softmax(state.score.reshape(2, -1).T))[:, 1]
    probs = probs.reshape(state.score.shape[1:])
    eligible = probs >= PROPOSAL_THRESHOLD
    if state.head_mask is not None:
        eligible &= state.head_mask.bits
    ii, jj = np.nonzero(eligible)
    lms, boxes = _decode_cells(state, ii, jj, model.multitask, 2.0**octave)
    ok = np.ones(len(ii), dtype=bool)
    if boxes is None:
        boxes, ok = box_from_landmarks(lms)
    lms = [None] * len(ii) if lms is None else lms
    feats = state.feat[:, ii, jj].T.copy() if model.use_concat else [None] * len(ii)
    scores = probs[ii, jj].tolist()
    return [Detection(tuple(boxes[n].tolist()), scores[n], lms[n], feats[n])
            for n in np.flatnonzero(ok)]


def detect(image: np.ndarray, model: DetectorModel,
           options: DetectOptions = DetectOptions()) -> list[Detection]:
    """Full two-stage detection on one (1, H, W) grayscale image.

    The proposal and verification nets run on one INFERENCE_DTYPE copy of
    the image; the fern pre-filter scans the image as given. A pixel that
    is not finite in either raises ValueError."""
    if image.ndim != 3 or image.shape[0] != 1:
        raise ShapeError(f"expected a (1, H, W) grayscale image, got {image.shape}")
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

    candidates = []
    for octave, level_img, mask in levels:
        state = rpn_forward(model.rpn, level_img, mask)
        candidates.extend(_level_candidates(model, state, octave))

    if options.suppression == "non_top_k":
        kept = non_top_k(candidates)
    elif options.suppression == "nms":
        kept = nms(candidates)
    else:
        kept = candidates

    final = []
    for cand in kept:
        try:
            transform = _candidate_transform(model, cand.landmarks, cand.box)
        except SingularTransformError:
            continue
        cache = verify_forward(model, work, transform, cand.feature)
        prob = float(np.exp(nn.log_softmax(cache.logits))[1])
        final.append(Detection(cand.box, prob, landmarks=cand.landmarks))
    return nms(final)


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
    each; a slot whose draws all overlap a face is left empty."""
    pos, neg = [], []
    for sample in corpus:
        h, w = sample.image.shape[1:]
        for box, _ in sample.faces:
            pos.append(crop_patch(sample.image, box, PATCH_SIZE))
        for _ in range(NEGATIVES_PER_IMAGE):
            for _attempt in range(10):
                side = rng.uniform(36, 72)
                x = rng.uniform(0, w - side)
                y = rng.uniform(0, h - side)
                cand = (x, y, side, side)
                if all(iou(cand, box) < 0.1 for box, _ in sample.faces):
                    neg.append(crop_patch(sample.image, cand, PATCH_SIZE))
                    break
    return np.array(pos), np.array(neg)


def train_prefilter(corpus, num_ferns: int = 120, seed: int = 0):
    """Train the fern cascade on corpus-derived patches. Its train_log
    also records the negative slots requested and the crops harvested, so
    a shortfall shows."""
    rng = np.random.default_rng(seed + 3)
    pos, neg = harvest_cascade_patches(corpus, rng)
    cfg = CascadeConfig(num_ferns=num_ferns, candidate_pool=PREFILTER_POOL, seed=seed)
    cascade = train_cascade(pos, neg, cfg)
    cascade.train_log["negatives_requested"] = NEGATIVES_PER_IMAGE * len(corpus)
    cascade.train_log["negatives_harvested"] = len(neg)
    return cascade
