"""In-memory span tracer attached to warpdet's layer functions by patching.

Nothing in ``warpdet`` knows about this module. ``Tracer.install`` replaces
the public functions of each layer with thin wrappers, at the names through
which ``warpdet.pipeline`` looks them up:

- functions that ``pipeline`` calls through the ``nn`` module are patched on
  ``warpdet.nn``;
- names that ``pipeline`` imports directly are patched on ``warpdet.pipeline``.

Each wrapper records one span (operation id, name, parent span, start, end)
and, where the layer does countable work, a count for the current operation.
Span names are the per-layer metric names, so a layer's time per operation is
the sum of its spans divided by the number of operations.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from types import SimpleNamespace

from warpdet import nn, pipeline
from warpdet.align import SingularTransformError
from warpdet.roiconv import roi_conv_macs

RPN_ROLES = ("rpn.conv1", "rpn.conv2", "rpn.conv3", "rpn.score_head", "rpn.point_head")
CONV_ROLES = RPN_ROLES + ("rcnn.conv1", "rcnn.conv2")

OP_SPAN = "op"

# Span names that may sit directly under an operation span. Together with the
# operation's self time they must account for all of its traced time.
DIRECT_CHILDREN = {
    "detect": (
        "ferns.scan_ms",
        "roiconv.pyramid_ms",
        "pipeline.rpn_forward_ms",
        "suppress.non_top_k_ms",
        "align.estimate_similarity_ms",
        "pipeline.verify_forward_ms",
        "suppress.nms_ms",
    ),
    "train_step": (
        "pipeline.rpn_forward_ms",
        "align.estimate_similarity_ms",
        "pipeline.verify_forward_ms",
        "pipeline.verify_backward_ms",
        "align.warp_backward_ms",
        "align.landmark_grads_ms",
        "pipeline.rpn_backward_ms",
        "nn.sgd_step_ms",
    ),
}


def conv_roles(model) -> dict[int, str]:
    """Role name of each conv filter array of ``model``, keyed by identity.

    Keys are object ids, so a deep copy of a model needs its own table.
    """
    roles = {}
    for role in CONV_ROLES:
        net, layer = role.split(".")
        roles[id(getattr(getattr(model, net), layer).filters)] = role
    return roles


def _conv_macs(x, spec) -> int:
    out_h, out_w = spec.out_size(x.shape[1], x.shape[2])
    return out_h * out_w * spec.in_channels * spec.kernel**2 * spec.out_channels


class Tracer:
    """Spans and counts of traced operations, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [op_id, name, parent index, start, end]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.roles: dict[int, str] = {}
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.op_id, name, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[self.op_id][name] += value

    def watch(self, model) -> None:
        """Name conv calls by the layers of ``model``, the model now run."""
        self.roles = conv_roles(model)

    def role(self, filters) -> str:
        try:
            return self.roles[id(filters)]
        except KeyError:
            raise RuntimeError(
                "conv filter is not a layer of the model being traced"
            ) from None

    def operation(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as operation ``op_id`` under one operation span."""
        self.op_id = op_id
        index = self.begin(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def _traced(self, fn, name, counted=None, singular=False):
        """Wrap ``fn`` in a span; ``name`` may be a function of the arguments.

        ``counted(result, *args)`` records counts after a successful call.
        With ``singular`` set, a SingularTransformError is counted and re-raised.
        """

        def wrapper(*args, **kwargs):
            index = self.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except SingularTransformError:
                if singular:
                    self.count("align.singular_skips", 1)
                raise
            finally:
                self.end(index)
            if counted is not None:
                counted(result, *args, **kwargs)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every traced name; ``uninstall`` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        def conv_fwd_macs(result, x, filters, spec, bias=None):
            self.count("nn.conv_macs", _conv_macs(x, spec))

        def conv_bwd_macs(result, grad_out, x, filters, spec, with_bias=False):
            # grad_filters and grad_input each cost one forward-sized product
            self.count("nn.conv_macs", 2 * _conv_macs(x, spec))

        def roi_counts(result, x, filters, mask, spec, bias=None):
            self.count("roiconv.mask_ones", mask.ones_count)
            self.count("roiconv.conv_macs", roi_conv_macs(mask, spec))
            self.count("roiconv.masks", 1)
            self.count("roiconv.sparsity_sum", mask.sparsity)

        def suppress_counts(result, detections, config=None):
            self.count("suppress.proposals", len(detections))
            self.count("suppress.kept", len(result))

        def scan_counts(result, image, model, **kwargs):
            self.count("ferns.windows", scan_windows(image.shape[-2:], model.patch_size))
            self.count("ferns.survivors", len(result))

        def verified(result, *args):
            self.count("pipeline.verified", 1)

        real_pyramid = pipeline.RoiPyramid
        patches = [
            (nn, "conv2d_forward", self._traced(
                nn.conv2d_forward,
                lambda x, filters, *a, **k: "nn.conv_fwd_ms." + self.role(filters),
                conv_fwd_macs)),
            (nn, "conv2d_backward", self._traced(
                nn.conv2d_backward,
                lambda g, x, filters, *a, **k: "nn.conv_bwd_ms." + self.role(filters),
                conv_bwd_macs)),
            (nn, "fully_connected", self._traced(nn.fully_connected, "nn.fc_ms")),
            (nn, "fully_connected_backward",
             self._traced(nn.fully_connected_backward, "nn.fc_ms")),
            (nn, "sgd_step", self._traced(nn.sgd_step, "nn.sgd_step_ms")),
            (pipeline, "rpn_forward",
             self._traced(pipeline.rpn_forward, "pipeline.rpn_forward_ms")),
            (pipeline, "rpn_backward",
             self._traced(pipeline.rpn_backward, "pipeline.rpn_backward_ms")),
            (pipeline, "verify_forward", self._traced(
                pipeline.verify_forward, "pipeline.verify_forward_ms", verified)),
            (pipeline, "verify_backward",
             self._traced(pipeline.verify_backward, "pipeline.verify_backward_ms")),
            (pipeline, "warp", self._traced(pipeline.warp, "align.warp_ms")),
            (pipeline, "warp_backward",
             self._traced(pipeline.warp_backward, "align.warp_backward_ms")),
            (pipeline, "estimate_similarity", self._traced(
                pipeline.estimate_similarity, "align.estimate_similarity_ms",
                singular=True)),
            (pipeline, "landmark_and_canonical_gradients", self._traced(
                pipeline.landmark_and_canonical_gradients, "align.landmark_grads_ms",
                singular=True)),
            (pipeline, "non_top_k", self._traced(
                pipeline.non_top_k, "suppress.non_top_k_ms", suppress_counts)),
            (pipeline, "nms", self._traced(pipeline.nms, "suppress.nms_ms")),
            (pipeline, "cascade_scan",
             self._traced(pipeline.cascade_scan, "ferns.scan_ms", scan_counts)),
            (pipeline, "roi_conv_forward", self._traced(
                pipeline.roi_conv_forward,
                lambda x, filters, *a, **k: "roiconv.conv_ms." + self.role(filters),
                roi_counts)),
            (pipeline, "group_candidates",
             self._traced(pipeline.group_candidates, "roiconv.pyramid_ms")),
            (pipeline, "RoiPyramid", SimpleNamespace(
                build=self._traced(real_pyramid.build, "roiconv.pyramid_ms"))),
        ]
        for module, attr, replacement in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def span_totals(self, op_ids) -> tuple[dict[str, float], float, float, set]:
        """Seconds per span name and in operation spans, over ``op_ids``.

        Returns (seconds by name, operation seconds, self seconds, names of
        spans found directly under an operation span).
        """
        wanted = set(op_ids)
        by_name: dict[str, float] = defaultdict(float)
        op_total = children = 0.0
        direct = set()
        for op_id, name, parent, start, end in self.spans:
            if op_id not in wanted:
                continue
            if name == OP_SPAN:
                op_total += end - start
                continue
            by_name[name] += end - start
            if self.spans[parent][1] == OP_SPAN:
                children += end - start
                direct.add(name)
        return by_name, op_total, op_total - children, direct

    def count_totals(self, op_ids) -> Counter:
        total = Counter()
        for op_id in op_ids:
            total.update(self.counts.get(op_id, {}))
        return total


def scan_windows(shape, patch_size: int) -> int:
    """Windows that ``ferns.scan`` evaluates at its default pyramid settings:
    levels from a 36-px face to the window size, 2^(1/3) apart, stride 4."""
    h, w = shape
    factor = patch_size / 36.0
    windows = 0
    while True:
        lh, lw = int(round(h * factor)), int(round(w * factor))
        if lh < patch_size or lw < patch_size:
            return windows
        windows += ((lh - patch_size) // 4 + 1) * ((lw - patch_size) // 4 + 1)
        factor /= 2.0 ** (1.0 / 3.0)
