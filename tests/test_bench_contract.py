"""The benchmark's tracer still fits the package.

``bench/spans.Tracer`` wraps ``warpdet`` functions by name, with the keywords
they are called with, in the reference pass of every benchmark run. Here it
traces one dense detect, one ROI detect and one joint training step of the
tiny seeded model. The cascade passes every window, so the ROI path runs
every masked layer. A renamed function or a changed keyword makes a wrapper
raise; a new span name or an untraced call directly under an operation
fails the checks below.
"""

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import decode_oracles
from conftest import TINY_SEED, open_cascade
from warpdet import pipeline

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return spans


@pytest.fixture(scope="module")
def traced(spans, tiny_run, held_out):
    """A tracer that has recorded operations 0 (dense detect), 1 (ROI
    detect) and 2 (joint training step). Its ``pyramid_calls`` lists, for
    each call of ``group_candidates`` and ``RoiPyramid.build``, the
    operation, the function, the span just opened around it and the
    keywords it was called with."""
    model = copy.deepcopy(tiny_run[0])
    model.cascade = open_cascade(np.random.default_rng(TINY_SEED))
    sample = held_out[0]
    tracer = spans.Tracer()
    tracer.pyramid_calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            _, span, _, _, end = tracer.spans[-1]
            tracer.pyramid_calls.append((tracer.op_id, name, span, end, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    saved = pipeline.group_candidates, pipeline.RoiPyramid
    pipeline.group_candidates = recorded("group_candidates", saved[0])
    pipeline.RoiPyramid = SimpleNamespace(
        build=recorded("RoiPyramid.build", saved[1].build))
    tracer.install()
    try:
        tracer.watch(model)
        tracer.operation(0, pipeline.detect, sample.image, model)
        tracer.operation(1, pipeline.detect, sample.image, model,
                         pipeline.DetectOptions(use_roi_conv=True))
        tracer.watch(model)
        config = pipeline.TrainConfig(epochs=1, seed=TINY_SEED)
        tracer.operation(2, pipeline.train_end_to_end, [sample], model, config)
    finally:
        tracer.uninstall()
        pipeline.group_candidates, pipeline.RoiPyramid = saved
    return tracer


def _span_names(tracer, op_id):
    return {name for op, name, *_ in tracer.spans if op == op_id and name != "op"}


def test_every_span_is_a_benchmark_metric(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["per_layer"]}
    names = set().union(*(_span_names(traced, op) for op in range(3)))
    assert names <= metrics, sorted(names - metrics)


@pytest.mark.parametrize("op_id, kind", [(0, "detect"), (1, "detect"), (2, "train_step")])
def test_direct_children_are_accounted_for(spans, traced, op_id, kind):
    direct = traced.span_totals([op_id])[3]
    assert direct
    assert direct <= set(spans.DIRECT_CHILDREN[kind]), sorted(direct)


def test_roi_detect_records_every_masked_layer(spans, traced):
    masked = {"roiconv.conv_ms." + role for role in spans.RPN_ROLES}
    assert masked <= _span_names(traced, 1)
    assert traced.count_totals([1])["ferns.survivors"] > 0


def test_roi_detect_records_one_grouping_and_one_pyramid_span(traced):
    """The ROI detect groups its candidates once and builds its pyramid once,
    each with positional arguments inside a span of its own; the dense
    detect and the training step record no pyramid span."""
    assert traced.pyramid_calls == [
        (1, "group_candidates", "roiconv.pyramid_ms", 0.0, {}),
        (1, "RoiPyramid.build", "roiconv.pyramid_ms", 0.0, {}),
    ]
    pyramid = [op for op, name, *_ in traced.spans if name == "roiconv.pyramid_ms"]
    assert pyramid == [1, 1]


def test_dense_detect_counts_match_the_per_cell_oracle(traced, tiny_run, held_out):
    """Every candidate that non-top-K keeps is verified or counted as a
    singular fit, and the proposals are the eligible cells that the
    per-cell oracle decodes and fits over all dense levels of the
    INFERENCE_DTYPE copy on which detect runs the nets."""
    counts = traced.count_totals([0])
    assert counts["suppress.kept"] > 0
    assert counts["suppress.kept"] == (
        counts["pipeline.verified"] + counts["align.singular_skips"]
    )
    model = tiny_run[0]
    proposals = sum(
        len(decode_oracles.level_candidates(
            model, pipeline.rpn_forward(model.rpn, level), octave))
        for octave, level, _ in pipeline._dense_levels(
            held_out[0].image.astype(pipeline.INFERENCE_DTYPE))
    )
    assert counts["suppress.proposals"] == proposals
