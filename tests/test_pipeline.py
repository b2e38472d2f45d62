"""Seeded tiny runs of the two training phases and of detection."""

import copy
import dataclasses
import hashlib
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conv_oracles
import decode_oracles
import detect_oracles
import joint_oracles
import warp_oracles
from conftest import TINY_SEED as SEED
from conftest import (central_diff, make_detector, open_cascade, rel_err, tiny_detector,
                      train_tiny)
from warpdet import ferns, nn, pipeline, roiconv, synthetic
from warpdet.align import SimilarityTransform, SingularTransformError, warp
from warpdet.model import ConvLayer, load_model, save_model
from warpdet.nn import ShapeError
from warpdet.suppress import iou

# The dense-detect AP floor of the benchmark: a working detector scores well
# above it, a broken conv or warp kernel far below it.
AP_FLOOR = 0.5


def _check_detections(dets, with_landmarks=True):
    for d in dets:
        assert np.all(np.isfinite(d.box))
        assert 0.0 <= d.score <= 1.0
        if with_landmarks:
            assert np.all(np.isfinite(d.landmarks))


def test_repeated_run_is_bit_identical(tiny_run):
    model, rpn_history, joint_history = tiny_run
    again, rpn_again, joint_again = train_tiny()
    for a, b in zip(model.params(), again.params(), strict=True):
        assert np.array_equal(a, b)
    assert rpn_history == rpn_again
    assert joint_history["epochs"] == joint_again["epochs"]
    assert joint_history["singular_skips"] == joint_again["singular_skips"]
    for a, b in zip(joint_history["canonical_snapshots"],
                    joint_again["canonical_snapshots"], strict=True):
        assert np.array_equal(a, b)


def test_joint_history_layout(tiny_run):
    _, _, history = tiny_run
    assert len(history["epochs"]) == 1
    epoch = history["epochs"][0]
    assert np.isfinite(epoch["loss"])
    assert 0.0 <= epoch["verdict_accuracy"] <= 1.0
    assert history["singular_skips"] >= 0
    # the initial shape, then one snapshot per epoch
    assert len(history["canonical_snapshots"]) == 2
    assert not np.array_equal(*history["canonical_snapshots"])


def test_detect_outputs_are_finite_scores_in_unit_interval(tiny_run, held_out):
    model = tiny_run[0]
    dets = [pipeline.detect(s.image, model) for s in held_out]
    assert sum(len(d) for d in dets) > 0
    for image_dets in dets:
        _check_detections(image_dets)


@pytest.mark.parametrize("mode", ["nms", "none"])
def test_detect_in_other_suppression_modes(tiny_run, held_out, mode):
    """Whatever the first suppression keeps, the final NMS leaves no two
    boxes overlapping at IoU 0.5."""
    model = tiny_run[0]
    options = pipeline.DetectOptions(suppression=mode)
    dets = [pipeline.detect(s.image, model, options) for s in held_out]
    assert sum(len(d) for d in dets) > 0
    for image_dets in dets:
        _check_detections(image_dets)
        for a, b in itertools.combinations(image_dets, 2):
            assert iou(a.box, b.box) < 0.5


def test_detect_options_reject_an_unknown_suppression_mode():
    with pytest.raises(ValueError, match="unknown suppression mode 'soft'"):
        pipeline.DetectOptions(suppression="soft")


@pytest.mark.parametrize("value", ["no", None, 1, np.bool_(True)])
def test_detect_options_reject_a_use_roi_conv_that_is_no_bool(value):
    """use_roi_conv="no" used to run the ROI path."""
    with pytest.raises(ValueError, match="^use_roi_conv must be a bool"):
        pipeline.DetectOptions(use_roi_conv=value)


def test_detect_options_are_frozen():
    options = pipeline.DetectOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.suppression = "nms"


@pytest.mark.parametrize(
    "variant",
    [{"multitask": False}, {"use_concat": False}, {"supervised_transform": False}],
    ids=lambda v: next(iter(v)),
)
def test_ablation_variant_trains_and_detects(variant, held_out):
    model, _, history = train_tiny(**variant)
    assert all(np.all(np.isfinite(p)) for p in model.params())
    assert np.isfinite(history["epochs"][0]["loss"])
    if variant.get("supervised_transform") is False:
        # a frozen canonical shape never moves
        first, last = history["canonical_snapshots"]
        assert np.array_equal(first, last)
    for sample in held_out:
        _check_detections(pipeline.detect(sample.image, model),
                          with_landmarks=model.multitask)


def test_rect_size_off_a_multiple_of_8_trains_detects_and_round_trips(tmp_path, held_out):
    """rcnn.fc takes the width of the pooled verification map, whose
    poolings round odd extents up: 60 -> 30 -> 15 -> 8."""
    model = make_detector(SEED, rect_size=60)
    assert model.rcnn.fc.weight.shape[1] == pipeline.RCNN_CHANNELS[1] * 8 * 8
    corpus = synthetic.generate_synthetic_corpus(SEED, 2)
    model, history = pipeline.train_end_to_end(
        corpus, model, pipeline.TrainConfig(epochs=1, seed=SEED))
    assert np.isfinite(history["epochs"][0]["loss"])
    image = held_out[0].image
    dets = pipeline.detect(image, model)
    assert dets
    _check_detections(dets)
    save_model(model, tmp_path / "model.wcnn")
    loaded = load_model(tmp_path / "model.wcnn")
    assert loaded.rect_size == 60
    for a, b in zip(pipeline.detect(image, loaded), dets, strict=True):
        assert a.box == b.box and a.score == b.score
        assert np.array_equal(a.landmarks, b.landmarks)


@pytest.mark.parametrize("shape", [(3, 64, 64), (64, 64), (2, 1, 64, 64)])
def test_detect_rejects_non_grayscale_shapes(shape):
    model = pipeline.build_detector(pipeline.TrainConfig())
    with pytest.raises(ShapeError, match=r"expected a \(1, H, W\)"):
        pipeline.detect(np.zeros(shape), model)


@pytest.fixture(scope="module")
def untrained():
    return pipeline.build_detector(pipeline.TrainConfig())


@settings(max_examples=15, deadline=None)
@given(
    st.integers(48, 96), st.integers(48, 96), st.integers(0, 2**32 - 1),
    st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
)
def test_detect_returns_finite_boxes_and_unit_scores_on_any_finite_image(
    untrained, height, width, seed, offset, log_contrast
):
    """An untrained net proposes candidates all over the image, so every
    stage of detect runs; contrast spans six decades."""
    pixels = np.random.default_rng(seed).random((1, height, width))
    image = offset + 10.0**log_contrast * pixels
    _check_detections(pipeline.detect(image, untrained))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])
def test_detect_rejects_non_finite_pixels(bad):
    """1e39 is finite in float64 but not in float32, where detect runs both
    nets: it raises the same error rather than return NaN scores, and no
    pixel warns of anything."""
    model = pipeline.build_detector(pipeline.TrainConfig())
    image = np.zeros((1, 64, 64))
    image[0, 10, 20] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            pipeline.detect(image, model)


NOT_REAL = pytest.mark.parametrize("dtype", [np.complex128, object, np.str_],
                                   ids=["complex", "object", "string"])


@NOT_REAL
def test_detect_rejects_an_image_that_is_not_real_numbers(untrained, held_out, dtype):
    """A complex image used to be cast with a ComplexWarning, an object or
    string one read as numbers; each now raises before any arithmetic."""
    image = held_out[0].image.astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is not bool, integer or float"):
            pipeline.detect(image, untrained)


DETECT_OPTIONS = [
    pipeline.DetectOptions(),
    pipeline.DetectOptions(suppression="nms"),
    pipeline.DetectOptions(suppression="none"),
    pipeline.DetectOptions(use_roi_conv=True),
]


@pytest.mark.parametrize(
    "options", DETECT_OPTIONS,
    ids=["non_top_k", "nms", "none", "roi"],
)
def test_detect_matches_the_float64_reference_to_float32_rounding(
    tiny_run, held_out, options
):
    """detect, which runs both nets in float32, against the float64
    reference of tests/detect_oracles.py on seeded held-out images: the
    same boxes, in the same order, to float32 rounding. The cascade passes
    every window, so the ROI path runs every masked layer."""
    model = copy.copy(tiny_run[0])
    model.cascade = open_cascade(np.random.default_rng(SEED))
    images = [s.image for s in held_out] + [
        s.image for s in synthetic.generate_synthetic_corpus(
            SEED + 4, 3, synthetic.CorpusParams(image_size=160))
    ]
    boxes = 0
    for image in images:
        got = pipeline.detect(image, model, options)
        want = detect_oracles.detect(image, model, options)
        assert len(got) == len(want)
        boxes += len(got)
        for g, w in zip(got, want):
            assert np.max(np.abs(np.subtract(g.box, w.box))) <= 1e-3
            assert np.max(np.abs(g.landmarks - w.landmarks)) <= 1e-3
            assert abs(g.score - w.score) <= 1e-4
    assert boxes > 0


def _spy_on_detect(monkeypatch):
    """Wrap the functions detect calls between the proposal levels and its
    output; returns the list each call appends (name, arguments, result or
    None where it raised) to."""
    calls = []

    def spy(name):
        real = getattr(pipeline, name)

        def wrapper(*args):
            try:
                result = real(*args)
            except SingularTransformError:
                calls.append((name, args, None))
                raise
            calls.append((name, args, result))
            return result
        return wrapper

    for name in ("_level_candidates", "non_top_k", "nms", "_candidate_transform",
                 "verify_forward"):
        monkeypatch.setattr(pipeline, name, spy(name))
    return calls


@pytest.fixture(scope="module")
def box_head_model():
    return train_tiny(multitask=False)[0]


@pytest.mark.parametrize("every_other_singular", [False, True], ids=["fits", "skips"])
@pytest.mark.parametrize("mode", ["non_top_k", "nms", "none"])
@pytest.mark.parametrize("head", ["landmark", "box"])
def test_final_nms_takes_the_verified_rows_with_their_verdicts(
    tiny_run, box_head_model, held_out, monkeypatch, head, mode, every_other_singular
):
    """Each kept candidate is fitted from its row of the proposals'
    geometry, in kept order, and each whose fit succeeded is verified with
    its proposal feature row. detect's last nms call gets one (M, 5)
    float64 array: the box of each verified candidate, in kept order, with
    the verdict exp(log_softmax(logits))[1] of its verify_forward call.
    detect returns the records of exactly the rows that call keeps, in its
    order: the box as a tuple of floats, the verdict as a float, and the
    candidate's landmarks, None from the box head. With every other fit
    made singular, the verified rows are not a prefix of the kept ones."""
    model = tiny_run[0] if head == "landmark" else box_head_model
    if every_other_singular:
        real_transform = pipeline._candidate_transform
        fitted = itertools.count()

        def transform(*args):
            if next(fitted) % 2:
                raise SingularTransformError("every other candidate")
            return real_transform(*args)
        monkeypatch.setattr(pipeline, "_candidate_transform", transform)
    calls = _spy_on_detect(monkeypatch)
    boxes = 0
    for image in [s.image for s in held_out] + [
        s.image for s in synthetic.generate_synthetic_corpus(
            SEED + 4, 3, synthetic.CorpusParams(image_size=160))
    ]:
        calls.clear()
        dets = pipeline.detect(image, model, pipeline.DetectOptions(suppression=mode))
        proposals, geometry, feats = (np.concatenate(parts) for parts in zip(
            *[result for name, _, result in calls if name == "_level_candidates"]))
        if head == "box":
            assert np.array_equal(geometry, proposals[:, :4])
        *first, (name, (final,), keep) = [
            call for call in calls if call[0] in ("non_top_k", "nms")]
        assert name == "nms"
        assert [call[0] for call in first] == ([] if mode == "none" else [mode])
        kept = np.arange(len(proposals))[first[0][2] if first else slice(None)]

        fits = [call for call in calls if call[0] == "_candidate_transform"]
        assert len(fits) == len(kept)
        for (_, args, _), n in zip(fits, kept):
            assert args[1].tobytes() == geometry[n].tobytes()
        verified = [n for n, (_, _, transform) in enumerate(fits) if transform is not None]
        verifies = [(args, cache) for name, args, cache in calls
                    if name == "verify_forward"]
        assert len(verifies) == len(verified)
        for n, (args, _) in zip(verified, verifies):
            assert args[2] is fits[n][2]
            assert args[3].tobytes() == feats[kept[n]].tobytes()

        assert type(final) is np.ndarray
        assert final.dtype == np.float64 and final.shape == (len(verified), 5)
        assert final[:, :4].tolist() == proposals[kept[verified], :4].tolist()
        assert final[:, 4].tolist() == [
            float(np.exp(nn.log_softmax(cache.logits))[1]) for _, cache in verifies]

        assert len(dets) == len(keep)
        for det, n in zip(dets, keep):
            assert type(det.box) is tuple and {type(v) for v in det.box} == {float}
            assert det.box == tuple(final[n, :4].tolist())
            assert type(det.score) is float and det.score == final[n, 4]
            if head == "box":
                assert det.landmarks is None
            else:
                assert np.array_equal(det.landmarks, geometry[kept[verified[n]]])
        boxes += len(dets)
    assert boxes > 0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("extent", [(6, 8), (5, 7), (4, 1), (1, 1)])
def test_a_pooled_block_gates_the_relu_at_pooled_resolution(monkeypatch, dtype, extent):
    """_trunk_backward hands the conv backward of a pooled block the bytes
    of relu_backward(maxpool2x2_backward(d, a, p), a): on finite relu maps
    with tied taps, signed zeros and odd extents, and upstream gradients
    with infinities and NaNs. (Only a NaN in the forward map may route
    otherwise, and the training step rejects such a map either way.)"""
    rng = np.random.default_rng(sum(extent))
    spec = nn.ConvSpec(2, 3, 3, padding=1)
    layer = ConvLayer(spec, rng.standard_normal((3, 2, 3, 3)), np.zeros(3))
    handed = []
    real_backward = nn.conv2d_backward

    def conv_backward(d_z, *args):
        handed.append(d_z)
        return real_backward(d_z, *args)

    monkeypatch.setattr(nn, "conv2d_backward", conv_backward)
    for _ in range(40):
        x = rng.standard_normal((2, *extent)).astype(dtype)
        a = rng.choice([-1.5, -0.0, 0.0, 0.0, 0.75, 0.75, 2.0],
                       size=(3, *extent)).astype(dtype)
        p = nn.maxpool2x2(a)
        d_out = rng.choice([-1.0, -0.0, 0.0, 0.5, 3.0, np.inf, -np.inf, np.nan],
                           size=p.shape).astype(dtype)
        handed.clear()
        with np.errstate(invalid="ignore"):
            pipeline._trunk_backward([(layer, True)], [(x, a, p)], d_out, True)
            want = nn.relu_backward(nn.maxpool2x2_backward(d_out, a, p), a)
        (got,) = handed
        assert got.dtype == want.dtype and got.shape == want.shape == a.shape
        assert got.tobytes() == want.tobytes()


def test_training_passes_run_in_float64_and_detect_nets_in_float32(
    tiny_run, held_out, monkeypatch
):
    """The nets compute in the dtype of the image they are given: training
    hands them the float64 corpus image, detect its float32 copy. Only the
    verdict head's fc layer promotes a float32 feature to float64. warp
    samples in the image's dtype: float32 crops in detect, float64 crops
    in a joint training step."""
    model = tiny_run[0]
    image = held_out[0].image
    transform = pipeline.crop_transform((20.0, 24.0, 40.0, 40.0), model.rect_size)
    for dtype in (np.dtype(np.float64), np.dtype(np.float32)):
        state = pipeline.rpn_forward(model.rpn, image.astype(dtype))
        assert {state.feat.dtype, state.score.dtype, state.point.dtype} == {dtype}
        cache = pipeline.verify_forward(model, image.astype(dtype), transform,
                                        state.feat[:, 3, 3].copy())
        assert cache.trunk[0][0].dtype == cache.trunk[-1][2].dtype == dtype
        assert cache.logits.dtype == np.float64

    seen = []

    def spy(name):
        real = getattr(pipeline, name)

        def wrapper(net, image, *args):
            seen.append((name, image.dtype))
            return real(net, image, *args)
        return wrapper

    def warp_spy(source, transform, out_size):
        crop = warp(source, transform, out_size)
        seen.append(("warp", crop.dtype))
        return crop

    warp = pipeline.warp
    for name in ("rpn_forward", "verify_forward"):
        monkeypatch.setattr(pipeline, name, spy(name))
    monkeypatch.setattr(pipeline, "warp", warp_spy)
    assert pipeline.detect(image, model)
    assert {name for name, _ in seen} == {"rpn_forward", "verify_forward", "warp"}
    assert {dtype for _, dtype in seen} == {np.dtype(pipeline.INFERENCE_DTYPE)}

    seen.clear()
    pipeline.train_end_to_end(held_out[:1], copy.deepcopy(model),
                              pipeline.TrainConfig(epochs=1, seed=SEED))
    assert {name for name, _ in seen} >= {"rpn_forward", "verify_forward", "warp"}
    assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}


def test_rpn_backward_matches_central_differences():
    """Whole proposal chain (conv, ReLU, pooling, both heads) against central
    differences of a fixed random projection of score and point."""
    rng = np.random.default_rng(SEED)
    rpn = make_detector(SEED, rpn_channels=(3, 4, 5)).rpn
    image = rng.random((1, 32, 32))
    state = pipeline.rpn_forward(rpn, image)
    w_score = rng.standard_normal(state.score.shape)
    w_point = rng.standard_normal(state.point.shape)

    def loss():
        out = pipeline.rpn_forward(rpn, image)
        return float(np.sum(out.score * w_score) + np.sum(out.point * w_point))

    grads = pipeline.rpn_backward(rpn, state, w_score, w_point)
    params = rpn.params()
    assert len(grads) == len(params) == 10
    step = 1e-5
    for param, grad in zip(params, grads, strict=True):
        assert grad.shape == param.shape
        flat = param.reshape(-1)  # a view: perturbs the net in place
        picks = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
        numeric = np.empty(picks.size)
        for n, i in enumerate(picks):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss()
            flat[i] = orig - step
            lo = loss()
            flat[i] = orig
            numeric[n] = (hi - lo) / (2.0 * step)
        assert rel_err(grad.reshape(-1)[picks], numeric) < 1e-5


@pytest.mark.parametrize("multitask", [True, False])
def test_cell_decode_of_the_regression_targets_gives_back_the_face(multitask):
    """The targets and the decode read the regression at one scale: every
    positive cell's targets, decoded, give the face's five landmarks, or with
    the box head its centre and side."""
    for sample in synthetic.generate_synthetic_corpus(SEED, 3):
        ((x, y, w, h), landmarks), = sample.faces
        cells = sample.image.shape[1] // pipeline.CELL_STRIDE
        targets = pipeline.rpn_targets(sample.faces, cells, cells, multitask)
        state = pipeline.RpnState([], None, None, targets.reg_targets)
        ii, jj = np.nonzero(targets.labels == 1)
        assert len(ii) > 0
        geometry = pipeline._decode_cells(state, ii, jj, multitask)
        assert geometry.shape == ((len(ii), 5, 2) if multitask else (len(ii), 4))
        for n, (i, j) in enumerate(zip(ii, jj)):
            want = decode_oracles.decode_cell(state, i, j, multitask)
            assert geometry[n].tobytes() == np.array(want).tobytes()
            if multitask:
                np.testing.assert_allclose(geometry[n], landmarks, rtol=0, atol=1e-9)
            else:
                bx, by, side, side_y = geometry[n]
                assert side == side_y
                np.testing.assert_allclose(
                    [bx + side / 2, by + side / 2, side],
                    [x + w / 2, y + h / 2, max(w, h)], rtol=0, atol=1e-9,
                )


def _assert_same_candidates(model, got, want):
    """The (rows, geometry, features) arrays of _level_candidates agree with
    the oracle's candidate list in order and in every byte of each box,
    score, landmark set or, from the box head, geometry box, and feature
    column, with the concatenation or without."""
    rows, geometry, feats = got
    assert rows.dtype == geometry.dtype == np.float64
    assert len(rows) == len(geometry) == len(feats) == len(want)
    for n, w in enumerate(want):
        box = np.asarray(w.box, dtype=np.float64)
        assert rows[n, :4].tobytes() == box.tobytes()
        assert rows[n, 4].tobytes() == np.float64(w.score).tobytes()
        for a, b in ((geometry[n], w.landmarks if model.multitask else box),
                     (feats[n], w.feature)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _seeded_level(rng, multitask, masked, shape=(9, 11), channels=4):
    """A proposal level of random head maps, about half its cells over the
    threshold, and with the landmark head eight eligible cells whose five
    landmarks coincide, exactly or to within 1e-12 px."""
    h, w = shape
    score = rng.standard_normal((2, h, w))
    point = 0.4 * rng.standard_normal((10 if multitask else 3, h, w))
    feat = rng.standard_normal((channels, h, w))
    mask = roiconv.RoiMask(rng.random(shape) < 0.6) if masked else None
    if multitask:
        cells = np.unravel_index(rng.permutation(h * w)[:8], shape)
        for n, (i, j) in enumerate(zip(*cells)):
            score[:, i, j] = (-2.0, 2.0)
            jitter = 1e-14 * rng.standard_normal(10) if n % 2 else 0.0
            point[:, i, j] = np.tile(rng.standard_normal(2), 5) + jitter
    return pipeline.RpnState([], feat, score, point, mask)


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "roi"])
@pytest.mark.parametrize("multitask", [True, False], ids=["landmarks", "box_head"])
def test_level_candidates_match_the_per_cell_oracle_on_seeded_maps(multitask, masked):
    """Every eligible cell of seeded score maps, decoded as arrays and
    fitted in one pass, gives the per-cell oracle's candidates bit for bit;
    a cell is dropped exactly where the oracle's fit raises."""
    rng = np.random.default_rng([SEED, multitask, masked])
    dropped = 0
    for octave in range(3):
        for use_concat in (True, False):
            model = SimpleNamespace(multitask=multitask, use_concat=use_concat)
            state = _seeded_level(rng, multitask, masked)
            got = pipeline._level_candidates(model, state, octave)
            want = decode_oracles.level_candidates(model, state, octave)
            _assert_same_candidates(model, got, want)
            probs = np.exp(nn.log_softmax(state.score.reshape(2, -1).T))[:, 1]
            eligible = (probs >= pipeline.PROPOSAL_THRESHOLD).reshape(state.score.shape[1:])
            if masked:
                eligible &= state.head_mask.bits
            assert len(want) > 0
            dropped += int(eligible.sum()) - len(want)
    assert (dropped > 0) == multitask


@pytest.fixture(scope="module")
def box_head_model():
    return train_tiny(multitask=False)[0]


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "roi"])
@pytest.mark.parametrize("head", ["landmarks", "box_head"])
def test_level_candidates_match_the_per_cell_oracle_on_trained_nets(
    tiny_run, box_head_model, held_out, head, masked
):
    """The same on the proposal maps of the tiny trained nets over each
    dense level, or inside an ROI mask of two blocks."""
    model = tiny_run[0] if head == "landmarks" else box_head_model
    found = 0
    for sample in held_out:
        for octave, level, _ in pipeline._dense_levels(sample.image):
            mask = None
            if masked:
                bits = np.zeros(level.shape[1:], dtype=bool)
                bits[4:40, 8:44] = bits[50:, 30:70] = True
                mask = roiconv.RoiMask(bits)
            state = pipeline.rpn_forward(model.rpn, level, mask)
            got = pipeline._level_candidates(model, state, octave)
            _assert_same_candidates(
                model, got, decode_oracles.level_candidates(model, state, octave)
            )
            found += len(got[0])
    assert found > 0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("masked", [False, True], ids=["dense", "roi"])
@pytest.mark.parametrize("multitask", [True, False], ids=["landmarks", "box_head"])
def test_a_level_with_no_eligible_cell_returns_the_full_paths_empty_arrays(
    multitask, masked, dtype, monkeypatch
):
    """No cell over the threshold, or none inside the mask: the level
    returns (0, 5) float64 rows, (0, 5, 2) landmarks or (0, 4) boxes in
    float64, and (0, C) features in the maps' dtype, the oracle's arrays,
    without decoding a cell or fitting a box."""
    def never(*args):
        raise AssertionError("an empty level was decoded or fitted")

    rng = np.random.default_rng([SEED, multitask, masked])
    state = _seeded_level(rng, multitask, masked, channels=5)
    if masked:
        state.head_mask = roiconv.RoiMask(np.zeros_like(state.head_mask.bits))
    else:
        state.score[0], state.score[1] = 1.0, -1.0
    state = pipeline.RpnState([], *(m.astype(dtype) for m in
                                    (state.feat, state.score, state.point)),
                              state.head_mask)
    model = SimpleNamespace(multitask=multitask, use_concat=True)
    want = decode_oracles.level_candidate_rows(model, state, 1)
    monkeypatch.setattr(pipeline, "_decode_cells", never)
    monkeypatch.setattr(pipeline, "box_from_landmarks", never)
    got = pipeline._level_candidates(model, state, 1)
    shapes = [(0, 5), (0, 5, 2) if multitask else (0, 4), (0, 5)]
    dtypes = [np.float64, np.float64, dtype]
    for g, w, shape, kind in zip(got, want, shapes, dtypes, strict=True):
        assert g.shape == w.shape == shape
        assert g.dtype == w.dtype == kind


def test_smoke_bench_scale_training_detects_faces():
    """Seeded bench-scale training (60 images of 96 px, RPN 2 epochs, joint 1
    epoch), then dense detect on 12 held-out 160-px images, scores an AP of
    at least the floor."""
    corpus = synthetic.generate_synthetic_corpus(SEED, 60)
    config = pipeline.TrainConfig(epochs=1, seed=SEED)
    model, _ = pipeline.train_rpn(corpus, config, epochs=2)
    model, _ = pipeline.train_end_to_end(corpus, model, config)
    held = synthetic.generate_synthetic_corpus(
        SEED + 2, 12, synthetic.CorpusParams(image_size=160)
    )
    detections = [pipeline.detect(s.image, model) for s in held]
    truths = [[box for box, _ in s.faces] for s in held]
    report = pipeline.evaluate(detections, truths, iou_threshold=0.5)
    assert report.average_precision() >= AP_FLOOR


def test_verify_backward_through_warp_matches_central_differences():
    """Verdict loss -> verification net -> warp -> similarity fit: d_landmarks
    and d_canonical against central differences, on a tiny net; and the
    verdict loss's gradient on the concatenated proposal feature."""
    rng = np.random.default_rng(SEED)
    model = tiny_detector(SEED)
    image = rng.random((1, 40, 40))
    canonical = model.canonical.points.copy()
    landmarks = 20.0 + 9.0 * synthetic.GLYPH_LANDMARKS + rng.uniform(-1, 1, (5, 2))
    rpn_feat = rng.standard_normal(model.rpn.conv3.spec.out_channels)
    label = 1

    def loss(lms, canon):
        t = pipeline.estimate_similarity(lms, canon)
        cache = pipeline.verify_forward(model, image, t, rpn_feat)
        return nn.softmax_cross_entropy(cache.logits, label)[0]

    transform = pipeline.estimate_similarity(landmarks, canonical)
    cache = pipeline.verify_forward(model, image, transform, rpn_feat)
    _, probs = nn.softmax_cross_entropy(cache.logits, label)
    d_logits = nn.softmax_cross_entropy_backward(probs, label)
    _, d_rpn_feat, d_crop = pipeline.verify_backward(model, cache, d_logits, True)
    grads = pipeline.warp_backward(d_crop, image, transform)
    d_landmarks, d_canonical = pipeline.landmark_and_canonical_gradients(
        grads, landmarks, canonical)

    step = 1e-5
    for points, analytic, as_landmarks in (
        (landmarks, d_landmarks, True),
        (canonical, d_canonical, False),
    ):
        numeric = np.empty_like(points)
        for idx in np.ndindex(points.shape):
            orig = points[idx]
            points[idx] = orig + step
            hi = loss(landmarks, canonical)
            points[idx] = orig - step
            lo = loss(landmarks, canonical)
            points[idx] = orig
            numeric[idx] = (hi - lo) / (2.0 * step)
        assert np.abs(analytic).max() > 1e-6, as_landmarks
        assert rel_err(analytic, numeric) < 1e-5, as_landmarks

    def loss_of_feat(feat):
        cache = pipeline.verify_forward(model, image, transform, feat)
        return nn.softmax_cross_entropy(cache.logits, label)[0]

    assert np.abs(d_rpn_feat).max() > 1e-6
    assert rel_err(d_rpn_feat, central_diff(loss_of_feat, rpn_feat.copy())) < 1e-5


def test_candidate_step_matches_central_differences_of_the_verdict_loss(monkeypatch):
    """The last link of the joint chain: one positive cell's regression,
    decoded with POINT_SCALE into landmarks, fitted onto the canonical
    layout, warped, verified and judged. With the step's one sampled cell
    and both supervision scales at 1, what the joint step adds to
    rpn_losses' d_point[:, i, j] and to d_feat_extra[:, i, j] before
    rpn_backward are the verdict loss's gradients on state.point[:, i, j]
    and state.feat[:, i, j]. The whole chain, to every parameter, is
    test_joint_step_hands_sgd_the_central_differences_of_its_loss."""
    monkeypatch.setattr(pipeline, "WARP_SUPERVISION_SCALE", 1.0)
    monkeypatch.setattr(pipeline, "CONCAT_SUPERVISION_SCALE", 1.0)
    model = tiny_detector(SEED)
    sample = synthetic.generate_synthetic_corpus(SEED, 1)[0]
    state = pipeline.rpn_forward(model.rpn, sample.image)
    targets = pipeline.rpn_targets(sample.faces, *state.point.shape[1:])
    (i, j), *_ = np.argwhere(targets.labels == 1)
    # the cell regresses the face exactly, so the crop lands on it
    state.point[:, i, j] = targets.reg_targets[:, i, j]

    reached = {}

    def rpn_backward(rpn, state, d_score, d_point, d_feat_extra):
        reached.update(d_point=d_point.copy(), d_feat=d_feat_extra.copy())
        return []  # sgd_step is a no-op below

    monkeypatch.setattr(pipeline, "rpn_forward", lambda *args: state)
    monkeypatch.setattr(pipeline, "_sample_cells",
                        lambda *args: (np.array([[i, j]]), np.array([1])))
    monkeypatch.setattr(pipeline, "rpn_backward", rpn_backward)
    monkeypatch.setattr(nn, "sgd_step", lambda *args: None)
    _, history = pipeline.train_end_to_end(
        [sample], model, pipeline.TrainConfig(epochs=1, seed=SEED))
    assert history["singular_skips"] == 0
    own_d_point = pipeline.rpn_losses(state, targets)[2]
    d_point = (reached["d_point"] - own_d_point)[:, i, j]
    d_feat = reached["d_feat"][:, i, j]

    def verdict_loss():
        (lms,) = pipeline._decode_cells(state, [i], [j], model.multitask)
        transform = pipeline._candidate_transform(model, lms)
        cache = pipeline.verify_forward(model, sample.image, transform,
                                        state.feat[:, i, j].copy())
        return nn.softmax_cross_entropy(cache.logits, 1)[0]

    for column, analytic, step_size in (
        (state.point[:, i, j], d_point, 1e-7),  # a landmark moves POINT_SCALE times as far
        (state.feat[:, i, j], d_feat, 1e-5),
    ):
        numeric = np.empty_like(analytic)
        for k in range(column.size):
            orig = column[k]
            column[k] = orig + step_size
            hi = verdict_loss()
            column[k] = orig - step_size
            lo = verdict_loss()
            column[k] = orig
            numeric[k] = (hi - lo) / (2.0 * step_size)
        assert np.abs(analytic).max() > 1e-6
        assert rel_err(analytic, numeric) < 1e-5


def test_joint_step_hands_sgd_the_central_differences_of_its_loss(monkeypatch):
    """The whole chain of one joint step: the gradients train_end_to_end
    hands to nn.sgd_step, for every parameter array in model.params()
    order, canonical layout included, are the central differences of the
    proposal loss plus the mean verdict loss over the sampled cells, with
    both supervision scales and CANONICAL_LR_SCALE at 1. The step sends
    nothing through a negative's fit, so the loss holds each negative's
    transform fixed. Biases are seeded off zero: at zero, R-CNN crop pixels
    outside the image would sit exactly on a ReLU kink. The step is 1e-7,
    as a step of 1e-6 carries one sample of this chain across a kink."""
    rng = np.random.default_rng(SEED)
    for name in ("WARP_SUPERVISION_SCALE", "CONCAT_SUPERVISION_SCALE", "CANONICAL_LR_SCALE"):
        monkeypatch.setattr(pipeline, name, 1.0)
    model = tiny_detector(SEED)
    params = model.params()
    for p in params:
        if p.ndim == 1:  # a bias
            p[:] = rng.uniform(0.02, 0.1, p.shape)
    # the first image whose face has two positive cells
    for sample in synthetic.generate_synthetic_corpus(SEED, 10):
        cells_hw = sample.image.shape[1] // pipeline.CELL_STRIDE
        targets = pipeline.rpn_targets(sample.faces, cells_hw, cells_hw)
        if (targets.labels == 1).sum() >= 2:
            break
    pos, neg = np.argwhere(targets.labels == 1), np.argwhere(targets.labels == 0)
    cells = np.concatenate([pos[:2], neg[:: len(neg) // 2][:2]])
    labels = np.array([1, 1, 0, 0])
    monkeypatch.setattr(pipeline, "_sample_cells", lambda *args: (cells, labels))
    handed = []
    monkeypatch.setattr(nn, "sgd_step", lambda ps, grads, *args: handed.append(grads))
    _, history = pipeline.train_end_to_end(
        [sample], model, pipeline.TrainConfig(epochs=1, seed=SEED))
    assert history["singular_skips"] == 0 and len(handed) == 1
    (grads,) = handed
    assert len(grads) == len(params) == 19

    def landmarks(state):
        return pipeline._decode_cells(state, *cells.T, True)

    state = pipeline.rpn_forward(model.rpn, sample.image)
    fixed = [pipeline.estimate_similarity(g, model.canonical.points) for g in landmarks(state)]

    def loss():
        state = pipeline.rpn_forward(model.rpn, sample.image)
        verdicts = []
        for (i, j), label, points, transform in zip(cells, labels, landmarks(state), fixed):
            if label:
                transform = pipeline.estimate_similarity(points, model.canonical.points)
            cache = pipeline.verify_forward(model, sample.image, transform,
                                            state.feat[:, i, j].copy())
            verdicts.append(nn.softmax_cross_entropy(cache.logits, label)[0])
        return pipeline.rpn_losses(state, targets)[0] + np.mean(verdicts)

    step = 1e-7
    for n, (p, g) in enumerate(zip(params, grads)):
        assert g.shape == p.shape
        # the largest entry and up to eight more
        picks = {int(np.argmax(np.abs(g)))}
        picks |= set(rng.choice(p.size, min(p.size, 8), replace=False).tolist())
        analytic, numeric = [], []
        for idx in zip(*np.unravel_index(sorted(picks), p.shape)):
            orig = p[idx]
            p[idx] = orig + step
            hi = loss()
            p[idx] = orig - step
            lo = loss()
            p[idx] = orig
            analytic.append(g[idx])
            numeric.append((hi - lo) / (2.0 * step))
        scale = np.abs(numeric).max()
        assert scale > 1e-3, n
        assert np.abs(np.subtract(analytic, numeric)).max() <= 1e-5 * scale, n


def _assert_sample_cells_match_the_oracle(labels, probs, seed):
    """The array sampler returns the oracle's cells and labels, as integer
    arrays, and leaves the generator where the oracle leaves it."""
    targets = SimpleNamespace(labels=labels)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    cells, cell_labels = pipeline._sample_cells(targets, probs, got_rng)
    want = joint_oracles.sample_cells(targets, probs, want_rng)
    assert cells.shape == (len(want), 2) and cell_labels.shape == (len(want),)
    assert cells.dtype.kind == cell_labels.dtype.kind == "i"
    assert [(*cell, label) for cell, label in zip(cells.tolist(), cell_labels.tolist())] == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.random() == want_rng.random()


def _random_probs(rng, shape):
    face = rng.random(shape)
    return np.stack([1.0 - face, face], axis=-1)


@pytest.mark.parametrize("label_map", [
    [[0, 0, -1], [0, -1, 0]],     # no positives
    [[1, 1, -1], [1, -1, 1]],     # no negatives
    [[1, -1, -1], [-1, 1, 0]],    # one negative, fewer than VERIFY_SAMPLES
    [[-1, 1], [-1, -1]],          # one positive and no negative
    [[-1, -1], [-1, -1]],         # nothing to sample
    [[1, 0, 0, 0], [0, 1, 0, 0]],
], ids=["no-pos", "no-neg", "one-neg", "one-pos", "none", "both"])
def test_sample_cells_matches_the_list_oracle_at_the_edges(label_map):
    labels = np.array(label_map)
    assert pipeline.VERIFY_SAMPLES == 2  # the ids above count against it
    for seed in range(20):
        probs = _random_probs(np.random.default_rng(seed), labels.shape)
        _assert_sample_cells_match_the_oracle(labels, probs, seed)


def test_sample_cells_matches_the_list_oracle_on_tied_probabilities():
    """Every negative equally likely: the weighted draw meets ties."""
    labels = np.zeros((6, 7), dtype=np.int64)
    labels[2, 3] = labels[4, 1] = 1
    for value in (0.0, 0.5, 1.0):
        probs = np.full((6, 7, 2), value)
        for seed in range(20):
            _assert_sample_cells_match_the_oracle(labels, probs, seed)


def test_sample_cells_matches_the_list_oracle_on_random_label_maps():
    for seed in range(300):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 13, size=2))
        shares = rng.dirichlet(np.ones(3))
        labels = rng.choice([1, 0, -1], size=shape, p=shares)
        _assert_sample_cells_match_the_oracle(labels, _random_probs(rng, shape), seed)


def test_joint_step_calls_the_traced_functions_once_per_candidate(tiny_run, monkeypatch):
    """bench/spans.py traces the joint step by patching these names on
    pipeline, and its counts and callbacks read positional arguments: every
    sampled cell is fitted once, every non-singular one verified forward and
    back once, and every supervised positive warped back and differentiated
    once, each with positional arguments only; the sampled cells are decoded
    in one call per image."""
    calls = {}

    def record(name):
        real = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapper)

    for name in ("estimate_similarity", "verify_forward", "verify_backward",
                 "warp_backward", "landmark_and_canonical_gradients", "_decode_cells"):
        record(name)
    sampled = []
    real_sample_cells = pipeline._sample_cells

    def sample_cells(*args):
        cells, labels = real_sample_cells(*args)
        sampled.append(labels)
        return cells, labels

    monkeypatch.setattr(pipeline, "_sample_cells", sample_cells)
    corpus = synthetic.generate_synthetic_corpus(SEED + 2, 2)
    _, history = pipeline.train_end_to_end(
        corpus, copy.deepcopy(tiny_run[0]), pipeline.TrainConfig(epochs=1, seed=SEED))

    labels = np.concatenate(sampled)
    assert len(sampled) == len(corpus) and labels.sum() > 0 and (labels == 0).sum() > 0
    assert history["singular_skips"] == 0
    assert len(calls.pop("_decode_cells")) == len(corpus)
    positives = int(labels.sum())
    assert {name: len(made) for name, made in calls.items()} == {
        "estimate_similarity": len(labels), "verify_forward": len(labels),
        "verify_backward": len(labels), "warp_backward": positives,
        "landmark_and_canonical_gradients": positives}
    assert all(kwargs == {} for made in calls.values() for kwargs in made)


def test_rpn_loss_is_the_score_loss_plus_weighted_landmark_loss():
    """rpn_losses returns cross-entropy + LAMBDA_LANDMARK * landmark loss, the
    landmark loss being each positive cell's mean squared box-normalized
    error, averaged over the positive cells."""
    model = pipeline.build_detector(pipeline.TrainConfig(seed=SEED))
    sample = synthetic.generate_synthetic_corpus(SEED, 1)[0]
    state = pipeline.rpn_forward(model.rpn, sample.image)
    targets = pipeline.rpn_targets(sample.faces, *state.score.shape[1:])
    loss, *_ = pipeline.rpn_losses(state, targets)

    cls_loss, _ = nn.softmax_cross_entropy(
        state.score.reshape(2, -1).T, np.clip(targets.labels.reshape(-1), 0, 1),
        targets.cls_weights.reshape(-1),
    )
    positives = np.argwhere(targets.labels == 1)
    assert len(positives) > 0
    reg_loss = np.mean([
        np.mean(((state.point[:, i, j] - targets.reg_targets[:, i, j])
                 * pipeline.POINT_SCALE / targets.face_size[i, j]) ** 2)
        for i, j in positives
    ])
    assert type(loss) is float
    assert loss == pytest.approx(cls_loss + pipeline.LAMBDA_LANDMARK * reg_loss, rel=1e-12)


def _coincident_layout_model():
    """An untrained detector, which proposes candidates all over an image,
    whose canonical points all sit at the crop centre."""
    model = pipeline.build_detector(pipeline.TrainConfig(seed=SEED))
    model.canonical.points[:] = 31.5
    return model


def _assert_detect_finds_nothing_without_a_warning(model, images, monkeypatch):
    """Every kept candidate's fit or crop raises, so the final nms gets a
    (0, 5) float64 array and detect returns []."""
    calls = _spy_on_detect(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sample in images:
            calls.clear()
            assert pipeline.detect(sample.image, model) == []
            (_, _, kept), (_, (final,), _) = [
                call for call in calls if call[0] in ("non_top_k", "nms")]
            assert kept
            assert type(final) is np.ndarray
            assert final.dtype == np.float64 and final.shape == (0, 5)


def _joint_epoch_counting_every_candidate_as_singular(model, monkeypatch):
    """One joint epoch on two images, under warnings as errors; asserts that
    every sampled verification candidate was skipped and counted in
    singular_skips. Returns the history."""
    sampled = []

    def sample_cells(*args):
        cells, labels = real_sample_cells(*args)
        sampled.extend(cells)
        return cells, labels

    real_sample_cells = pipeline._sample_cells
    monkeypatch.setattr(pipeline, "_sample_cells", sample_cells)
    corpus = synthetic.generate_synthetic_corpus(SEED, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, history = pipeline.train_end_to_end(
            corpus, model, pipeline.TrainConfig(epochs=1, seed=SEED)
        )
    assert len(sampled) > 0
    assert history["singular_skips"] == len(sampled)
    return history


def test_coincident_canonical_layout_skips_every_candidate_in_detect(
    held_out, monkeypatch
):
    """No candidate can be aligned onto the layout: detect returns no box,
    and no NaN score, and warns of nothing."""
    _assert_detect_finds_nothing_without_a_warning(
        _coincident_layout_model(), held_out, monkeypatch)


def test_coincident_canonical_layout_counts_every_candidate_as_singular(monkeypatch):
    """A joint step on that layout skips each verification candidate and
    counts it in singular_skips, without a ZeroDivisionError or a warning."""
    history = _joint_epoch_counting_every_candidate_as_singular(
        _coincident_layout_model(), monkeypatch)
    assert history["epochs"][0]["verdict_accuracy"] == 0.0


def _degenerate_box_head_model(log_side):
    """A box-head detector that proposes every cell, each with the side
    POINT_SCALE * exp(log_side): 0 at -1000, an overflow to inf at +1000;
    at 500 a finite side in float64, whose similarity's a^2 + b^2
    underflows to 0, and inf in float32."""
    model = pipeline.build_detector(pipeline.TrainConfig(seed=0), multitask=False)
    model.rpn.score_head.bias[:] = [-10.0, 10.0]
    model.rpn.point_head.bias[2] = log_side
    return model


@pytest.mark.parametrize("log_side", [-1000.0, 1000.0, 500.0], ids=["zero", "inf", "underflow"])
def test_degenerate_box_head_sides_skip_every_candidate_in_detect(
    held_out, monkeypatch, log_side
):
    """No box without a finite positive side can be cropped: detect returns
    no box and warns of nothing."""
    _assert_detect_finds_nothing_without_a_warning(
        _degenerate_box_head_model(log_side), held_out, monkeypatch)


@pytest.mark.parametrize("log_side", [-1000.0, 1000.0, 500.0], ids=["zero", "inf", "underflow"])
def test_degenerate_box_head_sides_count_every_candidate_as_singular(
    monkeypatch, log_side
):
    """A joint step skips each such candidate and counts it in
    singular_skips, without a ValueError from the crop or the warp."""
    _joint_epoch_counting_every_candidate_as_singular(
        _degenerate_box_head_model(log_side), monkeypatch)


def _always(transform):
    """A _candidate_transform that maps every candidate by transform."""
    return lambda model, geometry: transform


def test_a_crop_whose_float32_divisor_underflows_is_skipped_in_detect(
    held_out, monkeypatch
):
    """At 1e23 source pixels per crop pixel, a^2 + b^2 is finite in float64
    but 0 in float32, the dtype in which detect warps: each such candidate
    is dropped unverified, with no NaN score and no warning."""
    monkeypatch.setattr(pipeline, "_candidate_transform", _always(
        warp_oracles.similarity_from_pose(1e23, 0.3, (48.0, 48.0), (31.5, 31.5))))
    _assert_detect_finds_nothing_without_a_warning(
        pipeline.build_detector(pipeline.TrainConfig(seed=SEED)), held_out, monkeypatch)


def test_a_crop_whose_float64_divisor_underflows_counts_as_singular(monkeypatch):
    """A joint step skips each candidate whose float64 warp cannot divide
    by a^2 + b^2 and counts it in singular_skips."""
    monkeypatch.setattr(pipeline, "_candidate_transform", _always(
        SimilarityTransform(1e-170, 0.0, 48.0, 48.0, 31.5, 31.5)))
    _joint_epoch_counting_every_candidate_as_singular(
        pipeline.build_detector(pipeline.TrainConfig(seed=SEED)), monkeypatch)


@pytest.mark.parametrize("a", [1e-154, 1e-161])
def test_a_crop_whose_backward_derivatives_overflow_counts_as_singular(monkeypatch, a):
    """a^2 + b^2 is positive in float64 at these scales, but warp_backward's
    derivatives of the map overflow: a joint step skips each such candidate
    and counts it in singular_skips, rather than hand NaN gradients to
    nn.sgd_step."""
    monkeypatch.setattr(pipeline, "_candidate_transform", _always(
        SimilarityTransform(a, 0.0, 48.0, 48.0, 31.5, 31.5)))
    _joint_epoch_counting_every_candidate_as_singular(
        pipeline.build_detector(pipeline.TrainConfig(seed=SEED)), monkeypatch)


def test_a_crop_with_a_nan_centre_is_skipped_in_detect(held_out, monkeypatch):
    """crop_transform checks the side alone, so a box with a NaN origin gives
    a NaN-centred transform; the warp's gate drops each such candidate
    unverified, with no NaN score and no warning."""
    monkeypatch.setattr(pipeline, "_candidate_transform", _always(
        pipeline.crop_transform((np.nan, 0.0, 10.0, 10.0), 64)))
    _assert_detect_finds_nothing_without_a_warning(
        pipeline.build_detector(pipeline.TrainConfig(seed=SEED)), held_out, monkeypatch)


def test_a_crop_with_a_nan_centre_counts_as_singular(monkeypatch):
    """A joint step skips each candidate whose transform has a NaN centre
    and counts it in singular_skips."""
    monkeypatch.setattr(pipeline, "_candidate_transform", _always(
        pipeline.crop_transform((np.nan, 0.0, 10.0, 10.0), 64)))
    _joint_epoch_counting_every_candidate_as_singular(
        pipeline.build_detector(pipeline.TrainConfig(seed=SEED)), monkeypatch)


@pytest.mark.parametrize("side", [0.0, -3.0, np.inf, np.nan, 1e-323])
def test_crop_transform_rejects_a_side_whose_similarity_it_cannot_invert(side):
    """1e-323 is positive, but side / 64 underflows to 0, whose reciprocal
    is no scale."""
    with pytest.raises(SingularTransformError, match="box side"):
        pipeline.crop_transform((0.0, 0.0, side, side), 64)


@pytest.mark.parametrize("side", [4e289, 1e-300, np.float64(1e-310)])
def test_the_warp_of_a_crop_whose_similarity_it_cannot_invert_raises(side):
    """4e289 and 1e-300 are finite and positive, but a^2 + b^2 of their
    crop's similarity underflows to 0 or overflows, and warp would divide
    by it; at 1e-310, a numpy float as _decode_cells gives, 1 / scale
    overflows to inf. crop_transform returns each transform, and the warp's
    gate rejects it in either dtype, with no warning from either."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transform = pipeline.crop_transform((0.0, 0.0, side, side), 64)
        for dtype in (np.float32, np.float64):
            with pytest.raises(SingularTransformError):
                warp(np.zeros((1, 96, 96), dtype), transform, (64, 64))


def _chain_fingerprint(model, images, corpus, config):
    """SHA-256 of dense detect on the images, then of one joint training
    step on a copy of the model: the step's loss history and its weights."""
    digest = hashlib.sha256()
    for image in images:
        for det in pipeline.detect(image, model):
            digest.update(np.asarray(det.box, dtype=np.float64).tobytes())
            digest.update(np.float64(det.score).tobytes())
            digest.update(np.asarray(det.landmarks).tobytes())
    trained, history = pipeline.train_end_to_end(corpus, copy.deepcopy(model), config)
    digest.update(repr(history["epochs"]).encode())
    for p in trained.params():
        digest.update(p.tobytes())
    digest.update(trained.canonical.points.tobytes())
    return digest.hexdigest()


def test_detect_and_joint_step_bytes_equal_with_the_kernel_oracles(
    tiny_run, held_out, monkeypatch
):
    """The whole chain, run once on the kernels and once with max-pool, its
    backward, the warp, its backward, the pyramid's half-sampling and the
    candidate decode replaced by the reference forms in tests/, gives the
    same bytes, so a kernel change that moves a bit fails here first."""
    model = tiny_run[0]
    images = [s.image for s in held_out] + [
        synthetic.generate_synthetic_corpus(
            SEED + 3, 1, synthetic.CorpusParams(image_size=160)
        )[0].image
    ]
    corpus = held_out[:1]
    config = pipeline.TrainConfig(epochs=1, seed=SEED)
    kernels = _chain_fingerprint(model, images, corpus, config)

    calls = dict.fromkeys(
        ["maxpool", "maxpool_backward", "warp", "warp_backward", "downsample",
         "level_candidates"], 0
    )

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def pool_backward(grad_out, x, out):
        _, argmax = conv_oracles.maxpool2x2(x)
        return conv_oracles.maxpool2x2_backward(grad_out, argmax, x.shape)

    for target, name, fn in (
        (nn, "maxpool2x2", counted("maxpool", lambda x: conv_oracles.maxpool2x2(x)[0])),
        (nn, "maxpool2x2_backward", counted("maxpool_backward", pool_backward)),
        (pipeline, "warp", counted("warp", warp_oracles.warp)),
        (pipeline, "warp_backward", counted("warp_backward", warp_oracles.warp_backward)),
        (roiconv, "downsample_image", counted("downsample", conv_oracles.downsample_image)),
        (pipeline, "_level_candidates",
         counted("level_candidates", decode_oracles.level_candidate_rows)),
    ):
        monkeypatch.setattr(target, name, fn)
    oracles = _chain_fingerprint(model, images, corpus, config)
    assert all(calls.values()), calls
    assert oracles == kernels


# --------------------------------------------------------------------------
# evaluate: property tests

_box = st.tuples(
    st.floats(0, 100), st.floats(0, 100), st.floats(1, 40), st.floats(1, 40)
)
_image = st.tuples(
    st.lists(st.tuples(_box, st.floats(0, 1)), max_size=6),  # detections
    st.lists(_box, max_size=4),                               # truths
)


def _evaluate(images):
    dets = [[pipeline.Detection(box=b, score=s) for b, s in d] for d, _ in images]
    return pipeline.evaluate(dets, [t for _, t in images])


@settings(max_examples=100, deadline=None)
@given(st.lists(_image, min_size=1, max_size=4))
def test_evaluate_ap_lies_in_unit_interval(images):
    ap = _evaluate(images).average_precision()
    assert 0.0 <= ap <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(_image, min_size=1, max_size=4))
def test_evaluate_recall_does_not_fall_as_the_budget_grows(images):
    report = _evaluate(images)
    recalls = [report.recall_at_false_alarms(b) for b in range(len(report.tp_flags) + 2)]
    assert all(0.0 <= r <= 1.0 for r in recalls)
    assert all(a <= b for a, b in zip(recalls, recalls[1:]))


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), unique=True, max_size=6),
        st.floats(1, 40), st.floats(1, 40),
    ),
    min_size=1, max_size=3,
), st.randoms(use_true_random=False))
def test_evaluate_ap_is_one_when_every_detection_matches_a_distinct_truth(images, shuffle):
    """Truths on a 50-px grid never overlap; detecting each exactly once, in
    any score order, scores AP 1."""
    dets, truths = [], []
    for cells, w, h in images:
        boxes = [(50.0 * i, 50.0 * j, w, h) for i, j in cells]
        scores = [shuffle.random() for _ in boxes]
        dets.append([pipeline.Detection(box=b, score=s) for b, s in zip(boxes, scores)])
        truths.append(boxes)
    report = pipeline.evaluate(dets, truths)
    if report.total_gt:
        assert report.average_precision() == 1.0
        assert report.recall_at_false_alarms(0) == 1.0


def _crowded_image(rng):
    """Up to 6 scored detections and 4 truths, sides 10-14 px, corners
    within 6 px of each other, so every pair overlaps and many reach IoU
    0.5."""
    def boxes(n):
        return [tuple(row) for row in np.column_stack(
            [rng.uniform(0, 6, (n, 2)), rng.uniform(10, 14, (n, 2))]).tolist()]

    dets, truths = boxes(rng.integers(0, 7)), boxes(rng.integers(0, 5))
    scores = rng.random(len(dets)).tolist()
    return [pipeline.Detection(box=b, score=s) for b, s in zip(dets, scores)], truths


def test_evaluate_matches_no_more_than_the_maximum_matching():
    """On seeded crowded images evaluate's greedy true positives never
    exceed the one-to-one maximum matching, and equal it on every image
    where no detection reaches IoU 0.5 with two truths."""
    rng = np.random.default_rng(SEED)
    crowded = short = 0
    for _ in range(300):
        dets, truths = _crowded_image(rng)
        greedy = int(pipeline.evaluate([dets], [truths]).tp_flags.sum())
        most = detect_oracles.max_matching([d.box for d in dets], truths)
        assert greedy <= most
        short += greedy < most
        if all(sum(iou(d.box, t) >= 0.5 for t in truths) < 2 for d in dets):
            assert greedy == most
        else:
            crowded += 1
    assert 0 < crowded < 300 and short > 0  # both kinds of image are drawn


def test_evaluate_scores_below_the_maximum_matching_on_two_close_truths():
    """The one known divergence: the first detection takes the truth it
    overlaps most, (3, 0), and leaves the second one only (0, 0), at IoU
    0.25. The maximum matching pairs them the other way and matches both."""
    truths = [(0.0, 0.0, 10.0, 10.0), (3.0, 0.0, 10.0, 10.0)]
    dets = [pipeline.Detection(box=(2.0, 0.0, 10.0, 10.0), score=0.9),
            pipeline.Detection(box=(6.0, 0.0, 10.0, 10.0), score=0.8)]
    report = pipeline.evaluate([dets], [truths])
    assert report.tp_flags.tolist() == [1, 0]
    assert report.average_precision() == 0.5
    assert detect_oracles.max_matching([d.box for d in dets], truths) == 2


# --------------------------------------------------------------------------
# fern pre-filter training


@pytest.fixture(scope="module")
def prefilter_corpus():
    """Ten 96-px images, some of them face-free."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthetic, "NO_FACE_RATE", 0.3)
        return synthetic.generate_synthetic_corpus(SEED, 10)


def test_harvest_crops_every_face_once_and_only_face_free_negatives(
    prefilter_corpus, monkeypatch
):
    """One 32x32 positive per face, in corpus order; then at most
    NEGATIVES_PER_IMAGE crops per image, each overlapping no face."""
    crops = []
    real_crop = pipeline.crop_patch

    def recording_crop(image, box, out_size):
        crops.append((image, tuple(box), real_crop(image, box, out_size)))
        return crops[-1][2]

    monkeypatch.setattr(pipeline, "crop_patch", recording_crop)
    pos, neg = pipeline.harvest_cascade_patches(
        prefilter_corpus, np.random.default_rng(0)
    )
    faces = [tuple(box) for sample in prefilter_corpus for box, _ in sample.faces]
    assert 0 < len(faces) < len(prefilter_corpus)
    assert pos.shape == (len(faces), ferns.PATCH_SIZE, ferns.PATCH_SIZE)
    assert [box for _, box, _ in crops if box in faces] == faces

    negatives = []
    for sample in prefilter_corpus:
        sample_faces = [box for box, _ in sample.faces]
        drawn = [(box, patch) for image, box, patch in crops
                 if image is sample.image and tuple(box) not in faces]
        assert len(drawn) <= pipeline.NEGATIVES_PER_IMAGE
        for box, _ in drawn:
            assert all(iou(box, face) < 0.1 for face in sample_faces)
        negatives += [patch for _, patch in drawn]
    assert len(negatives) > 0
    assert np.array_equal(neg, np.array(negatives))
    assert np.array_equal(pos, np.array([p for _, box, p in crops if box in faces]))


def test_harvest_draws_every_negative_inside_a_small_image(monkeypatch):
    """On 64-px images a 36-72 px square can be wider than the image; each
    negative's side is capped so the box lies inside its image."""
    monkeypatch.setattr(synthetic, "SIZE_RANGE", (20.0, 30.0))
    corpus = synthetic.generate_synthetic_corpus(
        SEED, 8, synthetic.CorpusParams(image_size=64))
    faces = {tuple(box) for sample in corpus for box, _ in sample.faces}
    negatives = []
    real_crop = pipeline.crop_patch

    def recording_crop(image, box, out_size):
        if tuple(box) not in faces:
            negatives.append((image, tuple(box)))
        return real_crop(image, box, out_size)

    monkeypatch.setattr(pipeline, "crop_patch", recording_crop)
    pipeline.harvest_cascade_patches(corpus, np.random.default_rng(0))
    assert len(negatives) > 0
    for image, (x, y, w, h) in negatives:
        assert w == h and 36 <= w <= 64
        assert 0 <= x and x + w <= image.shape[2]
        assert 0 <= y and y + h <= image.shape[1]


def test_harvest_leaves_the_slots_of_an_image_under_36_px_empty(monkeypatch):
    monkeypatch.setattr(synthetic, "SIZE_RANGE", (12.0, 16.0))
    corpus = synthetic.generate_synthetic_corpus(
        SEED, 3, synthetic.CorpusParams(image_size=32))
    pos, neg = pipeline.harvest_cascade_patches(corpus, np.random.default_rng(0))
    assert len(pos) == 3 and len(neg) == 0


def test_train_prefilter_rejects_a_face_crop_holding_a_nan(prefilter_corpus):
    corpus = copy.deepcopy(prefilter_corpus)
    sample = next(s for s in corpus if s.faces)
    x, y, w, h = sample.faces[0][0]
    sample.image[0, int(y + h / 2), int(x + w / 2)] = np.nan
    with pytest.raises(ValueError, match="finite"):
        pipeline.train_prefilter(corpus, num_ferns=2, seed=SEED)


def _cascade_arrays(cascade):
    return [cascade.coords, cascade.thresholds, cascade.scores, cascade.stage_thresholds]


def test_train_prefilter_is_reproducible_and_round_trips(prefilter_corpus, tmp_path):
    cascade = pipeline.train_prefilter(prefilter_corpus, num_ferns=8, seed=SEED)
    assert len(cascade.stage_thresholds) == 8
    assert len(cascade.train_log["stage_partition_losses"]) == 8
    again = pipeline.train_prefilter(prefilter_corpus, num_ferns=8, seed=SEED)
    for a, b in zip(_cascade_arrays(cascade), _cascade_arrays(again), strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (cascade.train_log["stage_partition_losses"]
            == again.train_log["stage_partition_losses"])

    model = pipeline.build_detector(pipeline.TrainConfig(seed=SEED))
    model.cascade = cascade
    save_model(model, tmp_path / "model.wcnn")
    loaded = load_model(tmp_path / "model.wcnn").cascade
    assert loaded.patch_size == cascade.patch_size
    for a, b in zip(_cascade_arrays(cascade), _cascade_arrays(loaded), strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_train_prefilter_logs_the_negative_shortfall(prefilter_corpus):
    """On this corpus some negative slots find no face-free crop in their
    draws. The log records the slots requested and the crops harvested,
    and the ferns are the cascade trained on that harvest."""
    cascade = pipeline.train_prefilter(prefilter_corpus, num_ferns=8, seed=SEED)
    pos, neg = pipeline.harvest_cascade_patches(
        prefilter_corpus, np.random.default_rng(SEED + 3))
    requested = pipeline.NEGATIVES_PER_IMAGE * len(prefilter_corpus)
    assert cascade.train_log["negatives_requested"] == requested
    assert cascade.train_log["negatives_harvested"] == len(neg) < requested
    direct = ferns.train_cascade(pos, neg, 8, SEED)
    for a, b in zip(_cascade_arrays(cascade), _cascade_arrays(direct), strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("train", [
    lambda config: pipeline.train_rpn([], config, epochs=1),
    lambda config: pipeline.train_end_to_end([], pipeline.build_detector(config), config),
    lambda config: pipeline.train_prefilter([], num_ferns=1, seed=0),
], ids=["train_rpn", "train_end_to_end", "train_prefilter"])
def test_training_on_an_empty_corpus_raises(train):
    with pytest.raises(ValueError, match="empty"):
        train(pipeline.TrainConfig())


TRAIN_DRIVERS = {
    "train_rpn": lambda corpus, model, config: pipeline.train_rpn(
        corpus, config, model, epochs=config.epochs),
    "train_end_to_end": pipeline.train_end_to_end,
}


@pytest.mark.parametrize("driver", sorted(TRAIN_DRIVERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_training_rejects_non_finite_pixels(driver, bad):
    """One bad pixel fails the step that reads it, before any arithmetic,
    with the error detect raises: nothing warns and nothing diverges."""
    corpus = synthetic.generate_synthetic_corpus(SEED, 2)
    corpus[1].image[0, 10, 20] = bad
    config = pipeline.TrainConfig(epochs=1, seed=SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite pixels"):
            TRAIN_DRIVERS[driver](corpus, pipeline.build_detector(config), config)


@NOT_REAL
@pytest.mark.parametrize("driver", sorted(TRAIN_DRIVERS) + ["train_prefilter"])
def test_training_rejects_an_image_that_is_not_real_numbers(driver, dtype):
    """The proposal drivers used to fail inside numpy with a TypeError, and
    the pre-filter trained on such a corpus; each now raises ValueError,
    and nothing warns."""
    corpus = synthetic.generate_synthetic_corpus(SEED, 2)
    corpus[1].image = corpus[1].image.astype(dtype)
    config = pipeline.TrainConfig(epochs=1, seed=SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is not bool, integer or float"):
            if driver == "train_prefilter":
                pipeline.train_prefilter(corpus, num_ferns=1, seed=SEED)
            else:
                TRAIN_DRIVERS[driver](corpus, pipeline.build_detector(config), config)


def test_train_rpn_trains_the_proposal_net_alone_and_records_its_mean_loss(monkeypatch):
    """train_rpn steps the proposal net alone: the verification net, the
    verdict head and the canonical layout keep their bytes. Its history is
    one record per epoch, the mean of the losses its proposal steps gave."""
    losses = []
    real_proposal_step = pipeline._proposal_step

    def proposal_step(*args):
        step = real_proposal_step(*args)
        losses.append(step[2])
        return step

    monkeypatch.setattr(pipeline, "_proposal_step", proposal_step)
    corpus = synthetic.generate_synthetic_corpus(SEED, 2)
    config = pipeline.TrainConfig(seed=SEED)
    model = pipeline.build_detector(config)
    kept = model.rcnn.params() + model.verdict.params() + [model.canonical.points]
    before = [p.copy() for p in kept]
    rpn_before = [p.copy() for p in model.rpn.params()]
    trained, history = pipeline.train_rpn(corpus, config, model, epochs=2)
    assert trained is model
    for p, p0 in zip(kept, before, strict=True):
        assert p.dtype == p0.dtype and p.tobytes() == p0.tobytes()
    assert not any(np.array_equal(p, p0)
                   for p, p0 in zip(model.rpn.params(), rpn_before, strict=True))
    assert len(losses) == 4
    assert history == {"epochs": [{"loss": float(np.mean(losses[:2]))},
                                  {"loss": float(np.mean(losses[2:]))}]}


@pytest.mark.parametrize("driver", sorted(TRAIN_DRIVERS))
def test_a_finite_image_whose_loss_overflows_raises_divergence(driver):
    """Pixels of 1e300 are finite, but the proposal loss on them is not."""
    corpus = synthetic.generate_synthetic_corpus(SEED, 1)
    corpus[0].image[:] = 1e300
    config = pipeline.TrainConfig(epochs=1, seed=SEED)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(pipeline.DivergenceError, match="diverged at epoch 0"):
            TRAIN_DRIVERS[driver](corpus, pipeline.build_detector(config), config)


@pytest.mark.parametrize("epochs", [-1, 1.5, True, None])
def test_negative_or_non_integer_epochs_are_rejected(epochs):
    """Both where a config is made and where train_rpn takes its own count;
    a made config cannot be given one later."""
    corpus = synthetic.generate_synthetic_corpus(SEED, 1)
    with pytest.raises(ValueError, match="epochs"):
        pipeline.TrainConfig(epochs=epochs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pipeline.TrainConfig().epochs = epochs
    with pytest.raises(ValueError, match="epochs"):
        pipeline.train_rpn(corpus, pipeline.TrainConfig(), epochs=epochs)


@pytest.mark.parametrize("seed", [-1, 1.5, True, None])
def test_negative_or_non_integer_seeds_are_rejected(seed):
    """Where a config is made and where train_prefilter takes its own seed,
    before it harvests. True used to train silently as seed 1; -1 and 1.5
    failed only once training handed them to numpy."""
    with pytest.raises(ValueError, match="^seed must be an int >= 0"):
        pipeline.TrainConfig(seed=seed)
    corpus = synthetic.generate_synthetic_corpus(SEED, 1)
    with pytest.raises(ValueError, match="^seed must be an int >= 0"):
        pipeline.train_prefilter(corpus, num_ferns=1, seed=seed)


@pytest.mark.parametrize("driver", sorted(TRAIN_DRIVERS))
def test_zero_epochs_leave_the_model_untouched(driver):
    corpus = synthetic.generate_synthetic_corpus(SEED, 1)
    config = pipeline.TrainConfig(epochs=0, seed=SEED)
    model = pipeline.build_detector(config)
    before = [p.copy() for p in model.params()]
    trained, history = TRAIN_DRIVERS[driver](corpus, model, config)
    assert trained is model and history["epochs"] == []
    for a, b in zip(model.params(), before, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("driver", sorted(TRAIN_DRIVERS))
def test_momentum_carries_across_one_driver_calls_steps(driver, monkeypatch):
    """A driver makes one zeroed velocity per parameter array and hands the
    same arrays, with LEARNING_RATE and MOMENTUM, to every nn.sgd_step of
    its call: after two steps each parameter is
    p0 - lr * g1 - lr * (momentum * g1 + g2)."""
    calls = []
    real_sgd_step = nn.sgd_step

    def sgd_step(params, grads, velocities, learning_rate, momentum):
        calls.append(SimpleNamespace(
            params=[p.copy() for p in params], grads=[g.copy() for g in grads],
            velocities=list(velocities), zero=all(not v.any() for v in velocities),
            learning_rate=learning_rate, momentum=momentum))
        return real_sgd_step(params, grads, velocities, learning_rate, momentum)

    monkeypatch.setattr(nn, "sgd_step", sgd_step)
    corpus = synthetic.generate_synthetic_corpus(SEED, 2)
    config = pipeline.TrainConfig(epochs=1, seed=SEED)
    model, _ = TRAIN_DRIVERS[driver](corpus, pipeline.build_detector(config), config)
    first, second = calls
    assert first.zero
    assert all(a is b for a, b in zip(first.velocities, second.velocities, strict=True))
    assert {(c.learning_rate, c.momentum) for c in calls} == {
        (pipeline.LEARNING_RATE, pipeline.MOMENTUM)}
    lr, momentum = pipeline.LEARNING_RATE, pipeline.MOMENTUM
    params = model.rpn.params() if driver == "train_rpn" else model.params()
    assert len(params) == len(first.params)
    for p0, p1, p2, g1, g2 in zip(first.params, second.params, params,
                                  first.grads, second.grads, strict=True):
        np.testing.assert_array_equal(p1, p0 - lr * g1)
        np.testing.assert_array_equal(p2, p1 - lr * (momentum * g1 + g2))
