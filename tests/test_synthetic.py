"""Tests for the synthetic corpus generator: determinism, analytic landmark
placement, pixel-support agreement of the ground-truth boxes, argument
checks, and byte equality of the footprint renderer with the full-canvas
oracle in tests/synthetic_oracles.py. A test that needs another corpus
recipe patches synthetic's recipe constants."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decode_oracles
import synthetic_oracles
from warpdet import synthetic
from warpdet.align import SingularTransformError
from warpdet.suppress import iou
from warpdet.synthetic import (
    ELLIPSE_AXES,
    FOOTPRINT_MARGIN,
    GLYPH_LANDMARKS,
    AnnotatedSample,
    CorpusParams,
    _footprint,
    _render_clutter,
    box_from_landmarks,
    generate_synthetic_corpus,
    glyph_box,
    glyph_landmarks,
    render_face,
)


@contextmanager
def recipe(**constants):
    """Draw under other values of synthetic's recipe constants, given by
    their names."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(synthetic, name, value)
        yield


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic_corpus(7, 5)
        b = generate_synthetic_corpus(7, 5)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            assert len(sa.faces) == len(sb.faces)
            for (box_a, lms_a), (box_b, lms_b) in zip(sa.faces, sb.faces):
                assert box_a == box_b
                np.testing.assert_array_equal(lms_a, lms_b)

    def test_different_seeds_differ(self):
        a = generate_synthetic_corpus(1, 3)
        b = generate_synthetic_corpus(2, 3)
        assert any(
            not np.array_equal(sa.image, sb.image) for sa, sb in zip(a, b)
        )


class TestAnalyticLayout:
    def test_zero_rotation_noise_free_landmarks(self):
        with recipe(ROTATION_DEG=0.0, NOISE=0.0, MAX_CLUTTER=0):
            sample = generate_synthetic_corpus(3, 1)[0]
        box, lms = sample.faces[0]
        x, y, w, h = box
        center = np.array([x + w / 2, y + h / 2])
        size = h / (2 * 0.48)  # invert the ellipse bbox at zero rotation
        np.testing.assert_allclose(lms, center + size * GLYPH_LANDMARKS, atol=1e-9)

    def test_landmarks_inside_box(self):
        for sample in generate_synthetic_corpus(11, 30):
            for box, lms in sample.faces:
                x, y, w, h = box
                assert np.all(lms[:, 0] >= x) and np.all(lms[:, 0] <= x + w)
                assert np.all(lms[:, 1] >= y) and np.all(lms[:, 1] <= y + h)

    def test_box_support_iou(self):
        """Bounding box of the rendered pixel support matches the analytic
        ground-truth box."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            size = rng.uniform(38, 64)
            angle = np.deg2rad(rng.uniform(-45, 45))
            canvas = np.zeros((128, 128))
            render_face(canvas, (64, 64), size, angle)
            ys, xs = np.nonzero(np.abs(canvas) > 0.02)
            support_box = (
                xs.min(),
                ys.min(),
                xs.max() - xs.min() + 1,
                ys.max() - ys.min() + 1,
            )
            assert iou(support_box, glyph_box((64, 64), size, angle)) >= 0.9

    def test_box_from_exact_landmarks_roundtrips(self):
        rng = np.random.default_rng(9)
        lms, expected = [], []
        for _ in range(20):
            center = rng.uniform(30, 70, size=2)
            size = rng.uniform(38, 64)
            angle = np.deg2rad(rng.uniform(-45, 45))
            lms.append(glyph_landmarks(center, size, angle))
            expected.append(glyph_box(center, size, angle))
        for row, box in zip(lms, expected):
            np.testing.assert_allclose(decode_oracles.box_from_landmarks(row), box, atol=1e-6)
        boxes, ok = box_from_landmarks(np.array(lms))
        assert ok.all()
        np.testing.assert_allclose(boxes, expected, atol=1e-6)


def _assert_fit_matches_oracle(landmarks):
    """Every row of the batched fit equals the per-row oracle bit for bit,
    and is flagged exactly where the oracle raises. Returns the flags."""
    boxes, ok = box_from_landmarks(landmarks)
    assert boxes.shape == (len(landmarks), 4) and ok.shape == (len(landmarks),)
    for row, box, fitted in zip(landmarks, boxes, ok):
        try:
            want = decode_oracles.box_from_landmarks(row)
        except SingularTransformError:
            assert not fitted
            continue
        assert fitted
        assert box.tobytes() == np.array(want).tobytes()
    return ok


class TestBatchedBoxFit:
    def test_random_rows_match_the_oracle_bit_for_bit(self):
        rng = np.random.default_rng(17)
        n = 3000
        centers = rng.uniform(-20, 180, size=(n, 1, 2))
        spreads = 10.0 ** rng.uniform(-3, 2, size=(n, 1, 1))
        ok = _assert_fit_matches_oracle(
            centers + spreads * rng.standard_normal((n, 5, 2))
        )
        assert ok.all()

    def test_coincident_rows_are_flagged_where_the_oracle_raises(self):
        """Exactly coincident landmarks, landmarks 1e-9 px apart far from
        the origin, and a row just above the spread threshold, among good
        rows."""
        rng = np.random.default_rng(23)
        good = glyph_landmarks((50.0, 60.0), 40.0, 0.2)
        rows = [
            good,
            np.full((5, 2), 3.0),
            np.zeros((5, 2)),
            np.tile([1e3, -2e3], (5, 1)) + 1e-9 * rng.standard_normal((5, 2)),
            good + 7.0,
            np.tile([0.5, 0.5], (5, 1)) + 1e-4 * rng.standard_normal((5, 2)),
        ]
        ok = _assert_fit_matches_oracle(np.array(rows))
        assert ok.tolist() == [True, False, False, False, True, True]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_rows_are_flagged_where_the_oracle_raises(self):
        """A NaN or infinite coordinate makes the spread NaN, which no
        threshold comparison passes."""
        good = glyph_landmarks((50.0, 60.0), 40.0, 0.2)
        rows = [good, good.copy(), good.copy(), good.copy()]
        rows[1][3, 0] = np.nan
        rows[2][0, 1] = np.inf
        rows[3][4, 0] = -np.inf
        ok = _assert_fit_matches_oracle(np.array(rows))
        assert ok.tolist() == [True, False, False, False]

    def test_rows_fitting_the_layout_at_zero_scale_are_flagged(self, monkeypatch):
        """A row that mirrors the layout fits it at a = b = 0: it is flagged
        where the oracle raises, not boxed with NaN. The layout is a square,
        onto which integer landmarks fit at exactly zero scale."""
        layout = np.array([[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]], dtype=np.float64)
        for module in (synthetic, decode_oracles):
            monkeypatch.setattr(module, "GLYPH_LANDMARKS", layout)
        mirrored = [[10, 12], [12, 12], [10, 10], [12, 10], [11, 11]]
        ok = _assert_fit_matches_oracle(np.array([3.0 * layout + 10.0, mirrored]))
        assert ok.tolist() == [True, False]

    def test_no_rows(self):
        boxes, ok = box_from_landmarks(np.empty((0, 5, 2)))
        assert boxes.shape == (0, 4) and ok.shape == (0,)

    def test_one_landmark_set_without_a_row_axis_is_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            box_from_landmarks(GLYPH_LANDMARKS)


class TestCorpusShape:
    def test_image_shape_and_range(self):
        params = CorpusParams(image_size=80)
        for sample in generate_synthetic_corpus(2, 5, params):
            assert sample.image.shape == (1, 80, 80)
            assert np.isfinite(sample.image).all()

    def test_no_face_rate(self, monkeypatch):
        monkeypatch.setattr(synthetic, "NO_FACE_RATE", 1.0)
        corpus = generate_synthetic_corpus(4, 5)
        assert all(len(s.faces) == 0 for s in corpus)

    def test_provenance_recorded(self):
        sample = generate_synthetic_corpus(13, 1)[0]
        assert isinstance(sample, AnnotatedSample)
        assert "seed=13" in sample.provenance


class TestCorpusArgumentRejections:
    @pytest.mark.parametrize("name, value", [
        ("seed", None), ("seed", -1), ("seed", 1.0), ("seed", True), ("seed", np.int64(1)),
        ("count", -1), ("count", True), ("count", 2.0), ("count", None),
    ])
    def test_a_seed_or_count_that_is_no_int_from_0(self, name, value):
        """count=-1 used to return an empty corpus and count=True one image;
        seed=None drew a different corpus on every call."""
        args = {"seed": 0, "count": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an int >= 0"):
            generate_synthetic_corpus(**args)

    def test_seed_and_count_0_are_accepted(self):
        assert generate_synthetic_corpus(0, 0) == []
        assert len(generate_synthetic_corpus(0, 1)) == 1


class TestCorpusParamsRejections:
    def test_every_default_and_boundary_setting_constructs(self, monkeypatch):
        CorpusParams()
        CorpusParams(image_size=71)  # 1.1 * 64 = 70.4
        monkeypatch.setattr(synthetic, "SIZE_RANGE", (30.0, 40.0))
        CorpusParams(image_size=44)

    @pytest.mark.parametrize("size_range, size", [((38.0, 64.0), 70), ((30.0, 40.0), 43)])
    def test_a_face_wider_than_the_image_allows(self, monkeypatch, size_range, size):
        """Its margin of 0.55 * size on each side leaves no room for the
        center: the draw used to fail mid-corpus inside numpy. The bound
        reads SIZE_RANGE when the record is made."""
        monkeypatch.setattr(synthetic, "SIZE_RANGE", size_range)
        with pytest.raises(ValueError, match="^image_size must be an int >= "):
            CorpusParams(image_size=size)

    @pytest.mark.parametrize("size", [
        96.5, 96.0, True, None, np.int64(96), np.int32(96), np.uint16(96),
    ])
    def test_an_image_size_that_is_no_int(self, size):
        """An image_size of 96.5 used to render a 97 x 97 canvas. Numpy
        integers are rejected as numpy-integer seeds are, by the package's
        one integer rule."""
        with pytest.raises(ValueError, match="^image_size must be an int >= 71"):
            CorpusParams(image_size=size)


def largest_face(n: int) -> float:
    """The largest face side CorpusParams admits on an n-px image."""
    high = n / 1.1
    while 1.1 * high > n:
        high = np.nextafter(high, 0.0)
    return high


def assert_same_corpus(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.provenance == b.provenance and len(a.faces) == len(b.faces)
        for (box_a, lms_a), (box_b, lms_b) in zip(a.faces, b.faces):
            assert np.array(box_a).tobytes() == np.array(box_b).tobytes()
            assert lms_a.tobytes() == lms_b.tobytes()


@st.composite
def corpus_recipes(draw):
    """An image side and recipe constants under which it holds every face."""
    n = draw(st.integers(32, 320))
    high = draw(st.floats(2.0, largest_face(n)))
    low = draw(st.floats(1.0, high))
    return n, dict(
        SIZE_RANGE=(low, high),
        ROTATION_DEG=draw(st.floats(0.0, 180.0)),
        NOISE=draw(st.sampled_from([0.0, 0.03])),
        MAX_CLUTTER=draw(st.integers(0, 6)),
        NO_FACE_RATE=draw(st.sampled_from([0.0, 0.3])),
    )


class ScriptedRng:
    """Hands out the given draws in order, whatever bounds are asked for."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def uniform(self, low, high):
        return next(self.draws)

    def integers(self, low, high):
        return next(self.draws)


# 480 x 640 canvas: the corners, points across every edge and just outside it
EDGE_CENTERS = [(0.0, 0.0), (639.0, 0.0), (0.0, 479.0), (639.0, 479.0),
                (-3.7, -2.2), (642.5, 483.1), (320.4, 0.3), (320.4, 479.6),
                (0.6, 240.2), (638.8, 240.2), (-10.5, 240.0), (320.0, 490.25),
                (17.3, 11.9), (621.2, 466.6)]


def distractor_draws(kind, center, size, rng):
    """The draws _render_clutter makes for one distractor of `kind` with no
    face to avoid: center, size, kind, then the kind's own parameters."""
    if kind == 0:  # axes, gain
        own = [rng.uniform(0.7, 1.0), rng.uniform(0.7, 1.0), rng.uniform(0.6, 1.0)]
    elif kind == 1:  # gain
        own = [rng.uniform(0.5, 1.0)]
    else:  # angle, gain
        own = [rng.uniform(0, np.pi), rng.uniform(-1.0, 1.0)]
    return [*center, size, kind, *own]


class TestFootprintMatchesFullCanvasOracle:
    """Every glyph drawn inside its footprint equals the full-canvas oracle's
    render byte for byte, and no oracle glyph reaches past its footprint."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=corpus_recipes(), seed=st.integers(0, 2**32 - 1))
    def test_seeded_corpora_equal_the_oracle_byte_for_byte(self, drawn, seed):
        n, constants = drawn
        with recipe(**constants):
            params = CorpusParams(image_size=n)
            assert_same_corpus(generate_synthetic_corpus(seed, 3, params),
                               synthetic_oracles.generate_synthetic_corpus(seed, 3, params))

    @pytest.mark.parametrize("n", [32, 33, 96, 159, 160, 319, 320])
    def test_the_largest_face_at_any_rotation_equals_the_oracle(self, n):
        high = largest_face(n)
        with recipe(SIZE_RANGE=(high, high), ROTATION_DEG=180.0, MAX_CLUTTER=6,
                    NO_FACE_RATE=0.3):
            params = CorpusParams(image_size=n)
            assert_same_corpus(generate_synthetic_corpus(n, 8, params),
                               synthetic_oracles.generate_synthetic_corpus(n, 8, params))

    @pytest.mark.parametrize("size", [6.0, 37.3, 80.0, 250.0])
    def test_faces_at_the_corners_and_across_every_edge(self, size):
        rng = np.random.default_rng(int(size))
        base = rng.random((480, 640))
        for center in EDGE_CENTERS:
            angle = rng.uniform(-np.pi, np.pi)
            got, want = base.copy(), base.copy()
            render_face(got, center, size, angle)
            synthetic_oracles.render_face(want, center, size, angle)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", [0, 1, 2])
    @pytest.mark.parametrize("size", [8.0, 19.6, 30.0])
    def test_distractors_at_the_corners_and_across_every_edge(self, kind, size):
        rng = np.random.default_rng(kind * 100 + int(size))
        base = rng.random((480, 640))
        for center in EDGE_CENTERS:
            draws = distractor_draws(kind, center, size, rng)
            got, want = base.copy(), base.copy()
            _render_clutter(got, ScriptedRng(draws), None)
            synthetic_oracles._render_clutter(want, ScriptedRng(draws), None)
            assert got.tobytes() == want.tobytes()

    def test_every_nonzero_oracle_pixel_lies_over_1_px_inside_its_footprint(self):
        """On a zero canvas, each oracle glyph's nonzero pixels lie inside
        the view _footprint gives the renderer, and at least 1 px inside the
        footprint square on both axes."""
        rng = np.random.default_rng(29)
        for trial in range(300):
            size = rng.uniform(4.0, 90.0)
            center = rng.uniform(0.0, 200.0, size=2)
            canvas = np.zeros((200, 200))
            if trial % 2:
                half = max(ELLIPSE_AXES) * size + FOOTPRINT_MARGIN
                synthetic_oracles.render_face(canvas, center, size, rng.uniform(-np.pi, np.pi))
            else:
                size = min(size, 30.0)
                half = size + FOOTPRINT_MARGIN
                kind = int(rng.integers(0, 3))
                synthetic_oracles._render_clutter(
                    canvas, ScriptedRng(distractor_draws(kind, center, size, rng)), None)
            inside = np.zeros(canvas.shape, dtype=bool)
            _footprint(inside, center, half)[0][...] = True
            assert not canvas[~inside].any()
            ys, xs = np.nonzero(canvas)
            assert len(xs)
            assert np.abs(xs - center[0]).max() <= half - 1.0
            assert np.abs(ys - center[1]).max() <= half - 1.0


def eye_frame(landmarks):
    """The face side and the rotation in degrees that a glyph's eye centers
    give: they lie level at zero rotation, one layout eye-gap times the side
    apart."""
    gap = np.hypot(*(GLYPH_LANDMARKS[1] - GLYPH_LANDMARKS[0]))
    dx, dy = landmarks[1] - landmarks[0]
    return np.hypot(dx, dy) / gap, np.degrees(np.arctan2(dy, dx))


class TestRecipeConstants:
    """generate_sample reads each recipe constant when it runs, and each
    constant sets what its comment in synthetic says."""

    def test_the_defaults_are_the_recipe_every_corpus_is_drawn_with(self):
        assert synthetic.SIZE_RANGE == (38.0, 64.0)
        assert (synthetic.ROTATION_DEG, synthetic.NOISE) == (45.0, 0.03)
        assert (synthetic.BACKGROUND, synthetic.FACE_CONTRAST) == (0.35, 0.35)
        assert (synthetic.MAX_CLUTTER, synthetic.NO_FACE_RATE) == (3, 0.0)

    @pytest.mark.parametrize("name, value", [
        ("SIZE_RANGE", (20.0, 30.0)), ("ROTATION_DEG", 10.0), ("NOISE", 0.0),
        ("BACKGROUND", 0.5), ("FACE_CONTRAST", 0.7), ("MAX_CLUTTER", 0),
        ("NO_FACE_RATE", 0.5),
    ])
    def test_a_patched_constant_reaches_the_draw_and_the_oracle(self, name, value):
        default = generate_synthetic_corpus(21, 4)
        with recipe(**{name: value}):
            got = generate_synthetic_corpus(21, 4)
            assert_same_corpus(got, synthetic_oracles.generate_synthetic_corpus(
                21, 4, CorpusParams()))
        assert any(a.image.tobytes() != b.image.tobytes() for a, b in zip(got, default))

    @pytest.mark.parametrize("size_range", [(20.0, 20.0), (10.0, 30.0), (38.0, 64.0)])
    def test_face_sides_are_drawn_across_size_range(self, size_range):
        with recipe(SIZE_RANGE=size_range, MAX_CLUTTER=0, NOISE=0.0):
            corpus = generate_synthetic_corpus(5, 30)
        sides = np.array([eye_frame(lms)[0] for s in corpus for _, lms in s.faces])
        low, high = size_range
        assert len(sides) == 30
        assert sides.min() >= low - 1e-9 and sides.max() <= high + 1e-9
        assert np.ptp(sides) >= 0.8 * (high - low)

    @pytest.mark.parametrize("bound", [0.0, 10.0, 45.0, 90.0])
    def test_rotations_are_drawn_within_plus_minus_rotation_deg(self, bound):
        with recipe(ROTATION_DEG=bound, MAX_CLUTTER=0, NOISE=0.0):
            corpus = generate_synthetic_corpus(6, 30)
        angles = np.array([eye_frame(lms)[1] for s in corpus for _, lms in s.faces])
        assert np.abs(angles).max() <= bound + 1e-9
        assert angles.min() <= -0.8 * bound and angles.max() >= 0.8 * bound

    @pytest.mark.parametrize("noise", [0.0, 0.01, 0.03, 0.1])
    def test_noise_is_the_deviation_of_the_pixel_noise(self, noise):
        """The noise is a sample's last draw, so the first sample drawn under
        NOISE = 0 is the same image without it."""
        with recipe(NOISE=0.0):
            clean = generate_synthetic_corpus(8, 1)[0].image
        with recipe(NOISE=noise):
            residual = generate_synthetic_corpus(8, 1)[0].image - clean
        if noise == 0.0:
            assert not residual.any()
        else:
            assert residual.std() == pytest.approx(noise, rel=0.05)
            assert abs(residual.mean()) < 4 * noise / np.sqrt(residual.size)

    @pytest.mark.parametrize("level", [0.0, 0.35, 0.8])
    def test_a_bare_image_is_a_gentle_plane_through_the_background_level(self, level):
        """Each side's gradient is drawn in +-0.06 over the image, centred on
        its middle pixel."""
        with recipe(BACKGROUND=level, NO_FACE_RATE=1.0, MAX_CLUTTER=0, NOISE=0.0):
            image = generate_synthetic_corpus(9, 1)[0].image[0]
        n = image.shape[0]
        assert image[n // 2, n // 2] == level
        assert np.abs(image - level).max() <= 0.06
        for axis in (0, 1):
            np.testing.assert_allclose(np.diff(image, 2, axis=axis), 0.0, atol=1e-12)

    @pytest.mark.parametrize("glyph", ["face", 0, 1, 2])
    def test_face_contrast_is_every_glyphs_gain(self, glyph):
        """On a zero canvas, doubling FACE_CONTRAST doubles the face or
        distractor of each kind, and 0 draws nothing."""
        def draw():
            canvas = np.zeros((80, 80))
            if glyph == "face":
                render_face(canvas, (40.0, 40.0), 50.0, 0.3)
            else:
                draws = distractor_draws(glyph, (40.0, 40.0), 25.0,
                                         np.random.default_rng(glyph))
                _render_clutter(canvas, ScriptedRng(draws), None)
            return canvas

        with recipe(FACE_CONTRAST=0.35):
            base = draw()
        with recipe(FACE_CONTRAST=0.7):
            doubled = draw()
        with recipe(FACE_CONTRAST=0.0):
            blank = draw()
        assert base.any() and not blank.any()
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("most", [0, 1, 3, 6])
    def test_each_image_draws_0_to_max_clutter_distractors(self, monkeypatch, most):
        calls = []
        monkeypatch.setattr(synthetic, "_render_clutter",
                            lambda canvas, rng, face_box: calls.append(face_box))
        rng = np.random.default_rng(10)
        counts = []
        with recipe(MAX_CLUTTER=most, NOISE=0.0):
            for _ in range(60):
                before = len(calls)
                sample = synthetic.generate_sample(rng, CorpusParams())
                counts.append(len(calls) - before)
                assert all(box is sample.faces[0][0] for box in calls[before:])
        assert set(counts) == set(range(most + 1))

    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.7])
    def test_no_face_rate_is_the_face_free_share(self, rate):
        with recipe(NO_FACE_RATE=rate, MAX_CLUTTER=0, NOISE=0.0):
            corpus = generate_synthetic_corpus(12, 200, CorpusParams(image_size=71))
        assert all(len(s.faces) <= 1 for s in corpus)
        free = np.mean([not s.faces for s in corpus])
        if rate == 0.0:
            assert free == 0.0
        else:
            assert abs(free - rate) < 0.1
