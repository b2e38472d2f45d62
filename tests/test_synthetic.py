"""Tests for the synthetic corpus generator: determinism, analytic landmark
placement, and pixel-support agreement of the ground-truth boxes."""

import numpy as np
import pytest

import decode_oracles
from warpdet.align import SingularTransformError
from warpdet.suppress import iou
from warpdet.synthetic import (
    GLYPH_LANDMARKS,
    AnnotatedSample,
    CorpusParams,
    box_from_landmarks,
    generate_synthetic_corpus,
    glyph_box,
    glyph_landmarks,
    render_face,
)


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
        params = CorpusParams(rotation_deg=0.0, noise=0.0, max_clutter=0)
        sample = generate_synthetic_corpus(3, 1, params)[0]
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

    def test_no_face_rate(self):
        params = CorpusParams(no_face_rate=1.0)
        corpus = generate_synthetic_corpus(4, 5, params)
        assert all(len(s.faces) == 0 for s in corpus)

    def test_provenance_recorded(self):
        sample = generate_synthetic_corpus(13, 1)[0]
        assert isinstance(sample, AnnotatedSample)
        assert "seed=13" in sample.provenance
