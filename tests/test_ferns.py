"""Tests for the boosted-fern cascade: split indexing against an independent
re-implementation, RealBoost partition scores, training behavior on separable
synthetic data, pooled training against the per-candidate oracle, soft-cascade
early exit, and the sliding-window scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fern_oracles
from conftest import open_cascade
from fern_oracles import (
    cascade_score,
    fern_index,
    partition_scores,
    train_cascade_reference,
)
from warpdet.ferns import (
    NUM_PARTITIONS,
    SCAN_STRIDE,
    SMOOTHING_FRACTION,
    CascadeConfig,
    CascadeModel,
    Fern,
    TrainingError,
    _bucket_fold_sums,
    _draw_pool,
    _scan_level,
    fold_sum,
    scan,
    train_cascade,
)
from warpdet.suppress import iou


def bitwise_index_reference(patch, coords, thresholds):
    """Independent re-implementation: explicit per-bit loop."""
    idx = 0
    for i in range(8):
        x1, y1, x2, y2 = coords[i]
        if patch[y1, x1] - patch[y2, x2] < thresholds[i]:
            idx += 2**i
    return idx


def make_fern(rng, patch_size=32):
    coords = rng.integers(0, patch_size, size=(8, 4))
    thresholds = rng.uniform(-0.5, 0.5, size=8)
    return Fern(coords, thresholds, np.zeros(256))


def separable_patches(rng, n_pos, n_neg, contrast=0.6, noise=0.1, jitter=0):
    """Bright-center positives vs flat-noise negatives, linearly separable by
    center-minus-border pixel differences. Optional jitter shifts and resizes
    the bright square so a model generalizes to sliding-window offsets."""
    pos = rng.normal(0.3, noise, size=(n_pos, 32, 32))
    for p in pos:
        half = 8 + (rng.integers(-jitter, jitter + 1) if jitter else 0)
        cy = 16 + (rng.integers(-jitter, jitter + 1) if jitter else 0)
        cx = 16 + (rng.integers(-jitter, jitter + 1) if jitter else 0)
        p[cy - half : cy + half, cx - half : cx + half] += contrast
    neg = rng.normal(0.3, noise, size=(n_neg, 32, 32))
    return np.clip(pos, 0, 1.5), np.clip(neg, 0, 1.5)


def training_error(model, pos, neg):
    scores_pos = [cascade_score(p, model, early_exit=False)[0] for p in pos]
    scores_neg = [cascade_score(p, model, early_exit=False)[0] for p in neg]
    mistakes = sum(s <= 0 for s in scores_pos) + sum(s > 0 for s in scores_neg)
    return mistakes / (len(pos) + len(neg))


class TestFernIndex:
    def test_constant_patch_positive_thresholds(self, rng):
        fern = make_fern(rng)
        fern.thresholds = np.full(8, 0.25)
        assert fern_index(np.full((32, 32), 0.7), fern) == 255

    def test_constant_patch_negative_thresholds(self, rng):
        fern = make_fern(rng)
        fern.thresholds = np.full(8, -0.25)
        assert fern_index(np.full((32, 32), 0.7), fern) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bitwise_reference(self, seed):
        rng = np.random.default_rng(seed)
        patch = rng.random((32, 32))
        fern = make_fern(rng)
        assert fern_index(patch, fern) == bitwise_index_reference(
            patch, fern.coords, fern.thresholds
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 7))
    def test_flipping_one_split_moves_index_by_its_power(self, seed, bit):
        rng = np.random.default_rng(seed)
        patch = rng.random((32, 32))
        fern = make_fern(rng)
        base = fern_index(patch, fern)
        x1, y1, x2, y2 = fern.coords[bit]
        diff = patch[y1, x1] - patch[y2, x2]
        # move the threshold to the other side of the observed difference
        flipped = fern.thresholds.copy()
        flipped[bit] = diff - 1.0 if diff < fern.thresholds[bit] else diff + 1.0
        other = Fern(fern.coords, flipped, fern.scores)
        assert abs(fern_index(patch, other) - base) == 2**bit

    def test_out_of_range_coords_rejected(self, rng):
        fern = make_fern(rng)
        fern.coords[0, 0] = 32
        with pytest.raises(ValueError):
            CascadeModel([fern], np.zeros(1))

    @pytest.mark.parametrize("columns", [1, 2])
    def test_stage_thresholds_of_another_shape_rejected(self, rng, columns):
        ferns = [make_fern(rng) for _ in range(3)]
        with pytest.raises(ValueError, match="one stage threshold per fern"):
            CascadeModel(ferns, np.zeros((3, columns)))

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError, match="at least one fern"):
            CascadeModel([], np.zeros(0))


class TestPartitionScores:
    def test_balanced_partition_scores_zero(self):
        parts = np.array([3, 3])
        labels = np.array([1, 0])
        weights = np.array([0.5, 0.5])
        scores = partition_scores(parts, labels, weights)
        assert scores[3] == 0.0

    def test_nine_to_one_ratio(self):
        parts = np.array([7, 7])
        labels = np.array([1, 0])
        weights = np.array([0.9, 0.1])
        scores = partition_scores(parts, labels, weights)
        eps = SMOOTHING_FRACTION  # of a total weight of one
        assert scores[7] == pytest.approx(0.5 * np.log((0.9 + eps) / (0.1 + eps)), abs=1e-12)
        assert scores[7] == pytest.approx(0.5 * np.log(9.0), abs=1e-3)

    def test_empty_partition_scores_zero(self):
        parts = np.array([0, 1])
        labels = np.array([1, 0])
        weights = np.array([0.5, 0.5])
        scores = partition_scores(parts, labels, weights)
        assert np.all(scores[2:] == 0.0)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            partition_scores(np.array([0]), np.array([1]), np.array([0.0]))


class TestFoldSum:
    def test_matches_plain_sum(self, rng):
        for n in (1, 2, 3, 7, 31, 100):
            v = rng.standard_normal(n)
            assert fold_sum(v) == pytest.approx(v.sum(), rel=1e-12)
        assert fold_sum(np.array([])) == 0.0

    def test_adjacent_duplication_doubles_exactly(self, rng):
        for n in (1, 3, 9, 50):
            v = rng.standard_normal(n)
            assert fold_sum(np.repeat(v, 2)) == 2.0 * fold_sum(v)


class TestTrainCascade:
    def test_separable_task_reaches_zero_training_error(self, rng):
        pos, neg = separable_patches(rng, 120, 160)
        cfg = CascadeConfig(num_ferns=50, candidate_pool=40, seed=3)
        model = train_cascade(pos, neg, cfg)
        assert training_error(model, pos, neg) == 0.0

    def test_full_target_rejects_no_positive(self, rng):
        pos, neg = separable_patches(rng, 60, 80)
        cfg = CascadeConfig(
            num_ferns=12, candidate_pool=30, per_stage_detection_target=1.0, seed=5
        )
        model = train_cascade(pos, neg, cfg)
        for p in pos:
            _, rejected_at = cascade_score(p, model)
            assert rejected_at is None

    def test_duplicated_training_set_gives_bitwise_identical_model(self, rng):
        pos, neg = separable_patches(rng, 40, 50)
        cfg = CascadeConfig(num_ferns=8, candidate_pool=20, seed=11)
        base = train_cascade(pos, neg, cfg)
        doubled = train_cascade(
            np.repeat(pos, 2, axis=0), np.repeat(neg, 2, axis=0), cfg
        )
        np.testing.assert_array_equal(base.stage_thresholds, doubled.stage_thresholds)
        for fa, fb in zip(base.ferns, doubled.ferns):
            np.testing.assert_array_equal(fa.coords, fb.coords)
            np.testing.assert_array_equal(fa.thresholds, fb.thresholds)
            np.testing.assert_array_equal(fa.scores, fb.scores)

    def test_seeded_training_is_bit_reproducible(self, rng):
        pos, neg = separable_patches(rng, 40, 50)
        cfg = CascadeConfig(num_ferns=6, candidate_pool=15, seed=2)
        a = train_cascade(pos, neg, cfg)
        b = train_cascade(pos, neg, cfg)
        np.testing.assert_array_equal(a.stage_thresholds, b.stage_thresholds)
        for fa, fb in zip(a.ferns, b.ferns):
            np.testing.assert_array_equal(fa.scores, fb.scores)

    def test_exponential_loss_non_increasing(self, rng):
        pos, neg = separable_patches(rng, 80, 100)
        cfg = CascadeConfig(num_ferns=25, candidate_pool=30, seed=7)
        model = train_cascade(pos, neg, cfg)
        losses = model.train_log["stage_partition_losses"]
        assert all(z <= 1.0 + 1e-12 for z in losses)

    def test_degenerate_pool_raises(self):
        pos = np.full((10, 32, 32), 0.5)
        neg = np.full((12, 32, 32), 0.5)
        cfg = CascadeConfig(num_ferns=3, candidate_pool=10, seed=0)
        with pytest.raises(TrainingError):
            train_cascade(pos, neg, cfg)

    def test_empty_class_rejected(self, rng):
        pos, _ = separable_patches(rng, 5, 5)
        with pytest.raises(ValueError):
            train_cascade(pos, np.zeros((0, 32, 32)), CascadeConfig(num_ferns=1))


class TestCascadeConfig:
    @pytest.mark.parametrize("field", ["num_ferns", "candidate_pool"])
    @pytest.mark.parametrize("size", [0, -1])
    def test_sizes_below_one_rejected(self, field, size):
        with pytest.raises(ValueError):
            CascadeConfig(**{field: size})

    def test_smallest_sizes_train(self, rng):
        pos, neg = separable_patches(rng, 10, 12)
        model = train_cascade(pos, neg, CascadeConfig(num_ferns=1, candidate_pool=1))
        assert len(model.ferns) == 1


def assert_same_cascade(a, b):
    """Byte equality of every trained array and of the stage losses."""
    assert len(a.ferns) == len(b.ferns)
    for fa, fb in zip(a.ferns, b.ferns):
        for attr in ("coords", "thresholds", "scores"):
            x, y = getattr(fa, attr), getattr(fb, attr)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), attr
    assert a.stage_thresholds.tobytes() == b.stage_thresholds.tobytes()
    losses_a = np.array(a.train_log["stage_partition_losses"])
    losses_b = np.array(b.train_log["stage_partition_losses"])
    assert losses_a.tobytes() == losses_b.tobytes()


class TestPooledTrainingMatchesOracle:
    """train_cascade scores a stage's whole candidate pool at once; the
    per-candidate trainer in fern_oracles must produce the same bytes."""

    @pytest.mark.parametrize(
        "n_pos, n_neg, duplicated, num_ferns, pool, seed",
        [
            (30, 40, False, 10, 1, 4),    # a pool of one candidate
            (37, 51, False, 12, 25, 6),   # 88 samples: no power of two
            (20, 26, True, 8, 20, 11),    # every sample duplicated in place
            (40, 50, False, 6, 60, 0),    # a pool as large as the pre-filter's
        ],
    )
    def test_byte_equal_cascades(self, n_pos, n_neg, duplicated, num_ferns, pool, seed):
        rng = np.random.default_rng(seed)
        pos, neg = separable_patches(rng, n_pos, n_neg, jitter=2)
        if duplicated:
            pos, neg = np.repeat(pos, 2, axis=0), np.repeat(neg, 2, axis=0)
        cfg = CascadeConfig(num_ferns=num_ferns, candidate_pool=pool, seed=seed)
        assert_same_cascade(
            train_cascade(pos, neg, cfg), train_cascade_reference(pos, neg, cfg)
        )

    @pytest.mark.parametrize("n_pos, n_neg", [(5, 6), (37, 51)])
    def test_every_pool_candidate_matches_the_oracle_draw(self, n_pos, n_neg):
        """Coordinates and inverted-CDF thresholds of every candidate, not
        only the kept ones; at 11 samples the lowest quantiles take the
        minimum."""
        pos, neg = separable_patches(np.random.default_rng(n_pos), n_pos, n_neg)
        flat = np.concatenate([pos, neg]).reshape(n_pos + n_neg, -1)
        coords, thresholds, _ = _draw_pool(np.random.default_rng(9), flat, 200)
        oracle_rng = np.random.default_rng(9)
        for c in range(200):
            want_coords, want_thresholds = fern_oracles._draw_candidate(
                oracle_rng, flat, 32
            )
            assert coords[c].tobytes() == want_coords.tobytes()
            assert thresholds[c].tobytes() == want_thresholds.tobytes()

    @pytest.mark.parametrize("varying_row", [False, True])
    def test_degenerate_pool_raises_at_the_same_stage(self, varying_row):
        """Flat patches fail at stage 0; with one varying pixel row and pools
        of two, pooled and oracle training both fail at a later stage."""
        rng = np.random.default_rng(5)
        pos = np.full((20, 32, 32), 0.5)
        neg = np.full((24, 32, 32), 0.5)
        if varying_row:
            pos[:, 0, :] = rng.uniform(0.6, 1.0, size=(20, 32))
            neg[:, 0, :] = rng.uniform(0.0, 0.4, size=(24, 32))
        cfg = CascadeConfig(num_ferns=30, candidate_pool=2, seed=5)
        with pytest.raises(TrainingError) as pooled:
            train_cascade(pos, neg, cfg)
        with pytest.raises(TrainingError) as reference:
            train_cascade_reference(pos, neg, cfg)
        assert str(pooled.value) == str(reference.value)
        assert ("at stage 0:" in str(pooled.value)) != varying_row


@st.composite
def partition_columns(draw):
    """(n, P) partition indices and n positive weights; a span of one gives
    one-partition columns, and n may be 0."""
    n = draw(st.integers(0, 40))
    cols = draw(st.integers(1, 4))
    span = draw(st.sampled_from([1, 2, 5, NUM_PARTITIONS]))
    parts = draw(st.lists(st.integers(0, span - 1), min_size=n * cols,
                          max_size=n * cols))
    weights = draw(st.lists(
        st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n,
    ))
    return (np.array(parts, dtype=np.int64).reshape(n, cols),
            np.array(weights, dtype=np.float64))


class TestPooledFold:
    @settings(max_examples=150, deadline=None)
    @given(partition_columns())
    def test_each_column_equals_the_scalar_fold(self, columns):
        parts, weights = columns
        pooled = _bucket_fold_sums(parts, weights)
        assert pooled.shape == (parts.shape[1], NUM_PARTITIONS)
        for c in range(parts.shape[1]):
            scalar = fern_oracles._bucket_fold_sums(parts[:, c], weights)
            assert pooled[c].tobytes() == scalar.tobytes()


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    pos, neg = separable_patches(rng, 80, 100)
    return train_cascade(
        pos, neg, CascadeConfig(num_ferns=20, candidate_pool=30, seed=1)
    ), pos, neg


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(21)
    pos, neg = separable_patches(rng, 300, 400, jitter=3)
    return train_cascade(
        pos, neg, CascadeConfig(num_ferns=30, candidate_pool=40, seed=4)
    )


class TestCascadeScore:
    def test_accepted_patch_gets_full_score(self, model):
        cascade, pos, _ = model
        score, rejected_at = cascade_score(pos[0], cascade)
        if rejected_at is None:
            full = sum(
                fern.scores[fern_index(pos[0], fern)] for fern in cascade.ferns
            )
            assert score == pytest.approx(full)

    def test_early_reject_costs_one_stage(self, model):
        cascade, _, _ = model
        # craft thresholds that reject everything immediately
        strict = CascadeModel(
            cascade.ferns, np.full(len(cascade.ferns), 1e9), cascade.patch_size
        )
        _, rejected_at = cascade_score(np.zeros((32, 32)), strict)
        assert rejected_at == 0

    def test_early_exit_matches_full_evaluation(self, model, rng):
        cascade, pos, neg = model
        patches = np.concatenate([pos[:20], neg[:20], rng.random((40, 32, 32))])
        for patch in patches:
            s_fast, r_fast = cascade_score(patch, cascade, early_exit=True)
            s_full, r_full = cascade_score(patch, cascade, early_exit=False)
            assert r_fast == r_full
            if r_fast is None:
                assert s_fast == pytest.approx(s_full)
            else:
                # the early-exit score is the cumulative prefix at rejection
                prefix = 0.0
                for fern in cascade.ferns[: r_fast + 1]:
                    prefix += fern.scores[fern_index(patch, fern)]
                assert s_fast == pytest.approx(prefix)


def planted_image(rng):
    """96x96 noise with one bright square pattern in a 40-px box at (30, 26)."""
    img = np.clip(rng.normal(0.3, 0.1, size=(96, 96)), 0, 1.5)
    size = 40
    x0, y0 = 30, 26
    inner = int(size * 0.5)
    off = (size - inner) // 2
    img[y0 + off : y0 + off + inner, x0 + off : x0 + off + inner] += 0.6
    return img, (x0, y0, size, size)


class TestScan:
    @pytest.mark.parametrize("offset", [0.0, -2.0, -5.0])
    def test_scan_level_matches_scalar_cascade(self, trained, rng, offset):
        img, _ = planted_image(rng)
        # lowering every stage threshold lets more windows through
        cascade = CascadeModel(
            trained.ferns, trained.stage_thresholds + offset, trained.patch_size
        )
        stride, ps = SCAN_STRIDE, cascade.patch_size
        wins_y = (img.shape[0] - ps) // stride + 1
        wins_x = (img.shape[1] - ps) // stride + 1
        alive, scores = _scan_level(img.ravel(), img.shape[1], wins_x, wins_y, cascade, stride)
        expected, expected_scores = [], []
        for pos in range(wins_y * wins_x):
            wy, wx = divmod(pos, wins_x)
            patch = img[wy * stride : wy * stride + ps, wx * stride : wx * stride + ps]
            score, rejected_at = cascade_score(patch, cascade)
            if rejected_at is None:
                expected.append(pos)
                expected_scores.append(score)
        assert len(expected) > 0
        np.testing.assert_array_equal(alive, expected)
        np.testing.assert_array_equal(scores, expected_scores)

    @pytest.mark.parametrize("seed, shape", [(0, (64, 64)), (1, (96, 80)),
                                             (2, (50, 130)), (3, (120, 90))])
    def test_scan_matches_the_per_window_oracle_byte_for_byte(self, seed, shape):
        """On a cascade that passes every window, every row of every level
        equals the oracle's Python-float row."""
        rng = np.random.default_rng(seed)
        cascade = open_cascade(rng)
        img = rng.random(shape)
        got = scan(img, cascade)
        want = fern_oracles.scan(img, cascade)
        assert len(want) > 0
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(80, 80), (30, 30)])
    def test_an_empty_scan_is_0_by_5(self, rng, shape):
        """No window survives a cascade whose first stage rejects all, and
        an image below one window at the first level has no level."""
        opened = open_cascade(rng)
        closed = CascadeModel(opened.ferns, np.full(len(opened.ferns), 1e9))
        empty = scan(rng.random(shape), closed)
        assert empty.shape == (0, 5) and empty.dtype == np.float64

    def test_blank_image_near_empty(self, trained):
        blank = np.full((80, 80), 0.3)
        dets = scan(blank, trained)
        assert len(dets) <= 5

    def test_planted_pattern_found(self, trained, rng):
        img, box = planted_image(rng)
        dets = scan(img, trained)
        assert any(iou(row[:4], box) >= 0.5 for row in dets)

    def test_full_stride_tiles_align(self, trained, rng):
        img = np.clip(rng.normal(0.3, 0.1, size=(80, 80)), 0, 1.5)
        img[20:40, 20:40] += 0.6
        dets = scan(img, trained)
        assert len(dets)
        for x, y, w, _, _ in dets:
            # window origin is a multiple of the stride at its pyramid level
            scale = 32.0 / w
            for origin in (x * scale / SCAN_STRIDE, y * scale / SCAN_STRIDE):
                assert origin == pytest.approx(round(origin), abs=1e-6)


class TestGrayscale:
    """scan takes the one (H, W) plane of a grayscale image."""

    def test_single_channel_passthrough(self, trained, rng):
        img, _ = planted_image(rng)
        img = img.astype(np.float32)
        dets = scan(img, trained)
        assert len(dets)
        np.testing.assert_array_equal(dets, scan(img.astype(np.float64), trained))

    def test_bad_shape_rejected(self, trained):
        for shape in [(1, 40, 40), (2, 40, 40), (40,)]:
            with pytest.raises(ValueError, match="grayscale plane"):
                scan(np.zeros(shape), trained)

    def test_color_rejected(self, trained, rng):
        with pytest.raises(ValueError, match="grayscale plane"):
            scan(rng.random((3, 40, 40)), trained)
