"""Tests for the boosted-fern cascade: split indexing against an independent
re-implementation, RealBoost partition scores, training behavior on separable
synthetic data, pooled training against the per-candidate oracle, soft-cascade
early exit, and the sliding-window scan."""

import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

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
from warpdet import ferns, nn
from warpdet.ferns import (
    NUM_PARTITIONS,
    NUM_SPLITS,
    PATCH_SIZE,
    SCAN_STRIDE,
    SMOOTHING_FRACTION,
    CascadeModel,
    Fern,
    TrainingError,
    _draw_pool,
    _partition_sums,
    scan,
    scan_levels,
    train_cascade,
)
from warpdet.pipeline import crop_patch
from warpdet.roiconv import resize_bilinear
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


@contextmanager
def recipe(pool, target=ferns.STAGE_DETECTION_TARGET):
    """Train under another candidate pool and per-stage detection target."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ferns, "CANDIDATE_POOL", pool)
        patch.setattr(ferns, "STAGE_DETECTION_TARGET", target)
        yield


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


class TestTrainCascade:
    def test_separable_task_reaches_zero_training_error(self, rng):
        pos, neg = separable_patches(rng, 120, 160)
        with recipe(pool=40):
            model = train_cascade(pos, neg, 50, 3)
        assert training_error(model, pos, neg) == 0.0

    def test_full_target_rejects_no_positive(self, rng):
        pos, neg = separable_patches(rng, 60, 80)
        with recipe(pool=30, target=1.0):
            model = train_cascade(pos, neg, 12, 5)
        for p in pos:
            _, rejected_at = cascade_score(p, model)
            assert rejected_at is None

    def test_seeded_training_is_bit_reproducible(self, rng):
        pos, neg = separable_patches(rng, 40, 50)
        with recipe(pool=15):
            a = train_cascade(pos, neg, 6, 2)
            b = train_cascade(pos, neg, 6, 2)
        np.testing.assert_array_equal(a.stage_thresholds, b.stage_thresholds)
        for fa, fb in zip(a.ferns, b.ferns):
            np.testing.assert_array_equal(fa.scores, fb.scores)

    def test_exponential_loss_non_increasing(self, rng):
        pos, neg = separable_patches(rng, 80, 100)
        with recipe(pool=30):
            model = train_cascade(pos, neg, 25, 7)
        losses = model.train_log["stage_partition_losses"]
        assert all(z <= 1.0 + 1e-12 for z in losses)

    def test_degenerate_pool_raises(self):
        pos = np.full((10, 32, 32), 0.5)
        neg = np.full((12, 32, 32), 0.5)
        with recipe(pool=10), pytest.raises(TrainingError):
            train_cascade(pos, neg, 3, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_patch_rejected(self, rng, bad):
        """A NaN fails every difference test and would train silently into
        partition 0; training refuses it and infinities instead."""
        pos, neg = separable_patches(rng, 10, 12)
        neg[3, 5, 7] = bad
        with recipe(pool=1), pytest.raises(ValueError, match="finite"):
            train_cascade(pos, neg, 1, 0)

    def test_empty_class_rejected(self, rng):
        pos, _ = separable_patches(rng, 5, 5)
        with pytest.raises(ValueError):
            train_cascade(pos, np.zeros((0, 32, 32)), 1, 0)

    def test_peak_memory_stays_near_one_copy_of_the_stacks(self):
        """Training keeps one pixel-major copy of the stacks and scores the
        pool in chunks; a concatenated copy beside it and the whole pool's
        differences, gathered and sorted, took about three times the
        stacks' bytes."""
        rng = np.random.default_rng(0)
        pos = rng.uniform(0.0, 1.0, size=(500, 32, 32))
        neg = rng.uniform(0.0, 1.0, size=(1000, 32, 32))
        tracemalloc.start()
        try:
            train_cascade(pos, neg, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (pos.nbytes + neg.nbytes) + 2**20


class TestTrainCascadeArguments:
    @pytest.mark.parametrize("name, num_ferns, seed", [
        ("num_ferns", 0, 0), ("num_ferns", -1, 0), ("num_ferns", 2.0, 0),
        ("num_ferns", True, 0), ("seed", 2, -1), ("seed", 2, 1.5), ("seed", 2, True),
    ])
    def test_a_count_or_seed_that_is_no_int_in_range_is_rejected(
        self, rng, name, num_ferns, seed
    ):
        """Float and bool counts and a float seed used to fail inside numpy
        with a TypeError, a negative seed with numpy's own ValueError; a
        bool seed trained as 0 or 1."""
        pos, neg = separable_patches(rng, 10, 12)
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            train_cascade(pos, neg, num_ferns, seed)

    def test_smallest_sizes_train(self, rng):
        pos, neg = separable_patches(rng, 10, 12)
        with recipe(pool=1):
            model = train_cascade(pos, neg, 1, 0)
        assert len(model.ferns) == 1


def test_the_window_side_is_the_constant_not_a_field():
    """No model file stores the side, so it is no constructor argument."""
    assert CascadeModel.patch_size == PATCH_SIZE
    assert "patch_size" not in {f.name for f in fields(CascadeModel)}


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


@contextmanager
def pool_chunks(per_chunk, n):
    """Score each candidate pool over n samples per_chunk candidates at a
    time, or the whole pool at once when per_chunk is None, by the scratch
    budget; yields the list of the chunk sizes scored."""
    if per_chunk is None:
        budget = sys.maxsize
    elif per_chunk == 1:
        budget = 0  # below one candidate's differences, which still get a chunk
    else:
        budget = per_chunk * 3 * NUM_SPLITS * n * 8
    sizes = []
    partitions = ferns._partitions

    def counted(diffs, thresholds):
        sizes.append(len(diffs))
        return partitions(diffs, thresholds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "IM2COL_BUDGET_BYTES", budget)
        patch.setattr(ferns, "_partitions", counted)
        yield sizes


def chunk_sizes(pool, per_chunk):
    per_chunk = per_chunk or pool
    return [min(per_chunk, pool - lo) for lo in range(0, pool, per_chunk)]


class TestPooledTrainingMatchesOracle:
    """train_cascade scores a stage's candidate pool in chunks; for one
    candidate per chunk, an uneven split whose last chunk is short, and the
    whole pool in one chunk, the per-candidate trainer in fern_oracles must
    produce the same bytes."""

    @pytest.mark.parametrize("per_chunk", [1, 7, None])
    @pytest.mark.parametrize(
        "n_pos, n_neg, duplicated, num_ferns, pool, seed",
        [
            (30, 40, False, 10, 1, 4),    # a pool of one candidate
            (37, 51, False, 12, 25, 6),   # 88 samples: no power of two
            (20, 26, True, 8, 20, 11),    # every sample duplicated in place
            (40, 50, False, 6, 60, 0),    # a pool as large as the pre-filter's
        ],
    )
    def test_byte_equal_cascades(
        self, n_pos, n_neg, duplicated, num_ferns, pool, seed, per_chunk
    ):
        rng = np.random.default_rng(seed)
        pos, neg = separable_patches(rng, n_pos, n_neg, jitter=2)
        if duplicated:
            pos, neg = np.repeat(pos, 2, axis=0), np.repeat(neg, 2, axis=0)
        with recipe(pool=pool):
            with pool_chunks(per_chunk, len(pos) + len(neg)) as sizes:
                pooled = train_cascade(pos, neg, num_ferns, seed)
            assert sizes == chunk_sizes(pool, per_chunk) * num_ferns
            assert_same_cascade(pooled, train_cascade_reference(pos, neg, num_ferns, seed))

    @pytest.mark.parametrize("per_chunk", [1, 7, None])
    @pytest.mark.parametrize("n_pos, n_neg", [(5, 6), (37, 51)])
    def test_every_pool_candidate_matches_the_oracle_draw(self, n_pos, n_neg, per_chunk):
        """Coordinates and inverted-CDF thresholds of every candidate, not
        only the kept ones; at 11 samples the lowest quantiles take the
        minimum. The pool reads the pixel-major copy train_cascade keeps, the
        oracle the sample-major patches."""
        pos, neg = separable_patches(np.random.default_rng(n_pos), n_pos, n_neg)
        flat = np.concatenate([pos, neg]).reshape(n_pos + n_neg, -1)
        with pool_chunks(per_chunk, n_pos + n_neg) as sizes:
            coords, thresholds, parts = _draw_pool(
                np.random.default_rng(9), np.ascontiguousarray(flat.T), 200)
        assert sizes == chunk_sizes(200, per_chunk)
        oracle_rng = np.random.default_rng(9)
        for c in range(200):
            want_coords, want_thresholds = fern_oracles._draw_candidate(
                oracle_rng, flat, 32
            )
            assert coords[c].tobytes() == want_coords.tobytes()
            assert thresholds[c].tobytes() == want_thresholds.tobytes()
            fern = Fern(want_coords, want_thresholds, np.zeros(NUM_PARTITIONS))
            assert np.array_equal(parts[:, c], fern_oracles._indices_flat(flat, fern, 32))

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
        with recipe(pool=2):
            with pytest.raises(TrainingError) as pooled:
                train_cascade(pos, neg, 30, 5)
            with pytest.raises(TrainingError) as reference:
                train_cascade_reference(pos, neg, 30, 5)
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
        pooled = _partition_sums(parts, weights)
        assert pooled.shape == (parts.shape[1], NUM_PARTITIONS)
        for c in range(parts.shape[1]):
            scalar = fern_oracles._bucket_sums(parts[:, c], weights)
            assert pooled[c].tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("cols", [256, 257])
    def test_keys_past_sixteen_bits_equal_the_scalar_fold(self, cols):
        """Pools of 256 and 257 columns: the column-offset keys of uint8
        partitions fill 16 bits at 256 and run past them at 257. Each
        column's span is 256 shifted right by 0 to 7 bits, so some
        partitions hold many samples."""
        rng = np.random.default_rng(cols)
        parts = rng.integers(0, NUM_PARTITIONS, size=(60, cols), dtype=np.uint8)
        parts >>= rng.integers(0, 8, size=cols, dtype=np.uint8)
        weights = rng.uniform(1e-3, 1.0, size=60)
        pooled = _partition_sums(parts, weights)
        assert pooled.shape == (cols, NUM_PARTITIONS)
        for c in range(cols):
            scalar = fern_oracles._bucket_sums(parts[:, c], weights)
            assert pooled[c].tobytes() == scalar.tobytes()


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    pos, neg = separable_patches(rng, 80, 100)
    with recipe(pool=30):
        return train_cascade(pos, neg, 20, 1), pos, neg


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(21)
    pos, neg = separable_patches(rng, 300, 400, jitter=3)
    with recipe(pool=40):
        return train_cascade(pos, neg, 30, 4)


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
        strict = CascadeModel(cascade.ferns, np.full(len(cascade.ferns), 1e9))
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


def planted_plane(rng, shape):
    """Noise with the planted pattern drawn in boxes of 40 to 160 px, as
    many as fit, at random places."""
    img = np.clip(rng.normal(0.3, 0.1, size=shape), 0, 1.5)
    h, w = shape
    for size in (40, 56, 80, 112, 160):
        if size > min(h, w):
            break
        y0, x0 = rng.integers(0, h - size + 1), rng.integers(0, w - size + 1)
        off = size // 4
        img[y0 + off : y0 + size - off, x0 + off : x0 + size - off] += 0.6
    return img


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
    @pytest.mark.parametrize("offset", [None, 0.0, -2.0, -5.0])
    @pytest.mark.parametrize("seed, shape", [(0, (64, 64)), (1, (96, 80)),
                                             (2, (50, 130)), (3, (120, 90)),
                                             (4, (120, 160)), (5, (480, 640))])
    def test_scan_matches_the_per_window_oracle_byte_for_byte(
        self, trained, seed, shape, offset
    ):
        """Every row of every level equals the oracle's Python-float row, on
        a cascade that passes every window (offset None) and on the trained
        one with every stage threshold moved by offset."""
        rng = np.random.default_rng(seed)
        if offset is None:
            cascade = open_cascade(rng)
        else:
            cascade = CascadeModel(trained.ferns, trained.stage_thresholds + offset)
        img = planted_plane(rng, shape)
        got = scan(img, cascade)
        want = fern_oracles.scan(img, cascade)
        assert len(want) > 0
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_rejected(self, rng, bad):
        img = rng.random((80, 80))
        img[41, 17] = bad
        with pytest.raises(ValueError, match="finite"):
            scan(img, open_cascade(rng))

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

    def test_a_window_box_recrops_the_pixels_its_level_scanned(self):
        """crop_patch of an interior window's box on a 160-px image samples
        the image exactly where the window's pyramid level did."""
        rng = np.random.default_rng(160)
        img = rng.random((160, 160))
        levels, checked = {}, 0
        for x, y, w, h, _ in scan(img, open_cascade(rng)):
            if x < 0 or y < 0 or x + w > 159 or y + h > 159:
                continue  # the level clamps at the image edge, the crop pads
            lw, lh = round(32 * 160 / w), round(32 * 160 / h)
            wx, wy = round((x + 0.5) * lw / 160), round((y + 0.5) * lh / 160)
            if (lh, lw) not in levels:
                levels[lh, lw] = resize_bilinear(img[None], (lh, lw))[0]
            window = levels[lh, lw][wy : wy + 32, wx : wx + 32]
            crop = crop_patch(img[None], (x, y, w, h), 32)
            np.testing.assert_allclose(crop, window, rtol=0, atol=1e-13)
            checked += 1
        assert len(levels) >= 5 and checked > 500

    def test_full_stride_tiles_align(self, trained, rng):
        img = np.clip(rng.normal(0.3, 0.1, size=(80, 80)), 0, 1.5)
        img[20:40, 20:40] += 0.6
        dets = scan(img, trained)
        assert len(dets)
        for x, y, w, _, _ in dets:
            # window origin is a multiple of the stride at its pyramid level,
            # whose pixel i reads image coordinate (i + 0.5) / scale - 0.5
            scale = 32.0 / w
            for origin in ((x + 0.5) * scale / SCAN_STRIDE, (y + 0.5) * scale / SCAN_STRIDE):
                assert origin == pytest.approx(round(origin), abs=1e-6)


SCAN_SHAPES = [(160, 160), (96, 96), (96, 80), (50, 130), (120, 160), (480, 640), (30, 30)]


@pytest.fixture(scope="module")
def spans():
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import spans
    finally:
        sys.path.remove(bench)
    return spans


class TestScanLevels:
    @pytest.mark.parametrize("shape", SCAN_SHAPES)
    def test_levels_stack_at_one_pitch_and_hold_the_oracle_levels(self, rng, shape):
        """Levels sit top to bottom at the first level's width, each equal
        to the oracle resampler's level bit for bit, with zero padding."""
        img = rng.random(shape)
        plane, pitch, levels, origins = scan_levels(img)
        sizes = fern_oracles.scan_level_sizes(shape, 32)
        assert levels.shape == (len(sizes), 3)
        np.testing.assert_array_equal(levels[:, 1:], np.reshape(sizes, (-1, 2)))
        tops, heights, widths = levels.T
        np.testing.assert_array_equal(tops, np.cumsum(heights) - heights)
        assert pitch == (widths[0] if sizes else 0)
        assert plane.dtype == np.float64 and plane.size == pitch * heights.sum()
        grid = plane.reshape(-1, pitch) if pitch else plane
        for top, lh, lw in levels:
            level = fern_oracles.resize_bilinear(img[None], (lh, lw))[0]
            assert grid[top : top + lh, :lw].tobytes() == level.tobytes()
            assert not grid[top : top + lh, lw:].any()

    @pytest.mark.parametrize("shape", SCAN_SHAPES)
    def test_every_window_reads_only_its_own_level(self, rng, shape):
        """Each window's 32-px footprint lies inside its own level's
        rectangle, so pitch padding is never read; origins run level by
        level in row-major order over each level's whole stride grid."""
        ps = 32
        _, pitch, levels, origins = scan_levels(rng.random(shape))
        row, col = np.divmod(origins, pitch)
        level = np.searchsorted(levels[:, 0], row, side="right") - 1
        top, lh, lw = levels[level].T
        assert (level >= 0).all() and (np.diff(level) >= 0).all()
        assert (row + ps <= top + lh).all() and (col + ps <= lw).all()
        assert ((row - top) % SCAN_STRIDE == 0).all() and (col % SCAN_STRIDE == 0).all()
        assert (np.diff(origins) > 0).all()
        grid = ((levels[:, 1] - ps) // SCAN_STRIDE + 1) * ((levels[:, 2] - ps) // SCAN_STRIDE + 1)
        np.testing.assert_array_equal(np.bincount(level, minlength=len(levels)), grid)

    @pytest.mark.parametrize("shape", [(160, 160), (96, 96), (120, 160), (480, 640), (30, 30)])
    def test_the_bench_window_count_is_the_generators(self, spans, shape):
        """The bench's ferns.windows count is the scan's window count."""
        assert spans.scan_windows(shape, 32) == scan_levels(np.zeros(shape))[3].size


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
