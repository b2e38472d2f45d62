"""Tests for IoU and the two suppression schemes on (N, 5) [x, y, w, h,
score] rows, including an independent greedy reference implementation,
randomized property checks, and a check that the row form keeps the same
rows in the same order as the record-list oracle of tests/suppress_oracles.py."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import suppress_oracles
from warpdet.suppress import IOU_THRESHOLD, TOP_K, iou, nms, non_top_k


def reference_nms(rows, threshold):
    """Brute-force greedy reference, written without reusing the library's
    helpers: explicit O(n^2) pairwise loop over pre-sorted row indices."""
    items = sorted(range(len(rows)), key=lambda i: (-rows[i, 4], rows[i, 0], rows[i, 1]))
    kept = []
    for d in items:
        ok = True
        for k in kept:
            ax, ay, aw, ah = rows[d, :4]
            bx, by, bw, bh = rows[k, :4]
            ix = min(ax + aw, bx + bw) - max(ax, bx)
            iy = min(ay + ah, by + bh) - max(ay, by)
            inter = max(ix, 0.0) * max(iy, 0.0)
            ratio = inter / (aw * ah + bw * bh - inter)
            if ratio >= threshold:
                ok = False
                break
        if ok:
            kept.append(d)
    return kept


def random_rows(rng, n, span=100.0):
    rows = np.empty((n, 5))
    for i in range(n):
        x, y = rng.uniform(0, span, size=2)
        w, h = rng.uniform(8, 40, size=2)
        rows[i] = (x, y, w, h, rng.random())
    return rows


def row_keys(rows, kept=None):
    """The kept rows (every row when kept is None) as sorted tuples."""
    return sorted(map(tuple, (rows if kept is None else rows[kept]).tolist()))


def square_rows(side, scores):
    return np.array([(5.0, 5.0, side, side, s) for s in scores])


class TestIou:
    def test_identical_boxes(self):
        assert iou((1, 2, 10, 12), (1, 2, 10, 12)) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 5, 5), (10, 10, 5, 5)) == 0.0

    def test_half_offset_unit_squares(self):
        assert iou((0, 0, 1, 1), (0.5, 0, 1, 1)) == pytest.approx(1 / 3)

    def test_zero_area_boxes_overlap_nothing_not_even_themselves(self):
        assert iou((5, 5, 0, 0), (5, 5, 0, 0)) == 0.0
        assert iou((5, 5, 0, 0), (0, 0, 10, 10)) == 0.0

    @given(
        st.tuples(
            st.floats(0, 50), st.floats(0, 50), st.floats(1, 30), st.floats(1, 30)
        ),
        st.tuples(
            st.floats(0, 50), st.floats(0, 50), st.floats(1, 30), st.floats(1, 30)
        ),
    )
    def test_bounds_and_symmetry(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert v == pytest.approx(iou(b, a))


class TestNms:
    def test_single_detection_kept(self):
        assert nms(np.array([(0.0, 0.0, 10.0, 10.0, 0.5)])) == [0]

    def test_duplicate_boxes_keep_higher_score(self):
        rows = np.array([(0.0, 0.0, 10.0, 10.0, 0.8), (0.0, 0.0, 10.0, 10.0, 0.9)])
        assert nms(rows) == [1]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, 60)
        assert row_keys(rows, nms(rows)) == row_keys(rows, reference_nms(rows, 0.5))

    def test_idempotent(self, rng):
        rows = random_rows(rng, 80)
        once = rows[nms(rows)]
        assert row_keys(once, nms(once)) == row_keys(once)

    def test_takes_a_list_of_rows_and_an_empty_input(self, rng):
        rows = random_rows(rng, 20)
        assert nms([tuple(row) for row in rows.tolist()]) == nms(rows)
        assert nms([]) == nms(np.empty((0, 5))) == []


class TestNonTopK:
    def test_k1_equals_nms(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rows = random_rows(rng, 70)
            assert row_keys(rows, non_top_k(rows, 1)) == \
                row_keys(rows, reference_nms(rows, 0.5))

    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_area_seed_heads_its_own_cluster(self, k):
        """A zero-area box has IoU 0 with itself, yet it seeds a cluster and
        is kept, as greedy NMS keeps it."""
        rows = np.array([(5.0, 5.0, 0.0, 0.0, 0.9), (0.0, 0.0, 10.0, 10.0, 0.5)])
        kept = non_top_k(rows, k)
        assert kept == [0, 1] == nms(rows)
        assert row_keys(rows, kept) == row_keys(rows, reference_nms(rows, 0.5))

    def test_coincident_boxes_keep_top_three(self):
        rows = square_rows(20.0, (0.1, 0.9, 0.5, 0.3, 0.7))
        kept = non_top_k(rows, 3)
        assert sorted(rows[kept, 4]) == [0.5, 0.7, 0.9]

    def test_large_k_keeps_everything(self, rng):
        rows = random_rows(rng, 40)
        kept = non_top_k(rows, 40)
        assert row_keys(rows, kept) == row_keys(rows)

    def test_superset_of_nms(self, rng):
        for _ in range(10):
            rows = random_rows(rng, 50)
            kept_keys = set(row_keys(rows, non_top_k(rows)))
            assert set(row_keys(rows, nms(rows))) <= kept_keys

    def test_budget_bound(self, rng):
        for _ in range(10):
            rows = random_rows(rng, 50)
            assert len(non_top_k(rows, 3)) <= 3 * len(nms(rows))

    def test_idempotent(self, rng):
        for _ in range(10):
            rows = random_rows(rng, 60)
            once = rows[non_top_k(rows, 3)]
            assert row_keys(once, non_top_k(once, 3)) == row_keys(once)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_properties_hold_randomly(self, seed, k):
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, 30)
        kept = non_top_k(rows, k)
        nms_kept = nms(rows)
        assert set(row_keys(rows, nms_kept)) <= set(row_keys(rows, kept))
        assert len(kept) <= k * len(nms_kept)
        once = rows[kept]
        assert row_keys(once, non_top_k(once, k)) == row_keys(once)


class TestConfig:
    def test_defaults(self):
        assert (IOU_THRESHOLD, TOP_K) == (0.5, 3)
        rows = square_rows(20.0, (0.1, 0.9, 0.5, 0.3, 0.7))
        assert non_top_k(rows) == non_top_k(rows, TOP_K)
        assert len(non_top_k(rows)) == TOP_K

    def test_invalid_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be positive"):
                non_top_k(np.array([(0.0, 0.0, 10.0, 10.0, 0.5)]), k)


# --------------------------------------------------------------------------
# the row form against the record-list oracle


def assert_oracle_order(rows, k):
    """non_top_k (and for k = 1, nms) keeps the rows whose records the
    oracle keeps, in the oracle's order, and warns of nothing."""
    cands = [suppress_oracles.Candidate(tuple(r[:4]), r[4]) for r in rows.tolist()]
    index = {id(c): n for n, c in enumerate(cands)}
    want = [index[id(c)] for c in suppress_oracles.non_top_k(cands, k)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert non_top_k(rows, k) == want
        if k == 1:
            assert nms(rows) == want == [index[id(c)] for c in suppress_oracles.nms(cands)]
    return want


KS = st.integers(1, 4)
INF = float("inf")


def _rows(coordinate, side, score, max_size=12):
    rows = st.lists(st.tuples(coordinate, coordinate, side, side, score), max_size=max_size)
    return rows.map(lambda r: np.array(r, dtype=np.float64).reshape(-1, 5))


@settings(max_examples=100, deadline=None)
@given(_rows(st.floats(-20, 120), st.floats(0, 60), st.floats(0, 1), 30), KS)
def test_random_rows_keep_the_oracles_rows_in_its_order(rows, k):
    assert_oracle_order(rows, k)


@settings(max_examples=200, deadline=None)
@given(_rows(st.sampled_from([0.0, 2.0, 5.0]), st.sampled_from([4.0, 8.0, 10.0]),
             st.sampled_from([0.25, 0.5, 0.75])), KS)
def test_tied_scores_and_tied_x_keep_the_oracles_order(rows, k):
    """Few distinct values, so scores, x and whole rows tie: the order falls
    to x, then y, then the row index, as in the oracle."""
    assert_oracle_order(rows, k)


@settings(max_examples=200, deadline=None)
@given(_rows(st.sampled_from([0.0, 5.0]), st.sampled_from([0.0, 10.0]),
             st.sampled_from([0.5, 0.9])), KS)
def test_zero_area_and_coincident_boxes_keep_the_oracles_order(rows, k):
    assert_oracle_order(rows, k)


@settings(max_examples=200, deadline=None)
@given(_rows(st.sampled_from([-INF, 0.0, 3.0, INF]), st.sampled_from([0.0, 6.0, INF]),
             st.sampled_from([0.5, 0.9])), KS)
def test_infinite_boxes_keep_the_oracles_order_without_a_warning(rows, k):
    """Boxes at or of infinite extent, such as a box-head side that decodes
    to inf, give NaN overlaps in Python arithmetic, which never pass the
    threshold there or in the oracle."""
    assert_oracle_order(rows, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_empty_input_and_each_k_keep_the_oracles_order(rng, k):
    assert assert_oracle_order(np.empty((0, 5)), k) == []
    for _ in range(20):
        assert_oracle_order(random_rows(rng, 25, span=40.0), k)
    kept = assert_oracle_order(square_rows(20.0, (0.1, 0.9, 0.5, 0.3, 0.7)), k)
    assert kept == [1, 4, 2, 3][:k]
