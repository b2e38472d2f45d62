"""Tests for IoU and the two suppression schemes, including an independent
greedy reference implementation and randomized property checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdet.suppress import IOU_THRESHOLD, TOP_K, Detection, iou, nms, non_top_k


def reference_nms(detections, threshold):
    """Brute-force greedy reference, written without reusing the library's
    helpers: explicit O(n^2) pairwise loop over pre-sorted detections."""
    items = sorted(
        detections, key=lambda d: (-d.score, d.box[0], d.box[1])
    )
    kept = []
    for d in items:
        ok = True
        for k in kept:
            ax, ay, aw, ah = d.box
            bx, by, bw, bh = k.box
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


def random_detections(rng, n, span=100.0):
    dets = []
    for _ in range(n):
        x, y = rng.uniform(0, span, size=2)
        w, h = rng.uniform(8, 40, size=2)
        dets.append(Detection((x, y, w, h), float(rng.random())))
    return dets


def det_keys(dets):
    return sorted((d.box, d.score) for d in dets)


class TestIou:
    def test_identical_boxes(self):
        assert iou((1, 2, 10, 12), (1, 2, 10, 12)) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 5, 5), (10, 10, 5, 5)) == 0.0

    def test_half_offset_unit_squares(self):
        assert iou((0, 0, 1, 1), (0.5, 0, 1, 1)) == pytest.approx(1 / 3)

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
        d = Detection((0, 0, 10, 10), 0.5)
        assert nms([d]) == [d]

    def test_duplicate_boxes_keep_higher_score(self):
        a = Detection((0, 0, 10, 10), 0.9)
        b = Detection((0, 0, 10, 10), 0.8)
        kept = nms([b, a])
        assert kept == [a]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, 60)
        assert det_keys(nms(dets)) == det_keys(reference_nms(dets, 0.5))

    def test_idempotent(self, rng):
        dets = random_detections(rng, 80)
        once = nms(dets)
        assert det_keys(nms(once)) == det_keys(once)


class TestNonTopK:
    def test_k1_equals_nms(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            dets = random_detections(rng, 70)
            assert det_keys(non_top_k(dets, 1)) == det_keys(reference_nms(dets, 0.5))

    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_area_seed_heads_its_own_cluster(self, k):
        """A zero-area box has IoU 0 with itself, yet it seeds a cluster and
        is kept, as greedy NMS keeps it."""
        dets = [Detection((5, 5, 0, 0), 0.9), Detection((0, 0, 10, 10), 0.5)]
        kept = non_top_k(dets, k)
        assert kept == dets == nms(dets)
        assert det_keys(kept) == det_keys(reference_nms(dets, 0.5))

    def test_coincident_boxes_keep_top_three(self):
        dets = [Detection((5, 5, 20, 20), s) for s in (0.1, 0.9, 0.5, 0.3, 0.7)]
        kept = non_top_k(dets, 3)
        assert sorted(d.score for d in kept) == [0.5, 0.7, 0.9]

    def test_large_k_keeps_everything(self, rng):
        dets = random_detections(rng, 40)
        kept = non_top_k(dets, 40)
        assert det_keys(kept) == det_keys(dets)

    def test_superset_of_nms(self, rng):
        for _ in range(10):
            dets = random_detections(rng, 50)
            kept_keys = set(det_keys(non_top_k(dets)))
            assert set(det_keys(nms(dets))) <= kept_keys

    def test_budget_bound(self, rng):
        for _ in range(10):
            dets = random_detections(rng, 50)
            assert len(non_top_k(dets, 3)) <= 3 * len(nms(dets))

    def test_idempotent(self, rng):
        for _ in range(10):
            dets = random_detections(rng, 60)
            once = non_top_k(dets, 3)
            assert det_keys(non_top_k(once, 3)) == det_keys(once)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_properties_hold_randomly(self, seed, k):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, 30)
        kept = non_top_k(dets, k)
        nms_kept = nms(dets)
        assert set(det_keys(nms_kept)) <= set(det_keys(kept))
        assert len(kept) <= k * len(nms_kept)
        assert det_keys(non_top_k(kept, k)) == det_keys(kept)


class TestConfig:
    def test_defaults(self):
        assert (IOU_THRESHOLD, TOP_K) == (0.5, 3)
        dets = [Detection((5, 5, 20, 20), s) for s in (0.1, 0.9, 0.5, 0.3, 0.7)]
        assert non_top_k(dets) == non_top_k(dets, TOP_K)
        assert len(non_top_k(dets)) == TOP_K

    def test_invalid_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be positive"):
                non_top_k([Detection((0, 0, 10, 10), 0.5)], k)
