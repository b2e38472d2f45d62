"""Tests for the alignment layer: closed-form similarity fit, bilinear
warping, and analytic gradients, checked against a zooming grid-search
least-squares oracle and central finite differences.

Bilinear interpolation is non-differentiable exactly on the integer lattice,
so every gradient-check case is screened to keep sample points well away from
integers (and from the image border) before finite differences run.
"""

import tracemalloc

import numpy as np
import pytest

import warp_oracles
from conftest import rel_err
from warp_oracles import inverse_map
from warpdet.align import (
    CanonicalShape,
    SimilarityTransform,
    SingularTransformError,
    TransformGradients,
    estimate_similarity,
    fit_similarity,
    landmark_and_canonical_gradients,
    similarity_from_pose,
    warp,
    warp_backward,
)

FD_STEP = 1e-5
LATTICE_MARGIN = 1e-3  # >= 2x the coordinate shift any FD step can cause here


def grid_search_ls(src, dst, span=8.0, rounds=5, points=81):
    """Zooming dense grid search for the (a, b) minimizing the squared
    residual of the similarity model, centroids fixed at the point means.
    Independent of the closed-form solution."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    X = src[:, 0] - src[:, 0].mean()
    Y = src[:, 1] - src[:, 1].mean()
    Xr = dst[:, 0] - dst[:, 0].mean()
    Yr = dst[:, 1] - dst[:, 1].mean()
    ca, cb = 0.0, 0.0
    for _ in range(rounds):
        aa = np.linspace(ca - span / 2, ca + span / 2, points)
        bb = np.linspace(cb - span / 2, cb + span / 2, points)
        ag, bg = np.meshgrid(aa, bb, indexing="ij")
        rx = ag[..., None] * X + bg[..., None] * Y - Xr
        ry = -bg[..., None] * X + ag[..., None] * Y - Yr
        cost = (rx**2 + ry**2).sum(axis=-1)
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        ca, cb = aa[i], bb[j]
        span = 4.0 * (aa[1] - aa[0])
    return ca, cb


def forward_map(t: SimilarityTransform, points) -> np.ndarray:
    """Source-image points -> rectified-image points: the map that
    inverse_map undoes, written out from the transform's definition."""
    pts = np.asarray(points, dtype=np.float64)
    x = pts[..., 0] - t.m_x
    y = pts[..., 1] - t.m_y
    return np.stack(
        [t.a * x + t.b * y + t.m_xr, -t.b * x + t.a * y + t.m_yr], axis=-1
    )


def rotate_about(points, angle, center):
    pts = np.asarray(points, dtype=np.float64) - center
    c, s = np.cos(angle), np.sin(angle)
    rot = pts @ np.array([[c, s], [-s, c]])  # row-vector form of R(angle)
    return rot + center


def smooth_image(rng, height, width, channels=1, waves=4):
    """Low-frequency random image: a sum of a few 2-D cosines."""
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    img = np.zeros((channels, height, width))
    for c in range(channels):
        for _ in range(waves):
            fx, fy = rng.uniform(0.03, 0.12, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.uniform(0.3, 1.0)
            img[c] += amp * np.cos(2 * np.pi * (fx * xs + fy * ys) + phase)
    return img


def sample_points_safe(t, out_size, source_shape):
    """True when every rectified grid point maps to a source location that is
    interior (with margin) and clear of the integer lattice."""
    out_h, out_w = out_size
    ys, xs = np.mgrid[0:out_h, 0:out_w].astype(np.float64)
    pts = inverse_map(t, np.stack([xs, ys], axis=-1))
    x, y = pts[..., 0], pts[..., 1]
    h, w = source_shape[-2], source_shape[-1]
    if x.min() < 1.2 or x.max() > w - 2.2 or y.min() < 1.2 or y.max() > h - 2.2:
        return False
    dist_x = np.abs(x - np.round(x)).min()
    dist_y = np.abs(y - np.round(y)).min()
    return min(dist_x, dist_y) > LATTICE_MARGIN


def draw_safe_case(rng, source_shape=(1, 40, 40), out_size=(20, 20)):
    """Random transform + smooth source + random upstream, screened for
    finite-difference safety."""
    src = smooth_image(rng, source_shape[1], source_shape[2], source_shape[0])
    for _ in range(200):
        scale = rng.uniform(0.7, 1.1)
        angle = rng.uniform(-0.6, 0.6)
        cx = source_shape[2] / 2 + rng.uniform(-2, 2)
        cy = source_shape[1] / 2 + rng.uniform(-2, 2)
        t = similarity_from_pose(
            scale, angle, (cx, cy), ((out_size[1] - 1) / 2, (out_size[0] - 1) / 2)
        )
        if sample_points_safe(t, out_size, source_shape):
            upstream = rng.standard_normal((source_shape[0],) + out_size)
            return src, t, upstream
    raise AssertionError("could not draw a lattice-safe case")


def warp_loss(source, t, upstream):
    return float(np.sum(warp(source, t, upstream.shape[1:]) * upstream))


def fd_transform_param(source, t, upstream, name, step=FD_STEP):
    def with_param(value):
        kw = dict(a=t.a, b=t.b, m_x=t.m_x, m_y=t.m_y, m_xr=t.m_xr, m_yr=t.m_yr)
        kw[name] = value
        return SimilarityTransform(**kw)

    base = getattr(t, name)
    hi = warp_loss(source, with_param(base + step), upstream)
    lo = warp_loss(source, with_param(base - step), upstream)
    return (hi - lo) / (2 * step)


class TestEstimateSimilarity:
    def test_identity(self):
        pts = np.array([[1.0, 2.0], [4.0, 6.0], [3.0, -1.0]])
        t = estimate_similarity(pts, pts)
        assert t.a == pytest.approx(1.0)
        assert t.b == pytest.approx(0.0, abs=1e-15)

    def test_half_scale_landmarks_give_a_two(self, rng):
        canon = rng.uniform(10, 50, size=(5, 2))
        center = canon.mean(axis=0)
        lms = center + 0.5 * (canon - center)
        t = estimate_similarity(lms, canon)
        assert t.a == pytest.approx(2.0, abs=1e-9)
        assert t.b == pytest.approx(0.0, abs=1e-9)
        ga, gb = grid_search_ls(lms, canon)
        assert abs(ga - t.a) < 1e-6 and abs(gb - t.b) < 1e-6

    def test_quarter_turn_gives_pure_b(self, rng):
        canon = rng.uniform(10, 50, size=(5, 2))
        center = canon.mean(axis=0)
        lms = rotate_about(canon, np.pi / 2, center)
        t = estimate_similarity(lms, canon)
        assert t.a == pytest.approx(0.0, abs=1e-9)
        assert abs(t.b) == pytest.approx(1.0, abs=1e-9)
        # sign convention pinned by the fit itself and the grid oracle
        ga, gb = grid_search_ls(lms, canon)
        assert abs(ga - t.a) < 1e-6 and abs(gb - t.b) < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_config_matches_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        lms = rng.uniform(0, 60, size=(5, 2))
        canon = rng.uniform(0, 60, size=(5, 2))
        t = estimate_similarity(lms, canon)
        ga, gb = grid_search_ls(lms, canon)
        assert abs(ga - t.a) < 1e-6
        assert abs(gb - t.b) < 1e-6

    def test_coincident_landmarks_rejected(self):
        lms = np.full((5, 2), 17.0)
        canon = np.arange(10, dtype=np.float64).reshape(5, 2)
        with pytest.raises(SingularTransformError):
            estimate_similarity(lms, canon)

    def test_coincident_canonical_points_rejected(self):
        """A layout with no spread would give a = b = 0, and every inverse
        map would divide by zero."""
        lms = np.arange(10, dtype=np.float64).reshape(5, 2)
        canon = np.full((5, 2), 31.5)
        with pytest.raises(SingularTransformError, match="canonical"):
            estimate_similarity(lms, canon)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_landmarks_rejected(self, bad):
        lms = np.arange(10, dtype=np.float64).reshape(5, 2)
        lms[2, 1] = bad
        canon = lms[::-1].copy()
        canon[2, 1] = 3.0
        with pytest.raises(SingularTransformError, match="non-finite landmarks"):
            estimate_similarity(lms, canon)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_canonical_points_rejected(self, bad):
        lms = np.arange(10, dtype=np.float64).reshape(5, 2)
        canon = lms + 1.0
        canon[0, 0] = bad
        with pytest.raises(SingularTransformError, match="non-finite canonical"):
            estimate_similarity(lms, canon)

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError):
            estimate_similarity(np.zeros((3, 2)), np.zeros((4, 2)))


def _spoiled(rng, points):
    """A copy of (N, 2) points made coincident, one of them nudged 1e-9 off
    a far point, or one coordinate made NaN or infinite, by turns."""
    points = points.copy()
    kind = rng.integers(4)
    if kind == 0:
        points[:] = points[0]
    elif kind == 1:
        points[:] = [1e3, -2e3]
        points[rng.integers(len(points))] += 1e-9
    else:
        points[rng.integers(len(points)), rng.integers(2)] = rng.choice(
            [np.nan, np.inf, -np.inf])
    return points


def _raised_by(f, *args):
    """f's result, or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return type(err), str(err)


def _assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestFitMatchesScalarOracle:
    """align's fit against warp_oracles' scalar np.dot form, byte for byte,
    raising and flagging where the oracle raises, with its messages."""

    def test_single_sets(self):
        rng = np.random.default_rng(31)
        for case in range(1500):
            n = int(rng.integers(2, 11))
            spread = 10.0 ** rng.uniform(-6, 3)
            lms = rng.standard_normal((n, 2)) * spread + rng.uniform(-200, 200, 2)
            canon = rng.uniform(0, 60, size=(n, 2))
            if case % 4 == 1:
                lms = _spoiled(rng, lms)
            elif case % 4 == 2:
                canon = _spoiled(rng, canon)
            got = _raised_by(estimate_similarity, lms, canon)
            want = _raised_by(warp_oracles.estimate_similarity, lms, canon)
            if isinstance(want, tuple):
                assert got == want
                continue
            fields = ("a", "b", "m_x", "m_y", "m_xr", "m_yr")
            assert [type(getattr(got, k)) for k in fields] == [type(getattr(want, k)) for k in fields]
            _assert_same_bytes([getattr(got, k) for k in fields], [getattr(want, k) for k in fields])
            upstream = rng.standard_normal(6)
            got = landmark_and_canonical_gradients(TransformGradients(*upstream), lms, canon)
            want = warp_oracles.landmark_and_canonical_gradients(
                TransformGradients(*upstream), lms, canon)
            _assert_same_bytes([got.d_landmarks, got.d_canonical],
                               [want.d_landmarks, want.d_canonical])

    @pytest.mark.parametrize("count", [0, 1, 3000])
    def test_stacks(self, count):
        """Every set of a stack fits to the oracle's bytes, and is flagged
        exactly where the oracle raises on it."""
        rng = np.random.default_rng(37 + count)
        canon = rng.uniform(0, 60, size=(5, 2))
        lms = (rng.uniform(-20, 180, size=(count, 1, 2))
               + 10.0 ** rng.uniform(-3, 2, size=(count, 1, 1))
               * rng.standard_normal((count, 5, 2)))
        spoiled = range(1, count, 7)
        for i in spoiled:
            lms[i] = _spoiled(rng, lms[i])
        m, m_r, rows, rows_r, c1, c2, c3, ok = fit_similarity(lms, canon)
        assert ok.shape == c1.shape == (count,) and rows.shape == (count, 2, 5)
        for i, row in enumerate(lms):
            try:
                m_x, m_y, m_xr, m_yr, X, Y, Xr, Yr, *c = warp_oracles.fit_terms(row, canon)
            except SingularTransformError as err:
                assert not ok[i] and "landmarks" in str(err)
                continue
            assert ok[i]
            _assert_same_bytes([m[i], m_r, rows[i], rows_r, c1[i], c2[i], c3[i]],
                               [[m_x, m_y], [m_xr, m_yr], [X, Y], [Xr, Yr], *c])
        assert ok.sum() == count - len(spoiled)

    @pytest.mark.parametrize("bad, message", [
        (31.5, "coincident canonical points"),
        (np.nan, "non-finite canonical points"),
        (np.inf, "non-finite canonical points"),
    ])
    def test_a_singular_layout_raises_for_a_stack_as_for_one_set(self, bad, message):
        lms = np.arange(30, dtype=np.float64).reshape(3, 5, 2)
        canon = np.full((5, 2), 31.5)
        canon[2, 1] = bad
        want = _raised_by(warp_oracles.estimate_similarity, lms[0], canon)
        assert message in want[1]
        assert _raised_by(fit_similarity, lms, canon) == want
        assert _raised_by(estimate_similarity, lms[0], canon) == want

    def test_one_set_must_not_be_a_stack(self):
        with pytest.raises(ValueError, match="expected"):
            estimate_similarity(np.zeros((1, 5, 2)), np.zeros((5, 2)))


def test_vecdot_of_contiguous_rows_equals_np_dot():
    """The fit's sums are np.vecdot over contiguous rows, which the oracle's
    np.dot must match byte for byte: a numpy or BLAS that sums the two
    differently would move every fit, and fails here first."""
    rng = np.random.default_rng(41)
    for length in range(2, 11):
        x, y = (rng.choice([-1.0, 1.0], size=(2, 500, length))
                * 10.0 ** rng.uniform(-9, 6, size=(2, 500, length)))
        got = np.vecdot(x, y)
        want = [np.dot(a, b) for a, b in zip(x, y)]
        assert got.tobytes() == np.array(want).tobytes()


class TestInverseMap:
    def test_identity_transform(self):
        t = SimilarityTransform(1.0, 0.0, 5.0, 7.0, 5.0, 7.0)
        pts = np.array([[3.3, 9.1], [5.0, 7.0]])
        np.testing.assert_allclose(inverse_map(t, pts), pts, atol=1e-12)

    def test_rectified_centroid_is_fixed_point(self, rng):
        for _ in range(10):
            a, b = rng.uniform(-2, 2, size=2)
            if a * a + b * b < 1e-3:
                continue
            t = SimilarityTransform(a, b, 11.0, 4.0, 30.0, 31.0)
            out = inverse_map(t, np.array([30.0, 31.0]))
            np.testing.assert_allclose(out, [11.0, 4.0], atol=1e-12)

    def test_a_two_halves_offsets(self):
        t = SimilarityTransform(2.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        out = inverse_map(t, np.array([10.0, -6.0]))
        np.testing.assert_allclose(out, [5.0, -3.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(-3, 3, size=2)
        if a * a + b * b < 1e-2:
            a = 1.0
        t = SimilarityTransform(a, b, *rng.uniform(-20, 20, size=4))
        pts = rng.uniform(-50, 50, size=(20, 2))
        np.testing.assert_allclose(
            forward_map(t, inverse_map(t, pts)), pts, atol=1e-9
        )
        np.testing.assert_allclose(
            inverse_map(t, forward_map(t, pts)), pts, atol=1e-9
        )

    def test_pose_equivalence_on_grid(self):
        # a = cos(theta)/s, b = sin(theta)/s reproduces scale-s rotation-theta
        src_c = np.array([12.0, 8.0])
        dst_c = np.array([31.5, 31.5])
        pts = np.array([[0.0, 0.0], [10.0, 5.0], [63.0, 20.0], [31.5, 31.5]])
        for theta in np.deg2rad([0, 30, -30, 90, -90, 120]):
            for s in (0.5, 1.0, 2.0):
                t = similarity_from_pose(s, theta, src_c, dst_c)
                rot = np.array(
                    [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
                )
                expected = (pts - dst_c) @ (s * rot).T + src_c
                np.testing.assert_allclose(inverse_map(t, pts), expected, atol=1e-9)
                # source pixels per rectified pixel
                assert 1.0 / np.sqrt(t.norm_sq) == pytest.approx(s)

    def test_scale_rotation_elimination(self, rng):
        canon = np.array(
            [[22.0, 24.0], [42.0, 24.0], [32.0, 34.0], [25.0, 45.0], [39.0, 45.0]]
        )
        for _ in range(10):
            angle = rng.uniform(-np.pi / 4, np.pi / 4)
            scale = rng.uniform(0.6, 1.8)
            shift = rng.uniform(-15, 15, size=2)
            center = canon.mean(axis=0)
            lms = rotate_about(canon, angle, center) * scale + shift
            t = estimate_similarity(lms, canon)
            mapped = forward_map(t, lms)
            assert np.max(np.abs(mapped - canon)) < 1e-6
            back = inverse_map(t, canon)
            assert np.max(np.abs(back - lms)) < 1e-6


class TestWarp:
    def test_identity_reproduces_source(self, rng):
        src = rng.standard_normal((2, 12, 12))
        t = SimilarityTransform(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        out = warp(src, t, (12, 12))
        np.testing.assert_allclose(out, src, atol=1e-12)

    def test_constant_image_in_bounds(self):
        src = np.full((1, 30, 30), 3.25)
        t = similarity_from_pose(0.9, 0.3, (14.7, 14.3), (7.5, 7.5))
        out = warp(src, t, (16, 16))
        ys, xs = np.mgrid[0:16, 0:16].astype(np.float64)
        pts = inverse_map(t, np.stack([xs, ys], axis=-1))
        inside = (
            (pts[..., 0] >= 0)
            & (pts[..., 0] <= 28.0)
            & (pts[..., 1] >= 0)
            & (pts[..., 1] <= 28.0)
        )
        np.testing.assert_allclose(out[0][inside], 3.25, atol=1e-12)

    def test_translated_ramp_is_exact(self):
        xs = np.arange(24, dtype=np.float64)
        src = np.tile(xs, (24, 1))[None, :, :]  # I(x, y) = x
        dx = 3.4
        t = SimilarityTransform(1.0, 0.0, dx, 0.0, 0.0, 0.0)  # x = xr + dx
        out = warp(src, t, (16, 16))
        expected = np.tile(np.arange(16, dtype=np.float64) + dx, (16, 1))
        np.testing.assert_allclose(out[0], expected, atol=1e-9)

    def test_affine_image_reproduced_exactly(self, rng):
        alpha, beta, gamma = 0.7, -0.4, 2.0
        ys, xs = np.mgrid[0:40, 0:40].astype(np.float64)
        src = (alpha * xs + beta * ys + gamma)[None]
        src_img, t, _ = draw_safe_case(rng)
        del src_img
        out = warp(src, t, (20, 20))
        gy, gx = np.mgrid[0:20, 0:20].astype(np.float64)
        pts = inverse_map(t, np.stack([gx, gy], axis=-1))
        expected = alpha * pts[..., 0] + beta * pts[..., 1] + gamma
        np.testing.assert_allclose(out[0], expected, atol=1e-9)

    def test_bad_out_size_rejected(self, rng):
        src = rng.standard_normal((1, 8, 8))
        with pytest.raises(ValueError):
            warp(src, SimilarityTransform(1, 0, 0, 0, 0, 0), (0, 8))


class TestWarpBackward:
    def test_zero_upstream_gives_zero(self, rng):
        src, t, upstream = draw_safe_case(rng)
        g = warp_backward(np.zeros_like(upstream), src, t)
        assert g.d_a == 0.0 and g.d_b == 0.0
        assert g.d_m_x == 0.0 and g.d_m_y == 0.0
        assert g.d_m_xr == 0.0 and g.d_m_yr == 0.0

    def test_constant_source_kills_ab_gradients(self, rng):
        _, t, upstream = draw_safe_case(rng)
        src = np.full((1, 40, 40), 1.75)
        g = warp_backward(upstream, src, t)
        assert g.d_a == pytest.approx(0.0, abs=1e-12)
        assert g.d_b == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transform_params_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        src, t, upstream = draw_safe_case(rng)
        g = warp_backward(upstream, src, t)
        for name, analytic in [
            ("a", g.d_a),
            ("b", g.d_b),
            ("m_x", g.d_m_x),
            ("m_y", g.d_m_y),
            ("m_xr", g.d_m_xr),
            ("m_yr", g.d_m_yr),
        ]:
            numeric = fd_transform_param(src, t, upstream, name)
            assert rel_err(analytic, numeric) < 1e-4, name


class TestChainGradients:
    def _full_chain_case(self, rng, n=5):
        """Landmarks + canonical + smooth source with a lattice-safe fit."""
        src = smooth_image(rng, 48, 48)
        out_size = (20, 20)
        for _ in range(300):
            canon = np.array([[7.0, 6.0], [13.0, 6.0], [10.0, 10.0], [8.0, 14.0], [12.0, 14.0]])
            canon = canon[:n] + rng.uniform(-0.7, 0.7, size=(n, 2))
            angle = rng.uniform(-0.5, 0.5)
            scale = rng.uniform(0.9, 1.4)
            shift = np.array([24.0, 24.0]) + rng.uniform(-1.5, 1.5, size=2)
            center = canon.mean(axis=0)
            lms = rotate_about(canon, angle, center)
            lms = (lms - center) * scale + shift
            t = estimate_similarity(lms, canon)
            if sample_points_safe(t, out_size, src.shape):
                upstream = rng.standard_normal((1,) + out_size)
                return src, lms, canon, upstream
        raise AssertionError("could not draw a lattice-safe chain case")

    @staticmethod
    def _chain_loss(src, lms, canon, upstream):
        t = estimate_similarity(lms, canon)
        return float(np.sum(warp(src, t, upstream.shape[1:]) * upstream))

    def test_zero_partials_give_zero_point_gradients(self, rng):
        src, lms, canon, upstream = self._full_chain_case(rng)
        t = estimate_similarity(lms, canon)
        g = warp_backward(np.zeros_like(upstream), src, t)
        g = landmark_and_canonical_gradients(g, lms, canon)
        assert not g.d_landmarks.any()
        assert not g.d_canonical.any()

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_full_chain_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        src, lms, canon, upstream = self._full_chain_case(rng)
        t = estimate_similarity(lms, canon)
        g = warp_backward(upstream, src, t)
        g = landmark_and_canonical_gradients(g, lms, canon)
        for arr, analytic in ((lms, g.d_landmarks), (canon, g.d_canonical)):
            numeric = np.zeros_like(arr)
            for i in range(arr.shape[0]):
                for j in range(2):
                    orig = arr[i, j]
                    arr[i, j] = orig + FD_STEP
                    hi = self._chain_loss(src, lms, canon, upstream)
                    arr[i, j] = orig - FD_STEP
                    lo = self._chain_loss(src, lms, canon, upstream)
                    arr[i, j] = orig
                    numeric[i, j] = (hi - lo) / (2 * FD_STEP)
            assert rel_err(analytic, numeric) < 1e-4

    def test_two_point_symmetric_configuration(self):
        # source even-symmetric in x about the half-integer column 19.5, so
        # mirrored sample pairs never land on the integer lattice
        ys, xs = np.mgrid[0:41, 0:41].astype(np.float64)
        src = (np.cos(0.37 * (xs - 19.5) ** 2 / 41.0) + 0.4 * np.cos(0.23 * ys))[None]
        lms = np.array([[19.5 - 6.3, 18.2], [19.5 + 6.3, 18.2]])
        canon = np.array([[10.0 - 4.1, 10.3], [10.0 + 4.1, 10.3]])
        out_size = (21, 21)
        t = estimate_similarity(lms, canon)
        assert sample_points_safe(t, out_size, src.shape)
        # upstream even-symmetric about the rectified centroid column
        gy, gx = np.mgrid[0:21, 0:21].astype(np.float64)
        upstream = (np.cos(0.5 * (gx - 10.0)) * np.cos(0.3 * gy))[None]
        g = warp_backward(upstream, src, t)
        g = landmark_and_canonical_gradients(g, lms, canon)
        np.testing.assert_allclose(
            g.d_landmarks[0, 0], -g.d_landmarks[1, 0], atol=1e-10
        )
        np.testing.assert_allclose(
            g.d_landmarks[0, 1], g.d_landmarks[1, 1], atol=1e-10
        )
        np.testing.assert_allclose(
            g.d_canonical[0, 0], -g.d_canonical[1, 0], atol=1e-10
        )
        np.testing.assert_allclose(
            g.d_canonical[0, 1], g.d_canonical[1, 1], atol=1e-10
        )
        # and the analytic values agree with finite differences
        numeric = np.zeros_like(lms)
        for i in range(2):
            for j in range(2):
                orig = lms[i, j]
                lms[i, j] = orig + FD_STEP
                hi = self._chain_loss(src, lms, canon, upstream)
                lms[i, j] = orig - FD_STEP
                lo = self._chain_loss(src, lms, canon, upstream)
                lms[i, j] = orig
                numeric[i, j] = (hi - lo) / (2 * FD_STEP)
        assert rel_err(g.d_landmarks, numeric) < 1e-4

    def test_singular_configuration_rejected(self):
        g_dummy = warp_backward(
            np.zeros((1, 4, 4)),
            np.zeros((1, 8, 8)),
            SimilarityTransform(1, 0, 0, 0, 0, 0),
        )
        with pytest.raises(SingularTransformError):
            landmark_and_canonical_gradients(
                g_dummy, np.full((3, 2), 5.0), np.zeros((3, 2))
            )


GRADIENT_SCALARS = ("d_a", "d_b", "d_m_x", "d_m_y", "d_m_xr", "d_m_yr")
PLACEMENTS = ("inside", "partly_outside", "wholly_outside", "two_channel_negative")


def _oracle_case(rng, placement):
    """Seeded source, transform, output size and upstream for one placement
    of the crop relative to a 30 x 34 source."""
    channels = 2 if placement == "two_channel_negative" else 1
    src = smooth_image(rng, 30, 34, channels)
    if placement == "two_channel_negative":
        src = src - 3.0
    out_size = tuple(int(n) for n in rng.integers(6, 25, size=2))
    centre = {
        "inside": (17.0, 15.0),
        # on the left or right edge: the crop reaches >= 2 px past it
        "partly_outside": (rng.choice([0.0, 33.0]), rng.uniform(0.0, 29.0)),
        "wholly_outside": (rng.choice([-90.0, 120.0]), rng.uniform(-40.0, 70.0)),
        "two_channel_negative": tuple(rng.uniform(0.0, 34.0, size=2)),
    }[placement]
    scale = rng.uniform(0.3, 0.6) if placement == "inside" else rng.uniform(0.8, 2.5)
    t = similarity_from_pose(
        scale, rng.uniform(-np.pi, np.pi), centre,
        ((out_size[1] - 1) / 2.0, (out_size[0] - 1) / 2.0),
    )
    upstream = rng.standard_normal((channels,) + out_size)
    return src, t, out_size, upstream


class TestMatchesScatterOracle:
    """warp and warp_backward against the per-tap fancy-index forms, byte
    for byte, so that even a flipped zero sign fails."""

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_bytes_equal_over_seeded_transforms(self, placement):
        for seed in range(60):
            rng = np.random.default_rng([seed, PLACEMENTS.index(placement)])
            src, t, out_size, upstream = _oracle_case(rng, placement)
            crop = warp(src, t, out_size)
            want = warp_oracles.warp(src, t, out_size)
            assert crop.shape == want.shape and crop.tobytes() == want.tobytes()
            if placement == "wholly_outside":
                assert not crop.any()
            g = warp_backward(upstream, src, t)
            ref = warp_oracles.warp_backward(upstream, src, t)
            for name in GRADIENT_SCALARS:
                got = getattr(g, name)
                assert isinstance(got, float), name
                assert np.float64(got).tobytes() == np.float64(getattr(ref, name)).tobytes(), name
            assert g.d_landmarks is None and g.d_canonical is None

    def test_partly_outside_cases_mix_valid_and_clipped_taps(self):
        """The partly-outside placement really straddles the border."""
        for seed in range(60):
            rng = np.random.default_rng([seed, PLACEMENTS.index("partly_outside")])
            src, t, out_size, _ = _oracle_case(rng, "partly_outside")
            ones = warp(np.ones_like(src), t, out_size)
            assert ones.max() > 0.5 and ones.min() == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.int64])
def test_a_source_of_another_dtype_gives_the_oracle_float64_crop(dtype):
    """The crop is float64 whatever the source's dtype, and equals the
    oracle's, which promotes each tap as it weights it."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        src = (30.0 * (smooth_image(rng, 30, 34, 2) + 4.0)).astype(dtype)  # in [0, 240]
        t = similarity_from_pose(rng.uniform(0.5, 2.0), rng.uniform(-np.pi, np.pi),
                                 rng.uniform(0.0, 34.0, size=2), (7.5, 6.5))
        crop = warp(src, t, (14, 16))
        want = warp_oracles.warp(src, t, (14, 16))
        assert crop.dtype == np.float64
        assert crop.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32])
def test_a_source_of_another_dtype_gives_the_gradients_of_its_float64_copy(dtype):
    """warp_backward reads the taps as float64, as warp does, so a uint8
    source's tap differences do not wrap: its gradients are the bytes of
    its float64 copy's, and the oracle's."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        src = (30.0 * (smooth_image(rng, 30, 34, 2) + 4.0)).astype(dtype)  # in [0, 240]
        t = similarity_from_pose(rng.uniform(0.5, 2.0), rng.uniform(-np.pi, np.pi),
                                 rng.uniform(0.0, 34.0, size=2), (7.5, 6.5))
        upstream = rng.standard_normal((2, 14, 16))
        got = warp_backward(upstream, src, t)
        want = warp_backward(upstream, src.astype(np.float64), t)
        ref = warp_oracles.warp_backward(upstream, src, t)
        for name in GRADIENT_SCALARS:
            value = np.float64(getattr(got, name)).tobytes()
            assert value == np.float64(getattr(want, name)).tobytes(), name
            assert value == np.float64(getattr(ref, name)).tobytes(), name


def _assert_bytes_equal_oracles(src, t, out_size, upstream):
    crop = warp(src, t, out_size)
    want = warp_oracles.warp(src, t, out_size)
    assert crop.shape == want.shape and crop.tobytes() == want.tobytes()
    g = warp_backward(upstream, src, t)
    ref = warp_oracles.warp_backward(upstream, src, t)
    for name in GRADIENT_SCALARS:
        got, exp = np.float64(getattr(g, name)), np.float64(getattr(ref, name))
        assert got.tobytes() == exp.tobytes(), name
    return crop


# Crop centres around a 30 x 34 source (x, y): far past each side, then on
# each edge and each corner.
OUTSIDE = {"left": (-60.0, 15.0), "right": (100.0, 15.0),
           "above": (17.0, -60.0), "below": (17.0, 95.0)}
STRADDLING = {"left": (0.0, 15.0), "right": (33.0, 15.0), "top": (17.0, 0.0),
              "bottom": (17.0, 29.0), "top_left": (0.0, 0.0),
              "top_right": (33.0, 0.0), "bottom_left": (0.0, 29.0),
              "bottom_right": (33.0, 29.0)}


class TestWindowedGather:
    """The taps are read from a zero-bordered window over the crop's
    footprint, clipped to the image plus a 2-px border. Wherever the
    footprint lies, warp and warp_backward equal the masked oracles byte
    for byte."""

    @staticmethod
    def _case(seed, centre, scale, channels=1):
        rng = np.random.default_rng(seed)
        src = smooth_image(rng, 30, 34, channels)
        out_size = (12, 14)
        t = similarity_from_pose(scale, rng.uniform(-np.pi, np.pi), centre,
                                 ((out_size[1] - 1) / 2.0, (out_size[0] - 1) / 2.0))
        return src, t, out_size, rng.standard_normal((channels,) + out_size)

    @pytest.mark.parametrize("side", sorted(OUTSIDE))
    def test_footprint_wholly_outside_gives_zero_crop(self, side):
        for seed in range(10):
            case = self._case(seed, OUTSIDE[side], 1.5, channels=1 + seed % 2)
            crop = _assert_bytes_equal_oracles(*case)
            assert not crop.any()

    def test_footprint_just_past_an_edge_reads_only_border_zeros(self):
        """Translations whose taps end one column left of the image, and
        one row below it: clipped or not, every tap is a zero."""
        src = smooth_image(np.random.default_rng(0), 30, 34)
        upstream = np.random.default_rng(1).standard_normal((1, 6, 7))
        for t in (SimilarityTransform(1.0, 0.0, -7.75, 10.0, 0.0, 0.0),
                  SimilarityTransform(1.0, 0.0, 5.0, 30.25, 0.0, 0.0)):
            crop = _assert_bytes_equal_oracles(src, t, (6, 7), upstream)
            assert not crop.any()

    @pytest.mark.parametrize("where", sorted(STRADDLING))
    def test_footprint_straddling_an_edge_or_corner(self, where):
        for seed in range(10):
            case = self._case(seed, STRADDLING[where], 1.3, channels=1 + seed % 2)
            _assert_bytes_equal_oracles(*case)
            ones = warp(np.ones_like(case[0]), case[1], case[2])
            assert ones.max() > 0.5 and ones.min() == 0.0

    def test_huge_footprint(self):
        """a = 1e-3: 1,000 source pixels per rectified pixel, so nearly every
        tap lies far outside and gets clipped."""
        rng = np.random.default_rng(3)
        src = smooth_image(rng, 30, 34)
        for m_x, m_y in ((17.0, 15.0), (0.4, 29.6), (-3.0, 40.0)):
            t = SimilarityTransform(1e-3, 0.0, m_x, m_y, 31.5, 31.5)
            upstream = rng.standard_normal((1, 64, 64))
            crop = _assert_bytes_equal_oracles(src, t, (64, 64), upstream)
            assert np.count_nonzero(crop) <= 4

    @staticmethod
    def _peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Arrays of the output's size that one call may hold at once: both
    # calls peak at about 17 on a 16 x 16 crop (sample grids, tap values,
    # weights or derivatives, and numpy's small-array overhead).
    OUTPUT_ARRAYS = 24

    @pytest.mark.parametrize("a", [1e-3, 1.0])
    def test_peak_allocation_is_the_window_plus_output_sized_arrays(self, a):
        h, w, out = 300, 280, (16, 16)
        src = smooth_image(np.random.default_rng(4), h, w)
        t = SimilarityTransform(a, 0.3 * a, 140.0, 150.0, 7.5, 7.5)
        upstream = np.ones((1,) + out)
        warp(src, t, out)  # warm up numpy's caches outside the trace
        bound = (h + 4) * (w + 4) * 8 + self.OUTPUT_ARRAYS * out[0] * out[1] * 8
        assert self._peak_bytes(lambda: warp(src, t, out)) <= bound
        assert self._peak_bytes(lambda: warp_backward(upstream, src, t)) <= bound

    def test_small_footprint_copies_a_small_window(self):
        """A 16 x 16 crop at unit scale inside a 300 x 280 image copies
        about 18 x 18 pixels, not the image."""
        src = smooth_image(np.random.default_rng(5), 300, 280)
        t = SimilarityTransform(1.0, 0.0, 140.0, 150.0, 7.5, 7.5)
        warp(src, t, (16, 16))
        peak = self._peak_bytes(lambda: warp(src, t, (16, 16)))
        assert peak <= self.OUTPUT_ARRAYS * 16 * 16 * 8 < src.nbytes // 10


class TestCanonicalShape:
    def test_clamp(self):
        shape = CanonicalShape(np.array([[0.0, 70.0], [30.0, 30.0]]))
        shape.clamp(64, 64)
        np.testing.assert_allclose(shape.points, [[2.0, 61.0], [30.0, 30.0]])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            CanonicalShape(np.array([[1.0, 2.0]]))
