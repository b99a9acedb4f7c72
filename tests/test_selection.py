import math

import numpy as np
import pytest

from litscreen.selection import (
    SelectionOrder,
    central_document,
    cumulative_batches,
    greedy_fps,
    pca_project,
)


def eigh_oracle(X, k):
    """Eigendecomposition of the dense sample covariance, top-k."""
    X = np.asarray(X, dtype=np.float64)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:k]
    return w[order], v[:, order].T


def fps_oracle(pts, start, n):
    """Recompute every maximin choice from scratch with scalar arithmetic.

    Distances use the exact same expression as the implementation so that
    duplicated points produce bitwise-equal candidates and the tie-break
    (lowest index) is exercised for real.
    """
    pts = np.asarray(pts, dtype=np.float64)
    norms = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)

    def dist(i, j):
        if norms[i] == 0.0 or norms[j] == 0.0:
            return 0.0
        return 1.0 - (pts[i, 0] * pts[j, 0] + pts[i, 1] * pts[j, 1]) / (norms[i] * norms[j])

    selected = [start]
    dists = [float("nan")]
    remaining = set(range(len(pts))) - {start}
    while len(selected) < n:
        best_i, best_d = -1, -math.inf
        for i in sorted(remaining):
            d = min(dist(i, j) for j in selected)
            if d > best_d:
                best_i, best_d = i, d
        selected.append(best_i)
        dists.append(best_d)
        remaining.discard(best_i)
    return selected, dists


class TestPCA:
    def test_variances_match_dense_eigendecomposition(self):
        rng = np.random.default_rng(8)
        for n, d in [(30, 5), (100, 20), (12, 3)]:
            X = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
            proj = pca_project(X, k=2)
            w, v = eigh_oracle(X, 2)
            assert np.allclose(proj.explained_variance, w, atol=1e-8)
            for row, eig in zip(proj.components, v):
                assert abs(abs(row @ eig) - 1.0) < 1e-8

    def test_projected_points_are_zero_mean(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 10)) + 3.0
        proj = pca_project(X)
        assert np.all(np.abs(proj.points.mean(axis=0)) < 1e-10)

    def test_projected_variance_equals_explained(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(80, 6))
        proj = pca_project(X)
        for col in range(2):
            assert proj.points[:, col].var(ddof=1) == pytest.approx(
                proj.explained_variance[col], abs=1e-8
            )

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 7))
        proj = pca_project(X)
        for row in proj.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(25, 4))
        p1, p2 = pca_project(X), pca_project(X)
        assert np.array_equal(p1.components, p2.components)
        assert np.array_equal(p1.points, p2.points)

    def test_known_2d_structure(self):
        # points on a line y = 2x: first component carries all variance
        t = np.linspace(-1, 1, 20)
        X = np.stack([t, 2 * t], axis=1)
        proj = pca_project(X)
        assert proj.explained_variance[1] == pytest.approx(0.0, abs=1e-12)
        direction = np.array([1.0, 2.0]) / math.sqrt(5.0)
        assert abs(abs(proj.components[0] @ direction) - 1.0) < 1e-12

    def test_degenerate_input_rejected(self):
        X = np.ones((5, 3))
        with pytest.raises(ValueError):
            pca_project(X)

    def test_too_few_rows_or_columns(self):
        with pytest.raises(ValueError):
            pca_project(np.ones((1, 5)))
        with pytest.raises(ValueError):
            pca_project(np.zeros((4, 1)), k=2)


class TestCentralDocument:
    def test_closest_to_mean(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.1, 0.1], [-10.0, 0.0]])
        # mean is (0.025, 0.025); nearest is (0, 0)
        assert central_document(pts) == 0

    def test_tie_goes_to_lowest_index(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert central_document(pts) == 0

    def test_single_point(self):
        assert central_document(np.array([[3.0, 4.0]])) == 0


class TestGreedyFPS:
    def test_angular_ordering(self):
        def at(deg, r=1.0):
            a = math.radians(deg)
            return [r * math.cos(a), r * math.sin(a)]

        # radius must not matter: cosine distance only sees the angle
        pts = np.array([at(0, 2.0), at(10, 0.5), at(90, 3.0), at(180, 1.0)])
        order = greedy_fps(pts, start=0, n=4)
        assert order.indices == [0, 3, 2, 1]
        assert order.distances[1] == pytest.approx(2.0, abs=1e-12)
        assert order.distances[2] == pytest.approx(1.0, abs=1e-12)

    def test_matches_bruteforce_oracle_random(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(60, 2))
        order = greedy_fps(pts, start=5, n=60)
        want_idx, want_d = fps_oracle(pts, 5, 60)
        assert order.indices == want_idx
        assert np.isnan(order.distances[0])
        assert order.distances[1:] == pytest.approx(want_d[1:], abs=0)

    def test_matches_oracle_with_exact_duplicates(self):
        rng = np.random.default_rng(22)
        base = rng.normal(size=(12, 2))
        # every point appears three times: ties everywhere
        pts = np.vstack([base, base, base])
        order = greedy_fps(pts, start=0, n=len(pts))
        want_idx, _ = fps_oracle(pts, 0, len(pts))
        assert order.indices == want_idx

    def test_zero_norm_points_selected_last(self):
        pts = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        order = greedy_fps(pts, start=0, n=4)
        assert order.indices[-1] == 1
        assert order.distances[order.indices.index(1)] == 0.0

    def test_start_out_of_range(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            greedy_fps(pts, start=3, n=2)
        with pytest.raises(ValueError):
            greedy_fps(pts, start=0, n=4)

    def test_partial_selection(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(30, 2))
        full = greedy_fps(pts, start=2, n=30)
        part = greedy_fps(pts, start=2, n=10)
        assert part.indices == full.indices[:10]


class TestCumulativeBatches:
    def order(self, n):
        return SelectionOrder(indices=list(range(n)), distances=[float("nan")] * n)

    def test_grows_by_batch(self):
        order = self.order(120)
        assert cumulative_batches(order, 1, 50) == list(range(50))
        assert cumulative_batches(order, 2, 50) == list(range(100))
        assert cumulative_batches(order, 3, 50) == list(range(120))
        assert cumulative_batches(order, 9, 50) == list(range(120))

    def test_selection_order_preserved(self):
        order = SelectionOrder(indices=[4, 2, 0, 3, 1], distances=[float("nan")] * 5)
        assert cumulative_batches(order, 1, 2) == [4, 2]
        assert cumulative_batches(order, 2, 2) == [4, 2, 0, 3]

    def test_bad_iteration_index(self):
        with pytest.raises(ValueError):
            cumulative_batches(self.order(10), 0, 5)
