"""Diverse-document ordering: 2D PCA projection plus greedy farthest-point sampling.

Distances for the greedy ordering are cosine distances between projected
2D coordinates; the ordering always starts from the corpus-central
document and grows in fixed-size batches.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import library

__all__ = [
    "Projection",
    "SelectionOrder",
    "pca_project",
    "central_document",
    "greedy_fps",
    "cumulative_batches",
]


# The ordering works on a plane: every caller projects onto two components.
_COMPONENTS = 2
# pca_top2's failing return codes
_PCA_FAILURES = {
    1: "degenerate input: all rows identical (zero variance)",
    2: "PCA needs finite values whose centred Gram matrix does not overflow",
    3: "PCA did not converge",
}


@dataclass
class Projection:
    mean: np.ndarray  # (D,)
    components: np.ndarray  # (2, D), orthonormal rows
    explained_variance: np.ndarray  # (2,)
    points: np.ndarray  # (N, 2)


@dataclass
class SelectionOrder:
    """Greedy ordering of document indices; ``distances[i]`` is the maximin
    cosine distance at which index i was selected (nan for the seed)."""

    indices: list[int]
    distances: list[float]


def pca_project(vectors: np.ndarray) -> Projection:
    """Project row vectors onto the top two principal components.

    Columns are mean-centered; components are the top two eigenvectors of
    the sample covariance with a deterministic sign (largest-magnitude
    entry positive); explained variances are their eigenvalues. The kernel
    library's ``pca_top2`` takes them from the Gram matrix of the centred
    rows on its smaller side, by Householder tridiagonalisation and
    implicit QL, with no BLAS call, so the bits are the same on any build
    and with any BLAS.
    """
    X = np.ascontiguousarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2D array, got shape {X.shape}")
    n, d = X.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 rows, got {n}")
    if d < _COMPONENTS:
        raise ValueError(f"cannot extract {_COMPONENTS} components from dimension {d}")

    mean = X.mean(axis=0)
    components, explained = np.empty((_COMPONENTS, d)), np.empty(_COMPONENTS)
    points = np.empty((n, _COMPONENTS))
    m = min(n, d)
    status = library().pca_top2(X, mean, n, d, components, explained, points,
                                np.empty(m * m + 3 * m))
    if status:
        raise ValueError(_PCA_FAILURES[status])
    return Projection(mean=mean, components=components, explained_variance=explained, points=points)


def central_document(points: np.ndarray) -> int:
    """Index of the point closest (Euclidean) to the mean; lowest index wins ties."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("central_document needs a nonempty N x k array")
    center = pts.mean(axis=0)
    dist2 = ((pts - center) ** 2).sum(axis=1)
    return int(np.argmin(dist2))


def greedy_fps(points: np.ndarray, start: int, n: int) -> SelectionOrder:
    """Classic greedy farthest-point ordering in cosine distance.

    Each pick maximizes the minimum cosine distance to everything selected
    so far; zero-norm points sit at distance 0 from everything so they are
    never preferred. Ties go to the lowest index. The distance from every
    point to point j is ``1 - (x * x[j] + y * y[j]) / (norms * norms[j])``,
    set to 0 where either norm is 0. The kernel library's ``fps_order``
    runs the loop, with the IEEE operations numpy would do in this order
    and numpy's NaN rules for the running minimum and the argmax.
    """
    pts = np.asarray(points, dtype=np.float64)
    N = pts.shape[0]
    if not (0 <= start < N):
        raise ValueError(f"start index {start} out of range for {N} points")
    if not (1 <= n <= N):
        raise ValueError(f"cannot select {n} of {N} points")

    indices, distances = np.empty(n, dtype=np.int64), np.empty(n)
    library().fps_order(np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1]),
                        N, start, n, indices, distances, np.empty(2 * N))
    return SelectionOrder(indices=indices.tolist(), distances=distances.tolist())


def cumulative_batches(order: SelectionOrder, t: int, batch_size: int) -> list[int]:
    """Document indices available at iteration t: the first min(batch_size*t, N)
    entries of the ordering, in selection order."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    stop = min(batch_size * t, len(order.indices))
    return order.indices[:stop]
