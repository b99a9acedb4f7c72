"""Diverse-document ordering: 2D PCA projection plus greedy farthest-point sampling.

Distances for the greedy ordering are cosine distances between projected
2D coordinates; the ordering always starts from the corpus-central
document and grows in fixed-size batches.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Projection",
    "SelectionOrder",
    "pca_project",
    "central_document",
    "greedy_fps",
    "cumulative_batches",
]


@dataclass
class Projection:
    mean: np.ndarray  # (D,)
    components: np.ndarray  # (k, D), orthonormal rows
    explained_variance: np.ndarray  # (k,)
    points: np.ndarray  # (N, k)


@dataclass
class SelectionOrder:
    """Greedy ordering of document indices; ``distances[i]`` is the maximin
    cosine distance at which index i was selected (nan for the seed)."""

    indices: list[int]
    distances: list[float]


def pca_project(vectors: np.ndarray, k: int = 2) -> Projection:
    """Project row vectors onto the top-k principal components.

    Columns are mean-centered; components are the top right singular
    directions with a deterministic sign (largest-magnitude entry positive);
    explained variances are the corresponding sample-covariance eigenvalues.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2D array, got shape {X.shape}")
    n, d = X.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 rows, got {n}")
    if d < k:
        raise ValueError(f"cannot extract {k} components from dimension {d}")

    mean = X.mean(axis=0)
    centered = X - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("degenerate input: all rows identical (zero variance)")

    components = vt[:k].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    explained = (s[:k] ** 2) / (n - 1)
    points = centered @ components.T
    return Projection(mean=mean, components=components, explained_variance=explained, points=points)


def central_document(points: np.ndarray) -> int:
    """Index of the point closest (Euclidean) to the mean; lowest index wins ties."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("central_document needs a nonempty N x k array")
    center = pts.mean(axis=0)
    dist2 = ((pts - center) ** 2).sum(axis=1)
    return int(np.argmin(dist2))


def _cosine_distances_to(points: np.ndarray, norms: np.ndarray, j: int) -> np.ndarray:
    """Cosine distance from every point to point j; zero-norm rule applied."""
    if norms[j] == 0.0:
        return np.zeros(len(points))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (points[:, 0] * points[j, 0] + points[:, 1] * points[j, 1]) / (norms * norms[j])
    dist = 1.0 - cos
    dist[norms == 0.0] = 0.0
    return dist


def greedy_fps(points: np.ndarray, start: int, n: int) -> SelectionOrder:
    """Classic greedy farthest-point ordering in cosine distance.

    Each pick maximizes the minimum cosine distance to everything selected
    so far; zero-norm points sit at distance 0 from everything so they are
    never preferred. Ties go to the lowest index.
    """
    pts = np.asarray(points, dtype=np.float64)
    N = pts.shape[0]
    if not (0 <= start < N):
        raise ValueError(f"start index {start} out of range for {N} points")
    if not (1 <= n <= N):
        raise ValueError(f"cannot select {n} of {N} points")

    norms = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)

    indices = [start]
    distances = [float("nan")]
    mind = _cosine_distances_to(pts, norms, start)
    mind[start] = -np.inf
    for _ in range(1, n):
        nxt = int(np.argmax(mind))
        indices.append(nxt)
        distances.append(float(mind[nxt]))
        mind = np.minimum(mind, _cosine_distances_to(pts, norms, nxt))
        mind[nxt] = -np.inf
    return SelectionOrder(indices=indices, distances=distances)


def cumulative_batches(order: SelectionOrder, t: int, batch_size: int) -> list[int]:
    """Document indices available at iteration t: the first min(batch_size*t, N)
    entries of the ordering, in selection order."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    stop = min(batch_size * t, len(order.indices))
    return order.indices[:stop]
