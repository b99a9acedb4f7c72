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


# The ordering works on a plane: every caller projects onto two components.
_COMPONENTS = 2


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
    if d < _COMPONENTS:
        raise ValueError(f"cannot extract {_COMPONENTS} components from dimension {d}")

    mean = X.mean(axis=0)
    centered = X - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("degenerate input: all rows identical (zero variance)")

    components = vt[:_COMPONENTS].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    explained = (s[:_COMPONENTS] ** 2) / (n - 1)
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


def greedy_fps(points: np.ndarray, start: int, n: int) -> SelectionOrder:
    """Classic greedy farthest-point ordering in cosine distance.

    Each pick maximizes the minimum cosine distance to everything selected
    so far; zero-norm points sit at distance 0 from everything so they are
    never preferred. Ties go to the lowest index. The distance from every
    point to point j is ``1 - (x * x[j] + y * y[j]) / (norms * norms[j])``,
    set to 0 where either norm is 0; each pick computes it into buffers
    allocated once.
    """
    pts = np.asarray(points, dtype=np.float64)
    N = pts.shape[0]
    if not (0 <= start < N):
        raise ValueError(f"start index {start} out of range for {N} points")
    if not (1 <= n <= N):
        raise ValueError(f"cannot select {n} of {N} points")

    x, y = np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1])
    norms = np.sqrt(x ** 2 + y ** 2)
    zero = norms == 0.0
    any_zero = bool(zero.any())
    # the same doubles as Python floats: cheaper to pass than numpy scalars
    xs, ys, ns, zs = x.tolist(), y.tolist(), norms.tolist(), zero.tolist()
    dist, tmp = np.empty(N), np.empty(N)

    def distances_to(j):
        # into dist; a zero norm at j leaves it to the caller
        np.multiply(x, xs[j], out=dist)
        np.multiply(y, ys[j], out=tmp)
        np.add(dist, tmp, out=dist)
        np.multiply(norms, ns[j], out=tmp)
        np.divide(dist, tmp, out=dist)
        np.subtract(1.0, dist, out=dist)
        if any_zero:
            dist[zero] = 0.0

    indices = [start]
    distances = [float("nan")]
    with np.errstate(divide="ignore", invalid="ignore"):
        if zs[start]:
            mind = np.zeros(N)
        else:
            distances_to(start)
            mind = dist.copy()
        mind[start] = -np.inf
        for _ in range(1, n):
            nxt = int(mind.argmax())
            indices.append(nxt)
            distances.append(mind.item(nxt))
            if zs[nxt]:
                np.minimum(mind, 0.0, out=mind)
            else:
                distances_to(nxt)
                np.minimum(mind, dist, out=mind)
            mind[nxt] = -np.inf
    return SelectionOrder(indices=indices, distances=distances)


def cumulative_batches(order: SelectionOrder, t: int, batch_size: int) -> list[int]:
    """Document indices available at iteration t: the first min(batch_size*t, N)
    entries of the ordering, in selection order."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    stop = min(batch_size * t, len(order.indices))
    return order.indices[:stop]
