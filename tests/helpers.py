"""Reference implementations and small readers the tests share.

``material_vector`` and ``similarity_point`` are the per-candidate scoring
path the bulk ``similarity_points`` replaced: one Composition at a time,
summing element vectors in declared order and calling
``cosine_similarity`` per anchor. They are the oracle for the bulk path,
which must stay within ``SCORE_BOUND`` of them. ``reference_pareto_front``
is the dict-grouped sweep the lexsort sweep replaced.
"""
import csv

import numpy as np

from litscreen.embedding import cosine_similarity, vector_of
from litscreen.materials import CompositionError, PropertyAnchors, SimilarityPoint

# Largest |bulk - per-candidate| score difference the bulk path may show.
SCORE_BOUND = 1e-12


def material_vector(model, comp):
    """Fraction-weighted sum of element vectors (unnormalized).

    Only elements with fraction > 0 need a vector; an absent one raises
    OutOfVocabularyError.
    """
    vec = None
    for el, f in zip(comp.elements, comp.fractions):
        if f == 0.0:
            continue
        row = vector_of(model, el)
        vec = f * row if vec is None else vec + f * row
    if vec is None:
        raise CompositionError(f"composition {comp.id!r} has no positive fraction")
    return vec


def similarity_point(model, comp, anchors=None):
    """Cosine similarity of the composition's material vector to each anchor."""
    if anchors is None:
        anchors = PropertyAnchors()
    vec = material_vector(model, comp)
    sims = [cosine_similarity(vec, vector_of(model, term)) for term in anchors.terms]
    return SimilarityPoint(s_dielectric=sims[0], s_conductivity=sims[1], composition=comp)


def reference_scores(model, candidates, anchors=None):
    """(N, 2) scores from the per-candidate path."""
    return np.array([similarity_point(model, c, anchors).coords() for c in candidates])


def reference_pareto_front(coords, obj):
    """The dict-grouped sort-and-sweep over x groups, one point at a time."""
    sx, sy = obj.signs()
    coords = [(sx * x, sy * y) for x, y in np.asarray(coords, dtype=np.float64).tolist()]
    by_x = {}
    for i, (x, _) in enumerate(coords):
        by_x.setdefault(x, []).append(i)
    front = []
    best_y = -float("inf")
    for x in sorted(by_x, reverse=True):
        group = by_x[x]
        group_best = max(coords[i][1] for i in group)
        if group_best > best_y:
            front.extend(i for i in group if coords[i][1] == group_best)
            best_y = group_best
    return sorted(front)


def read_selection(path):
    """(doc ids, maximin distances) of a saved selection CSV, seed row NaN."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["rank", "doc_id", "min_distance"]
    assert [int(r[0]) for r in rows[1:]] == list(range(len(rows) - 1))
    ids = [r[1] for r in rows[1:]]
    distances = [float("nan") if r[2] == "" else float(r[2]) for r in rows[1:]]
    return ids, distances
