"""Reference implementations and small readers the tests share.

``material_vector`` and ``similarity_point`` are the per-candidate scoring
path the bulk ``similarity_points`` replaced: one Composition at a time,
summing element vectors in declared order and calling
``cosine_similarity`` per anchor. They are the oracle for the bulk path,
which must stay within ``SCORE_BOUND`` of them. ``reference_pareto_front``
is the dict-grouped sweep the lexsort sweep replaced. ``hs_step`` is one
hierarchical-softmax SGD step in numpy, the reference for the compiled
trainer kernel. ``parse_composition`` and ``read_manifest`` read formula
strings and run manifests, and ``cosine_similarity`` scores one pair of
vectors; only the tests need them.
"""
import csv
import math
import re

import numpy as np

from litscreen.embedding import vector_of
from litscreen.materials import (
    PARSE_TOLERANCE,
    Composition,
    CompositionError,
    PropertyAnchors,
    SimilarityPoint,
)
from litscreen.persistence import MANIFEST_FORMAT, PersistenceError, read_kv

# Largest |bulk - per-candidate| score difference the bulk path may show.
SCORE_BOUND = 1e-12


def cosine_similarity(a, b):
    """<a, b> / (|a| |b|); raises ValueError on zero-norm input."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = math.sqrt(float(a @ a))
    nb = math.sqrt(float(b @ b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return float(a @ b) / (na * nb)


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -60.0), 60.0)))


def hs_step(center, node_rows, signs, alpha):
    """One SGD step of the hierarchical-softmax objective for one prediction.

    loss = -sum_i log sigmoid(signs[i] * <center, node_rows[i]>)

    Both gradients are evaluated at the incoming values; returns
    (pre-update loss, updated center, updated node rows).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    # ndarray methods and bare ufuncs rather than np.all/np.sum/np.clip/
    # np.outer: the same arithmetic with less per-call overhead, since the
    # tests call this once per training pair as the kernel's reference
    z = node_rows @ center
    if not np.isfinite(z).all():
        raise ValueError("non-finite input to hs_step")
    sz = signs * z
    loss = float(np.logaddexp(0.0, -sz).sum())
    g = signs * (1.0 - _sigmoid(sz))  # (L,)
    new_center = center + alpha * (g @ node_rows)
    new_rows = node_rows + alpha * (g[:, None] * center)
    return loss, new_center, new_rows


_PART_RE = re.compile(r"([A-Z][a-z]?)((?:\d+\.?\d*|\.\d+)?)")


def parse_composition(spec, elements, comp_id=""):
    """Parse strings like ``Ag0.2Pd0.8`` against a declared element set.

    An omitted fraction means 1.0 (``Pt`` == ``Pt1.0``). Elements declared
    but absent get fraction 0. Fraction sums within 1e-6 of 1 are
    renormalized; anything further off is an error.
    """
    elements = tuple(elements)
    declared = set(elements)
    found: dict[str, float] = {}
    pos = 0
    spec = spec.strip()
    while pos < len(spec):
        m = _PART_RE.match(spec, pos)
        if not m:
            raise CompositionError(f"cannot parse {spec!r} at position {pos}")
        symbol, number = m.group(1), m.group(2)
        if symbol not in declared:
            raise CompositionError(f"unknown element {symbol!r} in {spec!r}")
        if symbol in found:
            raise CompositionError(f"element {symbol!r} repeated in {spec!r}")
        found[symbol] = float(number) if number else 1.0
        pos = m.end()

    if not found:
        raise CompositionError(f"no element terms in {spec!r}")
    total = math.fsum(found.values())
    if abs(total - 1.0) > PARSE_TOLERANCE:
        raise CompositionError(f"fractions in {spec!r} sum to {total}, expected 1")
    fractions = tuple(found.get(el, 0.0) / total for el in elements)
    return Composition(elements=elements, fractions=fractions, id=comp_id or spec)


def read_manifest(path):
    """The ``key = value`` pairs of a run's manifest, format line included."""
    pairs = read_kv(path, "manifest")
    if pairs.get("format") != MANIFEST_FORMAT:
        raise PersistenceError(f"{path}: not a {MANIFEST_FORMAT} file")
    return pairs
