"""Compositions as weighted element-vector superpositions in similarity space.

A composition maps to the fraction-weighted sum of its elements' word
vectors; its coordinates are the cosine similarities of that sum to the
two anchor property terms. The centroid over a candidate set is the
componentwise mean of those coordinate pairs.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import element_symbols
from .embedding import WordModel, cosine_similarity, vector_of

__all__ = [
    "CompositionError",
    "Composition",
    "SimilarityPoint",
    "PropertyAnchors",
    "parse_composition",
    "enumerate_simplex",
    "material_vector",
    "similarity_point",
    "similarity_points",
    "centroid",
    "load_compositions",
]

SUM_TOLERANCE = 1e-9
PARSE_TOLERANCE = 1e-6


class CompositionError(ValueError):
    """Invalid composition specification."""


@dataclass(frozen=True)
class Composition:
    """Atomic fractions over a declared element set; fractions sum to 1."""

    elements: tuple[str, ...]
    fractions: tuple[float, ...]
    id: str = ""

    def __post_init__(self):
        if len(self.elements) != len(self.fractions):
            raise CompositionError(
                f"{len(self.elements)} elements but {len(self.fractions)} fractions"
            )
        if len(set(self.elements)) != len(self.elements):
            raise CompositionError(f"duplicate element in {self.elements}")
        for el, f in zip(self.elements, self.fractions):
            if not math.isfinite(f):
                raise CompositionError(f"non-finite fraction {f} for {el}")
            if f < 0:
                raise CompositionError(f"negative fraction {f} for {el}")
        total = math.fsum(self.fractions)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise CompositionError(f"fractions sum to {total}, expected 1")

    def fraction(self, element: str) -> float:
        try:
            return self.fractions[self.elements.index(element)]
        except ValueError:
            raise CompositionError(f"element {element!r} not declared") from None

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.elements, self.fractions))


@dataclass(frozen=True)
class PropertyAnchors:
    """Ordered anchor terms spanning the 2D similarity space."""

    terms: tuple[str, ...] = ("dielectric", "conductivity")

    def __post_init__(self):
        if len(self.terms) != 2:
            raise ValueError(f"exactly two anchor terms required, got {self.terms}")
        for t in self.terms:
            if not t or t != t.lower():
                raise ValueError(f"anchor terms must be nonempty lowercase, got {t!r}")


@dataclass(frozen=True)
class SimilarityPoint:
    """Cosine similarities of one composition to the two anchors.

    The axis names follow the default anchor pair; with custom anchors the
    first anchor maps to ``s_dielectric`` and the second to ``s_conductivity``.
    """

    s_dielectric: float
    s_conductivity: float
    composition: Composition

    def coords(self) -> tuple[float, float]:
        return (self.s_dielectric, self.s_conductivity)


_PART_RE = re.compile(r"([A-Z][a-z]?)((?:\d+\.?\d*|\.\d+)?)")


def parse_composition(spec: str, elements, comp_id: str = "") -> Composition:
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


def enumerate_simplex(elements, steps: int, max_count: int = 2_000_000) -> list[Composition]:
    """All compositions with fractions on the grid {0, 1/steps, ..., 1}.

    Produces C(steps + k - 1, k - 1) compositions in ascending lexicographic
    fraction order; errors out when that count exceeds ``max_count``.
    """
    elements = tuple(elements)
    k = len(elements)
    if k < 1:
        raise ValueError("need at least one element")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    expected = math.comb(steps + k - 1, k - 1)
    if expected > max_count:
        raise CompositionError(
            f"simplex grid would hold {expected} compositions, over the cap {max_count}"
        )

    out: list[Composition] = []

    def rec(prefix: list[int], remaining: int, depth: int):
        if depth == k - 1:
            parts = prefix + [remaining]
            fracs = tuple(p / steps for p in parts)
            label = "".join(f"{el}{f:g}" for el, f in zip(elements, fracs) if f > 0)
            out.append(Composition(elements=elements, fractions=fracs, id=label))
            return
        for p in range(remaining + 1):
            rec(prefix + [p], remaining - p, depth + 1)

    rec([], steps, 0)
    return out


def material_vector(model: WordModel, comp: Composition) -> np.ndarray:
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


def similarity_point(model: WordModel, comp: Composition, anchors: PropertyAnchors | None = None) -> SimilarityPoint:
    """Cosine similarity of the composition's material vector to each anchor."""
    if anchors is None:
        anchors = PropertyAnchors()
    vec = material_vector(model, comp)
    sims = []
    for term in anchors.terms:
        anchor_vec = vector_of(model, term)
        sims.append(cosine_similarity(vec, anchor_vec))
    return SimilarityPoint(s_dielectric=sims[0], s_conductivity=sims[1], composition=comp)


def similarity_points(model: WordModel, comps, anchors: PropertyAnchors | None = None) -> list[SimilarityPoint]:
    return [similarity_point(model, c, anchors) for c in comps]


def centroid(points) -> np.ndarray:
    """Componentwise mean of the (s_dielectric, s_conductivity) pairs."""
    points = list(points)
    if not points:
        raise ValueError("centroid of an empty point list")
    coords = np.array([p.coords() for p in points], dtype=np.float64)
    return coords.mean(axis=0)


def load_compositions(
    path: str,
    elements=None,
    id_column: str = "id",
    measured_column: str = "current_density",
    potential_column: str = "potential",
):
    """Read a composition CSV: one fraction column per element, optional id
    and measured-performance columns.

    When ``elements`` is None, every header column matching a periodic-table
    symbol counts as an element column. Returns (compositions, measured,
    potential) where ``measured`` maps composition id to current density
    (mA/cm^2) for rows carrying a value, and ``potential`` (mV) is the
    constant of the potential column when present.
    """
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise CompositionError(f"composition file not found: {path}") from None
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise CompositionError(f"composition file is empty: {path}")
        header = list(reader.fieldnames)
        if elements is None:
            table = element_symbols()
            elements = tuple(c for c in header if c in table)
        else:
            elements = tuple(elements)
            missing = [el for el in elements if el not in header]
            if missing:
                raise CompositionError(f"{path}: missing element columns {missing}")
        if not elements:
            raise CompositionError(f"{path}: no element columns found in {header}")

        comps: list[Composition] = []
        measured: dict[str, float] = {}
        potential: float | None = None
        for i, row in enumerate(reader, start=1):
            comp_id = (row.get(id_column) or str(i)).strip() or str(i)
            try:
                raw = [float(row[el] or 0.0) for el in elements]
            except (TypeError, ValueError) as exc:
                raise CompositionError(f"{path} row {i}: bad fraction ({exc})") from None
            for el, v in zip(elements, raw):
                if not math.isfinite(v):
                    raise CompositionError(f"{path} row {i}: non-finite fraction {v} for {el}")
            total = math.fsum(raw)
            if abs(total - 1.0) > PARSE_TOLERANCE:
                raise CompositionError(
                    f"{path} row {i}: fractions sum to {total}, expected 1"
                )
            fracs = tuple(v / total for v in raw)
            comps.append(Composition(elements=elements, fractions=fracs, id=comp_id))

            value = (row.get(measured_column) or "").strip()
            if value:
                measured[comp_id] = float(value)
            pot = (row.get(potential_column) or "").strip()
            if pot:
                pot_val = float(pot)
                if potential is not None and pot_val != potential:
                    raise CompositionError(
                        f"{path} row {i}: conflicting potentials {potential} and {pot_val}"
                    )
                potential = pot_val

        ids = [c.id for c in comps]
        if len(set(ids)) != len(ids):
            raise CompositionError(f"{path}: duplicate composition ids")
    return comps, measured, potential
