"""Candidate compositions and their coordinates in similarity space.

A candidate set is a :class:`CandidateTable`: one (N, k) array of atomic
fractions over a declared element set, with one id per row. A
composition's material vector is the fraction-weighted sum of its
elements' word vectors, and its coordinates are the cosine similarities
of that vector to the two anchor property terms. :func:`similarity_points`
computes those coordinates for the whole table at once, as an (N, 2)
score array, and the centroid of a candidate set is the column mean of
that array.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .corpus import element_symbols
from .embedding import WordModel, vector_of

__all__ = [
    "CompositionError",
    "Composition",
    "CandidateTable",
    "SimilarityPoint",
    "PropertyAnchors",
    "enumerate_simplex",
    "similarity_points",
    "centroid",
    "load_compositions",
]

SUM_TOLERANCE = 1e-9
PARSE_TOLERANCE = 1e-6
# Scoring forms the material vectors a block of rows at a time, so memory
# stays flat however many candidates there are.
_BLOCK_BYTES = 256 * 1024


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


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Candidate compositions over one element set, held by column.

    Row ``i`` of the (N, k) float64 ``fractions`` array holds the atomic
    fractions of candidate ``ids[i]`` in ``elements`` order; every row is
    finite, non-negative and sums to 1. The array is read-only. Indexing
    or iterating yields :class:`Composition` views built on demand.
    """

    elements: tuple[str, ...]
    ids: tuple[str, ...]
    fractions: np.ndarray

    def __post_init__(self):
        elements, ids = tuple(self.elements), tuple(self.ids)
        fractions = np.asarray(self.fractions, dtype=np.float64).view()
        fractions.flags.writeable = False
        if fractions.shape != (len(ids), len(elements)):
            raise CompositionError(
                f"fractions of shape {fractions.shape} for {len(ids)} ids "
                f"and {len(elements)} elements"
            )
        if len(set(elements)) != len(elements):
            raise CompositionError(f"duplicate element in {elements}")
        with np.errstate(invalid="ignore"):
            bad = (~np.isfinite(fractions).all(axis=1) | (fractions < 0).any(axis=1)
                   | (np.abs(fractions.sum(axis=1) - 1.0) > SUM_TOLERANCE))
        if bad.any():
            i = int(np.argmax(bad))
            raise CompositionError(
                f"candidate {ids[i]!r} (row {i + 1}): fractions {fractions[i].tolist()} "
                "must be finite, non-negative and sum to 1"
            )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "fractions", fractions)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Composition:
        return Composition(self.elements, tuple(self.fractions[i].tolist()), self.ids[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def present(self) -> tuple[str, ...]:
        """Elements with a positive fraction in at least one row."""
        used = (self.fractions > 0).any(axis=0)
        return tuple(el for el, u in zip(self.elements, used.tolist()) if u)


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

    One row of the score array as an object, for callers that compare
    points one at a time (see :func:`litscreen.screen.dominates`). The axis
    names follow the default anchor pair; with custom anchors the first
    anchor maps to ``s_dielectric`` and the second to ``s_conductivity``.
    """

    s_dielectric: float
    s_conductivity: float
    composition: Composition | None

    def coords(self) -> tuple[float, float]:
        return (self.s_dielectric, self.s_conductivity)


def enumerate_simplex(elements, steps: int, max_count: int = 2_000_000) -> CandidateTable:
    """All compositions with fractions on the grid {0, 1/steps, ..., 1}.

    Produces C(steps + k - 1, k - 1) rows in ascending lexicographic
    fraction order, built as integer arrays with no per-row objects; errors
    out when that count exceeds ``max_count``. A row's id lists its
    elements with nonzero fraction, as in ``Ag0.25Pt0.75``.
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

    # Grow the grid one leading part at a time: each row with `left` grid
    # steps still unassigned expands into rows taking 0..left of them.
    dtype = np.min_scalar_type(steps + 1)
    parts = np.zeros((1, 0), dtype=dtype)
    left = np.array([steps], dtype=dtype)
    for _ in range(k - 1):
        counts = left + 1
        taken = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        taken = taken.astype(dtype)
        parts = np.column_stack([np.repeat(parts, counts, axis=0), taken])
        left = np.repeat(left, counts) - taken
    parts = np.column_stack([parts, left])

    pieces = []  # per element, each row's id piece: "" or symbol plus fraction
    for j, el in enumerate(elements):
        labels = np.array([""] + [f"{el}{p / steps:g}" for p in range(1, steps + 1)], dtype=object)
        pieces.append(labels[parts[:, j]].tolist())
    ids = tuple(map("".join, zip(*pieces)))
    return CandidateTable(elements, ids, parts / steps)


def similarity_points(
    model: WordModel, table: CandidateTable, anchors: PropertyAnchors | None = None
) -> np.ndarray:
    """(N, 2) cosine similarities of each candidate's material vector to the anchors.

    Row ``i`` scores ``table`` row ``i``: column 0 holds the similarity to
    the first anchor, column 1 to the second. Only elements with a positive
    fraction in some row need a vector; an absent one, or an absent anchor,
    raises OutOfVocabularyError. A material or anchor vector of zero norm raises
    ValueError, since its cosine is undefined.
    """
    if anchors is None:
        anchors = PropertyAnchors()
    if not len(table):
        return np.empty((0, 2))
    dim = model.vectors.shape[1]
    element_vectors = np.zeros((len(table.elements), dim))
    for el in table.present():
        element_vectors[table.elements.index(el)] = vector_of(model, el)
    anchor_vectors = np.array([vector_of(model, t) for t in anchors.terms])
    anchor_norms = np.sqrt(np.einsum("ij,ij->i", anchor_vectors, anchor_vectors))
    if not anchor_norms.all():
        raise ValueError("cosine similarity undefined for a zero-norm anchor vector")

    scores = np.empty((len(table), 2))
    block = max(1, _BLOCK_BYTES // (8 * dim))
    for start in range(0, len(table), block):
        vectors = table.fractions[start:start + block] @ element_vectors
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
        if not norms.all():
            row = start + int(np.argmin(norms))
            raise ValueError(
                f"cosine similarity undefined: candidate {table.ids[row]!r} "
                "has a zero-norm material vector"
            )
        scores[start:start + block] = (vectors @ anchor_vectors.T) / (norms[:, None] * anchor_norms)
    return scores


def centroid(points) -> np.ndarray:
    """Column means of an (N, 2) score array: the mean similarity pair."""
    coords = np.asarray(points, dtype=np.float64)
    if not coords.size:
        raise ValueError("centroid of an empty point list")
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) score array, got shape {coords.shape}")
    return coords.mean(axis=0)


def load_compositions(path: str, elements=None):
    """Read a composition CSV: one fraction column per element, and optional
    ``id``, ``current_density`` and ``potential`` columns.

    When ``elements`` is None, every header column matching a periodic-table
    symbol counts as an element column. Returns (table, measured, potential):
    a :class:`CandidateTable` whose rows are renormalized to sum to 1,
    ``measured`` mapping composition id to current density (mA/cm^2) for
    rows carrying a value, and ``potential`` (mV), the constant of the
    potential column when present. An empty element cell counts as 0, a
    blank line is skipped and a leading byte-order mark is ignored.

    Every fault raises CompositionError naming the file, and the data row
    (1-based, blank lines not counted) where there is one: no data rows, a
    row with more or fewer fields than the header, a fraction or measured
    value that is not a finite number, a negative fraction, fractions
    summing more than 1e-6 away from 1, conflicting potentials and a
    repeated id.
    """
    try:  # utf-8-sig, so that a byte-order mark does not join the first column's name
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise CompositionError(f"composition file not found: {path}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            return _read_compositions(reader, path, elements)
        except csv.Error as exc:
            raise CompositionError(f"{path} line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CompositionError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _fraction_fault(where: str, elements, vals, total) -> CompositionError:
    """The first non-finite or negative fraction of a row, else its bad sum."""
    for el, v in zip(elements, vals):
        if not math.isfinite(v):
            return CompositionError(f"{where}: non-finite fraction {v} for {el}")
        if v < 0:
            return CompositionError(f"{where}: negative fraction {v} for {el}")
    return CompositionError(f"{where}: fractions sum to {total}, expected 1")


def _read_compositions(reader, path, elements):
    header = next(reader, None)
    if header is None:
        raise CompositionError(f"composition file is empty: {path}")
    if elements is None:
        symbols = element_symbols()
        elements = tuple(c for c in header if c in symbols)
    else:
        elements = tuple(elements)
        missing = [el for el in elements if el not in header]
        if missing:
            raise CompositionError(f"{path}: missing element columns {missing}")
    if not elements:
        raise CompositionError(f"{path}: no element columns found in {header}")
    if len(set(elements)) != len(elements):
        raise CompositionError(f"{path}: repeated element columns in {header}")

    def column(name):
        return header.index(name) if name in header else None

    cols = [header.index(el) for el in elements]
    id_col, measured_col, potential_col = (
        column("id"), column("current_density"), column("potential"))
    width = len(header)

    def number(row, i, col, name):
        text = row[col].strip()
        if not text:
            return None
        try:
            value = float(text)
        except ValueError:
            raise CompositionError(f"{path} row {i}: {name} {text!r} is not a number") from None
        if not math.isfinite(value):
            raise CompositionError(f"{path} row {i}: non-finite {name} {value}")
        return value

    pick = itemgetter(*cols)
    ids: dict[str, int] = {}  # id -> its row, in row order
    raw = array("d")  # the rows' fractions, flat, as read
    totals = array("d")
    measured: dict[str, float] = {}
    potential: float | None = None
    i = 0
    for row in reader:
        if not row:
            continue
        i += 1
        if len(row) != width:
            raise CompositionError(f"{path} row {i}: {len(row)} fields, the header has {width}")
        comp_id = (row[id_col].strip() if id_col is not None else "") or str(i)
        cells = pick(row) if len(cols) > 1 else (row[cols[0]],)
        if "" in cells:
            cells = [c or "0" for c in cells]
        try:
            vals = list(map(float, cells))
        except ValueError as exc:
            raise CompositionError(f"{path} row {i}: bad fraction ({exc})") from None
        try:
            total = math.fsum(vals)
        except (OverflowError, ValueError):  # huge or opposite infinite values
            total = math.nan
        # one test passes every valid row: NaN and inf fail the comparison
        if not (abs(total - 1.0) <= PARSE_TOLERANCE and min(vals) >= 0.0):
            raise _fraction_fault(f"{path} row {i}", elements, vals, total)
        if ids.setdefault(comp_id, i) != i:
            raise CompositionError(f"{path} row {i}: duplicate composition id {comp_id!r}")
        raw.extend(vals)
        totals.append(total)

        if measured_col is not None:
            value = number(row, i, measured_col, "current_density")
            if value is not None:
                measured[comp_id] = value
        if potential_col is not None:
            pot_val = number(row, i, potential_col, "potential")
            if pot_val is not None:
                if potential is not None and pot_val != potential:
                    raise CompositionError(
                        f"{path} row {i}: conflicting potentials {potential} and {pot_val}"
                    )
                potential = pot_val

    if not ids:
        raise CompositionError(f"{path}: no candidate rows")
    fractions = np.frombuffer(raw).reshape(len(ids), len(elements))
    fractions = fractions / np.frombuffer(totals)[:, None]
    return CandidateTable(elements, tuple(ids), fractions), measured, potential
