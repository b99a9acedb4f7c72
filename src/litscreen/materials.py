"""Candidate compositions and their coordinates in similarity space.

A candidate set is a :class:`CandidateTable`: one (N, k) array of atomic
fractions over a declared element set, with one id per row. A
composition's material vector is the fraction-weighted sum of its
elements' word vectors, and its coordinates are the cosine similarities
of that vector to the two anchor property terms. :func:`similarity_points`
computes those coordinates for the whole table at once, as an (N, 2)
score array, from the elements' dot products with no BLAS call, and the
centroid of a candidate set is the column mean of that array. A row's
fractions must be finite, non-negative and sum to 1: :class:`CandidateTable`
checks every row at once, and :func:`load_compositions` checks each row as
it reads it, naming the row.
No candidate is held as an object of its own: indexing or iterating a
table yields read-only row views, built on demand.
"""
from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .corpus import element_symbols, open_text, preprocess
from .embedding import WordModel, vector_of

__all__ = [
    "CompositionError",
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
_MAX_SIMPLEX_ROWS = 2_000_000
# The candidate reader checks and converts this many data rows per step:
# enough that its whole-block calls outweigh their set-up, few enough that
# memory stays flat.
_BLOCK_ROWS = 2048


class CompositionError(ValueError):
    """Invalid composition specification."""


class _CandidateView(namedtuple("Candidate", ["id", "elements", "fractions"])):
    """One row of a :class:`CandidateTable`: its id, the table's elements
    and the row's fractions as a tuple of floats."""

    __slots__ = ()

    def fraction(self, element: str) -> float:
        return self.fractions[self.elements.index(element)]


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Candidate compositions over one element set, held by column.

    Row ``i`` of the (N, k) float64 ``fractions`` array holds the atomic
    fractions of candidate ``ids[i]`` in ``elements`` order; every row is
    finite, non-negative and sums to 1. The array is read-only. Indexing
    or iterating yields read-only ``(id, elements, fractions)`` row views,
    built on demand, whose ``fraction(element)`` reads one cell.
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
        with np.errstate(invalid="ignore", over="ignore"):
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

    def __getitem__(self, i: int) -> _CandidateView:
        return _CandidateView(self.ids[i], self.elements, tuple(self.fractions[i].tolist()))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def present(self) -> tuple[str, ...]:
        """Elements with a positive fraction in at least one row."""
        used = (self.fractions > 0).any(axis=0)
        return tuple(el for el, u in zip(self.elements, used.tolist()) if u)


@dataclass(frozen=True)
class PropertyAnchors:
    """Ordered anchor terms spanning the 2D similarity space, each a
    lowercase token that :func:`litscreen.corpus.preprocess` emits as it is."""

    terms: tuple[str, ...] = ("dielectric", "conductivity")

    def __post_init__(self):
        if len(self.terms) != 2:
            raise ValueError(f"exactly two anchor terms required, got {self.terms}")
        for t in self.terms:
            if t != t.lower() or preprocess(t) != [t]:
                raise ValueError(f"anchor term {t!r} is not a lowercase token that "
                                 f"preprocessing keeps as it is (it gives {preprocess(t)})")
        if self.terms[0] == self.terms[1]:
            raise ValueError(f"the two anchor terms must differ, got {self.terms}")


@dataclass(frozen=True)
class SimilarityPoint:
    """Cosine similarities of one composition to the two anchors.

    One row of the score array as an object, for callers that compare
    points one at a time (see :func:`litscreen.screen.dominates`). The axis
    names follow the default anchor pair; with custom anchors the first
    anchor maps to ``s_dielectric`` and the second to ``s_conductivity``.
    ``composition`` is a :class:`CandidateTable` row, or None.
    """

    s_dielectric: float
    s_conductivity: float
    composition: _CandidateView | None


def enumerate_simplex(elements, steps: int) -> CandidateTable:
    """All compositions with fractions on the grid {0, 1/steps, ..., 1}.

    Produces C(steps + k - 1, k - 1) rows in ascending lexicographic
    fraction order, built as integer arrays with no per-row objects; errors
    out when that count exceeds 2,000,000. A row's id lists its
    elements with nonzero fraction, as in ``Ag0.25Pt0.75``, each fraction
    printed to as many significant digits as ``steps`` has, and at least 6,
    so that no two rows share an id.
    """
    elements = tuple(elements)
    k = len(elements)
    if k < 1:
        raise ValueError("need at least one element")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    expected = math.comb(steps + k - 1, k - 1)
    if expected > _MAX_SIMPLEX_ROWS:
        raise CompositionError(
            f"simplex grid would hold {expected} compositions, over the cap {_MAX_SIMPLEX_ROWS}"
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
    digits = max(6, len(str(steps)))  # grid fractions lie over 10**-digits apart
    for j, el in enumerate(elements):
        labels = np.array([""] + [f"{el}{p / steps:.{digits}g}" for p in range(1, steps + 1)],
                          dtype=object)
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

    Anchor dots are ``F·(E·Aᵀ)`` and squared norms ``rowsum((F·(E·Eᵀ)) ∘ F)``
    for fractions F, element vectors E and anchor vectors A, all by einsum.
    """
    if anchors is None:
        anchors = PropertyAnchors()
    if not len(table):
        return np.empty((0, 2))
    element_vectors = np.zeros((len(table.elements), model.vectors.shape[1]))
    for el in table.present():
        element_vectors[table.elements.index(el)] = vector_of(model, el)
    anchor_vectors = np.array([vector_of(model, t) for t in anchors.terms])
    anchor_norms = np.sqrt(np.einsum("jd,jd->j", anchor_vectors, anchor_vectors))
    if not anchor_norms.all():
        raise ValueError("cosine similarity undefined for a zero-norm anchor vector")

    fractions = table.fractions
    gram = np.einsum("kd,ld->kl", element_vectors, element_vectors)
    squared = np.einsum("nl,nl->n", np.einsum("nk,kl->nl", fractions, gram), fractions)
    if not (squared > 0).all():
        row = int(np.argmin(squared > 0))
        raise ValueError(
            f"cosine similarity undefined: candidate {table.ids[row]!r} "
            "has a zero-norm material vector"
        )
    dots = np.einsum("nk,kj->nj", fractions,
                     np.einsum("kd,jd->kj", element_vectors, anchor_vectors))
    return dots / (np.sqrt(squared)[:, None] * anchor_norms)


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

    :func:`_row_blocks` reads the file, 2,048 data rows at a time, and
    :class:`_CandidateRows` checks and keeps each block before the next is
    read.

    Every fault raises CompositionError naming the file, and the data row
    (1-based, blank lines not counted) or the line where there is one: no
    data rows, a header repeating a column that is read, a row with more or
    fewer fields than the header, a fraction or measured value that is not a
    finite number, a negative fraction, fractions summing more than 1e-6
    away from 1, conflicting potentials, a repeated id and bytes that are
    not UTF-8. Of several faults, the one in the first bad row is reported.
    """
    with open_text(path, "composition", CompositionError) as handle:
        blocks = _row_blocks(path, handle)
        table = _CandidateRows(path, next(blocks), elements)
        for rows in blocks:
            table.add(rows)
            del rows  # hold one block at a time
        return table.result()


def _row_blocks(path: str, handle):
    """The header row of the candidate CSV open as ``handle`` (None for an
    empty file), then its data rows in blocks of up to ``_BLOCK_ROWS``,
    blank lines skipped.

    The header goes through ``csv.reader``. A block of data lines in which
    no line holds a ``"`` and none is longer than ``csv.field_size_limit()``
    is split on commas directly, since that is what the csv module's default
    dialect makes of such a line. From the first block that holds either,
    ``csv.reader`` reads the rest of the file, as a quoted field may span
    lines and blocks. The rows read before a byte that is not UTF-8, or
    before a csv error, are yielded before that error is raised; a csv error
    is raised as CompositionError naming its line.
    """
    reader, read = csv.reader(handle), 0  # `read`: lines read ahead of `reader`
    try:
        yield next(reader, None)
        read, limit, split = reader.line_num, csv.field_size_limit(), True
        while True:
            block, error = [], None
            try:  # extend keeps the rows read before an error
                block.extend(islice(handle, _BLOCK_ROWS) if split
                             else islice(filter(None, reader), _BLOCK_ROWS))
            except (csv.Error, UnicodeDecodeError) as exc:
                error = exc  # a fault in the rows read before it comes first
            if split and (any(map(str.__contains__, block, repeat('"')))
                          or max(map(len, block), default=0) > limit):
                # reading the handle on after a decode error would skip text
                reader = csv.reader(chain(block, handle if error is None else _raising(error)))
                split = False
                continue
            full = len(block) == _BLOCK_ROWS
            if split:  # such a line is its text before its line end, split on commas
                read += len(block)
                block = list(map(str.split, filter(None, map(str.rstrip, block, repeat("\r\n"))),
                                 repeat(",")))  # a blank line is skipped
            if block:
                yield block
            del block
            if error is not None:
                raise error
            if not full:
                return
    except csv.Error as exc:
        raise CompositionError(f"{path} line {read + reader.line_num}: {exc}") from None


def _raising(error: Exception):
    """An iterator whose first step raises ``error``."""
    raise error
    yield


def _fraction_fault(elements, vals, total) -> str:
    """The first non-finite or negative fraction of a row, else its bad sum."""
    for el, v in zip(elements, vals):
        if not math.isfinite(v):
            return f"non-finite fraction {v} for {el}"
        if v < 0:
            return f"negative fraction {v} for {el}"
    return f"fractions sum to {total}, expected 1"


class _CandidateRows:
    """The data rows of one candidate CSV, checked and kept a block at a time.

    A block is flattened to one list of cells in row order, and each column
    is a stride slice of it. Each check runs on the whole block at once.
    Numbers go through Python's ``float`` (numpy calls it on each ``str``
    cell) and row totals through ``math.fsum``, so a value's grammar and
    every bit read are those of a row-at-a-time reader. A block that fails
    a check is added again one row at a time, so the fault raised is the
    first bad row's.
    """

    def __init__(self, path: str, header: list[str] | None, elements):
        if header is None:
            raise CompositionError(f"composition file is empty: {path}")
        if elements is None:
            symbols = element_symbols()
            elements = tuple(c for c in header if c in symbols)
        else:
            elements = tuple(elements)
            if len(set(elements)) != len(elements):
                raise CompositionError(f"{path}: elements {list(elements)} repeat a symbol")
            missing = [el for el in elements if el not in header]
            if missing:
                raise CompositionError(f"{path}: missing element columns {missing}")
        if not elements:
            raise CompositionError(f"{path}: no element columns found in {header}")
        for name in elements + ("id", "current_density", "potential"):
            if header.count(name) > 1:
                raise CompositionError(f"{path}: column {name!r} repeats in the header")
        self.path, self.elements, self.width = path, elements, len(header)
        self.element_cols = [header.index(el) for el in elements]
        self.id_col, self.measured_col, self.potential_col = (
            header.index(name) if name in header else None
            for name in ("id", "current_density", "potential"))
        self.ids: dict[str, None] = {}  # every id so far, in row order
        self.blocks: list[np.ndarray] = []  # each block's fractions, renormalized
        self.measured: dict[str, float] = {}
        self.potential: float | None = None

    def add(self, rows: list[list[str]]):
        """Keep the next block of data rows, or raise the first fault in it."""
        try:
            self._add(rows)
        except CompositionError:
            for row in rows:  # the first bad row raises, checked against the rows kept
                self._add([row])
            raise

    def result(self):
        if not self.ids:
            raise CompositionError(f"{self.path}: no candidate rows")
        table = CandidateTable(self.elements, tuple(self.ids), np.concatenate(self.blocks))
        return table, self.measured, self.potential

    def _add(self, rows: list[list[str]]):
        """Keep a block of data rows when it passes every check, run in the
        order width, fractions, duplicate id, current_density, potential; else
        raise the first failed check as CompositionError naming the block's
        first row, which is the exact fault for a block of one row."""
        w, first, n = self.width, len(self.ids) + 1, len(rows)
        where = f"{self.path} row {first}"
        if set(map(len, rows)) != {w}:
            raise CompositionError(f"{where}: {len(rows[0])} fields, the header has {w}")
        cells = list(chain.from_iterable(rows))
        columns = []
        for col in self.element_cols:
            column = cells[col::w]
            if "" in column:  # an empty fraction cell counts as 0
                column = [c or "0" for c in column]
            columns.append(column)
        try:
            fractions = np.array(columns, dtype=np.float64).T
        except ValueError as exc:
            raise CompositionError(f"{where}: bad fraction ({exc})") from None
        try:
            totals = np.array(list(map(math.fsum, fractions.tolist())))
        except (ValueError, OverflowError):  # huge or opposite infinite values
            totals = np.full(n, math.nan)
        # NaN and inf fail the comparisons
        if not ((np.abs(totals - 1.0) <= PARSE_TOLERANCE) & (fractions.min(axis=1) >= 0.0)).all():
            fault = _fraction_fault(self.elements, fractions[0].tolist(), float(totals[0]))
            raise CompositionError(f"{where}: {fault}")
        if self.id_col is None:
            ids = list(map(str, range(first, first + n)))
        else:
            ids = list(map(str.strip, cells[self.id_col::w]))
            if "" in ids:  # a blank id is the row's number
                ids = [c or str(i) for i, c in enumerate(ids, first)]
        fresh = dict.fromkeys(ids)
        if len(fresh) != n or not fresh.keys().isdisjoint(self.ids.keys()):
            raise CompositionError(f"{where}: duplicate composition id {ids[0]!r}")
        measured = self._numbers(where, cells, self.measured_col, "current_density")
        potentials = self._numbers(where, cells, self.potential_col, "potential")
        if potentials:
            known = potentials[0][1] if self.potential is None else self.potential
            if any(v != known for _, v in potentials):
                raise CompositionError(
                    f"{where}: conflicting potentials {known} and {potentials[0][1]}")
        self.ids.update(fresh)
        self.blocks.append(fractions / totals[:, None])
        self.measured.update((ids[j], v) for j, v in measured)
        if potentials:
            self.potential = potentials[-1][1]

    def _numbers(self, where: str, cells, col, name: str):
        """(row offset, value) of each non-blank cell of column ``col``, none
        without the column; a cell that is not a finite number raises."""
        if col is None:
            return []
        texts = [(j, text) for j, text in enumerate(map(str.strip, cells[col::self.width]))
                 if text]
        try:
            values = [(j, float(text)) for j, text in texts]
        except ValueError:
            raise CompositionError(f"{where}: {name} {texts[0][1]!r} is not a number") from None
        if not all(math.isfinite(v) for _, v in values):
            raise CompositionError(f"{where}: non-finite {name} {values[0][1]}")
        return values
