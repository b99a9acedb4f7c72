"""Corpus ingestion and text preprocessing.

Reads abstract corpora from CSV as :class:`CorpusRows`, and cleans each
abstract into a token sequence (stopwords dropped, chemical element symbols
preserved case-sensitively). A preprocessed :class:`DocumentSet` holds its
tokens once, as an :class:`EncodedCorpus` of integer type ids, and no
abstract text: every batch, and the frequency-ranked vocabulary the
trainers use, is array work on it. :func:`open_text` is the one way every
text input of the package is opened: a missing file names its kind and
path, and a byte that is not UTF-8 names the file and its line.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import re
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources
from itertools import pairwise

import numpy as np

__all__ = [
    "CorpusError",
    "CorpusRows",
    "DocumentSet",
    "Vocabulary",
    "EncodedCorpus",
    "load_corpus",
    "preprocess",
    "preprocess_set",
    "element_symbols",
    "default_stopwords",
    "default_license_patterns",
    "open_text",
]


class CorpusError(ValueError):
    """Corpus file or vocabulary construction problem."""


@dataclass
class CorpusRows:
    """A corpus file's kept ids and abstracts, in file order, and its empty-abstract count."""

    ids: list[str]
    texts: list[str]
    skipped_empty: int = 0


_DocumentView = namedtuple("Document", ["id", "tokens"])


@dataclass(frozen=True)
class DocumentSet:
    """A preprocessed corpus: ids in file order, their tokens as one :class:`EncodedCorpus`
    and the empty-abstract count. Iterating decodes read-only ``(id, tokens)`` views."""

    ids: list[str]
    corpus: EncodedCorpus
    skipped_empty: int = 0

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(_DocumentView, self.ids, self.corpus)


@dataclass
class Vocabulary:
    """Dense token index ordered by descending frequency (lexicographic ties).

    ``counts`` is None for vocabularies restored from disk, where only the
    index order survives serialization.
    """

    index: dict[str, int]
    counts: dict[str, int] | None

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def tokens(self) -> list[str]:
        """Tokens in index order."""
        out = [""] * len(self.index)
        for token, i in self.index.items():
            out[i] = token
        return out


def _read_data_file(name: str) -> list[str]:
    text = resources.files("litscreen.data").joinpath(name).read_text("utf-8")
    return [line for line in map(str.strip, text.splitlines())
            if line and not line.startswith("#")]


@functools.cache
def element_symbols() -> frozenset[str]:
    """The 118 periodic-table symbols, case-sensitive."""
    return frozenset(_read_data_file("periodic_table.txt"))


@functools.cache
def default_stopwords() -> frozenset[str]:
    """Bundled English stopword list (lowercase)."""
    return frozenset(_read_data_file("stopwords.txt"))


@functools.cache
def default_license_patterns() -> tuple[re.Pattern, ...]:
    """Bundled license-boilerplate regexes, one per line, compiled case-insensitive."""
    return tuple(re.compile(p, re.IGNORECASE) for p in _read_data_file("license_patterns.txt"))


def _not_utf8_message(path: str, exc: UnicodeDecodeError) -> str:
    """An error message naming ``path`` and the line of its first byte that
    is not UTF-8. A text reader decodes ahead of the rows it returns, so
    ``exc`` cannot place the byte; a second read, as bytes and on this
    error path alone, does. Lines end at ``\\n``, ``\\r\\n`` or ``\\r``."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:
        line = len((data[:first.start] + b".").splitlines())
        return f"{path} line {line}: not UTF-8 text ({first.reason})"
    return f"{path}: not UTF-8 text ({exc.reason})"  # changed since


@contextlib.contextmanager
def open_text(path: str, what: str, error: type[Exception]):
    """``path`` open as UTF-8 text for the block, with a leading byte-order
    mark dropped and line ends passed through untranslated (``newline=""``,
    as the csv module needs).

    A missing file raises ``error("{what} file not found: {path}")``, and a
    byte that is not UTF-8, decoded anywhere in the block, raises ``error``
    naming the file and the line of the first such byte.
    """
    try:
        f = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    with f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise error(_not_utf8_message(path, exc)) from None


def load_corpus(
    path: str,
    text_column: str = "abstract",
    id_column: str | None = None,
) -> CorpusRows:
    """Read the id and abstract of each non-empty abstract row of a CSV file.

    Rows with an empty abstract are skipped and counted. A row too short to
    hold the text or id column, one the CSV reader rejects, or a repeated id
    raises CorpusError naming the file and the data row (1-based, blank
    lines uncounted, the default ids). So does text that is not UTF-8,
    naming the line, and a header the CSV reader rejects, or that repeats
    the text or id column, naming the file.
    """
    with open_text(path, "corpus", CorpusError) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusError(f"corpus file is empty: {path}") from None
        except csv.Error as exc:
            raise CorpusError(f"{path} header: {exc}") from None
        if text_column not in header:
            raise CorpusError(
                f"column {text_column!r} not found in {path} (columns: {header})"
            )
        text_idx = header.index(text_column)
        id_idx = None
        if id_column is not None:
            if id_column not in header:
                raise CorpusError(f"id column {id_column!r} not found in {path}")
            id_idx = header.index(id_column)
        for name in (text_column, id_column):
            if name is not None and header.count(name) > 1:
                raise CorpusError(f"{path}: column {name!r} repeats in the header")

        rows = CorpusRows([], [])
        seen_ids: set[str] = set()
        needed = text_idx if id_idx is None else max(text_idx, id_idx)
        row_num = 0
        try:
            for row_num, row in enumerate(filter(None, reader), 1):  # blank lines are not rows
                if len(row) <= needed:
                    raise CorpusError(f"{path} row {row_num}: row has {len(row)} fields, "
                                      f"need at least {needed + 1}")
                text = row[text_idx]
                if not text.strip():
                    rows.skipped_empty += 1
                    continue
                doc_id = row[id_idx] if id_idx is not None else str(row_num)
                if doc_id in seen_ids:
                    raise CorpusError(f"{path} row {row_num}: duplicate document id {doc_id!r}")
                seen_ids.add(doc_id)
                rows.ids.append(doc_id)
                rows.texts.append(text)
        except csv.Error as exc:
            raise CorpusError(f"{path} row {row_num + 1}: {exc}") from None
    return rows


_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def preprocess(text: str) -> list[str]:
    """Clean raw abstract text into tokens with the bundled lists.

    Order of operations: license-statement substrings are removed first,
    then the text is split on non-alphanumeric boundaries. Tokens matching
    an element symbol case-sensitively are kept verbatim; everything else
    is lowercased. Stopwords and single-character non-element tokens are
    dropped.
    """
    for pattern in default_license_patterns():
        text = pattern.sub(" ", text)
    elements = element_symbols()
    stopwords = default_stopwords()
    tokens = []
    for raw in _TOKEN_RE.findall(text):
        if raw in elements:
            tokens.append(raw)
            continue
        token = raw.lower()
        if len(token) > 1 and token not in stopwords:
            tokens.append(token)
    return tokens


def preprocess_set(rows: CorpusRows) -> DocumentSet:
    """Each abstract of ``rows`` cleaned by :func:`preprocess`, held as one
    encoding; the set keeps no abstract text."""
    return DocumentSet(rows.ids, EncodedCorpus.encode(map(preprocess, rows.texts)),
                       rows.skipped_empty)


class EncodedCorpus:
    """Token lists encoded as integer type ids: ``types`` holds the distinct
    tokens sorted, ``ids`` every token's index in ``types`` with the
    documents one after another, and ``lengths`` each document's token
    count.

    ``len()`` counts the documents, and iterating decodes each one's tokens
    as a tuple, one document at a time; :meth:`take` selects documents.
    Build one with :meth:`encode`.
    """

    def __init__(self, types: tuple[str, ...], ids: np.ndarray, lengths: np.ndarray):
        self.types = types
        self.ids = ids
        self.lengths = lengths
        self._bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._bounds[1:])

    @classmethod
    def encode(cls, token_lists) -> EncodedCorpus:
        """Encode any iterable of token sequences, numbering tokens as first seen, then sorted."""
        first_seen: dict[str, int] = {}
        ids, ends = [], [0]
        for tokens in token_lists:  # one at a time, so only the types stay as strings
            ids += [first_seen.setdefault(t, len(first_seen)) for t in tokens]
            ends.append(len(ids))
        types = tuple(sorted(first_seen))
        rank = np.empty(len(types), dtype=np.int64)
        rank[[first_seen[t] for t in types]] = np.arange(len(types))
        return cls(types, rank[np.array(ids, dtype=np.int64)], np.diff(ends))

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        types = self.types
        for lo, hi in pairwise(self._bounds.tolist()):
            yield tuple([types[i] for i in self.ids[lo:hi].tolist()])

    def take(self, docs) -> EncodedCorpus:
        """The documents at the 1-D integer indices ``docs``, in that order,
        with the same types."""
        docs = np.asarray(docs)
        if docs.ndim != 1:
            raise IndexError(f"document indices must be a 1-D array, got shape {docs.shape}")
        if docs.size and docs.dtype.kind not in "iu":
            raise IndexError(f"document indices must be integers, got dtype {docs.dtype}")
        docs = docs.astype(np.int64, copy=False)
        if docs.size and not (0 <= docs.min() and docs.max() < len(self.lengths)):
            raise IndexError(f"document indices out of range for {len(self.lengths)} documents")
        lengths = self.lengths[docs]
        # each taken token's position here, less its position in the result
        shift = np.repeat(self._bounds[docs] - (np.cumsum(lengths) - lengths), lengths)
        return EncodedCorpus(self.types, self.ids[shift + np.arange(len(shift))], lengths)

    @functools.cached_property
    def counts(self) -> np.ndarray:
        """Each type's token count, counted on first read."""
        return np.bincount(self.ids, minlength=len(self.types))

    def vocabulary(self, min_count: int = 1) -> tuple[Vocabulary, np.ndarray]:
        """The vocabulary of the tokens counted at least ``min_count``
        times, and each type's index in it, -1 for a type it leaves out.

        Tokens are indexed by descending count, ties by token: a stable sort
        of the counts, as ``types`` is sorted. The vocabulary's ``counts``
        dict is in index order. CorpusError if no token is kept.
        """
        if min_count < 1:
            raise ValueError(f"min_count must be positive, got {min_count}")
        counts = self.counts
        order = np.argsort(-counts, kind="stable")
        order = order[counts[order] >= min_count]
        if not order.size:
            raise CorpusError(f"no token reaches min_count={min_count}; vocabulary is empty")
        lookup = np.full(len(counts), -1, dtype=np.int64)
        lookup[order] = np.arange(order.size)
        tokens = [self.types[i] for i in order.tolist()]
        vocab = Vocabulary(index=dict(zip(tokens, range(len(tokens)))),
                           counts=dict(zip(tokens, counts[order].tolist())))
        return vocab, lookup
