"""Corpus ingestion and text preprocessing.

Reads abstract corpora from CSV, cleans each abstract into a token
sequence (stopwords dropped, chemical element symbols preserved
case-sensitively), and builds the frequency-ranked vocabulary used by
the embedding trainers.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field, replace
from importlib import resources

__all__ = [
    "CorpusError",
    "Document",
    "DocumentSet",
    "Vocabulary",
    "load_corpus",
    "preprocess",
    "preprocess_set",
    "build_vocabulary",
    "element_symbols",
    "default_stopwords",
    "default_license_patterns",
]


class CorpusError(ValueError):
    """Corpus file or vocabulary construction problem."""


@dataclass
class Document:
    """One abstract: stable id, raw text, and (after preprocessing) tokens."""

    id: str
    text: str
    tokens: tuple[str, ...] | None = None


@dataclass
class DocumentSet:
    """Ordered collection of documents; iteration order equals file order."""

    documents: list[Document]
    skipped_empty: int = 0
    skipped_malformed: list[tuple[int, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def token_lists(self) -> list[tuple[str, ...]]:
        out = []
        for doc in self.documents:
            if doc.tokens is None:
                raise CorpusError(f"document {doc.id!r} has not been preprocessed")
            out.append(doc.tokens)
        return out

    def ids(self) -> list[str]:
        return [doc.id for doc in self.documents]


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
    lines = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def element_symbols() -> frozenset[str]:
    """The 118 periodic-table symbols, case-sensitive."""
    return frozenset(_read_data_file("periodic_table.txt"))


def default_stopwords() -> frozenset[str]:
    """Bundled English stopword list (lowercase)."""
    return frozenset(_read_data_file("stopwords.txt"))


def default_license_patterns() -> list[str]:
    """Bundled license-boilerplate regexes, one per line."""
    return _read_data_file("license_patterns.txt")


def load_corpus(
    path: str,
    text_column: str = "abstract",
    id_column: str | None = None,
    strict: bool = False,
) -> DocumentSet:
    """Read one Document per non-empty abstract row of a CSV file.

    Rows with an empty abstract are skipped and counted; rows too short to
    contain the abstract column, or that the CSV reader rejects, are
    recorded as malformed (or raised when ``strict``) and reading goes on.
    Default ids are 1-based data-row numbers. Text that is not UTF-8, and a
    header the CSV reader rejects, raise CorpusError naming the file.
    """
    try:  # utf-8-sig, so that a byte-order mark does not join the first column's name
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise CorpusError(f"corpus file not found: {path}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusError(f"corpus file is empty: {path}") from None
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from None
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

        docset = DocumentSet(documents=[])
        seen_ids: set[str] = set()
        row_num = 0
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from None
            except csv.Error as exc:
                # the reader resumes at the next line, so later rows still load
                row_num += 1
                if strict:
                    raise CorpusError(f"{path} row {row_num}: {exc}") from exc
                docset.skipped_malformed.append((row_num, str(exc)))
                continue
            if not row:
                continue  # fully blank line, not a data row
            row_num += 1
            needed = text_idx if id_idx is None else max(text_idx, id_idx)
            if len(row) <= needed:
                msg = f"row has {len(row)} fields, need at least {needed + 1}"
                if strict:
                    raise CorpusError(f"{path} row {row_num}: {msg}")
                docset.skipped_malformed.append((row_num, msg))
                continue
            text = row[text_idx]
            if not text.strip():
                docset.skipped_empty += 1
                continue
            doc_id = row[id_idx] if id_idx is not None else str(row_num)
            if doc_id in seen_ids:
                raise CorpusError(f"{path} row {row_num}: duplicate document id {doc_id!r}")
            seen_ids.add(doc_id)
            docset.documents.append(Document(id=doc_id, text=text))
    return docset


_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def preprocess(
    text: str,
    elements: frozenset[str] | set[str] | None = None,
    stopwords: frozenset[str] | set[str] | None = None,
    license_patterns: list[str] | None = None,
) -> list[str]:
    """Clean raw abstract text into tokens.

    Order of operations: license-statement substrings are removed first,
    then the text is split on non-alphanumeric boundaries. Tokens matching
    an element symbol case-sensitively are kept verbatim; everything else
    is lowercased. Stopwords and single-character non-element tokens are
    dropped.
    """
    if elements is None:
        elements = element_symbols()
    if stopwords is None:
        stopwords = default_stopwords()
    if license_patterns is None:
        license_patterns = default_license_patterns()

    for pattern in license_patterns:
        text = re.sub(pattern, " ", text, flags=re.IGNORECASE)

    tokens = []
    for raw in _TOKEN_RE.findall(text):
        if raw in elements:
            tokens.append(raw)
            continue
        token = raw.lower()
        if token in stopwords:
            continue
        if len(token) < 2:
            continue
        tokens.append(token)
    return tokens


def preprocess_set(docs: DocumentSet) -> DocumentSet:
    """Return a copy of ``docs`` with tokens filled for every document, using
    the bundled element, stopword and license lists."""
    elements = element_symbols()
    stopwords = default_stopwords()
    license_patterns = default_license_patterns()
    processed = [
        replace(doc, tokens=tuple(preprocess(doc.text, elements, stopwords, license_patterns)))
        for doc in docs.documents
    ]
    return replace(docs, documents=processed)


def build_vocabulary(token_lists, min_count: int = 1) -> Vocabulary:
    """Index tokens with frequency >= min_count, by descending count then token.

    Accepts any iterable of token sequences (e.g. ``DocumentSet.token_lists()``).
    """
    if min_count < 1:
        raise ValueError(f"min_count must be positive, got {min_count}")
    counts: dict[str, int] = {}
    for tokens in token_lists:
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
    kept = {t: c for t, c in counts.items() if c >= min_count}
    if not kept:
        raise CorpusError(f"no token reaches min_count={min_count}; vocabulary is empty")
    ordered = sorted(kept, key=lambda t: (-kept[t], t))
    return Vocabulary(index={t: i for i, t in enumerate(ordered)}, counts=kept)
