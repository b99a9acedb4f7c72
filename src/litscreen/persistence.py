"""Save/load for every pipeline artifact, with bit-stable round-trips.

A model is three files: its matrix in ``{base}.npy``, written by
``np.save`` as little-endian float64 in C order; one UTF-8 label per row,
one per line, in ``{base}.labels``; and its format and config as
``key = value`` lines in ``{base}.meta``. A word model's rows are its token
vectors: nothing trains from a loaded model, so the Huffman node matrix is
not written. Only the current ``litscreen-wordmodel/3`` and
``litscreen-docmodel/2`` formats load; any other ``.meta`` format fails
naming the file. The ``.npy`` header is read and checked with
``numpy.lib.format`` before any value is, so nothing is ever unpickled, and
the file must hold exactly the values its header declares. A non-finite value,
and a label that holds a line break or repeats an earlier one (a ``.labels``
row or a tokens file's id), fail naming the file and the row, on save before
any file is opened and on load. A refinement run's log, ``iterations.csv``,
and the ``screen --out`` table are one CSV each. Writers take typed values
and spell each field and ``.meta`` or manifest value by one rule: None or
nan is empty, a bool ``true`` or ``false``, a float ``%.17g`` (exact for
64-bit floats), a tuple or list its items joined by commas, else ``str``.
Writers go through a temp file and an atomic rename so readers never
observe a partial artifact, and a model's ``.meta`` is removed first and
written last, so a model saved only in part does not load. A tokens file
is a preprocessed corpus: a ``litscreen-tokens/1 N`` header, then
one line per document, its id, a tab and its space-joined tokens.
``load_tokens`` returns it as the same kind of
:class:`~litscreen.corpus.DocumentSet` that ``preprocess_set`` returns. A
text file that is not UTF-8 fails naming the file and the line.
"""
from __future__ import annotations

import contextlib
import os
import re
import tempfile
import tokenize
from dataclasses import asdict, fields
from itertools import islice

import numpy as np
import numpy.lib.format as npy

from .corpus import DocumentSet, EncodedCorpus, Vocabulary, open_text
from .embedding import DocModel, EmbeddingConfig, WordModel

__all__ = [
    "PersistenceError",
    "save_model",
    "load_model",
    "save_doc_model",
    "load_doc_model",
    "save_tokens",
    "load_tokens",
    "save_selection",
    "save_iteration_log",
    "save_scores",
    "write_manifest",
    "file_digest",
    "write_csv",
    "read_kv",
    "config_from_pairs",
    "format_floats",
]

WORD_FORMAT = "litscreen-wordmodel/3"
DOC_FORMAT = "litscreen-docmodel/2"
TOKENS_FORMAT = "litscreen-tokens/1"
MANIFEST_FORMAT = "litscreen-manifest/1"


# Tables are built and written this many rows at a time, so memory stays
# flat however long they are.
_BLOCK_ROWS = 2048
# What csv.writer quotes (QUOTE_MINIMAL) when its line end is "\r\n".
_NEEDS_QUOTES = re.compile('[,"\n\r]')
_FLOAT = "%.17g"  # every float written as text


class PersistenceError(ValueError):
    """Artifact file is missing, truncated, or malformed."""


def _text(value) -> str:
    """A value as every artifact writes it, by the rule the module docstring gives."""
    if isinstance(value, float):
        return _FLOAT % value if value == value else ""  # nan is unequal to itself
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(map(_text, value))
    return "" if value is None else str(value)


def format_floats(values: np.ndarray) -> list[str]:
    """Each value of a 1-D array as ``_text`` spells it, from one ``%`` call."""
    text = (_FLOAT + "\n") * len(values) % tuple(values.tolist())
    return text.replace("nan", "").split("\n")[:-1]  # only a nan's field holds "nan"


@contextlib.contextmanager
def _atomic_open(path: str):
    """A binary file under a temp name beside ``path``, renamed onto it when
    the block ends and deleted if it raises; creates parent dirs."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str):
    """Write UTF-8 text via a temp file and rename; creates parent dirs."""
    with _atomic_open(path) as f:
        f.write(text.encode("utf-8"))


_F8 = np.dtype("<f8")
_NPY_HEADERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}
# What numpy's header readers raise on forged bytes, beyond the ValueError
# they document: the header is a Python literal, parsed with ast and, on a
# syntax error, re-tokenized (each type here was seen by fuzzing them).
_BAD_NPY_HEADER = (ValueError, TypeError, IndexError, SyntaxError, tokenize.TokenError)


def _reject_non_finite(matrix: np.ndarray, path: str):
    """Fail naming the file and the first row that holds a nan or an inf."""
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise PersistenceError(f"{path}: non-finite value in row {int(bad.argmax()) + 1}")


def _read_matrix(path: str) -> np.ndarray:
    """The finite (n, d) ``<f8`` C-order matrix of a ``.npy`` file.

    The header is checked before any value is read, and the file must hold
    exactly the bytes its shape needs, so a forged shape never sizes an
    allocation and no trailing byte is ignored.
    """
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise PersistenceError(f"matrix file not found: {path}") from None
    with f:
        try:
            read_header = _NPY_HEADERS.get(npy.read_magic(f))
            if read_header is None:
                raise ValueError("unsupported format version")
            shape, fortran_order, dtype = read_header(f)
        except _BAD_NPY_HEADER as exc:
            raise PersistenceError(f"{path}: not a .npy matrix ({exc})") from None
        if dtype != _F8:
            raise PersistenceError(f"{path}: dtype {dtype.str}, expected <f8")
        if fortran_order:
            raise PersistenceError(f"{path}: Fortran-order array, expected C order")
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 1:
            raise PersistenceError(f"{path}: shape {shape}, expected (rows, columns >= 1)")
        n, dim = shape
        size, expected = os.fstat(f.fileno()).st_size - f.tell(), 8 * n * dim
        if size < expected:
            raise PersistenceError(f"{path}: truncated, {size} of the {expected} bytes "
                                   f"a {n} x {dim} matrix needs")
        if size > expected:
            raise PersistenceError(f"{path}: {size - expected} bytes past the {n} x {dim} matrix")
        matrix = np.fromfile(f, dtype=_F8, count=n * dim).reshape(n, dim)
    _reject_non_finite(matrix, path)
    return matrix


def _read_labels(path: str) -> list[str]:
    """One label per line of a UTF-8 file, each ended by ``\\n``; read as
    bytes, since ``open_text``'s ``utf-8-sig`` would drop a leading U+FEFF."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        raise PersistenceError(f"labels file not found: {path}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise PersistenceError(f"{path} row {row}: label is not UTF-8") from None
    if text and not text.endswith("\n"):
        raise PersistenceError(f"{path}: truncated, the last label has no line end")
    labels = text[:-1].split("\n") if text else []
    _check_labels(labels, path, "label")
    return labels


def _check_labels(labels, path: str, what: str):
    """Fail naming the file and the row of the first label holding a line break or seen before."""
    seen = set()
    for row, label in enumerate(labels, 1):
        if "\n" in label or "\r" in label:
            raise PersistenceError(f"{path} row {row}: {what} holds a line break")
        if label in seen:
            raise PersistenceError(f"{path} row {row}: duplicate {what} {label!r}")
        seen.add(label)


def _save_labeled_matrix(base: str, labels, matrix: np.ndarray, meta: dict) -> list[str]:
    """Write ``{base}.npy``, ``{base}.labels`` and then ``{base}.meta``, and
    return their paths in that order. An existing ``{base}.meta`` is
    removed first.

    Every check runs before a file is opened: one label per row, each
    passing ``_check_labels``, at least one column, and only finite values.
    """
    matrix_path, labels_path, meta_path = base + ".npy", base + ".labels", base + ".meta"
    matrix = np.ascontiguousarray(matrix, dtype=_F8)
    n, dim = matrix.shape
    if len(labels) != n:
        raise PersistenceError(f"{labels_path}: {len(labels)} labels for {n} rows")
    _check_labels(labels, labels_path, "label")
    if dim < 1:
        raise PersistenceError(f"{matrix_path}: a matrix without columns cannot be saved")
    _reject_non_finite(matrix, matrix_path)
    label_bytes = "".join(label + "\n" for label in labels).encode("utf-8")

    # the old .meta goes first and the new one comes last, so a save cut
    # short leaves no model that loads, never new values under old labels
    with contextlib.suppress(FileNotFoundError):
        os.unlink(meta_path)
    with _atomic_open(matrix_path) as f:
        np.save(f, matrix, allow_pickle=False)
    with _atomic_open(labels_path) as f:
        f.write(label_bytes)
    _write_kv(meta_path, meta)
    return [matrix_path, labels_path, meta_path]


def _write_kv(path: str, pairs: dict):
    _atomic_write(path, "".join(f"{k} = {_text(v)}\n" for k, v in pairs.items()))


def read_kv(path: str, what: str) -> dict[str, str]:
    """Parse ``key = value`` lines, skipping blanks and ``#`` comments; a
    line without ``=`` fails naming the file and the line, a repeated key
    naming the file and the key."""
    with open_text(path, what, PersistenceError) as f:
        pairs = {}
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise PersistenceError(f"{path} line {n}: expected key = value, got {line!r}")
            key = key.strip()
            if key in pairs:
                raise PersistenceError(f"{path}: repeated key {key!r}")
            pairs[key] = value.strip()
    return pairs


def config_from_pairs(pairs: dict[str, str], path: str) -> EmbeddingConfig:
    """The embedding config that ``key = value`` strings read from ``path``
    set; a key left out keeps its default and other keys are ignored. A
    value that does not parse, or that the config rejects, raises
    PersistenceError naming the file and the key."""
    values = {}
    for f in fields(EmbeddingConfig):
        if f.name in pairs:
            cast = type(f.default)
            try:
                values[f.name] = cast(pairs[f.name])
            except ValueError:
                raise PersistenceError(
                    f"{path}: {f.name} = {pairs[f.name]!r} does not parse as {cast.__name__}"
                ) from None
    try:
        return EmbeddingConfig(**values)
    except ValueError as exc:
        raise PersistenceError(f"{path}: {exc}") from None


def _load_labeled_matrix(base: str, kind: str, fmt: str):
    """The config in ``{base}.meta``, whose format must be ``fmt``, the
    matrix in ``{base}.npy``, whose columns must number the config's
    ``dim``, and one unique label per matrix row in ``{base}.labels``."""
    meta_path, matrix_path, labels_path = base + ".meta", base + ".npy", base + ".labels"
    meta = read_kv(meta_path, f"{kind} meta")
    if meta.get("format", "") != fmt:
        raise PersistenceError(f"{meta_path}: unknown {kind} format {meta.get('format', '')!r}")
    missing = [f.name for f in fields(EmbeddingConfig) if f.name not in meta]
    if missing:
        raise PersistenceError(f"{meta_path}: missing config key {missing[0]!r}")
    config = config_from_pairs(meta, meta_path)
    matrix = _read_matrix(matrix_path)
    if matrix.shape[1] != config.dim:
        raise PersistenceError(
            f"{meta_path}: dim = {config.dim}, but {matrix_path} has {matrix.shape[1]} columns"
        )
    labels = _read_labels(labels_path)
    if len(labels) != len(matrix):
        raise PersistenceError(
            f"{labels_path}: {len(labels)} labels for the {len(matrix)} rows of {matrix_path}"
        )
    return config, labels, matrix


def save_model(model: WordModel, base: str) -> list[str]:
    """Write the token vectors, the tokens and the format and config of a
    word model under ``base``; returns the paths written, in write order."""
    return _save_labeled_matrix(base, model.vocab.tokens(), model.vectors,
                                {"format": WORD_FORMAT, **asdict(model.config)})


def load_model(base: str) -> WordModel:
    """Restore a word model for querying: no counts and no node matrix."""
    config, tokens, vectors = _load_labeled_matrix(base, "word model", WORD_FORMAT)
    vocab = Vocabulary(index={t: i for i, t in enumerate(tokens)}, counts=None)
    return WordModel(
        vocab=vocab,
        vectors=vectors,
        node_vectors=None,
        config=config,
        seed=config.seed,
    )


def save_doc_model(model: DocModel, base: str) -> list[str]:
    """Write the document vectors, the ids and the format and config of a
    document model under ``base``; returns the paths written, in write order."""
    return _save_labeled_matrix(base, model.ids, model.vectors,
                                {"format": DOC_FORMAT, **asdict(model.config)})


def load_doc_model(base: str) -> DocModel:
    config, ids, vectors = _load_labeled_matrix(base, "doc model", DOC_FORMAT)
    return DocModel(ids=ids, vectors=vectors, config=config)


def save_tokens(docs: DocumentSet, path: str):
    """One line per preprocessed document: id, tab, space-joined tokens. The
    first row ``load_tokens`` would not read back as written (an id holding a
    tab or refused by ``_check_labels``, or a token that is empty or holds
    whitespace) fails naming the file and the row, before the file is opened."""
    ids, corpus = docs.ids, docs.corpus
    # tokens load_tokens would split, drop or strip; each distinct one is checked once
    spoilt = np.flatnonzero(np.array([t.split() != [t] for t in corpus.types], bool)[corpus.ids])
    faults = [row for row, doc_id in enumerate(ids, 1) if "\t" in doc_id][:1]
    if spoilt.size:
        faults.append(int(np.searchsorted(np.cumsum(corpus.lengths), spoilt[0], "right")) + 1)
    if faults:
        row = min(faults)
        _check_labels(ids[:row], path, "document id")  # an earlier row's fault comes first
        raise PersistenceError(f"{path} row {row}: " + (
            "document id holds a tab" if "\t" in ids[row - 1]
            else f"token {corpus.types[corpus.ids[spoilt[0]]]!r} is empty or holds whitespace"))
    _check_labels(ids, path, "document id")
    _atomic_write(path, f"{TOKENS_FORMAT} {len(ids)}\n" + "".join(
        doc_id + "\t" + " ".join(tokens) + "\n" for doc_id, tokens in zip(ids, corpus)))


def load_tokens(path: str) -> DocumentSet:
    with open_text(path, "tokens", PersistenceError) as f:
        header = f.readline().split()
        if len(header) != 2 or header[0] != TOKENS_FORMAT:
            raise PersistenceError(f"{path}: not a {TOKENS_FORMAT} file")
        if not (header[1].isascii() and header[1].isdigit()):
            raise PersistenceError(f"{path}: bad document count {header[1]!r}")
        n = int(header[1])
        ids = []

        def documents():  # encoded as read, so no document's token strings are kept
            for i in range(n):
                line = f.readline()
                if not line:
                    raise PersistenceError(f"{path}: truncated at document {i + 1} of {n}")
                doc_id, tab, rest = line.rstrip("\r\n").partition("\t")
                if not tab:
                    raise PersistenceError(f"{path} row {i + 1}: no tab after the document id")
                ids.append(doc_id)
                yield rest.split()

        corpus = EncodedCorpus.encode(documents())
        if any(line.strip() for line in f):
            raise PersistenceError(f"{path}: more than the {n} documents its header declares")
    _check_labels(ids, path, "document id")
    return DocumentSet(ids, corpus)


def write_csv(path: str, header, rows):
    """A header row and then ``rows``, each a sequence of str fields, as CSV
    with LF line ends, written atomically. A field holding a comma, a quote,
    a line feed or a carriage return is quoted, with its quotes doubled, so
    ``csv.reader`` reads every row back whole, and a row of one empty field
    is written as ``""``. These are the bytes of ``csv.writer`` with
    ``lineterminator="\\r\\n"``, each row's ``\\r\\n`` then written as ``\\n``."""
    rows = iter(rows)
    block = [header]
    with _atomic_open(path) as f:
        while block:
            f.write(_csv_text(block).encode("utf-8"))
            block = list(islice(rows, _BLOCK_ROWS))


def _csv_text(rows) -> str:
    """Rows as CSV text, from one join when no field needs quoting."""
    text = "\n".join(map(",".join, rows)) + "\n"
    separators = sum(map(len, rows)) - len(rows)
    # no field holds a quote, a comma or a line break, and none is a lone empty one
    if ('"' not in text and "\r" not in text and text.count(",") == separators
            and text.count("\n") == len(rows) and min(map(len, rows)) > 1):
        return text
    return "".join(map(_csv_line, rows))


def _csv_line(row) -> str:
    if len(row) == 1 and not row[0]:
        return '""\n'
    return ",".join('"' + f.replace('"', '""') + '"' if _NEEDS_QUOTES.search(f) else f
                    for f in row) + "\n"


def save_selection(order, ids, path: str):
    """CSV of a selection order: rank, document id, maximin distance at selection time."""
    write_csv(path, ["rank", "doc_id", "min_distance"],
              ((_text(rank), ids[idx], _text(dist))  # an id is already text
               for rank, (idx, dist) in enumerate(zip(order.indices, order.distances))))


def save_iteration_log(records, path: str):
    """CSV log of refinement records: t, documents_used, vocab_complete, centroid, displacement."""
    write_csv(path, ["t", "documents_used", "vocab_complete", "centroid_x", "centroid_y",
                     "displacement"],
              (list(map(_text, (rec.iteration, rec.documents_used, rec.vocab_complete,
                                *(rec.centroid or (None, None)), rec.displacement)))
               for rec in records))


def save_scores(scores: np.ndarray, ids, front, path: str):
    """CSV of each candidate's id, its two similarity scores and whether it
    is on the Pareto front (1 or 0), formatted a block at a time."""
    on_front = np.full(len(ids), "0")
    on_front[front] = "1"
    blocks = (slice(i, i + _BLOCK_ROWS) for i in range(0, len(ids), _BLOCK_ROWS))
    write_csv(path, ["id", "s_dielectric", "s_conductivity", "on_front"],
              (row for b in blocks for row in zip(
                  ids[b], format_floats(scores[b, 0]), format_floats(scores[b, 1]),
                  on_front[b].tolist())))


def file_digest(path: str) -> str:
    import hashlib  # only `refine` needs it; loading OpenSSL costs every command

    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def write_manifest(pairs: dict, path: str):
    """The format line, then ``pairs``' typed values, each as ``key = value``."""
    ordered = {"format": MANIFEST_FORMAT}
    ordered.update(pairs)
    _write_kv(path, ordered)
