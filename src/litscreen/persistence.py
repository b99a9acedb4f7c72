"""Save/load for every pipeline artifact, with bit-stable round-trips.

A word model is saved as its token vectors and config only: nothing
trains from a loaded model, so the Huffman node matrix is not written.
Only the current ``litscreen-wordmodel/2`` format loads; any other
``.meta`` format, the older ``/1`` included, fails naming the file. A
refinement run's per-iteration log is one CSV, ``iterations.csv``.
All numeric text is written with 17 significant digits, which is exact
for 64-bit floats: save -> load -> save reproduces the file byte for
byte. The ``.vec``/``.dvec`` matrices go through the text codec of the
compiled kernel library (:mod:`litscreen.kernel`): rows are formatted a
block at a time with ``%.17g``, which writes what Python's
``f"{x:.17g}"`` does, and read back a row at a time with ``strtod``
behind a plain-decimal check, so neither the file nor its text is ever
held whole. A non-finite value fails the save, naming the file and row.
Writers go through a temp file and an atomic rename so readers never
observe a partial artifact. A text file that is not UTF-8 fails naming
the file.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import os
import tempfile

import numpy as np

from .corpus import Document, DocumentSet, Vocabulary
from .embedding import DocModel, EmbeddingConfig, WordModel
from .kernel import library
from .refine import IterationRecord
from .selection import SelectionOrder

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
    "write_manifest",
    "file_digest",
    "atomic_write",
    "read_kv",
    "config_pairs",
]

WORD_FORMAT = "litscreen-wordmodel/2"
DOC_FORMAT = "litscreen-docmodel/1"
TOKENS_FORMAT = "litscreen-tokens/1"
MANIFEST_FORMAT = "litscreen-manifest/1"


class PersistenceError(ValueError):
    """Artifact file is missing, truncated, or malformed."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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


def atomic_write(path: str, text: str):
    """Write UTF-8 text via a temp file and rename; creates parent dirs."""
    with _atomic_open(path) as f:
        f.write(text.encode("utf-8"))


def _read_matrix_file(path: str, what: str) -> tuple[list[str], np.ndarray]:
    """Read an 'N D' header and exactly N labeled rows; errors name the byte offset.

    The file is read in binary a row at a time, each row parsed straight
    into the matrix by one kernel-library call: values must be plain
    decimal numbers, and CRLF line ends load.
    """
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise PersistenceError(f"{what} file not found: {path}") from None
    with f:
        header = f.readline()
        if not header:
            raise PersistenceError(f"{path}: empty {what} file (byte 0)")
        offset = len(header)
        parts = header.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts) or int(parts[1]) < 1:
            raise PersistenceError(f"{path}: bad header {header.decode('utf-8', 'replace')!r}")
        n, dim = int(parts[0]), int(parts[1])

        parse_row = library().parse_row
        labels: list[str] = []
        matrix = np.empty((n, dim), dtype=np.float64)
        row_address = matrix.ctypes.data
        for i in range(n):
            line = f.readline()
            if not line:
                raise PersistenceError(
                    f"{path}: truncated {what} file, expected row {i + 1} of {n} "
                    f"near byte {offset}"
                )
            offset += len(line)
            label, _, values = line.partition(b"\t")
            got = parse_row(values, len(values), row_address, dim)
            if got != dim:
                if got >= 0:
                    raise PersistenceError(
                        f"{path}: row {i + 1} has {got} values, expected {dim} "
                        f"(near byte {offset})"
                    )
                if got == -1:
                    raise PersistenceError(f"{path}: unparsable float in row {i + 1}")
                if got == -2:
                    raise PersistenceError(f"{path}: non-finite value in row {i + 1}")
                raise RuntimeError("the kernel library could not switch to the C locale")
            try:
                labels.append(label.decode("utf-8"))
            except UnicodeDecodeError:
                raise PersistenceError(f"{path}: label of row {i + 1} is not UTF-8") from None
            row_address += matrix.strides[0]
        _reject_extra_rows(f, path, n, "row")
    return labels, matrix


def _reject_extra_rows(f, path: str, n: int, what: str):
    """Fail on any non-blank line after the n rows a header declared."""
    if any(line.strip() for line in f):
        raise PersistenceError(f"{path}: more than the {n} {what}s its header declares")


# Text bytes per value: %.17g writes at most 24 (-1.2345678901234567e-308),
# plus a separator. The writer formats blocks of rows into one buffer of
# about _BLOCK_BYTES.
_VALUE_BYTES = 25
_BLOCK_BYTES = 1 << 18


def _write_matrix_file(path: str, labels, matrix: np.ndarray):
    """Write an 'N D' header and one ``label<TAB>values`` line per row.

    The kernel library formats the values a block of rows at a time, and
    each block is streamed to the file, so the text is never held whole.
    A non-finite value fails naming the file and row.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    n, dim = matrix.shape
    heads = []
    for label in labels:
        if "\t" in label or "\n" in label:
            raise PersistenceError(f"label {label!r} contains tab or newline")
        heads.append(label.encode("utf-8") + b"\t")
    if len(heads) != n:
        raise PersistenceError(f"{path}: {len(heads)} labels for {n} rows")
    if dim < 1:
        raise PersistenceError(f"{path}: a matrix without columns cannot be saved")

    format_rows = library().format_rows
    block = max(1, _BLOCK_BYTES // (dim * _VALUE_BYTES))
    buf = ctypes.create_string_buffer(min(block, n) * dim * _VALUE_BYTES)
    text = memoryview(buf)
    ends = np.empty(block, dtype=np.int64)
    with _atomic_open(path) as f:
        f.write(f"{n} {dim}\n".encode())
        for start in range(0, n, block):
            rows = matrix[start:start + block]
            written = format_rows(rows, len(rows), dim, buf, len(buf), ends)
            if written != len(rows):
                if written < 0:
                    raise RuntimeError("the kernel library could not format the rows")
                raise PersistenceError(f"{path}: non-finite value in row {start + written + 1}")
            row_start = 0
            for head, row_end in zip(heads[start:start + len(rows)], ends[:len(rows)].tolist()):
                f.write(head)
                f.write(text[row_start:row_end])
                row_start = row_end


@contextlib.contextmanager
def _naming_undecodable(path: str):
    """Re-raise a UTF-8 decoding error of a text file as one naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise PersistenceError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _write_kv(path: str, pairs: dict[str, str]):
    atomic_write(path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))


def read_kv(path: str, what: str) -> dict[str, str]:
    """Parse ``key = value`` lines, skipping blanks and ``#`` comments."""
    try:
        f = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise PersistenceError(f"{what} file not found: {path}") from None
    with f, _naming_undecodable(path):
        pairs = {}
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise PersistenceError(f"{path}: bad line {line!r}")
            pairs[key.strip()] = value.strip()
    return pairs


def config_pairs(config: EmbeddingConfig) -> dict[str, str]:
    """An embedding config as the ``key = value`` strings every artifact writes."""
    return {
        "dim": str(config.dim),
        "window": str(config.window),
        "epochs": str(config.epochs),
        "alpha0": _fmt(config.alpha0),
        "alpha_min": _fmt(config.alpha_min),
        "min_count": str(config.min_count),
        "seed": str(config.seed),
    }


def _config_from_pairs(pairs: dict[str, str], path: str) -> EmbeddingConfig:
    try:
        return EmbeddingConfig(
            dim=int(pairs["dim"]),
            window=int(pairs["window"]),
            epochs=int(pairs["epochs"]),
            alpha0=float(pairs["alpha0"]),
            alpha_min=float(pairs["alpha_min"]),
            min_count=int(pairs["min_count"]),
            seed=int(pairs["seed"]),
        )
    except KeyError as exc:
        raise PersistenceError(f"{path}: missing config key {exc}") from None


def save_model(model: WordModel, base: str):
    """Write `{base}.vec` (token vectors) and `{base}.meta` (format and config)."""
    _write_matrix_file(base + ".vec", model.vocab.tokens(), model.vectors)
    meta = {"format": WORD_FORMAT}
    meta.update(config_pairs(model.config))
    _write_kv(base + ".meta", meta)


def load_model(base: str) -> WordModel:
    """Restore a word model for querying: no counts and no node matrix."""
    meta = read_kv(base + ".meta", "model meta")
    fmt = meta.get("format", "")
    if fmt != WORD_FORMAT:
        raise PersistenceError(f"{base}.meta: unknown word model format {fmt!r}")
    config = _config_from_pairs(meta, base + ".meta")
    tokens, vectors = _read_matrix_file(base + ".vec", "vector")
    if len(set(tokens)) != len(tokens):
        raise PersistenceError(f"{base}.vec: duplicate token")
    vocab = Vocabulary(index={t: i for i, t in enumerate(tokens)}, counts=None)
    return WordModel(
        vocab=vocab,
        vectors=vectors,
        node_vectors=None,
        config=config,
        seed=config.seed,
    )


def save_doc_model(model: DocModel, base: str):
    """Write `{base}.dvec` and `{base}.meta`."""
    _write_matrix_file(base + ".dvec", model.ids, model.vectors)
    meta = {"format": DOC_FORMAT}
    meta.update(config_pairs(model.config))
    _write_kv(base + ".meta", meta)


def load_doc_model(base: str) -> DocModel:
    meta = read_kv(base + ".meta", "doc model meta")
    fmt = meta.get("format", "")
    if fmt != DOC_FORMAT:
        raise PersistenceError(f"{base}.meta: format {fmt!r} does not match {DOC_FORMAT!r}")
    config = _config_from_pairs(meta, base + ".meta")
    ids, vectors = _read_matrix_file(base + ".dvec", "document vector")
    return DocModel(ids=ids, vectors=vectors, config=config, seed=config.seed)


def save_tokens(docs: DocumentSet, path: str):
    """One line per preprocessed document: id, tab, space-joined tokens."""
    lines = [f"{TOKENS_FORMAT} {len(docs)}\n"]
    for doc in docs:
        if doc.tokens is None:
            raise PersistenceError(f"document {doc.id!r} has no tokens to save")
        if "\t" in doc.id or "\n" in doc.id or "\r" in doc.id:
            raise PersistenceError(f"document id {doc.id!r} contains a tab or line break")
        lines.append(doc.id + "\t" + " ".join(doc.tokens) + "\n")
    atomic_write(path, "".join(lines))


def load_tokens(path: str) -> DocumentSet:
    try:
        f = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise PersistenceError(f"tokens file not found: {path}") from None
    with f, _naming_undecodable(path):
        header = f.readline().split()
        if len(header) != 2 or header[0] != TOKENS_FORMAT:
            raise PersistenceError(f"{path}: not a {TOKENS_FORMAT} file")
        if not (header[1].isascii() and header[1].isdigit()):
            raise PersistenceError(f"{path}: bad document count {header[1]!r}")
        n = int(header[1])
        documents = []
        for i in range(n):
            line = f.readline()
            if not line:
                raise PersistenceError(f"{path}: truncated at document {i + 1} of {n}")
            doc_id, _, rest = line.rstrip("\n").partition("\t")
            documents.append(Document(id=doc_id, text="", tokens=tuple(rest.split())))
        _reject_extra_rows(f, path, n, "document")
    return DocumentSet(documents=documents)


def save_selection(order: SelectionOrder, ids, path: str):
    """CSV of rank, document id, maximin distance at selection time; an id
    holding a comma, quote or line break is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "doc_id", "min_distance"])
    writer.writerows((rank, ids[idx], "" if np.isnan(dist) else _fmt(dist))
                     for rank, (idx, dist) in enumerate(zip(order.indices, order.distances)))
    atomic_write(path, buf.getvalue())


def save_iteration_log(records: list[IterationRecord], path: str):
    """CSV iteration log: t, documents_used, vocab_complete, centroid, displacement."""
    lines = ["t,documents_used,vocab_complete,centroid_x,centroid_y,displacement\n"]
    for rec in records:
        cx = cy = disp = ""
        if rec.centroid is not None:
            cx, cy = _fmt(rec.centroid[0]), _fmt(rec.centroid[1])
        if rec.displacement is not None:
            disp = _fmt(rec.displacement)
        complete = "true" if rec.vocab_complete else "false"
        lines.append(f"{rec.iteration},{rec.documents_used},{complete},{cx},{cy},{disp}\n")
    atomic_write(path, "".join(lines))


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(pairs: dict[str, str], path: str):
    ordered = {"format": MANIFEST_FORMAT}
    ordered.update(pairs)
    _write_kv(path, ordered)
