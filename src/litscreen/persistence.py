"""Save/load for every pipeline artifact, with bit-stable round-trips.

All numeric text is written with 17 significant digits, which is exact
for 64-bit floats: save -> load -> save reproduces the file byte for
byte. Writers go through a temp file and an atomic rename so readers
never observe a partial artifact.
"""
from __future__ import annotations

import csv
import hashlib
import os
import tempfile

import numpy as np

from .corpus import Document, DocumentSet, Vocabulary
from .embedding import DocModel, EmbeddingConfig, WordModel, build_huffman
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
    "load_selection",
    "save_iteration_log",
    "save_iteration_table",
    "write_manifest",
    "read_manifest",
    "file_digest",
    "atomic_write",
    "read_kv",
]

WORD_FORMAT = "litscreen-wordmodel/1"
DOC_FORMAT = "litscreen-docmodel/1"
TOKENS_FORMAT = "litscreen-tokens/1"
MANIFEST_FORMAT = "litscreen-manifest/1"


class PersistenceError(ValueError):
    """Artifact file is missing, truncated, or malformed."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def atomic_write(path: str, text: str):
    """Write UTF-8 text via a temp file and rename; creates parent dirs."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_matrix_file(path: str, what: str) -> tuple[list[str], np.ndarray]:
    """Read 'N D' header plus N labeled rows; errors name the byte offset."""
    try:
        f = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise PersistenceError(f"{what} file not found: {path}") from None
    with f:
        offset = 0
        header = f.readline()
        if not header:
            raise PersistenceError(f"{path}: empty {what} file (byte 0)")
        offset += len(header.encode("utf-8"))
        parts = header.split()
        if len(parts) != 2:
            raise PersistenceError(f"{path}: bad header {header!r}")
        try:
            n, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise PersistenceError(f"{path}: bad header {header!r}") from None

        labels: list[str] = []
        matrix = np.empty((n, dim), dtype=np.float64)
        for i in range(n):
            line = f.readline()
            if not line:
                raise PersistenceError(
                    f"{path}: truncated {what} file, expected row {i + 1} of {n} "
                    f"near byte {offset}"
                )
            offset += len(line.encode("utf-8"))
            label, _, rest = line.rstrip("\n").partition("\t")
            fields = rest.split()
            if len(fields) != dim:
                raise PersistenceError(
                    f"{path}: row {i + 1} has {len(fields)} values, expected {dim} "
                    f"(near byte {offset})"
                )
            try:
                row = np.array([float(v) for v in fields], dtype=np.float64)
            except ValueError:
                raise PersistenceError(f"{path}: unparsable float in row {i + 1}") from None
            if not np.all(np.isfinite(row)):
                raise PersistenceError(f"{path}: non-finite value in row {i + 1}")
            labels.append(label)
            matrix[i] = row
    return labels, matrix


def _write_matrix_file(path: str, labels, matrix: np.ndarray):
    lines = [f"{matrix.shape[0]} {matrix.shape[1]}\n"]
    for label, row in zip(labels, matrix):
        if "\t" in label or "\n" in label:
            raise PersistenceError(f"label {label!r} contains tab or newline")
        lines.append(label + "\t" + " ".join(_fmt(v) for v in row) + "\n")
    atomic_write(path, "".join(lines))


def _write_kv(path: str, pairs: dict[str, str]):
    atomic_write(path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))


def read_kv(path: str, what: str) -> dict[str, str]:
    """Parse ``key = value`` lines, skipping blanks and ``#`` comments."""
    try:
        f = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise PersistenceError(f"{what} file not found: {path}") from None
    with f:
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


def _config_pairs(config: EmbeddingConfig) -> dict[str, str]:
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
    """Write `{base}.vec`, `{base}.nodes`, `{base}.meta`."""
    tokens = model.vocab.tokens()
    _write_matrix_file(base + ".vec", tokens, model.vectors)
    node_labels = [f"n{i}" for i in range(model.node_vectors.shape[0])]
    _write_matrix_file(base + ".nodes", node_labels, model.node_vectors)
    meta = {"format": WORD_FORMAT}
    meta.update(_config_pairs(model.config))
    _write_kv(base + ".meta", meta)


def load_model(base: str) -> WordModel:
    """Restore a word model; query-ready (counts are not persisted)."""
    meta = read_kv(base + ".meta", "model meta")
    fmt = meta.get("format", "")
    if fmt != WORD_FORMAT:
        raise PersistenceError(
            f"{base}.meta: format {fmt!r} does not match {WORD_FORMAT!r}"
        )
    config = _config_from_pairs(meta, base + ".meta")
    tokens, vectors = _read_matrix_file(base + ".vec", "vector")
    _, nodes = _read_matrix_file(base + ".nodes", "node")
    if vectors.shape[0] != len(tokens):
        raise PersistenceError(f"{base}.vec: label/row count mismatch")
    if nodes.shape[0] != max(0, len(tokens) - 1):
        raise PersistenceError(
            f"{base}.nodes: expected {len(tokens) - 1} rows, found {nodes.shape[0]}"
        )
    if len(set(tokens)) != len(tokens):
        raise PersistenceError(f"{base}.vec: duplicate token")
    vocab = Vocabulary(
        index={t: i for i, t in enumerate(tokens)},
        counts=None,
        min_count=config.min_count,
    )
    return WordModel(
        vocab=vocab,
        vectors=vectors,
        node_vectors=nodes,
        config=config,
        seed=config.seed,
    )


def save_doc_model(model: DocModel, base: str):
    """Write `{base}.dvec` and `{base}.meta`."""
    _write_matrix_file(base + ".dvec", model.ids, model.vectors)
    meta = {"format": DOC_FORMAT}
    meta.update(_config_pairs(model.config))
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
        if "\t" in doc.id or "\n" in doc.id:
            raise PersistenceError(f"document id {doc.id!r} contains tab or newline")
        lines.append(doc.id + "\t" + " ".join(doc.tokens) + "\n")
    atomic_write(path, "".join(lines))


def load_tokens(path: str) -> DocumentSet:
    try:
        f = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise PersistenceError(f"tokens file not found: {path}") from None
    with f:
        header = f.readline().split()
        if len(header) != 2 or header[0] != TOKENS_FORMAT:
            raise PersistenceError(f"{path}: not a {TOKENS_FORMAT} file")
        n = int(header[1])
        documents = []
        for i in range(n):
            line = f.readline()
            if not line:
                raise PersistenceError(f"{path}: truncated at document {i + 1} of {n}")
            doc_id, _, rest = line.rstrip("\n").partition("\t")
            documents.append(Document(id=doc_id, text="", tokens=tuple(rest.split())))
    return DocumentSet(documents=documents, source_path=path)


def save_selection(order: SelectionOrder, ids, path: str):
    """CSV of rank, document id, maximin distance at selection time."""
    rows = ["rank,doc_id,min_distance\n"]
    for rank, (idx, dist) in enumerate(zip(order.indices, order.distances)):
        d = "" if np.isnan(dist) else _fmt(dist)
        rows.append(f"{rank},{ids[idx]},{d}\n")
    atomic_write(path, "".join(rows))


def load_selection(path: str, ids) -> SelectionOrder:
    id_to_idx = {doc_id: i for i, doc_id in enumerate(ids)}
    try:
        f = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise PersistenceError(f"selection file not found: {path}") from None
    with f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["rank", "doc_id", "min_distance"]:
            raise PersistenceError(f"{path}: unexpected header {header}")
        indices = []
        distances = []
        for row in reader:
            if len(row) != 3:
                raise PersistenceError(f"{path}: bad row {row}")
            if row[1] not in id_to_idx:
                raise PersistenceError(f"{path}: unknown document id {row[1]!r}")
            indices.append(id_to_idx[row[1]])
            distances.append(float("nan") if row[2] == "" else float(row[2]))
    return SelectionOrder(indices=indices, distances=distances)


def _record_fields(rec: IterationRecord) -> tuple[str, str, str, str, str, str]:
    cx = cy = disp = ""
    if rec.centroid is not None:
        cx, cy = _fmt(rec.centroid[0]), _fmt(rec.centroid[1])
    if rec.displacement is not None:
        disp = _fmt(rec.displacement)
    return (
        str(rec.iteration),
        str(rec.documents_used),
        "true" if rec.vocab_complete else "false",
        cx,
        cy,
        disp,
    )


def save_iteration_log(records: list[IterationRecord], path: str):
    """CSV iteration log: t, documents_used, vocab_complete, centroid, displacement."""
    lines = ["t,documents_used,vocab_complete,centroid_x,centroid_y,displacement\n"]
    for rec in records:
        lines.append(",".join(_record_fields(rec)) + "\n")
    atomic_write(path, "".join(lines))


def save_iteration_table(records: list[IterationRecord], path: str):
    """Whitespace-delimited iteration log for plotting; missing values are NaN."""
    lines = ["# t documents_used vocab_complete centroid_x centroid_y displacement\n"]
    for rec in records:
        fields = list(_record_fields(rec))
        fields[2] = "1" if rec.vocab_complete else "0"
        fields = [v if v else "NaN" for v in fields]
        lines.append(" ".join(fields) + "\n")
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


def read_manifest(path: str) -> dict[str, str]:
    pairs = read_kv(path, "manifest")
    if pairs.get("format") != MANIFEST_FORMAT:
        raise PersistenceError(f"{path}: not a {MANIFEST_FORMAT} file")
    return pairs
