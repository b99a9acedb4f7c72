import csv
import io
import math
import os
import pickle
import re
import tempfile
from types import SimpleNamespace

import numpy as np
import numpy.lib.format as npy
import pytest
from helpers import read_manifest, read_selection
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from litscreen.corpus import DocumentSet, EncodedCorpus, Vocabulary
from litscreen.embedding import (
    DocModel,
    EmbeddingConfig,
    WordModel,
    build_huffman,
    train_doc2vec,
    train_word2vec,
)
from litscreen.persistence import (
    PersistenceError,
    file_digest,
    load_doc_model,
    load_model,
    load_tokens,
    read_kv,
    save_doc_model,
    save_iteration_log,
    save_model,
    save_selection,
    save_tokens,
    write_csv,
    write_manifest,
)
from litscreen.refine import IterationRecord
from litscreen.selection import SelectionOrder

DOCS = [["alpha", "beta", "alpha"], ["beta", "gamma", "delta"], ["alpha", "gamma"]] * 3
CFG = EmbeddingConfig(dim=6, window=2, epochs=2, seed=13)

def trained_model():
    return train_word2vec(DOCS, CFG)


# What a saved model's files must hold, byte for byte: np.save's output for
# the matrix, and each label followed by a line feed.
def reference_npy(matrix):
    buf = io.BytesIO()
    np.save(buf, matrix)
    return buf.getvalue()


def reference_labels(labels):
    return "".join(label + "\n" for label in labels).encode("utf-8")


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def write_bytes(path, data):
    with open(path, "wb") as f:
        f.write(data)


def npy_with_header(shape, data=b"", descr="<f8", fortran_order=False):
    """A .npy file's bytes whose header declares ``shape``, then ``data``."""
    buf = io.BytesIO()
    npy.write_array_header_1_0(buf, {"descr": descr, "fortran_order": fortran_order,
                                     "shape": shape})
    return buf.getvalue() + data


def npz_bytes(matrix):
    buf = io.BytesIO()
    np.savez(buf, m=matrix)
    return buf.getvalue()


def raw_header(text):
    """A version 1.0 .npy file whose header is ``text``, and no values."""
    header = text.encode("latin1")
    return b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a label holds anything but a line break: a tab is an ordinary character
LABEL = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                max_size=6)


@st.composite
def labeled_matrices(draw):
    n = draw(st.integers(0, 5))
    dim = draw(st.integers(1, 6))
    labels = draw(st.lists(LABEL, min_size=n, max_size=n, unique=True))
    return labels, draw(arrays(np.float64, (n, dim), elements=FINITE))


class TestMatrixCodec:
    @settings(max_examples=80, deadline=None)
    @given(labeled_matrices())
    @example((["a\tb", "\t", ""], np.array([[0.0], [-0.0], [5e-324]])))
    def test_save_load_save_matches_reference(self, labeled):
        labels, matrix = labeled
        with tempfile.TemporaryDirectory() as tmp:
            model = DocModel(ids=labels, vectors=matrix,
                             config=EmbeddingConfig(dim=matrix.shape[1]))
            base, again = os.path.join(tmp, "d"), os.path.join(tmp, "again")
            assert save_doc_model(model, base) == [base + ".npy", base + ".labels", base + ".meta"]
            assert read_bytes(base + ".npy") == reference_npy(matrix)
            assert read_bytes(base + ".labels") == reference_labels(labels)
            loaded = load_doc_model(base)
            assert loaded.ids == labels
            assert same_bits(loaded.vectors, matrix)
            assert same_bits(np.load(base + ".npy"), matrix)

            save_doc_model(loaded, again)
            for ext in (".npy", ".labels"):
                assert read_bytes(again + ext) == read_bytes(base + ext)

    def test_word_model_matches_reference(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        assert save_model(model, base) == [base + ".npy", base + ".labels", base + ".meta"]
        assert read_bytes(base + ".npy") == reference_npy(model.vectors)
        assert read_bytes(base + ".labels") == reference_labels(model.vocab.tokens())
        loaded = load_model(base)
        assert loaded.vocab.tokens() == model.vocab.tokens()
        assert same_bits(loaded.vectors, model.vectors)


MATRIX = np.array([[0.5, -1.0], [2.0, 3.0]])


def save_kind(kind, base):
    """Save a 2 x 2 model of ``kind`` at ``base``; returns its loader."""
    config = EmbeddingConfig(dim=2)
    if kind == "word":
        save_model(WordModel(vocab=Vocabulary(index={"a": 0, "é": 1}, counts=None),
                             vectors=MATRIX, node_vectors=None, config=config, seed=0), base)
        return load_model
    save_doc_model(DocModel(ids=["a", "é"], vectors=MATRIX, config=config), base)
    return load_doc_model


def saved_pair(tmp_path):
    """The base of a saved 2-token, dim-2 word model, tokens 'a' and 'é'."""
    base = str(tmp_path / "m")
    save_kind("word", base)
    return base


def write_npy(path, array):
    with open(path, "wb") as f:
        np.save(f, array)


class TestMalformedRows:
    @pytest.mark.parametrize("row,message", [
        ("nan 0.5", "non-finite value in row 1"),
        ("0.5 -inf", "non-finite value in row 1"),
        ("+Infinity 0.5", "non-finite value in row 1"),
        ("1e999 0.5", "non-finite value in row 1"),
    ])
    def test_bad_row_rejected(self, tmp_path, row, message):
        # ``row`` gives the first row's values as Python float literals
        base = saved_pair(tmp_path)
        write_npy(base + ".npy", np.array([[float(v) for v in row.split()], [1.0, 2.0]]))
        with pytest.raises(PersistenceError, match=r"m\.npy: " + message):
            load_model(base)

    def test_non_finite_value_names_its_row(self, tmp_path):
        base = saved_pair(tmp_path)
        write_npy(base + ".npy", np.array([[1.0, 2.0], [3.0, np.nan]]))
        with pytest.raises(PersistenceError, match=r"m\.npy: non-finite value in row 2$"):
            load_model(base)

    def test_truncation_names_byte_offset(self, tmp_path):
        base = saved_pair(tmp_path)
        data = read_bytes(base + ".npy")
        write_bytes(base + ".npy", data[:-5])
        with pytest.raises(PersistenceError,
                           match=r"m\.npy: truncated, 27 of the 32 bytes a 2 x 2 matrix needs$"):
            load_model(base)

    @pytest.mark.parametrize("array,message", [
        (np.zeros((2, 2), dtype=">f8"), r"dtype >f8, expected <f8"),
        (np.zeros((2, 2), dtype="<f4"), r"dtype <f4, expected <f8"),
        (np.zeros((2, 2), dtype=object), r"dtype \|O, expected <f8"),
        (np.asfortranarray(np.arange(4.0).reshape(2, 2)), "Fortran-order array"),
        (np.zeros(4), r"shape \(4,\)"),
        (np.zeros((2, 2, 1)), r"shape \(2, 2, 1\)"),
    ], ids=["big-endian", "float32", "object", "fortran", "1d", "3d"])
    def test_wrong_array_kind_names_file(self, tmp_path, array, message):
        base = saved_pair(tmp_path)
        with open(base + ".npy", "wb") as f:
            np.save(f, array, allow_pickle=True)
        with pytest.raises(PersistenceError, match=r"m\.npy: " + message):
            load_model(base)

    def test_nothing_is_unpickled(self, tmp_path):
        # an object array's values are a pickle; the dtype check comes first
        calls = []
        base = saved_pair(tmp_path)
        with open(base + ".npy", "wb") as f:
            np.save(f, np.array([[Recorder(calls)] * 2] * 2, dtype=object), allow_pickle=True)
        with pytest.raises(PersistenceError, match=r"m\.npy: dtype \|O"):
            load_model(base)
        assert calls == []

    @pytest.mark.parametrize("data", [
        b"",
        b"2 2\na\t0.5 1\n\xc3\xa9\t1 2\n",
        pickle.dumps(np.zeros((2, 2))),
        npz_bytes(np.zeros((2, 2))),
        b"\x93NUMPY\x03\x00",
        # headers on which numpy's reader raises other than ValueError
        raw_header("{'descr': ('<f8',), 'fortran_order': False, 'shape': (2, 2), }"),
        raw_header("{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), [1]: 2}"),
        raw_header("{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2"),
        raw_header("{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), }\n  1\n 2"),
    ], ids=["empty", "text", "pickle", "npz", "version-3", "index-error", "type-error",
            "token-error", "indentation-error"])
    def test_not_a_npy_file_names_file(self, tmp_path, data):
        base = saved_pair(tmp_path)
        write_bytes(base + ".npy", data)
        with pytest.raises(PersistenceError, match=r"m\.npy: not a \.npy matrix"):
            load_model(base)

    def test_trailing_bytes_rejected(self, tmp_path):
        base = saved_pair(tmp_path)
        write_bytes(base + ".npy", read_bytes(base + ".npy") + b"\n")
        with pytest.raises(PersistenceError, match=r"m\.npy: 1 bytes past the 2 x 2 matrix$"):
            load_model(base)

    @pytest.mark.parametrize("data,message", [
        (b"a\n", r"m\.labels: 1 labels for the 2 rows of .*m\.npy$"),
        (b"a\n\xc3\xa9\nb\n", r"m\.labels: 3 labels for the 2 rows of .*m\.npy$"),
        (b"a\n\xff\n", r"m\.labels row 2: label is not UTF-8$"),
        (b"a\n\xc3\xa9", r"m\.labels: truncated, the last label has no line end$"),
        (b"a\nb\r\n", r"m\.labels row 2: label holds a line break$"),
    ], ids=["too-few", "too-many", "not-utf8", "no-line-end", "carriage-return"])
    def test_bad_labels_name_file(self, tmp_path, data, message):
        base = saved_pair(tmp_path)
        write_bytes(base + ".labels", data)
        with pytest.raises(PersistenceError, match=message):
            load_model(base)

    def test_missing_last_line_end_reported_before_an_earlier_carriage_return(self, tmp_path):
        # one pass over the rows once the file is known to be whole
        base = saved_pair(tmp_path)
        write_bytes(base + ".labels", b"a\r\nb")
        with pytest.raises(PersistenceError,
                           match=r"m\.labels: truncated, the last label has no line end$"):
            load_model(base)

    def test_crlf_labels_refused(self, tmp_path):
        # a file edited with CRLF line ends cannot load tokens ending in \r
        base = saved_pair(tmp_path)
        write_bytes(base + ".labels", "a\r\né\r\n".encode())
        with pytest.raises(PersistenceError, match=r"m\.labels row 1: label holds a line break$"):
            load_model(base)


@st.composite
def altered_npy(draw):
    """np.save output for MATRIX, altered so that the reader must refuse it."""
    kind = draw(st.sampled_from(["truncated", "appended", ">f8", "<f4", "fortran", "1d", "3d",
                                 "non-finite"]))
    data = reference_npy(MATRIX)
    if kind == "truncated":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "appended":
        return data + draw(st.binary(min_size=1, max_size=40))
    if kind == "non-finite":
        matrix = MATRIX.copy()
        matrix[draw(st.integers(0, 1)), draw(st.integers(0, 1))] = draw(
            st.sampled_from([np.nan, -np.nan, np.inf, -np.inf]))
        return reference_npy(matrix)
    return reference_npy({
        ">f8": MATRIX.astype(">f8"),
        "<f4": MATRIX.astype("<f4"),
        "fortran": np.asfortranarray(MATRIX),
        "1d": MATRIX.ravel(),
        "3d": MATRIX.reshape(draw(st.sampled_from([(1, 2, 2), (2, 1, 2), (2, 2, 1)]))),
    }[kind])


@st.composite
def mutated_npy(draw):
    """np.save output for MATRIX with a few bytes of its magic or header overwritten."""
    data = bytearray(reference_npy(MATRIX))
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, 127))] = draw(st.integers(0, 255))
    return bytes(data)


NPY_MAGIC = b"\x93NUMPY"


class TestReaderFuzz:
    """Random and altered bytes as a model's .npy or .labels: only
    PersistenceError may escape the loaders."""

    @staticmethod
    def load_with(kind, ext, data):
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "m")
            load = save_kind(kind, base)
            write_bytes(base + ext, data)
            try:
                load(base)
            except PersistenceError as exc:
                assert base + ext in str(exc)
                return False
            return True

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["word", "doc"]), st.sampled_from([".npy", ".labels"]),
           st.one_of(st.binary(max_size=200),
                     st.binary(max_size=200).map(lambda b: NPY_MAGIC + b"\x01\x00" + b),
                     st.binary(max_size=200).map(lambda b: NPY_MAGIC + b"\x02\x00" + b)))
    def test_random_bytes(self, kind, ext, data):
        self.load_with(kind, ext, data)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["word", "doc"]), mutated_npy())
    def test_mutated_header(self, kind, data):
        self.load_with(kind, ".npy", data)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["word", "doc"]), altered_npy())
    def test_altered_npy_refused(self, kind, data):
        assert not self.load_with(kind, ".npy", data)


class Recorder:
    """Appends to ``calls`` when unpickled."""

    def __init__(self, calls):
        self.calls = calls

    def __reduce__(self):
        return (list.append, (self.calls, "unpickled"))


class TestNonFiniteSave:
    @pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf, -np.inf])
    def test_word_model(self, tmp_path, value):
        model = trained_model()
        model.vectors[1, 3] = value
        with pytest.raises(PersistenceError, match=r"m\.npy: non-finite value in row 2$"):
            save_model(model, str(tmp_path / "m"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_doc_model(self, tmp_path, value):
        model = train_doc2vec(DOCS, CFG)
        model.vectors[0, 0] = value
        with pytest.raises(PersistenceError, match=r"d\.npy: non-finite value in row 1$"):
            save_doc_model(model, str(tmp_path / "d"))
        assert os.listdir(tmp_path) == []


def model_with_labels(save, labels):
    """A dim-2 model of ``save``'s kind whose rows carry ``labels``."""
    if save is save_model:
        # a vocabulary stand-in: a real index cannot hold one token twice
        return WordModel(vocab=SimpleNamespace(tokens=lambda: labels),
                         vectors=np.zeros((len(labels), 2)), node_vectors=None,
                         config=EmbeddingConfig(dim=2), seed=0)
    return DocModel(ids=labels, vectors=np.zeros((len(labels), 2)),
                    config=EmbeddingConfig(dim=2))


@pytest.mark.parametrize("save", [save_model, save_doc_model])
def test_repeated_label_refused_on_save(tmp_path, save):
    with pytest.raises(PersistenceError, match=r"m\.labels row 3: duplicate label 'a'$"):
        save(model_with_labels(save, ["a", "é", "a"]), str(tmp_path / "m"))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("save", [save_model, save_doc_model])
@pytest.mark.parametrize("shape, message", [
    ((2, 2), "m.labels: 3 labels for 2 rows"),
    ((3, 0), "m.npy: a matrix without columns cannot be saved"),
], ids=["label_count", "no_columns"])
def test_unsavable_matrix_refused_on_save(tmp_path, save, shape, message):
    model = model_with_labels(save, ["a", "b", "c"])
    model.vectors = np.zeros(shape)
    with pytest.raises(PersistenceError) as caught:
        save(model, str(tmp_path / "m"))
    assert str(caught.value) == str(tmp_path / message)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("save", [save_model, save_doc_model])
@pytest.mark.parametrize("label", ["b\nc", "b\r", "\r\n"])
def test_label_with_line_break_refused_on_save(tmp_path, save, label):
    with pytest.raises(PersistenceError,
                       match=r"m\.labels row 2: label holds a line break$"):
        save(model_with_labels(save, ["a", label]), str(tmp_path / "m"))
    assert os.listdir(tmp_path) == []


def test_interrupted_resave_leaves_no_loadable_model(tmp_path, monkeypatch):
    # a second save over the same base fails after its .npy is in place
    base = str(tmp_path / "m")
    save_kind("doc", base)
    real_replace = os.replace

    def replace(src, dst):
        if dst.endswith(".labels"):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        save_doc_model(DocModel(ids=["x", "y"], vectors=MATRIX + 1,
                                config=EmbeddingConfig(dim=2)), base)
    with pytest.raises(PersistenceError, match=r"meta file not found: .*m\.meta$"):
        load_doc_model(base)


@pytest.mark.parametrize("save,load", [(save_model, load_model), (save_doc_model, load_doc_model)])
def test_label_with_tab_round_trips(tmp_path, save, load):
    base = str(tmp_path / "m")
    save(model_with_labels(save, ["a\tb", "\t"]), base)
    loaded = load(base)
    labels = loaded.vocab.tokens() if save is save_model else loaded.ids
    assert labels == ["a\tb", "\t"]


# Short texts over plain characters, both line breaks, a tab and whitespace
# that str.split() splits on but readline does not, so that repeats and
# every fault of a one-label-per-row file come up often.
ROW_TEXT = st.text(st.sampled_from(["a", "b", "é", " ", "\t", "\n", "\r", "\x0b", "\u2028"]),
                   max_size=2)


def write_raw_tokens(path, rows):
    """What ``save_tokens`` writes for (id, tokens) ``rows``, minus its checks."""
    write_bytes(path, (f"litscreen-tokens/1 {len(rows)}\n" + "".join(
        doc_id + "\t" + " ".join(tokens) + "\n" for doc_id, tokens in rows)).encode())


def document_set(rows):
    """The preprocessed set of (id, tokens) ``rows``."""
    return DocumentSet([doc_id for doc_id, _ in rows], EncodedCorpus.encode(t for _, t in rows))


def load_token_rows(path):
    docs = load_tokens(path)
    return list(zip(docs.ids, docs.corpus))


def write_raw_labels(base, labels):
    """What ``save_model`` writes for a dim-2 zero model with ``labels``, minus its checks."""
    save_model(model_with_labels(save_model, [str(i) for i in range(len(labels))]), base)
    write_bytes(base + ".labels", reference_labels(labels))


def load_labels(base):
    return load_model(base).vocab.tokens()


def named_row(exc):
    """The row an error names, or 0 when it names none."""
    found = re.search(r" row (\d+): ", str(exc))
    return int(found.group(1)) if found else 0


def reader_verdict(rows, write_raw, load):
    """None when ``load`` returns ``rows`` from the bytes ``write_raw`` writes
    for them, else the row its error names, or 0 when it names none or
    returns other rows."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f")
        write_raw(path, rows)
        try:
            return None if load(path) == rows else 0
        except PersistenceError as exc:
            return named_row(exc)


def check_writer_against_reader(save, rows, write_raw, load, main_file):
    """``save`` either writes what ``load`` returns as ``rows``, the same bytes
    as ``write_raw``, or writes nothing and names the first row that the
    reader does not return as written."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f")
        try:
            save(path)
        except PersistenceError as exc:
            assert os.listdir(tmp) == []
            row = named_row(exc)
        else:
            assert load(path) == rows
            write_raw(os.path.join(tmp, "raw"), rows)
            assert read_bytes(path + main_file) == read_bytes(os.path.join(tmp, "raw") + main_file)
            return
    assert row >= 1 and reader_verdict(rows[:row - 1], write_raw, load) is None
    return row, reader_verdict(rows[:row], write_raw, load)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(ROW_TEXT, st.lists(ROW_TEXT, max_size=3).map(tuple)), max_size=4))
def test_drawn_tokens_read_back_or_are_refused_at_the_first_changed_row(rows):
    docs = document_set(rows)
    refused = check_writer_against_reader(lambda path: save_tokens(docs, path), rows,
                                          write_raw_tokens, load_token_rows, "")
    if refused:
        row, verdict = refused
        assert verdict in (0, row)


# tokens load_tokens reads back as written, and ids it reads back once each
SAVED_TOKEN = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                      max_size=3).filter(lambda t: t.split() == [t])
SAVED_ID = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                   max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(SAVED_ID, st.lists(SAVED_TOKEN, max_size=5)), max_size=5,
                unique_by=lambda row: row[0]))
def test_saved_tokens_load_as_the_same_encoding(rows):
    docs = document_set(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.tokens")
        save_tokens(docs, path)
        loaded = load_tokens(path)
    assert loaded.ids == docs.ids and loaded.skipped_empty == 0
    got, want = loaded.corpus, docs.corpus
    assert got.types == want.types
    assert got.ids.tolist() == want.ids.tolist()
    assert got.lengths.tolist() == want.lengths.tolist()


@settings(max_examples=40, deadline=None)
@given(st.lists(ROW_TEXT, max_size=5))
@example(["a", "a", "b\n"])  # two faults: the repeat in row 2 comes first
def test_drawn_labels_read_back_or_are_refused_at_the_first_changed_row(labels):
    refused = check_writer_against_reader(
        lambda base: save_model(model_with_labels(save_model, labels), base), labels,
        write_raw_labels, load_labels, ".labels")
    if refused:
        row, verdict = refused
        # a label holding a line feed is more than one row of the file, so the
        # reader may count a later one
        assert verdict in (0, row) or ("\n" in labels[row - 1] and verdict > row)


def rewrite_line(path, index, text):
    with open(path) as f:
        lines = f.readlines()
    lines[index] = text
    with open(path, "w") as f:
        f.writelines(lines)


class TestWordModelRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        loaded = load_model(base)
        assert loaded.vocab.tokens() == model.vocab.tokens()
        assert loaded.vocab.counts is None
        assert np.array_equal(loaded.vectors, model.vectors)
        assert loaded.node_vectors is None
        assert loaded.config == model.config

    def test_only_vectors_and_meta_written(self, tmp_path):
        # the vectors, their tokens and the meta; no Huffman node matrix
        save_model(trained_model(), str(tmp_path / "m"))
        assert sorted(os.listdir(tmp_path)) == ["m.labels", "m.meta", "m.npy"]
        with open(tmp_path / "m.meta") as f:
            assert f.readline() == "format = litscreen-wordmodel/3\n"

    def test_loaded_vocabulary_builds_no_coding_tree(self, tmp_path):
        # nothing trains from a loaded model: its vocabulary has no counts
        base = str(tmp_path / "m")
        save_model(trained_model(), base)
        with pytest.raises(ValueError) as caught:
            build_huffman(load_model(base).vocab)
        assert str(caught.value) == "vocabulary has no counts; cannot build a Huffman tree"

    def test_second_save_byte_identical(self, tmp_path):
        model = trained_model()
        base1, base2 = str(tmp_path / "a"), str(tmp_path / "b")
        save_model(model, base1)
        save_model(load_model(base1), base2)
        for ext in (".npy", ".labels", ".meta"):
            assert read_bytes(base1 + ext) == read_bytes(base2 + ext), ext

    def test_legacy_deterministic_meta_key_still_loads(self, tmp_path):
        # .meta files written before the key was dropped end with this line
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        with open(base + ".meta", "a") as f:
            f.write("deterministic = true\n")
        loaded = load_model(base)
        assert loaded.config == model.config
        assert np.array_equal(loaded.vectors, model.vectors)

    def test_header_shape(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        with open(base + ".npy", "rb") as f:
            assert npy.read_magic(f) == (1, 0)
            header = npy.read_array_header_1_0(f)
        assert header == ((len(model.vocab), 6), False, np.dtype("<f8"))

    def test_truncated_vectors_error_names_offset(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        write_bytes(base + ".npy", read_bytes(base + ".npy")[:-2 * 6 * 8])
        with pytest.raises(PersistenceError, match=r"m\.npy: truncated, \d+ of the \d+ bytes"):
            load_model(base)

    def test_wrong_row_width(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        write_npy(base + ".npy", model.vectors[:, :5])  # drop one column
        with pytest.raises(PersistenceError, match=r"m\.meta: dim = 6, but .*m\.npy has 5 columns"):
            load_model(base)

    def test_format_version_mismatch(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        with open(base + ".meta") as f:
            meta = f.read()
        # the older text formats /2 and /1 are rejected like any unknown one
        for other in ("litscreen-wordmodel/9", "litscreen-wordmodel/2", "litscreen-wordmodel/1"):
            with open(base + ".meta", "w") as f:
                f.write(meta.replace("litscreen-wordmodel/3", other))
            with pytest.raises(PersistenceError, match=r"m\.meta: unknown word model format"):
                load_model(base)

    def test_rows_past_header_count_rejected(self, tmp_path):
        # a header declaring fewer rows must not load a truncated vocabulary
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        n = len(model.vocab)
        write_bytes(base + ".npy", npy_with_header((n - 1, 6), model.vectors.tobytes()))
        with pytest.raises(PersistenceError, match=rf"m\.npy: 48 bytes past the {n - 1} x 6 matrix"):
            load_model(base)

    @pytest.mark.parametrize("header", ["-1 6", "3 0", "3 -6", "3 x", "3"])
    def test_bad_header_rejected_naming_file(self, tmp_path, header):
        # ``header`` is the shape the .npy header declares, entry by entry
        base = str(tmp_path / "m")
        save_model(trained_model(), base)
        shape = tuple(int(p) if p.lstrip("-").isdigit() else p for p in header.split())
        write_bytes(base + ".npy", npy_with_header(shape))
        with pytest.raises(PersistenceError, match=r"m\.npy: (not a \.npy matrix|shape)"):
            load_model(base)

    def test_non_finite_value_rejected(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        vectors = np.load(base + ".npy")
        vectors[0, 0] = np.nan
        write_npy(base + ".npy", vectors)
        with pytest.raises(PersistenceError, match=r"m\.npy: non-finite value in row 1$"):
            load_model(base)

    def test_missing_files(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_model(str(tmp_path / "absent"))

    @pytest.mark.parametrize("ext", [".meta", ".npy", ".labels"])
    def test_each_missing_file_named(self, tmp_path, ext):
        base = str(tmp_path / "m")
        save_model(trained_model(), base)
        os.unlink(base + ext)
        with pytest.raises(PersistenceError, match=rf"file not found: .*m\{ext}$"):
            load_model(base)

    def test_17_digit_precision_preserves_floats(self, tmp_path):
        # values with no short decimal representation survive exactly
        model = trained_model()
        model.vectors[0, 0] = 1.0 / 3.0
        model.vectors[0, 1] = math.pi * 1e-7
        base = str(tmp_path / "m")
        save_model(model, base)
        loaded = load_model(base)
        assert loaded.vectors[0, 0] == 1.0 / 3.0
        assert loaded.vectors[0, 1] == math.pi * 1e-7


class TestDocModelRoundTrip:
    def test_round_trip(self, tmp_path):
        model = train_doc2vec(DOCS, CFG, ids=[f"doc {i}" for i in range(len(DOCS))])
        base = str(tmp_path / "d")
        save_doc_model(model, base)
        loaded = load_doc_model(base)
        assert loaded.ids == model.ids
        assert np.array_equal(loaded.vectors, model.vectors)
        assert loaded.config == model.config

    def test_ids_with_spaces_survive(self, tmp_path):
        model = train_doc2vec(DOCS[:3], CFG, ids=["a b c", "x y", "z"])
        base = str(tmp_path / "d")
        save_doc_model(model, base)
        assert load_doc_model(base).ids == ["a b c", "x y", "z"]

    def test_id_starting_with_a_byte_order_mark_survives(self, tmp_path):
        # labels are read as bytes: a utf-8-sig read would drop the first U+FEFF
        ids = ["\ufeffa", "b", "\ufeffc"]
        model = train_doc2vec(DOCS[:3], CFG, ids=ids)
        base = str(tmp_path / "d")
        save_doc_model(model, base)
        assert load_doc_model(base).ids == ids

    def test_word_meta_rejected(self, tmp_path):
        model = trained_model()
        save_model(model, str(tmp_path / "m"))
        with pytest.raises(PersistenceError, match="format"):
            load_doc_model(str(tmp_path / "m"))


class TestTokensRoundTrip:
    def test_round_trip(self, tmp_path):
        docs = document_set([("a", ("alpha", "beta")), ("b", ()), ("c", ("Ag",))])
        path = str(tmp_path / "c.tokens")
        save_tokens(docs, path)
        loaded = load_tokens(path)
        assert loaded.ids == ["a", "b", "c"]
        assert list(loaded.corpus) == [("alpha", "beta"), (), ("Ag",)]

    @pytest.mark.parametrize("bad_id", ["a\tb", "a\nb", "a\rb", "a\r"])
    def test_id_with_tab_or_line_break_rejected(self, tmp_path, bad_id):
        docs = document_set([(bad_id, ("x",)), ("c", ("y",))])
        path = str(tmp_path / "c.tokens")
        with pytest.raises(PersistenceError,
                           match=r"c\.tokens row 1: document id holds a (tab|line break)$"):
            save_tokens(docs, path)
        assert not os.path.exists(path)

    def test_repeated_id_refused_before_the_file_is_opened(self, tmp_path):
        # load_tokens would reject the file: "row 2: duplicate document id 'a'"
        docs = document_set([("a", ("x",)), ("a", ("y",))])
        path = str(tmp_path / "c.tokens")
        with pytest.raises(PersistenceError) as caught:
            save_tokens(docs, path)
        assert str(caught.value) == f"{path} row 2: duplicate document id 'a'"
        assert os.listdir(tmp_path) == []

    def test_token_the_reader_would_split_or_drop_refused(self, tmp_path):
        # load_tokens splits on whitespace: these tokens would read back as ('x', 'y', 'z')
        docs = document_set([("a", ("w",)), ("b", ("x y", "", "z"))])
        path = str(tmp_path / "c.tokens")
        with pytest.raises(PersistenceError) as caught:
            save_tokens(docs, path)
        assert str(caught.value) == f"{path} row 2: token 'x y' is empty or holds whitespace"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("rows, message", [
        ([("a", ()), ("b", ("",)), ("a", ())], "row 2: token '' is empty or holds whitespace"),
        ([("a", ()), ("a", ()), ("b\tc", ())], "row 2: duplicate document id 'a'"),
        ([("a\nb", ()), ("c\td", ())], "row 1: document id holds a line break"),
    ], ids=["token_before_repeat", "repeat_before_tab", "line_break_before_tab"])
    def test_first_faulty_row_reported(self, tmp_path, rows, message):
        docs = document_set(rows)
        path = str(tmp_path / "c.tokens")
        with pytest.raises(PersistenceError) as caught:
            save_tokens(docs, path)
        assert str(caught.value) == f"{path} {message}"

    def test_truncation_detected(self, tmp_path):
        path = self.two_docs(tmp_path)
        with open(path) as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.writelines(lines[:-1])
        with pytest.raises(PersistenceError, match="truncated"):
            load_tokens(path)

    def two_docs(self, tmp_path):
        path = str(tmp_path / "c.tokens")
        save_tokens(document_set([("a", ("x",)), ("b", ("y",))]), path)
        return path

    @pytest.mark.parametrize("count", ["abc", "-1"])
    def test_bad_count_rejected_naming_file(self, tmp_path, count):
        path = self.two_docs(tmp_path)
        rewrite_line(path, 0, f"litscreen-tokens/1 {count}\n")
        with pytest.raises(PersistenceError, match=r"c\.tokens: bad document count"):
            load_tokens(path)

    def test_repeated_id_rejected_naming_file_and_row(self, tmp_path):
        path = self.two_docs(tmp_path)
        rewrite_line(path, 2, "a\ty\n")
        with pytest.raises(PersistenceError,
                           match=r"c\.tokens row 2: duplicate document id 'a'"):
            load_tokens(path)

    @pytest.mark.parametrize("line", ["D2 baz qux\n", "\n"], ids=["spaces", "blank"])
    def test_line_without_tab_rejected_naming_file_and_row(self, tmp_path, line):
        path = self.two_docs(tmp_path)
        rewrite_line(path, 2, line)
        with pytest.raises(PersistenceError,
                           match=r"c\.tokens row 2: no tab after the document id"):
            load_tokens(path)

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = str(tmp_path / "c.tokens")
        with open(path, "wb") as f:
            f.write(b"litscreen-tokens/1 1002\n")
            f.write(b"".join(b"d%d\tag film\n" % i for i in range(1000)))
            f.write(b"z\tcaf\xe9\ny\tpt\n")
        with pytest.raises(PersistenceError, match=r"c\.tokens line 1002: not UTF-8 text"):
            load_tokens(path)

    def test_documents_past_count_rejected(self, tmp_path):
        path = self.two_docs(tmp_path)
        rewrite_line(path, 0, "litscreen-tokens/1 1\n")
        with pytest.raises(PersistenceError, match=r"c\.tokens: more than the 1"):
            load_tokens(path)


def test_non_utf8_config_byte_names_its_line(tmp_path):
    path = str(tmp_path / "run.conf")
    with open(path, "wb") as f:
        f.write(b"# options\n")
        f.write(b"".join(b"key%d = %d\n" % (i, i) for i in range(1000)))
        f.write(b"system = caf\xe9\n")
    with pytest.raises(PersistenceError, match=r"run\.conf line 1002: not UTF-8 text"):
        read_kv(path, "config")


class TestMetaFaults:
    """A bad ``.meta`` fails naming the file, for word and document models alike."""

    @staticmethod
    def saved(tmp_path, kind):
        base = str(tmp_path / "m")
        if kind == "word":
            save_model(trained_model(), base)
            return base, load_model
        save_doc_model(train_doc2vec(DOCS, CFG), base)
        return base, load_doc_model

    @pytest.mark.parametrize("kind", ["word", "doc"])
    @pytest.mark.parametrize("line", ["dim = abc", "window = x", "dim = 0", "alpha0 = inf"])
    def test_bad_value_names_file_and_key(self, tmp_path, kind, line):
        base, load = self.saved(tmp_path, kind)
        key = line.split()[0]
        with open(base + ".meta") as f:
            lines = [line + "\n" if ln.startswith(key + " ") else ln for ln in f]
        with open(base + ".meta", "w") as f:
            f.writelines(lines)
        with pytest.raises(PersistenceError, match=rf"m\.meta: {key} "):
            load(base)

    @pytest.mark.parametrize("kind", ["word", "doc"])
    def test_repeated_key_names_file_and_key(self, tmp_path, kind):
        base, load = self.saved(tmp_path, kind)
        with open(base + ".meta", "a") as f:
            f.write("dim = 6\n")
        with pytest.raises(PersistenceError, match=r"m\.meta: repeated key 'dim'"):
            load(base)

    @pytest.mark.parametrize("kind", ["word", "doc"])
    def test_line_without_equals_names_file_and_line(self, tmp_path, kind):
        base, load = self.saved(tmp_path, kind)
        rewrite_line(base + ".meta", 2, "bogus line\n")
        with pytest.raises(PersistenceError) as caught:
            load(base)
        assert str(caught.value) == f"{base}.meta line 3: expected key = value, got 'bogus line'"

    @pytest.mark.parametrize("kind", ["word", "doc"])
    def test_missing_config_key_names_file_and_key(self, tmp_path, kind):
        base, load = self.saved(tmp_path, kind)
        with open(base + ".meta") as f:
            lines = [ln for ln in f if not ln.startswith("window ")]
        with open(base + ".meta", "w") as f:
            f.writelines(lines)
        with pytest.raises(PersistenceError) as caught:
            load(base)
        assert str(caught.value) == f"{base}.meta: missing config key 'window'"

    @pytest.mark.parametrize("kind", ["word", "doc"])
    def test_repeated_label_names_file_and_row(self, tmp_path, kind):
        base, load = self.saved(tmp_path, kind)
        with open(base + ".labels") as f:
            first = f.readline()
        rewrite_line(base + ".labels", 1, first)
        with pytest.raises(PersistenceError,
                           match=rf"m\.labels row 2: duplicate label '{first[:-1]}'"):
            load(base)

    @pytest.mark.parametrize("kind", ["word", "doc"])
    def test_dim_other_than_matrix_columns_names_both_files(self, tmp_path, kind):
        base, load = self.saved(tmp_path, kind)
        with open(base + ".meta") as f:
            meta = f.read()
        with open(base + ".meta", "w") as f:
            f.write(meta.replace("dim = 6\n", "dim = 7\n"))
        with pytest.raises(PersistenceError) as caught:
            load(base)
        assert str(caught.value) == f"{base}.meta: dim = 7, but {base}.npy has 6 columns"


# Fields that csv.writer quotes or treats specially, and ones it leaves alone.
_CSV_FIELDS = st.one_of(
    st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", "a,b", 'say "hi"', " x ", "é",
                     "ü,ß", "\t", "1.5"]),
    st.text(max_size=6),
)


def csv_writer_bytes(rows):
    """What write_csv writes: csv.writer's rows with "\\r\\n" line ends, so
    that it quotes a field holding either, each row then ended by "\\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    lines = []
    for row in rows:
        writer.writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
        buf.seek(0)
        buf.truncate()
    return "".join(lines).encode("utf-8")


class TestWriteCsv:
    """write_csv's bytes are those of csv.writer, with "\\r\\n" quoted and "\\n" written."""

    @settings(max_examples=40, deadline=None)
    @given(header=st.lists(_CSV_FIELDS, max_size=4),
           special=st.lists(st.tuples(st.integers(0, 4500), st.lists(_CSV_FIELDS, max_size=4)),
                            max_size=6))
    def test_bytes_match_csv_writer(self, header, special):
        # plain rows across more than one block, with the drawn rows among them
        rows = [[f"p{i}", str(i % 7)] for i in range(4500)]
        for at, row in sorted(special, reverse=True):
            rows.insert(at, row)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            write_csv(path, header, iter(rows))
            with open(path, "rb") as f:
                assert f.read() == csv_writer_bytes([header, *rows])

    @pytest.mark.parametrize("row", [[""], [], ["", ""], ["a\nb", "c"], ["x", 'q"'],
                                     ["a\rb", "1"], ["\r"]])
    def test_special_rows(self, tmp_path, row):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["h"], [row, ["z", "1"]])
        with open(path, "rb") as f:
            assert f.read() == csv_writer_bytes([["h"], row, ["z", "1"]])

    @pytest.mark.parametrize("doc_id", ["a\rb", "a\r\nb", "a\nb", "\r", "a\r"])
    def test_line_breaks_in_ids_read_back_whole(self, tmp_path, doc_id):
        path = str(tmp_path / "t.csv")
        rows = [[doc_id, "1"], ["z", "2"]]
        write_csv(path, ["id", "x"], rows)
        with open(path, newline="", encoding="utf-8") as f:
            assert list(csv.reader(f)) == [["id", "x"], *rows]


class TestSelectionRoundTrip:
    def test_round_trip_with_nan_seed(self, tmp_path):
        order = SelectionOrder(
            indices=[2, 0, 1],
            distances=[float("nan"), 1.25, 0.5],
        )
        path = str(tmp_path / "sel.csv")
        # ids a CSV field must quote; a split row fails read_selection
        save_selection(order, ["ida,1", 'id "b"', "id\r\nc"], path)
        ids, distances = read_selection(path)
        assert ids == ["id\r\nc", "ida,1", 'id "b"']
        assert math.isnan(distances[0])
        assert distances[1:] == [1.25, 0.5]

    def test_header_and_empty_distance_cell(self, tmp_path):
        order = SelectionOrder(indices=[0], distances=[float("nan")])
        path = str(tmp_path / "sel.csv")
        save_selection(order, ["only"], path)
        with open(path) as f:
            content = f.read()
        assert content == "rank,doc_id,min_distance\n0,only,\n"


class TestIterationLogs:
    RECORDS = [
        IterationRecord(iteration=1, documents_used=50, missing=("Ti",)),
        IterationRecord(iteration=2, documents_used=100, centroid=(0.5, 0.25)),
        IterationRecord(iteration=3, documents_used=150,
                        centroid=(0.5078125, 0.2421875), displacement=0.011048543456039806),
    ]

    def test_csv_layout(self, tmp_path):
        path = str(tmp_path / "it.csv")
        save_iteration_log(self.RECORDS, path)
        with open(path) as f:
            lines = f.read().splitlines()
        assert lines[0] == "t,documents_used,vocab_complete,centroid_x,centroid_y,displacement"
        assert lines[1] == "1,50,false,,,"
        assert lines[2] == "2,100,true,0.5,0.25,"
        assert lines[3].startswith("3,150,true,0.5078125,0.2421875,0.011048543456039806")


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.txt")
        write_manifest({"seed": "3", "corpus": "c.csv"}, path)
        pairs = read_manifest(path)
        assert pairs["seed"] == "3"
        assert pairs["corpus"] == "c.csv"
        assert pairs["format"] == "litscreen-manifest/1"

    def test_format_guard(self, tmp_path):
        path = str(tmp_path / "other.txt")
        with open(path, "w") as f:
            f.write("key = value\n")
        with pytest.raises(PersistenceError):
            read_manifest(path)

    def test_file_digest_stable(self, tmp_path):
        path = str(tmp_path / "x.bin")
        with open(path, "wb") as f:
            f.write(b"hello")
        assert file_digest(path) == (
            "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
        )


def test_atomic_write_creates_parent_dirs(tmp_path):
    order = SelectionOrder(indices=[0], distances=[float("nan")])
    path = str(tmp_path / "deep" / "nested" / "sel.csv")
    save_selection(order, ["a"], path)
    assert os.path.exists(path)
