import ctypes
import math
import os
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import read_manifest, read_selection
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from litscreen.corpus import Document, DocumentSet, Vocabulary
from litscreen.embedding import DocModel, EmbeddingConfig, WordModel, train_doc2vec, train_word2vec
from litscreen.kernel import library
from litscreen.persistence import (
    PersistenceError,
    file_digest,
    load_doc_model,
    load_model,
    load_tokens,
    save_doc_model,
    save_iteration_log,
    save_model,
    save_selection,
    save_tokens,
    write_manifest,
)
from litscreen.refine import IterationRecord
from litscreen.selection import SelectionOrder

DOCS = [["alpha", "beta", "alpha"], ["beta", "gamma", "delta"], ["alpha", "gamma"]] * 3
CFG = EmbeddingConfig(dim=6, window=2, epochs=2, seed=13)

def trained_model():
    return train_word2vec(DOCS, CFG)


# The pure-Python matrix writer and reader that the kernel-library codec
# replaced, kept as its reference: files must agree byte for byte, values
# bit for bit.
def reference_write_matrix(path, labels, matrix):
    lines = [f"{matrix.shape[0]} {matrix.shape[1]}\n"]
    for label, row in zip(labels, matrix):
        lines.append(label + "\t" + " ".join(f"{v:.17g}" for v in row) + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(lines))


def reference_read_matrix(path):
    with open(path, "r", encoding="utf-8") as f:
        n, dim = (int(p) for p in f.readline().split())
        labels = []
        matrix = np.empty((n, dim))
        for i in range(n):
            label, _, rest = f.readline().rstrip("\n").partition("\t")
            labels.append(label)
            matrix[i] = [float(v) for v in rest.split()]
    return labels, matrix


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def codec_text(matrix):
    """The kernel library's text for ``matrix``'s rows."""
    buf = ctypes.create_string_buffer(matrix.size * 25)  # 24 bytes a value + separator
    ends = np.empty(len(matrix), dtype=np.int64)
    written = library().format_rows(matrix, len(matrix), matrix.shape[1], buf, len(buf), ends)
    assert written == len(matrix)
    return buf.raw[:ends[-1]].decode("ascii")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# tab and newline cannot occur in a label; a carriage return splits the
# reference reader's text-mode lines
LABEL = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                max_size=6)


@st.composite
def labeled_matrices(draw):
    n = draw(st.integers(0, 5))
    dim = draw(st.integers(1, 6))
    labels = draw(st.lists(LABEL, min_size=n, max_size=n, unique=True))
    return labels, draw(arrays(np.float64, (n, dim), elements=FINITE))


class TestMatrixCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=12))
    @example([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
              sys.float_info.min, -2.2250738585072009e-308])
    # exact ties at the 17th digit round half to even; decade edges of %g
    @example([1234567890123456.25, 1234567890123456.75, 0.5, 0.125])
    @example([1e16, 1e17, 9.9999999999999998e16, 1e-4, 1e-5, 0.1, 1 / 3, -1.5e300])
    def test_format_matches_python(self, values):
        row = np.array([values])
        assert codec_text(row) == " ".join(f"{x:.17g}" for x in values) + "\n"

    @settings(max_examples=80, deadline=None)
    @given(labeled_matrices())
    def test_save_load_save_matches_reference(self, labeled):
        labels, matrix = labeled
        with tempfile.TemporaryDirectory() as tmp:
            model = DocModel(ids=labels, vectors=matrix,
                             config=EmbeddingConfig(dim=matrix.shape[1]))
            base, again = os.path.join(tmp, "d"), os.path.join(tmp, "again")
            save_doc_model(model, base)
            reference_write_matrix(os.path.join(tmp, "ref"), labels, matrix)
            assert read_bytes(base + ".dvec") == read_bytes(os.path.join(tmp, "ref"))
            loaded = load_doc_model(base)
            assert loaded.ids == labels
            assert same_bits(loaded.vectors, matrix)
            ref_labels, ref_matrix = reference_read_matrix(base + ".dvec")
            assert ref_labels == labels and same_bits(ref_matrix, matrix)

            save_doc_model(loaded, again)
            assert read_bytes(again + ".dvec") == read_bytes(base + ".dvec")

    def test_word_model_matches_reference(self, tmp_path):
        model = trained_model()
        save_model(model, str(tmp_path / "m"))
        reference_write_matrix(str(tmp_path / "ref"), model.vocab.tokens(), model.vectors)
        assert read_bytes(tmp_path / "m.vec") == read_bytes(tmp_path / "ref")
        tokens, vectors = reference_read_matrix(str(tmp_path / "m.vec"))
        loaded = load_model(str(tmp_path / "m"))
        assert loaded.vocab.tokens() == tokens and same_bits(loaded.vectors, vectors)


def write_vec(tmp_path, text):
    """A 2-token, dim-2 word model whose .vec file holds ``text``."""
    base = str(tmp_path / "m")
    model = WordModel(vocab=Vocabulary(index={"a": 0, "é": 1}, counts=None),
                      vectors=np.zeros((2, 2)), node_vectors=None,
                      config=EmbeddingConfig(dim=2), seed=0)
    save_model(model, base)
    with open(base + ".vec", "wb") as f:
        f.write(text.encode("utf-8"))
    return base


class TestMalformedRows:
    @pytest.mark.parametrize("row,message", [
        ("0x1p3 0.5", "unparsable float in row 1"),
        ("1_0 0.5", "unparsable float in row 1"),
        ("1e 0.5", "unparsable float in row 1"),
        ("nan(1) 0.5", "unparsable float in row 1"),
        ("nan 0.5", "non-finite value in row 1"),
        ("0.5 -inf", "non-finite value in row 1"),
        ("+Infinity 0.5", "non-finite value in row 1"),
        ("1e999 0.5", "non-finite value in row 1"),
        ("0.5", "row 1 has 1 values, expected 2"),
        ("0.5 1 2", "row 1 has 3 values, expected 2"),
    ])
    def test_bad_row_rejected(self, tmp_path, row, message):
        base = write_vec(tmp_path, f"2 2\na\t{row}\né\t1 2\n")
        with pytest.raises(PersistenceError, match=r"m\.vec: " + message.replace("+", r"\+")):
            load_model(base)

    def test_crlf_file_loads(self, tmp_path):
        base = write_vec(tmp_path, "2 2\r\na\t0.5 -1.25\r\né\t1e-3 2\r\n")
        loaded = load_model(base)
        assert loaded.vocab.tokens() == ["a", "é"]
        assert np.array_equal(loaded.vectors, [[0.5, -1.25], [1e-3, 2.0]])

    def test_truncation_names_byte_offset(self, tmp_path):
        # "é" is two bytes: the offset counts bytes, not characters
        base = write_vec(tmp_path, "3 2\né\t1 2\n")
        with pytest.raises(PersistenceError,
                           match=r"m\.vec: truncated vector file, expected row 2 of 3 near byte 11$"):
            load_model(base)


class TestNonFiniteSave:
    @pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf, -np.inf])
    def test_word_model(self, tmp_path, value):
        model = trained_model()
        model.vectors[1, 3] = value
        with pytest.raises(PersistenceError, match=r"m\.vec: non-finite value in row 2$"):
            save_model(model, str(tmp_path / "m"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_doc_model(self, tmp_path, value):
        model = train_doc2vec(DOCS, CFG)
        model.vectors[0, 0] = value
        with pytest.raises(PersistenceError, match=r"d\.dvec: non-finite value in row 1$"):
            save_doc_model(model, str(tmp_path / "d"))
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("save,suffix", [(save_model, ".vec"), (save_doc_model, ".dvec")])
def test_repeated_label_refused_on_save(tmp_path, save, suffix):
    labels = ["a", "é", "a"]
    if save is save_model:
        # a vocabulary stand-in: a real index cannot hold one token twice
        model = WordModel(vocab=SimpleNamespace(tokens=lambda: labels), vectors=np.zeros((3, 2)),
                          node_vectors=None, config=EmbeddingConfig(dim=2), seed=0)
    else:
        model = DocModel(ids=labels, vectors=np.zeros((3, 2)), config=EmbeddingConfig(dim=2))
    with pytest.raises(PersistenceError, match=rf"m\{suffix} row 3: duplicate label 'a'$"):
        save(model, str(tmp_path / "m"))
    assert os.listdir(tmp_path) == []


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
        save_model(trained_model(), str(tmp_path / "m"))
        assert sorted(os.listdir(tmp_path)) == ["m.meta", "m.vec"]
        with open(tmp_path / "m.meta") as f:
            assert f.readline() == "format = litscreen-wordmodel/2\n"

    def test_second_save_byte_identical(self, tmp_path):
        model = trained_model()
        base1, base2 = str(tmp_path / "a"), str(tmp_path / "b")
        save_model(model, base1)
        save_model(load_model(base1), base2)
        for ext in (".vec", ".meta"):
            with open(base1 + ext, "rb") as f:
                first = f.read()
            with open(base2 + ext, "rb") as f:
                second = f.read()
            assert first == second, ext

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
        with open(base + ".vec") as f:
            header = f.readline().split()
        assert header == [str(len(model.vocab)), "6"]

    def test_truncated_vectors_error_names_offset(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        with open(base + ".vec") as f:
            lines = f.readlines()
        with open(base + ".vec", "w") as f:
            f.writelines(lines[:-2])
        with pytest.raises(PersistenceError, match="byte"):
            load_model(base)

    def test_wrong_row_width(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        with open(base + ".vec") as f:
            lines = f.readlines()
        lines[1] = lines[1].rsplit(" ", 1)[0] + "\n"  # drop one float
        with open(base + ".vec", "w") as f:
            f.writelines(lines)
        with pytest.raises(PersistenceError, match="row 1"):
            load_model(base)

    def test_format_version_mismatch(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        with open(base + ".meta") as f:
            meta = f.read()
        # the older /1 format is rejected like any unknown one
        for other in ("litscreen-wordmodel/9", "litscreen-wordmodel/1"):
            with open(base + ".meta", "w") as f:
                f.write(meta.replace("litscreen-wordmodel/2", other))
            with pytest.raises(PersistenceError, match=r"m\.meta: unknown word model format"):
                load_model(base)

    def test_rows_past_header_count_rejected(self, tmp_path):
        # a header declaring fewer rows must not load a truncated vocabulary
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        rewrite_line(base + ".vec", 0, f"{len(model.vocab) - 1} 6\n")
        with pytest.raises(PersistenceError, match=r"m\.vec: more than the"):
            load_model(base)

    def test_blank_lines_past_rows_allowed(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        with open(base + ".vec", "a") as f:
            f.write("\n  \n")
        assert load_model(base).vocab.tokens() == model.vocab.tokens()

    @pytest.mark.parametrize("header", ["-1 6", "3 0", "3 -6", "3 x", "3"])
    def test_bad_header_rejected_naming_file(self, tmp_path, header):
        base = str(tmp_path / "m")
        save_model(trained_model(), base)
        rewrite_line(base + ".vec", 0, header + "\n")
        with pytest.raises(PersistenceError, match=r"m\.vec: bad header"):
            load_model(base)

    def test_non_finite_value_rejected(self, tmp_path):
        model = trained_model()
        base = str(tmp_path / "m")
        save_model(model, base)
        with open(base + ".vec") as f:
            lines = f.readlines()
        token, _, rest = lines[1].partition("\t")
        fields = rest.split()
        fields[0] = "nan"
        lines[1] = token + "\t" + " ".join(fields) + "\n"
        with open(base + ".vec", "w") as f:
            f.writelines(lines)
        with pytest.raises(PersistenceError, match="non-finite"):
            load_model(base)

    def test_missing_files(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_model(str(tmp_path / "absent"))

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

    def test_word_meta_rejected(self, tmp_path):
        model = trained_model()
        save_model(model, str(tmp_path / "m"))
        with pytest.raises(PersistenceError, match="format"):
            load_doc_model(str(tmp_path / "m"))


class TestTokensRoundTrip:
    def test_round_trip(self, tmp_path):
        docs = DocumentSet(documents=[
            Document(id="a", text="x", tokens=("alpha", "beta")),
            Document(id="b", text="y", tokens=()),
            Document(id="c", text="z", tokens=("Ag",)),
        ])
        path = str(tmp_path / "c.tokens")
        save_tokens(docs, path)
        loaded = load_tokens(path)
        assert loaded.ids() == ["a", "b", "c"]
        assert loaded.token_lists() == [("alpha", "beta"), (), ("Ag",)]

    @pytest.mark.parametrize("bad_id", ["a\tb", "a\nb", "a\rb", "a\r"])
    def test_id_with_tab_or_line_break_rejected(self, tmp_path, bad_id):
        docs = DocumentSet(documents=[Document(id=bad_id, text="", tokens=("x",)),
                                      Document(id="c", text="", tokens=("y",))])
        path = str(tmp_path / "c.tokens")
        with pytest.raises(PersistenceError, match="contains a tab or line break"):
            save_tokens(docs, path)
        assert not os.path.exists(path)

    def test_unprocessed_document_rejected(self, tmp_path):
        docs = DocumentSet(documents=[Document(id="a", text="x")])
        with pytest.raises(PersistenceError):
            save_tokens(docs, str(tmp_path / "c.tokens"))

    def test_truncation_detected(self, tmp_path):
        docs = DocumentSet(documents=[
            Document(id="a", text="", tokens=("x",)),
            Document(id="b", text="", tokens=("y",)),
        ])
        path = str(tmp_path / "c.tokens")
        save_tokens(docs, path)
        with open(path) as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.writelines(lines[:-1])
        with pytest.raises(PersistenceError, match="truncated"):
            load_tokens(path)

    def two_docs(self, tmp_path):
        path = str(tmp_path / "c.tokens")
        save_tokens(DocumentSet(documents=[
            Document(id="a", text="", tokens=("x",)),
            Document(id="b", text="", tokens=("y",)),
        ]), path)
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

    def test_documents_past_count_rejected(self, tmp_path):
        path = self.two_docs(tmp_path)
        rewrite_line(path, 0, "litscreen-tokens/1 1\n")
        with pytest.raises(PersistenceError, match=r"c\.tokens: more than the 1"):
            load_tokens(path)


class TestMetaFaults:
    """A bad ``.meta`` fails naming the file, for word and document models alike."""

    @staticmethod
    def saved(tmp_path, kind):
        base = str(tmp_path / "m")
        if kind == "word":
            save_model(trained_model(), base)
            return base, load_model, ".vec"
        save_doc_model(train_doc2vec(DOCS, CFG), base)
        return base, load_doc_model, ".dvec"

    @pytest.mark.parametrize("kind", ["word", "doc"])
    @pytest.mark.parametrize("line", ["dim = abc", "window = x", "dim = 0", "alpha0 = inf"])
    def test_bad_value_names_file_and_key(self, tmp_path, kind, line):
        base, load, _ = self.saved(tmp_path, kind)
        key = line.split()[0]
        with open(base + ".meta") as f:
            lines = [line + "\n" if ln.startswith(key + " ") else ln for ln in f]
        with open(base + ".meta", "w") as f:
            f.writelines(lines)
        with pytest.raises(PersistenceError, match=rf"m\.meta: {key} "):
            load(base)

    @pytest.mark.parametrize("kind", ["word", "doc"])
    def test_repeated_key_names_file_and_key(self, tmp_path, kind):
        base, load, _ = self.saved(tmp_path, kind)
        with open(base + ".meta", "a") as f:
            f.write("dim = 6\n")
        with pytest.raises(PersistenceError, match=r"m\.meta: repeated key 'dim'"):
            load(base)

    @pytest.mark.parametrize("kind", ["word", "doc"])
    def test_repeated_label_names_file_and_row(self, tmp_path, kind):
        base, load, suffix = self.saved(tmp_path, kind)
        with open(base + suffix) as f:
            lines = f.readlines()
        first = lines[1].partition("\t")[0]
        rewrite_line(base + suffix, 2, first + "\t" + lines[2].partition("\t")[2])
        with pytest.raises(PersistenceError,
                           match=rf"m\{suffix} row 2: duplicate label '{first}'"):
            load(base)

    @pytest.mark.parametrize("kind", ["word", "doc"])
    def test_dim_other_than_matrix_columns_names_both_files(self, tmp_path, kind):
        base, load, suffix = self.saved(tmp_path, kind)
        with open(base + ".meta") as f:
            meta = f.read()
        with open(base + ".meta", "w") as f:
            f.write(meta.replace("dim = 6\n", "dim = 7\n"))
        with pytest.raises(PersistenceError) as caught:
            load(base)
        assert str(caught.value) == f"{base}.meta: dim = 7, but {base}{suffix} has 6 columns"


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
