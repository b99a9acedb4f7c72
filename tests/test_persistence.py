import math
import os

import numpy as np
import pytest

from litscreen.corpus import Document, DocumentSet
from litscreen.embedding import EmbeddingConfig, train_doc2vec, train_word2vec
from litscreen.persistence import (
    PersistenceError,
    file_digest,
    load_doc_model,
    load_model,
    load_selection,
    load_tokens,
    read_manifest,
    save_doc_model,
    save_iteration_log,
    save_iteration_table,
    save_model,
    save_selection,
    save_tokens,
    write_manifest,
)
from litscreen.refine import IterationRecord
from litscreen.selection import SelectionOrder

DOCS = [["alpha", "beta", "alpha"], ["beta", "gamma", "delta"], ["alpha", "gamma"]] * 3
CFG = EmbeddingConfig(dim=6, window=2, epochs=2, seed=13)

# A 3-token model as litscreen-wordmodel/1 wrote it, node matrix included.
LEGACY_FILES = {
    ".meta": "format = litscreen-wordmodel/1\ndim = 2\nwindow = 3\nepochs = 2\n"
             "alpha0 = 0.025000000000000001\nalpha_min = 0.0001\nmin_count = 1\n"
             "seed = 4\n",
    ".vec": "3 2\ndielectric\t0.5 -1.25\nconductivity\t0.33333333333333331 2\n"
            "Ag\t-0.125 0.75\n",
    ".nodes": "2 2\nn0\t0.25 0.5\nn1\t-1 0\n",
}


def trained_model():
    return train_word2vec(DOCS, CFG)


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

    @pytest.mark.parametrize("with_nodes", [True, False])
    def test_format_1_model_still_loads(self, tmp_path, with_nodes):
        base = str(tmp_path / "m")
        for ext, text in LEGACY_FILES.items():
            if ext != ".nodes" or with_nodes:
                with open(base + ext, "w") as f:
                    f.write(text)
        loaded = load_model(base)
        assert loaded.vocab.tokens() == ["dielectric", "conductivity", "Ag"]
        assert np.array_equal(loaded.vectors,
                              [[0.5, -1.25], [1.0 / 3.0, 2.0], [-0.125, 0.75]])
        assert loaded.config == EmbeddingConfig(dim=2, window=3, epochs=2, seed=4)
        assert loaded.node_vectors is None
        save_model(loaded, str(tmp_path / "again"))
        with open(tmp_path / "again.vec") as f:
            assert f.read() == LEGACY_FILES[".vec"]

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
        with open(base + ".meta", "w") as f:
            f.write(meta.replace("litscreen-wordmodel/2", "litscreen-wordmodel/9"))
        with pytest.raises(PersistenceError, match="format"):
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

    def test_documents_past_count_rejected(self, tmp_path):
        path = self.two_docs(tmp_path)
        rewrite_line(path, 0, "litscreen-tokens/1 1\n")
        with pytest.raises(PersistenceError, match=r"c\.tokens: more than the 1"):
            load_tokens(path)


class TestSelectionRoundTrip:
    def test_round_trip_with_nan_seed(self, tmp_path):
        order = SelectionOrder(
            indices=[2, 0, 1],
            distances=[float("nan"), 1.25, 0.5],
        )
        path = str(tmp_path / "sel.csv")
        save_selection(order, ["ida", "idb", "idc"], path)
        loaded = load_selection(path, ["ida", "idb", "idc"])
        assert loaded.indices == [2, 0, 1]
        assert math.isnan(loaded.distances[0])
        assert loaded.distances[1:] == [1.25, 0.5]

    def test_header_and_empty_distance_cell(self, tmp_path):
        order = SelectionOrder(indices=[0], distances=[float("nan")])
        path = str(tmp_path / "sel.csv")
        save_selection(order, ["only"], path)
        with open(path) as f:
            content = f.read()
        assert content == "rank,doc_id,min_distance\n0,only,\n"

    def test_unknown_id_rejected(self, tmp_path):
        order = SelectionOrder(indices=[0], distances=[float("nan")])
        path = str(tmp_path / "sel.csv")
        save_selection(order, ["only"], path)
        with pytest.raises(PersistenceError):
            load_selection(path, ["different"])


class TestIterationLogs:
    RECORDS = [
        IterationRecord(iteration=1, documents_used=50, vocab_complete=False,
                        missing=("Ti",)),
        IterationRecord(iteration=2, documents_used=100, vocab_complete=True,
                        centroid=(0.5, 0.25)),
        IterationRecord(iteration=3, documents_used=150, vocab_complete=True,
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

    def test_plot_table_uses_nan(self, tmp_path):
        path = str(tmp_path / "it.dat")
        save_iteration_table(self.RECORDS, path)
        with open(path) as f:
            lines = f.read().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "1 50 0 NaN NaN NaN"
        assert lines[2] == "2 100 1 0.5 0.25 NaN"


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
