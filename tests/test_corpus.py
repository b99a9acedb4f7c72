import csv
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litscreen.corpus import (
    CorpusError,
    build_vocabulary,
    default_license_patterns,
    default_stopwords,
    element_symbols,
    load_corpus,
    preprocess,
    preprocess_set,
)

ELS = element_symbols()
STOPS = default_stopwords()
LIC = default_license_patterns()


def write_csv(tmp_path, text, name="c.csv"):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    return path


class TestLoadCorpus:
    def test_basic_load_and_default_ids(self, tmp_path):
        path = write_csv(str(tmp_path), "abstract\nfirst doc\nsecond doc\n")
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["1", "2"]
        assert [d.text for d in docs] == ["first doc", "second doc"]

    def test_id_column(self, tmp_path):
        path = write_csv(str(tmp_path), "id,abstract\na1,x\na2,y\n")
        docs = load_corpus(path, id_column="id")
        assert docs.ids() == ["a1", "a2"]

    def test_byte_order_mark_not_part_of_first_column(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        path = write_csv(str(tmp_path), "\ufeffid,abstract\na1,x\na2,y\n")
        assert load_corpus(path, id_column="id").ids() == ["a1", "a2"]
        path = write_csv(str(tmp_path), "\ufeffabstract,id\nfirst doc,a1\n", name="d.csv")
        docs = load_corpus(path)
        assert [d.text for d in docs] == ["first doc"]

    def test_missing_text_column(self, tmp_path):
        path = write_csv(str(tmp_path), "title\nfoo\n")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_empty_abstracts_skipped_and_counted(self, tmp_path):
        # blank lines are not data rows; whitespace-only abstracts are
        path = write_csv(str(tmp_path), "abstract\nx\n\ny\n   \n")
        docs = load_corpus(path)
        assert len(docs) == 2
        assert docs.skipped_empty == 1
        assert docs.skipped_malformed == []
        assert docs.ids() == ["1", "2"]

    def test_short_rows_recorded_or_strict(self, tmp_path):
        path = write_csv(str(tmp_path), "id,abstract\na1,x\nonlyone\na3,z\n")
        docs = load_corpus(path, id_column="id")
        assert len(docs) == 2
        assert len(docs.skipped_malformed) == 1
        assert docs.skipped_malformed[0][0] == 2
        with pytest.raises(CorpusError):
            load_corpus(path, id_column="id", strict=True)

    def test_oversized_field_skips_only_its_row(self, tmp_path):
        big = "x" * (csv.field_size_limit() + 1)
        path = write_csv(str(tmp_path), f"abstract\nfirst\n{big}\nthird\nfourth\n")
        docs = load_corpus(path)
        assert docs.ids() == ["1", "3", "4"]
        assert [row for row, _ in docs.skipped_malformed] == [2]
        with pytest.raises(CorpusError, match="row 2"):
            load_corpus(path, strict=True)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write_csv(str(tmp_path), "id,abstract\na,x\na,y\n")
        with pytest.raises(CorpusError):
            load_corpus(path, id_column="id")

    def test_missing_file(self):
        with pytest.raises(CorpusError):
            load_corpus("/nonexistent/corpus.csv")

    def test_quoted_multiline_field(self, tmp_path):
        path = write_csv(str(tmp_path), 'abstract\n"line one\nline two"\nplain\n')
        docs = load_corpus(path)
        assert len(docs) == 2
        assert "line two" in docs.documents[0].text


class TestPreprocess:
    def run(self, text):
        return preprocess(text, ELS, STOPS, LIC)

    def test_lowercases_and_drops_stopwords(self):
        assert self.run("The Quick Results of measurement") == [
            "quick",
            "results",
            "measurement",
        ]

    def test_element_symbols_kept_verbatim(self):
        toks = self.run("doped with Ag and BaTiO3 powders")
        assert "Ag" in toks
        # mixed formula is not a bare symbol, so it lowercases
        assert "batio3" in toks

    def test_case_sensitive_element_match(self):
        # AG is not the symbol Ag; it lowercases like any other word
        assert self.run("AG electrode") == ["ag", "electrode"]
        assert self.run("Ag electrode") == ["Ag", "electrode"]

    def test_short_non_elements_dropped(self):
        # single letters that are not element symbols vanish, H stays
        toks = self.run("x H q W measurement")
        assert toks == ["H", "W", "measurement"]

    def test_numbers_and_punctuation(self):
        toks = self.run("at 300 K, resistivity ~= 1.5e-3 ohm")
        assert "300" in toks
        assert "K" in toks
        assert "resistivity" in toks
        assert "ohm" in toks

    def test_license_boilerplate_removed(self):
        toks = self.run("Great results. All rights reserved.")
        assert toks == ["great", "results"]
        toks = self.run("Strong films. (c) 2017 published under terms.")
        assert toks == ["strong", "films"]

    def test_empty_text(self):
        assert self.run("") == []
        assert self.run("   \n  ") == []

    def test_idempotent_on_clean_stream(self):
        import numpy as np

        rng = np.random.default_rng(11)
        words = ["dielectric", "Ag", "conductivity", "oxide", "film", "Ba",
                 "the", "of", "copyright", "commons", "reserved", "access",
                 "article", "rights", "K", "2019", "open", "creative"]
        for _ in range(50):
            n = int(rng.integers(3, 30))
            text = " ".join(words[int(rng.integers(0, len(words)))] for _ in range(n))
            once = self.run(text)
            again = self.run(" ".join(once))
            assert again == once


class TestVocabulary:
    def test_descending_count_then_lexicographic(self):
        vocab = build_vocabulary([["b", "a", "b", "c", "a", "b"]])
        assert vocab.tokens() == ["b", "a", "c"]
        vocab = build_vocabulary([["z", "y"], ["y", "z"]])
        assert vocab.tokens() == ["y", "z"]

    def test_min_count_threshold(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert "b" not in vocab
        assert vocab.counts == {"a": 2}

    def test_empty_vocabulary_is_error(self):
        with pytest.raises(CorpusError):
            build_vocabulary([["a"]], min_count=2)
        with pytest.raises(CorpusError):
            build_vocabulary([])

    def test_tokens_round_trip_index(self):
        vocab = build_vocabulary([["c", "b", "b", "a", "a", "a"]])
        for i, t in enumerate(vocab.tokens()):
            assert vocab.index[t] == i


def test_preprocess_set_fills_tokens(tmp_path):
    path = write_csv(str(tmp_path), "abstract\nThe Ag study of films\n")
    docs = preprocess_set(load_corpus(path))
    assert docs.documents[0].tokens == ("Ag", "study", "films")
    assert docs.token_lists() == [("Ag", "study", "films")]


_CORPUS_PIECES = st.sampled_from([
    b"id", b"abstract", b"Ag films", b"x", b"1", b" ", b",", b'"', b'""', b"\r", b"\n",
    b"\r\n", b"\x00", b"\xef\xbb\xbf", "caf\u00e9".encode()])
_BAD_BYTES = st.one_of(st.sampled_from([b"\xe9", b"\xff", b"\xc3"]), st.binary(max_size=3))


@st.composite
def _corpus_bytes(draw):
    """A plausible header, or none, then rows of CSV punctuation and text,
    in half the files with bytes that need not be UTF-8."""
    header = draw(st.sampled_from([
        b"id,abstract\n", b"abstract\n", b"abstract,id\r\n", b"\xef\xbb\xbfid,abstract\n",
        b'"id","abstract"\n', b"id\n", b""]))
    pieces = st.one_of(_CORPUS_PIECES, _BAD_BYTES) if draw(st.booleans()) else _CORPUS_PIECES
    return header + b"".join(draw(st.lists(pieces, max_size=40)))


class TestLoadCorpusFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_corpus_bytes(), st.booleans(), st.sampled_from([None, "id"]))
    def test_only_corpus_error_escapes(self, data, strict, id_column):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.csv")
            with open(path, "wb") as f:
                f.write(data)
            try:
                docs = load_corpus(path, id_column=id_column, strict=strict)
            except CorpusError:
                return
        assert len(set(docs.ids())) == len(docs)
        assert all(doc.text.strip() for doc in docs)
        assert not strict or not docs.skipped_malformed
