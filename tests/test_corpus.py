import csv
import dataclasses
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_build_vocabulary
from litscreen.corpus import (
    CorpusError,
    CorpusRows,
    EncodedCorpus,
    default_license_patterns,
    default_stopwords,
    element_symbols,
    load_corpus,
    preprocess,
    preprocess_set,
)


def write_csv(tmp_path, text, name="c.csv"):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    return path


class TestLoadCorpus:
    def test_basic_load_and_default_ids(self, tmp_path):
        path = write_csv(str(tmp_path), "abstract\nfirst doc\nsecond doc\n")
        rows = load_corpus(path)
        assert rows == CorpusRows(["1", "2"], ["first doc", "second doc"], 0)

    def test_id_column(self, tmp_path):
        path = write_csv(str(tmp_path), "id,abstract\na1,x\na2,y\n")
        assert load_corpus(path, id_column="id").ids == ["a1", "a2"]

    def test_byte_order_mark_not_part_of_first_column(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        path = write_csv(str(tmp_path), "\ufeffid,abstract\na1,x\na2,y\n")
        assert load_corpus(path, id_column="id").ids == ["a1", "a2"]
        path = write_csv(str(tmp_path), "\ufeffabstract,id\nfirst doc,a1\n", name="d.csv")
        assert load_corpus(path).texts == ["first doc"]

    def test_missing_text_column(self, tmp_path):
        path = write_csv(str(tmp_path), "title\nfoo\n")
        with pytest.raises(CorpusError):
            load_corpus(path)

    @pytest.mark.parametrize("header, column", [
        ("id,abstract,abstract", "abstract"), ("id,abstract,id", "id")])
    def test_repeated_text_or_id_column_rejected(self, tmp_path, header, column):
        path = write_csv(str(tmp_path), f"{header}\na,x,y\n")
        with pytest.raises(CorpusError,
                           match=re.escape(f"{path}: column {column!r} repeats in the header")):
            load_corpus(path, id_column="id")

    def test_empty_abstracts_skipped_and_counted(self, tmp_path):
        # blank lines are not data rows; whitespace-only abstracts are
        path = write_csv(str(tmp_path), "abstract\nx\n\ny\n   \n")
        rows = load_corpus(path)
        assert rows.skipped_empty == 1
        assert rows.ids == ["1", "2"]

    def test_short_row_rejected_naming_file_and_row(self, tmp_path):
        path = write_csv(str(tmp_path), "id,abstract\na1,x\nonlyone\na3,z\n")
        with pytest.raises(CorpusError, match=re.escape(
                f"{path} row 2: row has 1 fields, need at least 2")):
            load_corpus(path, id_column="id")

    def test_oversized_field_rejected_naming_file_and_row(self, tmp_path):
        big = "x" * (csv.field_size_limit() + 1)
        path = write_csv(str(tmp_path), f"abstract\nfirst\n{big}\nthird\nfourth\n")
        with pytest.raises(CorpusError, match=re.escape(
                f"{path} row 2: field larger than field limit")):
            load_corpus(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write_csv(str(tmp_path), "id,abstract\na,x\na,y\n")
        with pytest.raises(CorpusError):
            load_corpus(path, id_column="id")

    def test_missing_file(self):
        with pytest.raises(CorpusError):
            load_corpus("/nonexistent/corpus.csv")

    @pytest.mark.parametrize("rows, end, line", [
        (1000, b"\n", 1002), (1000, b"\r\n", 1002), (1000, b"\r", 1002), (1, b"\n", 3),
    ], ids=["lf_past_the_decode_ahead", "crlf", "cr", "second_row"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, rows, end, line):
        path = os.path.join(str(tmp_path), "c.csv")
        with open(path, "wb") as f:
            f.write(b"id,abstract" + end)
            f.write(b"".join(b"a%d,Ag films" % i + end for i in range(rows)))
            f.write(b"z,caf\xe9" + end + b"y,Pt films" + end)
        with pytest.raises(CorpusError,
                           match=rf"c\.csv line {line}: not UTF-8 text \(invalid continuation"):
            load_corpus(path, id_column="id")

    def test_quoted_multiline_field(self, tmp_path):
        path = write_csv(str(tmp_path), 'abstract\n"line one\nline two"\nplain\n')
        rows = load_corpus(path)
        assert len(rows.texts) == 2
        assert "line two" in rows.texts[0]


class TestPreprocess:
    def run(self, text):
        return preprocess(text)

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


class TestBundledLists:
    def test_read_once_and_immutable(self):
        for load in (element_symbols, default_stopwords, default_license_patterns):
            assert load() is load()
        assert isinstance(element_symbols(), frozenset) and len(element_symbols()) == 118
        assert isinstance(default_stopwords(), frozenset)
        patterns = default_license_patterns()
        assert isinstance(patterns, tuple) and patterns
        assert all(p.flags & re.IGNORECASE for p in patterns)


# few short tokens over a small non-ASCII alphabet, so counts tie often,
# and empty documents
TIE_HEAVY_TOKEN_LISTS = st.lists(st.lists(st.text("aAbé°μÅ–", min_size=1, max_size=2),
                                          max_size=12), max_size=6)


def vocabulary(token_lists, min_count=1):
    return EncodedCorpus.encode(token_lists).vocabulary(min_count)[0]


class TestVocabulary:
    def test_descending_count_then_lexicographic(self):
        vocab = vocabulary([["b", "a", "b", "c", "a", "b"]])
        assert vocab.tokens() == ["b", "a", "c"]
        vocab = vocabulary([["z", "y"], ["y", "z"]])
        assert vocab.tokens() == ["y", "z"]

    def test_min_count_threshold(self):
        vocab = vocabulary([["a", "a", "b"]], min_count=2)
        assert "b" not in vocab
        assert vocab.counts == {"a": 2}

    def test_empty_vocabulary_is_error(self):
        with pytest.raises(CorpusError):
            vocabulary([["a"]], min_count=2)
        with pytest.raises(CorpusError):
            vocabulary([])

    def test_tokens_round_trip_index(self):
        vocab = vocabulary([["c", "b", "b", "a", "a", "a"]])
        for i, t in enumerate(vocab.tokens()):
            assert vocab.index[t] == i

    # the encoded corpus's vocabulary against the oracle, with min_count
    # values that empty the vocabulary
    @settings(max_examples=300, deadline=None)
    @given(TIE_HEAVY_TOKEN_LISTS, st.integers(1, 3))
    def test_matches_reference_loop(self, token_lists, min_count):
        encoded = EncodedCorpus.encode(iter(token_lists))
        try:
            want = reference_build_vocabulary(iter(token_lists), min_count)
        except CorpusError as exc:
            with pytest.raises(CorpusError, match=re.escape(str(exc))):
                encoded.vocabulary(min_count)
            return
        got, lookup = encoded.vocabulary(min_count)
        # the same entries in the same insertion order
        assert list(got.index.items()) == list(want.index.items())
        # the counts dict is in index order, and a Counter would answer 0
        # for an unknown token instead of raising
        assert list(got.counts.items()) == [(t, want.counts[t]) for t in want.index]
        assert type(got.counts) is dict
        # the lookup maps each type to its index, or -1 where it is left out
        assert lookup.tolist() == [want.index.get(t, -1) for t in encoded.types]


class TestEncodedCorpus:
    @settings(max_examples=200, deadline=None)
    @given(TIE_HEAVY_TOKEN_LISTS, st.data())
    def test_documents_and_batches_decode_to_the_token_lists(self, token_lists, data):
        encoded = EncodedCorpus.encode(token_lists)
        assert len(encoded) == len(token_lists)
        assert list(encoded) == [tuple(t) for t in token_lists]
        assert encoded.types == tuple(sorted({t for tokens in token_lists for t in tokens}))
        if token_lists:
            assert encoded[-1] == tuple(token_lists[-1])
        docs = data.draw(st.lists(st.integers(0, max(0, len(token_lists) - 1)),
                                  max_size=len(token_lists)))
        batch = encoded.take(docs)
        assert list(batch) == [tuple(token_lists[i]) for i in docs]
        assert batch.types == encoded.types
        assert batch.counts.tolist() == [sum(token_lists[i].count(t) for i in docs)
                                         for t in encoded.types]

    def test_out_of_range_documents_raise(self):
        encoded = EncodedCorpus.encode([["a"], ["b", "a"]])
        for doc in (2, -3):
            with pytest.raises(IndexError):
                encoded[doc]
        for docs in ([0, 2], [-1]):
            with pytest.raises(IndexError):
                encoded.take(docs)
        assert encoded.take([]).ids.size == 0 and len(encoded.take(np.array([1]))) == 1

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_count must be positive"):
            EncodedCorpus.encode([["a"]]).vocabulary(0)


def test_preprocess_set_fills_tokens(tmp_path):
    path = write_csv(str(tmp_path), "abstract\nThe Ag study of films\n  \nPt\n")
    docs = preprocess_set(load_corpus(path))
    # the set holds the ids, one encoding and the count, and no text
    assert [f.name for f in dataclasses.fields(docs)] == ["ids", "corpus", "skipped_empty"]
    assert (docs.ids, docs.skipped_empty) == (["1", "3"], 1)
    assert docs.corpus.types == ("Ag", "Pt", "films", "study")
    assert docs.corpus.ids.tolist() == [0, 3, 2, 1]
    assert docs.corpus.lengths.tolist() == [3, 1]
    # iterating decodes read-only (id, tokens) views
    assert list(docs) == [("1", ("Ag", "study", "films")), ("3", ("Pt",))]
    assert [d.tokens for d in docs] == list(docs.corpus)
    with pytest.raises(AttributeError):
        next(iter(docs)).tokens = ()


# words that preprocess keeps, lowercases or drops, license phrases it
# strips, and characters that IGNORECASE folds (ſ, ı) or that split tokens
ABSTRACT_PIECES = st.sampled_from([
    "Ag", "AG", "ag", "Pt", "B", "b", "the", "of", "Films", "films", "x1", "2020", "μm", "Å",
    "°C", "ſ", "ı", "Ω", "_", "-", ",", ".", " ", "\n", "©", "(c) 2021 Elsevier.",
    "All rights reserved.", "Published by Elsevier B.V.", "licenſe", "CC BY 4.0 license"])
ABSTRACTS = st.lists(st.one_of(st.lists(ABSTRACT_PIECES, max_size=12).map("".join),
                               st.text(max_size=12)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(ABSTRACTS, st.integers(0, 3))
def test_each_encoded_document_decodes_to_its_cleaned_abstract(texts, skipped):
    ids = [f"d{i}" for i in range(len(texts))]
    docs = preprocess_set(CorpusRows(ids, texts, skipped))
    want = [tuple(preprocess(text)) for text in texts]
    assert (docs.ids, len(docs), docs.skipped_empty) == (ids, len(texts), skipped)
    assert list(docs.corpus) == want
    assert docs.corpus.types == tuple(sorted({t for tokens in want for t in tokens}))
    assert docs.corpus.lengths.tolist() == list(map(len, want))


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
    @given(_corpus_bytes(), st.sampled_from([None, "id"]))
    def test_only_corpus_error_escapes(self, data, id_column):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.csv")
            with open(path, "wb") as f:
                f.write(data)
            try:
                docs = load_corpus(path, id_column=id_column)
            except CorpusError:
                return
            with open(path, encoding="utf-8-sig", newline="") as f:
                rows = sum(1 for row in list(csv.reader(f))[1:] if row)
        assert len(set(docs.ids)) == len(docs.ids) == len(docs.texts)
        assert all(text.strip() for text in docs.texts)
        # no row is dropped without a count
        assert len(docs.ids) + docs.skipped_empty == rows
