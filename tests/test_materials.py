import csv
import math
import os
import re
import tempfile

import mpmath
import numpy as np
import pytest
from helpers import (
    SCORE_BOUND,
    Composition,
    material_vector,
    parse_composition,
    reference_load_compositions,
    reference_scores,
    similarity_point,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from litscreen.corpus import Vocabulary, element_symbols, load_corpus, preprocess_set
from litscreen.embedding import (
    EmbeddingConfig,
    OutOfVocabularyError,
    WordModel,
    train_word2vec,
)
from litscreen.materials import (
    CandidateTable,
    CompositionError,
    PropertyAnchors,
    centroid,
    enumerate_simplex,
    load_compositions,
    similarity_points,
)
from litscreen.persistence import write_csv
from litscreen.synth import (
    SynthSpec,
    synthetic_candidates,
    synthetic_corpus,
    write_candidates_csv,
    write_corpus_csv,
)

ELS = ("Ni", "Pd", "Pt", "Ru")


def toy_model(vectors_by_token):
    """WordModel with hand-picked vectors; training fields are irrelevant here."""
    tokens = list(vectors_by_token)
    vectors = np.array([vectors_by_token[t] for t in tokens], dtype=np.float64)
    vocab = Vocabulary(index={t: i for i, t in enumerate(tokens)}, counts=None)
    cfg = EmbeddingConfig(dim=vectors.shape[1])
    nodes = np.zeros((max(0, len(tokens) - 1), vectors.shape[1]))
    return WordModel(vocab=vocab, vectors=vectors, node_vectors=nodes, config=cfg, seed=0)


class TestParseComposition:
    def test_explicit_fractions(self):
        comp = parse_composition("Ni0.25Pd0.25Pt0.25Ru0.25", ELS)
        assert comp.fractions == (0.25, 0.25, 0.25, 0.25)
        assert comp.id == "Ni0.25Pd0.25Pt0.25Ru0.25"

    def test_implicit_unity(self):
        comp = parse_composition("Pt", ELS)
        assert comp.fraction("Pt") == 1.0
        assert comp.fraction("Ni") == 0.0

    def test_two_element(self):
        comp = parse_composition("Ni0.4Ru0.6", ELS)
        assert comp.fraction("Ni") == pytest.approx(0.4)
        assert comp.fraction("Ru") == pytest.approx(0.6)

    def test_near_unity_sum_renormalized(self):
        comp = parse_composition("Ni0.3333333Pt0.6666664", ELS)
        assert math.fsum(comp.fractions) == pytest.approx(1.0, abs=1e-12)

    def test_bad_sum_rejected(self):
        with pytest.raises(CompositionError):
            parse_composition("Ni0.5Pt0.6", ELS)

    def test_unknown_element(self):
        with pytest.raises(CompositionError):
            parse_composition("Xx1", ELS)
        with pytest.raises(CompositionError):
            parse_composition("Ag1", ELS)

    def test_repeated_element(self):
        with pytest.raises(CompositionError):
            parse_composition("Ni0.5Ni0.5", ELS)

    def test_garbage(self):
        with pytest.raises(CompositionError):
            parse_composition("", ELS)
        with pytest.raises(CompositionError):
            parse_composition("0.5Ni", ELS)


class TestComposition:
    def test_validation(self):
        with pytest.raises(CompositionError):
            Composition(elements=("A", "B"), fractions=(1.0,))
        with pytest.raises(CompositionError):
            Composition(elements=("A", "A"), fractions=(0.5, 0.5))
        with pytest.raises(CompositionError):
            Composition(elements=("A", "B"), fractions=(-0.1, 1.1))
        with pytest.raises(CompositionError):
            Composition(elements=("A", "B"), fractions=(0.6, 0.6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fraction_rejected(self, bad):
        with pytest.raises(CompositionError, match="non-finite"):
            Composition(elements=("A", "B"), fractions=(bad, 0.5))

    def test_fraction_of_undeclared_element_rejected(self):
        comp = Composition(elements=("A", "B"), fractions=(0.5, 0.5))
        with pytest.raises(CompositionError, match="^element 'C' not declared$"):
            comp.fraction("C")

    def test_exact_grid_sums_pass(self):
        # thirds do not sum to exactly 1.0 in floats; fsum tolerance absorbs it
        third = 1.0 / 3.0
        Composition(elements=("A", "B", "C"), fractions=(third, third, third))

    def test_sum_fsum_cannot_add_fails_as_the_reader_says(self):
        # the candidate reader's words for such a row, its id in place of its file and row
        for fractions, fault in [((1e308, 1e308), "fractions sum to nan, expected 1"),
                                 ((math.inf, -math.inf), "non-finite fraction inf for Ag")]:
            with pytest.raises(CompositionError) as caught:
                Composition(elements=("Ag", "Pt"), fractions=fractions, id="x")
            assert str(caught.value) == f"composition 'x': {fault}"


class TestEnumerateSimplex:
    @pytest.mark.parametrize(
        "k,steps", [(2, 4), (3, 4), (4, 4), (3, 6), (5, 3)]
    )
    def test_count_matches_stars_and_bars(self, k, steps):
        elements = tuple(f"E{i}" for i in range(k))
        # grid compositions of k parts = C(steps + k - 1, k - 1)
        comps = enumerate_simplex(elements, steps)
        assert len(comps) == math.comb(steps + k - 1, k - 1)

    def test_all_points_on_grid_and_unique(self):
        comps = enumerate_simplex(("A", "B", "C"), 5)
        seen = set()
        for comp in comps:
            key = tuple(round(f * 5) for f in comp.fractions)
            assert sum(key) == 5
            assert all(abs(f - k / 5) < 1e-12 for f, k in zip(comp.fractions, key))
            seen.add(key)
        assert len(seen) == len(comps)

    def test_ids_parse_back(self):
        comps = enumerate_simplex(("Ni", "Pt"), 4)
        for comp in comps:
            back = parse_composition(comp.id, ("Ni", "Pt"))
            assert back.fractions == pytest.approx(comp.fractions, abs=1e-12)

    def test_ids_stay_distinct_past_a_million_steps(self):
        # six significant digits would print 500000/1000001 and 500001/1000001 alike
        table = enumerate_simplex(("Ag", "Pt"), 1_000_001)
        assert len(set(table.ids)) == len(table) == 1_000_002

    @pytest.mark.parametrize("elements, steps, message", [
        ((), 4, "need at least one element"),
        (("A", "B"), 0, "steps must be >= 1, got 0"),
    ], ids=["no_elements", "no_steps"])
    def test_empty_grid_rejected(self, elements, steps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_simplex(elements, steps)

    def test_count_guard(self):
        # C(67, 7), about 8.7e8 rows, over the 2,000,000 cap
        with pytest.raises(CompositionError, match="869648208 compositions, over the cap 2000000"):
            enumerate_simplex(tuple(f"E{i}" for i in range(8)), 60)


class TestMaterialVector:
    def test_weighted_sum(self):
        model = toy_model({"Ni": [1.0, 0.0], "Pt": [0.0, 1.0], "conductivity": [1.0, 1.0]})
        comp = Composition(elements=("Ni", "Pt"), fractions=(0.3, 0.7))
        vec = material_vector(model, comp)
        assert vec == pytest.approx([0.3, 0.7], abs=1e-15)

    def test_zero_fraction_element_not_required(self):
        model = toy_model({"Ni": [1.0, 0.0], "conductivity": [1.0, 1.0]})
        comp = Composition(elements=("Ni", "Missing"), fractions=(1.0, 0.0))
        vec = material_vector(model, comp)
        assert vec == pytest.approx([1.0, 0.0])

    def test_missing_element_vector_raises(self):
        model = toy_model({"Ni": [1.0, 0.0]})
        comp = Composition(elements=("Ni", "Pt"), fractions=(0.5, 0.5))
        with pytest.raises(OutOfVocabularyError):
            material_vector(model, comp)


class TestSimilarityPoint:
    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(31)
        mpmath.mp.dps = 50
        for _ in range(25):
            dim = 6
            vecs = {
                "Ni": rng.normal(size=dim),
                "Pt": rng.normal(size=dim),
                "dielectric": rng.normal(size=dim),
                "conductivity": rng.normal(size=dim),
            }
            model = toy_model(vecs)
            f = rng.uniform(0.05, 0.95)
            comp = Composition(elements=("Ni", "Pt"), fractions=(f, 1.0 - f))
            pt = similarity_point(model, comp)

            mat = [mpmath.mpf(f) * mpmath.mpf(a) + (1 - mpmath.mpf(f)) * mpmath.mpf(b)
                   for a, b in zip(vecs["Ni"], vecs["Pt"])]

            def mp_cos(u, v):
                dot = mpmath.fsum(a * mpmath.mpf(b) for a, b in zip(u, v))
                nu = mpmath.sqrt(mpmath.fsum(a * a for a in u))
                nv = mpmath.sqrt(mpmath.fsum(mpmath.mpf(b) ** 2 for b in v))
                return dot / (nu * nv)

            assert pt.s_dielectric == pytest.approx(
                float(mp_cos(mat, vecs["dielectric"])), abs=1e-12
            )
            assert pt.s_conductivity == pytest.approx(
                float(mp_cos(mat, vecs["conductivity"])), abs=1e-12
            )

    def test_axes_follow_anchor_order(self):
        model = toy_model({
            "Ni": [1.0, 0.0],
            "hardness": [1.0, 0.0],
            "toughness": [0.0, 1.0],
        })
        comp = Composition(elements=("Ni",), fractions=(1.0,))
        pt = similarity_point(model, comp, PropertyAnchors(terms=("hardness", "toughness")))
        assert pt.s_dielectric == pytest.approx(1.0)
        assert pt.s_conductivity == pytest.approx(0.0)

    def test_missing_anchor_raises(self):
        model = toy_model({"Ni": [1.0, 0.0]})
        comp = Composition(elements=("Ni",), fractions=(1.0,))
        with pytest.raises(OutOfVocabularyError):
            similarity_point(model, comp)


class TestCentroid:
    def make(self, pairs):
        return np.array(pairs, dtype=np.float64)

    def test_exact_componentwise_mean(self):
        pairs = [(0.1, 0.4), (0.3, 0.2)]
        c = centroid(self.make(pairs))
        coords = np.array(pairs)
        assert c[0] == coords[:, 0].mean()
        assert c[1] == coords[:, 1].mean()

    def test_single_point(self):
        c = centroid(self.make([(0.25, -0.5)]))
        assert tuple(c) == (0.25, -0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            centroid([])


class TestAnchors:
    def test_defaults(self):
        assert PropertyAnchors().terms == ("dielectric", "conductivity")

    def test_validation(self):
        with pytest.raises(ValueError):
            PropertyAnchors(terms=("one",))
        with pytest.raises(ValueError):
            PropertyAnchors(terms=("a", "b", "c"))
        with pytest.raises(ValueError):
            PropertyAnchors(terms=("Upper", "case"))
        with pytest.raises(ValueError):
            PropertyAnchors(terms=("", "x"))
        with pytest.raises(ValueError, match="the two anchor terms must differ"):
            PropertyAnchors(terms=("dielectric", "dielectric"))

    @pytest.mark.parametrize("term", ["the", "x", "band-gap", "Dielectric", " dielectric", "Ni"])
    def test_refuses_a_term_preprocessing_never_emits(self, term):
        with pytest.raises(ValueError, match=f"anchor term {term!r} is not a lowercase token"):
            PropertyAnchors(terms=(term, "conductivity"))


class TestLoadCompositions:
    def write(self, tmp_path, text):
        path = os.path.join(str(tmp_path), "cands.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def test_elements_inferred_from_header(self, tmp_path):
        path = self.write(tmp_path, "id,Ni,Pt,notes\na,0.5,0.5,hi\nb,1,0,\n")
        comps, measured, potential = load_compositions(path)
        assert [c.id for c in comps] == ["a", "b"]
        assert comps[0].elements == ("Ni", "Pt")
        assert comps[0].fractions == (0.5, 0.5)
        assert measured == {}
        assert potential is None

    def test_measured_and_potential(self, tmp_path):
        path = self.write(
            tmp_path,
            "id,Ni,Pt,current_density,potential\na,0.5,0.5,4.25,850\nb,1,0,,850\n",
        )
        comps, measured, potential = load_compositions(path)
        assert measured == {"a": 4.25}
        assert potential == 850.0

    def test_conflicting_potentials(self, tmp_path):
        path = self.write(
            tmp_path, "id,Ni,Pt,potential\na,0.5,0.5,850\nb,1,0,900\n"
        )
        with pytest.raises(CompositionError):
            load_compositions(path)

    def test_explicit_elements_must_exist(self, tmp_path):
        path = self.write(tmp_path, "id,Ni,Pt\na,0.5,0.5\n")
        with pytest.raises(CompositionError):
            load_compositions(path, elements=("Ni", "Ru"))

    def test_bad_sum(self, tmp_path):
        path = self.write(tmp_path, "id,Ni,Pt\na,0.5,0.6\n")
        with pytest.raises(CompositionError):
            load_compositions(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_fraction_names_file_and_row(self, tmp_path, bad):
        path = self.write(tmp_path, f"id,Ni,Pt\na,0.5,0.5\nb,{bad},0.5\n")
        with pytest.raises(CompositionError, match=rf"cands\.csv row 2: non-finite fraction .* for Ni"):
            load_compositions(path)

    def test_duplicate_ids(self, tmp_path):
        path = self.write(tmp_path, "id,Ni,Pt\na,0.5,0.5\na,1,0\n")
        with pytest.raises(CompositionError):
            load_compositions(path)

    def test_missing_file(self):
        with pytest.raises(CompositionError):
            load_compositions("/nonexistent/cands.csv")


def test_similarity_points_batch():
    model = toy_model({
        "Ni": [1.0, 0.0],
        "Pt": [0.0, 1.0],
        "dielectric": [1.0, 0.0],
        "conductivity": [0.0, 1.0],
    })
    comps = CandidateTable(("Ni", "Pt"), ("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
    pts = similarity_points(model, comps)
    assert pts.shape == (2, 2)
    assert pts[0, 0] == pytest.approx(1.0)
    assert pts[1, 1] == pytest.approx(1.0)


def random_model(tokens, dim, seed):
    rng = np.random.default_rng(seed)
    return toy_model({t: rng.standard_normal(dim) for t in tokens})


class TestCandidateTable:
    ELEMENTS = ("Ni", "Pt")

    def test_rows_are_composition_views(self):
        # the one per-row read a caller makes: each row's id and fraction(el)
        table = enumerate_simplex(("Ag", "Pt", "Ba"), 7)
        rows = list(table)
        assert len(rows) == len(table) == 36
        for i, row in enumerate(rows):
            assert row == table[i] and row.id == table.ids[i]
            assert row.elements == table.elements
            for j, el in enumerate(table.elements):
                assert row.fraction(el).hex() == float(table.fractions[i, j]).hex()
        with pytest.raises(AttributeError):
            rows[0].id = "x"  # read-only

    # rows the table must keep or refuse as the per-row oracle does
    ORACLE_ROWS = [(0.25, 0.75), (1.0, 0.0), (0.1, 0.9), (0.5, 0.6), (-0.5, 1.5),
                   (math.nan, 1.0), (math.inf, 0.0), (1e308, 1e308), (0.5, 0.5 + 2e-9)]

    @pytest.mark.parametrize("row", ORACLE_ROWS)
    def test_row_check_agrees_with_the_composition_oracle(self, row):
        try:
            Composition(self.ELEMENTS, row)
            kept = True
        except CompositionError:
            kept = False
        if kept:
            CandidateTable(self.ELEMENTS, ("a",), np.array([row]))
        else:
            with pytest.raises(CompositionError):
                CandidateTable(self.ELEMENTS, ("a",), np.array([row]))

    def test_fractions_read_only_without_touching_the_caller_array(self):
        source = np.array([[0.5, 0.5]])
        table = CandidateTable(self.ELEMENTS, ("a",), source)
        with pytest.raises(ValueError):
            table.fractions[0, 0] = 1.0
        source[0, 0] = 0.5  # the caller's array stays writable

    @pytest.mark.parametrize("row", [[0.5, 0.6], [-0.5, 1.5], [math.nan, 1.0], [math.inf, 0.0]])
    def test_invalid_rows_rejected_naming_the_row(self, row):
        with pytest.raises(CompositionError, match=r"candidate 'b' \(row 2\)"):
            CandidateTable(self.ELEMENTS, ("a", "b"), np.array([[0.5, 0.5], row]))

    def test_overflowing_row_sum_is_a_composition_error(self):
        # numpy's overflow warning, an error under the test settings, must not escape
        with pytest.raises(CompositionError, match=r"candidate 'x' \(row 1\)"):
            CandidateTable(("A", "B"), ("x",), np.array([[1e308, 1e308]]))

    def test_shape_and_element_checks(self):
        with pytest.raises(CompositionError, match="shape"):
            CandidateTable(self.ELEMENTS, ("a", "b"), np.array([[0.5, 0.5]]))
        with pytest.raises(CompositionError, match="duplicate element"):
            CandidateTable(("Ni", "Ni"), ("a",), np.array([[0.5, 0.5]]))

    def test_present_lists_columns_with_a_positive_fraction(self):
        table = CandidateTable(("Ni", "Pt", "Ru"), ("a", "b"), np.array([[1.0, 0, 0], [0, 0, 1.0]]))
        assert table.present() == ("Ni", "Ru")


class TestEnumerateSimplexTable:
    @pytest.mark.parametrize("elements,steps", [
        (("Ag", "Pt", "Ba", "Ti"), 5),
        (("Ni", "Pt"), 300),  # part counts past 255 need a wider integer type
        (("Ag", "Pt", "Ba"), 1),
    ])
    def test_matches_recursive_enumeration(self, elements, steps):
        expected = []

        def rec(prefix, remaining):
            if len(prefix) == len(elements) - 1:
                fracs = tuple(p / steps for p in prefix + [remaining])
                label = "".join(f"{el}{f:g}" for el, f in zip(elements, fracs) if f > 0)
                expected.append((label, fracs))
                return
            for p in range(remaining + 1):
                rec(prefix + [p], remaining - p)

        rec([], steps)
        table = enumerate_simplex(elements, steps)
        assert list(table.ids) == [label for label, _ in expected]
        assert [tuple(r) for r in table.fractions.tolist()] == [f for _, f in expected]

    def test_single_element(self):
        table = enumerate_simplex(("Pt",), 3)
        assert table.ids == ("Pt1",)
        assert table.fractions.tolist() == [[1.0]]


class TestBulkScoresMatchPerCandidateOracle:
    """The bulk scores stay within SCORE_BOUND of the per-candidate path."""

    def drift(self, model, table, anchors=None):
        bulk = similarity_points(model, table, anchors)
        oracle = reference_scores(model, table, anchors)
        assert bulk.shape == oracle.shape == (len(table), 2)
        return float(np.max(np.abs(bulk - oracle)))

    def test_planted_grid_on_a_trained_model(self, tmp_path):
        path = str(tmp_path / "corpus.csv")
        write_corpus_csv(synthetic_corpus(SynthSpec(n_docs=120, rare_docs=6, seed=3)), path)
        docs = preprocess_set(load_corpus(path, id_column="id"))
        model = train_word2vec(docs.corpus, EmbeddingConfig(dim=24, epochs=2, seed=1))
        table = synthetic_candidates()
        assert len(table) == 35
        assert self.drift(model, table) <= SCORE_BOUND

    def test_six_element_grid_on_a_seeded_random_model(self):
        elements = ("Ag", "Pt", "Ba", "Ti", "Ni", "Pd")
        model = random_model(("dielectric", "conductivity") + elements, 200, seed=3)
        table = enumerate_simplex(elements, 12)
        assert len(table) == 6188
        assert self.drift(model, table) <= SCORE_BOUND

    @pytest.mark.parametrize("seed", range(5))
    def test_random_fractions_and_anchors(self, seed):
        rng = np.random.default_rng(seed)
        elements = ("Ni", "Pd", "Pt", "Ru", "Ir")
        model = random_model(("hardness", "toughness") + elements, int(rng.integers(2, 64)), seed)
        raw = rng.dirichlet(np.ones(len(elements)), size=300)
        raw[rng.random(raw.shape) < 0.3] = 0.0
        raw[raw.sum(axis=1) == 0, 0] = 1.0
        table = CandidateTable(elements, tuple(map(str, range(300))),
                               raw / raw.sum(axis=1, keepdims=True))
        anchors = PropertyAnchors(terms=("hardness", "toughness"))
        assert self.drift(model, table, anchors) <= SCORE_BOUND


class TestBulkScoring:
    def test_all_zero_column_needs_no_vector(self):
        model = toy_model({"Ni": [1.0, 0.0], "dielectric": [1.0, 1.0], "conductivity": [0.0, 1.0]})
        table = CandidateTable(("Ni", "Missing"), ("a",), np.array([[1.0, 0.0]]))
        assert similarity_points(model, table).tolist() == [[pytest.approx(2 ** -0.5), 0.0]]

    def test_positive_column_without_vector_raises(self):
        model = toy_model({"Ni": [1.0, 0.0], "dielectric": [1.0, 1.0], "conductivity": [0.0, 1.0]})
        table = CandidateTable(("Ni", "Pt"), ("a", "b"), np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(OutOfVocabularyError, match="Pt"):
            similarity_points(model, table)

    def test_missing_anchor_raises(self):
        model = toy_model({"Ni": [1.0, 0.0], "dielectric": [1.0, 1.0]})
        table = CandidateTable(("Ni",), ("a",), np.array([[1.0]]))
        with pytest.raises(OutOfVocabularyError, match="conductivity"):
            similarity_points(model, table)

    def test_zero_norm_material_vector_raises_naming_the_candidate(self):
        model = toy_model({"Ni": [1.0, 0.0], "Pt": [-1.0, 0.0],
                           "dielectric": [1.0, 1.0], "conductivity": [0.0, 1.0]})
        table = CandidateTable(("Ni", "Pt"), ("a", "b"), np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="'b' has a zero-norm material vector"):
            similarity_points(model, table)

    def test_zero_norm_anchor_raises(self):
        model = toy_model({"Ni": [1.0, 0.0], "dielectric": [0.0, 0.0], "conductivity": [0.0, 1.0]})
        table = CandidateTable(("Ni",), ("a",), np.array([[1.0]]))
        with pytest.raises(ValueError, match="zero-norm anchor"):
            similarity_points(model, table)

    def test_empty_table_scores_to_empty_array(self):
        model = toy_model({"Ni": [1.0, 0.0]})
        table = CandidateTable(("Ni",), (), np.zeros((0, 1)))
        assert similarity_points(model, table).shape == (0, 2)


class TestCentroidInput:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            centroid(np.zeros((3, 3)))


class TestLoadCompositionsInputHoles:
    def write(self, tmp_path, text):
        path = os.path.join(str(tmp_path), "cands.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        return path

    def test_non_numeric_measured_value_names_file_and_row(self, tmp_path):
        path = self.write(tmp_path, "id,Ni,Pt,current_density\na,0.5,0.5,1.5\nb,1,0,abc\n")
        with pytest.raises(CompositionError,
                           match=r"cands\.csv row 2: current_density 'abc' is not a number"):
            load_compositions(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_measured_value_rejected(self, tmp_path, bad):
        path = self.write(tmp_path, f"id,Ni,Pt,current_density\na,0.5,0.5,{bad}\n")
        with pytest.raises(CompositionError, match=r"cands\.csv row 1: non-finite current_density"):
            load_compositions(path)

    def test_non_numeric_potential_names_file_and_row(self, tmp_path):
        path = self.write(tmp_path, "id,Ni,Pt,potential\na,0.5,0.5,high\n")
        with pytest.raises(CompositionError, match=r"cands\.csv row 1: potential 'high'"):
            load_compositions(path)

    def test_negative_fraction_names_file_and_row(self, tmp_path):
        path = self.write(tmp_path, "id,Ni,Pt\na,0.5,0.5\nb,-0.5,1.5\n")
        with pytest.raises(CompositionError, match=r"cands\.csv row 2: negative fraction -0.5 for Ni"):
            load_compositions(path)

    @pytest.mark.parametrize("row,width", [("b,1", 2), ("b,1,0,", 4)])
    def test_ragged_row_rejected(self, tmp_path, row, width):
        path = self.write(tmp_path, f"id,Ni,Pt\na,0.5,0.5\n{row}\n")
        with pytest.raises(CompositionError,
                           match=rf"cands\.csv row 2: {width} fields, the header has 3"):
            load_compositions(path)

    @pytest.mark.parametrize("cells,fault", [
        ("inf,-inf", "non-finite fraction inf for Ni"),
        ("1e308,1e308", "fractions sum to nan"),
        ("0.5,nan", "non-finite fraction nan for Pt"),
    ])
    def test_values_fsum_cannot_add(self, tmp_path, cells, fault):
        path = self.write(tmp_path, f"id,Ni,Pt\na,{cells}\n")
        with pytest.raises(CompositionError, match=rf"cands\.csv row 1: {fault}"):
            load_compositions(path)

    def test_duplicate_id_names_the_row(self, tmp_path):
        path = self.write(tmp_path, "id,Ni,Pt\na,0.5,0.5\nb,1,0\na,0,1\n")
        with pytest.raises(CompositionError, match=r"cands\.csv row 3: duplicate composition id 'a'"):
            load_compositions(path)

    def test_blank_lines_skipped_and_rows_renormalized(self, tmp_path):
        path = self.write(tmp_path, "id,Ni,Pt\n\na,0.3333333,0.6666664\n\nb,,1\n")
        table, _, _ = load_compositions(path)
        assert table.ids == ("a", "b")
        total = 0.3333333 + 0.6666664
        assert table.fractions.tolist() == [[0.3333333 / total, 0.6666664 / total], [0.0, 1.0]]

    def test_byte_order_mark_is_not_part_of_the_id_header(self, tmp_path):
        path = self.write(tmp_path, "\ufeffid,Ni,Pt\nalpha,0.5,0.5\n")
        table, _, _ = load_compositions(path)
        assert table.ids == ("alpha",)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(CompositionError, match=f"^composition file is empty: {path}$"):
            load_compositions(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "id,Ni,Pt\n\n")
        with pytest.raises(CompositionError, match=r"cands\.csv: no candidate rows"):
            load_compositions(path)

    def test_quoted_id_with_comma_is_one_field(self, tmp_path):
        path = self.write(tmp_path, 'id,Ni,Pt\n"a,b",0.5,0.5\n')
        table, _, _ = load_compositions(path)
        assert table.ids == ("a,b",)

    def test_csv_syntax_error_names_file(self, tmp_path):
        path = os.path.join(str(tmp_path), "cands.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,Ni,Pt\na," + "1" * 200_000 + ",0\n")
        with pytest.raises(CompositionError, match=r"cands\.csv line 2: field larger"):
            load_compositions(path)

    @pytest.mark.parametrize("header, elements, column", [
        ("id,Ag,Pt,Ag", ("Ag", "Pt"), "Ag"),
        ("id,Ag,Pt,id", None, "id"),
        ("id,Ag,Pt,current_density,current_density", None, "current_density"),
        ("Ag,Pt,potential,potential", None, "potential"),
    ])
    def test_repeated_header_column_names_the_column(self, tmp_path, header, elements, column):
        width = header.count(",") + 1
        path = self.write(tmp_path, header + "\n" + ",".join(["1"] + ["0"] * (width - 1)) + "\n")
        with pytest.raises(CompositionError,
                           match=rf"cands\.csv: column '{column}' repeats in the header$"):
            load_compositions(path, elements=elements)

    @pytest.mark.parametrize("load", [load_compositions, reference_load_compositions])
    def test_repeated_element_names_the_elements(self, tmp_path, load):
        path = self.write(tmp_path, "id,Ag,Ba,Pt,Ti\na,1,0,0,0\n")
        with pytest.raises(CompositionError) as caught:
            load(path, elements=("Ag", "Ag"))
        assert str(caught.value) == f"{path}: elements ['Ag', 'Ag'] repeat a symbol"

    @pytest.mark.parametrize("lines, end, line", [
        (500, b"\n", 501), (500, b"\r\n", 501), (500, b"\r", 501), (1, b"\n", 2),
    ], ids=["lf_past_the_decode_ahead", "crlf", "cr", "first_row"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, lines, end, line):
        path = os.path.join(str(tmp_path), "cands.csv")
        with open(path, "wb") as f:
            f.write(b"\xef\xbb\xbfid,Ni,Pt" + end)
            f.write(b"".join(b"a%d,0.5,0.5" % i + end for i in range(1, lines)))
            f.write(b"caf\xe9,1,0" + end + b"z,0,1" + end)
        with pytest.raises(CompositionError,
                           match=rf"cands\.csv line {line}: not UTF-8 text \(invalid continuation"):
            load_compositions(path)

    @pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv_reader"])
    @pytest.mark.parametrize("fault, message", [
        (True, r"row 2100: 4 fields, the header has 3$"),
        (False, r"line 3000: not UTF-8 text \(invalid continuation"),
    ], ids=["row_fault_first", "byte_alone"])
    def test_rows_before_a_non_utf8_byte_are_checked_first(self, tmp_path, quoted, fault,
                                                           message):
        # the byte lies in the second block of 2,048 lines, over 8 KB (the
        # decoder's read-ahead) past the faulty row
        rows = [b"a%d,0.5,0.5" % i for i in range(1, 3001)]
        if quoted:
            rows[2059] = b'"a,2060",0.5,0.5'
        if fault:
            rows[2099] += b",x"
        rows[2998] = b"caf\xe9,1,0"
        path = os.path.join(str(tmp_path), "cands.csv")
        with open(path, "wb") as f:
            f.write(b"id,Ni,Pt\n" + b"\n".join(rows) + b"\n")
        with pytest.raises(CompositionError, match=r"cands\.csv " + message):
            load_compositions(path)

    def test_quoted_field_open_at_a_non_utf8_byte_names_its_line(self, tmp_path):
        # the quote opens in the block that csv.reader takes over and is
        # still open at the bad byte, over 8 KB (the decoder's read-ahead)
        # further on, so csv.reader needs lines the decoder could not give
        rows = [b"a%d,0.5,0.5" % i for i in range(1, 601)]
        rows += [b'"a601', b"x" * 9000, b'\xff",0.5,0.5']
        path = os.path.join(str(tmp_path), "cands.csv")
        with open(path, "wb") as f:
            f.write(b"id,Ni,Pt\n" + b"\n".join(rows) + b"\n")
        with pytest.raises(CompositionError,
                           match=r"cands\.csv line 604: not UTF-8 text \(invalid start byte\)$"):
            load_compositions(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = os.path.join(str(tmp_path), "cands.csv")
        with open(path, "wb") as f:
            f.write(b"id,Ni,Pt\n\xff,0.5,0.5\n")
        with pytest.raises(CompositionError,
                           match=r"cands\.csv line 2: not UTF-8 text \(invalid start byte\)$"):
            load_compositions(path)


_CSV_CELLS = st.one_of(
    st.sampled_from(["", "0", "1", "0.5", "0.25", "0.75", "1.0000001"] * 3 + [
        "-0.5", "-0", "1e400", "1e308", "nan", "inf", "abc", " ", "1_0", "0x1p-1", '"a,b"']),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet='id,NiPt.0123456789e-+"\r\n x', max_size=8),
)


_GOOD_CELLS = {
    "id": ["a", "b", "c", "", '"a,b"'],
    "Ni": ["0.5", "1", "0", "0.25", "", "0.3333333"],
    "Pt": ["0.5", "0", "1", "0.75", "1", "0.6666664"],
    "current_density": ["", "1.5", "-2", "nan", "abc"],
    "potential": ["", "850", "850", "900"],
}


@st.composite
def _csv_texts(draw):
    """Mostly well-formed composition CSVs, with bad cells, widths and bytes mixed in."""
    header = draw(st.sampled_from([
        ["id", "Ni", "Pt", "current_density", "potential"], ["id", "Ni", "Pt"], ["Ni", "Pt"],
        ["id", "Ni", "Pt", "current_density"], ["Ni", "Ni"], ["notes"],
        ["id", "Ni", "Pt", "Ni"], ["id", "Ni", "Pt", "id"], ["Ni", "Pt", "potential"],
    ]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 2)):  # a plausible row: one fraction pair shares an index
            pair = draw(st.integers(0, 5))
            cells = [_GOOD_CELLS[h][pair] if h in ("Ni", "Pt")
                     else draw(st.sampled_from(_GOOD_CELLS.get(h, ["x"]))) for h in header]
        else:
            width = len(header) + draw(st.sampled_from([0] * 8 + [-1, 1]))
            cells = [draw(_CSV_CELLS) for _ in range(width)]
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"])) + draw(
        st.sampled_from(["", "", "", "x", "\x00", '"open']))


def _outcome(load, path):
    """What a reader makes of a file: its ids, elements, fraction bits,
    measured values and potential (floats as hex, so -0.0 shows), or the
    message of its CompositionError."""
    try:
        table, measured, potential = load(path)
    except CompositionError as exc:
        return str(exc)
    return (table.ids, table.elements, table.fractions.view(np.int64).tolist(),
            {k: v.hex() for k, v in measured.items()},
            None if potential is None else potential.hex())


def _big_candidate_csv(seed, fault):
    """A seeded 6,000-row candidate CSV with blank lines among the rows and
    the named fault planted, mostly past the first block of 2,048 rows, or
    the named quoting, blank lines or line ends; returns its text and where
    the fault is, as ``row N`` (a data row) or ``line N``, or None when the
    file is clean."""
    rng = np.random.default_rng(seed)
    n = 6000
    x = rng.random((n, 3))
    x /= x.sum(axis=1, keepdims=True)
    rows = [[f"c{i + 1}"] + [repr(v) for v in r] + ["", ""] for i, r in enumerate(x.tolist())]
    for i in rng.choice(n, 300, replace=False):
        rows[i][4] = f"{rng.normal():.6g}"
        rows[i][5] = "850"
    r = int(rng.integers(4200, n))  # 1-based data row of the fault
    row = rows[r - 1]
    if fault == "width":
        row.append("x")
    elif fault == "parse":
        row[2] = "0x1p-1"
    elif fault == "negative":
        row[1], row[2] = "-0.25", repr(float(row[2]) + 0.5)
    elif fault == "sum":
        row[3] = "0.9"
    elif fault == "nan":
        row[1] = "nan"
    elif fault == "dup_first_block":
        row[0] = "c7"
    elif fault == "dup_across_boundary":
        r = 2049
        rows[r - 1][0] = "c2048"
    elif fault == "blank_id_as_row_number":
        rows[99][0] = str(r)
        row[0] = " "
    elif fault == "measured":
        row[4] = "abc"
    elif fault == "potential":
        row[5] = "900"
    elif fault == "fraction_before_measured":
        row[3], row[4] = "2", "abc"
    elif fault == "duplicate_before_measured":
        row[0], row[4] = "c7", "abc"
    elif fault == "earlier_row_later_check":
        rows[r - 2][4] = "inf"
        row.append("x")
        r -= 1
    elif fault == "row_before_csv_error":
        row[5] = "900"
    elif fault == "nul_in_fraction":
        row[2] = row[2][:4] + "\x00" + row[2][4:]
    elif fault == "trailing_comma":
        row.append("")
    elif fault == "blank_block_edges":
        row[3] = "0.9"
    row_left_alone = ("clean", "csv_error", "cr_line_ends", "mixed_line_ends",
                      "quote_in_last_block", "long_line_mid_file", "quote_across_boundary")
    where = None if fault in row_left_alone else f"row {r}"
    lines = ["id,Ni,Pt,Ru,current_density,potential"]
    for i, cells in enumerate(rows):
        lines.append(",".join(cells))
        if i % 997 == 0:
            lines.append("")
    # lines[1:2049] are the first block of 2,048 lines after the header
    if fault == "quote_across_boundary":  # opens on the block's last line, closes on the next
        first, rest = lines[2048].split(",", 1)
        lines[2048] = f'"{first}\nq",{rest}'
        lines[2049] += ",x"
        where = f"row {int(first[1:]) + 1}"
    elif fault == "quote_in_last_block":
        first, rest = lines[-1].split(",", 1)
        lines[-1] = f'"{first},q",{rest}'
    elif fault == "blank_block_edges":  # a block's first and last lines, and the next's first
        lines[2048:2048] = ["", ""]
        lines.insert(1, "")
    elif fault == "long_line_mid_file":  # a field over the csv module's limit, rows after it
        lines.insert(3000, "z," + "1" * (csv.field_size_limit() + 1))
        where = "line 3001"
    if fault in ("csv_error", "row_before_csv_error"):  # a field over the csv module's limit
        lines.append("z," + "1" * (csv.field_size_limit() + 1))
        where = where or f"line {len(lines)}"
    if fault == "cr_line_ends":
        return "\r".join(lines) + "\r", where
    if fault == "mixed_line_ends":
        return "".join(line + ("\r\n" if i % 3 else "\n") for i, line in enumerate(lines)), where
    return "\n".join(lines) + "\n", where


class TestLoadCompositionsFuzz:
    """The block reader against the row-at-a-time reader in tests/helpers.py:
    the same table bit for bit, or the same message."""

    @settings(max_examples=300, deadline=None)
    @given(_csv_texts())
    def test_matches_the_row_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.csv")
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            assert _outcome(load_compositions, path) == _outcome(reference_load_compositions, path)

    @pytest.mark.parametrize("fault", [
        "clean", "width", "parse", "negative", "sum", "nan", "dup_first_block",
        "dup_across_boundary", "blank_id_as_row_number", "measured", "potential",
        "fraction_before_measured", "duplicate_before_measured", "earlier_row_later_check",
        "csv_error", "row_before_csv_error", "cr_line_ends", "mixed_line_ends",
        "quote_across_boundary", "quote_in_last_block", "nul_in_fraction", "long_line_mid_file",
        "blank_block_edges", "trailing_comma",
    ])
    def test_many_rows_match_the_row_reader(self, tmp_path, fault):
        text, where = _big_candidate_csv(1301, fault)
        path = os.path.join(str(tmp_path), "big.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        got = _outcome(load_compositions, path)
        assert got == _outcome(reference_load_compositions, path)
        if where is None:
            assert len(got[0]) == 6000
        else:
            assert f"big.csv {where}: " in got

    @settings(max_examples=150, deadline=None)
    @given(_csv_texts())
    def test_only_composition_error_escapes(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.csv")
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            try:
                table, measured, potential = load_compositions(path)
            except CompositionError:
                return
        assert len(table) and len(set(table.ids)) == len(table)
        assert np.isfinite(table.fractions).all() and (table.fractions >= 0).all()
        assert np.allclose(table.fractions.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert all(np.isfinite(v) for v in measured.values())
        assert potential is None or np.isfinite(potential)


class TestCandidateCsvRoundTrip:
    def test_repeated_id_refused_before_the_file_is_opened(self, tmp_path):
        # load_compositions would reject the file: "row 2: duplicate composition id 'x'"
        table = CandidateTable(("Ag", "Pt"), ("x", "x"), [[1, 0], [0, 1]])
        path = str(tmp_path / "c.csv")
        with pytest.raises(ValueError, match=r"c\.csv row 2: duplicate composition id 'x'$"):
            write_candidates_csv(table, path)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("ids, row", [((" a ", "b"), 1), (("a", ""), 2), (("a", "\n"), 2)],
                             ids=["padded", "blank", "line_feed"])
    def test_id_the_reader_would_change_refused(self, tmp_path, ids, row):
        # load_compositions strips an id and numbers a blank one: ' a ' would read as 'a'
        table = CandidateTable(("Ag",), ids, [[1], [1]])
        path = str(tmp_path / "c.csv")
        with pytest.raises(ValueError) as caught:
            write_candidates_csv(table, path)
        assert str(caught.value) == (f"{path} row {row}: blank or whitespace-padded "
                                     f"composition id {ids[row - 1]!r}")
        assert os.listdir(tmp_path) == []

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(st.sampled_from(["a", "1", "2", " ", ",", '"', "\n", "\r", "\xa0"]),
                            max_size=2), max_size=4))
    def test_drawn_ids_read_back_or_are_refused_at_the_first_changed_row(self, ids):
        # write_csv with one "1" per row is what write_candidates_csv writes for
        # a one-element table, minus its checks
        def reader_verdict(prefix):
            """None when the reader returns ``prefix`` as written, else the row
            its error names, or 0 when it names none or returns other ids."""
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "raw.csv")
                write_csv(path, ["id", "Ag"], [[comp_id, "1"] for comp_id in prefix])
                try:
                    loaded = load_compositions(path)[0].ids
                except CompositionError as exc:
                    found = re.search(r" row (\d+): ", str(exc))
                    return int(found.group(1)) if found else 0
            return None if loaded == tuple(prefix) else 0

        table = CandidateTable(("Ag",), ids, np.ones((len(ids), 1)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.csv")
            try:
                write_candidates_csv(table, path)
            except ValueError as exc:
                assert os.listdir(tmp) == []
                if not ids:  # load_compositions rejects a file without rows
                    assert str(exc) == f"{path}: no candidate rows to write"
                    return
                row = int(re.search(r"c\.csv row (\d+): ", str(exc)).group(1))
            else:
                assert load_compositions(path)[0].ids == tuple(ids)
                return
        assert row == 1 or reader_verdict(ids[:row - 1]) is None
        assert reader_verdict(ids[:row]) in (0, row)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(sorted(element_symbols())), min_size=2, max_size=6,
                    unique=True),
           st.integers(1, 12))
    def test_enumerated_grid_round_trips(self, elements, steps):
        table = enumerate_simplex(elements, steps)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.csv")
            write_candidates_csv(table, path)
            loaded, measured, potential = load_compositions(path, elements=table.elements)
        assert loaded.ids == table.ids
        assert loaded.elements == table.elements
        assert (measured, potential) == ({}, None)
        assert np.max(np.abs(loaded.fractions - table.fractions)) <= 1e-15
        # the loader divides each row by its sum, which moves no bit of a
        # row that already sums to exactly 1
        exact = np.array([math.fsum(row) == 1.0 for row in table.fractions.tolist()])
        assert np.array_equal(loaded.fractions[exact].view(np.int64),
                              table.fractions[exact].view(np.int64))
