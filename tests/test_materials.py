import math
import os

import mpmath
import numpy as np
import pytest

from litscreen.corpus import Vocabulary
from litscreen.embedding import (
    EmbeddingConfig,
    OutOfVocabularyError,
    WordModel,
    cosine_similarity,
)
from litscreen.materials import (
    Composition,
    CompositionError,
    PropertyAnchors,
    SimilarityPoint,
    centroid,
    enumerate_simplex,
    load_compositions,
    material_vector,
    parse_composition,
    similarity_point,
    similarity_points,
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
        assert comp.as_dict()["Pt"] == 1.0
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

    def test_exact_grid_sums_pass(self):
        # thirds do not sum to exactly 1.0 in floats; fsum tolerance absorbs it
        third = 1.0 / 3.0
        Composition(elements=("A", "B", "C"), fractions=(third, third, third))


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

    def test_count_guard(self):
        with pytest.raises(CompositionError):
            enumerate_simplex(tuple(f"E{i}" for i in range(8)), 60, max_count=1000)


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
        comp = Composition(elements=("Ni",), fractions=(1.0,))
        return [SimilarityPoint(x, y, comp) for x, y in pairs]

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
    comps = [
        Composition(elements=("Ni", "Pt"), fractions=(1.0, 0.0)),
        Composition(elements=("Ni", "Pt"), fractions=(0.0, 1.0)),
    ]
    pts = similarity_points(model, comps)
    assert pts[0].s_dielectric == pytest.approx(1.0)
    assert pts[1].s_conductivity == pytest.approx(1.0)
    assert pts[0].composition is comps[0]
