import numpy as np
import pytest
from helpers import reference_pareto_front
from hypothesis import given, settings
from hypothesis import strategies as st

from litscreen.materials import CandidateTable, SimilarityPoint, enumerate_simplex
from litscreen.screen import (
    Objectives,
    dominates,
    format_summary,
    pareto_front,
)

COMP = enumerate_simplex(("Ni",), 1)[0]


def pts(pairs):
    return np.array(pairs, dtype=np.float64).reshape(-1, 2)


def pareto_bruteforce(points, obj):
    """Quadratic dominance scan, written independently of the sweep."""
    sx = 1.0 if obj.s_dielectric == "max" else -1.0
    sy = 1.0 if obj.s_conductivity == "max" else -1.0
    X = np.asarray(points) * [sx, sy]
    keep = []
    for i in range(len(X)):
        ge = (X[:, 0] >= X[i, 0]) & (X[:, 1] >= X[i, 1])
        gt = (X[:, 0] > X[i, 0]) | (X[:, 1] > X[i, 1])
        if not np.any(ge & gt):
            keep.append(i)
    return keep


class TestObjectives:
    def test_presets(self):
        orr = Objectives.preset("orr")
        assert (orr.s_dielectric, orr.s_conductivity) == ("min", "max")
        her = Objectives.preset("HER")
        assert (her.s_dielectric, her.s_conductivity) == ("min", "max")
        oer = Objectives.preset("oer")
        assert (oer.s_dielectric, oer.s_conductivity) == ("max", "min")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            Objectives.preset("xyz")

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            Objectives(s_dielectric="down", s_conductivity="max")


class TestDominates:
    ORR = Objectives.preset("orr")

    def test_basic(self):
        better = SimilarityPoint(0.1, 0.9, COMP)
        worse = SimilarityPoint(0.5, 0.5, COMP)
        assert dominates(better, worse, self.ORR)
        assert not dominates(worse, better, self.ORR)

    def test_equal_points_do_not_dominate(self):
        p = SimilarityPoint(0.3, 0.3, COMP)
        q = SimilarityPoint(0.3, 0.3, COMP)
        assert not dominates(p, q, self.ORR)
        assert not dominates(q, p, self.ORR)

    def test_antisymmetric_random(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p = SimilarityPoint(*rng.uniform(-1, 1, 2), COMP)
            q = SimilarityPoint(*rng.uniform(-1, 1, 2), COMP)
            assert not (dominates(p, q, self.ORR) and dominates(q, p, self.ORR))

    def test_direction_flip(self):
        oer = Objectives.preset("oer")
        p = SimilarityPoint(0.9, 0.1, COMP)
        q = SimilarityPoint(0.5, 0.5, COMP)
        assert dominates(p, q, oer)
        assert not dominates(p, q, self.ORR)


class TestParetoFront:
    @pytest.mark.parametrize("preset", ["orr", "her", "oer"])
    def test_matches_bruteforce_random(self, preset):
        obj = Objectives.preset(preset)
        rng = np.random.default_rng(42)
        points = pts(rng.uniform(-1, 1, size=(300, 2)))
        assert pareto_front(points, obj) == pareto_bruteforce(points, obj)

    def test_matches_bruteforce_with_duplicates_and_grid(self):
        obj = Objectives.preset("orr")
        rng = np.random.default_rng(43)
        # coarse grid forces many exact ties on both axes
        coords = rng.integers(0, 5, size=(200, 2)).astype(float) / 4.0
        points = pts(coords)
        assert pareto_front(points, obj) == pareto_bruteforce(points, obj)

    def test_duplicated_front_point_all_kept(self):
        obj = Objectives.preset("orr")
        points = pts([(0.1, 0.9), (0.5, 0.5), (0.1, 0.9), (0.9, 0.95)])
        front = pareto_front(points, obj)
        assert 0 in front and 2 in front

    def test_all_points_on_front_when_tradeoff_is_strict(self):
        obj = Objectives.preset("orr")
        # x and y both ascending: every point trades one axis for the other
        points = pts([(i / 10.0, i / 10.0 + 0.05) for i in range(11)])
        assert pareto_front(points, obj) == list(range(11))

    def test_single_dominant_point(self):
        obj = Objectives.preset("orr")
        points = pts([(0.0, 1.0), (0.5, 0.5), (0.2, 0.8), (0.9, 0.1)])
        assert pareto_front(points, obj) == [0]

    def test_monotone_transform_invariance(self):
        obj = Objectives.preset("orr")
        rng = np.random.default_rng(44)
        coords = rng.uniform(-1, 1, size=(150, 2))
        points = pts(coords)
        warped = pts(np.stack([coords[:, 0] ** 3, np.exp(coords[:, 1])], axis=1))
        assert pareto_front(points, obj) == pareto_front(warped, obj)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_front([], Objectives.preset("orr"))

    def test_bad_shape_and_nan_rejected(self):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            pareto_front(np.zeros((4, 3)), Objectives.preset("orr"))
        with pytest.raises(ValueError, match="NaN"):
            pareto_front(pts([(0.1, 0.2), (np.nan, 0.3)]), Objectives.preset("orr"))

    def test_signed_zeros_share_an_x_group(self):
        obj = Objectives.preset("orr")
        points = pts([(0.0, 0.5), (-0.0, 0.5), (-0.0, 0.25), (0.5, -0.0), (0.5, 0.0)])
        assert pareto_front(points, obj) == [0, 1] == pareto_bruteforce(points, obj)

    def test_front_of_single_point(self):
        assert pareto_front(pts([(0.3, 0.4)]), Objectives.preset("oer")) == [0]

    def test_oer_reverses_orr_on_antisymmetric_data(self):
        # strictly decreasing curve: ORR keeps everything, and so does OER
        points = pts([(0.1, 0.2), (0.2, 0.4), (0.3, 0.6)])
        assert pareto_front(points, Objectives.preset("orr")) == [0, 1, 2]
        assert pareto_front(points, Objectives.preset("oer")) == [0, 1, 2]


_COORD = st.one_of(
    st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=-1.0, max_value=1.0),
)
_DIRECTIONS = st.tuples(st.sampled_from(["min", "max"]), st.sampled_from(["min", "max"]))


def dominates_scan(points, obj):
    """Indices no other point dominates, by ``dominates`` on every pair."""
    sp = [SimilarityPoint(x, y, None) for x, y in points.tolist()]
    return [i for i, p in enumerate(sp) if not any(dominates(q, p, obj) for q in sp)]


class TestParetoFrontProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=30), _DIRECTIONS)
    def test_matches_quadratic_dominates_scan(self, pairs, directions):
        obj = Objectives(*directions)
        points = pts(pairs)
        front = pareto_front(points, obj)
        assert front == dominates_scan(points, obj)
        assert front == reference_pareto_front(points, obj)


class TestFormatSummary:
    def test_measured_rows_use_two_decimals(self):
        comps = CandidateTable(("Ni",), ("a", "b", "c", "d"), np.ones((4, 1)))
        measured = {"a": 0.821, "b": 3.0, "c": 6.9, "d": 6.437}
        text = format_summary(
            comps,
            fronts={"Full": [1, 2], "Selection": [2, 3]},
            measured=measured,
            potential=850.0,
            label="NiPdPtRu",
        )
        lines = text.splitlines()
        assert "System: NiPdPtRu" in lines
        assert "Potential (mV): 850" in lines
        assert "Entries (Ori): 4" in lines
        assert "Entries (Full): 2" in lines
        assert "Entries (Selection): 2" in lines
        assert "Min (Ori): 0.82" in lines
        assert "Max (Ori): 6.90" in lines
        assert "Max (Full): 6.90" in lines
        assert "Min (Selection): 6.44" in lines
        assert "Max (Selection): 6.90" in lines

    def test_no_measured_data(self):
        comps = CandidateTable(("Ni",), ("a",), np.ones((1, 1)))
        text = format_summary(comps, fronts={"Selection": [0]})
        assert "Entries (Ori): 1" in text
        assert "Min" not in text
