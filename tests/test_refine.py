import math

import numpy as np
import pytest

from litscreen.corpus import Document, DocumentSet
from litscreen.embedding import EmbeddingConfig, train_word2vec
from litscreen.materials import (
    CandidateTable,
    PropertyAnchors,
    centroid,
    similarity_points,
)
from litscreen.refine import (
    RefineConfig,
    RefinementError,
    run_refinement,
)
from litscreen.selection import cumulative_batches

EMB = EmbeddingConfig(dim=12, window=2, epochs=2)


def docset(token_lists):
    docs = [
        Document(id=f"d{i}", text="", tokens=tuple(toks))
        for i, toks in enumerate(token_lists)
    ]
    return DocumentSet(documents=docs)


def corpus_with_rare_element(n_common=10):
    """Common docs carry Ag and both anchor words; exactly one doc has Ti."""
    rng = np.random.default_rng(6)
    filler = ["film", "oxide", "phase", "study", "growth", "sample"]
    lists = []
    for _ in range(n_common):
        toks = ["dielectric", "conductivity", "Ag"]
        toks += [filler[int(rng.integers(0, len(filler)))] for _ in range(4)]
        lists.append(toks)
    lists.append(["Ti", "dielectric", "conductivity", "Ag", "oxide", "film"])
    return docset(lists)


def candidates_ag_ti():
    return CandidateTable(("Ag", "Ti"), ("Ag1", "Ag0.5Ti0.5", "Ti1"),
                          np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))


class TestRefineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(batch_size=0)
        with pytest.raises(ValueError):
            RefineConfig(threshold=0.0)
        with pytest.raises(ValueError):
            RefineConfig(threshold=float("inf"))

    def test_defaults(self):
        cfg = RefineConfig()
        assert cfg.batch_size == 50
        assert cfg.threshold == 0.03
        assert cfg.max_iterations is None


class TestRunRefinement:
    def run(self, threshold=5.0, batch_size=1, max_iterations=None, seed=1):
        return run_refinement(
            corpus_with_rare_element(),
            candidates_ag_ti(),
            RefineConfig(
                batch_size=batch_size,
                threshold=threshold,
                max_iterations=max_iterations,
                embedding=EMB,
                seed=seed,
            ),
        )

    def test_documents_used_is_min_of_batch_times_t_and_corpus(self):
        result = self.run(threshold=1e-12, batch_size=4)
        n = len(corpus_with_rare_element())
        for rec in result.records:
            assert rec.documents_used == min(4 * rec.iteration, n)

    def test_incomplete_iterations_have_no_centroid(self):
        result = self.run()
        for rec in result.records:
            if not rec.vocab_complete:
                assert rec.centroid is None
                assert rec.displacement is None
                assert rec.missing == ("Ti",)
            else:
                assert rec.centroid is not None
                assert rec.missing == ()

    def test_first_iteration_misses_rare_token(self):
        # the seed document is a common one, so a 1-document subset lacks Ti
        result = self.run()
        assert result.records[0].vocab_complete is False

    def test_first_defined_centroid_has_no_displacement(self):
        result = self.run()
        defined = [r for r in result.records if r.centroid is not None]
        assert defined[0].displacement is None
        for rec in defined[1:]:
            assert rec.displacement is not None

    def test_generous_threshold_converges_at_second_centroid(self):
        result = self.run(threshold=5.0)
        assert result.converged
        defined = [r for r in result.records if r.centroid is not None]
        assert len(defined) == 2
        assert result.records[-1].displacement < 5.0

    def test_impossible_threshold_never_converges(self):
        result = self.run(threshold=1e-15)
        assert not result.converged
        # ran the whole corpus: ceil(11 / 1) iterations
        assert len(result.records) == 11

    def test_max_iterations_cap(self):
        result = self.run(threshold=1e-15, batch_size=2, max_iterations=4)
        assert len(result.records) == 4
        assert not result.converged

    def test_records_match_selection_order_vocabulary(self):
        result = self.run(threshold=1e-15, batch_size=2)
        docs = corpus_with_rare_element()
        token_lists = docs.token_lists()
        required = {"dielectric", "conductivity", "Ag", "Ti"}
        for rec in result.records:
            subset = cumulative_batches(result.selection_order, rec.iteration, 2)
            present = set()
            for i in subset:
                present.update(token_lists[i])
            missing = tuple(sorted(required - present))
            assert rec.vocab_complete == (not missing)
            assert rec.missing == missing

    def test_centroid_reproducible_from_subset_training(self):
        result = self.run(threshold=1e-15, batch_size=3, seed=9)
        docs = corpus_with_rare_element()
        token_lists = docs.token_lists()
        cfg = EmbeddingConfig(
            dim=EMB.dim, window=EMB.window, epochs=EMB.epochs, seed=9
        )
        rec = next(r for r in result.records if r.centroid is not None)
        subset = sorted(cumulative_batches(result.selection_order, rec.iteration, 3))
        model = train_word2vec([token_lists[i] for i in subset], cfg)
        points = similarity_points(model, candidates_ag_ti(), PropertyAnchors())
        c = centroid(points)
        assert rec.centroid == (c[0], c[1])

    def test_deterministic_across_runs(self):
        r1 = self.run(threshold=1e-15, batch_size=2, seed=3)
        r2 = self.run(threshold=1e-15, batch_size=2, seed=3)
        assert r1.records == r2.records
        assert r1.selection_order.indices == r2.selection_order.indices
        assert np.array_equal(r1.final_model.vectors, r2.final_model.vectors)

    def test_required_token_never_present_is_error(self):
        # an anchor term no document holds keeps every vocabulary incomplete
        cfg = RefineConfig(
            batch_size=4,
            embedding=EMB,
            anchors=PropertyAnchors(terms=("dielectric", "unobtainium")),
        )
        with pytest.raises(RefinementError):
            run_refinement(corpus_with_rare_element(), candidates_ag_ti(), cfg)

    def test_empty_inputs(self):
        cfg = RefineConfig(embedding=EMB)
        with pytest.raises(RefinementError):
            run_refinement(docset([]), candidates_ag_ti(), cfg)
        with pytest.raises(RefinementError):
            run_refinement(corpus_with_rare_element(), [], cfg)

    def test_final_model_supports_screening(self):
        result = self.run(threshold=5.0)
        points = similarity_points(
            result.final_model, candidates_ag_ti(), PropertyAnchors()
        )
        assert points.shape == (3, 2)
        assert ((-1.0 <= points) & (points <= 1.0)).all()


def test_default_max_iterations_covers_corpus():
    docs = corpus_with_rare_element()
    cfg = RefineConfig(batch_size=3, threshold=1e-15, embedding=EMB)
    result = run_refinement(docs, candidates_ag_ti(), cfg)
    assert len(result.records) == math.ceil(len(docs) / 3)
    assert result.records[-1].documents_used == len(docs)
