import functools
import gc
import math
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from litscreen import refine
from litscreen.corpus import CorpusError, CorpusRows, DocumentSet, EncodedCorpus, preprocess_set
from litscreen.embedding import EmbeddingConfig, train_doc2vec, train_word2vec
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
from litscreen.synth import SynthSpec, synthetic_candidates, synthetic_corpus

from helpers import reference_run_refinement

EMB = EmbeddingConfig(dim=12, window=2, epochs=2)


def docset(token_lists):
    return DocumentSet([f"d{i}" for i in range(len(token_lists))],
                       EncodedCorpus.encode(token_lists))


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
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            RefineConfig(max_iterations=0)

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
                embedding=replace(EMB, seed=seed),
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

    def test_max_iterations_past_the_corpus_stops_at_exhaustion(self):
        # 11 documents in batches of 6 are exhausted at t = 2; a third
        # iteration would retrain the full corpus and move the centroid by 0
        result = self.run(threshold=1e-15, batch_size=6, max_iterations=6)
        assert [r.documents_used for r in result.records] == [6, 11]
        assert not result.converged

    def test_records_match_selection_order_vocabulary(self):
        result = self.run(threshold=1e-15, batch_size=2)
        docs = corpus_with_rare_element()
        token_lists = list(docs.corpus)
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
        token_lists = list(docs.corpus)
        cfg = EmbeddingConfig(
            dim=EMB.dim, window=EMB.window, epochs=EMB.epochs, seed=9
        )
        rec = next(r for r in result.records if r.centroid is not None)
        subset = sorted(cumulative_batches(result.selection_order, rec.iteration, 3))
        model = train_word2vec(EncodedCorpus.encode(token_lists[i] for i in subset), cfg)
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


def test_embedding_seed_trains_every_model(monkeypatch):
    # the loop has one seed, the embedding config's: the document model and
    # every per-iteration word model train with it; the leading iterations
    # that miss a required token train no model
    seeds = []
    for name in ("train_doc2vec", "train_word2vec"):
        def recording(token_lists, config, *args, _trainer=getattr(refine, name), **kwargs):
            seeds.append(config.seed)
            return _trainer(token_lists, config, *args, **kwargs)
        monkeypatch.setattr(refine, name, recording)
    cfg = RefineConfig(batch_size=3, threshold=1e-15, embedding=replace(EMB, seed=5))
    result = run_refinement(corpus_with_rare_element(), candidates_ag_ti(), cfg)
    complete = [r.iteration for r in result.records if r.vocab_complete]
    assert complete == list(range(complete[0], 5)) and complete[0] > 1
    assert seeds == [5] * (1 + len(complete))


def planted_docs(seed):
    rows = synthetic_corpus(SynthSpec(n_docs=120, rare_docs=3, seed=seed))
    return preprocess_set(CorpusRows([i for i, _ in rows], [t for _, t in rows]))


def zipf_docs(seed, n_docs=30, types=400):
    """Zipf-drawn filler words around each document's anchor word and elements."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, types + 1, dtype=np.float64) ** -1.05
    topics = (("conductivity", ("Ag", "Pt")), ("dielectric", ("Ba", "Ti")))
    lists = []
    for i in range(n_docs):
        anchor, elements = topics[i % 2]
        filler = rng.choice(types, size=int(rng.integers(10, 30)), p=weights / weights.sum())
        toks = [anchor, *elements, *(f"w{j}" for j in filler)]
        lists.append([toks[j] for j in rng.permutation(len(toks))])
    return docset(lists)


PAIRED = EmbeddingConfig(dim=12, window=3, epochs=1)

# name: (documents, config, iterations the run records, converged)
PAIRED_CASES = {
    "planted-converges-at-odd-t": (
        lambda: planted_docs(1), RefineConfig(batch_size=15, threshold=0.1, embedding=PAIRED),
        5, True),
    "planted-converges-at-even-t": (
        lambda: planted_docs(0), RefineConfig(batch_size=15, threshold=0.1, embedding=PAIRED),
        4, True),
    "planted-leading-missing-tokens": (
        lambda: planted_docs(0),
        RefineConfig(batch_size=15, threshold=0.1, embedding=replace(PAIRED, seed=1)),
        8, False),
    "zipf-max-iterations-1": (
        lambda: zipf_docs(3),
        RefineConfig(batch_size=6, threshold=1e-300, max_iterations=1, embedding=PAIRED),
        1, False),
    "zipf-max-iterations-3": (
        lambda: zipf_docs(3),
        RefineConfig(batch_size=6, threshold=1e-300, max_iterations=3, embedding=PAIRED),
        3, False),
    "zipf-exhausts-odd-corpus": (
        lambda: zipf_docs(4),
        RefineConfig(batch_size=7, threshold=1e-300, embedding=PAIRED),
        5, False),
    # t = 1, 2 untrained; the pair (3, 4), then t = 5 converges and its
    # look-ahead t = 6 is discarded
    "planted-discards-a-lookahead": (
        lambda: planted_docs(3), RefineConfig(batch_size=15, threshold=0.1, embedding=PAIRED),
        5, True),
    # Ti reaches a count of 2 only at t = 5; at min_count 1 it is in at t = 1
    "planted-min-count-2": (
        lambda: planted_docs(0),
        RefineConfig(batch_size=15, threshold=0.1, embedding=replace(PAIRED, min_count=2)),
        8, True),
    # the anchor w124 occurs only in the last batch's two documents
    "zipf-anchor-in-last-batch": (
        lambda: zipf_docs(4),
        RefineConfig(batch_size=7, threshold=1e-300, embedding=PAIRED,
                     anchors=PropertyAnchors(terms=("conductivity", "w124"))),
        5, False),
    # every document holds one distinct token, so batch 1's vocabulary has
    # one type; like any incomplete start, it is recorded and not trained
    "batch-1-one-token": (
        lambda: docset([["dielectric"] * 2, ["conductivity"], ["Ag", "Ag"], ["Pt"], ["Ba"], ["Ti"]]),
        RefineConfig(batch_size=1, embedding=PAIRED),
        6, False),
    # each token occurs once per document, so no count reaches 2 before t = 2
    "batch-1-below-min-count": (
        lambda: docset([["dielectric", "conductivity", "Ag", "Pt", "Ba", "Ti", f"w{i}"]
                        for i in range(4)]),
        RefineConfig(batch_size=1, embedding=replace(PAIRED, min_count=2)),
        3, True),
}

# name: (documents, config, the error both loops raise, a pattern its message matches)
ERROR_CASES = {
    # Ti is in at t = 3, past the limit
    "no-complete-iteration": (
        lambda: planted_docs(0),
        RefineConfig(batch_size=15, max_iterations=2, embedding=replace(PAIRED, seed=1)),
        RefinementError,
        r"^max_iterations 2 reached with 30 of 120 documents used before any centroid"),
}


def paired_case(name):
    make_docs, config, iterations, converged = PAIRED_CASES[name]
    return make_docs(), synthetic_candidates(3), config, iterations, converged


def assert_same_run(result, expected):
    assert result.records == expected.records
    assert result.converged == expected.converged
    assert result.selection_order.indices == expected.selection_order.indices
    assert (np.asarray(result.selection_order.distances).tobytes()
            == np.asarray(expected.selection_order.distances).tobytes())
    got, want = result.final_model, expected.final_model
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.node_vectors.tobytes() == want.node_vectors.tobytes()
    assert got.pairs_trained == want.pairs_trained


class InjectedError(RuntimeError):
    pass


def fail_at(monkeypatch, t_fail, batch_size, n_docs):
    """Make ``refine.train_word2vec`` raise InjectedError when it trains
    iteration t_fail; the returned list records each time it does."""
    real = refine.train_word2vec
    raised = []

    def train(token_lists, config):
        if len(token_lists) == min(batch_size * t_fail, n_docs):
            raised.append(t_fail)
            raise InjectedError(f"t={t_fail}")
        return real(token_lists, config)

    monkeypatch.setattr(refine, "train_word2vec", train)
    return raised


def running_threads():
    """The live Python threads, which run_refinement must leave as it found
    them, on every return and raise."""
    return threading.active_count()


def untrainable(*args, **kwargs):
    raise AssertionError("a document model was trained")


def first_trained(name):
    """The case's first iteration with a complete vocabulary, the first one
    that run_refinement trains."""
    result = run_refinement(*paired_case(name)[:3])
    return next(r.iteration for r in result.records if r.vocab_complete)


@pytest.mark.parametrize("seed", range(4))
def test_counts_rule_matches_the_vocabulary(seed):
    # the loop's completeness rule reads the batch's counts; it must name
    # the required tokens that the batch's vocabulary would leave out, and
    # all of them where no token reaches min_count
    docs = planted_docs(seed)
    order = refine.selection_order(train_doc2vec(docs.corpus, PAIRED, ids=docs.ids).vectors)
    rng = np.random.default_rng(seed)
    required = (set(PropertyAnchors().terms) | set(synthetic_candidates(3).present())
                | set(rng.choice(docs.corpus.types, size=2, replace=False).tolist()))
    empty = 0
    for k in range(1, len(docs) + 1):
        batch = docs.corpus.take(sorted(order.indices[:k]))
        for min_count in (1, 2, 3):
            got = refine._missing(batch, required, min_count)
            try:
                vocab, _ = batch.vocabulary(min_count)
            except CorpusError as exc:
                assert "vocabulary is empty" in str(exc)
                assert got == tuple(sorted(required))
                empty += 1
            else:
                assert got == tuple(sorted(required - vocab.index.keys()))
    assert 0 < empty < 3 * len(docs)  # both sides of the rule are met


@pytest.mark.parametrize("name", ["planted-leading-missing-tokens", "planted-discards-a-lookahead"])
def test_each_batch_is_counted_once(monkeypatch, name):
    # the completeness check and the training of a batch read one count
    counted = []
    count = EncodedCorpus.counts.func

    def spy(corpus):
        counted.append(len(corpus))
        return count(corpus)

    counts = functools.cached_property(spy)
    counts.__set_name__(EncodedCorpus, "counts")
    monkeypatch.setattr(EncodedCorpus, "counts", counts)
    docs, candidates, config, iterations, converged = paired_case(name)
    result = run_refinement(docs, candidates, config)
    used = [r.documents_used for r in result.records]
    # the document model's corpus, then each iteration's batch, checked or
    # trained or both; a converged run also trained the look-ahead after it
    lookahead = [min(len(docs), used[-1] + config.batch_size)] if converged else []
    assert result.records[0].missing and len(used) == iterations
    assert counted[0] == len(docs)
    assert sorted(counted[1:]) == used + lookahead


class TestPairedIterations:
    """run_refinement trains t and t+1 on two threads; records, the selection
    and the final model match the one-at-a-time loop bit for bit."""

    @pytest.mark.parametrize("name", sorted(PAIRED_CASES))
    def test_matches_serial_loop(self, name):
        docs, candidates, config, iterations, converged = paired_case(name)
        expected = reference_run_refinement(docs, candidates, config)
        threads = running_threads()
        result = run_refinement(docs, candidates, config)
        assert running_threads() == threads
        assert_same_run(result, expected)
        # the case covers what its name says
        assert (len(result.records), result.converged) == (iterations, converged)
        if any(part in name for part in ("missing", "min-count", "discards", "batch-1")):
            assert result.records[0].missing and not result.records[-1].missing
        if "discards" in name:
            first = next(r.iteration for r in result.records if r.vocab_complete)
            assert (iterations - first) % 2 == 0  # t converged first in its pair
        if "last-batch" in name:
            assert [r.vocab_complete for r in result.records] == [False] * 4 + [True]

    @pytest.mark.parametrize("name", sorted(ERROR_CASES))
    def test_error_matches_serial_loop(self, name):
        make_docs, config, error, pattern = ERROR_CASES[name]
        docs = make_docs()
        with pytest.raises(error, match=pattern) as want:
            reference_run_refinement(docs, synthetic_candidates(3), config)
        threads = running_threads()
        with pytest.raises(error) as got:
            run_refinement(docs, synthetic_candidates(3), config)
        assert running_threads() == threads
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_unfinishable_run_is_refused_before_training(self, monkeypatch):
        # the serial loop learns at exhaustion what the corpus's counts show
        # up front; run_refinement refuses the run before PV-DBOW
        docs = planted_docs(0)
        config = RefineConfig(batch_size=15, embedding=PAIRED,
                              anchors=PropertyAnchors(terms=("dielectric", "unobtainium")))
        with pytest.raises(RefinementError, match="^corpus exhausted .*never all present"):
            reference_run_refinement(docs, synthetic_candidates(3), config)
        monkeypatch.setattr(refine, "train_doc2vec", untrainable)
        threads = running_threads()
        with pytest.raises(RefinementError) as got:
            run_refinement(docs, synthetic_candidates(3), config)
        assert running_threads() == threads
        assert str(got.value) == ("the corpus holds anchor term 'unobtainium' fewer than "
                                  "min_count=1 times, so no iteration can be complete")
        assert got.value.missing == ("unobtainium",)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_error_in_a_committed_iteration_surfaces(self, monkeypatch, k):
        # the k-th trained iteration fails: training starts at the first
        # complete t0 and the case converges at t0 + 3, so k = 1, 3 fail on
        # the calling thread while the next t trains, and k = 2, 4 on the
        # second thread, raised when the t before is committed
        name = "planted-converges-at-odd-t"
        docs, candidates, config, iterations, _ = paired_case(name)
        t_fail = first_trained(name) + k - 1
        assert first_trained(name) + 3 == iterations
        fail_at(monkeypatch, t_fail, config.batch_size, len(docs))
        threads = running_threads()
        with pytest.raises(InjectedError, match=f"^t={t_fail}$"):
            run_refinement(docs, candidates, config)
        assert running_threads() == threads

    def test_error_in_a_discarded_iteration_never_escapes(self, monkeypatch):
        docs, candidates, config, iterations, _ = paired_case("planted-discards-a-lookahead")
        expected = reference_run_refinement(docs, candidates, config)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        raised = fail_at(monkeypatch, iterations + 1, config.batch_size, len(docs))
        threads = running_threads()
        result = run_refinement(docs, candidates, config)
        assert running_threads() == threads
        assert_same_run(result, expected)
        assert hooked == []
        assert raised == [iterations + 1]  # the look-ahead did train, and failed

    def test_no_earlier_pair_is_held_while_a_pair_trains(self, monkeypatch):
        # each training is known by its documents; when one starts, no model
        # returned for an earlier pair may still be reachable, so memory
        # holds the two models of the pair in training and no third
        name = "planted-leading-missing-tokens"
        docs, candidates, config, iterations, _ = paired_case(name)
        t0 = first_trained(name)
        real = refine.train_word2vec
        returned, held = {}, []

        def pair(t):
            return (t - t0) // 2

        def train(token_lists, config_):
            t = -(-len(token_lists) // config.batch_size)
            gc.collect()
            held.extend((t, s) for s, ref in list(returned.items())
                        if pair(s) < pair(t) and ref() is not None)
            model = real(token_lists, config_)
            returned[t] = weakref.ref(model)
            return model

        monkeypatch.setattr(refine, "train_word2vec", train)
        run_refinement(docs, candidates, config)
        assert sorted(returned) == list(range(t0, iterations + 1))
        assert pair(iterations) >= 2  # the case has three pairs or more
        assert held == []

    def test_error_in_both_iterations_surfaces_the_earlier(self, monkeypatch):
        # both threads of the first pair, t0 and t0 + 1, fail
        name = "planted-converges-at-odd-t"
        docs, candidates, config, _, _ = paired_case(name)
        documents = config.batch_size * first_trained(name)

        def train(token_lists, config):
            raise InjectedError(f"documents={len(token_lists)}")

        monkeypatch.setattr(refine, "train_word2vec", train)
        threads = running_threads()
        with pytest.raises(InjectedError, match=f"^documents={documents}$"):
            run_refinement(docs, candidates, config)
        assert running_threads() == threads


def random_case(draw):
    """A seeded draw of corpus, batch size, limit, min_count, seed and threshold."""
    rng = np.random.default_rng(1700 + draw)
    if draw % 2:
        docs, batch_size = planted_docs(int(rng.integers(0, 4))), int(rng.integers(8, 61))
    else:
        docs, batch_size = zipf_docs(int(rng.integers(0, 4))), int(rng.integers(1, 16))
    embedding = replace(PAIRED, min_count=int(rng.integers(1, 3)), seed=int(rng.integers(0, 1000)))
    config = RefineConfig(
        batch_size=batch_size,
        threshold=float(10 ** rng.uniform(-3, 0)),
        max_iterations=None if rng.random() < 0.3 else int(rng.integers(1, 9)),
        embedding=embedding,
    )
    return docs, synthetic_candidates(3), config


@pytest.mark.parametrize("draw", range(32))
def test_random_runs_match_serial_loop(draw):
    # the one loop's edges: leading incomplete iterations, odd and even
    # stops, limits below and past the corpus, an error at the limit
    docs, candidates, config = random_case(draw)
    threads = running_threads()
    try:
        expected = reference_run_refinement(docs, candidates, config)
    except RefinementError as exc:
        with pytest.raises(type(exc)) as got:
            run_refinement(docs, candidates, config)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert_same_run(run_refinement(docs, candidates, config), expected)
    assert running_threads() == threads


def unfinishable_case(draw):
    """A draw in the style of random_case, with no limit, whose anchor term
    or candidate element the corpus lacks, holds once, or holds enough."""
    docs, candidates, config = random_case(draw)
    rng = np.random.default_rng(2900 + draw)
    token_lists, anchors = list(docs.corpus), config.anchors
    if draw % 3 != 1:
        once = [t for t, n in zip(docs.corpus.types, docs.corpus.counts.tolist())
                if n == 1 and t.islower()]
        term = rng.choice(["unobtainium", anchors.terms[1], *once[:1]])
        anchors = PropertyAnchors(terms=(anchors.terms[0], str(term)))
    if draw % 3 != 0:  # a Zr column, and a document holding Zr once or twice or none
        token_lists += [["Zr", "oxide"]] * int(rng.integers(0, 3))
        candidates = CandidateTable(
            (*candidates.elements, "Zr"), (*candidates.ids, "Zr1"),
            np.eye(len(candidates.elements) + 1)[
                [*np.argmax(candidates.fractions, axis=1), len(candidates.elements)]])
    return (docset(token_lists), candidates,
            replace(config, max_iterations=None, anchors=anchors))


@pytest.mark.parametrize("draw", range(24))
def test_refusal_matches_what_the_serial_loop_finds_at_exhaustion(monkeypatch, draw):
    # counts only grow with t, so the serial loop's last iteration, the
    # whole corpus, misses what the up-front check refuses
    docs, candidates, config = unfinishable_case(draw)
    try:
        expected = reference_run_refinement(docs, candidates, config)
    except RefinementError as exc:
        assert "never all present" in str(exc)
        monkeypatch.setattr(refine, "train_doc2vec", untrainable)
        with pytest.raises(RefinementError) as got:
            run_refinement(docs, candidates, config)
        assert got.value.missing and str(exc).endswith(f"(last missing: {got.value.missing})")
    else:
        assert_same_run(run_refinement(docs, candidates, config), expected)
