import dataclasses
import itertools
import math
import os
import subprocess

import numpy as np
import pytest
from helpers import (
    code_path,
    cosine_similarity,
    hs_step,
    reference_build_huffman,
    reference_build_vocabulary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from litscreen import embedding, kernel
from litscreen.corpus import EncodedCorpus, Vocabulary, preprocess
from litscreen.embedding import (
    EmbeddingConfig,
    OutOfVocabularyError,
    build_huffman,
    train_doc2vec,
    train_word2vec,
    vector_of,
)
from litscreen.synth import SynthSpec, synthetic_corpus


def optimal_tree_cost(counts):
    """Minimum weighted path length over every possible merge order."""
    best = [math.inf]

    def recurse(items, cost):
        if len(items) == 1:
            best[0] = min(best[0], cost)
            return
        if cost >= best[0]:
            return
        for i, j in itertools.combinations(range(len(items)), 2):
            merged = items[i] + items[j]
            rest = [items[k] for k in range(len(items)) if k not in (i, j)]
            recurse(rest + [merged], cost + merged)

    recurse(list(counts), 0)
    return best[0]


def huffman_cost(vocab):
    tree = build_huffman(vocab)
    tokens = vocab.tokens()
    return sum(vocab.counts[t] * len(code_path(tree, i)[0]) for i, t in enumerate(tokens))


class TestHuffman:
    def test_matches_exhaustive_optimum_small_vocabularies(self):
        rng = np.random.default_rng(5)
        for v in range(2, 7):
            for _ in range(12):
                counts = [int(rng.integers(1, 40)) for _ in range(v)]
                docs = [[f"w{i}"] * c for i, c in enumerate(counts)]
                vocab = reference_build_vocabulary(docs)
                assert huffman_cost(vocab) == optimal_tree_cost(counts)

    def test_kraft_equality(self):
        vocab = reference_build_vocabulary([["a"] * 9, ["b"] * 5, ["c"] * 3, ["d"] * 2, ["e"]])
        tree = build_huffman(vocab)
        lengths = [len(code_path(tree, i)[0]) for i in range(len(vocab))]
        assert sum(2.0 ** -n for n in lengths) == pytest.approx(1.0, abs=1e-12)

    def test_two_tokens(self):
        vocab = reference_build_vocabulary([["a", "a", "b"]])
        tree = build_huffman(vocab)
        assert tree.n_nodes == 1
        codes = [code_path(tree, i) for i in range(2)]
        for path, signs in codes:
            assert len(path) == 1 and path[0] == 0
            assert signs[0] in (-1.0, 1.0)
        assert codes[0][1][0] != codes[1][1][0]

    def test_paths_are_root_first(self):
        vocab = reference_build_vocabulary([["a"] * 8, ["b"] * 4, ["c"] * 2, ["d"]])
        tree = build_huffman(vocab)
        V = len(vocab)
        root = V - 2  # internal ids are offsets from V; the root is created last
        for i in range(V):
            path, _ = code_path(tree, i)
            assert path[0] == root
            # a parent is created after its children, so ids fall toward the leaf
            assert all(path[k] > path[k + 1] for k in range(len(path) - 1))

    def test_frequent_token_gets_short_code(self):
        vocab = reference_build_vocabulary([["a"] * 100, ["b"] * 2, ["c"] * 2, ["d"]])
        tree = build_huffman(vocab)
        lengths = tree.code_lengths()
        assert lengths[0] == min(lengths)

    def test_deterministic(self):
        vocab = reference_build_vocabulary([["a"] * 3, ["b"] * 3, ["c"] * 2, ["d"] * 2])
        t1, t2 = build_huffman(vocab), build_huffman(vocab)
        for i in range(len(vocab)):
            (p, s), (q, t) = code_path(t1, i), code_path(t2, i)
            assert np.array_equal(p, q)
            assert np.array_equal(s, t)

    def test_single_token_vocabulary_rejected(self):
        vocab = reference_build_vocabulary([["only"]])
        with pytest.raises(ValueError):
            build_huffman(vocab)

    @pytest.mark.parametrize("v", [2, 3, 5, 17, 200])
    def test_kernel_table_well_formed(self, v):
        # hs_train indexes raw memory with this table and checks none of it
        rng = np.random.default_rng(v)
        counts = rng.integers(1, 1000, size=v)
        docs = [[f"w{i}"] * c for i, c in enumerate(counts)]
        tree = build_huffman(reference_build_vocabulary(docs))
        assert tree.offsets.dtype == tree.nodes.dtype == np.int64
        assert tree.signs.dtype == np.float64
        assert all(a.flags.c_contiguous for a in (tree.offsets, tree.nodes, tree.signs))
        assert len(tree.offsets) == v + 1 and tree.offsets[0] == 0
        assert np.all(np.diff(tree.offsets) >= 0)
        assert len(tree.nodes) == len(tree.signs) == tree.offsets[-1]
        assert tree.n_nodes == v - 1
        assert np.all((tree.nodes >= 0) & (tree.nodes < tree.n_nodes))
        assert np.all(np.abs(tree.signs) == 1.0)
        assert tree.code_lengths() == np.diff(tree.offsets).tolist()


def indexed_vocabulary(counts):
    """Tokens ``w0``, ``w1``, ... indexed in list order with these counts."""
    tokens = [f"w{i}" for i in range(len(counts))]
    return Vocabulary(index={t: i for i, t in enumerate(tokens)},
                      counts={t: int(c) for t, c in zip(tokens, counts)})


@st.composite
def tie_heavy_counts(draw):
    """Counts from {1, 2, 3} with up to five large ones, V from 2 to 3,000."""
    v = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(1, 4, size=v)
    large = draw(st.lists(st.integers(4, 10**6), max_size=min(5, v)))
    counts[rng.choice(v, size=len(large), replace=False)] = large
    return counts.tolist()


class TestHuffmanMatchesHeapReference:
    """The two-queue merge must build the heap's tree exactly: the same
    offsets, nodes and signs, in the same dtypes, ties included."""

    @staticmethod
    def check(vocab):
        got, want = build_huffman(vocab), reference_build_huffman(vocab)
        for field in ("offsets", "nodes", "signs"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype, field
            np.testing.assert_array_equal(a, b, err_msg=field)

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_counts() | st.lists(st.integers(1, 3) | st.integers(1, 10**6),
                                         min_size=2, max_size=40))
    def test_tie_heavy_counts(self, counts):
        self.check(indexed_vocabulary(counts))

    @pytest.mark.parametrize("v", [2, 3, 4, 5, 64, 100, 1500])
    def test_all_equal_counts(self, v):
        self.check(indexed_vocabulary([7] * v))

    def test_zipf_vocabulary(self):
        counts = np.random.default_rng(1500).zipf(1.3, size=1500)
        self.check(indexed_vocabulary(counts))


class TestHuffmanRejectsCounts:
    def test_indexed_token_without_count(self):
        vocab = Vocabulary(index={"a": 0, "b": 1, "c": 2}, counts={"a": 3, "b": 2})
        with pytest.raises(ValueError, match="'c' is in the vocabulary index but has no count"):
            build_huffman(vocab)

    @pytest.mark.parametrize("count", [-4, 0])
    def test_count_below_one(self, count):
        vocab = indexed_vocabulary([5, count, 2])
        with pytest.raises(ValueError, match=f"'w1' has count {count}; .* counts >= 1"):
            build_huffman(vocab)


class TestHsStep:
    def test_zero_state_loss_is_ln2_per_node(self):
        for L in (1, 3, 5):
            center = np.zeros(8)
            nodes = np.zeros((L, 8))
            signs = np.ones(L)
            loss, new_center, new_rows = hs_step(center, nodes, signs, 0.05)
            assert loss == pytest.approx(L * math.log(2.0), abs=1e-15)
            assert np.array_equal(new_center, center)
            assert np.array_equal(new_rows, nodes)

    def test_returns_pre_update_loss_and_descends(self):
        rng = np.random.default_rng(3)
        center = rng.normal(size=6)
        nodes = rng.normal(size=(4, 6))
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        loss0, c1, n1 = hs_step(center, nodes, signs, 0.01)
        loss1, _, _ = hs_step(c1, n1, signs, 0.01)
        assert loss1 < loss0
        # the returned loss is a function of the inputs only
        again, _, _ = hs_step(center, nodes, signs, 0.5)
        assert again == loss0

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(20):
            L = int(rng.integers(1, 6))
            center = rng.normal(scale=0.8, size=8)
            nodes = rng.normal(scale=0.8, size=(L, 8))
            signs = rng.choice([-1.0, 1.0], size=L)
            alpha = 0.02
            loss, new_center, new_rows = hs_step(center, nodes, signs, alpha)
            grad_center = (center - new_center) / alpha
            grad_nodes = (nodes - new_rows) / alpha
            for k in range(8):
                e = np.zeros(8)
                e[k] = h
                lp, _, _ = hs_step(center + e, nodes, signs, alpha)
                lm, _, _ = hs_step(center - e, nodes, signs, alpha)
                assert grad_center[k] == pytest.approx((lp - lm) / (2 * h), rel=1e-5, abs=1e-7)
            for r in range(L):
                for k in range(8):
                    bump = np.zeros_like(nodes)
                    bump[r, k] = h
                    lp, _, _ = hs_step(center, nodes + bump, signs, alpha)
                    lm, _, _ = hs_step(center, nodes - bump, signs, alpha)
                    assert grad_nodes[r, k] == pytest.approx(
                        (lp - lm) / (2 * h), rel=1e-5, abs=1e-7
                    )

    def test_input_validation(self):
        center = np.zeros(4)
        nodes = np.zeros((2, 4))
        signs = np.ones(2)
        with pytest.raises(ValueError):
            hs_step(center, nodes, signs, 0.0)
        with pytest.raises(ValueError):
            hs_step(center, nodes, signs, -0.1)
        bad = center.copy()
        bad[0] = np.nan
        with pytest.raises(ValueError):
            hs_step(bad, nodes, signs, 0.1)

    def test_perfect_prediction_has_tiny_gradient(self):
        center = np.ones(4) * 10
        nodes = np.ones((1, 4)) * 10
        signs = np.array([1.0])
        loss, new_center, _ = hs_step(center, nodes, signs, 0.1)
        assert loss < 1e-10
        assert np.allclose(new_center, center, atol=1e-8)


TINY_TOKENS = [["a", "b", "a", "b", "a", "b"],
               ["c", "d", "c", "d", "c", "d"],
               ["a", "b", "a", "b"],
               ["c", "d", "c", "d"]] * 4


def tiny_corpus():
    return EncodedCorpus.encode(TINY_TOKENS)


class TestTrainWord2vec:
    CFG = EmbeddingConfig(dim=16, window=2, epochs=4, seed=9)

    def test_bitwise_deterministic(self):
        m1 = train_word2vec(tiny_corpus(), self.CFG)
        m2 = train_word2vec(tiny_corpus(), self.CFG)
        assert np.array_equal(m1.vectors, m2.vectors)
        assert np.array_equal(m1.node_vectors, m2.node_vectors)
        assert m1.final_loss == m2.final_loss
        assert m1.pairs_trained == m2.pairs_trained

    def test_seed_changes_result(self):
        m1 = train_word2vec(tiny_corpus(), self.CFG)
        m2 = train_word2vec(tiny_corpus(), EmbeddingConfig(dim=16, window=2, epochs=4, seed=10))
        assert not np.array_equal(m1.vectors, m2.vectors)

    def test_loss_decreases(self):
        one_epoch = train_word2vec(tiny_corpus(), dataclasses.replace(self.CFG, epochs=1))
        model = train_word2vec(tiny_corpus(), self.CFG)
        assert model.final_loss < one_epoch.final_loss

    def test_cooccurring_tokens_more_similar(self):
        cfg = EmbeddingConfig(dim=24, window=2, epochs=20, seed=2)
        model = train_word2vec(tiny_corpus(), cfg)
        va, vb = vector_of(model, "a"), vector_of(model, "b")
        vc = vector_of(model, "c")
        assert cosine_similarity(va, vb) > cosine_similarity(va, vc)

    def test_min_count_filters_rare_tokens(self):
        docs = EncodedCorpus.encode(TINY_TOKENS + [["rare", "a"]])
        cfg = EmbeddingConfig(dim=8, window=2, epochs=1, seed=0, min_count=2)
        model = train_word2vec(docs, cfg)
        assert "rare" not in model.vocab
        with pytest.raises(OutOfVocabularyError):
            vector_of(model, "rare")

    def test_pairs_counted(self):
        model = train_word2vec(tiny_corpus(), self.CFG)
        assert model.pairs_trained > 0
        assert math.isfinite(model.final_loss) and model.final_loss > 0

    def test_no_pair_trained_reports_nan_loss(self):
        # one-token documents give skip-gram no pair: a loss of 0.0 would
        # read as a perfect fit for vectors that never moved
        corpus = EncodedCorpus.encode([["ag"], ["pt"], ["ag"]])
        model = train_word2vec(corpus, EmbeddingConfig(dim=4, epochs=2))
        assert model.pairs_trained == 0
        assert math.isnan(model.final_loss)
        # PV-DBOW trains every token, so it has pairs and a finite loss
        assert math.isfinite(train_doc2vec(corpus, EmbeddingConfig(dim=4, epochs=2)).final_loss)

    def test_shapes(self):
        model = train_word2vec(tiny_corpus(), self.CFG)
        V = len(model.vocab)
        assert model.vectors.shape == (V, 16)
        assert model.node_vectors.shape == (V - 1, 16)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="^empty corpus$"):
            train_word2vec(EncodedCorpus.encode([]), self.CFG)


class TestTrainDoc2vec:
    CFG = EmbeddingConfig(dim=12, window=2, epochs=40, alpha0=0.05, seed=4)

    def test_deterministic_and_ids(self):
        docs = tiny_corpus()
        m1 = train_doc2vec(docs, self.CFG)
        m2 = train_doc2vec(docs, self.CFG)
        assert np.array_equal(m1.vectors, m2.vectors)
        assert m1.ids == [str(i) for i in range(len(docs))]

    def test_explicit_ids_and_lookup(self):
        docs = EncodedCorpus.encode([["a", "b"], ["c", "d"]])
        model = train_doc2vec(docs, EmbeddingConfig(dim=4, epochs=1, seed=0), ids=["x", "y"])
        assert model.ids == ["x", "y"]
        assert model.vectors.shape == (2, 4)

    def test_topic_documents_cluster(self):
        docs = tiny_corpus()
        model = train_doc2vec(docs, self.CFG)
        # docs 0 and 2 share the a/b topic; doc 1 is the c/d topic
        same = cosine_similarity(model.vectors[0], model.vectors[2])
        cross = cosine_similarity(model.vectors[0], model.vectors[1])
        assert same > cross

    def test_id_count_mismatch(self):
        with pytest.raises(ValueError):
            train_doc2vec(EncodedCorpus.encode([["a", "b"]]), EmbeddingConfig(dim=4, epochs=1),
                          ids=["p", "q"])


def reference_train(token_lists, config, documents=False):
    """Pure-Python oracle for both trainers: one :func:`hs_step` call per
    (center, target) pair, on the same seeded draws as the package.

    Returns (center vectors, node vectors, per-epoch mean losses, pairs).
    """
    vocab = reference_build_vocabulary(token_lists, min_count=config.min_count)
    coding = build_huffman(vocab)
    rng = np.random.default_rng(config.seed)
    n_rows = len(token_lists) if documents else len(vocab)
    centers = (rng.random((n_rows, config.dim)) - 0.5) / config.dim
    docs = [[vocab.index[t] for t in tokens if t in vocab.index] for tokens in token_lists]
    tokens_per_epoch = sum(len(d) for d in docs)

    def items():
        if documents:
            for d, doc in enumerate(docs):
                for target in doc:
                    yield d, (target,)
            return
        radii = iter(rng.integers(1, config.window + 1, size=tokens_per_epoch).tolist())
        for doc in docs:
            for pos, (center, r) in enumerate(zip(doc, radii)):
                yield center, doc[max(0, pos - r):pos] + doc[pos + 1:pos + r + 1]

    nodes = np.zeros((coding.n_nodes, config.dim))
    total = config.epochs * tokens_per_epoch
    alpha_span = config.alpha0 - config.alpha_min
    processed = 0
    pairs = 0
    epoch_losses = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for row, targets in items():
            alpha = max(config.alpha_min, config.alpha0 - alpha_span * (processed / total))
            processed += 1
            for target in targets:
                path, signs = code_path(coding, target)
                loss, centers[row], nodes[path] = hs_step(centers[row], nodes[path], signs, alpha)
                epoch_loss += loss
                epoch_pairs += 1
        pairs += epoch_pairs
        epoch_losses.append(epoch_loss / max(1, epoch_pairs))
    return centers, nodes, epoch_losses, pairs


def planted_tokens(n_docs):
    """The criterion-7 planted corpus (seed 11), first ``n_docs`` documents."""
    rows = synthetic_corpus(SynthSpec(n_docs=500, rare_docs=8, seed=11))
    return [preprocess(text) for _, text in rows[:n_docs]]


# The kernel sums dot products in another order than numpy's BLAS, so
# results agree to rounding, not bit for bit.
KERNEL_CASES = [
    (500, EmbeddingConfig(dim=48, window=5, epochs=3)),
    (60, EmbeddingConfig(dim=16, window=1, epochs=2, min_count=3, seed=4)),
    (25, EmbeddingConfig(dim=200, window=5, epochs=1, seed=7)),
]


class TestKernelMatchesReference:
    @pytest.mark.parametrize("n_docs,cfg", KERNEL_CASES)
    def test_word2vec(self, n_docs, cfg):
        tokens = planted_tokens(n_docs)
        vectors, nodes, losses, pairs = reference_train(tokens, cfg)
        model = train_word2vec(EncodedCorpus.encode(tokens), cfg)
        assert model.pairs_trained == pairs
        assert model.final_loss == pytest.approx(losses[-1], rel=1e-9, abs=0)
        assert np.max(np.abs(model.vectors - vectors)) <= 1e-12
        assert np.max(np.abs(model.node_vectors - nodes)) <= 1e-12

    @pytest.mark.parametrize("n_docs,cfg", KERNEL_CASES)
    def test_doc2vec(self, n_docs, cfg):
        tokens = planted_tokens(n_docs)
        vectors, _, losses, _ = reference_train(tokens, cfg, documents=True)
        model = train_doc2vec(EncodedCorpus.encode(tokens), cfg)
        assert model.final_loss == pytest.approx(losses[-1], rel=1e-9, abs=0)
        assert np.max(np.abs(model.vectors - vectors)) <= 1e-12

    @staticmethod
    def train_two_items(centers, rows, targets, lo=(0, 1), hi=(1, 2)):
        """Two PV-DBOW-style items through ``_train_hs``, by default item i
        on target i."""
        coding = build_huffman(reference_build_vocabulary([["a", "a", "b", "c"]]))
        ranges = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
        return embedding._train_hs(
            centers, coding, EmbeddingConfig(dim=4, epochs=1), np.array(rows, dtype=np.int64),
            np.array(targets, dtype=np.int64), lambda: ranges, skip_self=False)

    def test_non_finite_center_raises(self):
        centers = np.zeros((2, 4))
        centers[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            self.train_two_items(centers, [0, 1], [2, 0])

    def assert_rejected_before_the_kernel_runs(self, monkeypatch, **bad):
        called = []
        spy = kernel.library()._replace(hs_train=lambda *args: called.append(args))
        monkeypatch.setattr(embedding, "library", lambda: spy)
        centers = np.zeros((2, 4))
        with pytest.raises(ValueError, match="out of range"):
            self.train_two_items(centers, **{"rows": [0, 1], "targets": [2, 0], **bad})
        assert called == [] and not centers.any()

    @pytest.mark.parametrize("rows,targets", [([0, 2], [2, 0]), ([0, 1], [3, 0]),
                                              ([-1, 1], [2, 0])])
    def test_out_of_range_items_rejected(self, rows, targets, monkeypatch):
        self.assert_rejected_before_the_kernel_runs(monkeypatch, rows=rows, targets=targets)

    # each bad value alone: a negative target, a range starting below 0,
    # ending past the targets or ending before it starts, and arrays of
    # the wrong length
    @pytest.mark.parametrize("bad", [
        {"targets": [2, -1]}, {"lo": (-1, 1)}, {"hi": (1, 3)}, {"lo": (0, 2), "hi": (1, 1)},
        {"rows": [0, 1, 1]}, {"lo": (0,)}, {"hi": (1, 2, 2)},
    ])
    def test_bad_target_ranges_rejected(self, bad, monkeypatch):
        self.assert_rejected_before_the_kernel_runs(monkeypatch, **bad)

    def test_kernel_built_once_per_source(self, tmp_path, monkeypatch):
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        cfg = EmbeddingConfig(dim=4, epochs=1)
        train_word2vec(tiny_corpus(), cfg)
        monkeypatch.setattr(subprocess, "run", counting_run)
        train_word2vec(tiny_corpus(), cfg)
        assert calls == []

        with open(os.path.join(os.path.dirname(kernel.__file__), "_hs.c"), "rb") as f:
            source = f.read()
        cache = str(tmp_path / "cache")
        first = kernel.build(source, cache)
        second = kernel.build(source, cache)
        assert first == second and len(calls) == 1
        assert os.listdir(cache) == [os.path.basename(first)]
        # the name is keyed on the source: another one builds beside it
        assert kernel.build(b"int x;\n", cache) != first and len(calls) == 2

    def test_failed_compile_reports_compiler_output(self, tmp_path):
        with pytest.raises(RuntimeError, match="error"):
            kernel.build(b"int broken(void) { return }\n", str(tmp_path))
        assert os.listdir(tmp_path) == []


def scalar_hs_train(centers, nodes, rows, lo, hi, targets, skip_self, path_off, path_nodes,
                    path_signs, alpha0, alpha_min, processed, total, total_loss):
    """Scalar replica of the kernel's ``hs_train`` on nested lists, updated
    in place: item i trains targets ``lo[i]`` to ``hi[i]``, leaving out
    position i when ``skip_self``; each score summed in four lanes over
    k = 0, 1, 2, 3 (mod 4) combined as (a0 + a1) + (a2 + a3), then the
    ``dim % 4`` tail in k order; ``math.exp`` and ``math.log1p``, and the
    gradient gathered before the node rows move. The loss takes the nodes
    with ``|sz| <= 60`` through one running product for the call,
    ``1 + y = prod(1 + e)``, folded into the sum by ``log1p`` whenever
    ``y > 1e250`` and once at the end, and adds the clipped nodes' softplus
    directly. Returns (total_loss plus the call's pre-update loss, pairs)."""
    def softplus_neg(sz):
        if sz > 0.0:
            return math.log1p(math.exp(-sz))
        return -sz + math.log1p(math.exp(sz))

    pairs = 0
    y = 0.0
    for i, row in enumerate(rows):
        alpha = alpha0 - (alpha0 - alpha_min) * ((processed + i) / total)
        if not alpha > alpha_min:
            alpha = alpha_min
        c = centers[row]
        for t in [targets[p] for p in range(lo[i], hi[i]) if not (skip_self and p == i)]:
            path = path_nodes[path_off[t]:path_off[t + 1]]
            signs = path_signs[path_off[t]:path_off[t + 1]]
            g = []
            body = len(c) - len(c) % 4
            for node, sign in zip(path, signs):
                lanes = [0.0] * 4
                for k in range(body):
                    lanes[k % 4] += nodes[node][k] * c[k]
                z = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
                for k in range(body, len(c)):
                    z += nodes[node][k] * c[k]
                sz = sign * z
                clipped = -60.0 if sz < -60.0 else (60.0 if sz > 60.0 else sz)
                e = math.exp(-clipped)
                if sz == clipped:
                    y = y + e + y * e
                    if y > 1e250:
                        total_loss += math.log1p(y)
                        y = 0.0
                else:
                    total_loss += softplus_neg(sz)
                g.append(sign * (1.0 - 1.0 / (1.0 + e)))
            neu1e = [0.0] * len(c)
            for node, gj in zip(path, g):
                for k in range(len(c)):
                    neu1e[k] += gj * nodes[node][k]
            for node, gj in zip(path, g):
                for k in range(len(c)):
                    nodes[node][k] += alpha * (gj * c[k])
            for k in range(len(c)):
                c[k] += alpha * neu1e[k]
            pairs += 1
    return total_loss + math.log1p(y), pairs


class TestKernelMatchesScalarReplica:
    """The kernel's results are fixed to the bit, so they must equal the
    scalar replica's exactly, not to a tolerance, whether or not the kernel
    is given a loss buffer; the replica always computes the loss."""

    # dims 1 and 3 are a score's tail alone; 5, 6, 7 and 13 are four-lane
    # passes followed by each tail length (1, 2, 3, 1), and 48 and 200 run
    # a vector loop's body many times
    DIMS = [1, 3, 5, 6, 7, 8, 13, 48, 200]

    @pytest.mark.parametrize("dim", DIMS)
    def test_bit_identical(self, dim):
        self.check(kernel.library().hs_train, dim)

    # the shipped library runs one of its two builds here; check each
    @pytest.mark.parametrize("isa", ["baseline", "avx2"])
    @pytest.mark.parametrize("dim", DIMS)
    def test_single_isa_build_bit_identical(self, dim, isa, single_isa_kernel):
        self.check(single_isa_kernel(isa).hs_train, dim)

    @staticmethod
    def check(hs_train, dim):
        rng = np.random.default_rng(dim)
        n_nodes, n_rows = 12, 5
        # paths of 1..9 nodes (every leftover count of a four-node pass),
        # all through node 0, as every Huffman path goes through the root
        paths = [np.concatenate([[0], rng.permutation(np.arange(1, n_nodes))[:n - 1]])
                 for n in range(1, 10)]
        path_off = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum([len(p) for p in paths], out=path_off[1:])
        path_nodes = np.concatenate(paths).astype(np.int64)
        path_signs = rng.choice([-1.0, 1.0], size=len(path_nodes))
        centers = rng.normal(size=(n_rows, dim))
        centers[0] *= 40.0  # scores beyond the +/-60 clip
        nodes = rng.normal(size=(n_nodes, dim))
        nodes[n_nodes // 2:] = 0.0  # zero scores, as untrained nodes give
        want_centers, want_nodes = centers.tolist(), nodes.tolist()
        work = np.empty(9 + dim)
        loss = np.zeros(1)
        want_loss = 0.0
        # a last-bit change in one score often rounds away in the sigmoid, so
        # eight blocks give every dim enough scores for the order to show
        n_blocks, n_items = 8, 6
        processed, total = 0, n_blocks * n_items
        for block in range(n_blocks):
            rows = rng.integers(0, n_rows, size=n_items)
            targets = rng.integers(0, len(paths), size=n_items + 2)
            # every other block is skip-gram: windows of radius 0-2 around
            # each item's own position; the rest take any range of 0-3 targets
            skip_self = block % 2
            if skip_self:
                radii, at = rng.integers(0, 3, size=n_items), np.arange(n_items)
                lo, hi = np.maximum(0, at - radii), np.minimum(len(targets), at + radii + 1)
            else:
                lo = rng.integers(0, len(targets) + 1, size=n_items)
                hi = np.minimum(len(targets), lo + rng.integers(0, 4, size=n_items))
            want_loss, want_pairs = scalar_hs_train(
                want_centers, want_nodes, rows.tolist(), lo.tolist(), hi.tolist(),
                targets.tolist(), skip_self, path_off.tolist(), path_nodes.tolist(),
                path_signs.tolist(), 0.5, 0.01, processed, total, want_loss)
            start_centers, start_nodes = centers, nodes
            # None passes NULL: the kernel skips the loss, not the update
            for buffer in (loss, None):
                centers, nodes = start_centers.copy(), start_nodes.copy()
                pairs = hs_train(centers, nodes, dim, rows, lo, hi, targets, n_items, skip_self,
                                 path_off, path_nodes, path_signs,
                                 0.5, 0.01, processed, total, work, buffer)
                assert pairs == want_pairs
                np.testing.assert_array_equal(centers.view(np.int64),
                                              np.array(want_centers).view(np.int64))
                np.testing.assert_array_equal(nodes.view(np.int64),
                                              np.array(want_nodes).view(np.int64))
            processed += n_items
            assert loss[0] == want_loss


def test_skip_gram_item_never_pairs_with_its_own_position():
    # at a constant learning rate, skip-gram item i over [lo, hi) must train
    # exactly what two plain items over [lo, i) and [i + 1, hi) train
    rng = np.random.default_rng(31)
    dim, n_items, n_nodes = 6, 40, 7
    coding = build_huffman(reference_build_vocabulary(
        [["a"] * 5, ["b"] * 3, ["c"] * 2, ["d"], ["e"], ["f"], ["g"], ["h"]]))
    targets = rng.integers(0, len(coding.offsets) - 1, size=n_items)
    rows = rng.integers(0, 5, size=n_items)
    radii, at = rng.integers(0, 4, size=n_items), np.arange(n_items)
    lo, hi = np.maximum(0, at - radii), np.minimum(n_items, at + radii + 1)
    centers, nodes = rng.normal(size=(5, dim)), np.zeros((n_nodes, dim))

    def train(rows, lo, hi, skip_self):
        c, n, loss = centers.copy(), nodes.copy(), np.zeros(1)
        pairs = kernel.library().hs_train(c, n, dim, rows, lo, hi, targets, len(rows), skip_self,
                                          coding.offsets, coding.nodes, coding.signs,
                                          0.05, 0.05, 0, len(rows),
                                          np.empty(n_nodes + dim), loss)
        return pairs, c.tobytes(), n.tobytes(), loss.tobytes()

    skipped = train(rows, lo, hi, 1)
    split = train(np.repeat(rows, 2), np.column_stack([lo, at + 1]).ravel(),
                  np.column_stack([at, hi]).ravel(), 0)
    assert skipped == split
    assert skipped[0] == np.sum(hi - lo) - n_items  # every item's window holds its own position
    # a window of the own position alone trains nothing
    assert train(rows, at, at + 1, 1)[1:3] == (centers.tobytes(), nodes.tobytes())


def trained_bytes(corpus, cfg=EmbeddingConfig(dim=48, window=5, epochs=3)):
    """Everything a word and a doc model train on ``corpus``, as bytes."""
    words, docs = train_word2vec(corpus, cfg), train_doc2vec(corpus, cfg)
    return (words.vectors.tobytes(), words.node_vectors.tobytes(), words.final_loss.hex(),
            words.pairs_trained, docs.vectors.tobytes(), docs.final_loss.hex())


@pytest.mark.parametrize("isa", ["baseline", "avx2"])
def test_single_isa_builds_train_the_same_bits(isa, single_isa_kernel, monkeypatch):
    corpus = EncodedCorpus.encode(planted_tokens(500))
    shipped = trained_bytes(corpus)
    monkeypatch.setattr(embedding, "library", lambda: single_isa_kernel(isa))
    assert trained_bytes(corpus) == shipped


@pytest.mark.parametrize("cfg", [EmbeddingConfig(dim=16, window=5, epochs=2),
                                 EmbeddingConfig(dim=7, window=2, epochs=1, min_count=2, seed=3)])
def test_a_batch_trains_the_same_bits_as_its_documents_encoded_alone(cfg):
    tokens = planted_tokens(500)
    # a batch keeps the whole corpus's types, some of them absent from it
    docs = sorted(np.random.default_rng(2).choice(500, size=60, replace=False).tolist())
    batch = EncodedCorpus.encode(tokens).take(docs)
    assert (batch.counts == 0).any()
    alone = EncodedCorpus.encode([tokens[i] for i in docs])
    assert trained_bytes(batch, cfg) == trained_bytes(alone, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(dim=0)
        with pytest.raises(ValueError, match="dim must be >= 2, got 1"):
            EmbeddingConfig(dim=1)
        with pytest.raises(ValueError):
            EmbeddingConfig(window=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(epochs=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(alpha0=0.0)
        with pytest.raises(ValueError):
            EmbeddingConfig(alpha0=0.01, alpha_min=0.02)
        with pytest.raises(ValueError, match="min_count must be >= 1"):
            EmbeddingConfig(min_count=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            EmbeddingConfig(seed=-1)
        for alpha0 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha0 must be finite"):
                EmbeddingConfig(alpha0=alpha0)

    def test_cosine_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_cosine_basic(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
