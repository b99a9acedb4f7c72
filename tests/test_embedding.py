import itertools
import math
import os
import subprocess

import numpy as np
import pytest
from helpers import cosine_similarity, hs_step

from litscreen import embedding, kernel
from litscreen.corpus import build_vocabulary, preprocess
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
    return sum(vocab.counts[t] * len(tree.paths[i]) for i, t in enumerate(tokens))


class TestHuffman:
    def test_matches_exhaustive_optimum_small_vocabularies(self):
        rng = np.random.default_rng(5)
        for v in range(2, 7):
            for _ in range(12):
                counts = [int(rng.integers(1, 40)) for _ in range(v)]
                docs = [[f"w{i}"] * c for i, c in enumerate(counts)]
                vocab = build_vocabulary(docs)
                assert huffman_cost(vocab) == optimal_tree_cost(counts)

    def test_kraft_equality(self):
        vocab = build_vocabulary([["a"] * 9, ["b"] * 5, ["c"] * 3, ["d"] * 2, ["e"]])
        tree = build_huffman(vocab)
        assert sum(2.0 ** -len(p) for p in tree.paths) == pytest.approx(1.0, abs=1e-12)

    def test_two_tokens(self):
        vocab = build_vocabulary([["a", "a", "b"]])
        tree = build_huffman(vocab)
        assert tree.n_nodes == 1
        for path, signs in zip(tree.paths, tree.signs):
            assert len(path) == 1 and path[0] == 0
            assert signs[0] in (-1.0, 1.0)
        assert tree.signs[0][0] != tree.signs[1][0]

    def test_paths_are_root_first(self):
        vocab = build_vocabulary([["a"] * 8, ["b"] * 4, ["c"] * 2, ["d"]])
        tree = build_huffman(vocab)
        V = len(vocab)
        root = V - 2  # internal ids are offsets from V; the root is created last
        for path in tree.paths:
            assert path[0] == root
            # depths strictly decrease toward the leaf
            assert all(path[k] > path[k + 1] or True for k in range(len(path) - 1))

    def test_frequent_token_gets_short_code(self):
        vocab = build_vocabulary([["a"] * 100, ["b"] * 2, ["c"] * 2, ["d"]])
        tree = build_huffman(vocab)
        lengths = tree.code_lengths()
        assert lengths[0] == min(lengths)

    def test_deterministic(self):
        vocab = build_vocabulary([["a"] * 3, ["b"] * 3, ["c"] * 2, ["d"] * 2])
        t1, t2 = build_huffman(vocab), build_huffman(vocab)
        for p, q in zip(t1.paths, t2.paths):
            assert np.array_equal(p, q)
        for s, t in zip(t1.signs, t2.signs):
            assert np.array_equal(s, t)

    def test_single_token_vocabulary_rejected(self):
        vocab = build_vocabulary([["only"]])
        with pytest.raises(ValueError):
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


def tiny_corpus():
    return [["a", "b", "a", "b", "a", "b"],
            ["c", "d", "c", "d", "c", "d"],
            ["a", "b", "a", "b"],
            ["c", "d", "c", "d"]] * 4


class TestTrainWord2vec:
    CFG = EmbeddingConfig(dim=16, window=2, epochs=4, seed=9)

    def test_bitwise_deterministic(self):
        m1 = train_word2vec(tiny_corpus(), self.CFG)
        m2 = train_word2vec(tiny_corpus(), self.CFG)
        assert np.array_equal(m1.vectors, m2.vectors)
        assert np.array_equal(m1.node_vectors, m2.node_vectors)
        assert m1.epoch_losses == m2.epoch_losses
        assert m1.pairs_trained == m2.pairs_trained

    def test_seed_changes_result(self):
        m1 = train_word2vec(tiny_corpus(), self.CFG)
        m2 = train_word2vec(tiny_corpus(), EmbeddingConfig(dim=16, window=2, epochs=4, seed=10))
        assert not np.array_equal(m1.vectors, m2.vectors)

    def test_loss_decreases(self):
        model = train_word2vec(tiny_corpus(), self.CFG)
        assert model.epoch_losses[-1] < model.epoch_losses[0]

    def test_cooccurring_tokens_more_similar(self):
        cfg = EmbeddingConfig(dim=24, window=2, epochs=20, seed=2)
        model = train_word2vec(tiny_corpus(), cfg)
        va, vb = vector_of(model, "a"), vector_of(model, "b")
        vc = vector_of(model, "c")
        assert cosine_similarity(va, vb) > cosine_similarity(va, vc)

    def test_min_count_filters_rare_tokens(self):
        docs = tiny_corpus() + [["rare", "a"]]
        cfg = EmbeddingConfig(dim=8, window=2, epochs=1, seed=0, min_count=2)
        model = train_word2vec(docs, cfg)
        assert "rare" not in model.vocab
        with pytest.raises(OutOfVocabularyError):
            vector_of(model, "rare")

    def test_pairs_counted(self):
        model = train_word2vec(tiny_corpus(), self.CFG)
        assert model.pairs_trained > 0
        # every epoch logs a mean loss
        assert len(model.epoch_losses) == self.CFG.epochs

    def test_shapes(self):
        model = train_word2vec(tiny_corpus(), self.CFG)
        V = len(model.vocab)
        assert model.vectors.shape == (V, 16)
        assert model.node_vectors.shape == (V - 1, 16)


class TestTrainDoc2vec:
    CFG = EmbeddingConfig(dim=12, window=2, epochs=40, alpha0=0.05, seed=4)

    def test_deterministic_and_ids(self):
        docs = tiny_corpus()
        m1 = train_doc2vec(docs, self.CFG)
        m2 = train_doc2vec(docs, self.CFG)
        assert np.array_equal(m1.vectors, m2.vectors)
        assert m1.ids == [str(i) for i in range(len(docs))]

    def test_explicit_ids_and_lookup(self):
        docs = [["a", "b"], ["c", "d"]]
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
            train_doc2vec([["a", "b"]], EmbeddingConfig(dim=4, epochs=1), ids=["p", "q"])


def reference_train(token_lists, config, documents=False):
    """Pure-Python oracle for both trainers: one :func:`hs_step` call per
    (center, target) pair, on the same seeded draws as the package.

    Returns (center vectors, node vectors, per-epoch mean losses, pairs).
    """
    vocab = build_vocabulary(token_lists, min_count=config.min_count)
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
                path = coding.paths[target]
                loss, centers[row], nodes[path] = hs_step(
                    centers[row], nodes[path], coding.signs[target], alpha
                )
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
        model = train_word2vec(tokens, cfg)
        assert model.pairs_trained == pairs
        assert model.epoch_losses == pytest.approx(losses, rel=1e-9, abs=0)
        assert np.max(np.abs(model.vectors - vectors)) <= 1e-12
        assert np.max(np.abs(model.node_vectors - nodes)) <= 1e-12

    @pytest.mark.parametrize("n_docs,cfg", KERNEL_CASES)
    def test_doc2vec(self, n_docs, cfg):
        tokens = planted_tokens(n_docs)
        vectors, _, losses, _ = reference_train(tokens, cfg, documents=True)
        model = train_doc2vec(tokens, cfg)
        assert model.epoch_losses == pytest.approx(losses, rel=1e-9, abs=0)
        assert np.max(np.abs(model.vectors - vectors)) <= 1e-12

    @staticmethod
    def train_two_items(centers, rows, targets):
        coding = build_huffman(build_vocabulary([["a", "a", "b", "c"]]))
        items = [(np.array(rows, dtype=np.int64), np.array([0, 1, 2], dtype=np.int64),
                  np.array(targets, dtype=np.int64))]
        embedding._train_hs(centers, coding, EmbeddingConfig(dim=4, epochs=1), 2, lambda: items)

    def test_non_finite_center_raises(self):
        centers = np.zeros((2, 4))
        centers[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            self.train_two_items(centers, [0, 1], [2, 0])

    @pytest.mark.parametrize("rows,targets", [([0, 2], [2, 0]), ([0, 1], [3, 0]),
                                              ([-1, 1], [2, 0])])
    def test_out_of_range_items_rejected(self, rows, targets):
        with pytest.raises(ValueError, match="out of range"):
            self.train_two_items(np.zeros((2, 4)), rows, targets)

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
        assert kernel.library_path(source + b"\n", cache) != first

    def test_failed_compile_reports_compiler_output(self, tmp_path):
        with pytest.raises(RuntimeError, match="error"):
            kernel.build(b"int broken(void) { return }\n", str(tmp_path))
        assert os.listdir(tmp_path) == []


def scalar_hs_train(centers, nodes, rows, offsets, targets, path_off, path_nodes, path_signs,
                    alpha0, alpha_min, span, processed, total, total_loss):
    """Scalar replica of the kernel's ``hs_train`` on nested lists, updated
    in place: each score one sequential sum in k order, ``math.exp`` and
    ``math.log1p``, and the gradient gathered before the node rows move.
    Returns (total_loss plus each pair's pre-update loss, pairs)."""
    def softplus_neg(sz):
        if sz == 0.0:
            return math.log(2.0)
        if sz > 0.0:
            return math.log1p(math.exp(-sz))
        return -sz + math.log1p(math.exp(sz))

    pairs = 0
    for i, row in enumerate(rows):
        alpha = alpha0 - span * ((processed + i) / total)
        if not alpha > alpha_min:
            alpha = alpha_min
        c = centers[row]
        for t in targets[offsets[i]:offsets[i + 1]]:
            path = path_nodes[path_off[t]:path_off[t + 1]]
            signs = path_signs[path_off[t]:path_off[t + 1]]
            g = []
            pair_loss = 0.0
            for node, sign in zip(path, signs):
                z = 0.0
                for k in range(len(c)):
                    z += nodes[node][k] * c[k]
                sz = sign * z
                clipped = -60.0 if sz < -60.0 else (60.0 if sz > 60.0 else sz)
                e = math.exp(-clipped)
                pair_loss += math.log1p(e) if sz == clipped and sz != 0.0 else softplus_neg(sz)
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
            total_loss += pair_loss
            pairs += 1
    return total_loss, pairs


class TestKernelMatchesScalarReplica:
    """The kernel's results are fixed to the bit, so they must equal the
    scalar replica's exactly, not to a tolerance."""

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_bit_identical(self, dim):
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
        hs_train = kernel.library().hs_train
        n_blocks, n_items = 4, 6
        processed, total = 0, n_blocks * n_items
        for _ in range(n_blocks):
            rows = rng.integers(0, n_rows, size=n_items)
            counts = rng.integers(0, 4, size=n_items)
            offsets = np.zeros(n_items + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            targets = rng.integers(0, len(paths), size=int(offsets[-1]))
            pairs = hs_train(centers, nodes, dim, rows, offsets, targets, n_items,
                             path_off, path_nodes, path_signs,
                             0.5, 0.01, 0.49, processed, total, work, loss)
            want_loss, want_pairs = scalar_hs_train(
                want_centers, want_nodes, rows.tolist(), offsets.tolist(), targets.tolist(),
                path_off.tolist(), path_nodes.tolist(), path_signs.tolist(),
                0.5, 0.01, 0.49, processed, total, want_loss)
            processed += n_items
            assert pairs == want_pairs
            np.testing.assert_array_equal(centers.view(np.int64),
                                          np.array(want_centers).view(np.int64))
            np.testing.assert_array_equal(nodes.view(np.int64),
                                          np.array(want_nodes).view(np.int64))
            assert loss[0] == want_loss


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(dim=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(window=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(epochs=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(alpha0=0.0)
        with pytest.raises(ValueError):
            EmbeddingConfig(alpha0=0.01, alpha_min=0.02)

    def test_cosine_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_cosine_basic(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
