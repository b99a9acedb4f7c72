"""Word and document embeddings: skip-gram and PV-DBOW over hierarchical softmax.

Both trainers run one SGD driver that walks each target token's
root-to-leaf path through a Huffman tree built from vocabulary counts.
Each token position is one item whose targets are a range of the
corpus's flat array of token ids: skip-gram's item is the token and its
window, the kernel leaving the position itself out, and PV-DBOW's item is
the document's row and the one token. Both take their corpus only as an
:class:`~litscreen.corpus.EncodedCorpus`, whose flat id array the items
index. The compiled kernel library (``_hs.c``, built and loaded by
:mod:`litscreen.kernel` the first time a trainer runs) walks every item
of an epoch in one call, with the GIL released. The same step in numpy,
``hs_step``, lives in the tests as the reference the kernel is checked
against. Training is sequential and bit-reproducible for a fixed seed and
compiler; the kernel sums each score in a fixed four-lane order
(``_hs.c``), not in k order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusError, EncodedCorpus, Vocabulary
from .kernel import library

__all__ = [
    "EmbeddingConfig",
    "HuffmanCoding",
    "WordModel",
    "DocModel",
    "OutOfVocabularyError",
    "DivergenceError",
    "build_huffman",
    "train_word2vec",
    "train_doc2vec",
    "vector_of",
]


class OutOfVocabularyError(LookupError):
    """Token has no vector in the model."""


class DivergenceError(ValueError):
    """Training met a non-finite score, as an ``alpha0`` too large for the corpus gives."""


@dataclass(frozen=True)
class EmbeddingConfig:
    """Hyperparameters shared by the word and document trainers.

    The learning rate decays linearly from ``alpha0`` to ``alpha_min`` over
    the total number of token positions processed across all epochs.
    """

    dim: int = 200
    window: int = 5
    epochs: int = 5
    alpha0: float = 0.025
    alpha_min: float = 0.0001
    min_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:  # the document projection and the anchors' plane have two axes
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.alpha0):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0}")
        if not (self.alpha0 > self.alpha_min > 0):
            raise ValueError(
                f"need alpha0 > alpha_min > 0, got {self.alpha0}, {self.alpha_min}"
            )


@dataclass
class HuffmanCoding:
    """Per-token prefix-free codes over the frequency-built Huffman tree, as
    the flat table the kernel reads.

    Token i's path is ``nodes[offsets[i]:offsets[i+1]]``, internal-node
    indices from root to leaf, and the same slice of ``signs`` is its code
    as +/-1 floats.
    """

    offsets: np.ndarray  # (V+1,) int64, from 0
    nodes: np.ndarray  # int64, below n_nodes
    signs: np.ndarray  # float64

    @property
    def n_nodes(self) -> int:
        """V-1, the internal nodes of a tree over V leaves."""
        return len(self.offsets) - 2

    def code_lengths(self) -> list[int]:
        return np.diff(self.offsets).tolist()


@dataclass
class WordModel:
    """Token vectors; the internal-node matrix only on freshly trained models.

    ``final_loss`` is the final epoch's mean loss per pair, nan when that
    epoch trained no pair, None when loaded from disk.
    """

    vocab: Vocabulary
    vectors: np.ndarray  # (V, dim) token vectors
    node_vectors: np.ndarray | None  # (V-1, dim); None when loaded from disk
    config: EmbeddingConfig
    seed: int
    final_loss: float | None = None
    pairs_trained: int = 0


@dataclass
class DocModel:
    """One trained vector per document, keyed by document id.

    ``final_loss`` is the final epoch's mean loss per pair, nan when that
    epoch trained no pair, None when loaded from disk.
    """

    ids: list[str]
    vectors: np.ndarray  # (N, dim)
    config: EmbeddingConfig
    final_loss: float | None = None


def build_huffman(vocab: Vocabulary) -> HuffmanCoding:
    """Build the binary Huffman tree over token frequencies.

    Each merge pops the two nodes of least ``(count, node id)``: leaves
    carry their vocabulary index, internal nodes are numbered V, V+1, ...
    in creation order, and the first node popped is the +1 child. Fully
    deterministic. A heap would pop in the same order as this merge of two
    queues: the leaves sorted by ``(count, index)``, and the internal nodes
    in creation order, whose counts never decrease and whose ids are above
    every leaf's, so a leaf wins every tie with an internal node. So every
    indexed token needs a count >= 1; ValueError names one that has none.
    """
    if vocab.counts is None:
        raise ValueError("vocabulary has no counts; cannot build a Huffman tree")
    V = len(vocab)
    if V < 2:
        raise ValueError(f"Huffman tree needs at least 2 tokens, got {V}")
    tokens = vocab.tokens()
    try:
        counts = [vocab.counts[t] for t in tokens]
    except KeyError as exc:
        raise ValueError(f"token {exc.args[0]!r} is in the vocabulary index "
                         "but has no count") from None
    least = min(counts)
    if least < 1:
        raise ValueError(f"token {tokens[counts.index(least)]!r} has count {least}; "
                         "a Huffman tree needs counts >= 1")

    order = sorted(range(V), key=counts.__getitem__)  # stable: ties by index
    leaf_counts = [counts[i] for i in order]
    merged: list[int] = []  # internal node counts, in creation order
    popped: list[int] = []  # node ids in pop order, two per merge
    leaves = internal = 0  # how many of each queue are popped
    for _ in range(V - 1):
        total = 0
        for _ in range(2):
            if internal < len(merged) and (leaves == V or merged[internal] < leaf_counts[leaves]):
                popped.append(V + internal)
                total += merged[internal]
                internal += 1
            else:
                popped.append(order[leaves])
                total += leaf_counts[leaves]
                leaves += 1
        merged.append(total)

    # parent[n] is node n's parent as an internal index 0..V-2, the root last
    parent = np.empty(2 * V - 1, dtype=np.int64)
    branch = np.empty(2 * V - 1)
    parent[popped] = np.repeat(np.arange(V - 1, dtype=np.int64), 2)
    branch[popped] = np.tile([1.0, -1.0], V - 1)

    # walk every leaf up one level per step; step s of a leaf fills the
    # s-th entry from its slice's end, so the slice reads root-first
    depth = np.zeros(V, dtype=np.int64)
    live = np.arange(V)
    node = live
    steps = []
    while live.size:
        up = parent[node]
        steps.append((live, up, branch[node]))
        depth[live] += 1
        below_root = up != V - 2
        live = live[below_root]
        node = up[below_root] + V
    offsets = np.zeros(V + 1, dtype=np.int64)
    np.cumsum(depth, out=offsets[1:])
    nodes = np.empty(offsets[-1], dtype=np.int64)
    signs = np.empty(offsets[-1])
    for s, (live, up, sign) in enumerate(steps):
        at = offsets[live + 1] - 1 - s
        nodes[at] = up
        signs[at] = sign
    return HuffmanCoding(offsets=offsets, nodes=nodes, signs=signs)


def _setup(corpus: EncodedCorpus, config: EmbeddingConfig, doc_rows: bool):
    """What both trainers start from: the vocabulary, its Huffman coding,
    the seeded generator, the initial center rows drawn from it (one per
    document if ``doc_rows``, else one per token), every document's
    in-vocabulary token indices as one flat array, and each of those
    tokens' document index; out-of-vocabulary tokens are dropped. A
    vocabulary of fewer than two tokens is a CorpusError."""
    if not len(corpus):
        raise ValueError("empty corpus")
    vocab, lookup = corpus.vocabulary(config.min_count)
    if len(vocab) < 2:  # a Huffman tree needs two leaves
        raise CorpusError(f"{len(vocab)} token reaches min_count={config.min_count}, "
                          "but training needs at least 2")
    coding = build_huffman(vocab)
    rng = np.random.default_rng(config.seed)
    rows = len(corpus) if doc_rows else len(vocab)
    centers = (rng.random((rows, config.dim)) - 0.5) / config.dim
    flat = lookup[corpus.ids]
    kept = flat >= 0
    flat = flat[kept]
    docs = np.repeat(np.arange(len(corpus), dtype=np.int64), corpus.lengths)[kept]
    return vocab, coding, rng, centers, flat, docs


def _train_hs(
    centers: np.ndarray,
    coding: HuffmanCoding,
    config: EmbeddingConfig,
    rows: np.ndarray,
    targets: np.ndarray,
    epoch_ranges,
    skip_self: bool,
) -> tuple[np.ndarray, float, int]:
    """SGD over hierarchical softmax, updating ``centers`` in place.

    There is one item per target position i: center row ``rows[i]``
    predicts ``targets[lo[i]:hi[i]]`` in order, leaving out ``targets[i]``
    itself when ``skip_self``. ``epoch_ranges()`` is called once per epoch
    and returns that epoch's ``(lo, hi)``. The compiled kernel trains each
    epoch in one call: per pair, one SGD step of the hierarchical-softmax
    loss ``-sum log sigmoid(sign * <center, node>)`` over the target's
    path, with both gradients taken at the incoming values. The learning
    rate decays linearly per item across all epochs, from ``alpha0`` to
    ``alpha_min`` (the kernel takes the span from the two). Node vectors
    start at zero. Only the final epoch computes the loss, through one
    running product per call, not a ``log1p`` per path node (``_hs.c``).
    Returns (node matrix, the final epoch's mean loss per pair or nan when
    that epoch trained no pair, pairs trained).
    """
    hs_train = library().hs_train
    nodes = np.zeros((coding.n_nodes, config.dim))
    work = np.empty(int(np.diff(coding.offsets).max()) + config.dim)
    final_loss = np.zeros(1)
    n_items = len(targets)
    total = config.epochs * n_items
    pairs = epoch_pairs = 0
    # the kernel indexes raw memory with these, so check them first
    if (centers.shape[1] != config.dim or rows.shape != (n_items,)
            or np.any((rows < 0) | (rows >= len(centers)))
            or np.any((targets < 0) | (targets >= len(coding.offsets) - 1))):
        raise ValueError("training items out of range")
    for epoch in range(config.epochs):
        lo, hi = epoch_ranges()
        if (lo.shape != (n_items,) or hi.shape != (n_items,)
                or np.any((lo < 0) | (lo > hi) | (hi > n_items))):
            raise ValueError("training items out of range")
        epoch_pairs = hs_train(
            centers, nodes, config.dim, rows, lo, hi, targets, n_items, skip_self,
            coding.offsets, coding.nodes, coding.signs, config.alpha0, config.alpha_min,
            epoch * n_items, total, work, final_loss if epoch == config.epochs - 1 else None,
        )
        if epoch_pairs < 0:
            raise DivergenceError("non-finite score while training")
        pairs += epoch_pairs
    return nodes, float(final_loss[0]) / epoch_pairs if epoch_pairs else math.nan, pairs


def train_word2vec(token_lists: EncodedCorpus, config: EmbeddingConfig) -> WordModel:
    """Train skip-gram token vectors with hierarchical softmax on the
    documents of ``token_lists``.

    For each in-vocabulary position a window radius is drawn uniformly from
    1..window and every context token inside it is predicted from the center
    token's vector. Token vectors start uniform in [-0.5/dim, 0.5/dim]
    (seeded).
    """
    vocab, coding, rng, vectors, flat, docs = _setup(token_lists, config, doc_rows=False)
    # document d's in-vocabulary tokens are flat[bounds[d]:bounds[d + 1]]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(docs))))
    starts, ends = bounds[:-1], bounds[1:]
    pos = np.arange(flat.size)

    def windows():
        # position p's window is flat[lo:hi] clipped to its document; the
        # kernel leaves p itself out
        radii = rng.integers(1, config.window + 1, size=flat.size)
        return np.maximum(starts[docs], pos - radii), np.minimum(ends[docs], pos + radii + 1)

    nodes, final_loss, pairs = _train_hs(vectors, coding, config, flat, flat, windows,
                                         skip_self=True)
    return WordModel(
        vocab=vocab,
        vectors=vectors,
        node_vectors=nodes,
        config=config,
        seed=config.seed,
        final_loss=final_loss,
        pairs_trained=pairs,
    )


def train_doc2vec(token_lists: EncodedCorpus, config: EmbeddingConfig, ids=None) -> DocModel:
    """Train PV-DBOW vectors for the documents of ``token_lists``.

    Skip-gram whose center row is the document's vector and whose context
    is every in-vocabulary token of that document, predicted through the
    shared Huffman tree; schedule and initialization match
    :func:`train_word2vec`.
    """
    _, coding, _, doc_vectors, flat, docs = _setup(token_lists, config, doc_rows=True)
    ids = [str(i) for i in (range(len(doc_vectors)) if ids is None else ids)]
    if len(ids) != len(doc_vectors):
        raise ValueError(f"{len(ids)} ids for {len(doc_vectors)} documents")
    # one item per token: its document's row and the token itself
    ranges = np.arange(flat.size, dtype=np.int64), np.arange(1, flat.size + 1, dtype=np.int64)

    _, final_loss, _ = _train_hs(doc_vectors, coding, config, docs, flat, lambda: ranges,
                                 skip_self=False)
    return DocModel(
        ids=ids,
        vectors=doc_vectors,
        config=config,
        final_loss=final_loss,
    )


def vector_of(model: WordModel, token: str) -> np.ndarray:
    """The token's trained vector; raises OutOfVocabularyError if absent."""
    idx = model.vocab.index.get(token)
    if idx is None:
        raise OutOfVocabularyError(f"token {token!r} is not in the vocabulary")
    return model.vectors[idx]
