"""Word and document embeddings: skip-gram and PV-DBOW over hierarchical softmax.

Both trainers run one SGD driver that walks each target token's
root-to-leaf path through a Huffman tree built from vocabulary counts:
skip-gram feeds it (token, window context) items and PV-DBOW (document,
token) items. The per-pair step runs in the compiled kernel library
(``_hs.c``, built and loaded by :mod:`litscreen.kernel` the first time a
trainer runs). The same step in numpy, ``hs_step``, lives in the tests
as the reference the kernel is checked against. Training is sequential
and bit-reproducible for a fixed seed and compiler.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary, build_vocabulary
from .kernel import library

__all__ = [
    "EmbeddingConfig",
    "HuffmanCoding",
    "WordModel",
    "DocModel",
    "OutOfVocabularyError",
    "build_huffman",
    "train_word2vec",
    "train_doc2vec",
    "vector_of",
]


class OutOfVocabularyError(LookupError):
    """Token has no vector in the model."""


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
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (self.alpha0 > self.alpha_min > 0):
            raise ValueError(
                f"need alpha0 > alpha_min > 0, got {self.alpha0}, {self.alpha_min}"
            )


@dataclass
class HuffmanCoding:
    """Per-token prefix-free codes over the frequency-built Huffman tree.

    ``signs[i]`` holds the code of token i as a +/-1 float sequence and
    ``paths[i]`` the internal-node indices from root to leaf; both have the
    same length. ``n_nodes`` is V-1.
    """

    signs: list[np.ndarray]
    paths: list[np.ndarray]
    n_nodes: int

    def code_lengths(self) -> list[int]:
        return [len(p) for p in self.paths]


@dataclass
class WordModel:
    """Token vectors; the internal-node matrix only on freshly trained models."""

    vocab: Vocabulary
    vectors: np.ndarray  # (V, dim) token vectors
    node_vectors: np.ndarray | None  # (V-1, dim); None when loaded from disk
    config: EmbeddingConfig
    seed: int
    epoch_losses: list[float] = field(default_factory=list)
    pairs_trained: int = 0


@dataclass
class DocModel:
    """One trained vector per document, keyed by document id."""

    ids: list[str]
    vectors: np.ndarray  # (N, dim)
    config: EmbeddingConfig
    seed: int
    epoch_losses: list[float] = field(default_factory=list)


def build_huffman(vocab: Vocabulary) -> HuffmanCoding:
    """Build the binary Huffman tree over token frequencies.

    Merge order on count ties: lower node index first; leaves carry their
    vocabulary index, internal nodes are numbered V, V+1, ... in creation
    order. Fully deterministic.
    """
    if vocab.counts is None:
        raise ValueError("vocabulary has no counts; cannot build a Huffman tree")
    V = len(vocab)
    if V < 2:
        raise ValueError(f"Huffman tree needs at least 2 tokens, got {V}")

    counts = [0] * V
    for token, i in vocab.index.items():
        counts[i] = vocab.counts[token]

    # heap entries: (count, node_id); children[k] = (first_pop, second_pop)
    heap = [(counts[i], i) for i in range(V)]
    heapq.heapify(heap)
    children: list[tuple[int, int]] = []
    next_id = V
    while len(heap) > 1:
        c1, n1 = heapq.heappop(heap)
        c2, n2 = heapq.heappop(heap)
        children.append((n1, n2))
        heapq.heappush(heap, (c1 + c2, next_id))
        next_id += 1

    # walk each leaf's parent chain; root is the last internal node
    parent = [0] * (2 * V - 1)
    branch = [0.0] * (2 * V - 1)  # +1 for first-popped child, -1 for second
    for k, (n1, n2) in enumerate(children):
        parent[n1] = V + k
        parent[n2] = V + k
        branch[n1] = 1.0
        branch[n2] = -1.0

    root = 2 * V - 2
    signs = []
    paths = []
    for leaf in range(V):
        rev_signs = []
        rev_path = []
        node = leaf
        while node != root:
            rev_signs.append(branch[node])
            rev_path.append(parent[node] - V)
            node = parent[node]
        signs.append(np.array(rev_signs[::-1], dtype=np.float64))
        paths.append(np.array(rev_path[::-1], dtype=np.int64))
    return HuffmanCoding(signs=signs, paths=paths, n_nodes=V - 1)


def _init_matrix(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    return (rng.random((rows, dim)) - 0.5) / dim


def _index_docs(token_lists, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """All documents' in-vocabulary token indices as one flat array, plus
    each document's length; out-of-vocabulary tokens are dropped."""
    index = vocab.index
    docs = [[index[t] for t in tokens if t in index] for tokens in token_lists]
    lengths = np.array([len(d) for d in docs], dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(docs), dtype=np.int64,
                       count=int(lengths.sum()))
    if flat.size == 0:
        raise ValueError("no in-vocabulary tokens to train on")
    return flat, lengths


def _train_hs(
    centers: np.ndarray,
    coding: HuffmanCoding,
    config: EmbeddingConfig,
    tokens_per_epoch: int,
    epoch_items,
) -> tuple[np.ndarray, list[float], int]:
    """SGD over hierarchical softmax, updating ``centers`` in place.

    ``epoch_items()`` is called once per epoch and yields that epoch's
    ``(center row, target ids)`` items, one per in-vocabulary token
    position, in consecutive CSR blocks ``(rows, offsets, targets)``: item
    i of a block is ``rows[i]`` with targets
    ``targets[offsets[i]:offsets[i+1]]``. The compiled kernel trains each
    block: per pair, one SGD step of the hierarchical-softmax loss
    ``-sum log sigmoid(sign * <center, node>)`` over the target's path,
    with both gradients taken at the incoming values. The learning rate
    decays linearly per item across all epochs. Node vectors start at
    zero. Returns (node matrix, per-epoch mean loss, pairs trained).
    """
    hs_train = library().hs_train
    nodes = np.zeros((coding.n_nodes, config.dim))
    lengths = coding.code_lengths()
    path_off = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=path_off[1:])
    path_nodes = np.concatenate(coding.paths)
    path_signs = np.concatenate(coding.signs)
    work = np.empty(max(lengths) + config.dim)
    epoch_loss = np.zeros(1)
    total = config.epochs * tokens_per_epoch
    alpha_span = config.alpha0 - config.alpha_min
    processed = 0
    pairs = 0
    epoch_losses = []
    for _ in range(config.epochs):
        epoch_loss[0] = 0.0
        epoch_pairs = 0
        for rows, offsets, targets in epoch_items():
            n_items = len(rows)
            # the kernel indexes raw memory with these, so check them first
            if (centers.shape[1] != config.dim or offsets.shape != (n_items + 1,)
                    or offsets[0] != 0 or offsets[-1] != len(targets)
                    or np.any(np.diff(offsets) < 0)
                    or np.any((rows < 0) | (rows >= len(centers)))
                    or np.any((targets < 0) | (targets >= len(lengths)))):
                raise ValueError("training items out of range")
            block_pairs = hs_train(
                centers, nodes, config.dim, rows, offsets, targets, n_items,
                path_off, path_nodes, path_signs,
                config.alpha0, config.alpha_min, alpha_span,
                processed, total, work, epoch_loss,
            )
            if block_pairs < 0:
                raise ValueError("non-finite score while training")
            processed += n_items
            epoch_pairs += block_pairs
        pairs += epoch_pairs
        epoch_losses.append(float(epoch_loss[0]) / max(1, epoch_pairs))
    return nodes, epoch_losses, pairs


# Skip-gram positions per kernel call: bounds the window arrays at a few
# hundred kilobytes whatever the corpus size, at a negligible call overhead.
_BLOCK_POSITIONS = 4096


def train_word2vec(token_lists, config: EmbeddingConfig) -> WordModel:
    """Train skip-gram token vectors with hierarchical softmax.

    For each in-vocabulary position a window radius is drawn uniformly from
    1..window and every context token inside it is predicted from the center
    token's vector. Token vectors start uniform in [-0.5/dim, 0.5/dim]
    (seeded).
    """
    token_lists = [list(t) for t in token_lists]
    if not token_lists:
        raise ValueError("empty corpus")
    vocab = build_vocabulary(token_lists, min_count=config.min_count)
    coding = build_huffman(vocab)
    rng = np.random.default_rng(config.seed)
    vectors = _init_matrix(rng, len(vocab), config.dim)
    flat, lengths = _index_docs(token_lists, vocab)
    doc_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    doc_end = doc_start + np.repeat(lengths, lengths)

    def windows():
        # the context of position p is flat[lo:p] + flat[p+1:hi], clipped to its document
        radii = rng.integers(1, config.window + 1, size=flat.size)
        for start in range(0, flat.size, _BLOCK_POSITIONS):
            block = slice(start, start + _BLOCK_POSITIONS)
            pos = np.arange(start, min(start + _BLOCK_POSITIONS, flat.size))
            lo = np.maximum(doc_start[block], pos - radii[block])
            hi = np.minimum(doc_end[block], pos + radii[block] + 1)
            counts = hi - lo - 1
            offsets = np.zeros(len(pos) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            context = np.repeat(lo - offsets[:-1], counts)
            context += np.arange(offsets[-1])
            context += context >= np.repeat(pos, counts)
            yield flat[block], offsets, flat[context]

    nodes, epoch_losses, pairs = _train_hs(vectors, coding, config, flat.size, windows)
    return WordModel(
        vocab=vocab,
        vectors=vectors,
        node_vectors=nodes,
        config=config,
        seed=config.seed,
        epoch_losses=epoch_losses,
        pairs_trained=pairs,
    )


def train_doc2vec(token_lists, config: EmbeddingConfig, ids=None) -> DocModel:
    """Train PV-DBOW document vectors.

    Skip-gram whose center row is the document's vector and whose context
    is every in-vocabulary token of that document, predicted through the
    shared Huffman tree; schedule and initialization match
    :func:`train_word2vec`.
    """
    token_lists = [list(t) for t in token_lists]
    if not token_lists:
        raise ValueError("empty corpus")
    if ids is None:
        ids = [str(i) for i in range(len(token_lists))]
    ids = [str(i) for i in ids]
    if len(ids) != len(token_lists):
        raise ValueError(f"{len(ids)} ids for {len(token_lists)} documents")

    vocab = build_vocabulary(token_lists, min_count=config.min_count)
    coding = build_huffman(vocab)
    rng = np.random.default_rng(config.seed)
    doc_vectors = _init_matrix(rng, len(token_lists), config.dim)
    flat, lengths = _index_docs(token_lists, vocab)
    # one item per token: its document's row and the token itself
    items = [(np.repeat(np.arange(len(token_lists), dtype=np.int64), lengths),
              np.arange(flat.size + 1, dtype=np.int64), flat)]

    _, epoch_losses, _ = _train_hs(doc_vectors, coding, config, flat.size, lambda: items)
    return DocModel(
        ids=ids,
        vectors=doc_vectors,
        config=config,
        seed=config.seed,
        epoch_losses=epoch_losses,
    )


def vector_of(model: WordModel, token: str) -> np.ndarray:
    """The token's trained vector; raises OutOfVocabularyError if absent."""
    idx = model.vocab.index.get(token)
    if idx is None:
        raise OutOfVocabularyError(f"token {token!r} is not in the vocabulary")
    return model.vectors[idx]
