"""The iterative corpus-refinement loop.

Document vectors trained on the full corpus are projected to 2D and
ordered by greedy farthest-point sampling from the central document, in
:func:`selection_order`, which ``litscreen select`` runs too. Each
iteration retrains a fresh word model on one more batch of selected
documents and tracks the Euclidean displacement of the candidate-set
centroid in similarity space; growth stops once the displacement drops
below the threshold. A run keeps one record per iteration, the selection
order and the last word model, which ``litscreen refine`` saves as
``iterations.csv``, ``selection.csv`` and the model files that
:func:`litscreen.persistence.save_model` names.

The loop trains on the corpus as the preprocessed set holds it, encoded
as integer type ids (``DocumentSet.corpus``, an
:class:`litscreen.corpus.EncodedCorpus`); each iteration's documents are
a gather from it, and their type counts, taken once, serve both the
completeness check and the training of that batch.

One loop over t decides, trains, scores and records each iteration.
Given the selection order, iteration t's vocabulary depends only on t,
``batch_size`` and ``min_count``, and it only grows with t. So until the
first t whose vocabulary holds every required token, the loop builds that
vocabulary alone and records t as incomplete without training a model;
from that t on, every vocabulary is complete and is not checked again.
Iteration t's model depends only on t and the seed, so from there
iterations train in pairs on two threads: a second thread trains t+1
while the calling thread trains t (ctypes releases the GIL while the
kernel runs), and t+1 is committed only if t neither converged nor was
the last. A model trained for a t+1 that is not committed, and any error
its training raised, is dropped, so records, artifacts and errors are
those of a run that trains one iteration at a time. No thread outlives
the call; the committed model is dropped as a pair starts, so memory
holds at most two word models.

BLAS runs on one thread for the whole call
(:func:`litscreen.kernel.one_blas_thread`): the OpenBLAS workers that the
PCA's SVD would wake spin on after it returns and take a core from the
two training threads. On one thread the SVD is no slower at 5,000
documents. It also makes the PCA, and so the selection, the same at any
BLAS thread count: on more than one thread OpenBLAS's SVD changes its last
bits from a few hundred documents at dim 200, or about 15,000 at dim 48.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .corpus import DocumentSet
from .embedding import EmbeddingConfig, WordModel, build_huffman, train_doc2vec, train_word2vec
from .materials import CandidateTable, PropertyAnchors, centroid, similarity_points
from .selection import SelectionOrder, central_document, cumulative_batches, greedy_fps, pca_project

__all__ = [
    "RefineConfig",
    "IterationRecord",
    "RefinementResult",
    "RefinementError",
    "selection_order",
    "run_refinement",
]


class RefinementError(RuntimeError):
    """The refinement loop could not produce a defined centroid."""


@dataclass(frozen=True)
class RefineConfig:
    """Loop parameters. The document model and every per-iteration word
    model train with ``embedding``, its seed included."""

    batch_size: int = 50
    threshold: float = 0.03
    # at most this many iterations; the loop stops sooner, at
    # ceil(N / batch_size), once the corpus is exhausted (None: only there)
    max_iterations: int | None = None
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    anchors: PropertyAnchors = field(default_factory=PropertyAnchors)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.threshold > 0) or not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class IterationRecord:
    iteration: int
    documents_used: int
    centroid: tuple[float, float] | None = None
    displacement: float | None = None
    missing: tuple[str, ...] = ()

    @property
    def vocab_complete(self) -> bool:
        """True when the iteration's vocabulary missed no required token."""
        return not self.missing


@dataclass
class RefinementResult:
    records: list[IterationRecord]
    converged: bool
    final_model: WordModel
    selection_order: SelectionOrder


class _Lookahead(threading.Thread):
    """One iteration's word model, trained on a second thread; ``result()``
    joins it and returns the model or raises what training raised."""

    def __init__(self, token_lists, config: EmbeddingConfig):
        super().__init__(name="litscreen-lookahead")
        self._args = (token_lists, config)
        self._model = self._error = None

    def run(self):
        try:
            self._model = train_word2vec(*self._args)
        except BaseException as exc:  # raised again on the calling thread, if committed
            self._error = exc

    def result(self) -> WordModel:
        self.join()
        if self._error is not None:
            raise self._error
        return self._model


def selection_order(vectors: np.ndarray) -> SelectionOrder:
    """The rows of ``vectors`` in greedy farthest-point order over their 2D
    PCA projection from the central row, computed with BLAS on one thread."""
    with kernel.one_blas_thread():
        projection = pca_project(vectors)
        start = central_document(projection.points)
        return greedy_fps(projection.points, start, len(vectors))


def run_refinement(
    docs: DocumentSet,
    candidates: CandidateTable,
    config: RefineConfig,
) -> RefinementResult:
    """Run the full loop over a preprocessed corpus and candidate set.

    Each iteration scores the whole candidate table at once and takes the
    column mean of the scores as its centroid.

    Iterations whose vocabulary misses an anchor term, or an element with a
    positive fraction in some candidate, are recorded without a centroid
    and can never trigger convergence; displacements compare against the
    most recent defined centroid. The first defined centroid has
    nothing to compare against. A loop that reaches max_iterations, or
    exhausts the corpus, without converging returns converged=False; never
    defining a centroid at all is a RefinementError that names which of the
    two ended the loop, and the documents used.

    Each pass of the one loop over t records iteration t. Until the first
    complete t it builds only t's vocabulary, so the leading incomplete
    iterations train no model; a vocabulary error that training iteration 1
    would raise is still raised. The one difference from training every
    iteration: a non-finite score that only such an untrained iteration's
    training would have met raises no ValueError.
    """
    if len(docs) == 0:
        raise RefinementError("empty corpus")
    if not candidates:
        raise RefinementError("empty candidate list")

    with kernel.one_blas_thread():
        required = set(config.anchors.terms) | set(candidates.present())

        doc_model = train_doc2vec(docs.corpus, config.embedding, ids=docs.ids)
        order = selection_order(doc_model.vectors)

        n_docs = len(docs)
        max_iters = -(-n_docs // config.batch_size)  # ceil: the corpus is exhausted there
        if config.max_iterations is not None:
            max_iters = min(max_iters, config.max_iterations)

        def batch(t):
            # train in corpus order
            return docs.corpus.take(sorted(cumulative_batches(order, t, config.batch_size)))

        records: list[IterationRecord] = []
        prev_centroid: np.ndarray | None = None
        converged = False
        model: WordModel | None = None  # the committed model, dropped when a pair starts
        ahead: _Lookahead | None = None  # iteration t+1 in training, while t is committed
        try:
            for t in range(1, max_iters + 1):
                used = min(config.batch_size * t, n_docs)
                record = IterationRecord(iteration=t, documents_used=used)
                if ahead is not None:
                    model, ahead = ahead.result(), None
                else:
                    tokens = batch(t)
                    if prev_centroid is None:  # no complete t yet; vocabularies only grow
                        vocab, _ = tokens.vocabulary(config.embedding.min_count)
                        record.missing = tuple(sorted(required - vocab.index.keys()))
                        if record.missing and t == 1:  # raise what training it would
                            build_huffman(vocab)
                    if not record.missing:
                        model = None  # so memory holds only the pair in training
                        if t < max_iters:
                            ahead = _Lookahead(batch(t + 1), config.embedding)
                            ahead.start()
                        model = train_word2vec(tokens, config.embedding)
                if not record.missing:
                    c = centroid(similarity_points(model, candidates, config.anchors))
                    record.centroid = (float(c[0]), float(c[1]))
                    if prev_centroid is not None:
                        record.displacement = float(np.linalg.norm(c - prev_centroid))
                    prev_centroid = c
                records.append(record)
                if record.displacement is not None and record.displacement < config.threshold:
                    converged = True
                    break
        finally:
            if ahead is not None:  # t converged or raised: drop t+1, and its error with it
                ahead.join()

    if prev_centroid is None:
        last = records[-1]
        cause = "corpus exhausted"
        if last.documents_used < n_docs:
            cause = (f"max_iterations {max_iters} reached with {last.documents_used} "
                     f"of {n_docs} documents used")
        raise RefinementError(
            f"{cause} before any centroid was definable; "
            f"required tokens never all present (last missing: {last.missing})"
        )
    return RefinementResult(
        records=records,
        converged=converged,
        final_model=model,
        selection_order=order,
    )
