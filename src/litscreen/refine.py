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

One loop over t decides, trains, scores and records each iteration. An
iteration whose batch holds some required token fewer than ``min_count``
times is recorded without a model and never trained. Given the selection
order, the batch depends only on t and ``batch_size``, and its counts only
grow with t; so from the first complete t on, every iteration is complete
and is not checked again, and a run the whole corpus leaves incomplete is
refused before any training. Iteration t's model depends only on t and
the seed, so from there iterations train in pairs: a one-worker executor
trains t+1 while the calling thread trains t (ctypes releases the GIL
while the kernel runs), and t+1 is committed only if t neither converged
nor was the last. A model trained for a t+1 that is not committed, and
any error its training raised, is dropped, so records, artifacts and
errors are those of a run that trains one iteration at a time. The
executor's worker is joined before the call returns or raises; the
committed model is dropped as a pair starts, so memory holds at most two
word models.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .corpus import DocumentSet, EncodedCorpus
from .embedding import EmbeddingConfig, WordModel, train_doc2vec, train_word2vec
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
    """The loop could not define a centroid; ``missing`` holds the tokens that refused it."""

    def __init__(self, message: str, missing: tuple[str, ...] = ()):
        super().__init__(message)
        self.missing = missing


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


def selection_order(vectors: np.ndarray) -> SelectionOrder:
    """The rows of ``vectors`` in greedy farthest-point order over their 2D
    PCA projection from the central row. The PCA and the order run in the
    kernel library and call no BLAS, so the order and its distances have
    the same bits on any CPU, whatever BLAS numpy loaded and however many
    threads it runs."""
    projection = pca_project(vectors)
    start = central_document(projection.points)
    return greedy_fps(projection.points, start, len(vectors))


def _missing(tokens: EncodedCorpus, required: set[str], min_count: int) -> tuple[str, ...]:
    """The required tokens that ``tokens`` holds fewer than ``min_count`` times, sorted."""
    kept = compress(tokens.types, (tokens.counts >= min_count).tolist())
    return tuple(sorted(required.difference(kept)))


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
    exhausts the corpus, without converging returns converged=False; one
    that reaches max_iterations with no centroid defined is a RefinementError
    naming the documents used.

    An iteration whose batch holds some required token fewer than
    ``min_count`` times is recorded without a model and never trained; a
    token that the whole corpus holds that rarely is a RefinementError
    before any training, naming it as an anchor term or candidate element.
    """
    from concurrent.futures import ThreadPoolExecutor  # importing it costs every command

    if not candidates:
        raise RefinementError("empty candidate list")

    required = set(config.anchors.terms) | set(candidates.present())
    never = _missing(docs.corpus, required, config.embedding.min_count)
    if never:  # counts only grow with t, so no iteration could be complete
        named = ", ".join(f"anchor term {token!r}" if token in config.anchors.terms
                          else f"candidate element {token!r}" for token in never)
        raise RefinementError(
            f"the corpus holds {named} fewer than min_count="
            f"{config.embedding.min_count} times, so no iteration can be complete", never)

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
    ahead = None  # the future of iteration t+1 in training, while t is committed
    # leaving the block waits for a t+1 dropped by t's stop or error, and drops its error
    with ThreadPoolExecutor(1, thread_name_prefix="litscreen-lookahead") as pool:
        for t in range(1, max_iters + 1):
            used = min(config.batch_size * t, n_docs)
            record = IterationRecord(iteration=t, documents_used=used)
            if ahead is not None:
                model, ahead = ahead.result(), None
            else:
                tokens = batch(t)
                if prev_centroid is None:  # no complete t yet; counts only grow
                    record.missing = _missing(tokens, required, config.embedding.min_count)
                if not record.missing:
                    model = None  # so memory holds only the pair in training
                    if t < max_iters:
                        ahead = pool.submit(train_word2vec, batch(t + 1), config.embedding)
                    model = train_word2vec(tokens, config.embedding)
            if not record.missing:
                c = centroid(similarity_points(model, candidates, config.anchors))
                record.centroid = (float(c[0]), float(c[1]))
                if prev_centroid is not None:
                    dx, dy = c - prev_centroid
                    record.displacement = math.sqrt(dx * dx + dy * dy)
                prev_centroid = c
            records.append(record)
            if record.displacement is not None and record.displacement < config.threshold:
                converged = True
                break

    if prev_centroid is None:  # the whole corpus is complete, so the limit cut the run
        last = records[-1]
        raise RefinementError(
            f"max_iterations {max_iters} reached with {last.documents_used} of {n_docs} "
            "documents used before any centroid was definable; "
            f"required tokens never all present (last missing: {last.missing})")
    return RefinementResult(
        records=records,
        converged=converged,
        final_model=model,
        selection_order=order,
    )
