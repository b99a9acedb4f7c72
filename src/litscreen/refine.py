"""The iterative corpus-refinement loop.

Document vectors trained on the full corpus are projected to 2D and
ordered by greedy farthest-point sampling from the central document.
Each iteration retrains a fresh word model on one more batch of selected
documents and tracks the Euclidean displacement of the candidate-set
centroid in similarity space; growth stops once the displacement drops
below the threshold. A run keeps one record per iteration, the selection
order and the last word model, which ``litscreen refine`` saves as
``iterations.csv``, ``selection.csv`` and ``model.vec``/``model.meta``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import DocumentSet
from .embedding import EmbeddingConfig, WordModel, train_doc2vec, train_word2vec
from .materials import CandidateTable, PropertyAnchors, centroid, similarity_points
from .selection import SelectionOrder, central_document, cumulative_batches, greedy_fps, pca_project

__all__ = [
    "RefineConfig",
    "IterationRecord",
    "RefinementResult",
    "RefinementError",
    "run_refinement",
]


class RefinementError(RuntimeError):
    """The refinement loop could not produce a defined centroid."""


@dataclass(frozen=True)
class RefineConfig:
    """Loop parameters; ``seed`` overrides the embedding config's seed so the
    document model and every per-iteration word model share one seed."""

    batch_size: int = 50
    threshold: float = 0.03
    max_iterations: int | None = None  # None: run until the corpus is exhausted
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    anchors: PropertyAnchors = field(default_factory=PropertyAnchors)
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.threshold > 0) or not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")


@dataclass
class IterationRecord:
    iteration: int
    documents_used: int
    vocab_complete: bool
    centroid: tuple[float, float] | None = None
    displacement: float | None = None
    missing: tuple[str, ...] = ()


@dataclass
class RefinementResult:
    records: list[IterationRecord]
    converged: bool
    final_model: WordModel
    selection_order: SelectionOrder


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
    nothing to compare against. A loop that exhausts max_iterations without
    converging returns converged=False; never defining a centroid at all is
    an error.
    """
    if len(docs) == 0:
        raise RefinementError("empty corpus")
    if not candidates:
        raise RefinementError("empty candidate list")

    token_lists = docs.token_lists()
    emb_cfg = replace(config.embedding, seed=config.seed)

    required = set(config.anchors.terms) | set(candidates.present())

    doc_model = train_doc2vec(token_lists, emb_cfg, ids=docs.ids())
    projection = pca_project(doc_model.vectors, 2)
    start = central_document(projection.points)
    order = greedy_fps(projection.points, start, len(docs))

    n_docs = len(docs)
    max_iters = config.max_iterations
    if max_iters is None:
        max_iters = -(-n_docs // config.batch_size)  # ceil

    records: list[IterationRecord] = []
    prev_centroid: np.ndarray | None = None
    converged = False
    model: WordModel | None = None
    for t in range(1, max_iters + 1):
        subset = sorted(cumulative_batches(order, t, config.batch_size))  # train in corpus order
        subset_tokens = [token_lists[i] for i in subset]
        model = train_word2vec(subset_tokens, emb_cfg)

        missing = tuple(sorted(tok for tok in required if tok not in model.vocab))
        if missing:
            records.append(
                IterationRecord(
                    iteration=t,
                    documents_used=len(subset),
                    vocab_complete=False,
                    missing=missing,
                )
            )
            continue

        c = centroid(similarity_points(model, candidates, config.anchors))
        displacement = None
        if prev_centroid is not None:
            displacement = float(np.linalg.norm(c - prev_centroid))
        records.append(
            IterationRecord(
                iteration=t,
                documents_used=len(subset),
                vocab_complete=True,
                centroid=(float(c[0]), float(c[1])),
                displacement=displacement,
            )
        )
        prev_centroid = c
        if displacement is not None and displacement < config.threshold:
            converged = True
            break

    if prev_centroid is None:
        raise RefinementError(
            "corpus exhausted before any centroid was definable; "
            f"required tokens never all present (last missing: {records[-1].missing})"
        )
    assert model is not None
    return RefinementResult(
        records=records,
        converged=converged,
        final_model=model,
        selection_order=order,
    )
