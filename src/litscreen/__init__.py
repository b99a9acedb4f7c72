"""Literature-driven screening of material composition spaces.

Trains word and document embeddings on abstract corpora, grows a compact
training subset by farthest-point sampling, tracks convergence of the
composition similarity centroid, and screens candidate compositions with
Pareto fronts over property-similarity axes.
"""

from .corpus import (
    CorpusError,
    CorpusRows,
    DocumentSet,
    Vocabulary,
    load_corpus,
    preprocess,
    preprocess_set,
)
from .embedding import (
    DocModel,
    EmbeddingConfig,
    OutOfVocabularyError,
    WordModel,
    train_doc2vec,
    train_word2vec,
    vector_of,
)
from .materials import (
    CandidateTable,
    CompositionError,
    PropertyAnchors,
    SimilarityPoint,
    centroid,
    enumerate_simplex,
    load_compositions,
    similarity_points,
)
from .refine import (
    IterationRecord,
    RefineConfig,
    RefinementError,
    RefinementResult,
    run_refinement,
)
from .screen import Objectives, dominates, format_summary, pareto_front
from .selection import (
    SelectionOrder,
    central_document,
    cumulative_batches,
    greedy_fps,
    pca_project,
)

__version__ = "0.1.0"
