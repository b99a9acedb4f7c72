"""Reference implementations and small readers the tests share.

``material_vector`` and ``similarity_point`` are the per-candidate scoring
path the bulk ``similarity_points`` replaced: one Composition at a time,
summing element vectors in declared order and calling
``cosine_similarity`` per anchor. They are the oracle for the bulk path,
which must stay within ``SCORE_BOUND`` of them. ``reference_pareto_front``
is the dict-grouped sweep the lexsort sweep replaced. ``hs_step`` is one
hierarchical-softmax SGD step in numpy, the reference for the compiled
trainer kernel, and ``code_path`` reads one token's path and code out of
the flat Huffman table that kernel reads. ``reference_build_huffman`` is
the heap-merged tree builder, the oracle for the two-queue merge in
``build_huffman``. ``reference_build_vocabulary`` counts tokens with a
Counter and orders them with two stable sorts, the one vocabulary oracle:
``EncodedCorpus.vocabulary`` must give its index and counts, and the
Huffman tests build their vocabularies with it. ``parse_composition`` and
``read_manifest`` read formula strings and run manifests, and
``cosine_similarity`` scores one pair of vectors; only the tests need them.
``reference_load_compositions`` is the candidate CSV reader that checks and
converts one row at a time, the oracle for the block reader in
``load_compositions``. ``reference_run_refinement`` is the refinement loop
that trains one iteration at a time on the calling thread, the oracle for
``run_refinement``, which trains them in pairs on two threads.
``blas_threads`` reads numpy's BLAS thread count, which ``run_refinement``
must leave as it found it. ``reference_greedy_fps`` is the farthest-point
loop that allocates each pick's distances afresh, the oracle for
``greedy_fps``'s preallocated buffers, which must give the same order and
distances bit for bit.
"""
import csv
import heapq
import itertools
import math
import re
from array import array
from collections import Counter
from operator import itemgetter

import numpy as np

from litscreen import kernel
from litscreen.corpus import CorpusError, Vocabulary, element_symbols
from litscreen.embedding import HuffmanCoding, train_doc2vec, train_word2vec, vector_of
from litscreen.materials import (
    PARSE_TOLERANCE,
    CandidateTable,
    Composition,
    CompositionError,
    PropertyAnchors,
    SimilarityPoint,
    centroid,
    similarity_points,
)
from litscreen.persistence import MANIFEST_FORMAT, PersistenceError, read_kv
from litscreen.refine import IterationRecord, RefinementError, RefinementResult
from litscreen.selection import (
    SelectionOrder,
    central_document,
    cumulative_batches,
    greedy_fps,
    pca_project,
)

# Largest |bulk - per-candidate| score difference the bulk path may show.
SCORE_BOUND = 1e-12


def cosine_similarity(a, b):
    """<a, b> / (|a| |b|); raises ValueError on zero-norm input."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = math.sqrt(float(a @ a))
    nb = math.sqrt(float(b @ b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return float(a @ b) / (na * nb)


def material_vector(model, comp):
    """Fraction-weighted sum of element vectors (unnormalized).

    Only elements with fraction > 0 need a vector; an absent one raises
    OutOfVocabularyError.
    """
    vec = None
    for el, f in zip(comp.elements, comp.fractions):
        if f == 0.0:
            continue
        row = vector_of(model, el)
        vec = f * row if vec is None else vec + f * row
    if vec is None:
        raise CompositionError(f"composition {comp.id!r} has no positive fraction")
    return vec


def similarity_point(model, comp, anchors=None):
    """Cosine similarity of the composition's material vector to each anchor."""
    if anchors is None:
        anchors = PropertyAnchors()
    vec = material_vector(model, comp)
    sims = [cosine_similarity(vec, vector_of(model, term)) for term in anchors.terms]
    return SimilarityPoint(s_dielectric=sims[0], s_conductivity=sims[1], composition=comp)


def reference_scores(model, candidates, anchors=None):
    """(N, 2) scores from the per-candidate path."""
    return np.array([similarity_point(model, c, anchors).coords() for c in candidates])


def reference_pareto_front(coords, obj):
    """The dict-grouped sort-and-sweep over x groups, one point at a time."""
    sx, sy = obj.signs()
    coords = [(sx * x, sy * y) for x, y in np.asarray(coords, dtype=np.float64).tolist()]
    by_x = {}
    for i, (x, _) in enumerate(coords):
        by_x.setdefault(x, []).append(i)
    front = []
    best_y = -float("inf")
    for x in sorted(by_x, reverse=True):
        group = by_x[x]
        group_best = max(coords[i][1] for i in group)
        if group_best > best_y:
            front.extend(i for i in group if coords[i][1] == group_best)
            best_y = group_best
    return sorted(front)


def read_selection(path):
    """(doc ids, maximin distances) of a saved selection CSV, seed row NaN."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["rank", "doc_id", "min_distance"]
    assert [int(r[0]) for r in rows[1:]] == list(range(len(rows) - 1))
    ids = [r[1] for r in rows[1:]]
    distances = [float("nan") if r[2] == "" else float(r[2]) for r in rows[1:]]
    return ids, distances


def code_path(coding, token):
    """Token ``token``'s (internal-node indices root first, +/-1 code) in ``coding``."""
    span = slice(coding.offsets[token], coding.offsets[token + 1])
    return coding.nodes[span], coding.signs[span]


def reference_build_vocabulary(token_lists, min_count=1):
    """The tokens of ``token_lists`` counted at least ``min_count`` times,
    indexed by descending count then token, from a Counter and two stable
    sorts; ``counts`` is in the order each token first appears."""
    if min_count < 1:
        raise ValueError(f"min_count must be positive, got {min_count}")
    counts = Counter(itertools.chain.from_iterable(token_lists))
    kept = {t: c for t, c in counts.items() if c >= min_count}
    if not kept:
        raise CorpusError(f"no token reaches min_count={min_count}; vocabulary is empty")
    # by token, then stably by descending count: the order of (-count, token)
    ordered = sorted(sorted(kept), key=kept.__getitem__, reverse=True)
    return Vocabulary(index={t: i for i, t in enumerate(ordered)}, counts=kept)


def reference_build_huffman(vocab):
    """``build_huffman`` with a heap: each merge pops the two nodes of least
    ``(count, node id)``, leaves numbered by vocabulary index and internal
    nodes V, V+1, ... in creation order; each leaf's path comes from walking
    its parent chain in Python."""
    V = len(vocab)
    counts = [0] * V
    for token, i in vocab.index.items():
        counts[i] = vocab.counts[token]

    # heap entries: (count, node_id); children[k] = (first_pop, second_pop)
    heap = [(counts[i], i) for i in range(V)]
    heapq.heapify(heap)
    children = []
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

    # a parent is created after its children, so depths fill root-down
    root = 2 * V - 2
    depth = [0] * (2 * V - 1)
    for node in range(root - 1, -1, -1):
        depth[node] = depth[parent[node]] + 1
    ends = list(itertools.accumulate(depth[:V]))
    nodes = [0] * ends[-1]
    signs = [0.0] * ends[-1]
    for leaf, end in enumerate(ends):
        # fill the leaf's slice leaf-up, so it reads root-first
        node = leaf
        while node != root:
            end -= 1
            nodes[end] = parent[node] - V
            signs[end] = branch[node]
            node = parent[node]
    return HuffmanCoding(offsets=np.array([0] + ends, dtype=np.int64),
                         nodes=np.array(nodes, dtype=np.int64),
                         signs=np.array(signs, dtype=np.float64))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -60.0), 60.0)))


def hs_step(center, node_rows, signs, alpha):
    """One SGD step of the hierarchical-softmax objective for one prediction.

    loss = -sum_i log sigmoid(signs[i] * <center, node_rows[i]>)

    Both gradients are evaluated at the incoming values; returns
    (pre-update loss, updated center, updated node rows).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    # ndarray methods and bare ufuncs rather than np.all/np.sum/np.clip/
    # np.outer: the same arithmetic with less per-call overhead, since the
    # tests call this once per training pair as the kernel's reference
    z = node_rows @ center
    if not np.isfinite(z).all():
        raise ValueError("non-finite input to hs_step")
    sz = signs * z
    loss = float(np.logaddexp(0.0, -sz).sum())
    g = signs * (1.0 - _sigmoid(sz))  # (L,)
    new_center = center + alpha * (g @ node_rows)
    new_rows = node_rows + alpha * (g[:, None] * center)
    return loss, new_center, new_rows


_PART_RE = re.compile(r"([A-Z][a-z]?)((?:\d+\.?\d*|\.\d+)?)")


def parse_composition(spec, elements, comp_id=""):
    """Parse strings like ``Ag0.2Pd0.8`` against a declared element set.

    An omitted fraction means 1.0 (``Pt`` == ``Pt1.0``). Elements declared
    but absent get fraction 0. Fraction sums within 1e-6 of 1 are
    renormalized; anything further off is an error.
    """
    elements = tuple(elements)
    declared = set(elements)
    found: dict[str, float] = {}
    pos = 0
    spec = spec.strip()
    while pos < len(spec):
        m = _PART_RE.match(spec, pos)
        if not m:
            raise CompositionError(f"cannot parse {spec!r} at position {pos}")
        symbol, number = m.group(1), m.group(2)
        if symbol not in declared:
            raise CompositionError(f"unknown element {symbol!r} in {spec!r}")
        if symbol in found:
            raise CompositionError(f"element {symbol!r} repeated in {spec!r}")
        found[symbol] = float(number) if number else 1.0
        pos = m.end()

    if not found:
        raise CompositionError(f"no element terms in {spec!r}")
    total = math.fsum(found.values())
    if abs(total - 1.0) > PARSE_TOLERANCE:
        raise CompositionError(f"fractions in {spec!r} sum to {total}, expected 1")
    fractions = tuple(found.get(el, 0.0) / total for el in elements)
    return Composition(elements=elements, fractions=fractions, id=comp_id or spec)


def read_manifest(path):
    """The ``key = value`` pairs of a run's manifest, format line included."""
    pairs = read_kv(path, "manifest")
    if pairs.get("format") != MANIFEST_FORMAT:
        raise PersistenceError(f"{path}: not a {MANIFEST_FORMAT} file")
    return pairs


def reference_load_compositions(path, elements=None):
    """``load_compositions`` one row at a time: each row is checked in full,
    in the order width, fractions, id, current_density, potential, before
    the next row is read, so the first fault met is the one reported."""
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise CompositionError(f"composition file not found: {path}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            return _reference_rows(reader, path, elements)
        except csv.Error as exc:
            raise CompositionError(f"{path} line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CompositionError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _reference_fraction_fault(where, elements, vals, total):
    for el, v in zip(elements, vals):
        if not math.isfinite(v):
            return CompositionError(f"{where}: non-finite fraction {v} for {el}")
        if v < 0:
            return CompositionError(f"{where}: negative fraction {v} for {el}")
    return CompositionError(f"{where}: fractions sum to {total}, expected 1")


def _reference_rows(reader, path, elements):
    header = next(reader, None)
    if header is None:
        raise CompositionError(f"composition file is empty: {path}")
    if elements is None:
        symbols = element_symbols()
        elements = tuple(c for c in header if c in symbols)
    else:
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise CompositionError(f"{path}: elements {list(elements)} repeat a symbol")
        missing = [el for el in elements if el not in header]
        if missing:
            raise CompositionError(f"{path}: missing element columns {missing}")
    if not elements:
        raise CompositionError(f"{path}: no element columns found in {header}")
    for name in elements + ("id", "current_density", "potential"):
        if header.count(name) > 1:
            raise CompositionError(f"{path}: column {name!r} repeats in the header")

    def column(name):
        return header.index(name) if name in header else None

    cols = [header.index(el) for el in elements]
    id_col, measured_col, potential_col = (
        column("id"), column("current_density"), column("potential"))
    width = len(header)

    def number(row, i, col, name):
        text = row[col].strip()
        if not text:
            return None
        try:
            value = float(text)
        except ValueError:
            raise CompositionError(f"{path} row {i}: {name} {text!r} is not a number") from None
        if not math.isfinite(value):
            raise CompositionError(f"{path} row {i}: non-finite {name} {value}")
        return value

    pick = itemgetter(*cols)
    ids = {}
    raw = array("d")
    totals = array("d")
    measured = {}
    potential = None
    i = 0
    for row in reader:
        if not row:
            continue
        i += 1
        if len(row) != width:
            raise CompositionError(f"{path} row {i}: {len(row)} fields, the header has {width}")
        comp_id = (row[id_col].strip() if id_col is not None else "") or str(i)
        cells = pick(row) if len(cols) > 1 else (row[cols[0]],)
        if "" in cells:
            cells = [c or "0" for c in cells]
        try:
            vals = list(map(float, cells))
        except ValueError as exc:
            raise CompositionError(f"{path} row {i}: bad fraction ({exc})") from None
        try:
            total = math.fsum(vals)
        except (OverflowError, ValueError):
            total = math.nan
        if not (abs(total - 1.0) <= PARSE_TOLERANCE and min(vals) >= 0.0):
            raise _reference_fraction_fault(f"{path} row {i}", elements, vals, total)
        if ids.setdefault(comp_id, i) != i:
            raise CompositionError(f"{path} row {i}: duplicate composition id {comp_id!r}")
        raw.extend(vals)
        totals.append(total)

        if measured_col is not None:
            value = number(row, i, measured_col, "current_density")
            if value is not None:
                measured[comp_id] = value
        if potential_col is not None:
            pot_val = number(row, i, potential_col, "potential")
            if pot_val is not None:
                if potential is not None and pot_val != potential:
                    raise CompositionError(
                        f"{path} row {i}: conflicting potentials {potential} and {pot_val}"
                    )
                potential = pot_val

    if not ids:
        raise CompositionError(f"{path}: no candidate rows")
    fractions = np.frombuffer(raw).reshape(len(ids), len(elements))
    fractions = fractions / np.frombuffer(totals)[:, None]
    return CandidateTable(elements, tuple(ids), fractions), measured, potential


def reference_run_refinement(docs, candidates, config):
    """``run_refinement`` training one iteration at a time, on the calling
    thread: each word model is trained only once the one before it is scored."""
    if len(docs) == 0:
        raise RefinementError("empty corpus")
    if not candidates:
        raise RefinementError("empty candidate list")

    token_lists = list(docs.corpus)

    required = set(config.anchors.terms) | set(candidates.present())

    doc_model = train_doc2vec(token_lists, config.embedding, ids=docs.ids)
    projection = pca_project(doc_model.vectors)
    start = central_document(projection.points)
    order = greedy_fps(projection.points, start, len(docs))

    n_docs = len(docs)
    max_iters = -(-n_docs // config.batch_size)  # ceil: the corpus is exhausted there
    if config.max_iterations is not None:
        max_iters = min(max_iters, config.max_iterations)

    records = []
    prev_centroid = None
    converged = False
    model = None
    for t in range(1, max_iters + 1):
        subset = sorted(cumulative_batches(order, t, config.batch_size))  # train in corpus order
        subset_tokens = [token_lists[i] for i in subset]
        model = train_word2vec(subset_tokens, config.embedding)

        missing = tuple(sorted(tok for tok in required if tok not in model.vocab))
        if missing:
            records.append(IterationRecord(iteration=t, documents_used=len(subset), missing=missing))
            continue

        c = centroid(similarity_points(model, candidates, config.anchors))
        displacement = None
        if prev_centroid is not None:
            displacement = float(np.linalg.norm(c - prev_centroid))
        records.append(
            IterationRecord(
                iteration=t,
                documents_used=len(subset),
                centroid=(float(c[0]), float(c[1])),
                displacement=displacement,
            )
        )
        prev_centroid = c
        if displacement is not None and displacement < config.threshold:
            converged = True
            break

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


def blas_threads():
    """numpy's OpenBLAS thread count, or None when its BLAS is not OpenBLAS."""
    threads = kernel._openblas_threads()
    return None if threads is None else threads[0]()


def _cosine_distances_to(points, norms, j):
    """Cosine distance from every point to point j; zero-norm rule applied."""
    if norms[j] == 0.0:
        return np.zeros(len(points))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (points[:, 0] * points[j, 0] + points[:, 1] * points[j, 1]) / (norms * norms[j])
    dist = 1.0 - cos
    dist[norms == 0.0] = 0.0
    return dist


def reference_greedy_fps(points, start, n):
    """``greedy_fps`` with a fresh distance array per pick and a fresh
    running minimum, under ``np.errstate`` for each division."""
    pts = np.asarray(points, dtype=np.float64)
    N = pts.shape[0]
    if not (0 <= start < N):
        raise ValueError(f"start index {start} out of range for {N} points")
    if not (1 <= n <= N):
        raise ValueError(f"cannot select {n} of {N} points")

    norms = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)

    indices = [start]
    distances = [float("nan")]
    mind = _cosine_distances_to(pts, norms, start)
    mind[start] = -np.inf
    for _ in range(1, n):
        nxt = int(np.argmax(mind))
        indices.append(nxt)
        distances.append(float(mind[nxt]))
        mind = np.minimum(mind, _cosine_distances_to(pts, norms, nxt))
        mind[nxt] = -np.inf
    return SelectionOrder(indices=indices, distances=distances)
