"""End-to-end acceptance checks for the screening pipeline.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s or in the
captured output section); the assert carries the same verdict.
"""
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from litscreen.cli import main
from litscreen.corpus import Vocabulary, load_corpus, preprocess_set
from litscreen.embedding import EmbeddingConfig, WordModel
from litscreen.kernel import library
from helpers import reference_pareto_front

from litscreen.materials import centroid, similarity_points
from litscreen.persistence import file_digest, save_model
from litscreen.refine import RefineConfig, run_refinement
from litscreen.screen import Objectives, pareto_front
from litscreen.selection import SelectionOrder, cumulative_batches, greedy_fps, pca_project
from litscreen.synth import SynthSpec, synthetic_candidates, synthetic_corpus, write_corpus_csv

def verdict(n, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def kernel_step(center, nodes, signs, alpha):
    """One item with one target through the compiled ``hs_train``: the
    target's path is every row of ``nodes``. Returns (pre-update loss,
    updated center, updated node rows)."""
    dim, n = len(center), len(signs)
    centers = center.reshape(1, dim).copy()
    rows = nodes.copy()
    loss = np.zeros(1)
    zero, one = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    # item 0 predicts target range [0, 1); processed 0 of total 1: the
    # learning rate is alpha0 = alpha exactly
    pairs = library().hs_train(
        centers, rows, dim, zero, zero, one, zero, 1, 0,
        np.array([0, n], dtype=np.int64), np.arange(n, dtype=np.int64),
        np.asarray(signs, dtype=np.float64), alpha, alpha / 2, 0, 1,
        np.empty(n + dim), loss)
    assert pairs == 1
    return loss[0], centers[0], rows


def hs_objective(center, nodes, signs):
    """-sum log sigmoid(sign * <center, node>) over a path's nodes."""
    return float(np.logaddexp(0.0, -signs * (nodes @ center)).sum())


def test_criterion_1_hs_step_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    h = 1e-4
    dim = 8
    alpha = 1.0  # grad = old - new at unit step, no scale loss
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(1, 6))
        center = rng.normal(scale=0.8, size=dim)
        nodes = rng.normal(scale=0.8, size=(L, dim))
        signs = rng.choice([-1.0, 1.0], size=L)

        loss, new_center, new_rows = kernel_step(center, nodes, signs, alpha)
        assert loss == pytest.approx(hs_objective(center, nodes, signs), rel=1e-12)
        grad_center = (center - new_center) / alpha
        grad_nodes = (nodes - new_rows) / alpha

        def loss_at(c, nd):
            return hs_objective(c, nd, signs)

        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            fd = (loss_at(center + e, nodes) - loss_at(center - e, nodes)) / (2 * h)
            rel = abs(grad_center[k] - fd) / max(abs(fd), 1e-8)
            worst = max(worst, min(rel, abs(grad_center[k] - fd)))
            assert abs(grad_center[k] - fd) <= 1e-4 * max(1.0, abs(fd))
        for r in range(L):
            for k in range(dim):
                bump = np.zeros_like(nodes)
                bump[r, k] = h
                fd = (loss_at(center, nodes + bump) - loss_at(center, nodes - bump)) / (2 * h)
                assert abs(grad_nodes[r, k] - fd) <= 1e-4 * max(1.0, abs(fd))
    elapsed = time.perf_counter() - t0
    verdict(1, elapsed < 1.0,
            f"100 random kernel gradients within 1e-4 of central differences "
            f"(worst {worst:.2e}, {elapsed * 1000:.0f} ms)")


def pareto_oracle(points, obj):
    sx = 1.0 if obj.s_dielectric == "max" else -1.0
    sy = 1.0 if obj.s_conductivity == "max" else -1.0
    X = np.asarray(points) * [sx, sy]
    ge = (X[:, None, 0] >= X[None, :, 0]) & (X[:, None, 1] >= X[None, :, 1])
    gt = (X[:, None, 0] > X[None, :, 0]) | (X[:, None, 1] > X[None, :, 1])
    dominated = (ge & gt).any(axis=0)
    return [i for i in range(len(points)) if not dominated[i]]


def test_criterion_2_pareto_front_matches_quadratic_oracle():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    coords = rng.uniform(-1, 1, size=(1000, 2))
    # quantize half the points so exact ties and duplicates are common
    coords[500:] = np.round(coords[500:] * 8) / 8
    combos = [("min", "min"), ("min", "max"), ("max", "min"), ("max", "max")]
    for dx, dy in combos:
        obj = Objectives(s_dielectric=dx, s_conductivity=dy)
        front = pareto_front(coords, obj)
        assert front == pareto_oracle(coords, obj), (dx, dy)
        assert front == reference_pareto_front(coords, obj), (dx, dy)
    elapsed = time.perf_counter() - t0
    verdict(2, elapsed < 1.0,
            f"1000-point front equals O(n^2) oracle under all 4 objective "
            f"direction pairs with duplicates ({elapsed * 1000:.0f} ms)")


def fps_oracle(pts, start, n):
    pts = np.asarray(pts, dtype=np.float64)
    norms = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    # full pairwise matrix from the same elementwise expression
    num = pts[:, 0][:, None] * pts[:, 0][None, :] + pts[:, 1][:, None] * pts[:, 1][None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        D = 1.0 - num / (norms[:, None] * norms[None, :])
    D[norms == 0.0, :] = 0.0
    D[:, norms == 0.0] = 0.0

    selected = [start]
    dists = [float("nan")]
    remaining = [i for i in range(len(pts)) if i != start]
    while len(selected) < n:
        best_i, best_d = -1, -math.inf
        for i in remaining:
            d = D[i, selected].min()
            if d > best_d:
                best_i, best_d = i, d
        selected.append(best_i)
        dists.append(best_d)
        remaining.remove(best_i)
    return selected, dists


def test_criterion_3_greedy_selection_matches_maximin_oracle():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    base = rng.normal(size=(40, 2))
    scaled = base[:30] * 3.0       # same angles, different radii: distance ties
    dupes = base[:40].copy()       # exact duplicates
    rest = rng.normal(size=(89, 2))
    zero = np.zeros((1, 2))
    pts = np.vstack([base, scaled, dupes, rest, zero])
    assert pts.shape == (200, 2)

    order = greedy_fps(pts, start=0, n=200)
    want_idx, want_d = fps_oracle(pts, 0, 200)
    idx_ok = order.indices == want_idx
    d_ok = all(
        (math.isnan(a) and math.isnan(b)) or a == b
        for a, b in zip(order.distances, want_d)
    )
    elapsed = time.perf_counter() - t0
    verdict(3, idx_ok and d_ok and elapsed < 1.0,
            f"200-point greedy ordering equals exhaustive maximin oracle "
            f"under duplicate/collinear ties ({elapsed * 1000:.0f} ms)")


def test_criterion_4_pca_matches_dense_eigendecomposition():
    rng = np.random.default_rng(104)
    ok = True
    for n, d in [(60, 10), (200, 40), (25, 3)]:
        X = rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) + rng.normal(size=d)
        proj = pca_project(X)

        centered = X - X.mean(axis=0)
        w, v = np.linalg.eigh(centered.T @ centered / (n - 1))
        top = np.argsort(w)[::-1][:2]
        ok &= bool(np.allclose(proj.explained_variance, w[top], atol=1e-8))
        for row, eig in zip(proj.components, v[:, top].T):
            ok &= abs(abs(row @ eig) - 1.0) < 1e-8
        ok &= bool(np.all(np.abs(proj.points.mean(axis=0)) < 1e-10))
        for row in proj.components:
            ok &= row[np.argmax(np.abs(row))] > 0
        again = pca_project(X)
        ok &= bool(np.array_equal(proj.components, again.components))
    verdict(4, ok,
            "top-2 variances match dense eigendecomposition (1e-8), projections "
            "zero-mean (1e-10), component signs deterministic")


def test_criterion_5_centroid_mean_and_cumulative_document_counts():
    rng = np.random.default_rng(105)
    ok = True

    # two-point reference: exact on x; on y the true mean of the doubles 0.2
    # and 0.4 is the precise midpoint between consecutive doubles, so the
    # correctly rounded result sits one ulp above the decimal literal 0.3
    two = centroid(np.array([[0.1, 0.2], [0.3, 0.4]]))
    ok &= two[0] == 0.2
    ok &= two[1] == float((Fraction(0.2) + Fraction(0.4)) / 2)
    ok &= abs(two[1] - 0.3) <= math.ulp(0.3)

    for _ in range(20):
        k = int(rng.integers(1, 40))
        coords = rng.uniform(-1, 1, size=(k, 2))
        c = centroid(coords)
        fsum_mean = (math.fsum(coords[:, 0]) / k, math.fsum(coords[:, 1]) / k)
        ok &= abs(c[0] - fsum_mean[0]) < 1e-12 and abs(c[1] - fsum_mean[1]) < 1e-12

    # iteration -> cumulative documents at batch size 50, large corpus
    n = 1500
    order = SelectionOrder(indices=list(range(n)), distances=[float("nan")] * n)
    expected = {8: 400, 18: 900, 16: 800, 15: 750, 24: 1200, 14: 700}
    for t, count in expected.items():
        ok &= len(cumulative_batches(order, t, 50)) == count == min(50 * t, n)
    # and the corpus-size cap
    small = SelectionOrder(indices=list(range(1180)), distances=[float("nan")] * 1180)
    ok &= len(cumulative_batches(small, 24, 50)) == 1180
    verdict(5, ok,
            "centroid equals the correctly rounded componentwise mean (one ulp "
            "from the decimal literal on the reference pair) and matches the "
            "compensated-sum mean within 1e-12; documents at iteration t equal "
            "min(50t, N) across the published counts")


# sha256 of run_a's artifacts in criterion 6, made under Python 3.11.7,
# numpy 2.4.6 and gcc 12.2 (which builds the kernel library). A change that
# moves one re-pins it here and says why in CHANGES.md; the check is never
# relaxed to a tolerance. selection.csv was re-pinned when the PCA moved from
# LAPACK's SVD into the kernel library: its min_distance bits follow the
# projected points, while its order, and so iterations.csv, held.
GOLDEN_REFINE_DIGESTS = {
    "iterations.csv": "afa8b0e165b589702f0da7ec5e492c15033fe11894baed8c5b8f7648fbbb66ec",
    "selection.csv": "677ef662e03fdbade7e5042d164a70e51b08a0700d3919807e10e385c6fbb20b",
    "model.npy": "371e28ee88f5f5a18914bed34501a6a44afac504b7654222a7d46b20af0747bb",
    "model.labels": "8d578e2136813e16e00a4735640d44e5260b249acac74ab6e2ae8ffbaa278d87",
    "model.meta": "622b045676faa4a1ebb11d7f94547f354972a0dd35fa2f92f8cc15dc9eedb37e",
    "manifest.txt": "14702401f4e72413ded566318ec047b2889516322ac8e28328574071a65ddc13",
}


def test_criterion_6_refine_runs_are_byte_identical(tmp_path, capsys):
    data = str(tmp_path / "data")
    conf = str(tmp_path / "run.conf")
    with open(conf, "w") as f:
        f.write("dim = 24\nepochs = 2\nwindow = 4\n")
    assert main(["synth", "--out", data, "--n-docs", "160", "--rare-docs", "4",
                 "--seed", "9"]) == 0
    args = ["refine",
            "--corpus", os.path.join(data, "corpus.csv"),
            "--candidates", os.path.join(data, "candidates.csv"),
            "--config", conf, "--batch-size", "40", "--seed", "5",
            "--threshold", "0.03"]
    assert main(args + ["--out", str(tmp_path / "run_a")]) == 0
    assert main(args + ["--out", str(tmp_path / "run_b")]) == 0
    capsys.readouterr()

    names = ["iterations.csv", "selection.csv",
             "model.npy", "model.labels", "model.meta", "manifest.txt"]
    diffs = []
    for name in names:
        with open(tmp_path / "run_a" / name, "rb") as f:
            a = f.read()
        with open(tmp_path / "run_b" / name, "rb") as f:
            b = f.read()
        if a != b:
            diffs.append(name)
    moved = [name for name in names
             if file_digest(str(tmp_path / "run_a" / name)) != GOLDEN_REFINE_DIGESTS[name]]
    verdict(6, not diffs and not moved,
            f"two identically configured refine runs wrote byte-identical "
            f"artifacts matching the golden digests ({', '.join(names)})"
            if not diffs and not moved
            else f"artifacts differ: {diffs}; digests moved: {moved}")


def test_criterion_7_synthetic_corpus_end_to_end(tmp_path):
    t0 = time.perf_counter()
    corpus_path = str(tmp_path / "corpus.csv")
    write_corpus_csv(synthetic_corpus(SynthSpec(n_docs=500, rare_docs=8, seed=11)),
                     corpus_path)
    docs = preprocess_set(load_corpus(corpus_path, id_column="id"))
    candidates = synthetic_candidates()

    config = RefineConfig(
        batch_size=50,
        threshold=0.03,
        embedding=EmbeddingConfig(dim=48, window=5, epochs=3, seed=0),
    )
    result = run_refinement(docs, candidates, config)

    converged_in = len(result.records)
    early_gap = not result.records[0].vocab_complete

    points = similarity_points(result.final_model, candidates, config.anchors)
    front = set(pareto_front(points, Objectives.preset("orr")))

    def conductor_fraction(comp):
        return comp.fraction("Ag") + comp.fraction("Pt")

    on = [conductor_fraction(candidates[i]) for i in front]
    off = [conductor_fraction(candidates[i]) for i in range(len(candidates))
           if i not in front]
    enriched = np.mean(on) > np.mean(off)

    elapsed = time.perf_counter() - t0
    ok = (result.converged and converged_in <= 10 and early_gap and enriched
          and elapsed < 120.0)
    verdict(7, ok,
            f"500-doc planted corpus converged in {converged_in} iterations "
            f"(first iteration missing rare element: {early_gap}), preferred-side "
            f"front mean {np.mean(on):.2f} > other {np.mean(off):.2f}, "
            f"{elapsed:.0f}s")


def test_criterion_8_report_prints_selection_maximum(tmp_path, capsys):
    def unit(x, y):
        return [x, y, float(np.sqrt(1.0 - x * x - y * y))]

    vecs = {
        "dielectric": [1.0, 0.0, 0.0],
        "conductivity": [0.0, 1.0, 0.0],
        "Ni": unit(0.1, 0.5),
        "Pd": unit(0.3, 0.6),
        "Pt": unit(0.6, 0.7),
        "Ru": unit(0.5, 0.4),   # dominated by Pd under min-x / max-y
    }
    names = list(vecs)
    model = WordModel(
        vocab=Vocabulary(index={t: i for i, t in enumerate(names)}, counts=None),
        vectors=np.array([vecs[t] for t in names]),
        node_vectors=np.zeros((len(names) - 1, 3)),
        config=EmbeddingConfig(dim=3),
        seed=0,
    )
    base = str(tmp_path / "model")
    save_model(model, base)

    cands = str(tmp_path / "cands.csv")
    with open(cands, "w") as f:
        f.write("id,Ni,Pd,Pt,Ru,current_density,potential\n"
                "Ni1,1,0,0,0,0.82,850\n"
                "Pd1,0,1,0,0,6.9,850\n"
                "Pt1,0,0,1,0,3.0,850\n"
                "Ru1,0,0,0,1,6.44,850\n")

    code = main(["report", "--candidates", cands, "--model", base,
                 "--full-model", base, "--preset", "orr"])
    out = capsys.readouterr().out
    ok = code == 0 and "Max (Selection): 6.90" in out.splitlines()
    verdict(8, ok, 'report renders measured extremes, "Max (Selection): 6.90"')
