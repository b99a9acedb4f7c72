import ctypes
import dataclasses
import functools
import math
import os
import subprocess

import mpmath
import numpy as np
import pytest
from helpers import reference_greedy_fps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from litscreen import kernel, selection
from litscreen.corpus import CorpusRows, preprocess_set
from litscreen.embedding import EmbeddingConfig, train_doc2vec
from litscreen.selection import Projection, central_document, greedy_fps, pca_project
from litscreen.synth import SynthSpec, synthetic_corpus


# besides the usual two sets, the ones that catch a silent narrowing, a
# float promoted to double, a shadowed name and a cast that drops const
WARNINGS = ("-Wall", "-Wextra", "-Wshadow", "-Wconversion", "-Wdouble-promotion",
            "-Wcast-qual", "-Werror")


def test_source_compiles_without_warnings(tmp_path):
    # a real compile with the library's own flags: warnings such as
    # -Wmaybe-uninitialized only appear once the optimizer runs
    source = os.path.join(os.path.dirname(kernel.__file__), "_hs.c")
    proc = subprocess.run(["cc", *WARNINGS, *kernel.FLAGS,
                           source, "-o", str(tmp_path / "hs.so"), "-lm"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_build_without_a_compiler_raises_its_own_error(tmp_path, monkeypatch):
    # the CLI exits 2 on exactly this class, with this message
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    cache = tmp_path / "cache"
    with pytest.raises(kernel.KernelBuildError,
                       match="^cannot run the C compiler cc to build the kernel library: "):
        kernel.build(b"int x;\n", str(cache))
    assert os.listdir(cache) == []  # no partial library is left


def test_avx2_build_compiles_without_warnings(single_isa_source, tmp_path):
    # the shipped library's AVX2 clone, built alone, so a warning in
    # either clone fails the suite
    proc = subprocess.run(["cc", *WARNINGS, *kernel.FLAGS, "-mavx2",
                           "-x", "c", "-", "-o", str(tmp_path / "hs.so"), "-lm"],
                          input=single_isa_source, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")


def train_one_pair(center, loss):
    """One pair through ``hs_train``, item 0 on target range [0, 1), on a
    two-node path; returns its result."""
    dim = len(center)
    zero, one = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    return kernel.library().hs_train(
        center.reshape(1, dim), np.ones((2, dim)), dim, zero, zero, one, zero, 1, 0,
        np.array([0, 2], dtype=np.int64), np.arange(2, dtype=np.int64),
        np.array([1.0, -1.0]), 0.1, 0.05, 0, 1, np.empty(2 + dim), loss)


def test_loss_buffer_may_be_none():
    assert train_one_pair(np.full(3, 0.5), None) == 1
    # the non-finite check does not depend on the loss buffer
    assert train_one_pair(np.array([0.5, np.nan, 0.5]), None) == -1


def path_loss(hs_train, scores, start=0.0):
    """The loss buffer, starting at ``start``, after one ``hs_train`` call
    whose path nodes score exactly ``scores`` (sz = sign * z), at learning
    rate 0 so no row moves. One item of dim 1, center 1.0, trains each
    node as a path of its own, then all of them as one path, then as
    four-node paths, so the running product spans pairs and path shapes
    and each score's loss is taken three times."""
    n = len(scores)
    z = np.abs(scores)  # sign * z == score
    signs = np.where(np.asarray(scores) < 0, -1.0, 1.0)
    whole = (n + 3) // 4  # four-node paths of the nodes, the last one shorter
    path_off = np.concatenate([np.arange(n + 1), [2 * n],
                               2 * n + np.minimum(4 * np.arange(1, whole + 1), n)])
    path_nodes = np.concatenate([np.arange(n)] * 3).astype(np.int64)
    path_signs = np.concatenate([signs] * 3)
    # targets: every single-node path, the whole path, every four-node path
    targets = np.arange(n + 1 + whole, dtype=np.int64)
    loss = np.array([start])
    zero = np.zeros(1, dtype=np.int64)
    pairs = hs_train(np.ones((1, 1)), z.reshape(n, 1).copy(), 1, zero, zero,
                     np.array([len(targets)], dtype=np.int64), targets, 1, 0,
                     path_off.astype(np.int64), path_nodes, path_signs,
                     0.0, 0.0, 0, 1, np.empty(n + 1), loss)
    assert pairs == len(targets)
    return loss[0]


LOSS_EXTREMES = {
    # e up to exp(60) per node: without its fold at 1e250 the running product
    # overflows after about ten of these
    "fold": [-60.0] + np.linspace(-59.9, -52.0, 13).tolist(),
    # clipped nodes of both signs add their softplus directly; 745 gives a
    # subnormal loss
    "clipped": [60.5, 61.0, 100.0, 745.0, -60.5, -61.0, -100.0, -800.0, 3.0, -3.0],
    # 1 + e rounds to 1 here, so a product of sigmoids loses the whole loss
    "tiny": np.linspace(35.0, 45.0, 11).tolist(),
    "mixed": [0.0, 1e-300, -0.5, 2.0, 40.0, -59.0, 59.0, 70.0, -70.0, -1e-3] * 3,
}


@pytest.mark.parametrize("build", ["shipped", "baseline", "avx2"])
@pytest.mark.parametrize("case", sorted(LOSS_EXTREMES))
@pytest.mark.parametrize("start", [0.0, 1.5])
def test_loss_matches_an_exact_sum_at_the_extremes(build, case, start, single_isa_kernel):
    hs_train = (kernel.library() if build == "shipped" else single_isa_kernel(build)).hs_train
    scores = LOSS_EXTREMES[case]
    with mpmath.workdps(50):
        want = start + 3 * mpmath.fsum(mpmath.log1p(mpmath.exp(-mpmath.mpf(s))) for s in scores)
    got = path_loss(hs_train, scores, start)
    assert math.isfinite(got)
    assert abs(got - want) <= 1e-13 * want, (got, want)


def read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("loss", [np.zeros(2), np.zeros(1, dtype=np.float32), np.zeros((1, 1)),
                                  read_only(np.zeros(1)), [0.0], 0.0])
def test_bad_loss_buffer_rejected(loss):
    with pytest.raises(ctypes.ArgumentError, match="argument 18"):
        train_one_pair(np.full(3, 0.5), loss)


@functools.cache
def planted_doc_vectors():
    """PV-DBOW vectors of criterion 7's planted 500 documents at dim 48, the
    shape and spread of ``refine-planted``'s selection input."""
    rows = synthetic_corpus(SynthSpec(n_docs=500, rare_docs=8, seed=11))
    docs = preprocess_set(CorpusRows([i for i, _ in rows], [t for _, t in rows]))
    return train_doc2vec(docs.corpus, EmbeddingConfig(dim=48, window=5, epochs=3)).vectors


def spectrum_matrix(n, d, singular, seed):
    """An (n, d) matrix whose centred rows have the singular values
    ``singular``, fewer than n and at most d of them, plus a column offset."""
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((n, len(singular)))
    left = np.linalg.qr(left - left.mean(axis=0))[0]
    right = np.linalg.qr(rng.standard_normal((d, len(singular))))[0]
    return (left * singular) @ right.T + rng.normal(size=d)


def assert_matches_the_svd(x):
    """pca_project against LAPACK's SVD of the centred rows: variances
    within 1e-12 of the top one, |cos| of each component within 1e-12 of 1
    where its eigenvalue stands 1e-8 of the top one clear of its
    neighbours, orthonormal components and points within 1e-12."""
    proj = pca_project(x)
    centred = x - x.mean(axis=0)
    s = np.linalg.svd(centred, compute_uv=False)
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    eig = np.concatenate([s ** 2 / (len(x) - 1), [0.0]])
    top = eig[0]
    assert np.all(np.abs(proj.explained_variance - eig[:2]) <= 1e-12 * top), (
        proj.explained_variance, eig[:2])
    for c in range(2):
        gap = min(eig[c] - eig[c + 1], eig[c - 1] - eig[c] if c else math.inf)
        if gap > 1e-8 * top:
            assert abs(abs(float(np.dot(proj.components[c], vt[c]))) - 1.0) <= 1e-12, c
    assert np.abs(proj.components @ proj.components.T - np.eye(2)).max() <= 1e-12
    scale = np.abs(centred).max() * math.sqrt(x.shape[1])
    assert np.abs(proj.points - centred @ proj.components.T).max() <= 1e-12 * scale


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 40), st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
@example(2, 2, 0)  # rank 1: the second component is any unit vector orthogonal to the first
@example(2, 30, 1)  # n < d at rank 1
@example(3, 30, 2)  # n < d
@example(40, 3, 3)  # n > d
def test_pca_matches_the_svd(n, d, seed):
    rng = np.random.default_rng(seed)
    assert_matches_the_svd(rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
                           + rng.normal(size=d))


@pytest.mark.parametrize("n, d", [(60, 8), (8, 60), (200, 48)])
@pytest.mark.parametrize("after", [0, 1])
@pytest.mark.parametrize("gap", [1e-4, 1e-7])
def test_pca_matches_the_svd_at_a_tiny_eigengap(n, d, after, gap):
    # eigenvalues (singular values squared) 1 - gap apart, relatively, after
    # the top one or after the second
    singular = np.array([3.0, 2.0, 1.5, 1.0, 0.5])
    singular[after + 1] = singular[after] * math.sqrt(1.0 - gap)
    assert_matches_the_svd(spectrum_matrix(n, d, np.sort(singular)[::-1], seed=n + d))


def test_pca_of_two_mirrored_rows_keeps_its_components_orthonormal():
    # n < d and the centred rows are exact negatives, so the second
    # eigenvector of their 2 x 2 Gram matrix maps to the zero vector: the
    # second component is then the axis the first is smallest along
    proj = pca_project(np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]))
    assert np.abs(proj.components @ proj.components.T - np.eye(2)).max() <= 1e-15
    assert proj.components[1].tolist() == [0.0, 1.0, 0.0]
    assert proj.points[:, 1].tolist() == [0.0, 0.0]


def test_pca_of_the_planted_doc_vectors_matches_the_svd():
    assert_matches_the_svd(planted_doc_vectors())


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300, 1e200])
def test_pca_refuses_what_it_cannot_project(bad):
    # 1e300 and 1e200 are finite, but their squares overflow the Gram matrix
    x = np.random.default_rng(5).normal(size=(20, 4))
    x[3, 2] = bad
    with pytest.raises(ValueError, match="^PCA needs finite values whose centred Gram matrix "
                                         "does not overflow$"):
        pca_project(x)


def test_fps_order_matches_the_reference_loop_on_planted_points():
    points = pca_project(planted_doc_vectors()).points
    start = central_document(points)
    got, want = greedy_fps(points, start, len(points)), reference_greedy_fps(points, start,
                                                                          len(points))
    assert got.indices == want.indices
    assert np.array(got.distances).tobytes() == np.array(want.distances).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_fps_order_follows_numpys_nan_rules(seed):
    # np.minimum keeps a NaN from either side, a picked point's -inf
    # included, and np.argmax picks the first NaN before any number, so a
    # NaN point is picked again and again once it shows
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(40, 2))
    points[rng.integers(0, 40, size=3)] = [[np.nan, 1.0], [np.inf, 0.5], [0.0, 0.0]]
    start = int(rng.integers(0, 40))
    with np.errstate(invalid="ignore", over="ignore"):
        want = reference_greedy_fps(points, start, 40)
    got = greedy_fps(points, start, 40)
    assert got.indices == want.indices
    assert np.array(got.distances).tobytes() == np.array(want.distances).tobytes()


def selection_bytes():
    """The bytes of every Projection field and farthest-point order on the
    planted doc vectors and seeded matrices of several shapes, n < d
    among them."""
    rng = np.random.default_rng(17)
    inputs = [planted_doc_vectors()] + [rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
                                        for n, d in [(3, 2), (40, 3), (100, 200), (5000, 48)]]
    out = []
    for x in inputs:
        proj = pca_project(x)
        order = greedy_fps(proj.points, central_document(proj.points), len(x))
        out += [getattr(proj, f.name).tobytes() for f in dataclasses.fields(Projection)]
        out += [np.array(order.indices).tobytes(), np.array(order.distances).tobytes()]
    return out


@pytest.mark.parametrize("isa", ["baseline", "avx2"])
def test_single_isa_builds_select_the_same_bits(isa, single_isa_kernel, monkeypatch):
    shipped = selection_bytes()
    monkeypatch.setattr(selection, "library", lambda: single_isa_kernel(isa))
    assert selection_bytes() == shipped
