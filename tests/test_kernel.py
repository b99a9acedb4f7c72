import ctypes
import dataclasses
import os
import subprocess

import numpy as np
import pytest

from litscreen import kernel
from litscreen.corpus import CorpusRows, preprocess_set
from litscreen.embedding import EmbeddingConfig
from litscreen.refine import RefineConfig, run_refinement
from litscreen.selection import Projection, pca_project
from litscreen.synth import SynthSpec, synthetic_candidates, synthetic_corpus


def test_source_compiles_without_warnings(tmp_path):
    # a real compile with the library's own flags: warnings such as
    # -Wmaybe-uninitialized only appear once the optimizer runs
    source = os.path.join(os.path.dirname(kernel.__file__), "_hs.c")
    proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", *kernel.FLAGS,
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
    proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", *kernel.FLAGS, "-mavx2",
                           "-x", "c", "-", "-o", str(tmp_path / "hs.so"), "-lm"],
                          input=single_isa_source, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")


def train_one_pair(center, loss):
    """One pair through ``hs_train``, item 0 on target range [0, 1), on a
    two-node path; returns its result."""
    dim = len(center)
    zero, one = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    return kernel.library()(
        center.reshape(1, dim), np.ones((2, dim)), dim, zero, zero, one, zero, 1, 0,
        np.array([0, 2], dtype=np.int64), np.arange(2, dtype=np.int64),
        np.array([1.0, -1.0]), 0.1, 0.05, 0.05, 0, 1, np.empty(2 + dim), loss)


def test_loss_buffer_may_be_none():
    assert train_one_pair(np.full(3, 0.5), None) == 1
    # the non-finite check does not depend on the loss buffer
    assert train_one_pair(np.array([0.5, np.nan, 0.5]), None) == -1


def read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("loss", [np.zeros(2), np.zeros(1, dtype=np.float32), np.zeros((1, 1)),
                                  read_only(np.zeros(1)), [0.0], 0.0])
def test_bad_loss_buffer_rejected(loss):
    with pytest.raises(ctypes.ArgumentError, match="argument 19"):
        train_one_pair(np.full(3, 0.5), loss)


def seeded_matrix(rows, cols):
    rng = np.random.default_rng(rows * cols)
    return rng.standard_normal((rows, cols)) * rng.uniform(0.1, 10.0, cols)


def assert_same_projection(got, want):
    for field in dataclasses.fields(Projection):
        assert getattr(got, field.name).tobytes() == getattr(want, field.name).tobytes(), field.name


# Document matrices (documents x dim) of the sizes the tests and the
# benchmark workloads project, and 5,000 documents at dim 48: OpenBLAS's
# SVD of them gives the same bits on one thread as on two
SAME_BITS = [(3, 2), (40, 3), (120, 12), (100, 200), (500, 48), (5000, 48)]
# Larger ones, whose SVD gives other bits on two threads than on one
OTHER_BITS = [(500, 200), (5000, 200), (20000, 48), (20000, 200)]


@pytest.mark.parametrize("rows, cols", SAME_BITS)
def test_pca_keeps_its_bits_on_one_blas_thread(openblas, rows, cols):
    get, _ = openblas
    x = seeded_matrix(rows, cols)
    two = pca_project(x)
    with kernel.one_blas_thread():
        assert get() == 1
        one = pca_project(x)
    assert_same_projection(one, two)


@pytest.mark.parametrize("rows, cols", SAME_BITS + OTHER_BITS)
def test_pca_on_one_blas_thread_ignores_the_count_outside(openblas, rows, cols):
    # the cap makes refine's PCA, and so its selection, the same whatever
    # BLAS thread count the machine or the environment sets
    _, set_ = openblas
    x = seeded_matrix(rows, cols)
    with kernel.one_blas_thread():
        want = pca_project(x)
    for outside in (1, 3):
        set_(outside)
        with kernel.one_blas_thread():
            assert_same_projection(pca_project(x), want)


class Raised(RuntimeError):
    pass


def test_thread_count_restored_on_return_and_on_error(openblas):
    get, _ = openblas
    with kernel.one_blas_thread():
        assert get() == 1
    assert get() == 2
    with pytest.raises(Raised):
        with kernel.one_blas_thread():
            assert get() == 1
            raise Raised
    assert get() == 2


def test_nested_or_at_one_thread_leaves_the_count_as_found(openblas):
    get, set_ = openblas
    with kernel.one_blas_thread():
        with kernel.one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2
    set_(1)
    with kernel.one_blas_thread():
        assert get() == 1
    assert get() == 1


def planted_run():
    rows = synthetic_corpus(SynthSpec(n_docs=120, rare_docs=3, seed=1))
    docs = preprocess_set(CorpusRows([i for i, _ in rows], [t for _, t in rows]))
    config = RefineConfig(batch_size=15, threshold=0.1,
                          embedding=EmbeddingConfig(dim=12, window=3, epochs=1))
    return run_refinement(docs, synthetic_candidates(3), config)


def test_without_openblas_functions_the_block_changes_nothing(openblas, monkeypatch):
    get, _ = openblas
    expected = planted_run()
    monkeypatch.setattr(kernel, "_openblas_threads", lambda: None)
    with kernel.one_blas_thread():
        assert get() == 2
    result = planted_run()
    assert get() == 2
    assert result.records == expected.records and result.converged
    assert result.final_model.vectors.tobytes() == expected.final_model.vectors.tobytes()
