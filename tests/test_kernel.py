import ctypes
import os
import subprocess

import numpy as np
import pytest

from litscreen import kernel


def test_source_compiles_without_warnings(tmp_path):
    # a real compile with the library's own flags: warnings such as
    # -Wmaybe-uninitialized only appear once the optimizer runs
    source = os.path.join(os.path.dirname(kernel.__file__), "_hs.c")
    proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", *kernel.FLAGS,
                           source, "-o", str(tmp_path / "hs.so"), "-lm"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_avx2_build_compiles_without_warnings(single_isa_source, tmp_path):
    # the shipped library's AVX2 clone, built alone, so a warning in
    # either clone fails the suite
    proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", *kernel.FLAGS, "-mavx2",
                           "-x", "c", "-", "-o", str(tmp_path / "hs.so"), "-lm"],
                          input=single_isa_source, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")


def train_one_pair(center, loss):
    """One pair through ``hs_train`` on a two-node path; returns its result."""
    dim = len(center)
    one = np.zeros(1, dtype=np.int64)
    return kernel.library()(
        center.reshape(1, dim), np.ones((2, dim)), dim, one, np.array([0, 1], dtype=np.int64),
        one, 1, np.array([0, 2], dtype=np.int64), np.arange(2, dtype=np.int64),
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
    with pytest.raises(ctypes.ArgumentError, match="argument 17"):
        train_one_pair(np.full(3, 0.5), loss)
