"""The compiled kernel library litscreen calls through ctypes.

The kernel library is ``_hs.c`` built with ``cc``. It holds the trainers'
SGD loop, ``hs_train``, and the selection stage: a top-2 PCA,
``pca_top2``, and the farthest-point order, ``fps_order``. Saving and
loading models never touch it. :func:`library` compiles the source the
first time it is called, never at import, and caches the result under this
package's ``__pycache__/``, keyed on the source and the flags, so later
processes load it without compiling.
There is no fallback: a missing or failing compiler raises
:class:`KernelBuildError`, a RuntimeError.

``FLAGS`` target baseline x86-64, yet on x86-64 Linux the library holds a
baseline and an AVX2 ``hs_train`` and ``fps_order`` (GCC
``target_clones``), and the dynamic loader picks one by CPUID when the
library is loaded. One cached file therefore serves any x86-64 CPU, and
its name needs no CPU in the key. The two give the same bits:
``-ffp-contract=off`` keeps multiply-adds unfused and the compiler
reassociates nothing, so both do the same IEEE operations in the source's
fixed order: each score in four lanes over k mod 4, added as
(a0 + a1) + (a2 + a3), then the dim % 4 tail in k order.
The selection functions call no BLAS: ``pca_top2`` sums in index order,
and ``fps_order`` does numpy's operations for each point, so their bits
depend neither on the ISA a build targets nor on numpy's BLAS.
"""
from __future__ import annotations

import ctypes
import functools
import os
import tempfile
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

__all__ = ["FLAGS", "KernelBuildError", "Kernel", "build", "library", "load"]

FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


class KernelBuildError(RuntimeError):
    """The kernel library could not be compiled: no ``cc``, or it failed."""


def build(source: bytes, cache_dir: str) -> str:
    """Compile ``source`` with ``cc`` unless ``cache_dir`` already holds it.

    The library is written to a temporary file and renamed into place, so
    concurrent builds never expose a partial file. Raises KernelBuildError
    when ``cc`` cannot run, and with the compiler's stderr when the compile
    fails.
    """
    import hashlib  # only a training needs it; loading OpenSSL costs every command

    key = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
    path = os.path.join(cache_dir, f"_hs-{key}.so")
    if os.path.exists(path):
        return path
    import subprocess  # only a build needs it; importing it costs every command

    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                ["cc", *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                input=source, capture_output=True,
            )
        except OSError as exc:
            raise KernelBuildError(
                f"cannot run the C compiler cc to build the kernel library: {exc}") from exc
        if proc.returncode != 0:
            raise KernelBuildError(
                f"compiling the kernel library failed:\n{proc.stderr.decode(errors='replace')}"
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


class Kernel(NamedTuple):
    """The library's functions, each with argtypes and restype declared."""

    hs_train: Callable[..., int]
    pca_top2: Callable[..., int]
    fps_order: Callable[..., None]


@functools.cache
def library() -> Kernel:
    """The functions of ``_hs.c``, compiled into ``__pycache__`` on first
    use and loaded with :func:`load`."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "_hs.c"), "rb") as f:
        source = f.read()
    return load(build(source, os.path.join(here, "__pycache__")))


def load(path: str) -> Kernel:
    """Every function of the library at ``path``, bound with ctypes, which
    checks each array's dtype and layout; nothing checks an index or a
    size, and ``_hs.c`` states each whole contract.

    - ``hs_train(centers, nodes, dim, rows, lo, hi, targets, n_items,
      skip_self, path_off, path_nodes, path_signs, alpha0, alpha_min,
      processed, total, work, loss)``: item i trains row ``rows[i]`` on
      ``targets[lo[i]:hi[i]]``, leaving out position i when ``skip_self``,
      at a rate falling linearly from ``alpha0`` to ``alpha_min``.
      ``loss`` is a one-element buffer that the call's pre-update loss is
      added to, taken through one running product per call, not a
      ``log1p`` per path node, or None to skip the loss.
    - ``pca_top2(x, mean, n, d, components, variance, points, work)``: the
      top two principal components of the (n, d) ``x`` into ``components``
      (2, d), ``variance`` (2,) and ``points`` (n, 2); ``work`` holds
      ``m * m + 3 * m`` doubles for m = min(n, d). Returns 0, or 1 for no
      variance, 2 for a non-finite Gram matrix, 3 for no convergence.
    - ``fps_order(x, y, n_points, start, n, indices, distances, work)``:
      the first ``n`` picks of the farthest-point order from ``start``;
      ``work`` holds ``2 * n_points`` doubles.
    """
    lib = ctypes.CDLL(path)
    f64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
    out_matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags=("C_CONTIGUOUS", "WRITEABLE"))
    out = np.ctypeslib.ndpointer(np.float64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    out_i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    int64, double = ctypes.c_int64, ctypes.c_double

    class optional_loss(np.ctypeslib.ndpointer(np.float64, ndim=1, shape=(1,),
                                               flags=("C_CONTIGUOUS", "WRITEABLE"))):
        """hs_train's loss accumulator, or None: NULL, so the loss is not computed."""

        @classmethod
        def from_param(cls, obj):
            return None if obj is None else super().from_param(obj)

    def bind(name, restype, *argtypes):
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = list(argtypes), restype
        return fn

    return Kernel(
        hs_train=bind("hs_train", int64,
                      out_matrix, out_matrix, int64,
                      i64, i64, i64, i64, int64, int64,
                      i64, i64, f64,
                      double, double,
                      int64, int64,
                      out, optional_loss),
        pca_top2=bind("pca_top2", int64,
                      matrix, f64, int64, int64, out_matrix, out, out_matrix, out),
        fps_order=bind("fps_order", None,
                       f64, f64, int64, int64, int64, out_i64, out, out),
    )
