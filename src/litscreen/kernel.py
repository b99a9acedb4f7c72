"""The native code litscreen calls through ctypes: the compiled kernel
library, and the thread count of the BLAS library numpy already loaded.

The kernel library is ``_hs.c`` built with ``cc``. It holds the trainers'
SGD loop, ``hs_train``, and nothing else: saving and loading models never
touch it. :func:`library` compiles the source the first time it is called,
never at import, and caches the result under this package's
``__pycache__/``, keyed on the source and the flags, so later processes
load it without compiling.
There is no fallback: a missing or failing compiler raises
:class:`KernelBuildError`, a RuntimeError.

``FLAGS`` target baseline x86-64, yet on x86-64 Linux the library holds a
baseline and an AVX2 ``hs_train`` (GCC ``target_clones``), and the
dynamic loader picks one by CPUID when the library is loaded. One cached
file therefore serves any x86-64 CPU, and its name needs no CPU in the
key. The two give the same bits: ``-ffp-contract=off`` keeps multiply-adds
unfused and the compiler reassociates nothing, so both do the same IEEE
operations in the source's fixed order: each score in four lanes over
k mod 4, added as (a0 + a1) + (a2 + a3), then the dim % 4 tail in k order.

:func:`one_blas_thread` holds numpy's OpenBLAS to one thread for the one
BLAS caller, the PCA of :func:`litscreen.refine.selection_order`. OpenBLAS
workers that a call wakes spin on after it returns, taking cores from threads
that train meanwhile, and its last bits change with its thread count on
large enough inputs. It loads no library: it looks up OpenBLAS's thread-count
functions, on first use, through the handle of numpy's own linear-algebra
extension, whose dependencies ``dlsym`` searches too. A numpy built on
another BLAS has none of them, and the block then runs as it would
without it.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import tempfile

import numpy as np

__all__ = ["FLAGS", "KernelBuildError", "library_path", "build", "library", "load",
           "one_blas_thread"]

FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


class KernelBuildError(RuntimeError):
    """The kernel library could not be compiled: no ``cc``, or it failed."""


def library_path(source: bytes, cache_dir: str) -> str:
    """Where the library built from ``source`` with ``FLAGS`` lives."""
    import hashlib  # only a training needs it; loading OpenSSL costs every command

    key = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
    return os.path.join(cache_dir, f"_hs-{key}.so")


def build(source: bytes, cache_dir: str) -> str:
    """Compile ``source`` with ``cc`` unless ``cache_dir`` already holds it.

    The library is written to a temporary file and renamed into place, so
    concurrent builds never expose a partial file. Raises KernelBuildError
    when ``cc`` cannot run, and with the compiler's stderr when the compile
    fails.
    """
    path = library_path(source, cache_dir)
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


@functools.cache
def library():
    """``hs_train`` from ``_hs.c``, compiled into ``__pycache__`` on first
    use and loaded with :func:`load`."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "_hs.c"), "rb") as f:
        source = f.read()
    return load(build(source, os.path.join(here, "__pycache__")))


def load(path: str):
    """``hs_train`` from the library at ``path``, with argtypes and restype
    declared: ``(centers, nodes, dim, rows, lo, hi, targets, n_items,
    skip_self, path_off, path_nodes, path_signs, alpha0, alpha_min, span,
    processed, total, work, loss)``, where item i trains row ``rows[i]``
    on ``targets[lo[i]:hi[i]]``, leaving out position i when ``skip_self``.
    ``loss`` is a one-element buffer that the call's pre-update loss is
    added to, taken through one running product per call, not a
    ``log1p`` per path node, or None to skip the loss (``_hs.c`` states the
    whole contract). ctypes checks each array's dtype and layout, and
    nothing checks an index."""
    lib = ctypes.CDLL(path)
    f64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    out_matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags=("C_CONTIGUOUS", "WRITEABLE"))
    out = np.ctypeslib.ndpointer(np.float64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    int64, double = ctypes.c_int64, ctypes.c_double

    class optional_loss(np.ctypeslib.ndpointer(np.float64, ndim=1, shape=(1,),
                                               flags=("C_CONTIGUOUS", "WRITEABLE"))):
        """hs_train's loss accumulator, or None: NULL, so the loss is not computed."""

        @classmethod
        def from_param(cls, obj):
            return None if obj is None else super().from_param(obj)

    hs_train = lib.hs_train
    hs_train.argtypes = [out_matrix, out_matrix, int64,
                         i64, i64, i64, i64, int64, int64,
                         i64, i64, f64,
                         double, double, double,
                         int64, int64,
                         out, optional_loss]
    hs_train.restype = int64
    return hs_train


# (get, set) name pairs: numpy 2 wheels' scipy-openblas, then the 64-bit
# integer and the plain builds of OpenBLAS
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads():
    """OpenBLAS's (get, set) thread-count functions as numpy loaded them,
    or None when numpy's BLAS is not OpenBLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's BLAS on one thread, and restore the
    previous thread count when it ends, by return or by error alike.

    The count is process-wide, so blocks on two threads must not overlap;
    nested on one thread, each restores what it found. A no-op when
    numpy's BLAS is not OpenBLAS.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
