"""Single-ISA builds of the kernel, so the tests check both builds of
``hs_train`` and ``fps_order`` that the shipped library holds, not only
the one this CPU resolves to, and the PCA built for either ISA.

``_hs.c`` asks once, in its ``ISA_CLONES`` macro, for a baseline and an
AVX2 build of ``hs_train`` and ``fps_order``. With that attribute
stripped, the source builds one plain function of each for whatever ISA
the flags name: ``kernel.FLAGS`` alone for baseline x86-64, plus
``-mavx2`` for AVX2, which the compiler may then use anywhere in the file.
"""
import functools
import os

import pytest

from litscreen import kernel

CLONES = b'__attribute__((target_clones("avx2", "default")))'
SINGLE_ISA_FLAGS = {"baseline": kernel.FLAGS, "avx2": kernel.FLAGS + ("-mavx2",)}


def cpu_has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo") as f:
            return any(line.startswith("flags") and "avx2" in line.split() for line in f)
    except OSError:
        return False


@pytest.fixture(scope="session")
def single_isa_source() -> bytes:
    """``_hs.c`` without its ``target_clones`` attribute, which it must hold once."""
    with open(os.path.join(os.path.dirname(kernel.__file__), "_hs.c"), "rb") as f:
        source = f.read()
    assert source.count(CLONES) == 1
    return source.replace(CLONES, b"")


@pytest.fixture(scope="session")
def single_isa_kernel(single_isa_source, tmp_path_factory):
    """``isa -> kernel.Kernel`` built through ``kernel.build`` with
    ``SINGLE_ISA_FLAGS[isa]`` as ``kernel.FLAGS``; skips the test for AVX2 on
    a CPU without it."""
    cache = str(tmp_path_factory.mktemp("single-isa"))

    @functools.cache
    def load(isa):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "FLAGS", SINGLE_ISA_FLAGS[isa])
            return kernel.load(kernel.build(single_isa_source, cache))

    def get(isa):
        if isa == "avx2" and not cpu_has_avx2():
            pytest.skip("no avx2 in /proc/cpuinfo: this CPU cannot run the AVX2 build")
        return load(isa)

    return get
