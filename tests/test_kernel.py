import os
import subprocess

from litscreen import kernel


def test_source_compiles_without_warnings():
    source = os.path.join(os.path.dirname(kernel.__file__), "_hs.c")
    proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", source],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

