import os
import subprocess

from litscreen import kernel


def test_source_compiles_without_warnings(tmp_path):
    # a real compile with the library's own flags: warnings such as
    # -Wmaybe-uninitialized only appear once the optimizer runs
    source = os.path.join(os.path.dirname(kernel.__file__), "_hs.c")
    proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", *kernel.FLAGS,
                           source, "-o", str(tmp_path / "hs.so"), "-lm"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
