"""Golden bytes of every command's artifacts on criterion 6's inputs, and
the same bytes in fresh processes under two other OpenBLAS kernels.

One module-scoped run writes criterion 6's synthetic corpus and config,
then runs ``ingest``, ``embed-docs``, ``select``, criterion 6's ``refine``
and ``screen --out`` in this process, on criterion 6's candidates and on the
455-row Ag/Pt/Ba/Ti grid (``synthetic_candidates(12)``). Criterion 6
pins the ``refine`` artifacts; this module pins the rest.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import litscreen
from litscreen.cli import main
from litscreen.persistence import file_digest
from litscreen.synth import synthetic_candidates, write_candidates_csv

# sha256 of each command's artifacts, made under Python 3.11.7, numpy 2.4.6
# and gcc 12.2, like criterion 6's GOLDEN_REFINE_DIGESTS; a change that moves
# one re-pins it here and says why in CHANGES.md.
GOLDEN_COMMAND_DIGESTS = {
    "tokens.tsv": "af312f4c241c44b996e9bd1b210b692917047d28e2e0eb2a7e945bc35deebf5d",
    "docs.npy": "0f4dc0d3563dcae3c3fb3ca50b36adcaac9bc66fb3231783d84374a679fece77",
    "docs.labels": "1bd5ada4de2773a27b468a63b17f9193ae6b22abe7f0029b84f43062c881bc1b",
    "docs.meta": "0d536a935649438ed1e9752f756def9d1cf9f5f8210098c0165e3c27c55ae319",
    "selection.csv": "677ef662e03fdbade7e5042d164a70e51b08a0700d3919807e10e385c6fbb20b",
    "screen.csv": "3ed7b171889ac5bc41ac9d562731a7824fdc981ffd86df5d8985c09561c83113",
    "grid-screen.csv": "d4ddd02c88a6792765599d4aeafb48a65e1b2a10aa39ab3de20dc9f1791d8083",
}


def refine_argv(data, conf, out):
    """Criterion 6's ``refine`` command line, writing into ``out``."""
    return ["refine", "--corpus", os.path.join(data, "corpus.csv"),
            "--candidates", os.path.join(data, "candidates.csv"),
            "--config", conf, "--batch-size", "40", "--seed", "5",
            "--threshold", "0.03", "--out", out]


def screen_argv(model, candidates, out):
    return ["screen", "--model", model, "--candidates", candidates,
            "--preset", "orr", "--out", out]


@pytest.fixture(scope="module")
def criterion_6(tmp_path_factory):
    """The directory holding criterion 6's inputs and this process's artifacts."""
    root = str(tmp_path_factory.mktemp("criterion-6"))
    data, conf = os.path.join(root, "data"), os.path.join(root, "run.conf")
    with open(conf, "w") as f:
        f.write("dim = 24\nepochs = 2\nwindow = 4\n")
    grid = os.path.join(root, "grid.csv")
    write_candidates_csv(synthetic_candidates(12), grid)
    model = os.path.join(root, "run", "model")
    corpus = os.path.join(data, "corpus.csv")
    for argv in (
        ["synth", "--out", data, "--n-docs", "160", "--rare-docs", "4", "--seed", "9"],
        ["ingest", "--corpus", corpus, "--out", os.path.join(root, "tokens.tsv")],
        ["embed-docs", "--corpus", corpus, "--config", conf, "--seed", "5",
         "--out", os.path.join(root, "docs")],
        ["select", "--model", os.path.join(root, "docs"),
         "--out", os.path.join(root, "selection.csv")],
        refine_argv(data, conf, os.path.join(root, "run")),
        screen_argv(model, os.path.join(data, "candidates.csv"),
                    os.path.join(root, "screen.csv")),
        screen_argv(model, grid, os.path.join(root, "grid-screen.csv")),
    ):
        assert main(argv) == 0, argv
    return root


def test_every_command_writes_its_golden_bytes(criterion_6):
    digests = {name: file_digest(os.path.join(criterion_6, name))
               for name in GOLDEN_COMMAND_DIGESTS}
    assert digests == GOLDEN_COMMAND_DIGESTS


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 has no mode="dicts"
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH")
def test_bytes_do_not_depend_on_the_openblas_kernel(criterion_6, tmp_path):
    """Criterion 6's ``refine`` and a ``screen --out`` of the grid, each
    leg in a fresh process with ``OPENBLAS_CORETYPE`` set, write the bytes
    this process wrote."""
    data, conf = os.path.join(criterion_6, "data"), os.path.join(criterion_6, "run.conf")
    src = os.path.dirname(os.path.dirname(litscreen.__file__))
    code = ("import json, sys; from litscreen.cli import main; "
            "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))")
    legs = {}
    for coretype in ("Haswell", "Nehalem"):
        out = str(tmp_path / coretype)
        commands = [refine_argv(data, conf, os.path.join(out, "run")),
                    screen_argv(os.path.join(out, "run", "model"),
                                os.path.join(criterion_6, "grid.csv"),
                                os.path.join(out, "grid-screen.csv"))]
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": coretype}
        legs[coretype] = subprocess.Popen(
            [sys.executable, "-c", code, json.dumps(commands)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    names = ["run/iterations.csv", "run/selection.csv", "run/model.npy", "grid-screen.csv"]
    moved = {}
    for coretype, proc in legs.items():
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
        moved[coretype] = [name for name in names
                           if file_digest(os.path.join(str(tmp_path / coretype), name))
                           != file_digest(os.path.join(criterion_6, name))]
    assert moved == {"Haswell": [], "Nehalem": []}
