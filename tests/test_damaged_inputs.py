"""Every command accepts a damaged input or refuses it by name.

One module-scoped set of small valid inputs is made once. Each case damages
one of them, seeded by its name: it truncates the file, flips one bit, or
drops or doubles a line. It then runs the damaged input through every
command that reads it. Each run must exit 0, or exit 2 with a message that
names the damaged file (a model by its base path) and with nothing written
to its output directory. An exception escaping ``main`` fails the case.
"""
import os
import shutil
import zlib

import numpy as np
import pytest

from litscreen.cli import main

CONFIG = "dim = 8\nepochs = 1\n"
MODEL_FILES = (".npy", ".labels", ".meta")


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Paths of the valid inputs, by kind: a word and a document model by
    base path."""
    root = tmp_path_factory.mktemp("valid")
    paths = {"config": str(root / "c.conf"), "corpus": str(root / "corpus.csv"),
             "candidates": str(root / "candidates.csv"), "tokens": str(root / "c.tokens"),
             "words": str(root / "run" / "model"), "docs": str(root / "docs")}
    with open(paths["config"], "w") as f:
        f.write(CONFIG)
    conf = ["--config", paths["config"]]
    for argv in (["synth", "--out", str(root), "--n-docs", "12", "--rare-docs", "2"],
                 ["ingest", *conf, "--corpus", paths["corpus"], "--out", paths["tokens"]],
                 ["refine", *conf, "--corpus", paths["corpus"],
                  "--candidates", paths["candidates"], "--out", str(root / "run")],
                 ["embed-docs", *conf, "--corpus", paths["corpus"], "--out", paths["docs"]]):
        assert main(argv) == 0, argv
    return paths


def commands(paths, out):
    """Every command with the inputs in ``paths``, by the kinds it reads,
    each writing under the directory ``out``."""
    conf, corpus = ["--config", paths["config"]], paths["corpus"]
    cands, words = ["--candidates", paths["candidates"]], paths["words"]
    return [
        ({"config", "corpus"}, ["ingest", *conf, "--corpus", corpus, "--out", f"{out}/t"]),
        ({"config", "tokens"}, ["ingest", *conf, "--corpus", paths["tokens"], "--out", f"{out}/t"]),
        ({"config", "corpus"}, ["embed-docs", *conf, "--corpus", corpus, "--out", f"{out}/d"]),
        ({"config", "tokens"},
         ["embed-docs", *conf, "--corpus", paths["tokens"], "--out", f"{out}/d"]),
        ({"config", "corpus", "candidates"},
         ["refine", *conf, "--corpus", corpus, *cands, "--out", f"{out}/run"]),
        ({"config", "tokens", "candidates"},
         ["refine", *conf, "--corpus", paths["tokens"], *cands, "--out", f"{out}/run"]),
        ({"docs"}, ["select", "--model", paths["docs"], "--out", f"{out}/s.csv"]),
        ({"config", "candidates", "words"},
         ["screen", *conf, "--model", words, *cands, "--out", f"{out}/s.csv"]),
        ({"config", "candidates", "words"}, ["report", *conf, "--full-model", words, *cands]),
    ]


def damage(data: bytes, how: str, rng) -> bytes:
    """``data`` truncated, with one bit flipped, or with one line dropped
    or doubled, at a point ``rng`` draws."""
    if how == "truncate":
        return data[:rng.integers(len(data))]
    if how == "flip":
        at = int(rng.integers(len(data)))
        return data[:at] + bytes([data[at] ^ (1 << int(rng.integers(8)))]) + data[at + 1:]
    lines = data.splitlines(keepends=True)
    at = int(rng.integers(len(lines)))
    if how == "drop":
        return b"".join(lines[:at] + lines[at + 1:])
    return b"".join(lines[:at + 1] + lines[at:])


# each file a case damages: its input kind and, for a model file, its extension
FILES = {**{kind: (kind, "") for kind in ("config", "corpus", "candidates", "tokens")},
         **{model + ext: (model, ext) for model in ("words", "docs") for ext in MODEL_FILES}}


@pytest.mark.parametrize("how", ["truncate", "flip", "drop", "double"])
@pytest.mark.parametrize("file", sorted(FILES))
@pytest.mark.parametrize("seed", range(3))
def test_damaged_input_is_accepted_or_named(valid, tmp_path, capsys, file, how, seed):
    kind, ext = FILES[file]
    rng = np.random.default_rng([zlib.crc32(f"{file} {how}".encode()), seed])
    paths = dict(valid)
    # the damaged file, beside a copy of each file of its model
    paths[kind] = str(tmp_path / os.path.basename(valid[kind]))
    for sibling in MODEL_FILES if ext else ("",):
        shutil.copyfile(valid[kind] + sibling, paths[kind] + sibling)
    with open(valid[kind] + ext, "rb") as f:
        data = damage(f.read(), how, rng)
    with open(paths[kind] + ext, "wb") as f:
        f.write(data)

    out = tmp_path / "out"
    for reads, argv in commands(paths, str(out)):
        if kind not in reads:
            continue
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), (argv[0], code, err)
        if code == 2:
            assert paths[kind] in err, (argv[0], err)
            assert os.listdir(out) == [], argv[0]
