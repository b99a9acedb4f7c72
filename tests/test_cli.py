import csv
import os

import numpy as np
import pytest
from helpers import read_manifest

from litscreen.cli import main
from litscreen.corpus import Vocabulary
from litscreen.embedding import EmbeddingConfig, WordModel
from litscreen.persistence import load_model, save_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 1

    def test_unknown_preset_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "screen", "--model", "m", "--candidates", "c.csv",
            "--preset", "xyz",
        )
        assert code == 1
        assert "preset" in err

    def test_bad_anchor_count_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "refine", "--corpus", "c.csv", "--candidates", "k.csv",
            "--anchors", "a,b,c", "--out", "o",
        )
        assert code == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "ingest", "--corpus", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "t"),
        )
        assert code == 2
        assert "error" in err

    def test_nan_fraction_is_data_error(self, capsys, tmp_path):
        cands = write(str(tmp_path / "k.csv"), "id,Ag,Pt\na,nan,0.5\n")
        code, _, err = run(capsys, "screen", "--model", str(tmp_path / "m"),
                           "--candidates", cands)
        assert code == 2
        assert "k.csv row 1: non-finite fraction" in err

    def test_non_numeric_measured_value_is_data_error(self, capsys, tmp_path):
        base = planted_model(str(tmp_path / "m"))
        cands = write(str(tmp_path / "k.csv"),
                      "id,Ni,Pd,current_density\na,1,0,0.5\nb,0,1,abc\n")
        code, out, err = run(capsys, "report", "--candidates", cands, "--model", base)
        assert code == 2
        assert out == ""
        assert "k.csv row 2: current_density 'abc' is not a number" in err

    def test_negative_fraction_is_data_error(self, capsys, tmp_path):
        cands = write(str(tmp_path / "k.csv"), "id,Ag,Pt\na,-0.5,1.5\n")
        code, _, err = run(capsys, "screen", "--model", str(tmp_path / "m"),
                           "--candidates", cands)
        assert code == 2
        assert "k.csv row 1: negative fraction -0.5 for Ag" in err

    def test_nonpositive_batch_size_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "refine", "--corpus", "c.csv", "--candidates", "k.csv",
            "--batch-size", "0", "--out", str(tmp_path / "o"),
        )
        assert code == 1

    def test_select_has_no_batch_size(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "select", "--corpus", "c.csv", "--batch-size", "20",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert "--batch-size" in err

    def test_version_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--version")
        assert code == 0


def write_bytes(path, data):
    with open(path, "wb") as f:
        f.write(data)
    return path


class TestUnreadableInputs:
    """Bytes the readers reject exit 2 with the file named, never a traceback."""

    def ingest(self, capsys, tmp_path, corpus, *extra):
        return run(capsys, "ingest", "--corpus", corpus, "--out", str(tmp_path / "t"), *extra)

    def test_oversized_corpus_header_field(self, capsys, tmp_path):
        big = "x" * (csv.field_size_limit() + 1)
        corpus = write(str(tmp_path / "c.csv"), f"abstract,{big}\nfirst\n")
        code, _, err = self.ingest(capsys, tmp_path, corpus)
        assert code == 2
        assert f"{corpus} header: field larger than field limit" in err

    @pytest.mark.parametrize("name, data", [
        ("c.csv", b"caf\xe9,abstract\nx,y\n"),
        ("c.csv", b"id,abstract\na,caf\xe9\n"),
        ("c.tokens", b"litscreen-tokens/1 1\na\tcaf\xe9\n"),
    ], ids=["corpus_first_line", "corpus_row", "tokens_file"])
    def test_non_utf8_corpus(self, capsys, tmp_path, name, data):
        corpus = write_bytes(str(tmp_path / name), data)
        code, _, err = self.ingest(capsys, tmp_path, corpus)
        assert code == 2
        assert f"{corpus}: not UTF-8 text" in err

    def test_non_utf8_config_file(self, capsys, tmp_path):
        corpus = write(str(tmp_path / "c.csv"), "abstract\nAg films\n")
        conf = write_bytes(str(tmp_path / "run.conf"), b"# caf\xe9\ntext_column = abstract\n")
        code, _, err = self.ingest(capsys, tmp_path, corpus, "--config", conf)
        assert code == 2
        assert f"{conf}: not UTF-8 text" in err


class TestPipeline:
    def test_synth_through_report(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        conf = write(str(tmp_path / "small.conf"),
                     "dim = 16\nepochs = 2\nwindow = 3\n")

        code, out, _ = run(capsys, "synth", "--out", data, "--n-docs", "60",
                           "--rare-docs", "3", "--seed", "7")
        assert code == 0
        assert "60 documents" in out

        corpus = os.path.join(data, "corpus.csv")
        cands = os.path.join(data, "candidates.csv")
        tokens = str(tmp_path / "corpus.tokens")
        code, out, _ = run(capsys, "ingest", "--corpus", corpus,
                           "--id-column", "id", "--out", tokens)
        assert code == 0
        assert "documents: 60" in out

        docmodel = str(tmp_path / "docs")
        code, _, _ = run(capsys, "embed-docs", "--corpus", tokens,
                         "--config", conf, "--seed", "3", "--out", docmodel)
        assert code == 0
        assert os.path.exists(docmodel + ".dvec")

        selection = str(tmp_path / "selection.csv")
        code, out, _ = run(capsys, "select", "--model", docmodel,
                           "--out", selection)
        assert code == 0
        with open(selection) as f:
            assert f.readline() == "rank,doc_id,min_distance\n"

        rundir = str(tmp_path / "run")
        code, out, _ = run(capsys, "refine", "--corpus", corpus,
                           "--candidates", cands, "--config", conf,
                           "--batch-size", "20", "--seed", "3",
                           "--threshold", "5.0", "--out", rundir)
        assert code == 0
        assert "converged" in out
        assert sorted(os.listdir(rundir)) == [
            "iterations.csv", "manifest.txt",
            "model.meta", "model.vec", "selection.csv"]
        manifest = read_manifest(os.path.join(rundir, "manifest.txt"))
        assert manifest["seed"] == "3"
        assert manifest["batch_size"] == "20"
        assert manifest["dim"] == "16"
        assert manifest["outputs"].split() == [
            "iterations.csv", "selection.csv", "model.vec", "model.meta"]

        model = os.path.join(rundir, "model")
        sims = str(tmp_path / "sims.csv")
        code, out, _ = run(capsys, "screen", "--model", model,
                           "--candidates", cands, "--preset", "orr",
                           "--out", sims)
        assert code == 0
        assert "Entries (Ori): 35" in out
        with open(sims) as f:
            assert f.readline() == "id,s_dielectric,s_conductivity,on_front\n"

        code, out, _ = run(capsys, "report", "--candidates", cands,
                           "--model", model, "--preset", "orr")
        assert code == 0
        assert "Entries (Ori): 35" in out
        assert "Entries (Selection):" in out

    def test_require_convergence_exit_code(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "40", "--rare-docs", "2")
        conf = write(str(tmp_path / "c.conf"), "dim = 8\nepochs = 1\n")
        code, _, _ = run(capsys, "refine",
                         "--corpus", os.path.join(data, "corpus.csv"),
                         "--candidates", os.path.join(data, "candidates.csv"),
                         "--config", conf, "--batch-size", "10",
                         "--threshold", "1e-12", "--require-convergence",
                         "--out", str(tmp_path / "run"))
        assert code == 3

    def test_synth_deterministic(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run(capsys, "synth", "--out", a, "--seed", "5", "--n-docs", "30", "--rare-docs", "2")
        run(capsys, "synth", "--out", b, "--seed", "5", "--n-docs", "30", "--rare-docs", "2")
        for name in ("corpus.csv", "candidates.csv"):
            with open(os.path.join(a, name), "rb") as f:
                first = f.read()
            with open(os.path.join(b, name), "rb") as f:
                second = f.read()
            assert first == second


class TestConfigPrecedence:
    def test_flag_overrides_config(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "30", "--rare-docs", "2")
        conf = write(str(tmp_path / "c.conf"), "dim = 8\nepochs = 1\nseed = 1\n")
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        corpus = os.path.join(data, "corpus.csv")
        # config seed 1 vs flag seed 2 must give different models
        run(capsys, "embed-docs", "--corpus", corpus, "--config", conf, "--out", out_a)
        run(capsys, "embed-docs", "--corpus", corpus, "--config", conf,
            "--seed", "2", "--out", out_b)
        with open(out_a + ".meta") as f:
            meta_a = f.read()
        with open(out_b + ".meta") as f:
            meta_b = f.read()
        assert "seed = 1" in meta_a
        assert "seed = 2" in meta_b

    def test_config_value_used_when_no_flag(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "30", "--rare-docs", "2")
        conf = write(str(tmp_path / "c.conf"), "dim = 9\nepochs = 1\n")
        out = str(tmp_path / "m")
        run(capsys, "embed-docs", "--corpus", os.path.join(data, "corpus.csv"),
            "--config", conf, "--out", out)
        with open(out + ".meta") as f:
            assert "dim = 9" in f.read()

    def test_misspelled_ingest_key_is_data_error(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "30", "--rare-docs", "2")
        conf = write(str(tmp_path / "c.conf"), "text_colum = summary\n")
        code, _, err = run(capsys, "ingest", "--corpus", os.path.join(data, "corpus.csv"),
                           "--config", conf, "--out", str(tmp_path / "tokens"))
        assert code == 2
        assert f"{conf}: unknown config key 'text_colum'" in err
        assert not os.path.exists(tmp_path / "tokens")

    def test_misspelled_refine_key_is_data_error(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "30", "--rare-docs", "2")
        conf = write(str(tmp_path / "c.conf"), "dim = 8\nepoch = 3\n")
        code, _, err = run(capsys, "refine", "--corpus", os.path.join(data, "corpus.csv"),
                           "--candidates", os.path.join(data, "candidates.csv"),
                           "--config", conf, "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"{conf}: unknown config key 'epoch'" in err

    def test_benchmark_refine_keys_accepted(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "30", "--rare-docs", "2")
        conf = write(str(tmp_path / "c.conf"),
                     "dim = 8\nepochs = 1\nwindow = 2\nbatch_size = 15\n"
                     "max_iterations = 2\nthreshold = 1e-300\n")
        code, out, _ = run(capsys, "refine", "--corpus", os.path.join(data, "corpus.csv"),
                           "--candidates", os.path.join(data, "candidates.csv"),
                           "--config", conf, "--out", str(tmp_path / "run"))
        assert code == 0
        assert "t=2 documents=30 " in out
        assert "no convergence within 2 iterations" in out


class TestScreenTable:
    def test_quoted_id_reads_back_as_one_field(self, capsys, tmp_path):
        base = planted_model(str(tmp_path / "m"))
        cands = write(str(tmp_path / "k.csv"), 'id,Ni,Pd\n"a,b",1,0\nplain,0.5,0.5\n')
        table = str(tmp_path / "t.csv")
        code, out, _ = run(capsys, "screen", "--model", base, "--candidates", cands,
                           "--out", table)
        assert code == 0
        with open(table, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["id", "s_dielectric", "s_conductivity", "on_front"]
        assert [r[0] for r in rows[1:]] == ["a,b", "plain"]
        assert all(len(r) == 4 for r in rows)

    def test_plain_rows_keep_their_bytes(self, capsys, tmp_path):
        base = planted_model(str(tmp_path / "m"))
        cands = write(str(tmp_path / "k.csv"),
                      "id,Ni,Pd,Pt,Ru\nNi1,1,0,0,0\nPd1,0,1,0,0\nPt1,0,0,1,0\nRu1,0,0,0,1\n")
        table = str(tmp_path / "t.csv")
        code, out, _ = run(capsys, "screen", "--model", base, "--candidates", cands,
                           "--preset", "orr", "--out", table)
        assert code == 0
        # unit element vectors give their own x and y back exactly
        with open(table, "rb") as f:
            assert f.read() == (b"id,s_dielectric,s_conductivity,on_front\n"
                                b"Ni1,0.10000000000000001,0.5,1\n"
                                b"Pd1,0.29999999999999999,0.59999999999999998,1\n"
                                b"Pt1,0.59999999999999998,0.69999999999999996,1\n"
                                b"Ru1,0.5,0.40000000000000002,0\n")
        assert out.splitlines()[:3] == ["Entries (Ori): 4", "Entries (Front): 3",
                                         "Ni1 0.100000 0.500000"]


def planted_model(base):
    """Word model with hand-placed similarity geometry for report tests.

    Unit element vectors (x, y, z) give s_dielectric = x and
    s_conductivity = y exactly, with z absorbing the slack.
    """
    def unit(x, y):
        return [x, y, float(np.sqrt(1.0 - x * x - y * y))]

    tokens = {
        "dielectric": [1.0, 0.0, 0.0],
        "conductivity": [0.0, 1.0, 0.0],
        "Ni": unit(0.1, 0.5),
        "Pd": unit(0.3, 0.6),
        "Pt": unit(0.6, 0.7),
        "Ru": unit(0.5, 0.4),
    }
    names = list(tokens)
    vectors = np.array([tokens[t] for t in names])
    model = WordModel(
        vocab=Vocabulary(index={t: i for i, t in enumerate(names)}, counts=None),
        vectors=vectors,
        node_vectors=np.zeros((len(names) - 1, 3)),
        config=EmbeddingConfig(dim=3),
        seed=0,
    )
    save_model(model, base)
    return base


class TestReportMeasuredExtremes:
    def test_selection_max_is_printed_with_two_decimals(self, capsys, tmp_path):
        base = planted_model(str(tmp_path / "m"))
        cands = write(str(tmp_path / "cands.csv"),
                      "id,Ni,Pd,Pt,Ru,current_density,potential\n"
                      "Ni1,1,0,0,0,0.82,850\n"
                      "Pd1,0,1,0,0,6.9,850\n"
                      "Pt1,0,0,1,0,3.0,850\n"
                      "Ru1,0,0,0,1,6.44,850\n")
        code, out, _ = run(capsys, "report", "--candidates", cands,
                           "--model", base, "--full-model", base,
                           "--preset", "orr")
        assert code == 0
        lines = out.splitlines()
        # Ni1, Pd1, Pt1 trade off; Ru1 is dominated by Pd1
        assert "Potential (mV): 850" in lines
        assert "Entries (Ori): 4" in lines
        assert "Entries (Full): 3" in lines
        assert "Entries (Selection): 3" in lines
        assert "Max (Ori): 6.90" in lines
        assert "Max (Selection): 6.90" in lines
        assert "Min (Selection): 0.82" in lines

    def test_round_trip_model_keeps_geometry(self, tmp_path):
        base = planted_model(str(tmp_path / "m"))
        loaded = load_model(base)
        assert loaded.vocab.tokens()[0] == "dielectric"
        np.testing.assert_allclose(
            np.linalg.norm(loaded.vectors[2:], axis=1), 1.0, atol=1e-12
        )
