import contextlib
import csv
import functools
import io
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from helpers import read_manifest

import litscreen
from litscreen import cli, embedding, kernel
from litscreen.cli import main
from litscreen.corpus import Vocabulary
from litscreen.embedding import EmbeddingConfig, WordModel
from litscreen.materials import (
    CandidateTable,
    enumerate_simplex,
    load_compositions,
    similarity_points,
)
from litscreen.persistence import config_pairs, load_model, save_model
from litscreen.refine import RefineConfig
from litscreen.screen import Objectives, pareto_front
from litscreen.synth import write_candidates_csv


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
        corpus = str(tmp_path / "absent.csv")
        for command, inputs in (("ingest", []), ("refine", ["--candidates", "k.csv"])):
            code, _, err = run(capsys, command, "--corpus", corpus, *inputs,
                               "--out", str(tmp_path / "t"))
            assert code == 2
            assert err == f"error: corpus file not found: {corpus}\n"

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

    @pytest.mark.parametrize("argv, message", [
        (["screen", "--model", "m", "--candidates", "k.csv", "--elements", "Ag,Ag"],
         "argument --elements: repeated element symbols in 'Ag,Ag'"),
        (["screen", "--model", "m", "--candidates", "k.csv", "--elements", ","],
         "argument --elements: expected comma-separated element symbols"),
        (["refine", "--corpus", "c.csv", "--candidates", "k.csv", "--threshold", "0",
          "--out", "o"], "argument --threshold: expected a positive finite number, got 0"),
        (["screen", "--model", "m", "--candidates", "k.csv", "--elements", "Ag,Pt,Ba,,Ti"],
         "argument --elements: empty element symbol in 'Ag,Pt,Ba,,Ti'"),
        (["report", "--candidates", "k.csv", "--elements", "Ag,Pt,"],
         "argument --elements: empty element symbol in 'Ag,Pt,'"),
        (["refine", "--corpus", "c.csv", "--candidates", "k.csv", "--seed", "-1",
          "--out", "o"], "argument --seed: expected a non-negative integer, got -1"),
        (["embed-docs", "--corpus", "c.csv", "--seed", "-1", "--out", "o"],
         "argument --seed: expected a non-negative integer, got -1"),
        (["synth", "--out", "o", "--seed", "-1"],
         "argument --seed: expected a non-negative integer, got -1"),
        (["synth", "--out", "o", "--n-docs", "3"], "argument --n-docs: n_docs must be at least 4"),
        (["synth", "--out", "o", "--n-docs", "10", "--rare-docs", "6"],
         "argument --rare-docs: rare_docs must fit inside the dielectric half"),
    ], ids=["repeated_element", "no_element", "zero_threshold", "empty_element",
            "trailing_comma", "refine_seed", "embed_docs_seed", "synth_seed", "n_docs",
            "rare_docs"])
    def test_bad_flag_value_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"litscreen {argv[0]}: error: {message}\n")
        assert os.listdir(tmp_path) == []

    def test_nonpositive_batch_size_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "refine", "--corpus", "c.csv", "--candidates", "k.csv",
            "--batch-size", "0", "--out", str(tmp_path / "o"),
        )
        assert code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--corpus", "c.csv"), ("--text-column", "x"), ("--id-column", "x"),
        ("--seed", "1"), ("--config", "c.conf"), ("--batch-size", "20"),
    ], ids=["corpus", "text_column", "id_column", "seed", "config", "batch_size"])
    def test_select_reads_only_model_and_out(self, capsys, tmp_path, monkeypatch,
                                             flag, value):
        # a saved document model is select's one input; embed-docs trains it
        monkeypatch.chdir(tmp_path)  # c.conf is the model's own config file
        base = saved_doc_model(capsys, tmp_path)
        out = str(tmp_path / "s.csv")
        code, printed, err = run(capsys, "select", "--model", base, flag, value, "--out", out)
        assert (code, printed) == (1, "")
        assert f"unrecognized arguments: {flag} " in err
        assert not os.path.exists(out)

    def test_select_needs_a_model(self, capsys, tmp_path):
        code, out, err = run(capsys, "select", "--out", str(tmp_path / "s.csv"))
        assert (code, out) == (1, "")
        assert "the following arguments are required: --model" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_potential_is_usage_error(self, capsys, value):
        code, out, err = run(capsys, "report", "--candidates", "k.csv", f"--potential={value}")
        assert (code, out) == (1, "")
        assert f"expected a finite number, got {value}" in err

    def test_repeated_anchor_is_usage_error(self, capsys):
        code, out, err = run(capsys, "screen", "--model", "m", "--candidates", "k.csv",
                             "--anchors", "dielectric,dielectric", "--preset", "orr")
        assert (code, out) == (1, "")
        assert "the two anchor terms must differ" in err

    def test_version_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--version")
        assert code == 0


def write_bytes(path, data):
    with open(path, "wb") as f:
        f.write(data)
    return path


def saved_doc_model(capsys, tmp_path):
    """Base path of a dim-4 document model of documents a, b and c that
    ``embed-docs`` saved under ``tmp_path``."""
    tokens = write(str(tmp_path / "c.tokens"),
                   "litscreen-tokens/1 3\na\tAg films\nb\tPt films\nc\tAg Pt\n")
    conf = write(str(tmp_path / "c.conf"), "dim = 4\nepochs = 1\n")
    base = str(tmp_path / "d")
    assert run(capsys, "embed-docs", "--corpus", tokens, "--config", conf,
               "--out", base)[0] == 0
    return base


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

    @pytest.mark.parametrize("name, data, line", [
        ("c.csv", b"caf\xe9,abstract\nx,y\n", 1),
        ("c.csv", b"id,abstract\na,caf\xe9\n", 2),
        ("c.tokens", b"litscreen-tokens/1 1\na\tcaf\xe9\n", 2),
    ], ids=["corpus_first_line", "corpus_row", "tokens_file"])
    def test_non_utf8_corpus(self, capsys, tmp_path, name, data, line):
        corpus = write_bytes(str(tmp_path / name), data)
        code, _, err = self.ingest(capsys, tmp_path, corpus)
        assert code == 2
        assert f"{corpus} line {line}: not UTF-8 text" in err

    def test_byte_order_mark_tokens_file_loads_the_same(self, capsys, tmp_path):
        # read as a corpus CSV, the marked file would lack an abstract column
        text = "litscreen-tokens/1 2\na\tAg films\nb\tPt films\n"
        runs = []
        for name, raw in (("plain", text.encode("utf-8")), ("bom", text.encode("utf-8-sig"))):
            tokens = write_bytes(str(tmp_path / f"{name}.tokens"), raw)
            out = tmp_path / f"{name}.out"
            code, printed, err = run(capsys, "ingest", "--corpus", tokens, "--out", str(out))
            assert (code, err) == (0, "")
            runs.append((printed.replace(str(out), "OUT"), out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1] == text.encode("utf-8")

    @pytest.mark.parametrize("text, message", [
        ("litscreen-tokens/2 1\na\tAg films\n", "{}: not a litscreen-tokens/1 file"),
        ("litscreen-tokens/1 2\na\tAg films\nD2 Pt films\n",
         "{} row 2: no tab after the document id"),
    ], ids=["other_version", "row_without_tab"])
    def test_bad_tokens_file_is_data_error(self, capsys, tmp_path, text, message):
        tokens = write(str(tmp_path / "c.tokens"), text)
        code, _, err = self.ingest(capsys, tmp_path, tokens)
        assert code == 2
        assert message.format(tokens) in err

    @pytest.mark.parametrize("bad, message", [
        ("onlyone", "row 3: row has 1 fields, need at least 2"),
        ("x" * (csv.field_size_limit() + 1), "row 3: field larger than field limit"),
    ], ids=["short_row", "oversized_field"])
    def test_malformed_corpus_row_fails_every_command(self, capsys, tmp_path, bad, message):
        # no command reads on past a bad row with the rest of the corpus
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "30", "--rare-docs", "2")
        with open(os.path.join(data, "corpus.csv"), encoding="utf-8") as f:
            lines = f.read().splitlines(keepends=True)
        corpus = write(str(tmp_path / "c.csv"), "".join(lines[:3] + [bad + "\n"] + lines[3:]))
        conf = write(str(tmp_path / "c.conf"), "dim = 8\nepochs = 1\nmax_iterations = 2\n")
        out = str(tmp_path / "out")
        for command, extra in (("ingest", []), ("embed-docs", []),
                               ("refine", ["--candidates", os.path.join(data, "candidates.csv")])):
            code, printed, err = run(capsys, command, "--corpus", corpus, "--config", conf,
                                     *extra, "--out", out)
            assert (code, printed) == (2, ""), command
            assert err.startswith(f"error: {corpus} {message}"), command
            assert not os.path.exists(out)

    def test_column_flag_with_tokens_file_is_data_error(self, capsys, tmp_path):
        tokens = write(str(tmp_path / "c.tokens"), "litscreen-tokens/1 2\na\tAg films\nb\tPt\n")
        cands = write(str(tmp_path / "k.csv"), "id,Ag,Pt\na,1,0\n")
        for command, extra in (("ingest", []), ("embed-docs", []),
                               ("refine", ["--candidates", cands])):
            for flag, named in ((["--text-column", "title"], "--text-column"),
                                (["--id-column", "nope"], "--id-column")):
                code, printed, err = run(capsys, command, "--corpus", tokens, *flag, *extra,
                                         "--out", str(tmp_path / "out"))
                assert (code, printed) == (2, ""), command
                assert err == (f"error: {tokens} is a tokens file, which has no column "
                               f"for {named}\n"), command

    def test_column_keys_in_config_pass_over_tokens_file(self, capsys, tmp_path):
        # one config file serves a CSV ingest and the runs on its tokens file
        tokens = write(str(tmp_path / "c.tokens"), "litscreen-tokens/1 2\na\tAg films\nb\tPt\n")
        conf = write(str(tmp_path / "c.conf"), "text_column = title\nid_column = nope\n")
        out = tmp_path / "out.tokens"
        code, _, err = run(capsys, "ingest", "--corpus", tokens, "--config", conf,
                           "--out", str(out))
        assert (code, err) == (0, "")
        assert out.read_bytes() == (tmp_path / "c.tokens").read_bytes()

    def test_non_utf8_candidates_name_the_line(self, capsys, tmp_path):
        cands = write_bytes(str(tmp_path / "k.csv"),
                            b"id,Ag,Pt\n" + b"a,1,0\n" * 2 + b"caf\xe9,0,1\n")
        code, _, err = run(capsys, "screen", "--model", str(tmp_path / "m"),
                           "--candidates", cands)
        assert code == 2
        assert f"{cands} line 4: not UTF-8 text" in err

    def test_repeated_candidate_column_is_data_error(self, capsys, tmp_path):
        cands = write(str(tmp_path / "k.csv"), "id,Ag,Pt,Ag\na,1,0,0\n")
        code, _, err = run(capsys, "screen", "--model", str(tmp_path / "m"),
                           "--candidates", cands, "--elements", "Ag,Pt")
        assert code == 2
        assert f"{cands}: column 'Ag' repeats in the header" in err

    def test_non_utf8_config_file(self, capsys, tmp_path):
        corpus = write(str(tmp_path / "c.csv"), "abstract\nAg films\n")
        conf = write_bytes(str(tmp_path / "run.conf"), b"# caf\xe9\ntext_column = abstract\n")
        code, _, err = self.ingest(capsys, tmp_path, corpus, "--config", conf)
        assert code == 2
        assert f"{conf} line 1: not UTF-8 text" in err


class TestRepeatedLabels:
    """A document id or token that appears twice in a saved artifact exits 2,
    naming the file and the row, before anything is written."""

    def test_tokens_file_id(self, capsys, tmp_path):
        tokens = write(str(tmp_path / "c.tokens"),
                       "litscreen-tokens/1 2\na\tAg films\na\tPt films\n")
        base = str(tmp_path / "d")
        code, _, err = run(capsys, "embed-docs", "--corpus", tokens, "--out", base)
        assert code == 2
        assert f"{tokens} row 2: duplicate document id 'a'" in err
        assert os.listdir(tmp_path) == ["c.tokens"]

    def test_dvec_id(self, capsys, tmp_path):
        base = saved_doc_model(capsys, tmp_path)
        with open(base + ".labels") as f:
            assert f.read() == "a\nb\nc\n"
        write(base + ".labels", "a\nb\na\n")
        out = str(tmp_path / "sel.csv")
        code, _, err = run(capsys, "select", "--model", base, "--out", out)
        assert code == 2
        assert f"{base}.labels row 3: duplicate label 'a'" in err
        assert not os.path.exists(out)


class TestScreeningNeedsNoKernel:
    def test_saved_models_screen_without_the_library(self, capsys, tmp_path, monkeypatch):
        # train and save with the kernel library, then make every module that
        # imported it raise: loading and screening saved models must not call it
        data = str(tmp_path / "data")
        conf = write(str(tmp_path / "c.conf"), "dim = 8\nepochs = 1\n")
        run(capsys, "synth", "--out", data, "--n-docs", "40", "--rare-docs", "2")
        corpus = os.path.join(data, "corpus.csv")
        cands = os.path.join(data, "candidates.csv")
        word, docs = str(tmp_path / "run"), str(tmp_path / "docs")
        assert run(capsys, "refine", "--corpus", corpus, "--candidates", cands,
                   "--config", conf, "--batch-size", "20", "--threshold", "5",
                   "--out", word)[0] == 0
        assert run(capsys, "embed-docs", "--corpus", corpus, "--config", conf,
                   "--out", docs)[0] == 0
        model = os.path.join(word, "model")

        out = str(tmp_path / "out")
        commands = [
            ("screen", "--model", model, "--candidates", cands, "--preset", "orr",
             "--out", os.path.join(out, "table.csv")),
            ("report", "--candidates", cands, "--model", model, "--full-model", model),
            ("select", "--model", docs, "--out", os.path.join(out, "selection.csv")),
        ]

        def outputs():
            """Each command's (exit code, stdout, stderr) and the files they wrote."""
            os.makedirs(out)
            results = [run(capsys, *argv) for argv in commands]
            files = {}
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as f:
                    files[name] = f.read()
            shutil.rmtree(out)
            return results, files

        with_library = outputs()

        def no_library():
            raise RuntimeError("the kernel library was called")

        importers = [m for name, m in sys.modules.items()
                     if name.startswith("litscreen") and getattr(m, "library", None) is not None]
        assert importers
        for module in importers:
            monkeypatch.setattr(module, "library", no_library)
        without = outputs()
        assert [code for code, _, _ in without[0]] == [0, 0, 0]
        assert without[0] == with_library[0]
        assert without[1] == with_library[1] and len(without[1]) == 2


class TestInputAtFaultIsNamed:
    """Data that every reader accepts, but that a command cannot use, exits 2
    naming the input; no output is written."""

    def corpus_commands(self, tmp_path, corpus):
        cands = write(str(tmp_path / "k.csv"), "id,Ag,Pt\na,1,0\n")
        return [("ingest", "--corpus", corpus), ("embed-docs", "--corpus", corpus),
                ("refine", "--corpus", corpus, "--candidates", cands)]

    @pytest.mark.parametrize("name, text", [
        ("c.csv", "abstract\nAg films\n  \n"),
        ("c.tokens", "litscreen-tokens/1 1\na\tAg films\n"),
    ], ids=["corpus_csv", "tokens_file"])
    def test_fewer_than_two_documents_fail_where_the_corpus_is_read(self, capsys, tmp_path,
                                                                    name, text):
        # one document has no diversity order: PCA needs two rows
        corpus = write(str(tmp_path / name), text)
        out = str(tmp_path / "out")
        for argv in self.corpus_commands(tmp_path, corpus):
            code, printed, err = run(capsys, *argv, "--out", out)
            assert (code, printed) == (2, ""), argv[0]
            assert err == f"error: {corpus}: 1 documents, but at least 2 are needed\n"
            assert not os.path.exists(out)

    def test_empty_vocabulary_names_the_corpus(self, capsys, tmp_path):
        corpus = write(str(tmp_path / "c.csv"), "abstract\nThe film is of it.\nAnd it was.\n")
        conf = write(str(tmp_path / "c.conf"), "dim = 4\nepochs = 1\nmin_count = 2\n")
        out = str(tmp_path / "out")
        for argv in self.corpus_commands(tmp_path, corpus)[1:]:
            code, printed, err = run(capsys, *argv, "--config", conf, "--out", out)
            assert (code, printed) == (2, ""), argv[0]
            assert err == (f"error: {corpus}: no token reaches min_count=2; "
                           "vocabulary is empty\n")
            assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["screen", "report"])
    def test_missing_token_names_the_model_and_the_anchors(self, capsys, tmp_path, command):
        base = planted_model(str(tmp_path / "m"))
        model = ["--model", base] if command == "screen" else ["--full-model", base]
        cands = write(str(tmp_path / "k.csv"), "id,Ni,Pd\na,1,0\n")
        code, printed, err = run(capsys, command, *model, "--candidates", cands,
                                 "--anchors", "dielectric,zzz")
        assert (code, printed) == (2, "")
        assert err == f"error: {base}: anchor term 'zzz' (--anchors) is not in the vocabulary\n"
        cands = write(str(tmp_path / "k.csv"), "id,Ni,Ag\na,0.5,0.5\n")
        code, printed, err = run(capsys, command, *model, "--candidates", cands)
        assert (code, printed) == (2, "")
        assert err == f"error: {base}: token 'Ag' is not in the vocabulary\n"

    def test_missing_compiler_exits_2_without_a_traceback(self, capsys, tmp_path, monkeypatch):
        def no_compiler():
            raise kernel.KernelBuildError(
                "cannot run the C compiler cc to build the kernel library: no cc")

        monkeypatch.setattr(embedding, "library", no_compiler)
        data, out = str(tmp_path / "data"), str(tmp_path / "out")
        run(capsys, "synth", "--out", data, "--n-docs", "20", "--rare-docs", "2")
        code, printed, err = run(capsys, "refine", "--corpus", os.path.join(data, "corpus.csv"),
                                 "--candidates", os.path.join(data, "candidates.csv"),
                                 "--out", out)
        assert (code, printed) == (2, "")
        assert err == ("error: cannot run the C compiler cc to build the kernel library: "
                       "no cc\n")
        assert not os.path.exists(out)


class TestSelectMatchesRefine:
    def test_select_writes_the_selection_refine_writes(self, capsys, tmp_path, openblas):
        # 300 documents at dim 200: on two threads OpenBLAS's SVD gives
        # other bits than on one, and refine runs it on one
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "300", "--rare-docs", "3")
        corpus = os.path.join(data, "corpus.csv")
        conf = write(str(tmp_path / "c.conf"), "dim = 200\nepochs = 1\nwindow = 2\n")
        rundir = str(tmp_path / "run")
        assert run(capsys, "refine", "--corpus", corpus,
                   "--candidates", os.path.join(data, "candidates.csv"), "--config", conf,
                   "--batch-size", "150", "--threshold", "5", "--out", rundir)[0] == 0
        docs, selection = str(tmp_path / "docs"), str(tmp_path / "selection.csv")
        assert run(capsys, "embed-docs", "--corpus", corpus, "--config", conf,
                   "--out", docs)[0] == 0
        assert run(capsys, "select", "--model", docs, "--out", selection)[0] == 0
        with open(selection, "rb") as a, open(os.path.join(rundir, "selection.csv"), "rb") as b:
            assert a.read() == b.read()


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
        code, out, _ = run(capsys, "embed-docs", "--corpus", tokens,
                           "--config", conf, "--seed", "3", "--out", docmodel)
        assert code == 0
        files = [docmodel + ext for ext in (".npy", ".labels", ".meta")]
        assert f"model files: {' '.join(files)}" in out
        assert all(os.path.exists(f) for f in files)

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
            "model.labels", "model.meta", "model.npy", "selection.csv"]
        manifest = read_manifest(os.path.join(rundir, "manifest.txt"))
        assert manifest["seed"] == "3"
        assert manifest["batch_size"] == "20"
        assert manifest["dim"] == "16"
        assert manifest["outputs"].split() == [
            "iterations.csv", "selection.csv", "model.npy", "model.labels", "model.meta"]

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

    def test_byte_order_mark_config_gives_the_same_run(self, capsys, tmp_path):
        # spreadsheet and Windows editors save "UTF-8" text with a leading BOM
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "30", "--rare-docs", "2")
        corpus = os.path.join(data, "corpus.csv")
        text = "dim = 8\nepochs = 1\nseed = 1\n"
        runs = []
        for name, raw in (("plain", text.encode("utf-8")), ("bom", text.encode("utf-8-sig"))):
            conf = write_bytes(str(tmp_path / f"{name}.conf"), raw)
            out = tmp_path / name
            code, printed, err = run(capsys, "embed-docs", "--corpus", corpus, "--config", conf,
                                     "--out", str(out))
            assert (code, err) == (0, "")
            files = [out.with_suffix(ext).read_bytes() for ext in (".npy", ".labels", ".meta")]
            runs.append([printed.replace(str(out), "OUT"), *files])
        assert raw.startswith(b"\xef\xbb\xbf")
        assert runs[0] == runs[1]

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
        # a key has one spelling: each hyphenated one is unknown, even next to
        # the spelling it resembles
        for text, key in [("dim = 8\nepoch = 3\n", "epoch"),
                          ("text-column = abstract\n", "text-column"),
                          ("id-column = id\n", "id-column"),
                          ("batch-size = 10\n", "batch-size"),
                          ("max-iterations = 2\n", "max-iterations"),
                          ("alpha-min = 0.001\n", "alpha-min"),
                          ("min-count = 1\n", "min-count")]:
            conf = write(str(tmp_path / "c.conf"), text)
            code, out, err = run(capsys, "refine", "--corpus",
                                 os.path.join(data, "corpus.csv"),
                                 "--candidates", os.path.join(data, "candidates.csv"),
                                 "--config", conf, "--out", str(tmp_path / "run"))
            assert (code, out, err) == (2, "", f"error: {conf}: unknown config key {key!r}\n")
            assert not os.path.exists(tmp_path / "run")

    @pytest.mark.parametrize("command, line", [
        ("refine", "dim = abc"),
        ("refine", "anchors = dielectric"),
        ("refine", "batch_size = 0"),
        ("refine", "seed = -1"),
        ("refine", "alpha0 = inf"),
        ("refine", "max_iterations = 0"),
        ("refine", "max_iterations = -2"),
        ("screen", "preset = xyz"),
        ("screen", "anchors = dielectric,dielectric"),
        ("ingest", "batch_size = 0"),
    ])
    def test_bad_value_names_file_and_key(self, capsys, tmp_path, command, line):
        # the config is read before any input file, so none needs to exist,
        # and every key is checked, also one the command does not read
        conf = write(str(tmp_path / "c.conf"), line + "\n")
        inputs = {"refine": ["--candidates", "k.csv", "--corpus", "c.csv",
                             "--out", str(tmp_path / "run")],
                  "screen": ["--candidates", "k.csv", "--model", "m"],
                  "ingest": ["--corpus", "c.csv", "--out", str(tmp_path / "t")]}[command]
        code, out, err = run(capsys, command, "--config", conf, *inputs)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {conf}: {line.split()[0]} ")

    @pytest.mark.parametrize("text, error", [
        pytest.param("dim = 8\ndim = 16\n", "repeated key 'dim'", id="dim = 8\ndim = 16\n-dim"),
        # a key has one spelling, so text-column beside text_column is no
        # repeat: the hyphenated one is an unknown key
        pytest.param("text-column = abstract\ntext_column = summary\n",
                     "unknown config key 'text-column'",
                     id="text-column = abstract\ntext_column = summary\n-text_column"),
    ])
    def test_repeated_key_names_file_and_key(self, capsys, tmp_path, text, error):
        conf = write(str(tmp_path / "c.conf"), text)
        corpus = write(str(tmp_path / "c.csv"), "abstract,summary\nAg films,Pt films\n")
        code, out, err = run(capsys, "embed-docs", "--corpus", corpus, "--config", conf,
                             "--out", str(tmp_path / "m"))
        assert code == 2
        assert out == ""
        assert err == f"error: {conf}: {error}\n"

    def test_line_without_equals_names_file_and_line(self, capsys, tmp_path):
        conf = write(str(tmp_path / "c.conf"), "# run settings\n\ndim = 8\nbogus line\n")
        code, out, err = run(capsys, "ingest", "--config", conf, "--corpus", "c.csv",
                             "--out", str(tmp_path / "t"))
        assert (code, out) == (2, "")
        assert err == f"error: {conf} line 4: expected key = value, got 'bogus line'\n"

    def test_defaults_are_the_config_classes_defaults(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "30", "--rare-docs", "2")
        code, _, _ = run(capsys, "refine", "--corpus", os.path.join(data, "corpus.csv"),
                         "--candidates", os.path.join(data, "candidates.csv"),
                         "--out", str(tmp_path / "run"))
        assert code == 0
        manifest = read_manifest(str(tmp_path / "run" / "manifest.txt"))
        embedding = config_pairs(EmbeddingConfig())
        assert {key: manifest[key] for key in embedding} == embedding
        assert manifest["batch_size"] == str(RefineConfig().batch_size)
        assert manifest["threshold"] == f"{RefineConfig().threshold:.17g}"

    def test_manifest_records_the_settings_the_run_set(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n-docs", "30", "--rare-docs", "2")
        conf = write(str(tmp_path / "c.conf"),
                     "dim = 8\nepochs = 1\nmax_iterations = 2\ntext_column = abstract\n")
        rundir = str(tmp_path / "run")
        code, _, _ = run(capsys, "refine", "--corpus", os.path.join(data, "corpus.csv"),
                         "--candidates", os.path.join(data, "candidates.csv"),
                         "--config", conf, "--elements", "Ag,Pt,Ba,Ti", "--id-column", "id",
                         "--out", rundir)
        assert code == 0
        manifest = read_manifest(os.path.join(rundir, "manifest.txt"))
        keys = ("max_iterations", "elements", "text_column", "id_column")
        assert {key: manifest.get(key) for key in keys} == {
            "max_iterations": "2", "elements": "Ag,Pt,Ba,Ti",
            "text_column": "abstract", "id_column": "id"}
        # a tokens file has no columns, so the run reads neither config key
        tokens = str(tmp_path / "c.tokens")
        assert run(capsys, "ingest", "--corpus", os.path.join(data, "corpus.csv"),
                   "--id-column", "id", "--out", tokens)[0] == 0
        assert run(capsys, "refine", "--corpus", tokens,
                   "--candidates", os.path.join(data, "candidates.csv"),
                   "--config", conf, "--out", rundir)[0] == 0
        manifest = read_manifest(os.path.join(rundir, "manifest.txt"))
        assert [key for key in keys if key in manifest] == ["max_iterations"]

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

    @pytest.mark.parametrize("key", sorted(cli._CONFIG_KEYS))
    def test_every_key_is_read(self, command_output, key):
        # a key that no command reads leaves every output as it is
        command, value = KEY_READERS[key]
        base = "dim = 8\nepochs = 1\n" if command == "refine" else ""
        assert command_output(command, f"{base}{key} = {value}\n") != command_output(command, base)


# For each config key, a command that reads it and a valid value other than
# its default.
KEY_READERS = {
    **{key: ("embed-docs", value) for key, value in [
        ("dim", "4"), ("window", "2"), ("epochs", "2"), ("alpha0", "0.05"),
        ("alpha_min", "0.001"), ("min_count", "2"), ("seed", "1")]},
    "text_column": ("ingest", "title"), "id_column": ("ingest", "doc"),
    "anchors": ("refine", "conductivity,dielectric"), "batch_size": ("refine", "10"),
    "threshold": ("refine", "3"), "max_iterations": ("refine", "1"),
    "preset": ("screen", "oer"), "system": ("report", "NiPdPtRu"),
}


@pytest.fixture(scope="module")
def command_output(tmp_path_factory):
    """``(command, config text) -> output``: the ``.meta`` of ``embed-docs``,
    the tokens file of ``ingest``, or what ``refine``, ``screen`` or
    ``report`` prints, each run on the same small inputs, once per config
    text. It takes ``refine``'s printed lines, not its manifest, which
    records ``max_iterations`` whether or not the run obeyed it."""
    root = tmp_path_factory.mktemp("keys")
    data = str(root / "data")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", data, "--n-docs", "60", "--rare-docs", "3"]) == 0
    corpus, cands = os.path.join(data, "corpus.csv"), os.path.join(data, "candidates.csv")
    columns = write(str(root / "columns.csv"),
                    "doc,abstract,title\nd1,Ag films,Pt oxide\nd2,Pt films,Ag oxide\n")
    model = planted_model(str(root / "m"))
    measured = write(str(root / "k.csv"), "id,Ni,Pd,Pt,Ru,current_density\n"
                     "Ni1,1,0,0,0,0.82\nPd1,0,1,0,0,6.9\nPt1,0,0,1,0,3.0\nRu1,0,0,0,1,6.44\n")
    docs, tokens = str(root / "docs"), str(root / "c.tokens")
    inputs = {"embed-docs": ["--corpus", corpus, "--out", docs],
              "ingest": ["--corpus", columns, "--out", tokens],
              "refine": ["--corpus", corpus, "--candidates", cands, "--out", str(root / "run")],
              "screen": ["--model", model, "--candidates", measured],
              "report": ["--model", model, "--candidates", measured]}
    written = {"embed-docs": docs + ".meta", "ingest": tokens}

    @functools.cache
    def output(command, text):
        conf = write(str(root / "c.conf"), text)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main([command, "--config", conf, *inputs[command]]) == 0
        if command not in written:
            return printed.getvalue()
        with open(written[command], encoding="utf-8") as f:
            return f.read()

    return output


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


    def test_table_bytes_match_the_reference_formatting(self, capsys, tmp_path):
        base = planted_model(str(tmp_path / "m"))
        grid = enumerate_simplex(("Ni", "Pd", "Pt", "Ru"), 24)  # 2,925 rows
        odd = {7: "a,b", 100: 'say "hi"', 2500: "two\nlines", 2924: "é"}
        ids = [odd.get(i, comp_id) for i, comp_id in enumerate(grid.ids)]
        cands = str(tmp_path / "k.csv")
        write_candidates_csv(CandidateTable(grid.elements, ids, grid.fractions), cands)
        table = str(tmp_path / "t.csv")
        code, _, _ = run(capsys, "screen", "--model", base, "--candidates", cands,
                         "--preset", "orr", "--out", table)
        assert code == 0

        candidates, _, _ = load_compositions(cands)
        assert list(candidates.ids) == ids
        scores = similarity_points(load_model(base), candidates)
        front = set(pareto_front(scores, Objectives.preset("orr")))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "s_dielectric", "s_conductivity", "on_front"])
        writer.writerows((comp_id, f"{x:.17g}", f"{y:.17g}", int(i in front))
                         for i, (comp_id, (x, y)) in enumerate(zip(ids, scores.tolist())))
        with open(table, "rb") as f:
            assert f.read() == buf.getvalue().encode("utf-8")


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

    def test_potential_flag_overrides_the_csv(self, capsys, tmp_path):
        base = planted_model(str(tmp_path / "m"))
        cands = write(str(tmp_path / "cands.csv"),
                      "id,Ni,Pd,current_density,potential\nNi1,1,0,0.82,700\nPd1,0,1,6.9,700\n")
        code, out, _ = run(capsys, "report", "--candidates", cands, "--model", base,
                           "--potential", "850")
        assert code == 0
        assert out.splitlines()[0] == "Potential (mV): 850"
        assert "700" not in out

    def test_round_trip_model_keeps_geometry(self, tmp_path):
        base = planted_model(str(tmp_path / "m"))
        loaded = load_model(base)
        assert loaded.vocab.tokens()[0] == "dielectric"
        np.testing.assert_allclose(
            np.linalg.norm(loaded.vectors[2:], axis=1), 1.0, atol=1e-12
        )


def fresh_process(*argv):
    """(exit code, stdout) of ``litscreen`` run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(litscreen.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "litscreen.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


class TestOneProcess:
    def test_parser_reused_across_calls(self, capsys, tmp_path):
        # the parser is built once per process: a usage error, then a screen
        # and a refine, exit and print as they do in fresh processes
        data = str(tmp_path / "data")
        conf = write(str(tmp_path / "c.conf"), "dim = 8\nepochs = 1\n")
        assert run(capsys, "synth", "--out", data, "--n-docs", "40", "--rare-docs", "2")[0] == 0
        corpus = os.path.join(data, "corpus.csv")
        cands = os.path.join(data, "candidates.csv")
        refine_argv = ["refine", "--corpus", corpus, "--candidates", cands, "--config", conf,
                       "--batch-size", "10", "--threshold", "5", "--out"]
        assert run(capsys, *refine_argv, str(tmp_path / "model_run"))[0] == 0
        model = os.path.join(str(tmp_path / "model_run"), "model")
        calls = [
            ["screen", "--model", model, "--preset", "xyz", "--candidates", cands],
            ["screen", "--model", model, "--candidates", cands, "--preset", "orr"],
            [*refine_argv, str(tmp_path / "run")],
        ]
        in_process = [run(capsys, *argv)[:2] for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        calls[2][-1] = str(tmp_path / "fresh_run")
        assert in_process == [fresh_process(*argv) for argv in calls]
        assert [code for code, _ in in_process] == [1, 0, 0]


def test_import_loads_no_needless_modules():
    # each costs startup time on every command; the kernel build imports
    # subprocess itself, the refinement loop needs only threading, and only
    # the kernel cache key and the refine manifest take a sha256
    src = os.path.dirname(os.path.dirname(litscreen.__file__))
    code = ("import sys, litscreen.cli; "
            "print(' '.join(m for m in ('concurrent.futures', 'logging', 'subprocess', "
            "'hashlib') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.split() == []
