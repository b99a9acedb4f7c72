"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import litscreen.cli  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import speed  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import RefinePlanted, RefineZipf, ScreenWide, digests  # noqa: E402

TINY = {
    "refine-planted": RefinePlanted(n_docs=60, rare_docs=4, dim=8, epochs=1),
    "refine-zipf": RefineZipf(n_docs=60, filler=10, types=300, dim=8, batch_size=20),
    "screen-wide": ScreenWide(vocab=60, dim=8, steps=4, spot_checks=16),
}


def _measured(tmp_path, name, trace=False, seconds=0.0):
    workload = TINY[name]
    work = str(tmp_path)
    os.makedirs(os.path.join(work, "inputs"))
    workload.generate(os.path.join(work, "inputs"), seed=5)
    return workload, work, worker.measure(workload, work, seconds, trace)


def test_probe_samples_a_region_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe(interval=0.005) as probe:
        time.sleep(0.05)  # a sleep is cut short by each tick and resumed
    assert len(probe.samples) >= 4
    assert all(s > 0 for s in probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with speed.Probe(interval=10.0) as probe:
        pass
    assert len(probe.samples) == 2  # one before and one after, even with no tick


def test_rescale_is_wall_time_at_the_reference_speed():
    assert speed.rescale(3.0, speed.REF_S) == pytest.approx(3.0)
    assert speed.rescale(3.0, 2 * speed.REF_S) == pytest.approx(1.5)


def test_self_times_on_hand_built_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.first", 5.0, 6.0, 3, 0),
        Span("b.overlapping", 5.5, 7.0, 3, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_layer_metrics_split_named_and_other_time():
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]).__next__
    tracer = Tracer(clock=clock)
    tracer.begin_op()
    load = tracer.wrap("corpus.load_corpus", lambda path: path)
    central = tracer.wrap("selection.central_document", lambda points: 0)

    def main():
        load("x")
        central([])

    tracer.wrap("cli.main", main)()
    m = layer_metrics(tracer.ops[0])
    assert m["corpus.load_s"] == pytest.approx(2.0)
    assert m["trace.other_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(6.0)
    assert m["trace.spans"] == 3


def test_tracer_restores_the_modules():
    original = litscreen.cli.train_doc2vec
    tracer = Tracer()
    tracer.install()
    try:
        assert litscreen.cli.train_doc2vec is not original
        assert litscreen.refine.train_word2vec.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert litscreen.cli.train_doc2vec is original
    assert not hasattr(litscreen.refine.train_word2vec, "__wrapped__")


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_that_runs(tmp_path, name):
    workload, _, measured = _measured(tmp_path, name, trace=True)
    assert [op["traced"] for op in measured["ops"]] == [False, True]
    assert all(op["exit_code"] == 0 for op in measured["ops"])
    summary = run.layer_summary(measured, measured["ops"][0]["wall_s"], workload.throughput, 0)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    assert {k: v["unit"] for k, v in summary.items()} == declared

    common = ["materials.load_s", "materials.score_s", "materials.scored",
              "materials.scored_per_s", "cli.self_s", "persistence.model_bytes"]
    refine = ["embedding." + k for k in (
        "word2vec_s", "word2vec_calls", "word2vec_pairs", "word2vec_pairs_per_s",
        "code_len_mean", "word2vec_gflop_computed", "doc2vec_s", "doc2vec_steps",
        "doc2vec_steps_per_s")] + [
        "persistence.save_model_s", "persistence.save_model_mbps",
        "persistence.other_write_s", "corpus.load_s", "corpus.preprocess_s",
        "corpus.tokens", "corpus.tokens_per_s", "selection.pca_s", "selection.fps_s",
        "selection.points", "refine.iterations", "refine.self_s", "bench.pairs_per_s"]
    screen = ["persistence.load_model_s", "persistence.load_model_mbps", "screen.pareto_s",
              "screen.front_size", "bench.candidates_per_s"]
    expected = common + (screen if name == "screen-wide" else refine)
    assert [k for k in expected if not summary[k]["value"] > 0] == []
    absent = refine if name == "screen-wide" else screen
    assert [k for k in absent if summary[k]["value"] != 0] == []
    assert abs(summary["trace.unaccounted_s"]["value"]) < 0.01


def test_untraced_run_installs_no_wrappers(tmp_path):
    original = litscreen.refine.train_word2vec
    _, _, measured = _measured(tmp_path, "refine-zipf")
    assert measured["layers"] == [] and measured["spans"] == []
    assert litscreen.refine.train_word2vec is original


def test_refine_check_passes_and_catches_a_changed_log(tmp_path):
    workload, work, measured = _measured(tmp_path, "refine-zipf")
    inputs = os.path.join(work, "inputs")
    assert run.check_ops(workload, inputs, measured["ops"], 5) == [[]]
    log = os.path.join(measured["ops"][0]["out"], "iterations.csv")
    with open(log, encoding="utf-8") as f:
        lines = f.readlines()
    with open(log, "w", encoding="utf-8") as f:
        f.writelines(lines[:-1])
    assert run.check_ops(workload, inputs, measured["ops"], 5) != [[]]


def test_changed_artifact_digest_is_a_failed_op(tmp_path):
    workload = TINY["screen-wide"]
    work = str(tmp_path)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    workload.generate(inputs, seed=5)
    out = os.path.join(work, "out")
    ops = [worker._run_op(litscreen.cli.main, workload.argv(inputs, out)) for _ in range(2)]
    ops[0]["out"] = out
    ops[0]["digests"] = ops[1]["digests"] = digests(out)
    assert run.check_ops(workload, inputs, ops, 5) == [[], []]
    with open(os.path.join(out, "table.csv"), "a", encoding="utf-8") as f:
        f.write("\n")
    ops[1]["digests"] = digests(out)
    problems = run.check_ops(workload, inputs, ops, 5)
    assert problems[0] == []
    assert any("digests differ" in p for p in problems[1])
    ops[1].update(digests=ops[0]["digests"], stdout=ops[1]["stdout"] + "extra\n")
    assert any("stdout differs" in p for p in run.check_ops(workload, inputs, ops, 5)[1])


def test_only_the_first_ops_outputs_are_kept(tmp_path):
    _, work, measured = _measured(tmp_path, "screen-wide", trace=True)
    first, second = measured["ops"]
    assert first["out"] == os.path.join(work, "first") and second["out"] is None
    assert first["digests"] == second["digests"] == digests(first["out"])
    assert not os.path.exists(os.path.join(work, "out"))


def _rewrite_table(path, edit):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    edit(lines)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("tamper", ["drop_front_point", "add_dominated_point"])
def test_tampered_front_is_a_failed_op(tmp_path, tamper):
    workload = TINY["screen-wide"]
    inputs = os.path.join(str(tmp_path), "inputs")
    os.makedirs(inputs)
    workload.generate(inputs, seed=5)
    out = os.path.join(str(tmp_path), "op0")
    op = worker._run_op(litscreen.cli.main, workload.argv(inputs, out))
    assert op["exit_code"] == 0
    table = os.path.join(out, "table.csv")
    assert workload.check(inputs, out, op["stdout"], 5) == []

    target = "1" if tamper == "drop_front_point" else "0"

    def flip(lines):
        i = next(i for i, line in enumerate(lines[1:], 1) if line.endswith("," + target))
        lines[i] = lines[i][:-1] + ("0" if target == "1" else "1")

    _rewrite_table(table, flip)
    problems = workload.check(inputs, out, op["stdout"], 5)
    assert any("printed front" in p for p in problems)
    expected = "not dominated" if tamper == "drop_front_point" else "is dominated"
    assert any(expected in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert done.returncode != 0
    assert done.stdout == ""
