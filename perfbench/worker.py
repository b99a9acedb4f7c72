"""Child process of the benchmark: set up a workload's inputs, or run its ops.

    python3 perfbench/worker.py setup   WORKLOAD SEED DIR RESULT
    python3 perfbench/worker.py measure WORKLOAD SEED DIR SECONDS TRACE RESULT

``setup`` times the package import and building the inputs into
DIR/inputs; numpy is loaded before, by the speed probe. ``measure`` runs ``litscreen.cli.main`` in-process
on those inputs until SECONDS of op time are spent; with TRACE=1 it first
runs untraced ops for half the budget, then traced ops for the other half.
Either mode writes its record as JSON to RESULT.

Every op writes to the same output directory, so every op's stdout is
comparable. After each op, outside the timed region, the sha256 of every
output file is taken; the first successful op's outputs are moved to
DIR/first and the others are deleted. Output checks are left to the parent,
so this process's peak memory is that of the ops alone.
"""
from __future__ import annotations

import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from speed import Probe, rescale


def setup(workload_name: str, seed: int, work: str) -> dict:
    inputs = os.path.join(work, "inputs")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    with Probe() as probe:
        t0 = time.perf_counter()
        import litscreen.cli  # noqa: F401  (the import is part of set-up)
        import_s = time.perf_counter() - t0

        from workloads import WORKLOADS

        t = time.perf_counter()
        facts = WORKLOADS[workload_name].generate(inputs, seed)
        generate_s = time.perf_counter() - t
    wall = import_s + generate_s
    return {"import_s": import_s, "generate_s": generate_s, "wall_s": wall,
            "probe_s": probe.mean_s, "setup_s": rescale(wall, probe.mean_s), "facts": facts}


def succeeded(op: dict) -> bool:
    """Whether an op returned 0 without raising; its outputs are checked apart."""
    return op["error"] is None and op["exit_code"] == 0


def _run_op(cli_main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(err), Probe() as probe:
        t0 = time.perf_counter()
        try:
            code = cli_main(argv)
        except Exception:  # an op that raises is a failed op, not a failed run
            error = traceback.format_exc(limit=5)
        wall = time.perf_counter() - t0
    return {"wall_s": wall, "probe_s": probe.mean_s, "run_s": rescale(wall, probe.mean_s),
            "exit_code": code, "error": error, "stderr": err.getvalue(),
            "stdout": out.getvalue()}


def measure(workload, work: str, seconds: float, trace: bool) -> dict:
    import litscreen.cli as cli

    from tracing import Tracer, layer_metrics
    from workloads import digests

    inputs = os.path.join(work, "inputs")
    out, first = os.path.join(work, "out"), os.path.join(work, "first")
    ops: list[dict] = []
    layers: list[dict] = []
    spans: list[list[dict]] = []

    def phase(budget: float, tracer: Tracer | None):
        walls: list[float] = []
        # start another op only while it is expected to end inside the budget
        while not walls or sum(walls) + statistics.median(walls) <= budget:
            shutil.rmtree(out, ignore_errors=True)
            argv = workload.argv(inputs, out)
            if tracer is None:
                op = _run_op(cli.main, argv)
            else:
                tracer.begin_op()
                op = _run_op(tracer.wrap("cli.main", cli.main), argv)
                op_spans = tracer.ops[-1]
                layers.append(layer_metrics(op_spans))
                layers[-1]["trace.unaccounted_s"] = op["wall_s"] - op_spans[0].duration
                spans.append([s.as_json() for s in op_spans])
                for s in op_spans:
                    s.info = {}  # drop the references the metrics needed
            op.update(traced=tracer is not None, out=None, digests={})
            if os.path.isdir(out):
                op["digests"] = digests(out)
                if succeeded(op) and not any(map(succeeded, ops)):
                    os.rename(out, first)
                    op["out"] = first
                else:
                    shutil.rmtree(out)
            ops.append(op)
            walls.append(op["wall_s"])  # the budget is spent in wall time

    if trace:
        phase(seconds / 2, None)
        tracer = Tracer()
        tracer.install()
        try:
            phase(seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        phase(seconds, None)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import numpy

    return {"ops": ops, "layers": layers, "spans": spans, "peak_rss_mb": peak_kb / 1024,
            "numpy": numpy.__version__}


def main(argv: list[str]) -> int:
    mode, workload, seed, work = argv[0], argv[1], int(argv[2]), argv[3]
    if mode == "setup":
        record = setup(workload, seed, work)
    elif mode == "measure":
        from workloads import WORKLOADS

        record = measure(WORKLOADS[workload], work, float(argv[4]), argv[5] == "1")
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 1
    with open(argv[-1], "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
