"""litscreen benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from ``--seed`` in a scratch directory under
``.bench_work/`` and deleted afterwards; a full record of the run (machine,
set-up, every op, check results, digests and spans) goes to
``.bench_results/``. The last line of standard output is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.

Set-up and measurement each run in a child process, so the reported peak
memory is that of the workload's ops alone. Every op's outputs are checked
here, outside the timed region.

Times are rescaled to a reference core speed by the probe in speed.py, so
that co-tenants of a shared machine do not move them; the raw wall times
are reported next to them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170.0  # the whole run, both children included
SETUP_REPEATS = 5
FILE_CACHE_NOTE = (
    "the file cache is not dropped: inputs and models are read back from the page "
    "cache right after set-up wrote them, so *_mbps are cached-read rates and say "
    "nothing about disk behaviour")


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _child(args: list[str], result: str, env: dict, deadline: float) -> dict:
    """Run worker.py to completion (or kill it at the deadline) and load its record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args + [result]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left to run {args[0]}")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{args[0]} did not finish within the deadline") from None
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {done.returncode}:\n{done.stderr[-2000:]}")
    with open(result, encoding="utf-8") as f:
        return json.load(f)


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1 - p / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1]
            return f"p{p:g} {cut:.4f} s"
    return "no percentile has ten samples beyond it"


def check_ops(workload, inputs: str, ops: list[dict], seed: int) -> list[list[str]]:
    """Problems per op: a raise, a non-zero exit, a failed output check, or
    artifacts or stdout that differ from the first successful op's.

    Only the first successful op's outputs are kept and checked in full; an
    op whose artifacts and stdout match it byte for byte shares its result.
    """
    from worker import succeeded

    first, first_found = None, []
    problems = []
    for op in ops:
        found = []
        if not succeeded(op):
            found.append(f"exit {op['exit_code']}: {op['error'] or op['stderr']}")
        elif first is None:
            first = op
            if op["out"] is None:
                first_found = ["no output directory"]
            else:
                try:
                    first_found = workload.check(inputs, op["out"], op["stdout"], seed)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    first_found = [f"output unreadable: {exc!r}"]
            found += first_found
        elif op["digests"] != first["digests"]:
            changed = sorted(k for k in set(first["digests"]) | set(op["digests"])
                             if first["digests"].get(k) != op["digests"].get(k))
            found.append(f"artifact digests differ from the first op's: {changed}")
        elif op["stdout"] != first["stdout"]:
            found.append("stdout differs from the first op's")
        else:
            found += first_found
        problems.append(found)
    return problems


def layer_summary(measured: dict, run_s: float, throughput: str, failed: int) -> dict:
    """Median per-layer metrics of the traced ops, plus the trace's own figures."""
    from tracing import LAYER_METRICS

    layers = measured["layers"]
    units = dict(LAYER_METRICS, **{"trace.unaccounted_s": "s"})
    out = {name: {"value": statistics.median(l[name] for l in layers), "unit": unit}
           for name, unit in units.items()}
    untraced = [op for op in measured["ops"] if not op["traced"]]
    traced_s = statistics.median(op["run_s"] for op in measured["ops"] if op["traced"])
    pairs = out["embedding.doc2vec_steps"]["value"] + out["embedding.word2vec_pairs"]["value"]
    scored = out["materials.scored"]["value"]
    out.update({
        "bench.untraced_run_s": {"value": run_s, "unit": "s"},
        "bench.traced_run_s": {"value": traced_s, "unit": "s"},
        "bench.trace_overhead_s": {"value": traced_s - run_s, "unit": "s"},
        "bench.pairs_per_s": {"value": pairs / run_s if throughput == "pairs" else 0.0,
                              "unit": "1/s"},
        "bench.candidates_per_s": {"value": scored / run_s if throughput == "candidates" else 0.0,
                                   "unit": "1/s"},
        "bench.fail_ratio": {"value": failed / len(measured["ops"]), "unit": "ratio"},
        "bench.untraced_wall_s": {"value": statistics.median(op["wall_s"] for op in untraced),
                                  "unit": "s"},
        "bench.probe_s": {"value": statistics.median(op["probe_s"] for op in untraced),
                          "unit": "s"},
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure (split in half when tracing)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "litscreen", "cli.py")):
        print(f"error: no litscreen source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from speed import REF_S
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    machine = {"nproc": nproc, "python": platform.python_version(),
               "blas_threads": nproc, "git_sha": _git_sha(),
               "loadavg_start": os.getloadavg(), "file_cache": FILE_CACHE_NOTE}

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setups = [_child(["setup", args.workload, str(args.seed), work],
                         os.path.join(work, "setup.json"), env, deadline)
                  for _ in range(SETUP_REPEATS)]
        measured = _child(["measure", args.workload, str(args.seed), work, str(args.seconds),
                           str(args.trace)], os.path.join(work, "measure.json"), env, deadline)
        problems = check_ops(workload, os.path.join(work, "inputs"), measured["ops"], args.seed)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine.update(numpy=measured["numpy"], loadavg_end=os.getloadavg())

    setup_s = statistics.median(s["setup_s"] for s in setups)
    ops = measured["ops"]
    failed = sum(1 for p in problems if p)
    untraced = [op for op in ops if not op["traced"]]
    times = [op["run_s"] for op in untraced]
    walls = [op["wall_s"] for op in untraced]
    run_s = statistics.median(times)
    if args.trace:
        metrics = layer_summary(measured, run_s, workload.throughput, failed)
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "setups": setups,
              "ops": [{k: v for k, v in op.items() if k != "stdout"} for op in ops],
              "problems": problems, "metrics": metrics, "spans": measured["spans"]}
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    record_path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops, {failed} failed "
          f"(fail_ratio {failed / len(ops):g})")
    print(f"  run_s {run_s:.4f} s: median of {len(times)} untraced ops at the reference "
          f"speed; {tail_note(times)}")
    print(f"  raw wall per op: fastest {min(walls):.4f} s, median {statistics.median(walls):.4f} s;"
          f" probe kernel median {statistics.median(op['probe_s'] for op in untraced) * 1e3:.4f}"
          f" ms (reference {REF_S * 1e3:g} ms)")
    print(f"  setup_s {setup_s:.4f} s: median of {SETUP_REPEATS} set-ups at the reference "
          f"speed, each a fresh process importing the package and building the inputs "
          f"(import + generate wall, probe): "
          + ", ".join(f"{s['import_s']:.3f} + {s['generate_s']:.3f} s, "
                      f"{s['probe_s'] * 1e3:.3f} ms" for s in setups))
    print(f"  peak_rss_mb {measured['peak_rss_mb']:.1f} MB (measuring process)")
    for i, (op, found) in enumerate(zip(ops, problems)):
        mark = "FAILED " + "; ".join(found) if found else "ok"
        print(f"  op {i}{' traced' if op['traced'] else ''} {op['run_s']:.4f} s "
              f"(wall {op['wall_s']:.4f} s) {mark}")
    for name, digest in sorted(next((op["digests"] for op in ops if "digests" in op), {}).items()):
        print(f"  sha256 {digest} {name}")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(f"  machine {json.dumps(machine)}")
    print(f"  record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
