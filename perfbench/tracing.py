"""Span tracing around the calls the CLI and the refinement loop make.

A :class:`Tracer` replaces, on ``litscreen.cli`` and ``litscreen.refine``,
every public litscreen function those modules imported from another
litscreen module with a wrapper that records a span. Spans live in memory
until the benchmark writes them out; nothing is installed unless a traced
run asks for it, and :meth:`Tracer.uninstall` restores the originals.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter
from dataclasses import dataclass, field

from litscreen.embedding import build_huffman

#: Modules whose imported functions get wrapped. Their own functions are not
#: wrapped, so each module's work shows up as its span's self time.
HOST_MODULES = ("litscreen.cli", "litscreen.refine")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the same op's span list
    op: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op}


def _summary(name: str, arguments: dict, result) -> dict:
    """Cheap references picked at span end; counts are derived after the op."""
    if name == "embedding.train_word2vec":
        return {"pairs": result.pairs_trained, "vocab": result.vocab, "dim": result.config.dim}
    if name == "embedding.train_doc2vec":
        return {"token_lists": arguments["token_lists"], "config": arguments["config"]}
    if name == "corpus.preprocess_set":
        return {"docs": result}
    if name in ("persistence.save_model", "persistence.load_model"):
        return {"base": arguments["base"]}
    if name in ("materials.similarity_points", "screen.pareto_front"):
        return {"n": len(result)}
    if name == "selection.greedy_fps":
        return {"n": arguments["n"]}
    if name == "refine.run_refinement":
        return {"records": result.records}
    return {}


class Tracer:
    """Records spans (name, start, end, parent, op id) for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.ops: list[list[Span]] = []  # spans of each op, root first
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.ops[-1]
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.clock(), 0.0, parent, len(self.ops) - 1)
            self._stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            span.info = _summary(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self):
        """Wrap the cross-module litscreen functions the host modules call."""
        for host_name in HOST_MODULES:
            host = importlib.import_module(host_name)
            for attr, value in list(vars(host).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                origin = value.__module__
                if not origin.startswith("litscreen.") or origin == host_name:
                    continue
                layer = origin.rsplit(".", 1)[1]
                self._saved.append((host, attr, value))
                setattr(host, attr, self.wrap(f"{layer}.{value.__name__}", value))

    def uninstall(self):
        while self._saved:
            host, attr, value = self._saved.pop()
            setattr(host, attr, value)

    def begin_op(self):
        """Start a new op; spans recorded from now on belong to it."""
        self.ops.append([])


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    ``parent`` indexes into ``spans``; children may overlap each other, so
    their intervals are merged before subtracting.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


def _code_len_mean(vocab) -> float:
    """Token-weighted mean Huffman code length of a trained vocabulary."""
    lengths = build_huffman(vocab).code_lengths()
    counts = [vocab.counts[t] for t in vocab.tokens()]
    return sum(c * n for c, n in zip(counts, lengths)) / sum(counts)


def _model_bytes(base: str) -> int:
    return sum(os.path.getsize(base + ext) for ext in (".vec", ".nodes", ".meta")
               if os.path.exists(base + ext))


#: Spans whose self time a named per-layer metric reports; the rest is
#: ``trace.other_s``.
_NAMED = {
    "embedding.train_word2vec": "embedding.word2vec_s",
    "embedding.train_doc2vec": "embedding.doc2vec_s",
    "persistence.save_model": "persistence.save_model_s",
    "persistence.load_model": "persistence.load_model_s",
    "persistence.save_iteration_log": "persistence.other_write_s",
    "persistence.save_iteration_table": "persistence.other_write_s",
    "persistence.save_selection": "persistence.other_write_s",
    "persistence.write_manifest": "persistence.other_write_s",
    "materials.load_compositions": "materials.load_s",
    "materials.similarity_points": "materials.score_s",
    "screen.pareto_front": "screen.pareto_s",
    "corpus.load_corpus": "corpus.load_s",
    "corpus.preprocess_set": "corpus.preprocess_s",
    "selection.pca_project": "selection.pca_s",
    "selection.greedy_fps": "selection.fps_s",
    "refine.run_refinement": "refine.self_s",
    "cli.main": "cli.self_s",
}

#: Every per-layer metric a traced op reports, with its unit. Layers an op
#: never enters report 0.
LAYER_METRICS = {
    "embedding.word2vec_s": "s",
    "embedding.word2vec_calls": "count",
    "embedding.word2vec_pairs": "count",
    "embedding.word2vec_pairs_per_s": "1/s",
    "embedding.code_len_mean": "nodes",
    "embedding.word2vec_gflop_computed": "GFLOP",
    "embedding.doc2vec_s": "s",
    "embedding.doc2vec_steps": "count",
    "embedding.doc2vec_steps_per_s": "1/s",
    "persistence.save_model_s": "s",
    "persistence.model_bytes": "bytes",
    "persistence.save_model_mbps": "MB/s",
    "persistence.other_write_s": "s",
    "persistence.load_model_s": "s",
    "persistence.load_model_mbps": "MB/s",
    "materials.load_s": "s",
    "materials.score_s": "s",
    "materials.scored": "count",
    "materials.scored_per_s": "1/s",
    "screen.pareto_s": "s",
    "screen.front_size": "count",
    "corpus.load_s": "s",
    "corpus.preprocess_s": "s",
    "corpus.tokens": "count",
    "corpus.tokens_per_s": "1/s",
    "selection.pca_s": "s",
    "selection.fps_s": "s",
    "selection.points": "count",
    "refine.iterations": "count",
    "refine.incomplete_iterations": "count",
    "refine.self_s": "s",
    "cli.self_s": "s",
    "trace.other_s": "s",
    "trace.spans": "count",
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (root span first)."""
    m = {name: 0.0 for name in LAYER_METRICS}
    selfs = self_times(spans)
    weighted_len = 0.0
    for span, own in zip(spans, selfs):
        m[_NAMED.get(span.name, "trace.other_s")] += own
        info = span.info
        if not info:  # the call raised, or its layer has no counts
            continue
        if span.name == "embedding.train_word2vec":
            m["embedding.word2vec_calls"] += 1
            m["embedding.word2vec_pairs"] += info["pairs"]
            length = _code_len_mean(info["vocab"])
            weighted_len += info["pairs"] * length
            m["embedding.word2vec_gflop_computed"] += info["pairs"] * length * 6 * info["dim"] / 1e9
        elif span.name == "embedding.train_doc2vec":
            config = info["config"]
            counts = Counter(t for tokens in info["token_lists"] for t in tokens)
            per_epoch = sum(c for c in counts.values() if c >= config.min_count)
            m["embedding.doc2vec_steps"] += config.epochs * per_epoch
        elif span.name == "corpus.preprocess_set":
            m["corpus.tokens"] += sum(len(d.tokens) for d in info["docs"])
        elif span.name in ("persistence.save_model", "persistence.load_model"):
            m["persistence.model_bytes"] += _model_bytes(info["base"])
        elif span.name == "materials.similarity_points":
            m["materials.scored"] += info["n"]
        elif span.name == "screen.pareto_front":
            m["screen.front_size"] += info["n"]
        elif span.name == "selection.greedy_fps":
            m["selection.points"] += info["n"]
        elif span.name == "refine.run_refinement":
            m["refine.iterations"] += len(info["records"])
            m["refine.incomplete_iterations"] += sum(
                1 for r in info["records"] if not r.vocab_complete)
    if m["embedding.word2vec_pairs"]:
        m["embedding.code_len_mean"] = weighted_len / m["embedding.word2vec_pairs"]
    m["embedding.word2vec_pairs_per_s"] = _rate(m["embedding.word2vec_pairs"], m["embedding.word2vec_s"])
    m["embedding.doc2vec_steps_per_s"] = _rate(m["embedding.doc2vec_steps"], m["embedding.doc2vec_s"])
    mb = m["persistence.model_bytes"] / 1e6
    m["persistence.save_model_mbps"] = _rate(mb, m["persistence.save_model_s"])
    m["persistence.load_model_mbps"] = _rate(mb, m["persistence.load_model_s"])
    m["materials.scored_per_s"] = _rate(m["materials.scored"], m["materials.score_s"])
    m["corpus.tokens_per_s"] = _rate(m["corpus.tokens"], m["corpus.preprocess_s"])
    m["trace.spans"] = len(spans)
    return m
