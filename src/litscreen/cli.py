"""Command-line front end covering the full pipeline.

Subcommands: synth, ingest, embed-docs, select, refine, screen, report.
Options can also come from a flat ``key = value`` config file (--config);
explicit flags win over config values, config values win over defaults.

Exit codes: 0 success, 1 usage error, 2 data or file error,
3 refinement did not converge under --require-convergence.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from . import __version__
from .corpus import CorpusError, load_corpus, preprocess_set
from .embedding import EmbeddingConfig, OutOfVocabularyError, train_doc2vec
from .materials import (
    CompositionError,
    PropertyAnchors,
    load_compositions,
    similarity_points,
)
from .persistence import (
    PersistenceError,
    atomic_write,
    config_pairs,
    file_digest,
    load_doc_model,
    load_model,
    load_tokens,
    read_kv,
    save_doc_model,
    save_iteration_log,
    save_model,
    save_selection,
    save_tokens,
    write_manifest,
)
from .refine import RefineConfig, RefinementError, run_refinement
from .screen import Objectives, format_summary, pareto_front
from .selection import central_document, greedy_fps, pca_project
from .synth import (
    SynthSpec,
    synthetic_candidates,
    synthetic_corpus,
    write_candidates_csv,
    write_corpus_csv,
)

_DATA_ERRORS = (
    CorpusError,
    CompositionError,
    PersistenceError,
    OutOfVocabularyError,
    RefinementError,
    OSError,
    ValueError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _anchor_pair(text: str) -> PropertyAnchors:
    terms = tuple(t.strip() for t in text.split(","))
    try:
        return PropertyAnchors(terms=terms)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _element_list(text: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts:
        raise argparse.ArgumentTypeError("expected comma-separated element symbols")
    return parts


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


# Every key some command reads, so one config file can serve them all.
_CONFIG_KEYS = frozenset({
    "dim", "window", "epochs", "alpha0", "alpha_min", "min_count", "seed",
    "text_column", "id_column", "anchors", "batch_size", "threshold",
    "max_iterations", "preset", "system",
})


class _Settings:
    """Flag > config-file value > built-in default; unknown config keys fail."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        path = getattr(args, "config", None)
        raw = read_kv(path, "config") if path else {}
        self.file = {k.replace("-", "_"): v for k, v in raw.items()}
        unknown = [k for k in raw if k.replace("-", "_") not in _CONFIG_KEYS]
        if unknown:
            raise ValueError(f"{path}: unknown config key {', '.join(map(repr, unknown))}")

    def get(self, name, cast, default):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.file:
            return cast(self.file[name])
        return default

    def embedding(self) -> EmbeddingConfig:
        return EmbeddingConfig(
            dim=self.get("dim", int, 200),
            window=self.get("window", int, 5),
            epochs=self.get("epochs", int, 5),
            alpha0=self.get("alpha0", float, 0.025),
            alpha_min=self.get("alpha_min", float, 0.0001),
            min_count=self.get("min_count", int, 1),
            seed=self.get("seed", int, 0),
        )


def _load_documents(settings: _Settings):
    """Read --corpus as either a raw CSV or a saved tokens file."""
    args = settings.args
    # compared as bytes, so that a file which is not UTF-8 reaches the loader
    # whose error names it
    marker = b"litscreen-tokens/"
    with open(args.corpus, "rb") as f:
        is_tokens = f.read(len(marker)) == marker
    if is_tokens:
        return load_tokens(args.corpus)
    docs = load_corpus(
        args.corpus,
        text_column=settings.get("text_column", str, "abstract"),
        id_column=settings.get("id_column", str, None),
        strict=getattr(args, "strict", False),
    )
    return preprocess_set(docs)


def _cmd_synth(args) -> int:
    spec = SynthSpec(n_docs=args.n_docs, rare_docs=args.rare_docs, seed=args.seed)
    rows = synthetic_corpus(spec)
    comps = synthetic_candidates(args.steps)
    corpus_path = os.path.join(args.out, "corpus.csv")
    cand_path = os.path.join(args.out, "candidates.csv")
    write_corpus_csv(rows, corpus_path)
    write_candidates_csv(comps, cand_path)
    print(f"wrote {len(rows)} documents to {corpus_path}")
    print(f"wrote {len(comps)} candidate compositions to {cand_path}")
    return 0


def _cmd_ingest(args) -> int:
    settings = _Settings(args)
    docs = _load_documents(settings)
    save_tokens(docs, args.out)
    n_tokens = sum(len(d.tokens) for d in docs)
    print(f"documents: {len(docs)}")
    print(f"tokens: {n_tokens}")
    print(f"skipped empty: {docs.skipped_empty}")
    print(f"skipped malformed: {len(docs.skipped_malformed)}")
    print(f"tokens file: {args.out}")
    return 0


def _cmd_embed_docs(args) -> int:
    settings = _Settings(args)
    docs = _load_documents(settings)
    config = settings.embedding()
    model = train_doc2vec(docs.token_lists(), config, ids=docs.ids())
    save_doc_model(model, args.out)
    print(f"embedded {len(model.ids)} documents at dim {config.dim}")
    print(f"model files: {args.out}.dvec {args.out}.meta")
    return 0


def _cmd_select(args) -> int:
    settings = _Settings(args)
    if args.model:
        model = load_doc_model(args.model)
    elif args.corpus:
        docs = _load_documents(settings)
        model = train_doc2vec(docs.token_lists(), settings.embedding(), ids=docs.ids())
    else:
        print("select: either --model or --corpus is required", file=sys.stderr)
        return 1
    projection = pca_project(model.vectors)
    start = central_document(projection.points)
    order = greedy_fps(projection.points, start, n=len(model.ids))
    save_selection(order, model.ids, args.out)
    print(f"seed document: {model.ids[start]}")
    print(f"ordered {len(order.indices)} documents into {args.out}")
    return 0


def _cmd_refine(args) -> int:
    settings = _Settings(args)
    docs = _load_documents(settings)
    candidates, _, _ = load_compositions(args.candidates, elements=args.elements)
    anchors = settings.get("anchors", _anchor_pair, PropertyAnchors())
    config = RefineConfig(
        batch_size=settings.get("batch_size", int, 50),
        threshold=settings.get("threshold", float, 0.03),
        max_iterations=settings.get("max_iterations", int, None),
        embedding=settings.embedding(),
        anchors=anchors,
        seed=settings.get("seed", int, 0),
    )
    result = run_refinement(docs, candidates, config)

    os.makedirs(args.out, exist_ok=True)
    save_iteration_log(result.records, os.path.join(args.out, "iterations.csv"))
    save_model(result.final_model, os.path.join(args.out, "model"))
    save_selection(result.selection_order, docs.ids(), os.path.join(args.out, "selection.csv"))
    manifest = {
        "tool": f"litscreen/{__version__}",
        "corpus": os.path.basename(args.corpus),
        "corpus_sha256": file_digest(args.corpus),
        "candidates": os.path.basename(args.candidates),
        "candidates_sha256": file_digest(args.candidates),
        "anchors": ",".join(anchors.terms),
        "batch_size": str(config.batch_size),
        "threshold": f"{config.threshold:.17g}",
        **config_pairs(result.final_model.config),
        "iterations_run": str(len(result.records)),
        "converged": "true" if result.converged else "false",
        "outputs": "iterations.csv selection.csv model.vec model.meta",
    }
    write_manifest(manifest, os.path.join(args.out, "manifest.txt"))

    for rec in result.records:
        line = (
            f"t={rec.iteration} documents={rec.documents_used} "
            f"vocab_complete={'true' if rec.vocab_complete else 'false'}"
        )
        if rec.centroid is not None:
            line += f" centroid=({rec.centroid[0]:.6f}, {rec.centroid[1]:.6f})"
        if rec.displacement is not None:
            line += f" displacement={rec.displacement:.6f}"
        print(line)
    if result.converged:
        print(f"converged after {len(result.records)} iterations")
    else:
        print(f"no convergence within {len(result.records)} iterations")
        if args.require_convergence:
            return 3
    return 0


def _front_for(model_base: str, candidates, anchors, objectives):
    model = load_model(model_base)
    scores = similarity_points(model, candidates, anchors)
    return scores, pareto_front(scores, objectives)


def _cmd_screen(args) -> int:
    settings = _Settings(args)
    candidates, _, _ = load_compositions(args.candidates, elements=args.elements)
    anchors = settings.get("anchors", _anchor_pair, PropertyAnchors())
    objectives = Objectives.preset(settings.get("preset", str, "orr"))
    scores, front = _front_for(args.model, candidates, anchors, objectives)
    print(f"Entries (Ori): {len(candidates)}")
    print(f"Entries (Front): {len(front)}")
    for i in front:
        print(f"{candidates.ids[i]} {scores[i, 0]:.6f} {scores[i, 1]:.6f}")
    if args.out:
        on_front = [0] * len(candidates)
        for i in front:
            on_front[i] = 1
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "s_dielectric", "s_conductivity", "on_front"])
        writer.writerows((comp_id, f"{x:.17g}", f"{y:.17g}", flag)
                         for comp_id, (x, y), flag
                         in zip(candidates.ids, scores.tolist(), on_front))
        atomic_write(args.out, buf.getvalue())
        print(f"similarity table: {args.out}")
    return 0


def _cmd_report(args) -> int:
    settings = _Settings(args)
    candidates, measured, potential = load_compositions(args.candidates, elements=args.elements)
    anchors = settings.get("anchors", _anchor_pair, PropertyAnchors())
    objectives = Objectives.preset(settings.get("preset", str, "orr"))
    fronts = {}
    if args.full_model:
        _, fronts["Full"] = _front_for(args.full_model, candidates, anchors, objectives)
    if args.model:
        _, fronts["Selection"] = _front_for(args.model, candidates, anchors, objectives)
    if args.potential is not None:
        potential = args.potential
    label = settings.get("system", str, "")
    sys.stdout.write(format_summary(candidates, fronts, measured, potential, label))
    return 0


def _add_config(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value options file")


def _add_corpus_options(p: argparse.ArgumentParser):
    p.add_argument("--corpus", required=True, help="corpus CSV or saved tokens file")
    p.add_argument("--text-column", default=None, help="abstract column name")
    p.add_argument("--id-column", default=None, help="document id column name")


def _add_training_options(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="RNG seed")


def _build_parser() -> _Parser:
    parser = _Parser(prog="litscreen", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"litscreen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate the planted-topic benchmark corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-docs", type=_positive_int, default=500)
    p.add_argument("--rare-docs", type=_positive_int, default=8)
    p.add_argument("--steps", type=_positive_int, default=4,
                   help="composition grid resolution")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse, clean, and tokenize a corpus CSV")
    _add_config(p)
    _add_corpus_options(p)
    p.add_argument("--strict", action="store_true", help="fail on malformed rows")
    p.add_argument("--out", required=True, help="tokens file to write")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("embed-docs", help="train document embeddings")
    _add_config(p)
    _add_corpus_options(p)
    _add_training_options(p)
    p.add_argument("--out", required=True, help="model base path")
    p.set_defaults(func=_cmd_embed_docs)

    p = sub.add_parser("select", help="order documents by greedy diversity")
    _add_config(p)
    p.add_argument("--corpus", help="corpus CSV or tokens file (trains on the fly)")
    p.add_argument("--text-column", default=None)
    p.add_argument("--id-column", default=None)
    p.add_argument("--model", help="saved document model base path")
    _add_training_options(p)
    p.add_argument("--out", required=True, help="selection CSV to write")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("refine", help="iterative corpus refinement to convergence")
    _add_config(p)
    _add_corpus_options(p)
    p.add_argument("--candidates", required=True, help="candidate composition CSV")
    p.add_argument("--elements", type=_element_list, default=None,
                   help="comma-separated element columns")
    p.add_argument("--anchors", type=_anchor_pair, default=None,
                   help="two comma-separated anchor terms")
    p.add_argument("--threshold", type=_positive_float, default=None,
                   help="convergence displacement threshold")
    p.add_argument("--batch-size", type=_positive_int, default=None)
    _add_training_options(p)
    p.add_argument("--require-convergence", action="store_true",
                   help="exit 3 when the run does not converge")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("screen", help="Pareto-screen candidates against a model")
    _add_config(p)
    p.add_argument("--model", required=True, help="word model base path")
    p.add_argument("--candidates", required=True)
    p.add_argument("--elements", type=_element_list, default=None)
    p.add_argument("--anchors", type=_anchor_pair, default=None)
    p.add_argument("--preset", choices=("orr", "her", "oer"), default=None)
    p.add_argument("--out", help="similarity table CSV to write")
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("report", help="front summary with measured extremes")
    _add_config(p)
    p.add_argument("--candidates", required=True,
                   help="composition CSV with measured values")
    p.add_argument("--model", help="selection-trained word model base path")
    p.add_argument("--full-model", help="full-corpus word model base path")
    p.add_argument("--elements", type=_element_list, default=None)
    p.add_argument("--anchors", type=_anchor_pair, default=None)
    p.add_argument("--preset", choices=("orr", "her", "oer"), default=None)
    p.add_argument("--potential", type=float, default=None,
                   help="potential (mV) shown in the header")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (None, 0):
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
