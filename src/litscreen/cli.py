"""Command-line front end covering the full pipeline.

Subcommands: synth, ingest, embed-docs, select, refine, screen, report.
Options can also come from a flat ``key = value`` config file (--config);
explicit flags win over config values, config values win over defaults.
``main`` reads the file once, before the command runs, and checks every key
in it as written (``text_column``, not ``text-column``), also those the
command does not read. A missing input file exits 2 naming its kind and
path (``corpus file not found: PATH``), and so does bad data in an input:
a corpus with fewer than two documents, or one whose vocabulary is empty,
names the corpus; a token missing from a model names the model, and
--anchors when the token is an anchor term.

Exit codes: 0 success, 1 usage error, 2 data or file error, or a kernel
library that could not be compiled (no ``cc`` on the PATH, say),
3 refinement did not converge under --require-convergence.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import fields, replace

from . import __version__
from .corpus import CorpusError, load_corpus, open_text, preprocess_set
from .embedding import EmbeddingConfig, OutOfVocabularyError, train_doc2vec
from .kernel import KernelBuildError
from .materials import PropertyAnchors, load_compositions, similarity_points
from .persistence import (
    TOKENS_FORMAT,
    config_from_pairs,
    config_pairs,
    file_digest,
    load_doc_model,
    load_model,
    load_tokens,
    read_kv,
    save_doc_model,
    save_iteration_log,
    save_model,
    save_scores,
    save_selection,
    save_tokens,
    write_manifest,
)
from .refine import RefineConfig, RefinementError, run_refinement, selection_order
from .screen import Objectives, format_summary, pareto_front
from .synth import (
    SynthSpec,
    synthetic_candidates,
    synthetic_corpus,
    write_candidates_csv,
    write_corpus_csv,
)

# CorpusError, CompositionError and PersistenceError are ValueErrors
_DATA_ERRORS = (OutOfVocabularyError, RefinementError, KernelBuildError, OSError, ValueError)


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
    parts = tuple(p.strip() for p in text.split(","))
    if not any(parts):
        raise argparse.ArgumentTypeError("expected comma-separated element symbols")
    if not all(parts):
        raise argparse.ArgumentTypeError(f"empty element symbol in {text!r}")
    if len(set(parts)) != len(parts):
        raise argparse.ArgumentTypeError(f"repeated element symbols in {text!r}")
    return parts


def _bounded(cast, ok, expected: str):
    """An argparse type: ``cast`` of the text, which ``ok`` must accept."""
    def check(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value
    check.__name__ = cast.__name__  # argparse names it in "invalid int value: 'x'"
    return check


_positive_int = _bounded(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _bounded(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _bounded(float, lambda v: 0 < v < math.inf, "a positive finite number")
_finite_float = _bounded(float, math.isfinite, "a finite number")


# Each option that a flag or --config can set, with the one cast both go
# through; the embedding keys are cast and checked by ``config_from_pairs``.
_OPTIONS = {
    "text_column": str, "id_column": str, "anchors": _anchor_pair,
    "batch_size": _positive_int, "threshold": _positive_float,
    "max_iterations": _positive_int, "preset": Objectives.preset, "system": str,
}
# Every key some command reads, so one config file can serve them all.
_CONFIG_KEYS = frozenset(f.name for f in fields(EmbeddingConfig)) | _OPTIONS.keys()


def _apply_config(args: argparse.Namespace):
    """Fill each option of ``_OPTIONS`` that no flag set from the --config
    file, else None, and set ``args.embedding`` from the file with --seed
    over its seed, and ``args.flagged`` to the options a flag set.
    Flag > config-file value > the callee's own default.

    Each key is looked up, checked and named as the file spells it, whether
    or not the command reads it: a key not in ``_CONFIG_KEYS`` (such as
    ``text-column``) or a value its cast rejects fails naming the file and
    the key."""
    path = args.config
    pairs = read_kv(path, "config") if path else {}
    unknown = [k for k in pairs if k not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(f"{path}: unknown config key {', '.join(map(repr, unknown))}")
    args.embedding = replace(config_from_pairs(pairs, path), **_given(args, "seed"))
    args.flagged = frozenset(_given(args, *_OPTIONS))
    for name, cast in _OPTIONS.items():
        value = getattr(args, name, None)
        if value is None and name in pairs:
            try:
                value = cast(pairs[name])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}: {name} = {pairs[name]!r}: {exc}") from None
        setattr(args, name, value)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named options that a flag or the config file set; the callee's
    defaults fill in the rest."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


@contextlib.contextmanager
def _naming(path: str, error: type[Exception]):
    """Put ``path``, the input at fault, before the message of an ``error``
    that the block raises."""
    try:
        yield
    except error as exc:
        raise error(f"{path}: {exc}") from None


def _load_documents(args):
    """Read --corpus as either a raw CSV or a saved tokens file. A tokens
    file fails a column flag, but not a --config key, which serves any input
    and is then unset, as the run does not read it. Fewer than two documents
    fail naming the file: no command that reads a corpus can order one."""
    marker = TOKENS_FORMAT.rpartition("/")[0] + "/"
    with open_text(args.corpus, "corpus", CorpusError) as f:
        is_tokens = f.read(len(marker)) == marker
    if is_tokens:
        flags = [f"--{name.replace('_', '-')}" for name in ("text_column", "id_column")
                 if name in args.flagged]
        if flags:
            raise CorpusError(f"{args.corpus} is a tokens file, which has no column for "
                              f"{' or '.join(flags)}")
        args.text_column = args.id_column = None
        docs = load_tokens(args.corpus)
    else:
        docs = preprocess_set(load_corpus(args.corpus, **_given(args, "text_column", "id_column")))
    if len(docs) < 2:
        raise CorpusError(f"{args.corpus}: {len(docs)} documents, but at least 2 are needed")
    return docs


def _cmd_synth(usage_error, args) -> int:
    try:
        spec = SynthSpec(**_given(args, "n_docs", "rare_docs", "seed"))
    except ValueError as exc:  # each SynthSpec bound message starts with its field
        usage_error(f"argument --{str(exc).split()[0].replace('_', '-')}: {exc}")
    rows = synthetic_corpus(spec)
    comps = synthetic_candidates(**_given(args, "steps"))
    corpus_path = os.path.join(args.out, "corpus.csv")
    cand_path = os.path.join(args.out, "candidates.csv")
    write_corpus_csv(rows, corpus_path)
    write_candidates_csv(comps, cand_path)
    print(f"wrote {len(rows)} documents to {corpus_path}")
    print(f"wrote {len(comps)} candidate compositions to {cand_path}")
    return 0


def _cmd_ingest(args) -> int:
    docs = _load_documents(args)
    save_tokens(docs, args.out)
    print(f"documents: {len(docs)}")
    print(f"tokens: {len(docs.corpus.ids)}")
    print(f"skipped empty: {docs.skipped_empty}")
    print(f"tokens file: {args.out}")
    return 0


def _cmd_embed_docs(args) -> int:
    docs = _load_documents(args)
    with _naming(args.corpus, CorpusError):  # an empty vocabulary
        model = train_doc2vec(docs.corpus, args.embedding, ids=docs.ids)
    paths = save_doc_model(model, args.out)
    print(f"embedded {len(model.ids)} documents at dim {args.embedding.dim}")
    print(f"model files: {' '.join(paths)}")
    return 0


def _cmd_select(args) -> int:
    model = load_doc_model(args.model)
    order = selection_order(model.vectors)  # refine's stage, so both write one selection.csv
    save_selection(order, model.ids, args.out)
    print(f"seed document: {model.ids[order.indices[0]]}")
    print(f"ordered {len(order.indices)} documents into {args.out}")
    return 0


def _cmd_refine(args) -> int:
    config = RefineConfig(
        embedding=args.embedding,
        **_given(args, "batch_size", "threshold", "max_iterations", "anchors"),
    )
    docs = _load_documents(args)
    candidates, _, _ = load_compositions(args.candidates, elements=args.elements)
    with _naming(args.corpus, CorpusError):  # an empty vocabulary
        result = run_refinement(docs, candidates, config)

    os.makedirs(args.out, exist_ok=True)
    save_iteration_log(result.records, os.path.join(args.out, "iterations.csv"))
    model_paths = save_model(result.final_model, os.path.join(args.out, "model"))
    save_selection(result.selection_order, docs.ids, os.path.join(args.out, "selection.csv"))
    manifest = {
        "tool": f"litscreen/{__version__}",
        "corpus": os.path.basename(args.corpus),
        "corpus_sha256": file_digest(args.corpus),
        "candidates": os.path.basename(args.candidates),
        "candidates_sha256": file_digest(args.candidates),
        "anchors": ",".join(config.anchors.terms),
        "batch_size": str(config.batch_size),
        "threshold": f"{config.threshold:.17g}",
        **{name: ",".join(value) if name == "elements" else str(value) for name, value
           in _given(args, "max_iterations", "elements", "text_column", "id_column").items()},
        **config_pairs(result.final_model.config),
        "iterations_run": str(len(result.records)),
        "converged": "true" if result.converged else "false",
        "outputs": " ".join(["iterations.csv", "selection.csv",
                             *(os.path.basename(p) for p in model_paths)]),
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
    anchors = anchors or PropertyAnchors()
    missing = [term for term in anchors.terms if term not in model.vocab]
    with _naming(model_base, OutOfVocabularyError):
        if missing:
            raise OutOfVocabularyError(
                f"anchor term {missing[0]!r} (--anchors) is not in the vocabulary")
        scores = similarity_points(model, candidates, anchors)
    return scores, pareto_front(scores, objectives)


def _cmd_screen(args) -> int:
    candidates, _, _ = load_compositions(args.candidates, elements=args.elements)
    scores, front = _front_for(args.model, candidates, args.anchors, args.preset or Objectives())
    print(f"Entries (Ori): {len(candidates)}")
    print(f"Entries (Front): {len(front)}")
    for i in front:
        print(f"{candidates.ids[i]} {scores[i, 0]:.6f} {scores[i, 1]:.6f}")
    if args.out:
        save_scores(scores, candidates.ids, front, args.out)
        print(f"similarity table: {args.out}")
    return 0


def _cmd_report(args) -> int:
    anchors, objectives = args.anchors, args.preset or Objectives()
    candidates, measured, potential = load_compositions(args.candidates, elements=args.elements)
    fronts = {}
    if args.full_model:
        _, fronts["Full"] = _front_for(args.full_model, candidates, anchors, objectives)
    if args.model:
        _, fronts["Selection"] = _front_for(args.model, candidates, anchors, objectives)
    if args.potential is not None:
        potential = args.potential
    sys.stdout.write(format_summary(candidates, fronts, measured, potential, args.system))
    return 0


def _add_config(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value options file")


def _add_option(p: argparse.ArgumentParser, name: str, **kwargs):
    """The flag for ``name``, cast as a config value of that name is."""
    p.add_argument("--" + name.replace("_", "-"), type=_OPTIONS[name], **kwargs)


def _add_corpus_options(p: argparse.ArgumentParser):
    p.add_argument("--corpus", required=True, help="corpus CSV or saved tokens file")
    _add_option(p, "text_column", help="abstract column name")
    _add_option(p, "id_column", help="document id column name")


@functools.cache  # built on the first call, not at import; parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="litscreen", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"litscreen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate the planted-topic benchmark corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-docs", type=_positive_int)
    p.add_argument("--rare-docs", type=_positive_int)
    p.add_argument("--steps", type=_positive_int, help="composition grid resolution")
    p.add_argument("--seed", type=_nonnegative_int)
    p.set_defaults(func=functools.partial(_cmd_synth, p.error))

    p = sub.add_parser("ingest", help="parse, clean, and tokenize a corpus CSV")
    _add_config(p)
    _add_corpus_options(p)
    p.add_argument("--out", required=True, help="tokens file to write")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("embed-docs", help="train document embeddings")
    _add_config(p)
    _add_corpus_options(p)
    p.add_argument("--seed", type=_nonnegative_int, help="RNG seed")
    p.add_argument("--out", required=True, help="model base path")
    p.set_defaults(func=_cmd_embed_docs)

    p = sub.add_parser("select", help="order a saved document model by greedy diversity")
    p.add_argument("--model", required=True, help="saved document model base path")
    p.add_argument("--out", required=True, help="selection CSV to write")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("refine", help="iterative corpus refinement to convergence")
    _add_config(p)
    _add_corpus_options(p)
    p.add_argument("--candidates", required=True, help="candidate composition CSV")
    p.add_argument("--elements", type=_element_list,
                   help="comma-separated element columns")
    _add_option(p, "anchors", help="two comma-separated anchor terms")
    _add_option(p, "threshold", help="convergence displacement threshold")
    _add_option(p, "batch_size")
    p.add_argument("--seed", type=_nonnegative_int, help="RNG seed")
    p.add_argument("--require-convergence", action="store_true",
                   help="exit 3 when the run does not converge")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("screen", help="Pareto-screen candidates against a model")
    _add_config(p)
    p.add_argument("--model", required=True, help="word model base path")
    p.add_argument("--candidates", required=True)
    p.add_argument("--elements", type=_element_list)
    _add_option(p, "anchors")
    _add_option(p, "preset", help="orr, her or oer")
    p.add_argument("--out", help="similarity table CSV to write")
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("report", help="front summary with measured extremes")
    _add_config(p)
    p.add_argument("--candidates", required=True,
                   help="composition CSV with measured values")
    p.add_argument("--model", help="selection-trained word model base path")
    p.add_argument("--full-model", help="full-corpus word model base path")
    p.add_argument("--elements", type=_element_list)
    _add_option(p, "anchors")
    _add_option(p, "preset", help="orr, her or oer")
    p.add_argument("--potential", type=_finite_float,
                   help="potential (mV) shown in the header")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "config"):
            _apply_config(args)
        return args.func(args)
    except SystemExit as exc:  # 0 from --help or --version, 1 from _Parser.error
        return exc.code
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
