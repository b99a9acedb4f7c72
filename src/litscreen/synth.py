"""Seeded generator for a small planted-topic benchmark corpus.

Two topic clusters share a filler vocabulary: conductor abstracts carry
the word "conductivity" together with Ag and Pt, dielectric abstracts
carry "dielectric" together with Ba. Ti appears only in a handful of
dielectric abstracts, so a growing training subset usually lacks it at
first. Candidate compositions enumerate the Ag/Pt/Ba/Ti simplex.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import CandidateTable, enumerate_simplex
from .persistence import write_csv

__all__ = ["SynthSpec", "synthetic_corpus", "synthetic_candidates",
           "write_corpus_csv", "write_candidates_csv"]

CANDIDATE_ELEMENTS = ("Ag", "Pt", "Ba", "Ti")

_CONDUCTIVE = ("conductivity", "conductive", "metallic", "transport",
               "carrier", "resistivity", "electron")
_DIELECTRIC = ("dielectric", "permittivity", "insulating", "polarization",
               "capacitor", "ferroelectric", "breakdown")
_FILLER = ("synthesis", "sample", "temperature", "electrode", "measurement",
           "performance", "structure", "phase", "film", "surface", "energy",
           "oxide", "alloy", "method", "analysis", "spectra", "growth",
           "crystal", "annealing", "substrate", "thickness", "deposition",
           "microscopy", "diffraction", "composite", "powder", "sintering",
           "voltage", "frequency", "density", "stability", "interface")
_GLUE = ("the", "of", "and", "in", "with", "for", "at")
# Share of abstracts that end in one of these license statements.
_LICENSE_FRACTION = 0.2
_LICENSE_TAILS = (
    "All rights reserved.",
    "(c) 2018 published under standard terms.",
    "This is an open access article distributed under a permissive licence.",
)


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the generated corpus."""

    n_docs: int = 500
    rare_docs: int = 8
    seed: int = 7

    def __post_init__(self):
        if self.n_docs < 4:
            raise ValueError("n_docs must be at least 4")
        n_dielectric = self.n_docs // 2
        if not 1 <= self.rare_docs <= n_dielectric:
            raise ValueError("rare_docs must fit inside the dielectric half")


def _sentences(words: list[str], rng: np.random.Generator) -> str:
    out = []
    i = 0
    while i < len(words):
        n = int(rng.integers(6, 10))
        chunk = []
        for w in words[i:i + n]:
            if rng.random() < 0.25:
                chunk.append(_GLUE[int(rng.integers(0, len(_GLUE)))])
            chunk.append(w)
        out.append("The " + " ".join(chunk) + ".")
        i += n
    return " ".join(out)


def synthetic_corpus(spec: SynthSpec = SynthSpec()) -> list[tuple[str, str]]:
    """Return (id, abstract) rows; identical for identical specs."""
    rng = np.random.default_rng(spec.seed)
    dielectric_rows = [i for i in range(spec.n_docs) if i % 2 == 1]
    rare = set(rng.choice(dielectric_rows, size=spec.rare_docs, replace=False).tolist())

    rows = []
    for i in range(spec.n_docs):
        conductive = i % 2 == 0
        if conductive:
            pool = _CONDUCTIVE
            pick = rng.random()
            elements = ["Ag"] if pick < 0.3 else ["Pt"] if pick < 0.6 else ["Ag", "Pt"]
        else:
            pool = _DIELECTRIC
            elements = ["Ba", "Ti"] if i in rare else ["Ba"]

        words = [pool[0]]
        for _ in range(int(rng.integers(2, 5))):
            words.append(pool[int(rng.integers(0, len(pool)))])
        for el in elements:
            words.extend([el] * int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(9, 16))):
            words.append(_FILLER[int(rng.integers(0, len(_FILLER)))])
        words = [words[j] for j in rng.permutation(len(words))]

        text = _sentences(words, rng)
        if rng.random() < _LICENSE_FRACTION:
            tail = _LICENSE_TAILS[int(rng.integers(0, len(_LICENSE_TAILS)))]
            text = text + " " + tail
        rows.append((f"D{i + 1:04d}", text))
    return rows


def synthetic_candidates(steps: int = 4) -> CandidateTable:
    """Every composition on the Ag/Pt/Ba/Ti grid with the given resolution."""
    return enumerate_simplex(CANDIDATE_ELEMENTS, steps)


def write_corpus_csv(rows: list[tuple[str, str]], path: str):
    write_csv(path, ["id", "abstract"], rows)


def write_candidates_csv(candidates: CandidateTable, path: str):
    """An id column, then one fraction column per element in sorted order,
    each value written as ``%.17g``. An id that ``load_compositions`` would
    reject or change, a repeated, blank or whitespace-padded one, raises
    ValueError naming its row before the file is opened, and so does an
    empty table, naming the file."""
    ids = candidates.ids
    if not ids:
        raise ValueError(f"{path}: no candidate rows to write")
    if len(set(ids)) < len(ids) or "" in ids or tuple(map(str.strip, ids)) != ids:  # C loops only
        seen = set()
        for i, comp_id in enumerate(ids, 1):
            if comp_id in seen or not comp_id or comp_id != comp_id.strip():
                fault = "duplicate" if comp_id in seen else "blank or whitespace-padded"
                raise ValueError(f"{path} row {i}: {fault} composition id {comp_id!r}")
            seen.add(comp_id)
    elements = sorted(candidates.elements)
    columns = candidates.fractions[:, [candidates.elements.index(el) for el in elements]]
    write_csv(path, ["id"] + elements,
              ([comp_id] + [f"{x:.17g}" for x in row]
               for comp_id, row in zip(ids, columns.tolist())))
