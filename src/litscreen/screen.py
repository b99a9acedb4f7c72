"""Reaction-specific Pareto screening of candidate similarity scores.

HER and ORR want conductivity-like, non-dielectric materials (minimize
s_dielectric, maximize s_conductivity); OER wants the reverse. The front
of non-dominated rows of the (N, 2) score array from
:func:`litscreen.materials.similarity_points` is the prediction set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import CandidateTable, SimilarityPoint

__all__ = [
    "Objectives",
    "dominates",
    "pareto_front",
    "format_summary",
]

_PRESETS = {
    "orr": ("min", "max"),
    "her": ("min", "max"),
    "oer": ("max", "min"),
}


@dataclass(frozen=True)
class Objectives:
    """Optimization direction per similarity axis: 'min' or 'max'."""

    s_dielectric: str = "min"
    s_conductivity: str = "max"

    def __post_init__(self):
        for d in (self.s_dielectric, self.s_conductivity):
            if d not in ("min", "max"):
                raise ValueError(f"direction must be 'min' or 'max', got {d!r}")

    @classmethod
    def preset(cls, name: str) -> "Objectives":
        try:
            d, c = _PRESETS[name.lower()]
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}"
            ) from None
        return cls(s_dielectric=d, s_conductivity=c)

    def signs(self) -> tuple[float, float]:
        """Multipliers turning both axes into maximization."""
        return (
            1.0 if self.s_dielectric == "max" else -1.0,
            1.0 if self.s_conductivity == "max" else -1.0,
        )


def dominates(p: SimilarityPoint, q: SimilarityPoint, obj: Objectives) -> bool:
    """True iff p is at least as good as q on both axes and better on one."""
    sx, sy = obj.signs()
    px, py = sx * p.s_dielectric, sy * p.s_conductivity
    qx, qy = sx * q.s_dielectric, sy * q.s_conductivity
    return px >= qx and py >= qy and (px > qx or py > qy)


def pareto_front(points, obj: Objectives) -> list[int]:
    """Row indices of all non-dominated rows of an (N, 2) score array, ascending.

    Sort and sweep: after flipping both axes to maximization, one lexsort
    orders the rows by x descending, then y descending. Rows sharing an x
    (0.0 and -0.0 count as equal) form a group whose first row holds its
    best y; a group's best-y rows survive iff that y beats every y of the
    groups with larger x. Coincident points never dominate each other, so
    duplicates of a front point all stay. NaN coordinates are rejected.
    """
    coords = np.asarray(points, dtype=np.float64)
    if not coords.size:
        raise ValueError("pareto_front of an empty point list")
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) score array, got shape {coords.shape}")
    if np.isnan(coords).any():
        raise ValueError("pareto_front of NaN coordinates")
    sx, sy = obj.signs()
    x, y = sx * coords[:, 0], sy * coords[:, 1]
    order = np.lexsort((-y, -x))
    x, y = x[order], y[order]
    first = np.concatenate([[True], x[1:] != x[:-1]])  # first row of each x group
    group = np.cumsum(first) - 1
    best = y[first]
    beaten = np.concatenate([[-np.inf], np.maximum.accumulate(best)[:-1]])
    keep = (best > beaten)[group] & (y == best[group])
    return np.sort(order[keep]).tolist()


def format_summary(
    candidates: CandidateTable,
    fronts: dict[str, list[int]],
    measured: dict[str, float] | None = None,
    potential: float | None = None,
    label: str | None = None,
) -> str:
    """Plain-text summary with Entries and Min/Max rows per scenario.

    ``fronts`` maps scenario names (e.g. 'Selection', 'Full') to front index
    lists; the 'Ori' scenario is always the whole candidate table.
    """
    lines = []
    if label:
        lines.append(f"System: {label}")
    if potential is not None:
        lines.append(f"Potential (mV): {potential:g}")
    lines.append(f"Entries (Ori): {len(candidates)}")
    for name, front in fronts.items():
        lines.append(f"Entries ({name}): {len(front)}")
    if measured:
        ids = candidates.ids
        all_vals = [measured[i] for i in ids if i in measured]
        if all_vals:
            lines.append(f"Min (Ori): {min(all_vals):.2f}")
            lines.append(f"Max (Ori): {max(all_vals):.2f}")
        for name, front in fronts.items():
            vals = [measured[ids[i]] for i in front if ids[i] in measured]
            if vals:
                lines.append(f"Min ({name}): {min(vals):.2f}")
                lines.append(f"Max ({name}): {max(vals):.2f}")
    return "\n".join(lines) + "\n"
