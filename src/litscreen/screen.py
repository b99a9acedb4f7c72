"""Reaction-specific Pareto screening of composition similarity points.

HER and ORR want conductivity-like, non-dielectric materials (minimize
s_dielectric, maximize s_conductivity); OER wants the reverse. The front
of non-dominated candidates is the prediction set.
"""
from __future__ import annotations

from dataclasses import dataclass

from .materials import Composition, SimilarityPoint

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
    """Indices of all non-dominated points, ascending.

    Sort-and-sweep: after flipping both axes to maximization, scan x-groups
    in descending order; a group's max-y members survive iff that y beats
    the best y seen among strictly larger x. Coincident points never
    dominate each other, so duplicates of a front point all stay.
    """
    points = list(points)
    if not points:
        raise ValueError("pareto_front of an empty point list")
    sx, sy = obj.signs()
    coords = [(sx * p.s_dielectric, sy * p.s_conductivity) for p in points]

    by_x: dict[float, list[int]] = {}
    for i, (x, _) in enumerate(coords):
        by_x.setdefault(x, []).append(i)

    front: list[int] = []
    best_y = -float("inf")
    for x in sorted(by_x, reverse=True):
        group = by_x[x]
        group_best = max(coords[i][1] for i in group)
        if group_best > best_y:
            front.extend(i for i in group if coords[i][1] == group_best)
            best_y = group_best
    front.sort()
    return front


def format_summary(
    candidates: list[Composition],
    fronts: dict[str, list[int]],
    measured: dict[str, float] | None = None,
    potential: float | None = None,
    label: str = "",
) -> str:
    """Plain-text summary with Entries and Min/Max rows per scenario.

    ``fronts`` maps scenario names (e.g. 'Selection', 'Full') to front index
    lists; the 'Ori' scenario is always the whole candidate list.
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
        all_vals = [measured[c.id] for c in candidates if c.id in measured]
        if all_vals:
            lines.append(f"Min (Ori): {min(all_vals):.2f}")
            lines.append(f"Max (Ori): {max(all_vals):.2f}")
        for name, front in fronts.items():
            vals = [measured[candidates[i].id] for i in front if candidates[i].id in measured]
            if vals:
                lines.append(f"Min ({name}): {min(vals):.2f}")
                lines.append(f"Max ({name}): {max(vals):.2f}")
    return "\n".join(lines) + "\n"
