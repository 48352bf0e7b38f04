"""Ball-extreme transformations of discrete distributions.

For a ball of radius c around a discrete distribution F (supremum or
Wasserstein-1 distance on CDFs, restricted to distributions supported on
[a, b]), these operators return the distributions that maximize
(``positive``) or minimize (``negative``) every monotone risk functional
over the ball:

- supremum ball: the positive operator is the pointwise CDF clip
  x -> max(F(x) - c, 0) for x < b with the deficit placed as an atom at b;
  the negative operator is x -> min(F(x) + c, 1) for x >= a.
- Wasserstein-1 ball: reverse water-filling. The positive operator moves
  the rightmost atoms onto b until the transported area reaches c,
  fractionally splitting the break atom. The negative operator collapses
  the rightmost atoms down onto a single level b-, chosen so the collapsed
  area equals c.

All four reduce to the classical uniform-mass constructions on empirical
distributions and generalize to arbitrary weighted atoms: areas accumulate
per-atom mass, and boundary atoms split fractionally. Radii at or beyond
the maximal transportable area saturate to the Dirac mass at the relevant
bound instead of erroring, so bounds stay well-defined at tiny sample
sizes. Cost is O(m) on the sorted atom arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, Distance

__all__ = [
    "BallSpec",
    "WaterFillTrace",
    "pos_sup",
    "neg_sup",
    "pos_w1",
    "neg_w1",
]


def _require_radius(c: float) -> float:
    if not (np.isfinite(c) and c >= 0.0):
        raise ValueError(f"ball radius must be finite and >= 0, got {c}")
    return float(c)


@dataclass(frozen=True)
class BallSpec:
    """Distance kind plus nonnegative radius."""

    distance: Distance
    c: float

    def __post_init__(self):
        _require_radius(self.c)


@dataclass(frozen=True)
class WaterFillTrace:
    """Diagnostics from a Wasserstein water-fill.

    ``break_index`` counts atoms consumed from the right (1-based) before
    the cumulative transported area first reached the radius;
    ``cumulative_areas`` is that strictly increasing area prefix; the last
    field is the residual mass kept at the break atom (positive operator)
    or the collapsed level (negative operator). ``break_index`` of 0 with
    empty areas marks a saturated fill.
    """

    break_index: int
    cumulative_areas: np.ndarray
    residual_mass_or_level: float


def pos_sup(d: DiscreteDistribution, c: float) -> DiscreteDistribution:
    """Supremum-ball maximizer: CDF clip max(F(x) - c, 0) with a jump at b.

    Equivalently, min(c, 1) of the leftmost mass is deleted (the boundary
    atom splits fractionally) and reappears as an atom at b.
    """
    c = _require_radius(c)
    if c == 0.0:
        return d
    cc = min(c, 1.0)
    b = d.bounds.b
    below = d.xs < b
    xs = np.concatenate((d.xs[below], [b]))
    cdf_vals = np.concatenate((np.maximum(d.cum[below] - cc, 0.0), [1.0]))
    return DiscreteDistribution._from_cdf(xs, cdf_vals, d.bounds)


def neg_sup(d: DiscreteDistribution, c: float) -> DiscreteDistribution:
    """Supremum-ball minimizer: CDF clip min(F(x) + c, 1) with a jump at a.

    The atom at a gains min(c, 1) mass while the rightmost min(c, 1) mass
    is deleted, splitting the boundary atom fractionally.
    """
    c = _require_radius(c)
    if c == 0.0:
        return d
    cc = min(c, 1.0)
    a = d.bounds.a
    if d.xs[0] > a:
        xs = np.concatenate(([a], d.xs))
        cdf_vals = np.concatenate(([cc], np.minimum(d.cum + cc, 1.0)))
    else:
        xs = d.xs
        cdf_vals = np.minimum(d.cum + cc, 1.0)
    return DiscreteDistribution._from_cdf(xs, cdf_vals, d.bounds)


def pos_w1(
    d: DiscreteDistribution, c: float, with_trace: bool = False
) -> DiscreteDistribution | tuple[DiscreteDistribution, WaterFillTrace]:
    """Wasserstein-ball maximizer via reverse water-filling against b.

    Walking atoms right to left, the transported-to-b areas p_i (b - x_i)
    accumulate until they first reach c. Atoms right of the break move to b
    entirely, the break atom keeps mass (accumulated - c) / (b - x_break),
    and atoms left of the break are untouched. The W1 distance moved equals
    min(c, total transportable area) exactly.
    """
    c = _require_radius(c)
    if c == 0.0:
        return (d, WaterFillTrace(0, np.empty(0), 0.0)) if with_trace else d
    b = d.bounds.b
    areas = d.ps * (b - d.xs)
    rev_areas = np.cumsum(areas[::-1])
    total = float(rev_areas[-1]) if rev_areas.size else 0.0
    if c >= total:
        out = DiscreteDistribution.dirac(b, d.bounds)
        trace = WaterFillTrace(0, np.empty(0), 0.0)
        return (out, trace) if with_trace else out

    i_plus = int(np.searchsorted(rev_areas, c, side="left"))  # 0-based from the right
    k = d.xs.size - 1 - i_plus
    area_at_break = float(rev_areas[i_plus])
    keep_mass = (area_at_break - c) / (b - d.xs[k])
    tail_mass = 1.0 - (float(d.cum[k - 1]) if k > 0 else 0.0)
    mass_at_b = tail_mass - keep_mass

    xs = np.concatenate((d.xs[:k], [d.xs[k], b]))
    ps = np.concatenate((d.ps[:k], [keep_mass, mass_at_b]))
    # The break atom lies below b; a break exactly on the radius leaves it
    # zero mass, which the validating constructor drops.
    trusted = keep_mass > 0.0 and mass_at_b > 0.0
    out = (DiscreteDistribution._trusted if trusted else DiscreteDistribution)(xs, ps, d.bounds)
    if not with_trace:
        return out
    trace = WaterFillTrace(i_plus + 1, rev_areas[: i_plus + 1].copy(), float(keep_mass))
    return out, trace


def neg_w1(
    d: DiscreteDistribution, c: float, with_trace: bool = False
) -> DiscreteDistribution | tuple[DiscreteDistribution, WaterFillTrace]:
    """Wasserstein-ball minimizer: collapse the right tail onto one level.

    The level b- solves E[(X - b-)^+] = c, i.e. the area between the CDF
    and 1 to the right of b- equals the radius; every atom above b- moves
    down onto it. Saturation at c >= mean - a returns the Dirac mass at a.
    """
    c = _require_radius(c)
    if c == 0.0:
        return (d, WaterFillTrace(0, np.empty(0), d.bounds.b)) if with_trace else d
    a = d.bounds.a
    total = d.mean() - a
    if c >= total:
        out = DiscreteDistribution.dirac(a, d.bounds)
        trace = WaterFillTrace(0, np.empty(0), a)
        return (out, trace) if with_trace else out

    # suffix[j] = E[(X - x_j)^+]; strictly increasing right to left.
    tail = 1.0 - d.cum
    gaps = np.diff(d.xs)
    suffix = np.zeros(d.xs.size)
    if gaps.size:
        suffix[:-1] = np.cumsum((tail[:-1] * gaps)[::-1])[::-1]

    if c <= suffix[0]:
        j = int(np.nonzero(suffix >= c)[0][-1])  # deepest atom still above c
        kept = float(d.cum[j])
        level = d.xs[j + 1] - (c - suffix[j + 1]) / (1.0 - kept)
        xs = np.concatenate((d.xs[: j + 1], [level]))
        ps = np.concatenate((d.ps[: j + 1], [1.0 - kept]))
        collapsed = int(d.xs.size - (j + 1))
        areas = suffix[j:][::-1][1:]  # ends at the first area >= c
        # suffix[j] == c puts the level on atom j: a tie to coalesce.
        trusted = level > d.xs[j] and kept < 1.0
    else:
        # Solution sits below the lowest atom: everything collapses; the
        # terminal area is measured down to a.
        level = d.xs[0] - (c - suffix[0])
        xs = np.array([level])
        ps = np.array([1.0])
        collapsed = int(d.xs.size)
        areas = np.append(suffix[::-1][1:], total)
        trusted = level >= a
    out = (DiscreteDistribution._trusted if trusted else DiscreteDistribution)(xs, ps, d.bounds)
    if not with_trace:
        return out
    trace = WaterFillTrace(collapsed, areas.copy(), float(level))
    return out, trace
