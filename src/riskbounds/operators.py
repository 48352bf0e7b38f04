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

import numpy as np

from .distributions import DiscreteDistribution

__all__ = [
    "pos_sup",
    "neg_sup",
    "pos_w1",
    "neg_w1",
]


def _require_radius(c: float) -> float:
    if not 0.0 <= c < np.inf:  # finite and >= 0; nan fails both
        raise ValueError(f"ball radius must be finite and >= 0, got {c}")
    return float(c)


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
    k = int(np.searchsorted(d.xs, b))  # the atoms below b
    xs = np.concatenate((d.xs[:k], [b]))
    cdf_vals = np.empty(k + 1)
    np.subtract(d.cum[:k], cc, out=cdf_vals[:k])
    np.maximum(cdf_vals[:k], 0.0, out=cdf_vals[:k])
    cdf_vals[k] = 1.0
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
    s = int(d.xs[0] > a)  # 1 when the result gains an atom at a
    xs = np.concatenate(([a], d.xs)) if s else d.xs
    cdf_vals = np.empty(d.xs.size + s)
    cdf_vals[0] = cc
    np.add(d.cum, cc, out=cdf_vals[s:])
    np.minimum(cdf_vals, 1.0, out=cdf_vals)
    return DiscreteDistribution._from_cdf(xs, cdf_vals, d.bounds)


def pos_w1(d: DiscreteDistribution, c: float) -> DiscreteDistribution:
    """Wasserstein-ball maximizer via reverse water-filling against b.

    Walking atoms right to left, the transported-to-b areas p_i (b - x_i)
    accumulate until they first reach c. Atoms right of the break move to b
    entirely, the break atom keeps mass (accumulated - c) / (b - x_break),
    and atoms left of the break are untouched. The W1 distance moved equals
    min(c, total transportable area) exactly. When the break atom keeps
    mass, it is the atom just below b in the result.

    The result's CDF is the center's below the break atom, the kept mass
    added at it (a break exactly on the radius adds none, and the atom
    drops out) and 1.0 at b.
    """
    c = _require_radius(c)
    if c == 0.0:
        return d
    b = d.bounds.b
    areas = np.subtract(b, d.xs)
    areas *= d.ps
    rev_areas = np.cumsum(areas[::-1])
    del areas
    if c >= rev_areas[-1]:
        return DiscreteDistribution.dirac(b, d.bounds)

    i_plus = int(np.searchsorted(rev_areas, c, side="left"))  # 0-based from the right
    area_at_break = float(rev_areas[i_plus])
    del rev_areas
    k = d.xs.size - 1 - i_plus
    keep_mass = (area_at_break - c) / (b - d.xs[k])
    below = float(d.cum[k - 1]) if k > 0 else 0.0
    xs = np.concatenate((d.xs[:k], [d.xs[k], b]))
    cdf_vals = np.concatenate((d.cum[:k], [min(below + keep_mass, 1.0), 1.0]))
    return DiscreteDistribution._from_cdf(xs, cdf_vals, d.bounds)


def neg_w1(d: DiscreteDistribution, c: float) -> DiscreteDistribution:
    """Wasserstein-ball minimizer: collapse the right tail onto one level.

    The level b- solves E[(X - b-)^+] = c, i.e. the area between the CDF
    and 1 to the right of b- equals the radius; every atom above b- moves
    down onto it, so b- is the last atom of the result. Saturation at
    c >= mean - a returns the Dirac mass at a, and so does a level that
    rounding puts below a just short of saturation. The result's CDF is the
    center's at the atoms below the level, and 1.0 at the level.
    """
    c = _require_radius(c)
    if c == 0.0:
        return d
    a = d.bounds.a
    if c >= d.mean() - a:
        return DiscreteDistribution.dirac(a, d.bounds)

    # suffix[j] = E[(X - x_j)^+]: the running sum, from the right, of the
    # areas (1 - F(x_i)) (x_{i+1} - x_i), so nonincreasing in j.
    suffix = np.empty(d.xs.size)
    suffix[-1] = 0.0
    areas = np.subtract(1.0, d.cum[:-1])
    areas *= np.subtract(d.xs[1:], d.xs[:-1], out=suffix[:-1])  # gaps, then overwritten
    np.cumsum(areas[::-1], out=suffix[:-1][::-1])
    del areas

    if c > suffix[0]:
        # Solution sits below the lowest atom: everything collapses; the
        # terminal area is measured down to a. Just short of saturation,
        # rounding can put the level below a, where it is clamped.
        level = max(d.xs[0] - (c - suffix[0]), a)
        return DiscreteDistribution._trusted(np.array([level]), np.ones(1), d.bounds)
    j = np.count_nonzero(suffix >= c) - 1  # deepest atom still above c: those form a prefix
    above = suffix[j + 1]
    del suffix
    # The level lies in [x_j, x_{j+1}). Rounding near a tie (suffix[j] == c)
    # can put it below x_j, and below a when x_j == a; it is clamped at x_j,
    # so it stays the last atom. A level on atom j replaces that atom.
    level = max(d.xs[j + 1] - (c - above) / (1.0 - float(d.cum[j])), d.xs[j])
    kept = j + int(level > d.xs[j])
    xs = np.concatenate((d.xs[:kept], [level]))
    return DiscreteDistribution._from_cdf(xs, np.concatenate((d.cum[:kept], [1.0])), d.bounds)
