"""Confidence radii for the empirical distribution.

Three rules:

- ``dkw``: two-sided DKW radius sqrt(log(2/delta) / (2n)) for the supremum
  distance. Valid for any distribution.
- ``fact22``: a direct Wasserstein-1 radius for supports of width b - a,
  256 (b-a)/sqrt(n) + 8 (b-a) sqrt(e log(1/delta) / n), valid for
  n >= log(1/delta). Its constants make it vacuous at small n, so the
  value is clamped to the W1 diameter (b - a) of the space; the operators
  saturate identically either way and the clamp keeps diagnostics readable.
- ``scaled-dkw``: (b - a) times the DKW radius. A valid W1 radius because
  ||F - G||_1 <= (b - a) ||F - G||_inf on [a, b]; it is the default rule
  for W1 experiments, with ``fact22`` available behind a flag.
"""

from __future__ import annotations

import math
from enum import Enum

from .distributions import Distance, SupportBounds

__all__ = [
    "RadiusRule",
    "dkw_radius",
    "w1_radius",
    "scaled_dkw_radius",
    "confidence_radius",
    "resolve_radius_rule",
]


class RadiusRule(Enum):
    DKW = "dkw"
    W1_DIRECT = "fact22"
    SCALED_DKW = "scaled-dkw"


def _check_n(n: int) -> int:
    if n < 1 or int(n) != n:
        raise ValueError(f"sample count must be a positive integer, got {n}")
    return int(n)


def dkw_radius(n: int, delta: float) -> float:
    """Two-sided DKW radius sqrt(log(2/delta) / (2n)).

    delta in (0, 2] is accepted: values above 1 are degenerate confidence
    levels but keep the formula nonnegative (delta=2 gives radius 0, a
    useful edge for collapsing intervals onto the point estimate).
    """
    n = _check_n(n)
    if not 0.0 < delta <= 2.0:
        raise ValueError(f"delta must lie in (0, 2], got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def w1_radius(n: int, delta: float, bounds: SupportBounds) -> float:
    """Direct W1 radius for bounded supports, clamped to the diameter b - a."""
    n = _check_n(n)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    log_term = math.log(1.0 / delta)
    if n < log_term:
        raise ValueError(
            f"the direct W1 radius requires n >= log(1/delta); got n={n}, "
            f"log(1/delta)={log_term:.3f}"
        )
    width = bounds.width
    raw = 256.0 * width / math.sqrt(n) + 8.0 * width * math.sqrt(math.e * log_term / n)
    return min(raw, width)


def scaled_dkw_radius(n: int, delta: float, bounds: SupportBounds) -> float:
    """(b - a) times the DKW radius; a conservative W1 radius."""
    return bounds.width * dkw_radius(n, delta)


def resolve_radius_rule(rule: RadiusRule | None, dist_kind: Distance) -> RadiusRule:
    """The radius rule to use for ``dist_kind``: ``dkw`` for the supremum
    distance and ``scaled-dkw`` for W1 when ``rule`` is None; otherwise
    ``rule`` itself, or ValueError when it does not fit the distance."""
    sup = dist_kind is Distance.SUPREMUM
    if rule is None:
        return RadiusRule.DKW if sup else RadiusRule.SCALED_DKW
    if sup and rule is not RadiusRule.DKW:
        raise ValueError(f"radius rule {rule.value!r} is a W1 radius; the supremum distance needs 'dkw'")
    if not sup and rule is RadiusRule.DKW:
        raise ValueError("the plain DKW radius is a supremum radius; W1 needs 'scaled-dkw' or 'fact22'")
    return rule


def confidence_radius(
    rule: RadiusRule, n: int, delta: float, bounds: SupportBounds | None = None
) -> float:
    if rule is RadiusRule.DKW:
        return dkw_radius(n, delta)
    if bounds is None:
        raise ValueError(f"radius rule {rule.value!r} needs support bounds")
    if rule is RadiusRule.W1_DIRECT:
        return w1_radius(n, delta, bounds)
    if rule is RadiusRule.SCALED_DKW:
        return scaled_dkw_radius(n, delta, bounds)
    raise ValueError(f"unknown radius rule {rule!r}")
