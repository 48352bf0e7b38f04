"""Assemble confidence bounds for a risk measure from an empirical distribution.

Three methods produce an (LCB, UCB) pair at ball radius c:

- ``dist``: evaluate the risk measure at the ball-extreme distributions
  (negative operator for the LCB, positive for the UCB). Sharpest of the
  three; bounds never leave [a, b].
- ``llc``: point estimate +/- (local Lipschitz constant) * c.
- ``glc``: point estimate +/- (global Lipschitz constant) * c.

For every supported combination the pre-clamp chain
ucb_dist <= ucb_llc <= ucb_glc (and mirrored for LCBs) holds: the extreme
distributions live inside the ball, so their risk gap is bounded by the
local constant times the radius, which in turn is bounded by the global
constant. Lipschitz-method bounds are clamped to [a, b] after the fact;
the raw values are kept in ``extras`` for the chain diagnostics.

W1 balls do not support ``dist``/``llc`` for rank-dependent expected
utility: the W1 ball extremes do not attain that family's optimum and no
local constant exists, so only ``glc`` applies there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .concentration import RadiusRule, confidence_radius, resolve_radius_rule
from .distributions import DiscreteDistribution, Distance, SupportBounds, from_samples
from .lipschitz import UnsupportedCombinationError, glc, llc
from .measures import RDEU, RiskMeasure, evaluate
from .operators import _require_radius, neg_sup, neg_w1, pos_sup, pos_w1

__all__ = [
    "BoundMethod",
    "ConfidenceResult",
    "UnsupportedCombinationError",
    "bound_with_radius",
    "bound_from_samples",
]


class BoundMethod(Enum):
    DIST = "dist"
    LLC = "llc"
    GLC = "glc"


@dataclass(frozen=True)
class ConfidenceResult:
    """One (LCB, UCB) pair with the inputs that produced it."""

    lcb: float
    ucb: float
    method: BoundMethod
    distance: Distance
    radius: float
    point: float
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not (self.lcb <= self.point + 1e-9 and self.point - 1e-9 <= self.ucb):
            raise ValueError(
                f"inconsistent bounds: lcb={self.lcb}, point={self.point}, ucb={self.ucb}"
            )

    @property
    def width(self) -> float:
        return self.ucb - self.lcb

    def to_json(self) -> dict:
        return {
            "method": self.method.value,
            "distance": self.distance.value,
            "radius": self.radius,
            "point": self.point,
            "lcb": self.lcb,
            "ucb": self.ucb,
        }


@lru_cache(maxsize=None)
def _attainable_range(spec: RiskMeasure, bounds: SupportBounds) -> tuple[float, float]:
    """Range of the risk measure over all distributions on [a, b]: by
    monotonicity it is [T(delta_a), T(delta_b)], which equals [a, b] itself
    for every family except rank-dependent expected utility (whose value
    function rescales the support). Computed once per (spec, bounds)."""
    lo = evaluate(spec, DiscreteDistribution.dirac(bounds.a, bounds))
    hi = evaluate(spec, DiscreteDistribution.dirac(bounds.b, bounds))
    return lo, hi


def bound_with_radius(
    d: DiscreteDistribution,
    spec: RiskMeasure,
    dist_kind: Distance,
    method: BoundMethod,
    c: float,
) -> ConfidenceResult:
    """(LCB, UCB) for the risk of the true distribution, given ball radius c."""
    _require_radius(c)
    if method is BoundMethod.DIST:
        if dist_kind is Distance.SUPREMUM:
            lower, upper = neg_sup, pos_sup
        elif isinstance(spec, RDEU):
            raise UnsupportedCombinationError(
                "W1 ball extremes do not attain the rank-dependent expected "
                "utility optimum; use the supremum distance or the glc method"
            )
        else:
            lower, upper = neg_w1, pos_w1
        point = evaluate(spec, d)
        lcb, ucb = evaluate(spec, lower(d, c)), evaluate(spec, upper(d, c))
        return ConfidenceResult(lcb, ucb, method, dist_kind, c, point)

    # The constant comes first: an unsupported combination is reported as
    # such even where evaluating the point would reject the support.
    if method is BoundMethod.LLC:
        constant = llc(spec, dist_kind, d, c)
    else:
        constant = glc(spec, dist_kind, d.bounds)
    point = evaluate(spec, d)
    delta = constant * c if c > 0.0 else 0.0  # avoid inf * 0 at zero radius
    raw_lcb, raw_ucb = point - delta, point + delta
    range_lo, range_hi = _attainable_range(spec, d.bounds)
    extras = {"lipschitz_constant": constant, "raw_lcb": raw_lcb, "raw_ucb": raw_ucb}
    return ConfidenceResult(
        max(raw_lcb, range_lo), min(raw_ucb, range_hi), method, dist_kind, c, point, extras
    )


def bound_from_samples(
    samples: Sequence[float],
    bounds: SupportBounds,
    spec: RiskMeasure,
    dist_kind: Distance,
    method: BoundMethod,
    delta: float,
    radius_rule: RadiusRule | None = None,
) -> ConfidenceResult:
    """Build the empirical distribution, pick the radius, and bound.

    The rule must match the distance: ``dkw`` for the supremum distance,
    ``scaled-dkw`` (default) or ``fact22`` for W1.
    """
    rule = resolve_radius_rule(radius_rule, dist_kind)
    d = from_samples(samples, bounds)
    c = confidence_radius(rule, len(np.asarray(samples)), delta, bounds)
    result = bound_with_radius(d, spec, dist_kind, method, c)
    result.extras["radius_rule"] = rule.value
    result.extras["delta"] = delta
    return result
