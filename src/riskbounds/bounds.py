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
local constant exists, so only ``glc`` applies there. CVaR, SRM and DRM
share RDEU's evaluator and constants but have the value function
v(x) = x, for which the W1 extremes are optimal, so they keep all three.
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
from .measures import _SPEC_CACHE_SIZE, RDEU, RiskMeasure, evaluate
from .operators import _require_radius, neg_sup, neg_w1, pos_sup, pos_w1

__all__ = [
    "BoundMethod",
    "ConfidenceResult",
    "UnsupportedCombinationError",
    "bound_with_radius",
    "bound_rows",
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
        # The evaluators' rounding grows with the magnitude of the values.
        slack = 1e-9 * max(1.0, abs(self.point))
        if not (self.lcb <= self.point + slack and self.point - slack <= self.ucb):
            raise ValueError(
                f"inconsistent bounds: lcb={self.lcb}, point={self.point}, ucb={self.ucb}"
            )

    def to_json(self) -> dict:
        return {
            "method": self.method.value,
            "distance": self.distance.value,
            "radius": self.radius,
            "point": self.point,
            "lcb": self.lcb,
            "ucb": self.ucb,
        }


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _attainable_range(spec: RiskMeasure, bounds: SupportBounds) -> tuple[float, float]:
    """Range of the risk measure over all distributions on [a, b]: by
    monotonicity it is [T(delta_a), T(delta_b)], which equals [a, b] itself
    for every family except rank-dependent expected utility (whose
    nonlinear value function rescales the support). Computed once per
    (spec, bounds)."""
    lo = evaluate(spec, DiscreteDistribution.dirac(bounds.a, bounds))
    hi = evaluate(spec, DiscreteDistribution.dirac(bounds.b, bounds))
    return lo, hi


def _bound_edf(
    spec: RiskMeasure, dist_kind: Distance, c: float, d: DiscreteDistribution, methods, lower=None, upper=None
) -> list[ConfidenceResult]:
    """One result per method for the empirical distribution ``d``.

    ``lower()`` and ``upper()`` build the ball's extremes around ``d``; by
    default they apply the distance's operators. The point is evaluated
    once and shared by the methods. Each method builds the extremes it
    reads and drops each as soon as it is read, so no two are ever alive
    together: ``llc`` builds its own lowered extreme through ``lower``.
    """
    # The operators are read from the module on each call, so a wrapper
    # installed over them (perfbench's tracer) sees these calls too.
    lower_op, upper_op = (neg_sup, pos_sup) if dist_kind is Distance.SUPREMUM else (neg_w1, pos_w1)
    lower = lower or (lambda: lower_op(d, c))
    upper = upper or (lambda: upper_op(d, c))
    point = None
    results = []
    for method in methods:
        if method is BoundMethod.DIST:
            if dist_kind is not Distance.SUPREMUM and isinstance(spec, RDEU):
                raise UnsupportedCombinationError(
                    "W1 ball extremes do not attain the rank-dependent expected "
                    "utility optimum; use the supremum distance or the glc method"
                )
            if point is None:
                point = evaluate(spec, d)
            ucb = evaluate(spec, upper())
            lcb = evaluate(spec, lower())
            results.append(ConfidenceResult(lcb, ucb, method, dist_kind, c, point))
            continue
        # The constant comes first: an unsupported combination is reported as
        # such even where evaluating the point would reject the support.
        if method is BoundMethod.LLC:
            constant = llc(spec, dist_kind, d, c, lower)
        else:
            constant = glc(spec, dist_kind, d.bounds)
        if point is None:
            point = evaluate(spec, d)
        delta = constant * c if c > 0.0 else 0.0  # avoid inf * 0 at zero radius
        raw_lcb, raw_ucb = point - delta, point + delta
        range_lo, range_hi = _attainable_range(spec, d.bounds)
        extras = {"lipschitz_constant": constant, "raw_lcb": raw_lcb, "raw_ucb": raw_ucb}
        results.append(
            ConfidenceResult(
                max(raw_lcb, range_lo), min(raw_ucb, range_hi), method, dist_kind, c, point, extras
            )
        )
    return results


def bound_with_radius(
    d: DiscreteDistribution,
    spec: RiskMeasure,
    dist_kind: Distance,
    method: BoundMethod,
    c: float,
) -> ConfidenceResult:
    """(LCB, UCB) for the risk of the true distribution, given ball radius c."""
    _require_radius(c)
    return _bound_edf(spec, dist_kind, c, d, [method])[0]


class _SharedMasses:
    """The EDF and supremum-ball extremes of tie-free samples strictly
    inside (a, b), shared by the rows of one call.

    For n such samples the CDF values of the EDF and of both extremes
    depend only on n and the radius: the EDF's are k/n, and the extremes
    shift them by the radius. The first row that needs one builds it
    through ``from_samples``, ``neg_sup`` or ``pos_sup``; its frozen ``cum``
    is kept with the run of the padded row (a, sorted samples, b) that
    holds its atoms, and every later row gets it with its own sorted values
    as atoms, bit for bit what the builder would return.
    """

    def __init__(self, bounds: SupportBounds):
        self.bounds = bounds
        self.kept = {}  # builder -> (atom run of the padded row, cum)

    def build(self, builder, padded: np.ndarray, *args) -> DiscreteDistribution:
        entry = self.kept.get(builder)
        if entry is not None:
            run, cum = entry
            return DiscreteDistribution._trusted(padded[run], cum, self.bounds)
        out = builder(*args)
        # The EDF's atoms are the samples; neg_sup's are a and the samples
        # below its saturation, pos_sup's the samples above it and b: each
        # a run of consecutive entries of the padded row.
        start = int(np.searchsorted(padded, out.xs[0]))
        self.kept[builder] = (slice(start, start + out.n_atoms), out.cum)
        return out

    def row(self, padded: np.ndarray, spec: RiskMeasure, dist_kind: Distance, c: float, methods):
        d = self.build(from_samples, padded, padded[1:-1], self.bounds)
        if dist_kind is not Distance.SUPREMUM:
            return _bound_edf(spec, dist_kind, c, d, methods)  # a W1 extreme's break depends on the values
        lower = lambda: self.build(neg_sup, padded, d, c)
        upper = lambda: self.build(pos_sup, padded, d, c)
        return _bound_edf(spec, dist_kind, c, d, methods, lower, upper)


def bound_rows(
    samples: np.ndarray,
    bounds: SupportBounds,
    spec: RiskMeasure,
    dist_kind: Distance,
    methods: Sequence[BoundMethod],
    delta: float,
    radius_rule: RadiusRule | None = None,
) -> list[list[ConfidenceResult]]:
    """Bound each row of a (T, n) block of samples with each method.

    Every row gets the radius of n samples. The results equal, bit for bit,
    building each row's empirical distribution with ``from_samples`` and
    bounding it with ``bound_with_radius`` method by method. Rows that are
    tie-free and strictly inside (a, b), a < s_1 < ... < s_n < b, share one
    set of EDF and supremum-ball extreme CDF values; nan, inf and samples
    outside [a, b] fail that test too. Every other row is bounded on its
    own, from its samples as given, and ``from_samples`` checks it. The
    caller's array is not modified.
    """
    rule = resolve_radius_rule(radius_rule, dist_kind)
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"sample rows must form a 2-D array, got {arr.ndim} dimension(s)")
    rows, n = arr.shape
    c = confidence_radius(rule, n, delta, bounds)

    # Each row as (a, sorted samples, b): strictly increasing exactly when
    # its samples are tie-free and strictly inside (a, b). A single row
    # (``ci``) has nothing to share and is not even copied.
    shareable = np.zeros(rows, dtype=bool)
    if rows > 1:
        padded = np.empty((rows, n + 2))
        padded[:, 0], padded[:, -1] = bounds.a, bounds.b
        padded[:, 1:-1] = arr
        padded[:, 1:-1].sort(axis=1)
        shareable = np.all(padded[:, 1:] > padded[:, :-1], axis=1)
        shared = _SharedMasses(bounds)

    out = []
    for i, share in enumerate(shareable.tolist()):
        if share:
            results = shared.row(padded[i], spec, dist_kind, c, methods)
        else:
            results = _bound_edf(spec, dist_kind, c, from_samples(arr[i], bounds), methods)
        for res in results:
            res.extras["radius_rule"] = rule.value
            res.extras["delta"] = delta
        out.append(results)
    return out


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
    ``scaled-dkw`` (default) or ``fact22`` for W1. This is ``bound_rows``
    on one row.
    """
    row = np.asarray(samples, dtype=np.float64).reshape(1, -1)
    return bound_rows(row, bounds, spec, dist_kind, [method], delta, radius_rule)[0][0]
