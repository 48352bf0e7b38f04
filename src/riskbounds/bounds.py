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
from .lipschitz import UnsupportedCombinationError, _llc_rows, glc, llc
from .measures import _RANK_DEPENDENT, _SPEC_CACHE_SIZE, RDEU, RiskMeasure, _evaluate_rows, evaluate
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


def _bound_block(spec: RiskMeasure, dist_kind: Distance, c: float, bounds, methods, edf=None, padded=None):
    """Yield, row by row, one result per method.

    Given ``edf``, the one row is that empirical distribution, bounded with
    ``evaluate``, the operators and ``llc``; no two extremes are ever alive
    together. Given ``padded``, the rows are (a, s_1, ..., s_n, b) for
    tie-free samples strictly inside (a, b), whose EDFs and supremum-ball
    extremes share the first row's CDF values. Every risk and supremum-ball
    constant is one pass over the block (``_evaluate_rows``, ``_llc_rows``)
    with the bits and errors of the one-row path; W1 extremes break where
    the values put them, so they go row by row. Nothing runs before the
    first row is asked for, and each row's results are built when it is.
    """
    sup = dist_kind is Distance.SUPREMUM
    edf = from_samples(padded[0, 1:-1], bounds) if edf is None else edf
    keep = np.ones(1 if padded is None else len(padded), dtype=bool)  # rows the block's values fit

    def atoms(d: DiscreteDistribution) -> np.ndarray:
        start = int(np.searchsorted(padded[0], d.xs[0]))
        return padded[:, start : start + d.n_atoms]

    def risks(d: DiscreteDistribution) -> list:
        return [evaluate(spec, d)] if padded is None else _evaluate_rows(spec, atoms(d), d.cum, bounds)

    def edfs() -> list:
        return [edf] if padded is None else [DiscreteDistribution._trusted(x, edf.cum, bounds) for x in atoms(edf)]

    # The operators are read from the module on each call, so a wrapper
    # installed over them (perfbench's tracer) sees these calls too.
    point, columns = None, []
    for method in methods:
        if method is BoundMethod.DIST:
            if not sup and isinstance(spec, RDEU):
                raise UnsupportedCombinationError(
                    "W1 ball extremes do not attain the rank-dependent expected "
                    "utility optimum; use the supremum distance or the glc method"
                )
            point = point or risks(edf)
            if sup and padded is not None:
                columns.append(list(zip(risks(neg_sup(edf, c)), risks(pos_sup(edf, c)))))
            else:  # each extreme is freed as soon as it is read
                lower, upper = (neg_sup, pos_sup) if sup else (neg_w1, pos_w1)
                columns.append([(evaluate(spec, lower(d, c)), evaluate(spec, upper(d, c))) for d in edfs()])
            continue
        # The constant comes first: an unsupported combination is reported as
        # such even where evaluating the point would reject the support.
        if method is BoundMethod.GLC:
            columns.append([glc(spec, dist_kind, bounds)] * len(keep))
        elif sup and padded is not None:
            low = neg_sup(edf, c)
            columns.append(_llc_rows(spec, atoms(low), low.cum, bounds, keep))
        elif not sup and isinstance(spec, _RANK_DEPENDENT):
            columns.append([llc(spec, dist_kind, edf, c)] * len(keep))  # the glc, or none for RDEU
        else:
            columns.append([llc(spec, dist_kind, d, c) for d in edfs()])
        point = point or risks(edf)

    def result(method: BoundMethod, value, row_point: float) -> ConfidenceResult:
        if method is BoundMethod.DIST:
            return ConfidenceResult(*value, method, dist_kind, c, row_point)
        delta = value * c if c > 0.0 else 0.0  # avoid inf * 0 at zero radius
        lcb, ucb = row_point - delta, row_point + delta
        range_lo, range_hi = _attainable_range(spec, bounds)
        extras = {"lipschitz_constant": value, "raw_lcb": lcb, "raw_ucb": ucb}
        return ConfidenceResult(max(lcb, range_lo), min(ucb, range_hi), method, dist_kind, c, row_point, extras)

    for i, (row_point, kept, *values) in enumerate(zip(point or [None] * len(keep), keep.tolist(), *columns)):
        if kept:
            yield [result(m, v, row_point) for m, v in zip(methods, values)]
        else:  # on its own, from its EDF
            own = DiscreteDistribution._trusted(atoms(edf)[i], edf.cum, bounds)
            yield next(_bound_block(spec, dist_kind, c, bounds, methods, edf=own))


def bound_with_radius(
    d: DiscreteDistribution,
    spec: RiskMeasure,
    dist_kind: Distance,
    method: BoundMethod,
    c: float,
) -> ConfidenceResult:
    """(LCB, UCB) for the risk of the true distribution, given ball radius c."""
    _require_radius(c)
    return next(_bound_block(spec, dist_kind, c, d.bounds, [method], edf=d))[0]


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
    set of EDF and supremum-ball extreme CDF values and are bounded together,
    one vectorized pass per risk and constant; nan, inf and samples outside
    [a, b] fail that test too. A shared row whose steps of v on its lowered
    extreme differ from the first row's takes the ``llc`` of its own EDF.
    Every other row is bounded on its own, from its samples as given, and
    ``from_samples`` checks it. The fault raised is the first row's. The
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
    shareable = [False] * rows
    if rows > 1:
        padded = np.empty((rows, n + 2))
        padded[:, 0], padded[:, -1] = bounds.a, bounds.b
        padded[:, 1:-1] = arr
        padded[:, 1:-1].sort(axis=1)
        shareable = np.all(padded[:, 1:] > padded[:, :-1], axis=1)
        block = _bound_block(spec, dist_kind, c, bounds, methods, padded=padded[shareable])
        shareable = shareable.tolist()
        del padded

    out = []
    for i, share in enumerate(shareable):
        results = next(block if share else _bound_block(spec, dist_kind, c, bounds, methods, edf=from_samples(arr[i], bounds)))
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
