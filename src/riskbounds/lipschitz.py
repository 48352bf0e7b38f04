"""Global and local Lipschitz constants of risk measures over CDF distances.

The global constant (GLC) bounds |T(F) - T(G)| / ||F - G|| over all pairs
supported on [a, b]; the local constant (LLC) restricts the pair to a ball
of radius c around a center distribution, which shrinks with the radius and
therefore with the sample size. For each family the LLC is computed from
the closed form obtained by pushing the center down to the ball's minimal
element (the negative-operator transform): the constants below are those
exact expressions, not a numerical search.

CVaR, SRM, DRM and RDEU share one formula each: the sup of the weight's
derivative w' (on a grid of ``DEFAULT_GRID_POINTS`` (10001) points) times a
norm of the value function v for the GLC, and the integral of w' over the
lowered extreme's CDF against dv for the supremum-distance LLC, with
v(x) = x for all but RDEU. The CE constants take u' analytically where
convexity pins the maximizer.

Constants can be infinite when the supplied functions are not Lipschitz
(e.g. a power distortion with exponent below one has unbounded derivative
at zero); infinity is reported rather than replaced by a surrogate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .distributions import DiscreteDistribution, Distance, SupportBounds, _dot, _true_run
from .measures import (
    CE,
    ERM,
    RDEU,
    _RANK_DEPENDENT,
    _SPEC_CACHE_SIZE,
    RiskMeasure,
    _apply,
    _centred_log_moment,
    _check_on_support,
    _forward_diff,
    _with_zero,
    evaluate,
)
from .operators import _require_radius, neg_sup, neg_w1

__all__ = [
    "UnsupportedCombinationError",
    "glc",
    "llc",
    "DEFAULT_GRID_POINTS",
]

DEFAULT_GRID_POINTS = 10_001


class UnsupportedCombinationError(ValueError):
    """A (risk family, distance, method) combination with no valid formula."""


def _grid_max(fn, lo: float, hi: float) -> float:
    with np.errstate(divide="ignore", over="ignore"):
        vals = _apply(fn, np.linspace(lo, hi, DEFAULT_GRID_POINTS))
    return float(np.max(vals))


def _deriv_at(fn, x: float) -> float:
    with np.errstate(divide="ignore", over="ignore"):
        val = float(_apply(fn, np.array([x]))[0])
    return val


def _require_positive_beta(beta: float) -> None:
    if beta <= 0.0:
        raise UnsupportedCombinationError(
            "entropic-risk Lipschitz constants are derived for beta > 0 "
            "(increasing exponential utility); evaluation itself accepts any "
            "nonzero beta"
        )


def _cdf_integral(q: np.ndarray, fn, steps: np.ndarray) -> float:
    """int fn(F(x)) dh(x) over [a, b], exact for a step CDF F with values
    q_0 = 0, q_1, ..., q_m on its segments [x~_j, x~_{j+1}) of the
    partition a = x~_0 <= x_1 < ... < x_m <= b = x~_{m+1}: the sum of
    fn(q_j) times the step of h on each segment. ``steps`` holds those
    steps: for h(x) = x the widths, of which only the first and the last
    can be zero. It takes the CDF values, not the distribution, so a
    caller can free the atoms first. ``fn`` may overwrite ``q``, and the
    products overwrite ``steps``: the caller owns both.

    Empty steps are dropped before multiplying so an infinite integrand
    value (e.g. a power distortion's derivative at 0) on an empty segment
    contributes nothing instead of poisoning the sum with nan.
    """
    keep = _true_run(steps > 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return _dot(steps[keep], _apply(fn, q[keep]))


def _ce_u_norm(spec: CE, sup: bool, bounds: SupportBounds) -> float:
    """Dual norm of u' over [a, b]: u(b) - u(a) for the supremum distance,
    and for W1 the sup of u', which a convex u attains at b."""
    if sup:
        return float(_apply(spec.u, np.array([bounds.b]))[0] - _apply(spec.u, np.array([bounds.a]))[0])
    return _deriv_at(spec.u_prime, bounds.b)


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def glc(spec: RiskMeasure, dist_kind: Distance, bounds: SupportBounds) -> float:
    """Tightest known global Lipschitz constant for the family, computed
    once per (spec, distance, bounds).

    May be ``inf`` when the supplied functions are not Lipschitz over the
    whole space; the value is reported as-is.
    """
    a, b, width = bounds.a, bounds.b, bounds.width
    sup = dist_kind is Distance.SUPREMUM

    if isinstance(spec, ERM):
        _require_positive_beta(spec.beta)
        arg = spec.beta * width
        if sup:
            with np.errstate(over="ignore"):
                return float(np.expm1(arg)) / spec.beta
        with np.errstate(over="ignore"):
            return float(np.exp(arg))
    if isinstance(spec, CE):
        # dual-norm of u' over [a, b] divided by u'(a), the slope at the
        # utility's flattest point (u convex => (u^{-1})' peaks at u(a)).
        _check_on_support(spec, a, b)
        slope_at_a = _deriv_at(spec.u_prime, a)
        return _ce_u_norm(spec, sup, bounds) / slope_at_a if slope_at_a > 0.0 else math.inf
    if isinstance(spec, _RANK_DEPENDENT):
        # sup of w' times the dual norm of v': v(b) - v(a) for the supremum
        # distance, sup v' for W1; b - a and 1 for a linear v.
        w_max = _grid_max(spec.w_prime, 0.0, 1.0)
        if not isinstance(spec, RDEU):
            return w_max * width if sup else w_max
        _check_on_support(spec, a, b)
        if sup:
            v_l1 = float(_apply(spec.v, np.array([b]))[0] - _apply(spec.v, np.array([a]))[0])
            return w_max * v_l1
        return w_max * _grid_max(spec.v_prime, a, b)
    raise TypeError(f"not a risk measure spec: {spec!r}")


def llc(
    spec: RiskMeasure, dist_kind: Distance, center: DiscreteDistribution, c: float, lowered=None
) -> float:
    """Local Lipschitz constant over the radius-c ball around ``center``.

    Supremum-distance constants exist for every family. Over W1 balls the
    CVaR, SRM and DRM constants gain nothing locally (they are the GLC), and
    RDEU has none (use the GLC). Always <= the matching GLC, and
    nondecreasing in c.

    Over the supremum ball, CVaR, SRM, DRM and RDEU take
    int w'(F_low(x)) dv(x) on the lowered extreme F_low; for CVaR that is
    (b - F^{-1}(1 - alpha - c)) / alpha on a tie-free center.

    ``lowered()`` builds the ball's lowered extreme. By default it applies
    ``neg_sup(center, c)`` for the supremum distance and ``neg_w1(center, c)``
    for W1; a caller with a cheaper build of the same extreme (CDF values
    shared across rows) passes that instead. The rank-dependent constants
    read the extreme's CDF values and segment steps, then drop it, so its
    atoms are freed before the integral's work unless the builder keeps
    them.
    """
    _require_radius(c)
    bounds = center.bounds
    a, b = bounds.a, bounds.b
    sup = dist_kind is Distance.SUPREMUM
    lowered = lowered or (lambda: (neg_sup if sup else neg_w1)(center, c))

    if isinstance(spec, ERM):
        _require_positive_beta(spec.beta)
        beta = spec.beta
        centre, log_moment = _centred_log_moment(beta, lowered())
        log_den = beta * centre + log_moment  # log E[exp(beta X)]
        if sup:
            # log(1 - e^-x) without cancellation at either end of x
            # (Maechler 2012, log1mexp): at x below ~1e-16 log1p(-e^-x)
            # reads log(0), and from ~38 up log(-expm1(-x)) rounds to 0.
            x = beta * (b - a)
            log1mexp = math.log(-math.expm1(-x)) if x <= math.log(2.0) else math.log1p(-math.exp(-x))
            log_num = beta * b + log1mexp
            log_den += math.log(beta)
        else:
            log_num = beta * b
        try:
            return math.exp(log_num - log_den)
        except OverflowError:  # beyond the largest float: report inf, as glc does
            return math.inf
    if isinstance(spec, CE):
        ce_low = evaluate(spec, lowered())  # u^{-1} of the lowered expected utility
        slope = _deriv_at(spec.u_prime, ce_low)
        return _ce_u_norm(spec, sup, bounds) / slope if slope > 0.0 else math.inf
    if isinstance(spec, _RANK_DEPENDENT):
        linear = not isinstance(spec, RDEU)
        if not sup:
            if linear:
                return glc(spec, dist_kind, bounds)  # no local improvement for W1
            raise UnsupportedCombinationError(
                "rank-dependent expected utility has no local Lipschitz "
                "constant over W1 balls; use the glc method"
            )
        if not linear:
            _check_on_support(spec, a, b)
            _require_convex_weight(spec)
        # int w'(F_low(x)) dv(x): the steps of v on the lowered extreme's
        # segments a <= x_1 < ... < x_m <= b, which are their widths for a
        # linear v. The extreme's atoms go once the steps are built, and its
        # CDF values once copied.
        low = lowered()
        edges = np.empty(low.n_atoms + 2)
        edges[0], edges[1:-1], edges[-1] = a, low.xs, b
        steps = _forward_diff(edges if linear else _apply(spec.v, edges))
        del edges
        cum = low.cum
        del low
        q = _with_zero(cum)
        del cum
        return _cdf_integral(q, spec.w_prime, steps)
    raise TypeError(f"not a risk measure spec: {spec!r}")


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _require_convex_weight(spec: RDEU) -> None:
    """The local RDEU constant's check of w' on the grid, run once per spec."""
    wp = _apply(spec.w_prime, np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS))
    if np.any(np.diff(wp) < -1e-9):
        raise ValueError(
            "the local RDEU constant requires a convex weight function "
            "(nondecreasing w')"
        )
