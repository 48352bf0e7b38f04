"""Global and local Lipschitz constants of risk measures over CDF distances.

The global constant (GLC) bounds |T(F) - T(G)| / ||F - G|| over all pairs
supported on [a, b]; the local constant (LLC) restricts the pair to a ball
of radius c around a center distribution, which shrinks with the radius and
therefore with the sample size. For each family the LLC is computed from
the closed form obtained by pushing the center down to the ball's minimal
element (the negative-operator transform): the constants below are those
exact expressions, not a numerical search.

Derivative sup-norms are taken analytically where monotonicity pins the
maximizer (spectra, concave distortions, convex utilities) and on a dense
grid of ``DEFAULT_GRID_POINTS`` (10001) points for free-form weight/value
functions.

Constants can be infinite when the supplied functions are not Lipschitz
(e.g. a power distortion with exponent below one has unbounded derivative
at zero); infinity is reported rather than replaced by a surrogate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .distributions import DiscreteDistribution, Distance, SupportBounds
from .measures import (
    CE,
    CVaR,
    DRM,
    ERM,
    RDEU,
    SRM,
    RiskMeasure,
    _apply,
    _check_on_support,
    _segment_grid,
    evaluate,
    logsumexp,
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


def _cdf_integral(d: DiscreteDistribution, fn) -> float:
    """int_a^b fn(F(x)) dx, exact for the step CDF of d.

    Zero-width segments are dropped before multiplying so an infinite
    integrand value (e.g. a power distortion's derivative at 0) on an empty
    segment contributes nothing instead of poisoning the sum with nan.
    """
    edges, cdf_seg = _segment_grid(d)
    widths = np.diff(edges)
    keep = widths > 0.0
    with np.errstate(divide="ignore", over="ignore"):
        vals = _apply(fn, cdf_seg[keep])
    return float(vals @ widths[keep])


def _ce_u_norm(spec: CE, sup: bool, bounds: SupportBounds) -> float:
    """Dual norm of u' over [a, b]: u(b) - u(a) for the supremum distance,
    and for W1 the sup of u', which a convex u attains at b."""
    if sup:
        return float(_apply(spec.u, np.array([bounds.b]))[0] - _apply(spec.u, np.array([bounds.a]))[0])
    return _deriv_at(spec.u_prime, bounds.b)


@lru_cache(maxsize=None)
def glc(spec: RiskMeasure, dist_kind: Distance, bounds: SupportBounds) -> float:
    """Tightest known global Lipschitz constant for the family, computed
    once per (spec, distance, bounds).

    May be ``inf`` when the supplied functions are not Lipschitz over the
    whole space; the value is reported as-is.
    """
    a, b, width = bounds.a, bounds.b, bounds.width
    sup = dist_kind is Distance.SUPREMUM

    if isinstance(spec, CVaR):
        return width / spec.alpha if sup else 1.0 / spec.alpha
    if isinstance(spec, SRM):
        phi_top = _deriv_at(spec.phi, 1.0)
        return width * phi_top if sup else phi_top
    if isinstance(spec, DRM):
        gp0 = _deriv_at(spec.g_prime, 0.0)  # concave g: sup of g' sits at 0+
        return width * gp0 if sup else gp0
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
    if isinstance(spec, RDEU):
        _check_on_support(spec, a, b)
        w_max = _grid_max(spec.w_prime, 0.0, 1.0)
        if sup:
            v_l1 = float(_apply(spec.v, np.array([b]))[0] - _apply(spec.v, np.array([a]))[0])
            return w_max * v_l1
        return w_max * _grid_max(spec.v_prime, a, b)
    raise TypeError(f"not a risk measure spec: {spec!r}")


def _quantile_or_a(d: DiscreteDistribution, y: float) -> float:
    return d.bounds.a if y <= 0.0 else float(d.quantile(y))


def llc(
    spec: RiskMeasure, dist_kind: Distance, center: DiscreteDistribution, c: float, lowered=None
) -> float:
    """Local Lipschitz constant over the radius-c ball around ``center``.

    Supremum-distance constants exist for every family. Over W1 balls the
    CVaR, SRM and DRM constants gain nothing locally (they are the GLC), and
    RDEU has none (use the GLC). Always <= the matching GLC, and
    nondecreasing in c.

    ``lowered()`` returns the ball's lowered extreme: ``neg_sup(center, c)``
    for the supremum distance, ``neg_w1(center, c)`` for W1. By default it
    builds that extreme; a caller that already holds it passes it instead.
    """
    _require_radius(c)
    bounds = center.bounds
    a, b = bounds.a, bounds.b
    sup = dist_kind is Distance.SUPREMUM
    lowered = lowered or (lambda: (neg_sup if sup else neg_w1)(center, c))

    if not sup and isinstance(spec, (CVaR, SRM, DRM)):
        return glc(spec, dist_kind, bounds)  # no local improvement for W1
    if isinstance(spec, CVaR):
        return (b - _quantile_or_a(center, 1.0 - spec.alpha - c)) / spec.alpha
    if isinstance(spec, SRM):
        return _cdf_integral(lowered(), spec.phi)
    if isinstance(spec, DRM):
        return _cdf_integral(lowered(), lambda q: _apply(spec.g_prime, 1.0 - np.asarray(q)))
    if isinstance(spec, ERM):
        _require_positive_beta(spec.beta)
        beta = spec.beta
        low = lowered()
        log_den = logsumexp(beta * low.xs, low.ps)  # log E[exp(beta X)]
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
    if isinstance(spec, RDEU):
        if not sup:
            raise UnsupportedCombinationError(
                "rank-dependent expected utility has no local Lipschitz "
                "constant over W1 balls; use the glc method"
            )
        _require_convex_weight(spec)
        edges, cdf_seg = _segment_grid(lowered())
        dv = np.diff(_apply(spec.v, edges))
        keep = dv > 0.0
        with np.errstate(divide="ignore", over="ignore"):
            weights = _apply(spec.w_prime, cdf_seg[keep])
        return float(weights @ dv[keep])
    raise TypeError(f"not a risk measure spec: {spec!r}")


@lru_cache(maxsize=None)
def _require_convex_weight(spec: RDEU) -> None:
    """The local RDEU constant's check of w' on the grid, run once per spec."""
    wp = _apply(spec.w_prime, np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS))
    if np.any(np.diff(wp) < -1e-9):
        raise ValueError(
            "the local RDEU constant requires a convex weight function "
            "(nondecreasing w')"
        )
