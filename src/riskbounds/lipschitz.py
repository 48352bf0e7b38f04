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

import numpy as np
from scipy.special import logsumexp

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


def _exp_moment_log(d: DiscreteDistribution, beta: float) -> float:
    """log integral of exp(beta x) against d, shift-stabilized."""
    return float(logsumexp(beta * d.xs, b=d.ps))


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


def glc(spec: RiskMeasure, dist_kind: Distance, bounds: SupportBounds) -> float:
    """Tightest known global Lipschitz constant for the family.

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
        u_norm = float(_apply(spec.u, np.array([b]))[0] - _apply(spec.u, np.array([a]))[0]) if sup else _deriv_at(spec.u_prime, b)
        slope_at_a = _deriv_at(spec.u_prime, a)
        return u_norm / slope_at_a if slope_at_a > 0.0 else math.inf
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


def llc(spec: RiskMeasure, dist_kind: Distance, center: DiscreteDistribution, c: float) -> float:
    """Local Lipschitz constant over the radius-c ball around ``center``.

    Supremum-distance constants exist for every family; W1 constants exist
    for all but RDEU (no closed form over the W1 ball; fall back to the
    GLC). Always <= the matching GLC, and nondecreasing in c.
    """
    _require_radius(c)
    bounds = center.bounds
    a, b = bounds.a, bounds.b
    sup = dist_kind is Distance.SUPREMUM

    if isinstance(spec, CVaR):
        if not sup:
            return 1.0 / spec.alpha  # no local improvement for W1
        return (b - _quantile_or_a(center, 1.0 - spec.alpha - c)) / spec.alpha
    if isinstance(spec, SRM):
        if not sup:
            return _deriv_at(spec.phi, 1.0)
        return _cdf_integral(neg_sup(center, c), spec.phi)
    if isinstance(spec, DRM):
        if not sup:
            return _deriv_at(spec.g_prime, 0.0)
        return _cdf_integral(neg_sup(center, c), lambda q: _apply(spec.g_prime, 1.0 - np.asarray(q)))
    if isinstance(spec, ERM):
        _require_positive_beta(spec.beta)
        beta = spec.beta
        if sup:
            log_num = beta * b + math.log1p(-math.exp(-beta * (b - a)))
            log_den = math.log(beta) + _exp_moment_log(neg_sup(center, c), beta)
        else:
            log_num = beta * b
            log_den = _exp_moment_log(neg_w1(center, c), beta)
        return math.exp(log_num - log_den)
    if isinstance(spec, CE):
        lowered = neg_sup(center, c) if sup else neg_w1(center, c)
        ce_low = evaluate(spec, lowered)  # u^{-1} of the lowered expected utility
        u_norm = float(_apply(spec.u, np.array([b]))[0] - _apply(spec.u, np.array([a]))[0]) if sup else _deriv_at(spec.u_prime, b)
        slope = _deriv_at(spec.u_prime, ce_low)
        return u_norm / slope if slope > 0.0 else math.inf
    if isinstance(spec, RDEU):
        if not sup:
            raise UnsupportedCombinationError(
                "rank-dependent expected utility has no local Lipschitz "
                "constant over W1 balls; use the global constant"
            )
        wp = _apply(spec.w_prime, np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS))
        if np.any(np.diff(wp) < -1e-9):
            raise ValueError(
                "the local RDEU constant requires a convex weight function "
                "(nondecreasing w')"
            )
        lowered = neg_sup(center, c)
        edges, cdf_seg = _segment_grid(lowered)
        dv = np.diff(_apply(spec.v, edges))
        keep = dv > 0.0
        with np.errstate(divide="ignore", over="ignore"):
            weights = _apply(spec.w_prime, cdf_seg[keep])
        return float(weights @ dv[keep])
    raise TypeError(f"not a risk measure spec: {spec!r}")

