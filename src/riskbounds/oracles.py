"""Independent oracles for tests and ground truth.

Two services, both deliberately decoupled from the production bound paths:

- ``random_feasible``: random distributions inside a given distance ball,
  used to probe that the ball-extreme operators really dominate every
  feasible competitor in risk value. Supremum balls are sampled as random
  monotone CDFs inside the tube; W1 balls as random partial mass
  transports with total cost within the radius. Every candidate is checked
  feasible with the exact distance before it is emitted.
- ``quadrature_risk``: risk values of parametric (continuous) arm
  distributions by adaptive refinement of the defining integral, quantile
  form for tail/spectral measures, CDF form for distortion/rank-dependent
  measures, and density expectation form for the utility-based ones.
  Refinement doubles the panel count until successive values agree to
  1e-9. Atomic arms short-circuit to exact evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, Distance, SupportBounds, distance
from .measures import CE, CVaR, DRM, ERM, RDEU, SRM, RiskMeasure, _apply, evaluate
from .operators import BallSpec

__all__ = [
    "FeasibleSampler",
    "random_feasible",
    "quadrature_risk",
    "refining_integral",
]

QUADRATURE_TOL = 1e-9
_INITIAL_PANELS = 32
# Random atoms each supremum-ball candidate adds to the center's interior atoms.
ATOM_BUDGET = 4


def refining_integral(fn, lo: float, hi: float, tol: float = QUADRATURE_TOL) -> float:
    """Adaptive Simpson quadrature: every panel is refined (bisected, with
    its coarse and refined estimates compared) until the refinements agree
    within the panel's share of ``tol``.

    Quantile integrands of bounded distributions often carry a thin
    near-vertical layer at the support edge where the density vanishes;
    per-panel refinement resolves the layer without wasting panels on the
    smooth bulk. Panels narrower than the float grid are accepted as-is;
    the leftover disagreement is tracked and reported if it ever exceeds
    the requested tolerance.
    """
    if hi <= lo:
        return 0.0

    def f(x: float) -> float:
        val = float(np.asarray(fn(np.asarray([x], dtype=np.float64)))[0])
        if not np.isfinite(val):
            raise RuntimeError(f"integrand not finite at {x}")
        return val

    def simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    width_floor = max(1e-14, (hi - lo) * 1e-13)
    # Seed with a uniform partition so narrow features away from the
    # endpoints are not missed by a single top-level panel.
    grid = np.linspace(lo, hi, _INITIAL_PANELS + 1)
    stack = []
    for a, b in zip(grid[:-1], grid[1:]):
        fa, fb = f(a), f(b)
        m = 0.5 * (a + b)
        fm = f(m)
        stack.append((a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol / _INITIAL_PANELS))

    total = 0.0
    unresolved = 0.0
    while stack:
        a, b, fa, fm, fb, coarse, t = stack.pop()
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        err = left + right - coarse
        if abs(err) <= 15.0 * t or (b - a) <= width_floor:
            total += left + right + err / 15.0
            if abs(err) > 15.0 * t:
                unresolved += abs(err)
        else:
            stack.append((a, m, fa, flm, fm, left, t / 2.0))
            stack.append((m, b, fm, frm, fb, right, t / 2.0))
    if unresolved > tol:
        raise RuntimeError(
            f"quadrature failed to resolve [{lo}, {hi}] to {tol}; leftover {unresolved}"
        )
    return float(total)


def quadrature_risk(arm, spec: RiskMeasure, bounds: SupportBounds) -> float:
    """Risk of a parametric arm distribution, independent of the discrete
    evaluators. Atomic arms (point masses, explicit atom lists) are exact."""
    exact = arm.as_discrete(bounds)
    if exact is not None:
        return evaluate(spec, exact)

    a, b = bounds.a, bounds.b
    if isinstance(spec, CVaR):
        alpha = spec.alpha
        val = refining_integral(lambda y: arm.quantile(y, bounds), 1.0 - alpha, 1.0)
        return val / alpha
    if isinstance(spec, SRM):
        return refining_integral(
            lambda y: _apply(spec.phi, y) * arm.quantile(y, bounds), 0.0, 1.0
        )
    if isinstance(spec, DRM):
        return a + refining_integral(
            lambda x: _apply(spec.g, 1.0 - arm.cdf(x, bounds)), a, b
        )
    if isinstance(spec, RDEU):
        v_at_b = float(_apply(spec.v, np.array([b]))[0])
        correction = refining_integral(
            lambda x: _apply(spec.w, arm.cdf(x, bounds)) * _apply(spec.v_prime, x), a, b
        )
        return v_at_b - correction
    lo, hi = arm.support(bounds)
    if isinstance(spec, ERM):
        beta = spec.beta
        shift = beta * (hi if beta > 0 else lo)  # keep the exponential moment in range
        moment = refining_integral(
            lambda x: np.exp(beta * x - shift) * arm.pdf(x, bounds), lo, hi
        )
        return (np.log(moment) + shift) / beta
    if isinstance(spec, CE):
        expected = refining_integral(
            lambda x: _apply(spec.u, x) * arm.pdf(x, bounds), lo, hi
        )
        return float(_apply(spec.u_inv, np.array([expected]))[0])
    raise TypeError(f"not a risk measure spec: {spec!r}")


@dataclass(frozen=True)
class FeasibleSampler:
    """Random-candidate generator for one ball around one center."""

    center: DiscreteDistribution
    ball: BallSpec
    rng_seed: int = 0


def _sup_candidate(center: DiscreteDistribution, c: float, rng) -> DiscreteDistribution:
    a, b = center.bounds.a, center.bounds.b
    interior = center.xs[center.xs < b]
    extra = a + (b - a) * rng.random(ATOM_BUDGET)
    grid = np.union1d(interior, extra[extra < b])
    if grid.size == 0:
        grid = np.array([a])
    f_vals = center.cdf(grid)
    margin = c * (1.0 - 1e-9)  # tiny shrink keeps float dust inside the ball
    lower = np.maximum(f_vals - margin, 0.0)
    upper = np.minimum(f_vals + margin, 1.0)
    draws = lower + (upper - lower) * rng.random(grid.size)
    cdf_vals = np.maximum.accumulate(draws)
    xs = np.append(grid, b)
    cdf_vals = np.append(cdf_vals, 1.0)
    return DiscreteDistribution._from_cdf(xs, cdf_vals, center.bounds)


def _w1_candidate(center: DiscreteDistribution, c: float, rng) -> DiscreteDistribution:
    a, b = center.bounds.a, center.bounds.b
    budget = c * rng.random() * (1.0 - 1e-9)
    moved_frac = rng.random(center.xs.size)
    moved = center.ps * moved_frac
    offsets = (b - a) * rng.uniform(-1.0, 1.0, center.xs.size)
    cost = float(moved @ np.abs(offsets))
    if cost > budget and cost > 0.0:
        offsets *= budget / cost
    new_xs = np.clip(center.xs + offsets, a, b)
    xs = np.concatenate((center.xs, new_xs))
    ps = np.concatenate((center.ps - moved, moved))
    return DiscreteDistribution(xs, ps, center.bounds)


def random_feasible(sampler: FeasibleSampler, count: int) -> list[DiscreteDistribution]:
    """``count`` random distributions inside the sampler's ball, each
    verified feasible with the exact distance before emission."""
    center, ball = sampler.center, sampler.ball
    if ball.c == 0.0:
        return [center] * count
    rng = np.random.default_rng(sampler.rng_seed)
    out: list[DiscreteDistribution] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * (count + 1):
            raise RuntimeError("feasible-candidate sampler stalled; ball too tight?")
        if ball.distance is Distance.SUPREMUM:
            cand = _sup_candidate(center, ball.c, rng)
        else:
            cand = _w1_candidate(center, ball.c, rng)
        if distance(center, cand, ball.distance) <= ball.c:
            out.append(cand)
    return out
