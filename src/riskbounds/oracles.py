"""Independent oracles for tests and ground truth.

Two services, both deliberately decoupled from the production bound paths:

- ``random_feasible(center, kind, c, count, seed=0)``: ``count`` random
  distributions inside the ``kind`` ball of radius ``c`` around
  ``center``, used to probe that the ball-extreme operators really
  dominate every feasible competitor in risk value. Supremum balls are
  sampled as random monotone CDFs inside the tube; W1 balls as random
  partial mass transports with total cost within the radius. Every
  candidate is checked feasible with the exact distance before it is
  emitted.
- ``quadrature_risk``: risk values of parametric (continuous) arm
  distributions by adaptive Simpson refinement of the defining integral to
  1e-9: over the loss quantile on (0, 1) for CVaR, SRM, ERM and CE, over
  the loss CDF on [a, b] for DRM and RDEU. Atomic arms short-circuit to
  exact evaluation.
"""

from __future__ import annotations

import numpy as np

from .distributions import DiscreteDistribution, Distance, SupportBounds, distance
from .measures import CE, CVaR, DRM, ERM, RDEU, SRM, RiskMeasure, _apply, evaluate
from .operators import _require_radius

__all__ = [
    "QuadratureError",
    "random_feasible",
    "quadrature_risk",
    "refining_integral",
]

QUADRATURE_TOL = 1e-9
_INITIAL_PANELS = 32
# Open panels refined per integrand call, and panels refined per integral.
_BATCH_PANELS, _MAX_PANELS = 1 << 15, 1 << 22
# Random atoms each supremum-ball candidate adds to the center's interior atoms.
ATOM_BUDGET = 4


class QuadratureError(RuntimeError):
    """An integral that ``refining_integral`` cannot resolve to its tolerance."""


def refining_integral(fn, lo: float, hi: float, tol: float = QUADRATURE_TOL) -> float:
    """Adaptive Simpson quadrature: every panel is refined (bisected, with
    its coarse and refined estimates compared) until the refinements agree
    within the panel's share of ``tol``.

    ``fn`` maps an array of points to an array of the same shape. Each
    refinement level evaluates it once, on the new points of every panel
    still open (in batches of up to 2^15 panels), and no point twice.

    Quantile integrands of bounded distributions often carry a thin
    near-vertical layer at the support edge where the density vanishes;
    per-panel refinement resolves the layer without wasting panels on the
    smooth bulk. Panels narrower than the float grid are accepted as-is;
    the leftover disagreement is tracked and reported if it exceeds the
    requested tolerance. So is an integrand that needs over 2^22 panels.
    """
    if hi <= lo:
        return 0.0

    def f(x: np.ndarray) -> np.ndarray:
        # A non-finite value is reported once, by the check below, not also
        # as a numpy floating-point warning.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.asarray(fn(x), dtype=np.float64)
        if not np.isfinite(vals).all():
            raise QuadratureError(f"integrand not finite at {x[np.argmin(np.isfinite(vals))]}")
        return vals

    def simpson(x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        return (x[:, 2] - x[:, 0]) / 6.0 * (fx[:, 0] + 4.0 * fx[:, 1] + fx[:, 2])

    n = _INITIAL_PANELS
    width_floor = max(1e-14, (hi - lo) * 1e-13)
    # Seed with a uniform partition so narrow features away from the
    # endpoints are not missed by a single top-level panel.
    grid = np.linspace(lo, hi, n + 1)
    mid = 0.5 * (grid[:-1] + grid[1:])
    vals = f(np.concatenate((grid, mid)))
    # One row per open panel: left edge, midpoint, right edge. A batch of rows
    # shares one depth, so its panels share one slice t of the tolerance.
    x = np.stack((grid[:-1], mid, grid[1:]), axis=1)
    batches = [(x, np.stack((vals[:n], vals[n + 1:], vals[1:n + 1]), axis=1), tol / n)]
    failed = f"quadrature failed to resolve [{lo}, {hi}] to {tol}"
    edges, parts, refined, unresolved = [], [], 0, 0.0
    while batches:
        x, fx, t = batches.pop()
        if len(x) > _BATCH_PANELS:  # refine depth-first so memory stays bounded
            batches.append((x[_BATCH_PANELS:], fx[_BATCH_PANELS:], t))
            x, fx = x[:_BATCH_PANELS], fx[:_BATCH_PANELS]
        refined += len(x)
        if refined > _MAX_PANELS:
            raise QuadratureError(f"{failed} in {_MAX_PANELS} panels")
        # Bisect every open panel: five points, the quarter points new.
        x5, f5 = np.empty((len(x), 5)), np.empty((len(x), 5))
        x5[:, ::2], f5[:, ::2] = x, fx
        x5[:, 1::2] = 0.5 * (x[:, :2] + x[:, 1:])
        f5[:, 1::2] = f(x5[:, 1::2].ravel()).reshape(-1, 2)
        left, right = simpson(x5[:, :3], f5[:, :3]), simpson(x5[:, 2:], f5[:, 2:])
        err = left + right - simpson(x, fx)
        resolved = np.abs(err) <= 15.0 * t
        done = resolved | (x[:, 2] - x[:, 0] <= width_floor)
        edges.append(x[done, 0])
        parts.append((left + right + err / 15.0)[done])
        unresolved += float(np.abs(err[done & ~resolved]).sum())
        if not done.all():
            go = ~done  # each open panel splits into its two halves
            x, fx = np.concatenate((x5[go, :3], x5[go, 2:])), np.concatenate((f5[go, :3], f5[go, 2:]))
            batches.append((x, fx, t / 2.0))

    # A sequential sum from the rightmost panel leftwards, the order of a
    # depth-first refinement that splits the right half first.
    order = np.argsort(np.concatenate(edges))[::-1]
    total = float(np.cumsum(np.concatenate(parts)[order])[-1])
    if unresolved > tol:
        raise QuadratureError(f"{failed}; leftover {unresolved}")
    return total


def quadrature_risk(arm, spec: RiskMeasure, bounds: SupportBounds) -> float:
    """Risk of a parametric arm distribution, independent of the discrete
    evaluators. Atomic arms (point masses, explicit atom lists) are exact; a
    continuous arm needs only ``quantile`` and ``cdf``, arrays to arrays."""
    exact = arm.as_discrete(bounds)
    if exact is not None:
        return evaluate(spec, exact)

    a, b = bounds.a, bounds.b
    if isinstance(spec, CVaR):
        return refining_integral(lambda y: arm.quantile(y, bounds), 1.0 - spec.alpha, 1.0) / spec.alpha
    if isinstance(spec, SRM):
        return refining_integral(lambda y: _apply(spec.phi, y) * arm.quantile(y, bounds), 0.0, 1.0)
    if isinstance(spec, DRM):
        return a + refining_integral(lambda x: _apply(spec.g, 1.0 - arm.cdf(x, bounds)), a, b)
    if isinstance(spec, RDEU):
        v_at_b = float(_apply(spec.v, np.array([b]))[0])
        correction = refining_integral(lambda x: _apply(spec.w, arm.cdf(x, bounds)) * _apply(spec.v_prime, x), a, b)
        return v_at_b - correction
    if isinstance(spec, ERM):
        beta = spec.beta
        lo, hi = arm.quantile(np.array([0.0, 1.0]), bounds).tolist()
        shift = beta * (hi if beta > 0 else lo)  # keep the exponential moment in range
        moment = refining_integral(lambda y: np.exp(beta * arm.quantile(y, bounds) - shift), 0.0, 1.0)
        return float((np.log(moment) + shift) / beta)
    if isinstance(spec, CE):
        expected = refining_integral(lambda y: _apply(spec.u, arm.quantile(y, bounds)), 0.0, 1.0)
        return float(_apply(spec.u_inv, np.array([expected]))[0])
    raise TypeError(f"not a risk measure spec: {spec!r}")


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


def random_feasible(
    center: DiscreteDistribution, kind: Distance, c: float, count: int, seed: int = 0
) -> list[DiscreteDistribution]:
    """``count`` random distributions inside the ``kind`` ball of radius
    ``c`` around ``center``, each verified feasible with the exact distance
    before emission."""
    c = _require_radius(c)
    if c == 0.0:
        return [center] * count
    rng = np.random.default_rng(seed)
    out: list[DiscreteDistribution] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * (count + 1):
            raise RuntimeError("feasible-candidate sampler stalled; ball too tight?")
        if kind is Distance.SUPREMUM:
            cand = _sup_candidate(center, c, rng)
        else:
            cand = _w1_candidate(center, c, rng)
        if distance(center, cand, kind) <= c:
            out.append(cand)
    return out
