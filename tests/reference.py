"""Reference checks for the package's claims, kept out of the package.

Nothing in ``riskbounds`` reads these; the tests use them as independent
oracles:

- ``distance`` and ``dominates``: exact sup/W1 distance and first-order
  dominance between step CDFs, on the merged support of two distributions.
- ``random_feasible(center, kind, c, count, seed=0)``: ``count`` random
  distributions inside the ``kind`` ball of radius ``c`` around ``center``,
  used to probe that the ball-extreme operators really dominate every
  feasible competitor in risk value. Supremum balls are sampled as random
  monotone CDFs inside the tube; W1 balls as random partial mass transports
  with total cost within the radius. Every candidate is checked feasible
  with the exact distance before it is emitted.
- ``compare_methods``: all three bound methods at one radius, with the
  dist <= llc <= glc tightness chain enforced on pre-clamp values.
- ``shift`` and ``allclose``: translation and approximate equality of
  distributions.
- ``instance_to_dict``: the instance-file form of a ``cvar`` or ``erm``
  bandit instance, the inverse of ``instance_from_dict``.
- ``unique_edf``, ``sorted_quantile_integral``, ``bound_one``,
  ``bound_samples`` and ``trial_results``: the empirical distribution, the
  bandit's EDF quantile integral, the bound of one distribution, the bound of
  one sample set, and the per-trial loop of ``sweep`` and ``coverage``, as
  the package computed them before it shared work between calls, rows and
  methods. The package must match them bit for bit.
- ``copying_*``: ``from_samples``, ``_from_cdf``, the four ball operators,
  the rank-dependent evaluator (CVaR, SRM and DRM with v(x) = x), the
  centred ERM log-moment, and the CVaR, SRM, DRM and RDEU supremum-ball
  local constants, as the package computes them but by concatenating,
  masking and copying instead of building results in place. The package
  must match them bit for bit.
- ``validated_pos_w1`` and ``validated_neg_w1``: the W1 operators from the
  masses of the water-fill, as the package built them before it handed
  over CDF values, through the validating constructor. The package must
  give the same atoms and masses within 1e-15.
- ``cvar_sup_llc_closed_form``: the CVaR supremum-ball local constant from
  the center's quantile function, the closed form the package computed
  before CVaR took the rank-dependent integral.
- ``exact_decimal_block``: the rule of the CSV reader's decimal kernel,
  in Python ints and ``float()``: which blocks it takes and what it gives
  for them. The package must accept the same blocks (where ``long double``
  is x87 80-bit) and give the same bits.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict

import numpy as np

from riskbounds import (
    Arm,
    BanditInstance,
    BoundMethod,
    ConfidenceResult,
    CVaR,
    DiscreteArm,
    DiscreteDistribution,
    Distance,
    ERM,
    RDEU,
    SRM,
    RiskMeasure,
    SupportBounds,
    UnsupportedCombinationError,
    bound_with_radius,
    confidence_radius,
    evaluate,
    glc,
    llc,
    neg_sup,
    neg_w1,
    pos_sup,
    pos_w1,
)
from riskbounds.bandit import ARM_FAMILIES
from riskbounds.concentration import resolve_radius_rule
from riskbounds.measures import _apply
from riskbounds.operators import _require_radius

# Random atoms each supremum-ball candidate adds to the center's interior atoms.
ATOM_BUDGET = 4
_CHAIN_TOL = 1e-9
_DECIMAL_LINE = re.compile(r"([0-9]*)\.([0-9]*)")


def _check_shared_bounds(d1: DiscreteDistribution, d2: DiscreteDistribution) -> None:
    if d1.bounds != d2.bounds:
        raise ValueError(f"support bounds mismatch: {d1.bounds} vs {d2.bounds}")


def _merged_cdfs(d1: DiscreteDistribution, d2: DiscreteDistribution):
    grid = np.union1d(d1.xs, d2.xs)
    return grid, d1.cdf(grid), d2.cdf(grid)


def distance(d1: DiscreteDistribution, d2: DiscreteDistribution, kind: Distance) -> float:
    """Sup distance sup_x |F - G|, or Wasserstein-1 distance int |F - G| dx.

    Both are exact for step CDFs: the sup is attained at an atom of the
    merged support, and the W1 integral is a finite sum of rectangle areas
    between consecutive merged atoms.
    """
    _check_shared_bounds(d1, d2)
    grid, f, g = _merged_cdfs(d1, d2)
    diff = np.abs(f - g)
    if kind is Distance.SUPREMUM:
        return float(diff.max())
    if kind is Distance.WASSERSTEIN1:
        if grid.size == 1:
            return 0.0
        return float(diff[:-1] @ np.diff(grid))
    raise ValueError(f"unknown distance kind {kind!r}")


def dominates(d1: DiscreteDistribution, d2: DiscreteDistribution, tol: float = 0.0) -> bool:
    """True iff the CDF of ``d1`` is >= the CDF of ``d2`` everywhere.

    Equivalently: d2 first-order stochastically dominates d1 as a loss
    (d2 carries at least as much mass on large values), so every monotone
    risk functional satisfies T(d1) <= T(d2).
    """
    _check_shared_bounds(d1, d2)
    _, f, g = _merged_cdfs(d1, d2)
    return bool(np.all(f >= g - tol))


def shift(d: DiscreteDistribution, t: float) -> DiscreteDistribution:
    """Translate all atoms (and the support) by t."""
    return DiscreteDistribution(d.xs + t, d.ps, SupportBounds(d.bounds.a + t, d.bounds.b + t))


def allclose(d1: DiscreteDistribution, d2: DiscreteDistribution, tol: float = 1e-12) -> bool:
    return (
        d1.bounds == d2.bounds
        and d1.xs.size == d2.xs.size
        and bool(np.all(np.abs(d1.xs - d2.xs) <= tol))
        and bool(np.all(np.abs(d1.ps - d2.ps) <= tol))
    )


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


def compare_methods(
    d: DiscreteDistribution,
    spec: RiskMeasure,
    dist_kind: Distance,
    c: float,
) -> tuple[ConfidenceResult, ConfidenceResult, ConfidenceResult]:
    """All three methods at one radius, verified to satisfy the tightness
    chain dist <= llc <= glc on pre-clamp values."""
    res_dist = bound_with_radius(d, spec, dist_kind, BoundMethod.DIST, c)
    res_llc = bound_with_radius(d, spec, dist_kind, BoundMethod.LLC, c)
    res_glc = bound_with_radius(d, spec, dist_kind, BoundMethod.GLC, c)

    ucbs = (res_dist.ucb, res_llc.extras["raw_ucb"], res_glc.extras["raw_ucb"])
    lcbs = (res_dist.lcb, res_llc.extras["raw_lcb"], res_glc.extras["raw_lcb"])
    if not (ucbs[0] <= ucbs[1] + _CHAIN_TOL and ucbs[1] <= ucbs[2] + _CHAIN_TOL):
        raise RuntimeError(f"tightness chain violated for UCBs: {ucbs}")
    if not (lcbs[0] >= lcbs[1] - _CHAIN_TOL and lcbs[1] >= lcbs[2] - _CHAIN_TOL):
        raise RuntimeError(f"tightness chain violated for LCBs: {lcbs}")
    return res_dist, res_llc, res_glc


def _arm_to_dict(arm: Arm) -> dict:
    if isinstance(arm, DiscreteArm):
        atoms = [{"x": float(x), "p": float(p)} for x, p in zip(arm.dist.xs, arm.dist.ps)]
        return {"family": "discrete", "params": {"atoms": atoms}}
    for family, cls in ARM_FAMILIES.items():
        if isinstance(arm, cls):
            return {"family": family, "params": asdict(arm)}
    raise TypeError(f"unknown arm {arm!r}")


def instance_to_dict(instance: BanditInstance) -> dict:
    """The instance-file form of ``instance``. Only ``cvar`` and ``erm``
    instances have one: the other families carry functions, not numbers."""
    if isinstance(instance.risk, CVaR):
        risk_label = f"cvar:{instance.risk.alpha}"
    elif isinstance(instance.risk, ERM):
        risk_label = f"erm:{instance.risk.beta}"
    else:
        raise ValueError("only cvar and erm instances can be written as instance files")
    return {
        "bounds": {"a": instance.bounds.a, "b": instance.bounds.b},
        "risk": risk_label,
        "horizon": instance.horizon,
        "seed": instance.seed,
        "arms": [_arm_to_dict(arm) for arm in instance.arms],
    }


def unique_edf(samples, bounds: SupportBounds) -> DiscreteDistribution:
    """The empirical distribution through ``np.unique``, whatever the order."""
    arr = np.asarray(samples, dtype=np.float64)
    xs, counts = np.unique(arr, return_counts=True)
    return DiscreteDistribution._trusted(xs, np.cumsum(counts) / arr.size, bounds)


def sorted_quantile_integral(arr: np.ndarray, lo: float, hi: float) -> float:
    """Integral of the EDF quantile function of sorted ``arr`` over [lo, hi],
    with every cell's edges clamped and every weight floored."""
    if hi <= lo:
        return 0.0
    n = arr.size
    k_lo = max(int(math.floor(lo * n)), 0)
    k_hi = min(int(math.ceil(hi * n)) - 1, n - 1)
    ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    weights = np.clip(np.minimum((ks + 1.0) / n, hi) - np.maximum(ks / n, lo), 0.0, None)
    return float(weights @ arr[k_lo : k_hi + 1])


def bound_one(
    d: DiscreteDistribution, spec: RiskMeasure, dist_kind: Distance, method: BoundMethod, c: float
) -> ConfidenceResult:
    """(LCB, UCB) of one distribution at radius c, every step on its own:
    the extremes from the operators, the constants from ``llc``/``glc``."""
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
    if method is BoundMethod.LLC:
        constant = llc(spec, dist_kind, d, c)
    else:
        constant = glc(spec, dist_kind, d.bounds)
    point = evaluate(spec, d)
    delta = constant * c if c > 0.0 else 0.0
    raw_lcb, raw_ucb = point - delta, point + delta
    range_lo = evaluate(spec, DiscreteDistribution.dirac(d.bounds.a, d.bounds))
    range_hi = evaluate(spec, DiscreteDistribution.dirac(d.bounds.b, d.bounds))
    extras = {"lipschitz_constant": constant, "raw_lcb": raw_lcb, "raw_ucb": raw_ucb}
    return ConfidenceResult(
        max(raw_lcb, range_lo), min(raw_ucb, range_hi), method, dist_kind, c, point, extras
    )


def bound_samples(samples, bounds, spec, dist_kind, method, delta, radius_rule=None) -> ConfidenceResult:
    """``bound_one`` on the empirical distribution of one sample set, at
    the radius of its size."""
    rule = resolve_radius_rule(radius_rule, dist_kind)
    d = unique_edf(samples, bounds)
    c = confidence_radius(rule, len(np.asarray(samples)), delta, bounds)
    result = bound_one(d, spec, dist_kind, method, c)
    result.extras["radius_rule"] = rule.value
    result.extras["delta"] = delta
    return result


def trial_results(arm, n, entropies, bounds, spec, dist_kind, methods, delta, rule) -> list:
    """The per-trial loop of ``sweep`` and ``coverage``: for each seed
    entropy, n samples from ``default_rng(entropy)`` bounded with each
    method in turn."""
    out = []
    for entropy in entropies:
        samples = arm.sample(np.random.default_rng(entropy), n, bounds)
        out.append([bound_samples(samples, bounds, spec, dist_kind, m, delta, rule) for m in methods])
    return out


def copying_from_samples(samples, bounds: SupportBounds) -> DiscreteDistribution:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1 and np.all(arr[1:] > arr[:-1]):
        xs, counts = arr.copy(), np.ones(arr.size)
    else:
        xs, counts = np.unique(arr, return_counts=True)
    return DiscreteDistribution._trusted(xs, np.cumsum(counts) / arr.size, bounds)


def copying_from_cdf(xs, cdf_vals, bounds: SupportBounds) -> DiscreteDistribution:
    xs = np.asarray(xs, dtype=np.float64)
    cum = np.asarray(cdf_vals, dtype=np.float64)
    keep = np.diff(cum, prepend=0.0) > 0.0
    return DiscreteDistribution._trusted(xs[keep], cum[keep], bounds)


def copying_pos_sup(d: DiscreteDistribution, c: float) -> DiscreteDistribution:
    c = _require_radius(c)
    if c == 0.0:
        return d
    cc = min(c, 1.0)
    b = d.bounds.b
    below = d.xs < b
    xs = np.concatenate((d.xs[below], [b]))
    cdf_vals = np.concatenate((np.maximum(d.cum[below] - cc, 0.0), [1.0]))
    return copying_from_cdf(xs, cdf_vals, d.bounds)


def copying_neg_sup(d: DiscreteDistribution, c: float) -> DiscreteDistribution:
    c = _require_radius(c)
    if c == 0.0:
        return d
    cc = min(c, 1.0)
    a = d.bounds.a
    if d.xs[0] > a:
        xs = np.concatenate(([a], d.xs))
        cdf_vals = np.concatenate(([cc], np.minimum(d.cum + cc, 1.0)))
    else:
        xs = d.xs
        cdf_vals = np.minimum(d.cum + cc, 1.0)
    return copying_from_cdf(xs, cdf_vals, d.bounds)


def _pos_w1_break(d: DiscreteDistribution, c: float):
    """The break atom k of the positive W1 water-fill and the mass it
    keeps, or None at saturation."""
    b = d.bounds.b
    rev_areas = np.cumsum((d.ps * (b - d.xs))[::-1])
    if c >= rev_areas[-1]:
        return None
    i_plus = int(np.searchsorted(rev_areas, c, side="left"))
    k = d.xs.size - 1 - i_plus
    return k, (float(rev_areas[i_plus]) - c) / (b - d.xs[k])


def _neg_w1_level(d: DiscreteDistribution, c: float):
    """The deepest atom j kept below the negative W1 water-fill's level and
    the level, with j = -1 when everything collapses, or None at
    saturation."""
    a = d.bounds.a
    if c >= d.mean() - a:
        return None
    suffix = np.zeros(d.xs.size)
    suffix[:-1] = np.cumsum(((1.0 - d.cum[:-1]) * np.diff(d.xs))[::-1])[::-1]
    if c > suffix[0]:
        return -1, max(d.xs[0] - (c - suffix[0]), a)
    j = int(np.nonzero(suffix >= c)[0][-1])
    return j, max(d.xs[j + 1] - (c - suffix[j + 1]) / (1.0 - float(d.cum[j])), d.xs[j])


def copying_pos_w1(d: DiscreteDistribution, c: float) -> DiscreteDistribution:
    c = _require_radius(c)
    if c == 0.0:
        return d
    found = _pos_w1_break(d, c)
    if found is None:
        return DiscreteDistribution.dirac(d.bounds.b, d.bounds)
    k, keep_mass = found
    below = float(d.cum[k - 1]) if k > 0 else 0.0
    xs = np.concatenate((d.xs[:k], [d.xs[k], d.bounds.b]))
    cdf_vals = np.concatenate((d.cum[:k], [min(below + keep_mass, 1.0), 1.0]))
    return copying_from_cdf(xs, cdf_vals, d.bounds)


def copying_neg_w1(d: DiscreteDistribution, c: float) -> DiscreteDistribution:
    c = _require_radius(c)
    if c == 0.0:
        return d
    found = _neg_w1_level(d, c)
    if found is None:
        return DiscreteDistribution.dirac(d.bounds.a, d.bounds)
    j, level = found
    kept = j + 1 if j < 0 or level > d.xs[j] else j
    xs = np.concatenate((d.xs[:kept], [level]))
    return copying_from_cdf(xs, np.concatenate((d.cum[:kept], [1.0])), d.bounds)


def validated_pos_w1(d: DiscreteDistribution, c: float) -> DiscreteDistribution:
    """``pos_w1`` from masses, built by the validating constructor: the
    center's masses below the break atom, the mass the break atom keeps
    (zero when the break lies exactly on the radius) and the rest at b."""
    c = _require_radius(c)
    if c == 0.0:
        return d
    found = _pos_w1_break(d, c)
    if found is None:
        return DiscreteDistribution.dirac(d.bounds.b, d.bounds)
    k, keep_mass = found
    tail_mass = 1.0 - (float(d.cum[k - 1]) if k > 0 else 0.0)
    xs = np.concatenate((d.xs[:k], [d.xs[k], d.bounds.b]))
    return DiscreteDistribution(xs, np.concatenate((d.ps[:k], [keep_mass, tail_mass - keep_mass])), d.bounds)


def validated_neg_w1(d: DiscreteDistribution, c: float) -> DiscreteDistribution:
    """``neg_w1`` from masses, built by the validating constructor: the
    center's masses up to atom j and the rest on the level, which the
    constructor coalesces with atom j when the two tie."""
    c = _require_radius(c)
    if c == 0.0:
        return d
    found = _neg_w1_level(d, c)
    if found is None:
        return DiscreteDistribution.dirac(d.bounds.a, d.bounds)
    j, level = found
    xs = np.concatenate((d.xs[: j + 1], [level]))
    kept = float(d.cum[j]) if j >= 0 else 0.0
    return DiscreteDistribution(xs, np.concatenate((d.ps[: j + 1], [1.0 - kept])), d.bounds)


def _copying_segment_grid(d: DiscreteDistribution):
    edges = np.concatenate(([d.bounds.a], d.xs, [d.bounds.b]))
    cdf_on_segment = np.concatenate(([0.0], d.cum))
    return edges, cdf_on_segment


def copying_centred_log_moment(beta: float, d: DiscreteDistribution) -> tuple[float, float]:
    """The centre c and the log-moment L of ``measures._centred_log_moment``,
    from whole-array masses and temporaries."""
    if abs(beta) < 2.0**-1000:
        return min(max(float(np.sum(d.xs * d.ps)), float(d.xs[0])), float(d.xs[-1])), 0.0
    x_low, x_top = (float(d.xs[0]), float(d.xs[-1])) if beta > 0.0 else (float(d.xs[-1]), float(d.xs[0]))
    shifted = beta * (x_top - x_low) > 354.0
    c = x_top - 354.0 / beta if shifted else x_low
    with np.errstate(over="ignore"):
        t = (d.xs - c) * beta
        terms = np.exp(t) if shifted else np.expm1(t)
    total = float(np.sum(terms * d.ps))
    return c, math.log(total) if shifted else math.log1p(total)


def copying_eval_rdeu(w, v, d: DiscreteDistribution) -> float:
    q = np.concatenate(([0.0], d.cum))
    weights = np.diff(_apply(w, q))
    return float(np.add.reduce(weights * _apply(v, d.xs)))


def copying_cdf_integral(d: DiscreteDistribution, fn) -> float:
    edges, cdf_seg = _copying_segment_grid(d)
    widths = np.diff(edges)
    keep = widths > 0.0
    with np.errstate(divide="ignore", over="ignore"):
        vals = _apply(fn, cdf_seg[keep])
    return float(np.add.reduce(vals * widths[keep]))


def copying_sup_llc(spec: RiskMeasure, center: DiscreteDistribution, c: float) -> float:
    """The supremum-ball local constant of a CVaR, SRM, DRM or RDEU spec."""
    lowered = copying_neg_sup(center, c)
    if isinstance(spec, RDEU):
        edges, cdf_seg = _copying_segment_grid(lowered)
        dv = np.diff(_apply(spec.v, edges))
        keep = dv > 0.0
        with np.errstate(divide="ignore", over="ignore"):
            weights = _apply(spec.w_prime, cdf_seg[keep])
        return float(np.add.reduce(weights * dv[keep]))
    if isinstance(spec, CVaR):
        return copying_cdf_integral(lowered, lambda q: (np.asarray(q) >= 1.0 - spec.alpha) / spec.alpha)
    if isinstance(spec, SRM):
        return copying_cdf_integral(lowered, spec.phi)
    return copying_cdf_integral(lowered, lambda q: _apply(spec.g_prime, 1.0 - np.asarray(q)))


def cvar_sup_llc_closed_form(alpha: float, center: DiscreteDistribution, c: float) -> float:
    """(b - F^{-1}(1 - alpha - c)) / alpha, with F^{-1}(y) = a for y <= 0:
    the supremum-ball local constant of CVaR(alpha), read off the center's
    quantile function instead of integrated over the lowered extreme."""
    a, b = center.bounds.a, center.bounds.b
    y = 1.0 - alpha - c
    return (b - (a if y <= 0.0 else float(center.quantile(y)))) / alpha


def exact_decimal_block(text: str) -> np.ndarray | None:
    """``float()`` of each line of ``text`` when every line, cut at "\\n"
    (the last may lack it), is digits around one dot with a digit on some
    side, M < 10^19 for the integer M of all its digits, and at most 27
    digits after the dot; ``None`` otherwise."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return None
    for line in lines:
        match = _DECIMAL_LINE.fullmatch(line)
        if match is None or match[1] + match[2] == "":
            return None
        if int(match[1] + match[2]) >= 10**19 or len(match[2]) > 27:
            return None
    return np.array([float(line) for line in lines])
