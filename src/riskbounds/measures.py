"""Risk measures on discrete distributions.

Six families, each evaluated exactly on weighted atoms (no quadrature):

- CVaR(alpha): mean of the worst (largest-loss) alpha fraction,
  (1/alpha) * int_{1-alpha}^1 F^{-1}(y) dy.
- SRM(phi): int_0^1 phi(y) F^{-1}(y) dy with increasing phi, int phi = 1.
  The antiderivative of phi is supplied so the piecewise-constant quantile
  integral is a finite sum with no quadrature error.
- DRM(g): a + int_a^b g(1 - F(x)) dx for a concave increasing distortion g
  with g(0)=0, g(1)=1. The a-offset makes the value translation-invariant
  on arbitrary supports.
- ERM(beta): (1/beta) log int exp(beta x) dF(x), beta != 0.
- CE(u): u^{-1}( int u(x) dF(x) ) for convex, strictly increasing u.
- RDEU(w, v): int v(x) dw(F(x)) for an increasing weight w on [0,1] and an
  increasing value function v with v(0)=0.

Losses, not rewards: larger values are worse, and every family is monotone
under first-order stochastic dominance of losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
from scipy.special import logsumexp

from .distributions import DiscreteDistribution

__all__ = [
    "CVaR",
    "SRM",
    "DRM",
    "ERM",
    "CE",
    "RDEU",
    "RiskMeasure",
    "eval_cvar",
    "eval_srm",
    "eval_drm",
    "eval_erm",
    "eval_ce",
    "eval_rdeu",
    "evaluate",
    "parse_risk",
    "srm_power",
    "drm_power",
    "ce_power",
    "rdeu_power",
]

_GRID = np.linspace(0.0, 1.0, 1001)


def _apply(fn: Callable, arr: np.ndarray) -> np.ndarray:
    """Evaluate a user function on an array, falling back to a python loop
    for scalar-only callables."""
    try:
        out = np.asarray(fn(arr), dtype=np.float64)
        if out.shape == arr.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.asarray([fn(float(v)) for v in arr], dtype=np.float64)


@dataclass(frozen=True)
class CVaR:
    """Conditional value at risk at tail level alpha in (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"CVaR level must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class SRM:
    """Spectral risk measure: quantile integral weighted by a spectrum.

    ``phi`` must be nondecreasing, nonnegative, and integrate to one over
    [0, 1]; ``phi_integral`` is its antiderivative with phi_integral(0)=0.
    Checked on a 1001-point grid at construction.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    phi_integral: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        vals = _apply(self.phi, _GRID)
        if np.any(vals < -1e-12):
            raise ValueError("SRM spectrum must be nonnegative")
        if np.any(np.diff(vals) < -1e-9):
            raise ValueError("SRM spectrum must be nondecreasing")
        total = float(_apply(self.phi_integral, np.array([0.0, 1.0]))[1])
        at_zero = float(_apply(self.phi_integral, np.array([0.0]))[0])
        if abs(at_zero) > 1e-12:
            raise ValueError("SRM spectrum antiderivative must vanish at 0")
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"SRM spectrum must integrate to 1, got {total}")


@dataclass(frozen=True)
class DRM:
    """Distortion risk measure with concave increasing distortion g."""

    g: Callable[[np.ndarray], np.ndarray]
    g_prime: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        with np.errstate(divide="ignore"):
            vals = _apply(self.g, _GRID)
            deriv = _apply(self.g_prime, _GRID)
        if abs(vals[0]) > 1e-9 or abs(vals[-1] - 1.0) > 1e-9:
            raise ValueError("distortion must satisfy g(0)=0 and g(1)=1")
        if np.any(np.diff(vals) < -1e-9):
            raise ValueError("distortion must be increasing")
        if np.any(deriv < -1e-12):
            raise ValueError("distortion derivative must be nonnegative")
        if np.any(np.diff(deriv) > 1e-9):
            raise ValueError("distortion must be concave (g' nonincreasing)")


@dataclass(frozen=True)
class ERM:
    """Entropic risk measure with coefficient beta != 0."""

    beta: float

    def __post_init__(self):
        if self.beta == 0.0:
            raise ValueError("ERM coefficient must be nonzero; use the mean instead")


@dataclass(frozen=True)
class CE:
    """Certainty equivalent with convex strictly increasing utility u.

    The inverse identity u_inv(u(x)) = x and monotonicity/convexity are
    grid-checked lazily against the support of the first distribution the
    spec is evaluated on.
    """

    u: Callable[[np.ndarray], np.ndarray]
    u_prime: Callable[[np.ndarray], np.ndarray]
    u_inv: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RDEU:
    """Rank-dependent expected utility with weight w and value function v."""

    w: Callable[[np.ndarray], np.ndarray]
    w_prime: Callable[[np.ndarray], np.ndarray]
    v: Callable[[np.ndarray], np.ndarray]
    v_prime: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        vals = _apply(self.w, _GRID)
        if abs(vals[0]) > 1e-9 or abs(vals[-1] - 1.0) > 1e-9:
            raise ValueError("RDEU weight must satisfy w(0)=0 and w(1)=1")
        if np.any(np.diff(vals) < -1e-9):
            raise ValueError("RDEU weight must be increasing")
        if abs(float(_apply(self.v, np.zeros(1))[0])) > 1e-9:
            raise ValueError("RDEU value function must satisfy v(0)=0")


RiskMeasure = Union[CVaR, SRM, DRM, ERM, CE, RDEU]


@lru_cache(maxsize=None)
def _check_on_support(spec: RiskMeasure, a: float, b: float) -> bool:
    """Support-dependent validity checks, run once per (spec, bounds)."""
    grid = np.linspace(a, b, 1001)
    if isinstance(spec, CE):
        u_vals = _apply(spec.u, grid)
        if np.any(np.diff(u_vals) <= 0.0):
            raise ValueError(f"CE utility must be strictly increasing on [{a}, {b}]")
        du = _apply(spec.u_prime, grid)
        if np.any(du < -1e-12) or np.any(np.diff(du) < -1e-9):
            raise ValueError(f"CE utility must be convex on [{a}, {b}]")
        roundtrip = _apply(spec.u_inv, u_vals)
        if np.any(np.abs(roundtrip - grid) > 1e-8):
            raise ValueError("CE inverse does not invert the utility to 1e-8")
    elif isinstance(spec, RDEU):
        v_vals = _apply(spec.v, grid)
        if np.any(np.diff(v_vals) < -1e-12):
            raise ValueError(f"RDEU value function must be increasing on [{a}, {b}]")
    return True


def eval_cvar(alpha: float, d: DiscreteDistribution) -> float:
    """Mean of the worst alpha fraction of the loss distribution."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"CVaR level must lie in (0, 1), got {alpha}")
    tail = np.clip(d.cum - (1.0 - alpha), 0.0, d.ps)
    return float(tail @ d.xs) / alpha


def eval_srm(phi, phi_integral, d: DiscreteDistribution) -> float:
    """Exact spectrum-weighted quantile integral for a step CDF.

    With cumulative masses q_0=0 < q_1 < ... < q_m = 1 the quantile function
    is constant x_i on (q_{i-1}, q_i], so the integral collapses to
    sum_i x_i (Phi(q_i) - Phi(q_{i-1})).
    """
    q = np.concatenate(([0.0], d.cum))
    weights = np.diff(_apply(phi_integral, q))
    return float(weights @ d.xs)


def _segment_grid(d: DiscreteDistribution):
    """Support partition a = x~_0 <= x_1 < ... < x_m <= b with the CDF value
    on each segment [x~_j, x~_{j+1})."""
    edges = np.concatenate(([d.bounds.a], d.xs, [d.bounds.b]))
    cdf_on_segment = np.concatenate(([0.0], d.cum))
    return edges, cdf_on_segment


def eval_drm(g, d: DiscreteDistribution) -> float:
    """a + int_a^b g(1 - F(x)) dx, exact for step CDFs."""
    edges, cdf_seg = _segment_grid(d)
    widths = np.diff(edges)
    vals = _apply(g, 1.0 - cdf_seg)
    return d.bounds.a + float(vals @ widths)


def eval_erm(beta: float, d: DiscreteDistribution) -> float:
    """(1/beta) log sum_i p_i exp(beta x_i), via shifted log-sum-exp."""
    if beta == 0.0:
        raise ValueError("ERM coefficient must be nonzero; use the mean instead")
    return float(logsumexp(beta * d.xs, b=d.ps)) / beta


def eval_ce(u, u_inv, d: DiscreteDistribution) -> float:
    expected = float(_apply(u, d.xs) @ d.ps)
    return float(_apply(u_inv, np.array([expected]))[0])


def eval_rdeu(w, v, d: DiscreteDistribution) -> float:
    """Stieltjes sum sum_i v(x_i) (w(Q_i) - w(Q_{i-1})), exact for step F."""
    q = np.concatenate(([0.0], d.cum))
    weights = np.diff(_apply(w, q))
    return float(weights @ _apply(v, d.xs))


def evaluate(spec: RiskMeasure, d: DiscreteDistribution) -> float:
    """Dispatch to the family evaluator."""
    if isinstance(spec, CVaR):
        return eval_cvar(spec.alpha, d)
    if isinstance(spec, SRM):
        return eval_srm(spec.phi, spec.phi_integral, d)
    if isinstance(spec, DRM):
        return eval_drm(spec.g, d)
    if isinstance(spec, ERM):
        return eval_erm(spec.beta, d)
    if isinstance(spec, CE):
        _check_on_support(spec, d.bounds.a, d.bounds.b)
        return eval_ce(spec.u, spec.u_inv, d)
    if isinstance(spec, RDEU):
        _check_on_support(spec, d.bounds.a, d.bounds.b)
        return eval_rdeu(spec.w, spec.v, d)
    raise TypeError(f"not a risk measure spec: {spec!r}")


# ---------------------------------------------------------------------------
# Parametric catalog. Arbitrary function objects are accepted through the
# dataclasses above; the catalog is the subset expressible as CLI strings.
# The builders are memoized, so equal parameters give the same spec object
# and the caches keyed on specs (support checks, attainable ranges, true-risk
# quadrature) hit across parses of the same text.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def srm_power(k: float) -> SRM:
    """Spectrum phi(y) = k y^(k-1) with antiderivative y^k, k >= 1."""
    if k < 1.0:
        raise ValueError(f"power spectrum needs k >= 1, got {k}")

    def phi(y):
        return k * np.power(y, k - 1.0) if k != 1.0 else np.ones_like(np.asarray(y, dtype=float))

    def phi_integral(y):
        return np.power(y, k)

    return SRM(phi, phi_integral)


@lru_cache(maxsize=None)
def drm_power(s: float) -> DRM:
    """Distortion g(y) = y^s for s in (0, 1]; g'(0+) is infinite for s < 1."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"power distortion needs s in (0, 1], got {s}")

    def g(y):
        return np.power(y, s)

    def g_prime(y):
        with np.errstate(divide="ignore"):
            return s * np.power(y, s - 1.0) if s != 1.0 else np.ones_like(np.asarray(y, dtype=float))

    return DRM(g, g_prime)


@lru_cache(maxsize=None)
def ce_power(k: float) -> CE:
    """Utility u(x) = x^k on nonnegative supports, k >= 1."""
    if k < 1.0:
        raise ValueError(f"power utility needs k >= 1, got {k}")

    def u(x):
        return np.power(x, k)

    def u_prime(x):
        return k * np.power(x, k - 1.0) if k != 1.0 else np.ones_like(np.asarray(x, dtype=float))

    def u_inv(z):
        return np.power(z, 1.0 / k)

    return CE(u, u_prime, u_inv)


@lru_cache(maxsize=None)
def rdeu_power(s: float, k: float) -> RDEU:
    """Weight w(y) = y^s (convex, s >= 1) and value v(x) = x^k, k >= 1."""
    if s < 1.0 or k < 1.0:
        raise ValueError(f"power RDEU needs s >= 1 and k >= 1, got s={s}, k={k}")

    def w(y):
        return np.power(y, s)

    def w_prime(y):
        return s * np.power(y, s - 1.0) if s != 1.0 else np.ones_like(np.asarray(y, dtype=float))

    def v(x):
        return np.power(x, k)

    def v_prime(x):
        return k * np.power(x, k - 1.0) if k != 1.0 else np.ones_like(np.asarray(x, dtype=float))

    return RDEU(w, w_prime, v, v_prime)


def parse_risk(text: str) -> RiskMeasure:
    """Parse a catalog string.

    Grammar: ``cvar:<alpha>``, ``erm:<beta>``, ``srm-power:<k>``,
    ``drm-power:<s>``, ``ce-power:<k>``, ``rdeu-power:<s>,<k>``.
    """
    name, sep, payload = text.partition(":")
    if not sep:
        raise ValueError(f"risk spec {text!r} must look like 'family:params'")
    name = name.strip().lower()
    try:
        params = [float(v) for v in payload.split(",")] if payload else []
    except ValueError as exc:
        raise ValueError(f"bad numeric parameters in risk spec {text!r}") from exc

    def need(count: int):
        if len(params) != count:
            raise ValueError(f"risk spec {text!r} needs {count} parameter(s)")

    if name == "cvar":
        need(1)
        return CVaR(params[0])
    if name == "erm":
        need(1)
        return ERM(params[0])
    if name == "srm-power":
        need(1)
        return srm_power(params[0])
    if name == "drm-power":
        need(1)
        return drm_power(params[0])
    if name == "ce-power":
        need(1)
        return ce_power(params[0])
    if name == "rdeu-power":
        need(2)
        return rdeu_power(params[0], params[1])
    raise ValueError(f"unknown risk family {name!r} in {text!r}")
