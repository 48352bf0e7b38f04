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

CVaR, SRM and DRM are RDEU with the value function v(x) = x (Acerbi 2002,
Quiggin 1982): each spec supplies its rank-dependent weight ``w`` and its
derivative ``w_prime``, and the four families share one evaluator and one
set of Lipschitz constants.

Losses, not rewards: larger values are worse, and every family is monotone
under first-order stochastic dominance of losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .distributions import DiscreteDistribution, _dot, _steps

# Entries kept by each cache keyed on a spec (support checks here, attainable
# ranges, global constants, the RDEU weight check): enough for every spec a
# run names, and a cap for callers that build a fresh spec per call.
_SPEC_CACHE_SIZE = 128

__all__ = [
    "CVaR",
    "SRM",
    "DRM",
    "ERM",
    "CE",
    "RDEU",
    "RiskMeasure",
    "evaluate",
    "parse_risk",
    "srm_power",
    "drm_power",
    "ce_power",
    "rdeu_power",
]

_GRID = np.linspace(0.0, 1.0, 1001)
# Elements per block of a pass over an m-element array that would otherwise
# take an m-element temporary: numpy's own buffer size.
_BLOCK = 1 << 13


def _blocks(n: int):
    """The (lo, hi) bounds of the ``_BLOCK``-element blocks that cover n
    elements: one block, with no loop to build, when n fits in one."""
    if n <= _BLOCK:
        return ((0, n),)
    return [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]


def _forward_diff(buf: np.ndarray) -> np.ndarray:
    """buf[1:] - buf[:-1]: past one block, written over buf[:-1] and
    returned as that view.

    numpy copies an input that overlaps the output, so the subtraction
    runs block by block, each copying only its block: a block reads the
    first entry of the next one, which is overwritten only after. Within
    one block, a new array is cheaper than the overlap check.
    """
    if buf.size - 1 <= _BLOCK:
        return buf[1:] - buf[:-1]
    for lo, hi in _blocks(buf.size - 1):
        np.subtract(buf[lo + 1 : hi + 1], buf[lo:hi], out=buf[lo:hi])
    return buf[:-1]


def _with_zero(cum: np.ndarray) -> np.ndarray:
    """A new array of the CDF values from 0: 0, q_1, ..., q_m."""
    q = np.empty(cum.size + 1)
    q[0] = 0.0
    q[1:] = cum
    return q


def _power(x, p: float):
    """x**p, written over ``x`` when it is a writable float64 ndarray: the
    catalog's weights and values take arrays their callers own. Any other
    input (a list, a scalar, a read-only array) gets a new result."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64 and x.flags.writeable:
        return np.power(x, p, out=x)
    return np.power(x, p)


def _apply(fn: Callable, arr: np.ndarray) -> np.ndarray:
    """Evaluate a user function on an array of any shape, falling back to a
    python loop for scalar-only callables."""
    try:
        out = np.asarray(fn(arr), dtype=np.float64)
        if out.shape == arr.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.asarray([fn(float(v)) for v in arr.flat], dtype=np.float64).reshape(arr.shape)


@dataclass(frozen=True)
class CVaR:
    """Conditional value at risk at tail level alpha in (0, 1), with the
    weight w(q) = max(alpha - (1 - q), 0) / alpha. 1 - q is exact for
    q >= 1/2 (Sterbenz) and w(1) is exactly 1, so a small-alpha tail reads
    its atoms exactly, where a rounded 1 - alpha, magnified by the 1/alpha
    weight, would read past the top atom.

    ``w`` and ``w_prime`` overwrite the float array they are given: pass a
    fresh one, never a shared array such as ``_GRID``.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"CVaR level must lie in (0, 1), got {self.alpha}")
        if 1.0 - self.alpha == 1.0:
            # The tail starts at cumulative mass 1 - alpha; if that rounds to
            # 1, the quadrature of a continuous arm's tail and the bandit's
            # sorted-sample CVaR see an empty tail.
            raise ValueError(f"CVaR level {self.alpha} is too small: 1 - alpha rounds to 1")

    def w(self, q: np.ndarray) -> np.ndarray:
        np.subtract(1.0, q, out=q)
        np.subtract(self.alpha, q, out=q)
        np.maximum(q, 0.0, out=q)
        q /= self.alpha
        return q

    def w_prime(self, q: np.ndarray) -> np.ndarray:
        """[q >= 1 - alpha] / alpha: the right-hand derivative at the kink,
        so the supremum-ball ``llc`` is b - F^{-1}(1 - alpha - c) over alpha.
        The threshold rounds 1 - alpha as that closed form does, so the
        integral never takes a segment fewer than it; the exact 1 - q <= alpha
        drops the first segment at c = 1 - alpha."""
        np.greater_equal(q, 1.0 - self.alpha, out=q)
        q /= self.alpha
        return q


@dataclass(frozen=True)
class SRM:
    """Spectral risk measure: quantile integral weighted by a spectrum, with
    the weight w = phi_integral and w' = phi. ``w`` and ``w_prime`` may
    overwrite the array they are given, as CVaR's do, so callers pass
    arrays they own. The catalog's ``srm_power`` writes ``phi_integral``
    over a writable float64 array and lets ``phi`` allocate.

    ``phi`` must be nondecreasing, nonnegative, and integrate to one over
    [0, 1]; ``phi_integral`` is its antiderivative with phi_integral(0)=0.
    Checked on a 1001-point grid at construction.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    phi_integral: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        vals = _apply(self.phi, _GRID.copy())
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

    def w(self, q: np.ndarray) -> np.ndarray:
        return self.phi_integral(q)

    def w_prime(self, q: np.ndarray) -> np.ndarray:
        return self.phi(q)


@dataclass(frozen=True)
class DRM:
    """Distortion risk measure with concave increasing distortion g, and
    the weight w(q) = 1 - g(1 - q), w'(q) = g'(1 - q). ``w`` and ``w_prime``
    overwrite the array they are given, as CVaR's do, and ``g`` and
    ``g_prime`` may, so callers pass arrays they own. The catalog's
    ``drm_power`` writes ``g`` over a writable float64 array and lets
    ``g_prime`` allocate."""

    g: Callable[[np.ndarray], np.ndarray]
    g_prime: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        with np.errstate(divide="ignore"):
            vals = _apply(self.g, _GRID.copy())
            deriv = _apply(self.g_prime, _GRID.copy())
        if abs(vals[0]) > 1e-9 or abs(vals[-1] - 1.0) > 1e-9:
            raise ValueError("distortion must satisfy g(0)=0 and g(1)=1")
        if np.any(np.diff(vals) < -1e-9):
            raise ValueError("distortion must be increasing")
        if np.any(deriv < -1e-12):
            raise ValueError("distortion derivative must be nonnegative")
        if np.any(np.diff(deriv) > 1e-9):
            raise ValueError("distortion must be concave (g' nonincreasing)")

    def w(self, q: np.ndarray) -> np.ndarray:
        vals = _apply(self.g, np.subtract(1.0, q, out=q))
        return np.subtract(1.0, vals, out=vals)

    def w_prime(self, q: np.ndarray) -> np.ndarray:
        return _apply(self.g_prime, np.subtract(1.0, q, out=q))


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
    """Rank-dependent expected utility with weight w and value function v.

    Each callable may overwrite the array it is given, so callers pass
    arrays they own: ``evaluate`` hands ``v`` a copy of the atoms. The
    catalog's ``rdeu_power`` writes ``w`` and ``v`` over a writable float64
    array and lets ``w_prime`` and ``v_prime`` allocate.
    """

    w: Callable[[np.ndarray], np.ndarray]
    w_prime: Callable[[np.ndarray], np.ndarray]
    v: Callable[[np.ndarray], np.ndarray]
    v_prime: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        vals = _apply(self.w, _GRID.copy())
        if abs(vals[0]) > 1e-9 or abs(vals[-1] - 1.0) > 1e-9:
            raise ValueError("RDEU weight must satisfy w(0)=0 and w(1)=1")
        if np.any(np.diff(vals) < -1e-9):
            raise ValueError("RDEU weight must be increasing")
        if abs(float(_apply(self.v, np.zeros(1))[0])) > 1e-9:
            raise ValueError("RDEU value function must satisfy v(0)=0")


RiskMeasure = Union[CVaR, SRM, DRM, ERM, CE, RDEU]
# The families with a rank-dependent weight w: all but RDEU have v(x) = x.
_RANK_DEPENDENT = (CVaR, SRM, DRM, RDEU)


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _check_on_support(spec: RiskMeasure, a: float, b: float) -> bool:
    """Support-dependent validity checks, run once per (spec, bounds)."""
    grid = np.linspace(a, b, 1001)
    if isinstance(spec, CE):
        with np.errstate(over="ignore"):
            u_vals = _apply(spec.u, grid)
        if not np.all(np.isfinite(u_vals)):
            raise ValueError(f"CE utility must be finite on [{a}, {b}]")
        if np.any(np.diff(u_vals) <= 0.0):
            raise ValueError(f"CE utility must be strictly increasing on [{a}, {b}]")
        du = _apply(spec.u_prime, grid)
        if np.any(du < -1e-12) or np.any(np.diff(du) < -1e-9):
            raise ValueError(f"CE utility must be convex on [{a}, {b}]")
        roundtrip = _apply(spec.u_inv, u_vals)
        if np.any(np.abs(roundtrip - grid) > 1e-8):
            raise ValueError("CE inverse does not invert the utility to 1e-8")
    elif isinstance(spec, RDEU):
        with np.errstate(over="ignore"):
            v_vals = _apply(spec.v, grid)
        if not np.all(np.isfinite(v_vals)):
            raise ValueError(f"RDEU value function must be finite on [{a}, {b}]")
        if np.any(np.diff(v_vals) < -1e-12):
            raise ValueError(f"RDEU value function must be increasing on [{a}, {b}]")
    return True


def _centred_log_moment(beta: float, d: DiscreteDistribution) -> tuple[float, float]:
    """c and L with log E[exp(beta X)] = beta c + L. c is the atom x_low
    where beta x is lowest, and L = log1p(sum_i p_i expm1(beta (x_i - c))):
    a sum of terms >= 0, about beta (m - x_low) for the mean m, that cannot
    cancel and rounds relative to beta. Where beta (x_top - x_low) passes
    354 at the atom x_top where beta x peaks, c = x_top - 354 / beta keeps
    exp finite (rounding c at most doubles 354), and L is the log of
    sum_i p_i exp(beta (x_i - c)). Below |beta| = 2^-1000 the products are
    subnormal, so c = m and L = 0: ERM is within |beta| (b - a)^2 / 8 of m
    (Hoeffding). No ``@`` runs, so no BLAS thread count moves the result.
    """
    xs, cum = d.xs, d.cum
    if abs(beta) < 2.0**-1000:
        return min(max(d.mean(), float(xs[0])), float(xs[-1])), 0.0  # rounded past an end atom
    buf = np.empty(xs.size)
    x_low, x_top = (float(xs[0]), float(xs[-1])) if beta > 0.0 else (float(xs[-1]), float(xs[0]))
    with np.errstate(over="ignore"):
        shifted = beta * (x_top - x_low) > 354.0
        c = x_top - 354.0 / beta if shifted else x_low
        t = np.multiply(np.subtract(xs, c, out=buf), beta, out=buf)
        (np.exp if shifted else np.expm1)(t, out=t)
    for lo, hi in _blocks(xs.size):
        t[lo:hi] *= _steps(cum, lo, hi)
    return c, (math.log if shifted else math.log1p)(float(t.sum()))


def _centred_log_moments(beta: float, xs: np.ndarray, cum: np.ndarray) -> list:
    """``_centred_log_moment`` of each row of atoms ``xs``, all with the CDF
    values ``cum``, as (c, L) pairs, bit for bit: each row is centred or
    shifted, and takes ``expm1`` or ``exp``, as that function does it."""
    steps = _steps(cum)
    if abs(beta) < 2.0**-1000:
        means = np.add.reduce(xs * steps, axis=1).tolist()
        return [(min(max(m, lo), hi), 0.0) for m, lo, hi in zip(means, xs[:, 0].tolist(), xs[:, -1].tolist())]
    low, top = (xs[:, 0], xs[:, -1]) if beta > 0.0 else (xs[:, -1], xs[:, 0])
    with np.errstate(over="ignore"):
        shifted = beta * (top - low) > 354.0
        c = np.where(shifted, top - 354.0 / beta, low)
        t = np.subtract(xs, c[:, None])
        np.multiply(t, beta, out=t)
        np.exp(t, out=t, where=shifted[:, None])
        np.expm1(t, out=t, where=~shifted[:, None])
    sums = np.add.reduce(np.multiply(t, steps, out=t), axis=1).tolist()
    return [(ci, (math.log if s else math.log1p)(v)) for ci, s, v in zip(c.tolist(), shifted.tolist(), sums)]


def _evaluate_rows(spec: RiskMeasure, xs: np.ndarray, cum: np.ndarray, bounds) -> list:
    """``evaluate`` of each row of atoms ``xs`` on ``bounds``, all with the
    CDF values ``cum``, bit for bit: the checks, weights and masses are built
    once, and the sums are one ``np.add.reduce`` along the rows of a
    C-contiguous product, whose pairwise sum is the 1-D ``_dot``'s."""
    if isinstance(spec, ERM):
        return [c + log_moment / spec.beta for c, log_moment in _centred_log_moments(spec.beta, xs, cum)]
    if isinstance(spec, CE):
        _check_on_support(spec, bounds.a, bounds.b)
        expected = np.add.reduce(_apply(spec.u, xs.copy()) * _steps(cum), axis=1)
        return [float(_apply(spec.u_inv, np.array([e]))[0]) for e in expected.tolist()]
    if isinstance(spec, _RANK_DEPENDENT):
        linear = not isinstance(spec, RDEU)
        if not linear:
            _check_on_support(spec, bounds.a, bounds.b)
        weights = _forward_diff(_apply(spec.w, _with_zero(cum)))
        values = xs if linear else _apply(spec.v, xs.copy())
        return np.add.reduce(values * weights, axis=1).tolist()
    raise TypeError(f"not a risk measure spec: {spec!r}")


def evaluate(spec: RiskMeasure, d: DiscreteDistribution) -> float:
    """The risk of ``d``. ERM takes (1/beta) log sum_i p_i exp(beta x_i) as
    c + L / beta from the centred log-moment, and CE
    u^{-1}(sum_i p_i u(x_i)). CVaR, SRM, DRM and RDEU take the Stieltjes sum
    sum_i v(x_i) (w(q_i) - w(q_{i-1})) over the cumulative masses
    q_0 = 0, q_1, ..., q_m = 1, exact for a step CDF, with v(x) = x for all
    but RDEU.

    Each family works in one buffer of its own. CE and the rank-dependent
    families drop ``d`` once they hold what they read of it, so a ball
    extreme the caller does not keep frees its atoms or its CDF values
    before the next m-element array is built.
    """
    if isinstance(spec, ERM):
        centre, log_moment = _centred_log_moment(spec.beta, d)
        return centre + log_moment / spec.beta
    if isinstance(spec, CE):
        _check_on_support(spec, d.bounds.a, d.bounds.b)
        xs, cum = d.xs, d.cum
        del d
        utilities = _apply(spec.u, xs)
        del xs
        expected = _dot(_steps(cum), utilities)
        return float(_apply(spec.u_inv, np.array([expected]))[0])
    if isinstance(spec, _RANK_DEPENDENT):
        linear = not isinstance(spec, RDEU)
        if not linear:
            _check_on_support(spec, d.bounds.a, d.bounds.b)
        xs, q = d.xs, _with_zero(d.cum)
        del d
        weights = _forward_diff(_apply(spec.w, q))
        return _dot(weights, xs if linear else _apply(spec.v, xs.copy()))
    raise TypeError(f"not a risk measure spec: {spec!r}")


# ---------------------------------------------------------------------------
# Parametric catalog. Arbitrary function objects are accepted through the
# dataclasses above; the catalog is the subset expressible as CLI strings.
# The builders are memoized, so equal parameters give the same spec object
# and the caches keyed on specs (support checks, attainable ranges, true-risk
# quadrature) hit across parses of the same text.
# ---------------------------------------------------------------------------


def _scaled_power(x, p: float, scale: float):
    """scale * x**p, scaled in place: the derivatives of the power families,
    which always allocate their result."""
    out = np.power(x, p)
    out *= scale
    return out


@lru_cache(maxsize=None)
def srm_power(k: float) -> SRM:
    """Spectrum phi(y) = k y^(k-1) with antiderivative y^k, k >= 1."""
    if k < 1.0:
        raise ValueError(f"power spectrum needs k >= 1, got {k}")

    def phi(y):
        return _scaled_power(y, k - 1.0, k)

    def phi_integral(y):
        return _power(y, k)

    return SRM(phi, phi_integral)


@lru_cache(maxsize=None)
def drm_power(s: float) -> DRM:
    """Distortion g(y) = y^s for s in (0, 1]; g'(0+) is infinite for s < 1."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"power distortion needs s in (0, 1], got {s}")

    def g(y):
        return _power(y, s)

    def g_prime(y):
        with np.errstate(divide="ignore"):
            return _scaled_power(y, s - 1.0, s)

    return DRM(g, g_prime)


@lru_cache(maxsize=None)
def ce_power(k: float) -> CE:
    """Utility u(x) = x^k on nonnegative supports, k >= 1."""
    if k < 1.0:
        raise ValueError(f"power utility needs k >= 1, got {k}")

    def u(x):
        return np.power(x, k)

    def u_prime(x):
        return _scaled_power(x, k - 1.0, k)

    def u_inv(z):
        return np.power(z, 1.0 / k)

    return CE(u, u_prime, u_inv)


@lru_cache(maxsize=None)
def rdeu_power(s: float, k: float) -> RDEU:
    """Weight w(y) = y^s (convex, s >= 1) and value v(x) = x^k, k >= 1."""
    if s < 1.0 or k < 1.0:
        raise ValueError(f"power RDEU needs s >= 1 and k >= 1, got s={s}, k={k}")

    def w(y):
        return _power(y, s)

    def w_prime(y):
        return _scaled_power(y, s - 1.0, s)

    def v(x):
        return _power(x, k)

    def v_prime(x):
        return _scaled_power(x, k - 1.0, k)

    return RDEU(w, w_prime, v, v_prime)


# Risk family name -> (builder, parameter count), the grammar of ``parse_risk``.
_RISK_FAMILIES = {
    "cvar": (CVaR, 1),
    "erm": (ERM, 1),
    "srm-power": (srm_power, 1),
    "drm-power": (drm_power, 1),
    "ce-power": (ce_power, 1),
    "rdeu-power": (rdeu_power, 2),
}


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
    if name not in _RISK_FAMILIES:
        raise ValueError(f"unknown risk family {name!r} in {text!r}")
    build, count = _RISK_FAMILIES[name]
    if len(params) != count:
        raise ValueError(f"risk spec {text!r} needs {count} parameter(s)")
    return build(*params)
