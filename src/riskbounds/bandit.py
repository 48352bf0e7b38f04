"""Risk-sensitive multi-armed bandit simulator.

Losses, not rewards: each arm carries a loss distribution on the shared
support [a, b], arms are ranked by a risk measure of that distribution, and
the algorithm minimizes. Each round the simulator pulls the arm whose
lower confidence bound on the risk is smallest:

- pull every arm once, then for each arm keep a per-arm radius
  c_i = sqrt(log(2 K N^2) / s_i) driven only by its pull count s_i;
- ``dist`` variant: index = risk of the supremum-ball minimal transform of
  the arm's empirical distribution at radius c_i;
- ``llc`` / ``glc`` variants: index = empirical risk minus the local /
  global Lipschitz constant times c_i.

Runs are deterministic per seed, bit-for-bit in the chosen-arm sequence.
For CVaR instances a closed-form regret budget is available
(``regret_bound``): each suboptimal arm contributes a term driven by the
radius c* at which its confidence correction matches its risk gap.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Union

import numpy as np
import scipy  # scipy.special loads on first use, keeping it off `import riskbounds`

from .bounds import BoundMethod
from .distributions import DiscreteDistribution, Distance, SupportBounds, from_samples
from .lipschitz import glc, llc
from .measures import CVaR, RiskMeasure, evaluate, parse_risk
from .operators import neg_sup
from .oracles import quadrature_risk

__all__ = [
    "DiracArm",
    "UniformArm",
    "BetaArm",
    "TruncNormalArm",
    "DiscreteArm",
    "Arm",
    "ARM_FAMILIES",
    "BanditInstance",
    "RegretTrace",
    "true_risk",
    "run_lcb",
    "solve_cstar",
    "regret_bound",
    "load_instance",
    "instance_from_dict",
]


@dataclass(frozen=True)
class DiracArm:
    """Point mass at x."""

    x: float

    def validate(self, bounds: SupportBounds) -> None:
        if not bounds.a <= self.x <= bounds.b:
            raise ValueError(f"Dirac atom {self.x} outside {bounds}")

    def as_discrete(self, bounds: SupportBounds) -> DiscreteDistribution:
        return DiscreteDistribution.dirac(self.x, bounds)

    def sample(self, rng: np.random.Generator, size: int, bounds: SupportBounds) -> np.ndarray:
        return np.full(size, self.x)

    def quantile(self, y, bounds: SupportBounds):
        return np.full_like(np.asarray(y, dtype=np.float64), self.x) if not np.isscalar(y) else self.x


@dataclass(frozen=True)
class UniformArm:
    """Uniform on [lo, hi]."""

    lo: float
    hi: float

    def validate(self, bounds: SupportBounds) -> None:
        if not (bounds.a <= self.lo < self.hi <= bounds.b):
            raise ValueError(f"uniform support [{self.lo}, {self.hi}] invalid inside {bounds}")

    def as_discrete(self, bounds):
        return None

    def sample(self, rng, size, bounds):
        return self.lo + (self.hi - self.lo) * rng.random(size)

    def quantile(self, y, bounds):
        return self.lo + (self.hi - self.lo) * np.asarray(y, dtype=np.float64)

    def cdf(self, x, bounds):
        return np.clip((np.asarray(x, dtype=np.float64) - self.lo) / (self.hi - self.lo), 0.0, 1.0)


@dataclass(frozen=True)
class BetaArm:
    """Beta(shape_a, shape_b) stretched onto the instance support [a, b]."""

    shape_a: float
    shape_b: float

    def validate(self, bounds: SupportBounds) -> None:
        if self.shape_a <= 0.0 or self.shape_b <= 0.0:
            raise ValueError("beta shapes must be positive")
        if not (math.isfinite(self.shape_a) and math.isfinite(self.shape_b)):
            raise ValueError("beta shapes must be finite")

    def as_discrete(self, bounds):
        return None

    def sample(self, rng, size, bounds):
        return bounds.a + bounds.width * rng.beta(self.shape_a, self.shape_b, size)

    def quantile(self, y, bounds):
        return bounds.a + bounds.width * scipy.special.betaincinv(self.shape_a, self.shape_b, np.asarray(y, dtype=np.float64))

    def cdf(self, x, bounds):
        z = np.clip((np.asarray(x, dtype=np.float64) - bounds.a) / bounds.width, 0.0, 1.0)
        return scipy.special.betainc(self.shape_a, self.shape_b, z)


@lru_cache(maxsize=None)
def _normal_ends(mu: float, sigma: float, a: float, b: float) -> tuple[float, float, float, float]:
    """Normal(mu, sigma) probabilities below a and b, then their complements."""
    ndtr = scipy.special.ndtr
    return (
        float(ndtr((a - mu) / sigma)),
        float(ndtr((b - mu) / sigma)),
        float(ndtr(-(a - mu) / sigma)),
        float(ndtr(-(b - mu) / sigma)),
    )


@dataclass(frozen=True)
class TruncNormalArm:
    """Normal(mu, sigma) truncated to the instance support [a, b]."""

    mu: float
    sigma: float

    def validate(self, bounds: SupportBounds) -> None:
        if self.sigma <= 0.0:
            raise ValueError("truncated normal needs sigma > 0")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("truncated normal needs a finite mu and sigma")
        lo, hi, lo_c, hi_c = self._ends(bounds)
        if hi == lo and hi_c == lo_c:
            raise ValueError(
                f"truncated normal ({self.mu}, {self.sigma}) has no probability mass inside {bounds}"
            )

    def as_discrete(self, bounds):
        return None

    def _ends(self, bounds):
        return _normal_ends(self.mu, self.sigma, bounds.a, bounds.b)

    def sample(self, rng, size, bounds):
        if size != 1:
            return self.quantile(rng.random(size), bounds)
        # One draw, as the bandit makes each round: the branch of `quantile`
        # that its np.where keeps, on Python floats, with the same value.
        y = rng.random()
        lo, hi, lo_c, hi_c = self._ends(bounds)
        u = (1.0 - y) * lo + y * hi
        if u <= 0.5:
            z = float(scipy.special.ndtri(max(u, 1e-300)))
        else:
            z = -float(scipy.special.ndtri(max((1.0 - y) * lo_c + y * hi_c, 1e-300)))
        return np.array([min(max(self.mu + self.sigma * z, bounds.a), bounds.b)])

    def quantile(self, y, bounds):
        # Convex combinations of the endpoint probabilities and of their
        # complements keep full relative precision in both tails, so the
        # inverse normal stays smooth to machine precision near y = 0, 1.
        y = np.asarray(y, dtype=np.float64)
        lo, hi, lo_c, hi_c = self._ends(bounds)
        u = (1.0 - y) * lo + y * hi
        comp = (1.0 - y) * lo_c + y * hi_c
        z = np.where(u <= 0.5, scipy.special.ndtri(np.maximum(u, 1e-300)), -scipy.special.ndtri(np.maximum(comp, 1e-300)))
        return np.clip(self.mu + self.sigma * z, bounds.a, bounds.b)

    def cdf(self, x, bounds):
        lo, hi, lo_c, hi_c = self._ends(bounds)
        z = (np.asarray(x, dtype=np.float64) - self.mu) / self.sigma
        if hi == lo:  # both ends far in the upper tail: only the complements keep the mass
            return np.clip((lo_c - scipy.special.ndtr(-z)) / (lo_c - hi_c), 0.0, 1.0)
        return np.clip((scipy.special.ndtr(z) - lo) / (hi - lo), 0.0, 1.0)


@dataclass(frozen=True)
class DiscreteArm:
    """Explicit atom list; must share the instance support."""

    dist: DiscreteDistribution

    def validate(self, bounds: SupportBounds) -> None:
        if self.dist.bounds != bounds:
            raise ValueError("discrete arm bounds disagree with the instance bounds")

    def as_discrete(self, bounds):
        return self.dist

    def sample(self, rng, size, bounds):
        return self.dist.sample(rng, size)

    def quantile(self, y, bounds):
        y = np.asarray(y, dtype=np.float64)
        return self.dist.quantile(np.maximum(y, 1e-15))


Arm = Union[DiracArm, UniformArm, BetaArm, TruncNormalArm, DiscreteArm]


@dataclass(frozen=True)
class BanditInstance:
    bounds: SupportBounds
    arms: tuple
    horizon: int
    risk: RiskMeasure
    seed: int = 0

    def __post_init__(self):
        if len(self.arms) < 1:
            raise ValueError("a bandit instance needs at least one arm")
        if self.horizon < len(self.arms):
            raise ValueError("horizon must cover one initial pull per arm")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for arm in self.arms:
            arm.validate(self.bounds)


@lru_cache(maxsize=None)
def _cached_quadrature(arm, spec, bounds) -> float:
    return quadrature_risk(arm, spec, bounds)


def true_risk(arm: Arm, spec: RiskMeasure, bounds: SupportBounds) -> float:
    """Exact risk for atomic arms, adaptive quadrature for continuous ones."""
    exact = arm.as_discrete(bounds)
    if exact is not None:
        return evaluate(spec, exact)
    return _cached_quadrature(arm, spec, bounds)


@dataclass(frozen=True)
class RegretTrace:
    """Complete per-round record of one simulator run."""

    chosen: np.ndarray
    losses: np.ndarray
    cum_regret: np.ndarray
    pulls: np.ndarray

    @property
    def final_regret(self) -> float:
        return float(self.cum_regret[-1])


def _sorted_quantile(arr: np.ndarray, y: float) -> float:
    """EDF quantile on an ascending equal-mass sample array."""
    k = max(int(math.ceil(y * arr.size - 1e-12)), 1)
    return float(arr[min(k, arr.size) - 1])


def _sorted_cvar(arr: np.ndarray, alpha: float) -> float:
    """CVaR of the EDF of an ascending equal-mass sample array."""
    n = arr.size
    m = max(int(math.ceil(alpha * n - 1e-12)), 1)
    w = np.empty(m)
    w.fill(1.0 / n)
    w[0] = alpha - (m - 1) / n  # deepest tail atom enters fractionally
    return float(w.dot(arr[n - m :])) / alpha


def _sorted_quantile_integral(arr: np.ndarray, lo: float, hi: float) -> float:
    """Integral of the EDF quantile function over [lo, hi] in (0, 1]."""
    if hi <= lo:
        return 0.0
    n = arr.size
    k_lo = max(int(math.floor(lo * n)), 0)
    k_hi = min(int(math.ceil(hi * n)) - 1, n - 1)
    if k_hi < k_lo:
        return 0.0
    # Cell k is [k/n, (k+1)/n] clipped to [lo, hi]. Only the two end cells
    # can reach past lo or hi, so only their edges are clamped and only
    # their weights floored at 0.
    edges = np.arange(float(k_lo), float(k_hi + 2))
    edges /= n
    edges[0] = max(k_lo / n, lo)
    edges[-1] = min((k_hi + 1) / n, hi)
    weights = np.subtract(edges[1:], edges[:-1])
    weights[0] = max(weights[0], 0.0)
    weights[-1] = max(weights[-1], 0.0)
    return float(weights.dot(arr[k_lo : k_hi + 1]))


def _sorted_cvar_neg_sup(arr: np.ndarray, alpha: float, c: float, a: float) -> float:
    """CVaR of the supremum-ball minimal transform of the EDF, directly
    from the sorted samples: the transform prepends mass min(c, 1) at a and
    deletes the same mass from the top, so its quantile at level y is the
    EDF quantile at y - c (or a below that)."""
    cc = min(c, 1.0)
    base = a * max(0.0, cc - (1.0 - alpha))
    integral = _sorted_quantile_integral(arr, max(1.0 - alpha - cc, 0.0), 1.0 - cc)
    return (base + integral) / alpha


_INITIAL_CAPACITY = 16


def run_lcb(instance: BanditInstance, variant: BoundMethod | str = BoundMethod.DIST) -> RegretTrace:
    """Simulate the lower-confidence-bound policy for one seed. A round makes
    one draw, one sorted insert and one index refresh, for the pulled arm
    only; an exact index tie goes to the lowest-numbered arm (the first
    minimum, as ``np.argmin`` picks)."""
    variant = BoundMethod(variant) if isinstance(variant, str) else variant
    rng = np.random.default_rng(instance.seed)
    arms, bounds, spec = instance.arms, instance.bounds, instance.risk
    K, N = len(arms), instance.horizon
    log_term = math.log(2.0 * K * N * N)
    a, b = bounds.a, bounds.b

    risks = np.array([true_risk(arm, spec, bounds) for arm in arms])
    glc_const = glc(spec, Distance.SUPREMUM, bounds) if variant is BoundMethod.GLC else None
    dist, local_lc = variant is BoundMethod.DIST, variant is BoundMethod.LLC
    alpha = spec.alpha if isinstance(spec, CVaR) else None  # CVaR indices read the sorted losses

    # Each arm's losses, ascending, in the first fill[i] slots of a buffer
    # that doubles when full: O(pulls) memory, no reallocation per round.
    bufs = [np.empty(_INITIAL_CAPACITY) for _ in range(K)]
    fill = [0] * K
    index = [-math.inf] * K
    chosen, losses = np.empty(N, dtype=np.int64), np.empty(N)

    for t in range(N):
        i = t if t < K else index.index(min(index))
        loss = float(arms[i].sample(rng, 1, bounds)[0])
        buf, n = bufs[i], fill[i]
        if n == buf.size:
            buf = bufs[i] = np.concatenate((buf, np.empty(n)))
        k = int(buf[:n].searchsorted(loss))
        buf[k + 1 : n + 1] = buf[k:n]
        buf[k] = loss
        fill[i] = n = n + 1
        arr, c = buf[:n], math.sqrt(log_term / n)
        if alpha is not None:
            if dist:
                index[i] = _sorted_cvar_neg_sup(arr, alpha, c, a)
            elif local_lc:
                y = 1.0 - alpha - c
                local = (b - (a if y <= 0.0 else _sorted_quantile(arr, y))) / alpha
                index[i] = _sorted_cvar(arr, alpha) - local * c
            else:
                index[i] = _sorted_cvar(arr, alpha) - glc_const * c
        else:
            edf = from_samples(arr, bounds)
            if dist:
                index[i] = evaluate(spec, neg_sup(edf, c))
            elif local_lc:
                index[i] = evaluate(spec, edf) - llc(spec, Distance.SUPREMUM, edf, c) * c
            else:
                index[i] = evaluate(spec, edf) - glc_const * c
        chosen[t], losses[t] = i, loss

    return RegretTrace(
        chosen=chosen,
        losses=losses,
        cum_regret=np.cumsum(risks[chosen] - risks.min()),
        pulls=np.bincount(chosen, minlength=K),
    )


def solve_cstar(arm: Arm, gap: float, alpha: float, bounds: SupportBounds) -> float:
    """Radius at which the CVaR confidence correction matches the gap.

    Solves 2 c (b - F^{-1}(1 - alpha - 2c)) / alpha = gap on (0, (1-alpha)/2)
    by bisection of the increasing left side; at quantile argument <= 0 the
    support's lower end is used. For atom-bearing arms the left side jumps,
    in which case the smallest radius on the >= side is returned.
    """
    if gap <= 0.0:
        raise ValueError(f"gap must be positive, got {gap}")
    if not 0.0 < alpha <= 0.5:
        raise ValueError(f"the regret budget is derived for alpha in (0, 0.5], got {alpha}")
    a, b = bounds.a, bounds.b

    def g(c: float) -> float:
        y = 1.0 - alpha - 2.0 * c
        q = a if y <= 0.0 else float(np.asarray(arm.quantile(y, bounds)))
        return 2.0 * c * (b - q) / alpha - gap

    lo, hi = 0.0, (1.0 - alpha) / 2.0
    if g(hi) < 0.0:
        raise ValueError(f"gap {gap} exceeds the confidence correction's range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(val) <= 1e-12:
            return mid
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def regret_bound(instance: BanditInstance) -> float:
    """Closed-form expected-regret budget for the ``dist`` variant on CVaR
    instances: sum over suboptimal arms of
    4 log(sqrt(2) N) / alpha^2 * (b - F_i^{-1}(1 - alpha - 2 c_i*))^2 / gap_i,
    plus 3 * sum of gaps. Zero-gap arms contribute nothing."""
    spec = instance.risk
    if not isinstance(spec, CVaR):
        raise ValueError("the regret budget is specific to CVaR instances")
    alpha = spec.alpha
    if alpha > 0.5:
        raise ValueError(f"the regret budget is derived for alpha in (0, 0.5], got {alpha}")
    bounds = instance.bounds
    b = bounds.b
    risks = np.array([true_risk(arm, spec, bounds) for arm in instance.arms])
    gaps = risks - risks.min()

    total = 3.0 * float(gaps.sum())
    lead = 4.0 * math.log(math.sqrt(2.0) * instance.horizon) / (alpha * alpha)
    for arm, gap in zip(instance.arms, gaps):
        if gap <= 0.0:
            continue
        c_star = solve_cstar(arm, float(gap), alpha, bounds)
        y = max(1.0 - alpha - 2.0 * c_star, 0.0)
        # at argument 0 the quantile limit from above (essential infimum) applies
        q = float(np.asarray(arm.quantile(max(y, 1e-15), bounds)))
        total += lead * (b - q) ** 2 / float(gap)
    return total


# ---------------------------------------------------------------------------
# Instance files: JSON {bounds, risk, horizon, seed, arms:[{family, params}]}
# ---------------------------------------------------------------------------

# Parametric arm families by name. Instance files give the parameters by
# field name, ``family:params`` CLI strings in dataclass field order.
ARM_FAMILIES = {
    "dirac": DiracArm,
    "uniform": UniformArm,
    "beta": BetaArm,
    "truncnormal": TruncNormalArm,
}


def _whole(value, name: str) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def instance_from_dict(obj: dict) -> BanditInstance:
    bounds = SupportBounds(float(obj["bounds"]["a"]), float(obj["bounds"]["b"]))
    arms = []
    for arm_obj in obj["arms"]:
        family = str(arm_obj["family"]).lower()
        params = arm_obj.get("params", {})
        if family == "discrete":
            atoms = params["atoms"]
            dist = DiscreteDistribution([atom["x"] for atom in atoms], [atom["p"] for atom in atoms], bounds)
            arms.append(DiscreteArm(dist))
        elif family in ARM_FAMILIES:
            cls = ARM_FAMILIES[family]
            arms.append(cls(*(float(params[field.name]) for field in fields(cls))))
        else:
            raise ValueError(f"unknown arm family {family!r}")
    risk = obj["risk"]
    if not isinstance(risk, str):
        raise ValueError(f"risk must be a spec string like 'cvar:0.25', got {risk!r}")
    return BanditInstance(
        bounds=bounds,
        arms=tuple(arms),
        horizon=_whole(obj["horizon"], "horizon"),
        risk=parse_risk(risk),
        seed=_whole(obj.get("seed", 0), "seed"),
    )


def load_instance(path: str) -> BanditInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
