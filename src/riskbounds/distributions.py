"""Discrete distributions on a bounded interval.

Everything downstream (risk evaluation, ball operators, bound assembly,
bandit arms) runs on finitely supported distributions with declared support
bounds [a, b]: empirical distributions built from samples, the transformed
distributions returned by the ball operators, and explicit weighted atom
lists. CDFs are right-continuous step functions; quantiles use the inf
convention F^{-1}(y) = inf{x : F(x) >= y}, with no interpolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "SupportBounds",
    "Distance",
    "DiscreteDistribution",
    "SampleError",
    "from_samples",
    "distance",
    "dominates",
    "read_samples_csv",
]

# Renormalization window: sum(p) within this of 1 is rescaled, anything
# worse is rejected as a construction bug rather than float drift.
MASS_SUM_TOL = 1e-9
# Masses this far below zero are treated as cancellation dust and clipped.
_NEG_MASS_TOL = 1e-12


class Distance(Enum):
    """CDF distance used for confidence balls: sup norm or Wasserstein-1."""

    SUPREMUM = "sup"
    WASSERSTEIN1 = "w1"


@dataclass(frozen=True)
class SupportBounds:
    """Closed interval [a, b] carrying the support of every distribution."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError(f"support bounds must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"support bounds need a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains(self, x: np.ndarray | float) -> bool:
        return bool(np.all(np.asarray(x) >= self.a) and np.all(np.asarray(x) <= self.b))


def _store(obj, xs, ps, bounds, cum=None) -> None:
    """Normalize and cumulate trusted masses (unless ``cum`` is given),
    freeze the arrays, and set the slots of ``obj``."""
    if cum is None:
        total = float(ps.sum())
        if total != 1.0:
            ps = ps / total
        cum = np.cumsum(ps)
        cum[-1] = 1.0
    for arr in (xs, ps, cum):
        arr.setflags(write=False)
    object.__setattr__(obj, "xs", xs)
    object.__setattr__(obj, "ps", ps)
    object.__setattr__(obj, "cum", cum)
    object.__setattr__(obj, "bounds", bounds)


class DiscreteDistribution:
    """Sorted weighted atoms with declared support bounds.

    Every instance holds these invariants: atoms are finite, strictly
    increasing and inside [a, b]; masses are positive; ``cum`` is their
    running sum with ``cum[-1] == 1.0`` exactly. Instances are immutable
    after construction (read-only arrays) and safe to share across threads.

    Two kinds of entry point build them:

    - Validating: the public constructor, ``from_json``, and ``dirac`` for an
      argument that is not a finite float inside the bounds. They accept
      atoms in any order, coalesce equal positions by summing masses, clip
      masses within ``_NEG_MASS_TOL`` below zero, drop zero masses, and
      renormalize a mass sum within ``MASS_SUM_TOL`` of one; anything else
      is rejected with ``ValueError``.
    - Trusted: ``_trusted``, used only for distributions the package builds
      itself: ``from_samples`` (after its finiteness and bounds checks),
      ``dirac`` (after its scalar check), the Wasserstein operators (whose
      outputs fall back to the public constructor when an atom ties or a
      mass is not positive) and the bandit's sorted-sample EDF. It checks
      nothing: callers pass float64 arrays they own, with finite, strictly
      increasing atoms inside [a, b] and positive masses. ``_from_cdf``, for
      the supremum operators, stores exact CDF values on sorted in-bounds
      atoms and only drops zero-mass atoms and checks the CDF's monotonicity
      and terminal value.
    """

    __slots__ = ("xs", "ps", "cum", "bounds")

    def __init__(self, xs: Sequence[float], ps: Sequence[float], bounds: SupportBounds):
        xs = np.asarray(xs, dtype=np.float64)
        ps = np.asarray(ps, dtype=np.float64)
        if xs.ndim != 1 or ps.ndim != 1 or xs.shape != ps.shape or xs.size == 0:
            raise ValueError("atoms require matching non-empty 1-D position/mass arrays")
        if np.any(~np.isfinite(xs)) or np.any(~np.isfinite(ps)):
            raise ValueError("atom positions and masses must be finite")
        if np.any(xs < bounds.a) or np.any(xs > bounds.b):
            raise ValueError(
                f"atom outside declared support [{bounds.a}, {bounds.b}]: "
                f"[{xs.min()}, {xs.max()}]"
            )
        if np.any(ps < -_NEG_MASS_TOL):
            raise ValueError(f"negative atom mass {ps.min()}")
        ps = np.maximum(ps, 0.0)

        if np.any(np.diff(xs) < 0):
            order = np.argsort(xs, kind="stable")
            xs, ps = xs[order], ps[order]
        if np.any(np.diff(xs) == 0):
            xs, inverse = np.unique(xs, return_inverse=True)
            ps = np.bincount(inverse, weights=ps, minlength=xs.size)

        keep = ps > 0.0
        if not np.any(keep):
            raise ValueError("distribution has no positive-mass atoms")
        xs, ps = xs[keep], ps[keep]

        total = float(ps.sum())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"atom masses sum to {total}, outside 1 +/- {MASS_SUM_TOL}")
        _store(self, xs, ps, bounds)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    @classmethod
    def _trusted(
        cls, xs: np.ndarray, ps: np.ndarray, bounds: SupportBounds, cum: np.ndarray | None = None
    ) -> "DiscreteDistribution":
        """Build from float64 arrays that already hold the class invariants.

        Nothing is checked, and the arrays are frozen in place, so the caller
        must own them. Without ``cum`` the masses are normalized and cumulated
        exactly as the public constructor does.
        """
        obj = object.__new__(cls)
        _store(obj, xs, ps, bounds, cum)
        return obj

    @classmethod
    def _from_cdf(cls, xs: np.ndarray, cdf_vals: np.ndarray, bounds: SupportBounds) -> "DiscreteDistribution":
        """Build from exact CDF values at sorted atoms (cdf_vals[-1] == 1).

        The supplied CDF values are stored verbatim so operator outputs
        reproduce closed-form CDF transforms exactly at their atoms; masses
        are the first differences. Zero-mass atoms are dropped.
        """
        xs = np.asarray(xs, dtype=np.float64)
        cum = np.asarray(cdf_vals, dtype=np.float64)
        ps = np.diff(cum, prepend=0.0)
        if np.any(ps < -_NEG_MASS_TOL):
            raise ValueError("CDF values must be nondecreasing")
        keep = ps > 0.0
        if not np.any(keep):
            raise ValueError("distribution has no positive-mass atoms")
        xs, ps, cum = xs[keep], ps[keep], cum[keep]
        if cum[-1] != 1.0:
            if abs(cum[-1] - 1.0) > MASS_SUM_TOL:
                raise ValueError(f"terminal CDF value {cum[-1]} != 1")
            cum = cum / cum[-1]
            ps = np.diff(cum, prepend=0.0)
        return cls._trusted(xs, ps, bounds, cum)

    @classmethod
    def dirac(cls, x: float, bounds: SupportBounds) -> "DiscreteDistribution":
        # Finite bounds make the range test reject nan and inf as well.
        if isinstance(x, (float, int)) and bounds.a <= x <= bounds.b:
            return cls._trusted(np.array([x], dtype=np.float64), np.ones(1), bounds)
        return cls([x], [1.0], bounds)

    @property
    def n_atoms(self) -> int:
        return int(self.xs.size)

    def cdf(self, x) -> np.ndarray | float:
        """Right-continuous step CDF F(x) = sum of masses at atoms <= x."""
        idx = np.searchsorted(self.xs, x, side="right")
        cum = np.concatenate(([0.0], self.cum))
        out = cum[idx]
        return float(out) if np.isscalar(x) else out

    def quantile(self, y) -> np.ndarray | float:
        """Smallest atom with CDF mass >= y, for y in (0, 1]."""
        y_arr = np.asarray(y, dtype=np.float64)
        if np.any(y_arr <= 0.0) or np.any(y_arr > 1.0):
            raise ValueError(f"quantile level must lie in (0, 1], got {y}")
        idx = np.searchsorted(self.cum, y_arr, side="left")
        out = self.xs[np.minimum(idx, self.xs.size - 1)]
        return float(out) if np.isscalar(y) else out

    def mean(self) -> float:
        return float(self.xs @ self.ps)

    def shift(self, t: float) -> "DiscreteDistribution":
        """Translate all atoms (and the support) by t."""
        return DiscreteDistribution(
            self.xs + t, self.ps, SupportBounds(self.bounds.a + t, self.bounds.b + t)
        )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF sampling."""
        u = rng.random(size)
        return self.xs[np.searchsorted(self.cum, u, side="right").clip(0, self.xs.size - 1)]

    def allclose(self, other: "DiscreteDistribution", tol: float = 1e-12) -> bool:
        return (
            self.bounds == other.bounds
            and self.xs.size == other.xs.size
            and bool(np.all(np.abs(self.xs - other.xs) <= tol))
            and bool(np.all(np.abs(self.ps - other.ps) <= tol))
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.xs.size == other.xs.size
            and bool(np.all(self.xs == other.xs))
            and bool(np.all(self.ps == other.ps))
        )

    __hash__ = None

    def __repr__(self) -> str:
        atoms = ", ".join(f"{x:g}:{p:.4g}" for x, p in zip(self.xs[:6], self.ps[:6]))
        more = "" if self.n_atoms <= 6 else f", ... ({self.n_atoms} atoms)"
        return f"DiscreteDistribution({{{atoms}{more}}} on [{self.bounds.a:g}, {self.bounds.b:g}])"

    def to_json(self) -> dict:
        return {
            "bounds": {"a": self.bounds.a, "b": self.bounds.b},
            "atoms": [{"x": float(x), "p": float(p)} for x, p in zip(self.xs, self.ps)],
        }

    @classmethod
    def from_json(cls, obj: dict | str) -> "DiscreteDistribution":
        if isinstance(obj, str):
            obj = json.loads(obj)
        bounds = SupportBounds(float(obj["bounds"]["a"]), float(obj["bounds"]["b"]))
        xs = [atom["x"] for atom in obj["atoms"]]
        ps = [atom["p"] for atom in obj["atoms"]]
        return cls(xs, ps, bounds)


class SampleError(ValueError):
    """The samples themselves cannot form an empirical distribution."""


def from_samples(samples: Sequence[float], bounds: SupportBounds) -> DiscreteDistribution:
    """Empirical distribution: mass multiplicity/n at each distinct value."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise SampleError("cannot build an empirical distribution from zero samples")
    if np.any(~np.isfinite(arr)):
        raise SampleError("samples must be finite")
    if np.any(arr < bounds.a) or np.any(arr > bounds.b):
        bad = arr[(arr < bounds.a) | (arr > bounds.b)][0]
        raise SampleError(
            f"sample {bad} outside declared support [{bounds.a}, {bounds.b}]; "
            "radii and ball operators assume bounded support"
        )
    xs, counts = np.unique(arr, return_counts=True)
    return DiscreteDistribution._trusted(xs, counts / arr.size, bounds)


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


def read_samples_csv(path: str, header: bool = False) -> np.ndarray:
    """Read one numeric value per line; ``header`` skips the first line."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            text = line.strip().rstrip(",")
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from exc
    if not values:
        raise ValueError(f"{path}: no samples found")
    return np.asarray(values, dtype=np.float64)
