"""Discrete distributions on a bounded interval.

Everything downstream (risk evaluation, ball operators, bound assembly,
bandit arms) runs on finitely supported distributions with declared support
bounds [a, b]: empirical distributions built from samples, the transformed
distributions returned by the ball operators, and explicit weighted atom
lists. CDFs are right-continuous step functions; quantiles use the inf
convention F^{-1}(y) = inf{x : F(x) >= y}, with no interpolation.
"""

from __future__ import annotations

import itertools
import json
import warnings
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
    "read_samples_csv",
]

# Renormalization window: sum(p) within this of 1 is rescaled, anything
# worse is rejected as a construction bug rather than float drift.
MASS_SUM_TOL = 1e-9
# Masses this far below zero are treated as cancellation dust and clipped.
_NEG_MASS_TOL = 1e-12
# Lines that read_samples_csv hands numpy at a time: bounds the memory held
# as line strings and the work redone when a block needs the per-line loop.
_BLOCK_LINES = 1 << 16


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

    - Validating: the public constructor (which ``instance_from_dict`` uses
      for discrete arms), ``from_json`` (the reader of the documented JSON
      format that ``to_json`` writes), and ``dirac`` for an argument that
      is not a finite float inside the bounds. They accept
      atoms in any order, coalesce equal positions by summing masses, clip
      masses within ``_NEG_MASS_TOL`` below zero, drop zero masses, and
      renormalize a mass sum within ``MASS_SUM_TOL`` of one; anything else
      is rejected with ``ValueError``.
    - Trusted: ``_trusted``, used only for distributions the package builds
      itself: ``from_samples`` (after its finiteness and bounds checks),
      ``dirac`` (after its scalar check) and the Wasserstein operators
      (whose outputs fall back to the public constructor when an atom ties
      or a mass is not positive). It checks nothing: callers pass float64
      arrays they own, with finite, strictly increasing atoms inside [a, b]
      and positive masses. ``_from_cdf``, for the supremum operators, stores
      exact CDF values on sorted in-bounds atoms and only drops zero-mass
      atoms and checks the CDF's monotonicity and terminal value.
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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF sampling."""
        u = rng.random(size)
        return self.xs[np.searchsorted(self.cum, u, side="right").clip(0, self.xs.size - 1)]

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


def _check_samples(arr: np.ndarray, bounds: SupportBounds) -> None:
    """Reject samples that cannot form an empirical distribution on ``bounds``."""
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


def from_samples(samples: Sequence[float], bounds: SupportBounds) -> DiscreteDistribution:
    """Empirical distribution: mass multiplicity/n at each distinct value.

    Strictly increasing samples (one sample included) are their own distinct
    values, each of multiplicity one, so they skip ``np.unique``'s sort.
    """
    arr = np.asarray(samples, dtype=np.float64)
    _check_samples(arr, bounds)
    if arr.ndim == 1 and np.all(arr[1:] > arr[:-1]):
        xs, counts = arr.copy(), np.ones(arr.size)
    else:
        xs, counts = np.unique(arr, return_counts=True)
    return DiscreteDistribution._trusted(xs, counts / arr.size, bounds)


def read_samples_csv(path: str, header: bool = False) -> np.ndarray:
    """Read a UTF-8 file of one value per line in Python ``float()`` syntax.

    Whitespace around a value, blank lines and trailing commas are ignored;
    ``header`` skips line 1. Anything else raises ``ValueError`` naming the
    line, as does a file with no values; a file that cannot be opened or
    decoded raises ``OSError`` or ``UnicodeDecodeError``.

    The file is read once, front to back, so pipes and FIFOs work, in blocks
    of ``_BLOCK_LINES`` lines; see ``_parse_lines`` for how a block is
    parsed. numpy gets the lines, never the path: from a path it would also
    decompress ``.gz``/``.bz2``/``.xz`` files, open ``x.csv.gz`` in place of
    a missing ``x.csv`` and download URLs.
    """
    parts, first = [], 1
    with open(path, encoding="utf-8") as fh:
        while True:
            block, fault = [], None
            try:
                for line in itertools.islice(fh, _BLOCK_LINES):
                    block.append(line)
            except (OSError, UnicodeDecodeError) as exc:
                fault = exc  # a bad line read before it is reported first
            parts.append(_parse_lines(path, block, first, header))
            if fault is not None:
                raise fault
            if len(block) < _BLOCK_LINES:
                break
            first += len(block)
    values = np.concatenate(parts)
    if not values.size:
        raise ValueError(f"{path}: no samples found")
    return values


def _parse_lines(path: str, lines: list[str], first: int, header: bool) -> np.ndarray:
    """The values on ``lines``, which are lines ``first``, ``first + 1``, ...
    of ``path``.

    numpy's C reader takes the common case, lines it reads as one column of
    at least one row; it converts each field as ``float()`` does, so the
    values are bitwise equal. Any other block (extra columns, trailing
    commas, ``1_0``, a bad line, no values) goes to the per-line loop, which
    alone decides acceptance and messages, and costs a second parse of the
    block only.
    """
    skip = int(header and first == 1)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(lines, dtype=np.float64, comments=None, skiprows=skip, ndmin=2)
    except ValueError:
        pass
    else:
        if table.shape[0] and table.shape[1] == 1:
            return table[:, 0]
    values = []
    for lineno, line in enumerate(lines[skip:], start=first + skip):
        text = line.strip().rstrip(",")
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from exc
    return np.asarray(values, dtype=np.float64)
