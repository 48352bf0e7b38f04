"""Discrete distributions on a bounded interval.

Everything downstream (risk evaluation, ball operators, bound assembly,
bandit arms) runs on finitely supported distributions with declared support
bounds [a, b]: empirical distributions built from samples, the transformed
distributions returned by the ball operators, and explicit weighted atom
lists. CDFs are right-continuous step functions; quantiles use the inf
convention F^{-1}(y) = inf{x : F(x) >= y}, with no interpolation.
"""

from __future__ import annotations

import codecs
import collections
import io
import os
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "SupportBounds",
    "Distance",
    "DiscreteDistribution",
    "from_samples",
    "read_samples_csv",
]

# Renormalization window: sum(p) within this of 1 is rescaled, anything
# worse is rejected as a construction bug rather than float drift.
MASS_SUM_TOL = 1e-9
# Masses this far below zero are treated as cancellation dust and clipped.
_NEG_MASS_TOL = 1e-12
# Lines that read_samples_csv parses at a time: bounds the memory held as
# text and arrays and the work redone when a block needs the per-line loop.
_BLOCK_LINES = 1 << 13
# read_samples_csv parses blocks on up to this many worker threads, and
# holds at most _IN_FLIGHT blocks handed to them and not yet taken back.
# The three sizes keep the peak resident set of ci on 10^6 samples within
# a few percent of a reader with no threads.
_MAX_WORKERS = 2
_IN_FLIGHT = 3
# The most values read_samples_csv reserves before it reads (512 MiB of
# address space): past it, the buffer grows as the values come.
_RESERVE_VALUES = 1 << 26
# Bytes per read, as text-mode file iteration reads them.
_CHUNK_BYTES = 8192
# The decimal kernel needs long double to be x87 80-bit extended precision:
# a 64-bit significand, stored little-endian in 16 bytes, and used as such.
_EXACT_LONG_DOUBLE = bool(
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and sys.byteorder == "little"
    and np.longdouble(1) + np.longdouble(2) ** -63 != np.longdouble(1)
)
# The decimal kernel takes a line only when the integer its digits spell
# is below this, so that it is exact in uint64 and in long double.
_MANTISSA_LIMIT = np.uint64(10**19)
# 10^0 .. 10^27, exact in long double (5^27 < 2^64), built by exact products.
_POW10_LD = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))


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
        if not np.isfinite(float(self.b) - float(self.a)):  # Python floats: no overflow warning
            raise ValueError(f"support bounds need a finite width b - a, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


def _true_run(mask: np.ndarray) -> slice | np.ndarray:
    """Index of the true entries of the boolean ``mask``: a slice, which
    takes views instead of copies, when they form one run, else the mask."""
    lo = int(mask.argmax())
    run = slice(lo, lo + int(np.count_nonzero(mask)))
    return run if np.count_nonzero(mask[run]) == run.stop - lo else mask


def _store(obj, xs, cum, bounds) -> None:
    """Freeze the arrays and set the slots of ``obj``."""
    xs.setflags(write=False)
    cum.setflags(write=False)
    object.__setattr__(obj, "xs", xs)
    object.__setattr__(obj, "cum", cum)
    object.__setattr__(obj, "bounds", bounds)


def _steps(cum: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """First differences of CDF values from 0: the masses at their atoms,
    or at atoms ``lo`` to ``hi - 1`` only."""
    hi = cum.size if hi is None else hi
    steps = np.empty(hi - lo)
    if lo == 0:
        steps[:1] = cum[:1]
    start = max(lo, 1)  # the first atom with one before it
    np.subtract(cum[start:hi], cum[start - 1 : hi - 1], out=steps[start - lo :])
    return steps


def _rises(cum: np.ndarray) -> np.ndarray:
    """Whether each of the (non-empty) CDF values rises above the one
    before it, or above 0 for the first: ``_steps(cum) > 0`` as one
    boolean array, an eighth of the size of the steps."""
    out = np.empty(cum.size, dtype=bool)
    out[0] = cum[0] > 0.0
    np.greater(cum[1:], cum[:-1], out=out[1:])
    return out


class DiscreteDistribution:
    """Sorted atoms ``xs`` and the CDF at them, ``cum``, on declared bounds.

    Invariants: atoms are finite, strictly increasing and inside [a, b];
    ``cum`` is strictly increasing and ends at exactly 1.0. The masses
    ``ps`` are derived, as its first differences. Instances are immutable
    (read-only arrays) and safe to share across threads.

    - Validating entry points: the public constructor (which
      ``instance_from_dict`` uses for discrete arms) and ``dirac``. They take
      masses in any atom order, coalesce equal positions, clip masses
      within ``_NEG_MASS_TOL`` below zero, drop zero masses and renormalize
      a sum within ``MASS_SUM_TOL`` of one, and reject anything else with
      ``ValueError``. The CDF is the running sum of the masses, capped at 1
      and ending at 1.0; an atom whose mass is too small to move it (1e-20
      beside 0.5) is dropped.
    - Trusted, for what the package builds itself: ``_trusted`` checks
      nothing, and its callers (``from_samples``, whose atoms it has
      checked, and the CDF values that ``bounds`` shares across rows) pass
      float64 arrays they own. The one exception is ``from_samples``, whose
      atoms may be the caller's frozen samples: freezing them again changes
      nothing, and no instance writes them. ``_from_cdf``, for the four ball
      operators, also drops zero-mass atoms; it checks nothing either.
    """

    __slots__ = ("xs", "cum", "bounds")

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
        if total != 1.0:
            ps /= total
        # The running sum may pass 1 by rounding before its last atom.
        cum = np.minimum(np.cumsum(ps), 1.0)
        cum[-1] = 1.0
        keep = _rises(cum)
        _store(self, xs[keep], cum[keep], bounds)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    @classmethod
    def _trusted(cls, xs: np.ndarray, cum: np.ndarray, bounds: SupportBounds) -> "DiscreteDistribution":
        """Build from float64 atoms and CDF values that already hold the
        class invariants. Nothing is checked, and the arrays are frozen in
        place, so the caller must own them."""
        obj = object.__new__(cls)
        _store(obj, xs, cum, bounds)
        return obj

    @classmethod
    def _from_cdf(cls, xs: np.ndarray, cdf_vals: np.ndarray, bounds: SupportBounds) -> "DiscreteDistribution":
        """Build from exact CDF values at sorted atoms, keeping ``cdf_vals``
        (or a slice of it) as ``cum``, so operator outputs reproduce
        closed-form CDF transforms exactly at their atoms.

        Atoms whose value does not rise above the one before have zero mass
        and are dropped, by slicing when they sit at the ends. Nothing is
        checked: every caller builds nondecreasing values that end at 1.0.
        ``pos_sup`` and ``pos_w1`` end at b, ``neg_w1`` at its level, and
        ``neg_sup``'s min(cum + c, 1) at min(1 + c, 1). The atoms after the
        last kept one share its value, so it is 1.0. At a radius so small
        that max(1 - c, 0) rounds to 1.0 below b, ``pos_sup`` drops the
        atom at b and ends at the atom before it.
        """
        cum = np.asarray(cdf_vals, dtype=np.float64)
        keep = _true_run(_rises(cum))
        return cls._trusted(np.asarray(xs, dtype=np.float64)[keep], cum[keep], bounds)

    @classmethod
    def dirac(cls, x: float, bounds: SupportBounds) -> "DiscreteDistribution":
        return cls([x], [1.0], bounds)

    @property
    def ps(self) -> np.ndarray:
        """The masses: first differences of ``cum``, a new read-only array."""
        ps = _steps(self.cum)
        ps.setflags(write=False)
        return ps

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
        return _dot(_steps(self.cum), self.xs)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF sampling."""
        u = rng.random(size)
        return self.xs[np.searchsorted(self.cum, u, side="right").clip(0, self.xs.size - 1)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        same_bounds = self.bounds == other.bounds
        return same_bounds and np.array_equal(self.xs, other.xs) and np.array_equal(self.cum, other.cum)

    __hash__ = None

    def __repr__(self) -> str:
        atoms = ", ".join(f"{x:g}:{p:.4g}" for x, p in zip(self.xs[:6], self.ps[:6]))
        more = "" if self.n_atoms <= 6 else f", ... ({self.n_atoms} atoms)"
        return f"DiscreteDistribution({{{atoms}{more}}} on [{self.bounds.a:g}, {self.bounds.b:g}])"


def _dot(owned: np.ndarray, other: np.ndarray) -> float:
    """The sum of ``owned * other``, with the product written over
    ``owned``, which the caller owns. numpy's pairwise sum adds it on one
    thread, so its bits do not depend on the BLAS thread count, as those of
    ``@`` and ``ndarray.dot`` do."""
    np.multiply(owned, other, out=owned)
    return float(np.add.reduce(owned))


def _check_samples(arr: np.ndarray, bounds: SupportBounds) -> None:
    """Reject samples that cannot form an empirical distribution on ``bounds``.

    The bounds are finite, so one min and one max accept exactly the finite
    samples inside them (nan and inf fail both tests); the element-wise
    checks run only to name what failed.
    """
    if arr.size == 0:
        raise ValueError("cannot build an empirical distribution from zero samples")
    if bounds.a <= arr.min() and arr.max() <= bounds.b:
        return
    if np.any(~np.isfinite(arr)):
        raise ValueError("samples must be finite")
    if np.any(arr < bounds.a) or np.any(arr > bounds.b):
        bad = arr[(arr < bounds.a) | (arr > bounds.b)][0]
        raise ValueError(
            f"sample {bad} outside declared support [{bounds.a}, {bounds.b}]; "
            "radii and ball operators assume bounded support"
        )


def _frozen(arr: np.ndarray) -> bool:
    """Whether ``arr`` and every array it views are read-only ndarrays, so
    nothing can write to its data without first making one writeable."""
    while isinstance(arr, np.ndarray) and not arr.flags.writeable:
        arr = arr.base
    return arr is None


def from_samples(samples: Sequence[float], bounds: SupportBounds) -> DiscreteDistribution:
    """Empirical distribution: mass multiplicity/n at each distinct value.

    Its CDF at an atom is k/n for the k samples up to it, an exact count
    divided once, so it is correctly rounded at any n. Strictly increasing
    samples (one sample included) are their own distinct values, each of
    multiplicity one, so they skip ``np.unique``'s sort.
    Such samples become the atoms themselves, without a copy, when they are
    a float64 array that is frozen: it and every array it views are
    read-only (``cli.cmd_ci`` freezes its sorted samples). The caller must
    not make them writeable again. Any other input is copied. The samples
    are checked through the atoms, with no pass of their own: the sorted
    values are finite and in [a, b] when the first is >= a and the last is
    <= b (nan sorts last). Only samples that fail reach ``_check_samples``.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1 and np.count_nonzero(arr[1:] > arr[:-1]) == arr.size - 1:
        xs = arr if _frozen(arr) else arr.copy()
        cum = np.arange(1, arr.size + 1, dtype=np.float64)
    else:
        xs, counts = np.unique(arr, return_counts=True)
        cum = np.cumsum(counts, dtype=np.float64)
    if not (xs.size and bounds.a <= xs[0] and xs[-1] <= bounds.b):
        _check_samples(arr, bounds)  # raises
    cum /= arr.size
    return DiscreteDistribution._trusted(xs, cum, bounds)


def read_samples_csv(path: str, header: bool = False) -> np.ndarray:
    r"""Read a UTF-8 file of one value per line in Python ``float()`` syntax.

    Whitespace around a value, blank lines and trailing commas are ignored;
    ``header`` skips line 1. Anything else raises ``ValueError`` naming the
    line, as does a file with no values; a file that cannot be opened or
    decoded raises ``OSError`` or ``UnicodeDecodeError``, after any bad line
    that comes before the fault.

    The file is read once, front to back, so pipes and FIFOs work: in the
    8 KiB chunks and through the decoder that iterating a text-mode file
    uses, split only at line feeds after ``\r\n`` and ``\r`` become ``\n``,
    and parsed in blocks of about ``_BLOCK_LINES`` whole lines. A block of
    plain decimals, every line ``[0-9]*.[0-9]*`` with at least one digit,
    M < 10^19 for the integer M its digits spell and at most 27 digits
    after the dot, takes an exact vectorized kernel (``_decimal_block``)
    whose values are bitwise those of ``float()``. Any other block (signs,
    exponents, whitespace, commas, blank lines, longer numbers) is split
    into lines for ``float()``; see ``_parse_lines``.

    This thread reads and decodes the file; blocks are parsed on up to
    ``_MAX_WORKERS`` worker threads, one per CPU the process may use, and
    taken back in file order, with at most ``_IN_FLIGHT`` blocks between.
    The kernel's numpy passes release the GIL, so a second CPU parses while
    this one decodes. The first fault in file order is the one raised, and
    every worker is joined (after it parses the blocks still in flight)
    before the function returns or raises.
    """
    # Loaded here, not on import: only the reader starts threads.
    from concurrent.futures import ThreadPoolExecutor

    pending = collections.deque()  # futures of the blocks in flight, in file order
    count, first = 0, 1

    def take():
        nonlocal count
        part = pending.popleft().result()
        if count + part.size > values.size:
            values.resize(max(2 * values.size, count + part.size), refcheck=False)
        values[count : count + part.size] = part
        count += part.size

    with open(path, "rb") as fh, ThreadPoolExecutor(_workers()) as pool:
        # One buffer for every value, grown in place (realloc) if it fills,
        # rather than per-block arrays to concatenate: those would scatter
        # through the heap. Each value but the last takes two bytes or more
        # ("5\n"), so a regular file's size bounds their number, and the
        # buffer starts at that bound, up to _RESERVE_VALUES: pages never
        # written take no memory, and the buffer need not grow, copy and
        # leave holes behind. Nothing else refers to it, so resize need not
        # count references (a debugger holding frame locals would fail it).
        reserve = (os.fstat(fh.fileno()).st_size + 1) // 2
        values = np.empty(min(max(reserve, _BLOCK_LINES), _RESERVE_VALUES))
        try:
            for block, ends in _text_blocks(fh, _BLOCK_LINES):
                if len(pending) == _IN_FLIGHT:
                    take()
                pending.append(pool.submit(_parse_lines, path, block, first, header))
                first += ends
        except (OSError, UnicodeDecodeError):
            while pending:  # a bad line before the fault is raised first
                take()
            raise
        while pending:
            take()
    if not count:
        raise ValueError(f"{path}: no samples found")
    values.resize(count, refcheck=False)
    return values


def _workers() -> int:
    """Reader threads: one per CPU this process may run on, at most
    ``_MAX_WORKERS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _text_blocks(fh, size: int):
    r"""The decoded text of binary file ``fh`` in blocks of whole lines,
    each with its number of line ends. A block ends at the last line end of
    the chunk that brings it to ``size`` line ends or more; the last block
    may hold fewer, and may lack its final line end.

    Iterating a text-mode file reads ``read1(8192)`` chunks through this
    decoder too, so a ``UnicodeDecodeError`` names the same position. A
    read or decode error is raised after the block of the whole lines
    before it, as line iteration returns those lines first.
    """
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), translate=True)
    pieces, ends = [], 0  # the open block's text, and the line ends in it
    while True:
        try:
            chunk = fh.read1(_CHUNK_BYTES)
            text = decoder.decode(chunk, final=not chunk)
        except (OSError, UnicodeDecodeError):
            head = "".join(pieces)
            head = head[: head.rfind("\n") + 1]
            if head:
                yield head, ends
            raise
        ends += text.count("\n")
        if ends >= size:
            cut = text.rfind("\n") + 1
            pieces.append(text[:cut])
            yield "".join(pieces), ends
            text, pieces, ends = text[cut:], [], 0
        pieces.append(text)
        if not chunk:
            break
    tail = "".join(pieces)
    if tail:
        yield tail, ends


def _parse_lines(path: str, text: str, first: int, header: bool) -> np.ndarray:
    """The values on the lines of ``text``, which are lines ``first``,
    ``first + 1``, ... of ``path``.

    The decimal kernel takes plain decimal blocks. Any other block is read
    with one ``float()`` per line, and if any line fails that (blank lines,
    trailing commas, a bad line), once more by the per-line loop, which
    alone decides acceptance and messages. A line that ``float()`` reads
    is a number between whitespace that the loop strips, with no trailing
    comma, so both passes give it the same value.
    """
    if header and first == 1:
        text, first = text.partition("\n")[2], 2
    values = _decimal_block(text)
    if values is not None:
        return values
    # Cut after each "\n" only, as file iteration cuts (str.splitlines
    # would also cut at "\x0b", "\x85", ...).
    lines = io.StringIO(text, newline="\n").readlines()
    try:
        return np.fromiter(map(float, lines), np.float64, len(lines))
    except ValueError:
        pass
    values = []
    for lineno, line in enumerate(lines, start=first):
        text = line.strip().rstrip(",")
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from exc
    return np.asarray(values, dtype=np.float64)


def _decimal_block(text: str) -> np.ndarray | None:
    r"""``float()`` of each line of ``text`` when every line is
    ``[0-9]*.[0-9]*`` with at least one digit, ended by ``\n`` (the last
    line may lack it), and the rule below holds; ``None`` for any other
    text, or where ``long double`` is not x87 80-bit extended.

    A line is M / 10^k, with M the integer its digits spell and k the digits
    after the dot; the block is taken only when every line has M < 10^19
    and k <= 27. Then M and 10^k are exact in the 64-bit significand of
    ``long double``, so their quotient is the true value rounded once to 64
    bits (Clinger's exact-operands case). Every float64 midpoint has 54
    significant bits, so that rounding cannot carry the value across one:
    rounding the quotient to float64 gives ``float()``'s answer, unless the
    quotient is itself a midpoint (low 11 significand bits ``0x400``), where
    the true value may lie just off it. Those lines take ``float()`` one by
    one.
    """
    if not (_EXACT_LONG_DOUBLE and text.isascii()):
        return None
    if not text.endswith("\n"):
        text += "\n"
    raw = text.encode("ascii")
    # Digits are 48-57, "." 46 and "\n" 10: the block is lines of digits
    # around one dot when no byte is above "9" and the bytes below "0" are
    # dots and line ends in turn, a dot first. These numpy passes release
    # the GIL, which bytes.translate and str.replace hold.
    u8 = np.frombuffer(raw, np.uint8)
    marks = np.flatnonzero(u8 < 48)
    n = marks.size // 2
    if not n or marks.size % 2 or u8.max() > 57:
        return None
    marks = marks.reshape(n, 2)
    dots, ends = marks[:, 0], marks[:, 1]
    if np.any(u8[dots] != 46) or np.any(u8[ends] != 10):
        return None  # a line that is not digits around one dot
    # Dots and line ends alternate: dot_i < end_i < dot_{i+1}, so a line
    # two bytes long is a lone ".", which must be declined here: the parse
    # skips the empty line it leaves.
    k = ends - dots - 1
    if np.any(k > 27) or np.any(np.diff(ends, prepend=-1) == 2):
        return None
    # One integer M a line; strtoull saturates at 2^64 - 1, so an overflow
    # is past the limit too.
    mantissa = np.fromstring(np.delete(u8, dots), np.uint64, sep="\n")
    if np.any(mantissa >= _MANTISSA_LIMIT):
        return None
    quotient = mantissa.astype(np.longdouble) / _POW10_LD[k]
    del mantissa
    values = quotient.astype(np.float64)
    ties = np.flatnonzero((quotient.view(np.uint64)[::2] & 0x7FF) == 0x400)
    for i in ties.tolist():
        values[i] = float(raw[ends[i - 1] + 1 if i else 0 : ends[i]])
    return values
