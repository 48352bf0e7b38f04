import gzip
import io
import os
import threading
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbounds import (
    DiscreteDistribution,
    Distance,
    SupportBounds,
    evaluate,
    from_samples,
    read_samples_csv,
)
from riskbounds.measures import ERM
from riskbounds import distributions
from reference import allclose, distance, dominates, exact_decimal_block, unique_edf
from conftest import assert_bitwise_equal, assert_invariants, random_interior_dist, validated_builds

B05 = SupportBounds(0.0, 5.0)
B01 = SupportBounds(0.0, 1.0)


class TestConstruction:
    def test_from_samples_basic(self):
        d = from_samples([1, 2, 3, 4], B05)
        assert np.allclose(d.xs, [1, 2, 3, 4])
        assert np.allclose(d.ps, 0.25)

    def test_tie_coalescing(self):
        d = from_samples([2, 2, 7], SupportBounds(0, 10))
        assert np.allclose(d.xs, [2, 7])
        assert np.allclose(d.ps, [2 / 3, 1 / 3])

    def test_single_sample_dirac(self):
        d = from_samples([3], B05)
        assert d.n_atoms == 1 and d.xs[0] == 3.0 and d.ps[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            from_samples([], B05)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            from_samples([1, 6], B05)

    @pytest.mark.parametrize(
        "samples, message",
        [([1.0, float("nan")], "samples must be finite"),
         ([float("inf"), 1.0], "samples must be finite"),
         ([float("-inf")], "samples must be finite"),
         ([5.0, 6.0, -1.0], r"sample 6.0 outside declared support \[0.0, 5.0\]"),
         ([-1e-300, 2.0], r"sample -1e-300 outside declared support"),
         # Strictly increasing: the order test passes, the ends do not.
         ([1.0, 6.0], r"sample 6.0 outside declared support \[0.0, 5.0\]"),
         ([1.0, float("inf")], "samples must be finite"),
         ([float("-inf"), 1.0], "samples must be finite")],
    )
    def test_sample_check_messages(self, samples, message):
        # The atoms' ends accept; the element-wise checks still name the
        # first fault, finiteness before bounds.
        with pytest.raises(ValueError, match=message):
            from_samples(samples, B05)

    def test_frozen_samples_on_the_bounds_are_the_atoms(self):
        samples = np.array([0.0, 5.0])
        samples.setflags(write=False)
        d = from_samples(samples, B05)
        assert d.xs is samples and d.cum.tolist() == [0.5, 1.0]

    def test_samples_on_the_bounds_accepted(self):
        d = from_samples([0.0, 5.0, 0.0], B05)
        assert list(d.xs) == [0.0, 5.0] and list(d.cum) == [2 / 3, 1.0]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.5, 2.5, 5.0]) | st.floats(0.0, 5.0), min_size=1, max_size=30))
    def test_edf_cdf_is_exact(self, samples):
        # k/n rounded once: arange(1, n + 1) / n on tie-free samples, the
        # exact integer running sum of the counts over n on tied ones.
        arr = np.asarray(samples, dtype=np.float64)
        xs, counts = np.unique(arr, return_counts=True)
        assert from_samples(arr, B05).cum.tobytes() == (np.cumsum(counts) / arr.size).tobytes()
        assert from_samples(xs, B05).cum.tobytes() == (np.arange(1, xs.size + 1) / xs.size).tobytes()

    def test_edf_cdf_is_exact_at_scale(self):
        # A running sum of 1/n drifts from k/n as n grows.
        n = 10**5
        want = np.arange(1, n + 1) / n
        assert from_samples(np.arange(n) / n, B01).cum.tobytes() == want.tobytes()
        assert from_samples(np.repeat(np.arange(n // 2) / n, 2), B01).cum.tobytes() == want[1::2].tobytes()

    def test_bounds_need_a_lt_b(self):
        with pytest.raises(ValueError):
            SupportBounds(1.0, 1.0)
        with pytest.raises(ValueError):
            SupportBounds(np.inf, 2.0)
        # Finite ends whose width b - a overflows.
        with pytest.raises(ValueError, match="finite width"):
            SupportBounds(-1e308, 1e308)
        with pytest.raises(ValueError, match="finite width"):
            SupportBounds(np.float64(-1e308), np.float64(1e308))
        assert SupportBounds(0.0, 1e308).width == 1e308

    def test_mass_too_small_to_move_the_cdf_is_dropped(self):
        # 0.5 + 1e-20 rounds to 0.5: the middle atom takes no step of the
        # CDF, so it goes, and the distribution is the two-atom one.
        d = DiscreteDistribution([1.0, 2.0, 3.0], [0.5, 1e-20, 0.5], B05)
        two = DiscreteDistribution([1.0, 3.0], [0.5, 0.5], B05)
        assert_invariants(d)
        assert d.xs.tolist() == [1.0, 3.0] and d == two
        assert evaluate(ERM(1.0), d) == evaluate(ERM(1.0), two)
        # At the front the same mass is a step of its own, and stays.
        assert DiscreteDistribution([1.0, 2.0], [1e-20, 1.0], B05).ps[0] == 1e-20

    def test_running_sum_past_one_is_capped(self):
        # These masses sum to 1 - 2^-53 and are rescaled; their running sum
        # then reads 1 + 2^-52 at the third atom. Capped at 1, the CDF
        # still ends at exactly 1.0, and the last atom takes no step.
        d = DiscreteDistribution([1.0, 2.0, 3.0, 4.0], [0.06, 0.505, 1 - 0.06 - 0.505, 1e-17], B05)
        assert_invariants(d)
        assert d.xs.tolist() == [1.0, 2.0, 3.0] and d.cum[-1] == 1.0

    def test_mass_renormalization_window(self):
        d = DiscreteDistribution([1, 2], [0.5 + 4e-10, 0.5], B05)
        assert abs(d.ps.sum() - 1.0) <= 1e-12
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution([1, 2], [0.6, 0.5], B05)

    @pytest.mark.parametrize(
        "xs, ps, message",
        [
            ([1.0, 2.0], [1.0], "matching non-empty 1-D"),
            ([[1.0]], [[1.0]], "matching non-empty 1-D"),
            ([], [], "matching non-empty 1-D"),
            ([1.0, 2.0], [1.5, -0.5], "negative atom mass -0.5"),
            ([1.0, 2.0], [0.0, 0.0], "no positive-mass atoms"),
        ],
        ids=["lengths", "2-D", "empty", "negative", "all-zero"],
    )
    def test_constructor_rejects(self, xs, ps, message):
        with pytest.raises(ValueError, match=message):
            DiscreteDistribution(xs, ps, B05)

    def test_unsorted_input_atoms_sorted(self):
        d = DiscreteDistribution([3, 1], [0.5, 0.5], B05)
        assert list(d.xs) == [1.0, 3.0]

    def test_equality_with_other_types(self):
        d = from_samples([1, 2], B05)
        assert d.__eq__(1) is NotImplemented
        assert (d == 1) is False

    def test_repr(self):
        assert repr(from_samples([1, 2, 2, 4], B05)) == "DiscreteDistribution({1:0.25, 2:0.5, 4:0.25} on [0, 5])"
        assert repr(from_samples(range(1, 8), SupportBounds(0.0, 10.0))) == (
            "DiscreteDistribution({1:0.1429, 2:0.1429, 3:0.1429, 4:0.1429, 5:0.1429, 6:0.1429, ... (7 atoms)} "
            "on [0, 10])"
        )

    def test_immutability(self):
        d = from_samples([1, 2], B05)
        with pytest.raises(AttributeError):
            d.xs = np.array([0.0])
        with pytest.raises(ValueError):
            d.ps[0] = 0.9
        with pytest.raises(ValueError):
            d.cum[0] = 0.9


class TestQueries:
    def test_cdf_values(self):
        d = from_samples([1, 2, 3, 4], B05)
        assert d.cdf(2) == 0.5
        assert d.cdf(1.99) == 0.25
        assert d.cdf(5) == 1.0
        assert d.cdf(-0.1) == 0.0

    def test_quantile_inf_convention(self):
        d = from_samples([1, 2, 3, 4], B05)
        assert d.quantile(0.5) == 2.0
        assert d.quantile(0.51) == 3.0
        assert d.quantile(1.0) == 4.0

    def test_quantile_domain(self):
        d = from_samples([1], B05)
        for y in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                d.quantile(y)

    def test_cdf_monotone_right_continuous(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            d = random_interior_dist(rng, B05)
            grid = np.sort(rng.uniform(-1, 6, 60))
            vals = d.cdf(grid)
            assert np.all(np.diff(vals) >= 0)
            at_atoms = d.cdf(d.xs)
            just_above = d.cdf(d.xs + 1e-12)
            assert np.allclose(at_atoms, just_above)
            assert d.cdf(B05.b) == 1.0

    def test_galois_link(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            d = random_interior_dist(rng, B05)
            for x in d.xs:
                assert d.quantile(d.cdf(x)) <= x
            for y in rng.uniform(1e-9, 1.0, 20):
                assert d.cdf(d.quantile(y)) >= y


class TestDistance:
    def test_dirac_pair(self):
        d0 = DiscreteDistribution.dirac(0.0, B01)
        d1 = DiscreteDistribution.dirac(1.0, B01)
        assert distance(d0, d1, Distance.SUPREMUM) == 1.0
        assert distance(d0, d1, Distance.WASSERSTEIN1) == 1.0

    def test_w1_interleaved(self):
        # each atom transported by 1 with mass 1/2; rectangle-area oracle below
        d1 = from_samples([1, 3], B05)
        d2 = from_samples([2, 4], B05)
        got = distance(d1, d2, Distance.WASSERSTEIN1)
        grid = np.union1d(d1.xs, d2.xs)
        rects = sum(
            abs(d1.cdf(x) - d2.cdf(x)) * (grid[i + 1] - grid[i])
            for i, x in enumerate(grid[:-1])
        )
        assert got == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(rects, abs=1e-15)

    def test_bounds_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            distance(from_samples([1], B05), from_samples([1], B01), Distance.SUPREMUM)

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        for kind in Distance:
            for _ in range(20):
                d1, d2, d3 = (random_interior_dist(rng, B05) for _ in range(3))
                assert distance(d1, d1, kind) == 0.0
                d12 = distance(d1, d2, kind)
                assert d12 == pytest.approx(distance(d2, d1, kind), abs=1e-15)
                assert d12 <= distance(d1, d3, kind) + distance(d3, d2, kind) + 1e-12

    def test_w1_equals_sorted_coupling(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            x = np.sort(rng.uniform(0, 5, n))
            y = np.sort(rng.uniform(0, 5, n))
            if np.unique(x).size < n or np.unique(y).size < n:
                continue
            got = distance(from_samples(x, B05), from_samples(y, B05), Distance.WASSERSTEIN1)
            assert got == pytest.approx(np.abs(x - y).mean(), abs=1e-12)


class TestDominates:
    def test_reflexive(self):
        d = from_samples([1, 2], B05)
        assert dominates(d, d)

    def test_shifted_mass(self):
        assert dominates(from_samples([1, 2], B05), from_samples([3, 4], B05))
        assert not dominates(from_samples([3, 4], B05), from_samples([1, 2], B05))

    def test_crossing_cdfs(self):
        assert not dominates(from_samples([1, 4], B05), from_samples([2, 3], B05))
        assert not dominates(from_samples([2, 3], B05), from_samples([1, 4], B05))

    def test_mutual_dominance_is_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d1 = random_interior_dist(rng, B05)
            d2 = random_interior_dist(rng, B05)
            if dominates(d1, d2) and dominates(d2, d1):
                assert allclose(d1, d2)
        d = random_interior_dist(rng, B05)
        copy = DiscreteDistribution(d.xs, d.ps, d.bounds)
        assert dominates(d, copy) and dominates(copy, d) and d == copy


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=1, max_size=30)
)
def test_edf_mass_and_cdf_props(samples):
    d = from_samples(samples, B05)
    assert abs(d.ps.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(d.xs) > 0)
    assert d.cdf(B05.b) == 1.0
    assert d.quantile(1.0) == max(samples)


# Samples on a coarse grid (ties, atoms on a and b) mixed with free floats.
_SAMPLES = st.lists(
    st.sampled_from([0.0, 0.5, 1.25, 2.5, 5.0]) | st.floats(min_value=0.0, max_value=5.0),
    min_size=1,
    max_size=30,
)


class TestTrustedBuilds:
    """The trusted constructor against the public, validating one."""

    @settings(max_examples=80, deadline=None)
    @given(_SAMPLES)
    def test_from_samples_matches_public_constructor(self, samples):
        # The constructor's CDF is a running sum of the masses, so it may
        # differ from the EDF's exact k/n in the last bits.
        d = from_samples(samples, B05)
        assert_invariants(d)
        xs, counts = np.unique(np.asarray(samples, dtype=np.float64), return_counts=True)
        public = DiscreteDistribution(xs, counts / len(samples), B05)
        assert d.xs.tobytes() == public.xs.tobytes()
        assert np.all(np.abs(d.ps - public.ps) <= 1e-15)
        with validated_builds():
            assert_bitwise_equal(d, from_samples(samples, B05))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0.0, 5.0, 2.5]) | st.floats(min_value=0.0, max_value=5.0))
    def test_dirac_matches_public_constructor(self, x):
        d = DiscreteDistribution.dirac(x, B05)
        assert_invariants(d)
        assert_bitwise_equal(d, DiscreteDistribution([x], [1.0], B05))

    def test_single_sample(self):
        assert_bitwise_equal(from_samples([5.0], B05), DiscreteDistribution.dirac(5.0, B05))

    @settings(max_examples=150, deadline=None)
    @given(_SAMPLES, st.sampled_from(["as drawn", "sorted", "distinct sorted"]))
    def test_from_samples_matches_unique_reference(self, samples, order):
        # Strictly increasing input skips np.unique; sorted input with ties,
        # unsorted input and one sample must give the same bytes either way.
        arr = np.asarray(samples, dtype=np.float64)
        if order == "sorted":
            arr = np.sort(arr)
        elif order == "distinct sorted":
            arr = np.unique(arr)
        d = from_samples(arr, B05)
        assert_invariants(d)
        assert_bitwise_equal(d, unique_edf(arr, B05))
        assert not np.shares_memory(d.xs, arr)  # the caller's array stays writable
        assert arr.flags.writeable

    def test_from_samples_shares_only_a_frozen_input(self):
        # A read-only, strictly increasing float64 array that views only
        # read-only arrays becomes the atoms; the EDF is the copying one.
        values = np.array([0.5, 1.0, 2.5, 4.0])
        want = from_samples(values, B05)
        frozen = values.copy()
        frozen.setflags(write=False)
        d = from_samples(frozen, B05)
        assert d.xs is frozen
        assert_bitwise_equal(d, want)
        assert np.shares_memory(from_samples(frozen[1:], B05).xs, frozen)
        # Anything that can still be written is copied: writing to it
        # afterwards leaves the EDF as built.
        writable = values.copy()
        base = values.copy()
        view = base[:]
        view.setflags(write=False)
        raw = bytearray(values.tobytes())
        over_bytes = np.frombuffer(raw, dtype=np.float64)
        over_bytes.setflags(write=False)
        bufs, fill = [np.concatenate((values, np.empty(4)))], 4
        for arr, write in [
            (writable, lambda: writable.fill(3.0)),
            (view, lambda: base.fill(3.0)),
            (over_bytes, lambda: raw.__setitem__(slice(None), bytes(len(raw)))),
            (bufs[0][:fill], lambda: bufs[0].fill(3.0)),
        ]:
            d = from_samples(arr, B05)
            assert not np.shares_memory(d.xs, arr)
            write()
            assert_bitwise_equal(d, want)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -0.5, 5.5, np.float32(6.0), "7"])
    def test_dirac_rejections_unchanged(self, x):
        with pytest.raises(ValueError):
            DiscreteDistribution.dirac(x, B05)

    def test_dirac_integer_and_numpy_scalars(self):
        ref = DiscreteDistribution([2.0], [1.0], B05)
        for x in (2, np.float64(2.0), np.int64(2), np.float32(2.0), True + 1):
            assert_bitwise_equal(DiscreteDistribution.dirac(x, B05), ref)


def _line_loop_reader(path, header=False):
    """The per-line loop that ``read_samples_csv`` falls back to, run over the
    whole file: the reference for its values and its messages."""
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


def _read_outcome(read, path, header):
    try:
        return read(path, header)
    except (OSError, ValueError) as exc:
        return exc


_SIGN = st.sampled_from(["", "+", "-"])
_PAD = st.text(alphabet=" \t", max_size=2)
_VALUE = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.builds("{}{}e{}{}".format, st.integers(0, 999), st.sampled_from(["", ".", ".5"]), _SIGN, st.integers(0, 400)),
    st.sampled_from(["inf", "Infinity", "nan", "NaN", ".5", "5."]),
)
_CLEAN_LINE = st.builds("{}{}{}{}".format, _PAD, _SIGN, _VALUE, _PAD)
_MESSY_LINE = st.one_of(
    st.builds("{}{}".format, _CLEAN_LINE, st.text(alphabet=",", min_size=1, max_size=2)),
    st.builds(
        "{}{}{}".format,
        _PAD, st.sampled_from(["1_0", "\uff11", "#", "#1", "1 2", "1\t2", "1,2", "1e", "x", ""]), _PAD,
    ),
    _CLEAN_LINE,
)


@st.composite
def _sample_files(draw):
    """Bytes of a sample file. Clean files hold numbers in the syntaxes
    ``float()`` reads, with padding and mixed line ends; messy ones add
    blank lines, trailing commas, ``1_0`` and a full-width digit, tokens
    ``float()`` rejects, and sometimes a byte that is not UTF-8."""
    messy = draw(st.booleans())
    lines = draw(st.lists(_MESSY_LINE if messy else _CLEAN_LINE, max_size=6))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    body = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        body = body[: -len(ends[-1])]  # no line end after the last line
    data = body.encode("utf-8")
    if messy and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


class TestSerialization:
    def test_csv_reader(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("value\n1.5\n2.5\n\n3.5\n")
        with pytest.raises(ValueError):
            read_samples_csv(str(path))
        vals = read_samples_csv(str(path), header=True)
        assert list(vals) == [1.5, 2.5, 3.5]

    def test_csv_reader_missing(self, tmp_path):
        # A compressed sibling must not stand in for the missing file.
        with gzip.open(tmp_path / "nope.csv.gz", "wt") as fh:
            fh.write("1.5\n2.5\n")
        with pytest.raises(FileNotFoundError, match=r"\[Errno 2\] No such file or directory"):
            read_samples_csv(str(tmp_path / "nope.csv"))

    def test_csv_reader_does_not_decompress(self, tmp_path):
        # A .gz file is read as the bytes it holds: its 0x8b magic byte is
        # not UTF-8.
        path = tmp_path / "x.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("1.5\n2.5\n")
        with pytest.raises(UnicodeDecodeError, match="0x8b in position 1"):
            read_samples_csv(str(path))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize(
        "body",
        [b"1.5\n2.5\n", b"0.45\n67,\n1_0\n", b"1.5\n2.5\nx\n", b"value\n", b""],
        ids=["clean", "lenient", "bad-line", "one-line", "empty"],
    )
    def test_csv_reader_pipe(self, body, header):
        # A pipe cannot be rewound, so the reader must parse the stream in
        # its one pass, whichever lines float() rejects.
        outcomes = []
        for read in (read_samples_csv, _line_loop_reader):
            r, w = os.pipe()
            try:
                os.write(w, body)
                os.close(w)
                path = f"/dev/fd/{r}"
                got = _read_outcome(read, path, header)
            finally:
                os.close(r)
            outcomes.append(got if isinstance(got, np.ndarray) else (type(got), str(got).replace(path, "<pipe>")))
        got, want = outcomes
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
        else:
            assert got == want

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    @pytest.mark.parametrize("bad_line", [False, True])
    def test_csv_reader_decode_error_after_lines(self, tmp_path, block, bad_line):
        # The undecodable byte lies past the first 8 KiB that are decoded at
        # once, so the lines before it are read first; a bad one among them
        # is reported instead, as the line loop does.
        lines = ["0.125"] * 2000
        if bad_line:
            lines[1] = "x"
        path = tmp_path / "late.csv"
        path.write_bytes("\n".join(lines).encode() + b"\n\xff\n")
        with mock.patch.object(distributions, "_BLOCK_LINES", block):
            got = _read_outcome(read_samples_csv, str(path), False)
        want = _read_outcome(_line_loop_reader, str(path), False)
        assert isinstance(want, ValueError if bad_line else UnicodeDecodeError)
        assert (type(got), str(got)) == (type(want), str(want))

    @settings(max_examples=300, deadline=None)
    @given(body=_sample_files(), header=st.booleans(), block=st.sampled_from([1, 2, 3, 1 << 16]))
    @example(body=b"1 2\n3 4\n", header=False, block=1 << 16)
    @example(body=b"value\n", header=True, block=1 << 16)
    @example(body=b"1.5,\n2.5\n", header=False, block=1 << 16)
    @example(body="1_0\n\uff11\n".encode(), header=False, block=1 << 16)
    @example(body=b"value\n1.5\n,\n2.5\n", header=True, block=1)
    def test_csv_reader_matches_line_loop(self, tmp_path_factory, body, header, block):
        # Blocks of a few lines put block edges between the drawn lines.
        path = str(tmp_path_factory.mktemp("reader") / "samples.csv")
        with open(path, "wb") as fh:
            fh.write(body)
        with mock.patch.object(distributions, "_BLOCK_LINES", block):
            got = _read_outcome(read_samples_csv, path, header)
        want = _read_outcome(_line_loop_reader, path, header)
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _midpoint_strings(rng, count):
    """Strings of 19 significant digits next to float64 midpoints: for each
    of ``count`` random doubles in [0.1, 1e17), the decimal truncation M of
    the midpoint above it and M - 1, M + 1, M + 2 in the last digit."""
    out = []
    for y in (10.0 ** rng.uniform(-1.0, 17.0, count)).tolist():
        mid = (Fraction(y) + Fraction(np.nextafter(y, np.inf))) / 2
        k = 19 - len(str(int(mid))) if mid >= 1 else 19
        m = mid.numerator * 10**k // mid.denominator
        for digits in (str(m + dm).rjust(k + 1, "0") for dm in (-1, 0, 1, 2)):
            out.append(f"{digits[:-k]}.{digits[-k:]}")
    return out


# Lines of the decimal kernel's form: runs of 0-30 digits with leading
# zeros around the dot, some past 19 digits or 27 after the dot. Blocks are
# either such lines alone, where the rule alone decides, or mixed with
# these lines with one more character after them, a lone dot, and lines
# drawn from the characters that sit next to them in sample files.
_DIGIT_RUN = st.builds("{}{}".format, st.text("0", max_size=12), st.text("0123456789", max_size=18))
_PLAIN_LINE = st.builds("{}.{}".format, _DIGIT_RUN, _DIGIT_RUN)
_KERNEL_BLOCK = st.one_of(
    st.lists(_PLAIN_LINE, min_size=1, max_size=6),
    st.lists(st.one_of(
        _PLAIN_LINE,
        st.builds("{}{}".format, _PLAIN_LINE, st.sampled_from(["e", "e5", " ", ",", "-", "\u00e9"])),
        st.just("."),
        st.text(alphabet="0123456789.\n ,-e\u00e9", max_size=8),
    ), min_size=1, max_size=6),
)


class TestDecimalKernel:
    """``_decimal_block``, the first tier of the CSV reader, against ``float()``."""

    @staticmethod
    def _assert_float_bits(strings):
        got = distributions._decimal_block("".join(s + "\n" for s in strings))
        assert got is not None
        want = np.array([float(s) for s in strings])
        assert got.dtype == np.float64 and got.shape == want.shape
        wrong = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert not wrong.size, [strings[i] for i in wrong[:5]]

    @pytest.mark.skipif(not distributions._EXACT_LONG_DOUBLE, reason="needs x87 80-bit long double")
    def test_bitwise_float(self):
        rng = np.random.default_rng(20)
        strings = [repr(x) for x in (10.0 ** rng.uniform(-4.0, 16.0, 40_000)).tolist()]
        assert not any("e" in s for s in strings)
        for _ in range(40_000):  # 2-19 digits, leading zeros on both sides
            d = int(rng.integers(1, 19))
            digits = "".join(rng.choice(list("0000123456789"), size=int(rng.integers(d + 1, 20))))
            strings.append(f"{digits[:d]}.{digits[d:]}")
        strings += ["0.0", "00.000", "0.5", "1.0", "9007199254740993.0", "9007199254740995.0",
                    "0.00041063966039474797", "0.0021881529262867327", "0." + "0" * 8 + "9" * 19]
        for d in range(1, 19):  # 18 and 19 digits, up to M = 10^19 - 1
            for digits in ("9" * 18, "9" * 19, "1" + "0" * 18, "1" * 19, "0" + "9" * 18):
                if d < len(digits):
                    strings.append(f"{digits[:d]}.{digits[d:]}")
        for zeros in range(9):  # "0." and up to 27 digits, 19 after the zeros
            strings += [f"0.{'0' * zeros}{'9' * 19}", f"0.{'0' * zeros}1{'0' * 18}"]
        # No digit on one side of the dot, or leading zeros on the left.
        strings += [".5", "5.", "0.", ".0", "00." + "1" * 18, "007.50", "." + "9" * 19, "9" * 19 + ".",
                    "." + "0" * 8 + "9" * 19, "000." + "0" * 27]
        self._assert_float_bits(strings)

    @pytest.mark.parametrize(
        "line",
        ["1" + "0" * 18 + ".0", "9" * 10 + "." + "9" * 10, "1." + "0" * 19, "0." + "1" * 20,
         "0.0" + "1" * 20, "0." + "0" * 9 + "1" * 19, "18446744073709551615.0", "1" * 25 + "."],
    )
    def test_declines_past_19_digits(self, line):
        # M >= 10^19 (past 2^64 too), or 10^k past 10^27: the float() tier
        # takes the block.
        assert distributions._decimal_block(f"0.25\n{line}\n") is None

    @pytest.mark.skipif(not distributions._EXACT_LONG_DOUBLE, reason="needs x87 80-bit long double")
    def test_midpoints_take_float(self):
        # Strings within one unit in the 19th digit of a float64 midpoint:
        # some round to the midpoint in long double, and those must take
        # float() (the module's float, counted here) to come out right.
        strings = _midpoint_strings(np.random.default_rng(21), 5_000)
        calls = []

        def counting_float(x):
            calls.append(x)
            return float(x)

        with mock.patch.object(distributions, "float", counting_float, create=True):
            self._assert_float_bits(strings)
        assert len(calls) > 50

    @settings(max_examples=400, deadline=None)
    @given(lines=_KERNEL_BLOCK, end=st.booleans())
    @example(lines=["0." + "0" * 8 + "1" * 19, "12.5"], end=True)
    @example(lines=["0." + "0" * 10 + "1" * 18], end=True)
    @example(lines=["9" * 19 + ".", "1" + "0" * 19 + "."], end=True)
    @example(lines=["1.5", "2.25"], end=False)
    @example(lines=["1.5", "2.25."], end=True)
    @example(lines=["1.5", "2.5e1"], end=True)
    @example(lines=["."], end=False)
    @example(lines=["0.25", ".", "1.5"], end=True)
    def test_matches_exact_rule(self, lines, end):
        # The kernel takes exactly the blocks of the rule that its
        # docstring states, checked here in Python ints, with the bits of
        # float().
        text = "\n".join(lines) + ("\n" if end else "")
        got, want = distributions._decimal_block(text), exact_decimal_block(text)
        if want is None or not distributions._EXACT_LONG_DOUBLE:
            assert got is None
        else:
            assert got is not None and got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", [".", ".\n"])
    def test_declines_a_one_line_dot(self, text):
        # numpy's parse reads a block of blank lines as [0], and skips the
        # empty line a lone dot leaves in a longer block (".\n" in
        # test_declines_other_lines): the kernel checks for one first.
        assert distributions._decimal_block(text) is None

    def test_lone_dot_file_names_the_line(self, tmp_path):
        path = tmp_path / "dot.csv"
        path.write_text(".\n")
        with pytest.raises(ValueError) as info:
            read_samples_csv(str(path))
        assert str(info.value) == f"{path}:1: not a number: '.'"

    @pytest.mark.skipif(not distributions._EXACT_LONG_DOUBLE, reason="needs x87 80-bit long double")
    def test_midpoint_on_the_first_line_takes_float(self):
        # 2^53 + 1 is a float64 midpoint, and exact in long double: the
        # first line of the block takes float(), from the block's start.
        calls = []

        def counting_float(x):
            calls.append(x)
            return float(x)

        with mock.patch.object(distributions, "float", counting_float, create=True):
            got = distributions._decimal_block("9007199254740993.0\n0.5\n")
        assert calls == [b"9007199254740993.0"]
        assert got.tolist() == [float("9007199254740993.0"), 0.5] == [2.0**53, 0.5]

    @pytest.mark.skipif(distributions._EXACT_LONG_DOUBLE, reason="long double is x87 80-bit here")
    def test_declines_without_extended_long_double(self):
        assert distributions._decimal_block("1.5\n2.25\n") is None

    @pytest.mark.parametrize(
        "text",
        ["\n", "1.5\n\n2.5\n", "-1.5\n", "+1.5\n", "1e5\n", "1.5e0\n", " 1.5\n", "1.5 \n",
         "1.5,\n", "5\n", ".\n", ".\n1.5\n", "1.2.3\n", "1.5\t\n", "1_0.5\n", "\uff11.5\n", "1.5\x0b\n",
         "inf\n", "nan\n"],
    )
    def test_declines_other_lines(self, text):
        assert distributions._decimal_block("0.25\n" + text) is None

    def test_last_line_without_line_end(self):
        got = distributions._decimal_block("0.25\n1.5")
        if distributions._EXACT_LONG_DOUBLE:
            assert got.tolist() == [0.25, 1.5]
        else:
            assert got is None

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\xa0"])
    @pytest.mark.parametrize("block", [1, 3, 1 << 14])
    def test_reader_cuts_lines_at_line_feeds_only(self, tmp_path, sep, block):
        # File iteration splits only at "\n" (after "\r" and "\r\n" become
        # "\n"), so these characters stay inside a line: stripped at its
        # ends, a bad number in its middle, with the same line numbers.
        for body in (f"0.5\n{sep}1.5{sep}\n2.5\n", f"0.5\r\n1.5\r2.5{sep}3.5\n4.5\n"):
            path = tmp_path / "sep.csv"
            path.write_bytes(body.encode("utf-8"))
            with mock.patch.object(distributions, "_BLOCK_LINES", block):
                got = _read_outcome(read_samples_csv, str(path), False)
            want = _read_outcome(_line_loop_reader, str(path), False)
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want))
            else:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad_line", [False, True])
    @pytest.mark.parametrize("block", [1, 1 << 14])
    def test_multibyte_decode_error_after_lines(self, tmp_path, bad_line, block):
        # Multibyte padding makes chunks of 8192 bytes hold fewer
        # characters; the undecodable byte past them is reported with the
        # same position, after any bad line before it.
        lines = ["\u20030.125\u3000"] * 2500 + ["\uff11.5"] * 500
        if bad_line:
            lines[1900] = "x\u00e9"
        path = tmp_path / "multibyte.csv"
        path.write_bytes("\n".join(lines).encode("utf-8") + b"\n\xff\n")
        assert len("\n".join(lines).encode("utf-8")) > 3 * 8192
        with mock.patch.object(distributions, "_BLOCK_LINES", block):
            got = _read_outcome(read_samples_csv, str(path), False)
        want = _read_outcome(_line_loop_reader, str(path), False)
        assert isinstance(want, ValueError if bad_line else UnicodeDecodeError)
        assert (type(got), str(got)) == (type(want), str(want))

    @pytest.mark.skipif(not distributions._EXACT_LONG_DOUBLE, reason="needs x87 80-bit long double")
    def test_repr_file_takes_the_kernel(self, tmp_path):
        # With the float() tier out of reach, a repr-written file still reads
        # bitwise: every block took the kernel rather than declining.
        x = 10.0 ** np.random.default_rng(22).uniform(-4.0, 6.0, 10_000)
        path = tmp_path / "repr.csv"
        path.write_text("value\n" + "\n".join(map(repr, x.tolist())) + "\n")
        with mock.patch.object(np, "fromiter", side_effect=AssertionError("float() tier used")), \
                mock.patch.object(distributions, "_BLOCK_LINES", 4096):
            got = read_samples_csv(str(path), header=True)
        assert got.tobytes() == x.tobytes()
        with mock.patch.object(distributions, "_EXACT_LONG_DOUBLE", False):
            assert read_samples_csv(str(path), header=True).tobytes() == x.tobytes()


_FLOAT_TIER_LINES = {
    "e18": lambda i, x: f"{x:.18e}",
    "signed": lambda i, x: f"{x:+}",
    "padded": lambda i, x: f" \t{x!r}  ",
    "underscore": lambda i, x: f"{i}_{i % 7}.5",
    "bad-last": lambda i, x: f"{x:.18e}" if i < 2999 else "0.5x",
}


class TestFloatTier:
    """Blocks the decimal kernel declines: one ``float()`` per line, and the
    per-line loop only for a block where that fails."""

    @pytest.mark.parametrize("block", [1, 3, distributions._BLOCK_LINES])
    @pytest.mark.parametrize("kind", list(_FLOAT_TIER_LINES))
    def test_matches_line_loop(self, tmp_path, kind, block):
        # 3000 lines span several 8 KiB chunks, so small block sizes cut
        # the file into many blocks.
        x = np.random.default_rng(23).uniform(-1.0, 1.0, 3000)
        path = tmp_path / f"{kind}.csv"
        path.write_text("".join(_FLOAT_TIER_LINES[kind](i, v) + "\n" for i, v in enumerate(x.tolist())))
        with mock.patch.object(distributions, "_BLOCK_LINES", block):
            got = _read_outcome(read_samples_csv, str(path), False)
        want = _read_outcome(_line_loop_reader, str(path), False)
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_line_numbers_past_the_first_block(self, tmp_path, offset):
        # A block runs to the last line end of the chunk that brings it to
        # _BLOCK_LINES line ends, so it is longer than that count; a bad
        # line on either side of its end is named as the line loop names it.
        x = np.random.default_rng(24).uniform(0.0, 1.0, 2 * distributions._BLOCK_LINES + 1000)
        lines = [repr(v) for v in x.tolist()]
        data = "".join(line + "\n" for line in lines).encode()
        _, ends = next(distributions._text_blocks(io.BytesIO(data), distributions._BLOCK_LINES))
        assert ends > distributions._BLOCK_LINES
        lines[ends + offset] = "x" * len(lines[ends + offset])
        path = tmp_path / "late-bad.csv"
        path.write_text("".join(line + "\n" for line in lines))
        got = _read_outcome(read_samples_csv, str(path), False)
        want = _read_outcome(_line_loop_reader, str(path), False)
        assert isinstance(want, ValueError) and f":{ends + offset + 1}:" in str(want)
        assert (type(got), str(got)) == (type(want), str(want))


def _block_firsts(data: bytes) -> list[int]:
    """The first line number of each block ``read_samples_csv`` parses from
    ``data`` at ``_BLOCK_LINES = 1``."""
    firsts, first = [], 1
    for _, ends in distributions._text_blocks(io.BytesIO(data), 1):
        firsts.append(first)
        first += ends
    return firsts


class TestReaderThreads:
    """Blocks are parsed on worker threads and taken back in file order:
    the first fault in the file is raised, and no worker outlives a read.
    At ``_BLOCK_LINES = 1`` each 8 KiB chunk ends a block."""

    @staticmethod
    def _slowed(first_lines, seconds=0.2):
        """``_parse_lines``, sleeping first on the blocks that start at
        ``first_lines``, so that blocks after them finish before them."""
        parse = distributions._parse_lines

        def slowed(path, text, first, header):
            if first in first_lines:
                time.sleep(seconds)
            return parse(path, text, first, header)

        return mock.patch.object(distributions, "_parse_lines", slowed)

    def test_bad_line_before_a_decode_error_in_the_next_block(self, tmp_path):
        lines = ["0.125"] * 6000
        firsts = _block_firsts("".join(line + "\n" for line in lines).encode())
        bad = firsts[2] + 5  # 1-based: a line of block 2
        lines[bad - 1] = "xxxxx"
        data = "".join(line + "\n" for line in lines).encode()
        cut = 3 * 8192 + 100  # inside the chunk that would end block 3
        data = data[:cut] + b"\xff" + data[cut:]
        path = tmp_path / "late.csv"
        path.write_bytes(data)
        before = threading.active_count()
        with mock.patch.object(distributions, "_BLOCK_LINES", 1), self._slowed({firsts[2]}):
            got = _read_outcome(read_samples_csv, str(path), False)
        want = _read_outcome(_line_loop_reader, str(path), False)
        assert isinstance(want, ValueError) and f":{bad}:" in str(want)
        assert (type(got), str(got)) == (type(want), str(want))
        assert threading.active_count() == before

    def test_earlier_of_two_bad_blocks_in_flight(self, tmp_path):
        lines = ["0.125"] * 6000
        firsts = _block_firsts("".join(line + "\n" for line in lines).encode())
        lines[firsts[1] + 2] = "xxxxx"  # as long as the lines they replace,
        lines[firsts[2] + 2] = "yyyyy"  # so that the blocks stay as found
        path = tmp_path / "two-bad.csv"
        path.write_text("".join(line + "\n" for line in lines))
        # Blocks 0 and 1 end only after block 2 has failed, on three
        # workers, so block 2's error is there to take first.
        parse, failed = distributions._parse_lines, threading.Event()

        def ordered(path, text, first, header):
            if first == firsts[2]:
                try:
                    return parse(path, text, first, header)
                finally:
                    failed.set()
            if first in firsts[:2]:
                assert failed.wait(10)
            return parse(path, text, first, header)

        before = threading.active_count()
        with mock.patch.object(distributions, "_BLOCK_LINES", 1), \
                mock.patch.object(distributions, "_workers", lambda: 3), \
                mock.patch.object(distributions, "_parse_lines", ordered):
            got = _read_outcome(read_samples_csv, str(path), False)
        assert failed.is_set()
        assert isinstance(got, ValueError)
        assert str(got) == f"{path}:{firsts[1] + 3}: not a number: 'xxxxx'"
        assert threading.active_count() == before

    def test_workers_joined_after_every_outcome(self, tmp_path):
        x = np.random.default_rng(25).uniform(0.0, 1.0, 5000)
        good = "".join(f"{v!r}\n" for v in x.tolist()).encode()
        files = {
            "good": good,
            "bad-line": good[:20000] + b"oops\n" + good[20000:],
            "undecodable": good[:30000] + b"\xff" + good[30000:],
            "empty": b"\n\n",
        }
        for name, data in files.items():
            (tmp_path / f"{name}.csv").write_bytes(data)
        expected = {"good": np.ndarray, "bad-line": ValueError, "undecodable": UnicodeDecodeError,
                    "empty": ValueError, "missing": FileNotFoundError}
        before = threading.active_count()
        with mock.patch.object(distributions, "_BLOCK_LINES", 1):
            for name, kind in expected.items():
                got = _read_outcome(read_samples_csv, str(tmp_path / f"{name}.csv"), False)
                assert isinstance(got, kind), name
                assert threading.active_count() == before, name
        assert read_samples_csv(str(tmp_path / "good.csv")).tobytes() == x.tobytes()
        assert threading.active_count() == before

    def test_buffer_grows_past_its_reservation(self, tmp_path):
        # A pipe reports size 0, and a file can grow while it is read: the
        # buffer then grows as the values come.
        x = np.random.default_rng(27).uniform(0.0, 1.0, 3000)
        path = tmp_path / "grow.csv"
        path.write_text("".join(f"{v!r}\n" for v in x.tolist()))
        with mock.patch.object(distributions, "_BLOCK_LINES", 1), \
                mock.patch.object(distributions, "_RESERVE_VALUES", 1):
            assert read_samples_csv(str(path)).tobytes() == x.tobytes()

    def test_workers_without_an_affinity_call(self, monkeypatch):
        # Where os.sched_getaffinity is missing, the CPU count stands in.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert distributions._workers() == min(os.cpu_count() or 1, distributions._MAX_WORKERS)
