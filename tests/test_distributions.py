import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds import (
    DiscreteDistribution,
    Distance,
    SupportBounds,
    distance,
    dominates,
    from_samples,
    read_samples_csv,
)
from riskbounds.bandit import _edf_sorted
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

    def test_bounds_need_a_lt_b(self):
        with pytest.raises(ValueError):
            SupportBounds(1.0, 1.0)
        with pytest.raises(ValueError):
            SupportBounds(np.inf, 2.0)

    def test_mass_renormalization_window(self):
        d = DiscreteDistribution([1, 2], [0.5 + 4e-10, 0.5], B05)
        assert abs(d.ps.sum() - 1.0) <= 1e-12
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution([1, 2], [0.6, 0.5], B05)

    def test_unsorted_input_atoms_sorted(self):
        d = DiscreteDistribution([3, 1], [0.5, 0.5], B05)
        assert list(d.xs) == [1.0, 3.0]

    def test_immutability(self):
        d = from_samples([1, 2], B05)
        with pytest.raises(AttributeError):
            d.xs = np.array([0.0])
        with pytest.raises(ValueError):
            d.ps[0] = 0.9


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
                assert d1.allclose(d2)
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
        d = from_samples(samples, B05)
        assert_invariants(d)
        xs, counts = np.unique(np.asarray(samples, dtype=np.float64), return_counts=True)
        assert_bitwise_equal(d, DiscreteDistribution(xs, counts / len(samples), B05))
        with validated_builds():
            assert_bitwise_equal(d, from_samples(samples, B05))
        assert_bitwise_equal(d, _edf_sorted(np.sort(np.asarray(samples, dtype=np.float64)), B05))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0.0, 5.0, 2.5]) | st.floats(min_value=0.0, max_value=5.0))
    def test_dirac_matches_public_constructor(self, x):
        d = DiscreteDistribution.dirac(x, B05)
        assert_invariants(d)
        assert_bitwise_equal(d, DiscreteDistribution([x], [1.0], B05))

    def test_single_sample(self):
        assert_bitwise_equal(from_samples([5.0], B05), DiscreteDistribution.dirac(5.0, B05))

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -0.5, 5.5, np.float32(6.0), "7"])
    def test_dirac_rejections_unchanged(self, x):
        with pytest.raises(ValueError):
            DiscreteDistribution.dirac(x, B05)

    def test_dirac_integer_and_numpy_scalars(self):
        ref = DiscreteDistribution([2.0], [1.0], B05)
        for x in (2, np.float64(2.0), np.int64(2), np.float32(2.0), True + 1):
            assert_bitwise_equal(DiscreteDistribution.dirac(x, B05), ref)


class TestSerialization:
    def test_json_round_trip(self):
        d = from_samples([1, 2, 2, 4], B05)
        blob = json.dumps(d.to_json())
        back = DiscreteDistribution.from_json(blob)
        assert back == d

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("value\n1.5\n2.5\n\n3.5\n")
        with pytest.raises(ValueError):
            read_samples_csv(str(path))
        vals = read_samples_csv(str(path), header=True)
        assert list(vals) == [1.5, 2.5, 3.5]

    def test_csv_reader_missing(self, tmp_path):
        with pytest.raises(OSError):
            read_samples_csv(str(tmp_path / "nope.csv"))
