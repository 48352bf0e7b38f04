import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds import (
    BallSpec,
    DiscreteDistribution,
    Distance,
    SupportBounds,
    distance,
    dominates,
    evaluate,
    from_samples,
    neg_sup,
    neg_w1,
    pos_sup,
    pos_w1,
)
from conftest import (
    assert_bitwise_equal,
    assert_invariants,
    catalog_specs,
    random_interior_dist,
    validated_builds,
)

B05 = SupportBounds(0.0, 5.0)
B01 = SupportBounds(0.0, 1.0)
EDF = from_samples([1, 2, 3, 4], B05)


def clip_cdf_upper(d, c, x):
    return np.where(np.asarray(x) < d.bounds.b, np.maximum(d.cdf(x) - c, 0.0), 1.0)


def clip_cdf_lower(d, c, x):
    return np.where(np.asarray(x) >= d.bounds.a, np.minimum(d.cdf(x) + c, 1.0), 0.0)


class TestHandTraces:
    def test_pos_sup_quarter(self):
        out = pos_sup(EDF, 0.25)
        assert np.allclose(out.xs, [2, 3, 4, 5], atol=1e-12)
        assert np.allclose(out.ps, [0.25] * 4, atol=1e-12)

    def test_neg_sup_quarter(self):
        out = neg_sup(EDF, 0.25)
        assert np.allclose(out.xs, [0, 1, 2, 3], atol=1e-12)
        assert np.allclose(out.ps, [0.25] * 4, atol=1e-12)

    def test_pos_w1_point_three(self):
        out = pos_w1(EDF, 0.3)
        assert np.allclose(out.xs, [1, 2, 3, 5], atol=1e-12)
        assert np.allclose(out.ps, [0.25, 0.25, 0.225, 0.275], atol=1e-12)
        assert distance(EDF, out, Distance.WASSERSTEIN1) == pytest.approx(0.3, abs=1e-12)

    def test_neg_w1_point_three(self):
        out = neg_w1(EDF, 0.3)
        assert np.allclose(out.xs, [1, 2, 2.9], atol=1e-12)
        assert np.allclose(out.ps, [0.25, 0.25, 0.5], atol=1e-12)
        assert distance(EDF, out, Distance.WASSERSTEIN1) == pytest.approx(0.3, abs=1e-12)


class TestEdgeCases:
    @pytest.mark.parametrize("op", [pos_sup, neg_sup, pos_w1, neg_w1])
    def test_zero_radius_identity(self, op):
        out = op(EDF, 0.0)
        assert out == EDF

    def test_sup_saturation(self):
        assert pos_sup(EDF, 1.0).allclose(DiscreteDistribution.dirac(5.0, B05))
        assert pos_sup(EDF, 7.3).allclose(DiscreteDistribution.dirac(5.0, B05))
        assert neg_sup(EDF, 1.0).allclose(DiscreteDistribution.dirac(0.0, B05))

    def test_w1_saturation(self):
        # total transportable area up to b: sum p_i (b - x_i) = 2.5
        assert pos_w1(EDF, 2.5).allclose(DiscreteDistribution.dirac(5.0, B05))
        assert pos_w1(EDF, 3.0).allclose(DiscreteDistribution.dirac(5.0, B05))
        # mean - a = 2.5
        assert neg_w1(EDF, 2.5).allclose(DiscreteDistribution.dirac(0.0, B05))

    def test_negative_radius_rejected(self):
        for op in (pos_sup, neg_sup, pos_w1, neg_w1):
            with pytest.raises(ValueError):
                op(EDF, -0.1)

    def test_dirac_inputs(self):
        d = DiscreteDistribution.dirac(2.0, B05)
        assert pos_w1(d, 0.5).allclose(DiscreteDistribution([2, 5], [5 / 6, 1 / 6], B05))
        assert neg_w1(d, 0.5).allclose(DiscreteDistribution.dirac(1.5, B05))
        out = pos_sup(d, 0.3)
        assert out.allclose(DiscreteDistribution([2, 5], [0.7, 0.3], B05))

    def test_atom_at_bound(self):
        d = DiscreteDistribution([4.0, 5.0], [0.5, 0.5], B05)
        out = pos_w1(d, 0.2)
        assert out.allclose(DiscreteDistribution([4, 5], [0.3, 0.7], B05))
        assert distance(d, out, Distance.WASSERSTEIN1) == pytest.approx(0.2, abs=1e-13)

    def test_break_exactly_on_radius_drops_zero_atom(self):
        # transporting the whole top atom costs exactly 0.25
        out = pos_w1(EDF, 0.25)
        assert np.allclose(out.xs, [1, 2, 3, 5])
        assert np.allclose(out.ps, [0.25, 0.25, 0.25, 0.25])
        out2 = neg_w1(EDF, 0.25)  # collapse hits atom 3 exactly
        assert np.allclose(out2.xs, [1, 2, 3])
        assert np.allclose(out2.ps, [0.25, 0.25, 0.5])


class TestTraces:
    def test_pos_w1_trace(self):
        out, trace = pos_w1(EDF, 0.3, with_trace=True)
        assert trace.break_index == 2
        assert np.allclose(trace.cumulative_areas, [0.25, 0.75])
        assert trace.residual_mass_or_level == pytest.approx(0.225)
        assert np.all(np.diff(trace.cumulative_areas) > 0)

    def test_neg_w1_trace(self):
        out, trace = neg_w1(EDF, 0.3, with_trace=True)
        assert trace.break_index == 2
        assert np.allclose(trace.cumulative_areas, [0.25, 0.75])
        assert trace.residual_mass_or_level == pytest.approx(2.9)

    def test_saturated_trace(self):
        _, trace = pos_w1(EDF, 99.0, with_trace=True)
        assert trace.break_index == 0 and trace.cumulative_areas.size == 0

    def test_neg_w1_trace_below_lowest_atom(self):
        _, trace = neg_w1(EDF, 2.0, with_trace=True)
        assert trace.break_index == 4
        assert np.allclose(trace.cumulative_areas, [0.25, 0.75, 1.5, 2.5])


class TestBallFeasibility:
    def test_sup_outputs_match_pointwise_clip_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            d = random_interior_dist(rng, B05)
            c = rng.uniform(0.0, 1.2)
            up, lo = pos_sup(d, c), neg_sup(d, c)
            grid = np.union1d(np.union1d(d.xs, up.xs), lo.xs)
            cc = min(c, 1.0)
            assert np.all(up.cdf(grid) == clip_cdf_upper(d, cc, grid))
            assert np.all(lo.cdf(grid) == clip_cdf_lower(d, cc, grid))

    def test_w1_distance_exact_until_saturation(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            d = random_interior_dist(rng, B05)
            c = rng.uniform(0.0, 3.0)
            pos_cap = float(np.sum(d.ps * (B05.b - d.xs)))
            neg_cap = d.mean() - B05.a
            got_pos = distance(d, pos_w1(d, c), Distance.WASSERSTEIN1)
            got_neg = distance(d, neg_w1(d, c), Distance.WASSERSTEIN1)
            assert got_pos == pytest.approx(min(c, pos_cap), abs=1e-10)
            assert got_neg == pytest.approx(min(c, neg_cap), abs=1e-10)


class TestOrderingProperties:
    def test_fosd_sandwich(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            d = random_interior_dist(rng, B05)
            c_sup = rng.uniform(0.0, 1.1)
            c_w1 = rng.uniform(0.0, 2.0)
            for up, lo in (
                (pos_sup(d, c_sup), neg_sup(d, c_sup)),
                (pos_w1(d, c_w1), neg_w1(d, c_w1)),
            ):
                assert dominates(d, up, tol=1e-12)
                assert dominates(lo, d, tol=1e-12)

    def test_risk_sandwich_every_family(self):
        rng = np.random.default_rng(3)
        specs = [spec for _, spec in catalog_specs()]
        for _ in range(15):
            d = random_interior_dist(rng, B01)
            c = rng.uniform(0.01, 0.5)
            for up, lo in ((pos_sup(d, c), neg_sup(d, c)), (pos_w1(d, c), neg_w1(d, c))):
                for spec in specs:
                    mid = evaluate(spec, d)
                    assert evaluate(spec, lo) <= mid + 1e-10
                    assert mid <= evaluate(spec, up) + 1e-10

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = random_interior_dist(rng, B05)
            c1, c2 = np.sort(rng.uniform(0.0, 1.5, 2))
            assert dominates(pos_sup(d, c1), pos_sup(d, c2), tol=1e-12)
            assert dominates(neg_sup(d, c2), neg_sup(d, c1), tol=1e-12)
            assert dominates(pos_w1(d, c1), pos_w1(d, c2), tol=1e-12)
            assert dominates(neg_w1(d, c2), neg_w1(d, c1), tol=1e-12)


class TestDispatch:
    def test_ball_spec_validation(self):
        with pytest.raises(ValueError):
            BallSpec(Distance.SUPREMUM, -0.1)
        with pytest.raises(ValueError):
            BallSpec(Distance.SUPREMUM, float("inf"))


@settings(max_examples=50, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=0.2, max_value=4.8), min_size=1, max_size=6, unique=True),
    c=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(0, 10_000),
)
def test_outputs_are_valid_distributions(xs, c, seed):
    rng = np.random.default_rng(seed)
    ps = rng.random(len(xs)) + 0.1
    d = DiscreteDistribution(xs, ps / ps.sum(), B05)
    for out in (pos_sup(d, c), neg_sup(d, c), pos_w1(d, c), neg_w1(d, c)):
        assert abs(out.ps.sum() - 1.0) <= 1e-9
        assert np.all(out.ps > 0)
        assert np.all(np.diff(out.xs) > 0)
        assert B05.a <= out.xs[0] and out.xs[-1] <= B05.b


OPERATORS = (pos_sup, neg_sup, pos_w1, neg_w1)


def assert_matches_validated(d, c):
    """Each operator's output holds the class invariants and is bitwise the
    output of the same code with every build validated."""
    fast = [op(d, c) for op in OPERATORS]
    with validated_builds():
        slow = [op(d, c) for op in OPERATORS]
    for out, ref in zip(fast, slow):
        assert_invariants(out)
        assert_bitwise_equal(out, ref)


class TestTrustedBuilds:
    @pytest.mark.parametrize(
        "c",
        [
            0.25,  # pos_w1 break exactly on the radius: zero-mass break atom
            0.75,  # neg_w1 level lands on an atom (suffix[j] == c): a tie
            1.5,  # neg_w1 ties the lowest atom; everything above collapses
            2.0,  # neg_w1 collapses below the lowest atom
            2.5,  # both W1 operators saturate exactly
            3.0,  # beyond saturation
        ],
    )
    def test_w1_edges(self, c):
        assert_matches_validated(EDF, c)

    def test_w1_edge_fallbacks_coalesce(self):
        assert list(pos_w1(EDF, 0.25).xs) == [1.0, 2.0, 3.0, 5.0]
        assert list(neg_w1(EDF, 0.75).xs) == [1.0, 2.0]
        assert list(neg_w1(EDF, 1.5).xs) == [1.0]

    def test_atoms_on_both_bounds(self):
        d = from_samples([0.0, 0.0, 2.0, 5.0], B05)
        for c in (0.1, 0.25, 0.5, 1.0, 1.75, 5.0):
            assert_matches_validated(d, c)


@settings(max_examples=80, deadline=None)
@given(
    samples=st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 5.0]) | st.floats(min_value=0.0, max_value=5.0),
        min_size=1,
        max_size=16,
    ),
    c=st.sampled_from([k / 16 for k in range(1, 96)]) | st.floats(min_value=0.0, max_value=6.0),
)
def test_trusted_outputs_match_validated(samples, c):
    assert_matches_validated(from_samples(samples, B05), c)
