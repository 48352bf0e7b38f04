import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds import (
    DiscreteDistribution,
    Distance,
    SupportBounds,
    evaluate,
    from_samples,
    neg_sup,
    neg_w1,
    pos_sup,
    pos_w1,
)
from reference import allclose, distance, dominates, validated_neg_w1, validated_pos_w1
from conftest import assert_invariants, catalog_specs, random_interior_dist, validated_builds

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

    def test_w1_on_a_support_below_zero(self):
        # On [-1, 1] at c = 0.1: the level l solves (0.9 - l) / 3 = 0.1, so
        # l = 0.6; moving 0.9 to b costs 1/30, and the break atom 0.5 keeps
        # (1/6 + 1/30 - 0.1) / 0.5 = 1/5 of its 1/3, the rest going to b.
        d = from_samples([0.2, 0.5, 0.9], SupportBounds(-1.0, 1.0))
        low, up = neg_w1(d, 0.1), pos_w1(d, 0.1)
        assert np.allclose(low.xs, [0.2, 0.5, 0.6], atol=1e-12)
        assert np.allclose(low.ps, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        assert np.allclose(up.xs, [0.2, 0.5, 1.0], atol=1e-12)
        assert np.allclose(up.ps, [1 / 3, 1 / 5, 7 / 15], atol=1e-12)


class TestEdgeCases:
    @pytest.mark.parametrize("op", [pos_sup, neg_sup, pos_w1, neg_w1])
    def test_zero_radius_identity(self, op):
        out = op(EDF, 0.0)
        assert out == EDF

    def test_sup_saturation(self):
        assert allclose(pos_sup(EDF, 1.0), DiscreteDistribution.dirac(5.0, B05))
        assert allclose(pos_sup(EDF, 7.3), DiscreteDistribution.dirac(5.0, B05))
        assert allclose(neg_sup(EDF, 1.0), DiscreteDistribution.dirac(0.0, B05))

    def test_w1_saturation(self):
        # total transportable area up to b: sum p_i (b - x_i) = 2.5
        assert allclose(pos_w1(EDF, 2.5), DiscreteDistribution.dirac(5.0, B05))
        assert allclose(pos_w1(EDF, 3.0), DiscreteDistribution.dirac(5.0, B05))
        # mean - a = 2.5
        assert allclose(neg_w1(EDF, 2.5), DiscreteDistribution.dirac(0.0, B05))

    def test_negative_radius_rejected(self):
        for op in (pos_sup, neg_sup, pos_w1, neg_w1):
            with pytest.raises(ValueError):
                op(EDF, -0.1)

    def test_dirac_inputs(self):
        d = DiscreteDistribution.dirac(2.0, B05)
        assert allclose(pos_w1(d, 0.5), DiscreteDistribution([2, 5], [5 / 6, 1 / 6], B05))
        assert allclose(neg_w1(d, 0.5), DiscreteDistribution.dirac(1.5, B05))
        out = pos_sup(d, 0.3)
        assert allclose(out, DiscreteDistribution([2, 5], [0.7, 0.3], B05))

    def test_atom_at_bound(self):
        d = DiscreteDistribution([4.0, 5.0], [0.5, 0.5], B05)
        out = pos_w1(d, 0.2)
        assert allclose(out, DiscreteDistribution([4, 5], [0.3, 0.7], B05))
        assert distance(d, out, Distance.WASSERSTEIN1) == pytest.approx(0.2, abs=1e-13)

    def test_break_exactly_on_radius_drops_zero_atom(self):
        # transporting the whole top atom costs exactly 0.25
        out = pos_w1(EDF, 0.25)
        assert np.allclose(out.xs, [1, 2, 3, 5])
        assert np.allclose(out.ps, [0.25, 0.25, 0.25, 0.25])
        out2 = neg_w1(EDF, 0.25)  # collapse hits atom 3 exactly
        assert np.allclose(out2.xs, [1, 2, 3])
        assert np.allclose(out2.ps, [0.25, 0.25, 0.5])


class TestResultCarriesTheWaterFill:
    # The water-fill's facts are read from the result: the break atom is the
    # atom just below b in pos_w1, the collapsed level the last atom of neg_w1.
    def test_pos_w1_break_atom_below_b(self):
        out = pos_w1(EDF, 0.3)
        assert out.xs[-2] == 3.0 and out.xs[-1] == 5.0
        assert out.ps[-2] == pytest.approx(0.225)

    def test_neg_w1_level_is_last_atom(self):
        assert neg_w1(EDF, 0.3).xs[-1] == pytest.approx(2.9)

    def test_neg_w1_collapses_below_lowest_atom(self):
        # E[(X - 1)^+] = 1.5 < 2.0: every atom collapses onto 1 - 0.5.
        assert allclose(neg_w1(EDF, 2.0), DiscreteDistribution.dirac(0.5, B05))


def _ulps_from(t: float, k: int) -> float:
    """t moved by k ulps, down for negative k."""
    for _ in range(abs(k)):
        t = np.nextafter(t, np.inf if k > 0 else -np.inf)
    return float(t)


@pytest.mark.parametrize("a", [0.0, -7.3, 1e3])
def test_radii_just_below_saturation_give_valid_distributions(a):
    # One to three ulps below each operator's saturation threshold, rounding
    # must still land inside [a, b], including for a center with an atom on a.
    rng = np.random.default_rng(5)
    for i in range(300):
        bounds = SupportBounds(a, a + (1.0, 5.0)[i % 2])
        m = int(rng.integers(1, 7))
        xs = np.sort(rng.uniform(bounds.a, bounds.b, m))
        if i % 3 == 0:
            xs[0] = a
        ps = rng.random(m) + 0.05
        d = DiscreteDistribution(xs, ps / ps.sum(), bounds)
        thresholds = {
            pos_sup: 1.0,
            neg_sup: 1.0,
            pos_w1: float(np.cumsum((d.ps * (bounds.b - d.xs))[::-1])[-1]),
            neg_w1: d.mean() - a,
        }
        for op, t in thresholds.items():
            for k in (-1, -2, -3):
                c = _ulps_from(t, k)
                if c >= 0.0:
                    assert_matches_validated(d, c, [op])


def test_neg_w1_level_stays_last_atom_near_ties():
    # Radii within three ulps of a tie, where the level meets an atom: the
    # atoms below the level are atoms of the center, untouched.
    rng = np.random.default_rng(6)
    for i in range(200):
        d = random_interior_dist(rng, B01, margin=0.0) if i % 2 else from_samples(rng.random(5), B01)
        tail = 1.0 - d.cum
        suffix = np.append(np.cumsum((tail[:-1] * np.diff(d.xs))[::-1])[::-1], 0.0)
        for s in suffix[:-1]:
            for k in range(-3, 4):
                out = neg_w1(d, _ulps_from(s, k))
                assert_invariants(out)
                assert np.isin(out.xs[:-1], d.xs).all()


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
VALIDATED = {pos_w1: validated_pos_w1, neg_w1: validated_neg_w1}


def assert_matches_validated(d, c, ops=OPERATORS):
    """Each operator's output holds the class invariants, checked on every
    trusted build too. Each W1 output has the atoms that the validating
    constructor keeps from the water-fill's atoms and masses, after
    coalescing, and masses within 1e-15 of its."""
    with validated_builds():
        outs = [op(d, c) for op in ops]
    for op, out in zip(ops, outs):
        assert_invariants(out)
        if op in VALIDATED:
            ref = VALIDATED[op](d, c)
            assert out.xs.tobytes() == ref.xs.tobytes()
            assert np.all(np.abs(out.ps - ref.ps) <= 1e-15)


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

    def test_w1_edges_drop_or_replace_atoms(self):
        assert list(pos_w1(EDF, 0.25).xs) == [1.0, 2.0, 3.0, 5.0]
        assert list(neg_w1(EDF, 0.75).xs) == [1.0, 2.0]
        assert list(neg_w1(EDF, 1.5).xs) == [1.0]

    def test_atoms_on_both_bounds(self):
        d = from_samples([0.0, 0.0, 2.0, 5.0], B05)
        for c in (0.1, 0.25, 0.5, 1.0, 1.75, 5.0):
            assert_matches_validated(d, c)

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.75, 1.0])
    def test_mass_below_the_cdf_step(self, c):
        # Kept, the 1e-20 atom would follow a running sum already at 1.0
        # and leave neg_w1 a kept mass of exactly 1; the constructor drops it.
        d = DiscreteDistribution([1.0, 2.0, 3.0, 4.0], [0.25, 0.25, 0.5, 1e-20], B05)
        assert d.xs.tolist() == [1.0, 2.0, 3.0]
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
