import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbounds import (
    BoundMethod,
    CE,
    CVaR,
    DiscreteDistribution,
    DRM,
    ERM,
    RDEU,
    SRM,
    Distance,
    SupportBounds,
    UnsupportedCombinationError,
    evaluate,
    from_samples,
    glc,
    llc,
    UniformArm,
    bound_rows,
    parse_risk,
    quadrature_risk,
)
from riskbounds.measures import _BLOCK, _centred_log_moment, ce_power, drm_power, rdeu_power, srm_power
from riskbounds.operators import neg_sup
from reference import dominates, shift
from conftest import catalog_specs, cvar_distortion, cvar_spectrum, random_interior_dist

B05 = SupportBounds(0.0, 5.0)
B01 = SupportBounds(0.0, 1.0)
TWO_POINT = DiscreteDistribution([0.0, 1.0], [0.5, 0.5], B01)


def exponential_utility(beta: float) -> CE:
    """u(x) = exp(beta x), whose certainty equivalent is ERM(beta)."""
    return CE(
        lambda x: np.exp(beta * np.asarray(x)),
        lambda x: beta * np.exp(beta * np.asarray(x)),
        lambda z: np.log(z) / beta,
    )


def wavy(y):
    """0 at 0 and 1 at 1, but decreasing on part of [0, 1]."""
    return np.asarray(y) + 0.5 * np.sin(2.0 * np.pi * np.asarray(y))


def brute_force_cvar(d: DiscreteDistribution, alpha: float) -> float:
    """Independent oracle: walk atoms from the top, consume alpha mass."""
    remaining = alpha
    acc = 0.0
    for x, p in zip(d.xs[::-1], d.ps[::-1]):
        take = min(p, remaining)
        acc += take * x
        remaining -= take
        if remaining <= 0:
            break
    return acc / alpha


class TestCVaR:
    def test_top_half(self):
        d = DiscreteDistribution([2, 3, 4, 5], [0.25] * 4, B05)
        assert evaluate(CVaR(0.5), d) == pytest.approx(4.5, abs=1e-12)
        assert evaluate(CVaR(0.5), d) == pytest.approx(brute_force_cvar(d, 0.5), abs=1e-12)

    def test_dirac(self):
        assert evaluate(CVaR(0.3), DiscreteDistribution.dirac(2.0, B05)) == pytest.approx(2.0)

    def test_fractional_tail_split(self):
        d = from_samples([1, 2, 3, 4], B05)
        expected = (0.25 * 4 + 0.05 * 3) / 0.3
        assert evaluate(CVaR(0.3), d) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = random_interior_dist(rng, B05)
            alpha = rng.uniform(0.02, 0.98)
            assert evaluate(CVaR(alpha), d) == pytest.approx(brute_force_cvar(d, alpha), abs=1e-11)

    def test_alpha_domain(self):
        d = from_samples([1], B05)
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                evaluate(CVaR(alpha), d)

    def test_level_below_float_resolution_rejected(self):
        # 1 - alpha rounds to 1 below alpha = 2**-54: the tail would be
        # empty and every CVaR would read 0.
        for alpha in (1e-17, 2.0**-54):
            with pytest.raises(ValueError, match="too small"):
                CVaR(alpha)
            with pytest.raises(ValueError, match="too small"):
                parse_risk(f"cvar:{alpha!r}")
        assert evaluate(CVaR(1e-16), from_samples([1, 2], B05)) > 0.0

    @pytest.mark.parametrize("alpha", [0.013, 0.05, 0.25])
    def test_tail_average_at_scale(self, alpha):
        # n * eps / alpha bounds the error against the exact tail average
        # of n atoms of mass 1/n; ``TestExactEDF`` holds it far tighter.
        n = 10**5
        xs = np.sort(np.random.default_rng(0).beta(2.0, 5.0, n))
        assert np.all(np.diff(xs) > 0.0)
        tail = Fraction(alpha) * n  # k whole atoms and a share of the next
        k = int(tail)
        exact = (math.fsum(xs[n - k :]) + float(tail - k) * xs[n - k - 1]) / (n * alpha)
        got = evaluate(CVaR(alpha), from_samples(xs, B01))
        assert abs(got - exact) <= n * np.finfo(np.float64).eps / alpha


class TestExactEDF:
    """The EDF's CDF values are k/n rounded once, so the rank-dependent
    evaluators read exact cumulative masses at any n. A running sum of 1/n
    (the EDF's CDF before) left the points below 6.0e-13, 1.0e-13 and
    3.9e-13 from the references at 2e4 samples, and the CVaR point 5.4e-11
    from the tail average at 10^6."""

    @pytest.mark.parametrize(
        "text, weight",
        [
            ("cvar:0.05", lambda q: max(q - (1 - mpmath.mpf(0.05)), 0) / mpmath.mpf(0.05)),
            ("srm-power:2", lambda q: q**2),
            ("drm-power:0.5", lambda q: 1 - mpmath.sqrt(1 - q)),
        ],
    )
    def test_points_match_50_digit_sums(self, text, weight):
        n = 2 * 10**4
        xs = np.sort(np.random.default_rng(0).beta(2.0, 5.0, n))
        with mpmath.workdps(50):
            w = [weight(mpmath.mpf(k) / n) for k in range(n + 1)]
            exact = mpmath.fsum(mpmath.mpf(x) * (w[i + 1] - w[i]) for i, x in enumerate(xs.tolist()))
        assert abs(evaluate(parse_risk(text), from_samples(xs, B01)) - float(exact)) <= 1e-14

    def test_cvar_point_matches_the_tail_average_at_a_million(self):
        n, alpha = 10**6, 0.05
        xs = np.sort(np.random.default_rng(3).beta(2.0, 5.0, n))
        tail = Fraction(alpha) * n  # k whole atoms and a share of the next
        k = int(tail)
        top = sum(map(Fraction, xs[n - k :].tolist()), Fraction(0))
        exact = (top + (tail - k) * Fraction(xs[n - k - 1])) / (n * Fraction(alpha))
        assert abs(evaluate(CVaR(alpha), from_samples(xs, B01)) - float(exact)) <= 1e-12


class TestSRM:
    def test_uniform_spectrum_is_mean(self):
        d = from_samples([1, 2, 3, 4], B05)
        assert evaluate(SRM(lambda y: np.ones_like(np.asarray(y)), lambda y: np.asarray(y)), d) == pytest.approx(2.5)

    def test_linear_spectrum_closed_form(self):
        d = from_samples([1, 2, 3, 4], B05)
        got = evaluate(SRM(lambda y: 2 * np.asarray(y), lambda y: np.asarray(y) ** 2), d)
        assert got == pytest.approx(1 * 0.0625 + 2 * 0.1875 + 3 * 0.3125 + 4 * 0.4375, abs=1e-12)

    def test_cvar_as_srm(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = random_interior_dist(rng, B05)
            alpha = rng.uniform(0.05, 0.95)
            phi, phi_int = cvar_spectrum(alpha)
            assert evaluate(SRM(phi, phi_int), d) == pytest.approx(evaluate(CVaR(alpha), d), abs=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="integrate"):
            SRM(lambda y: 2 * np.asarray(y), lambda y: 2 * np.asarray(y) ** 2)
        with pytest.raises(ValueError, match="nondecreasing"):
            SRM(lambda y: 2 - 2 * np.asarray(y), lambda y: 2 * np.asarray(y) - np.asarray(y) ** 2)
        with pytest.raises(ValueError, match="nonnegative"):
            SRM(lambda y: 3 * np.asarray(y) - 0.5, lambda y: 1.5 * np.asarray(y) ** 2 - 0.5 * np.asarray(y))
        with pytest.raises(ValueError, match="vanish at 0"):
            SRM(lambda y: np.ones_like(np.asarray(y)), lambda y: np.asarray(y) + 0.1)


class TestDRM:
    def test_identity_distortion_is_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = random_interior_dist(rng, B05)
            identity = DRM(lambda y: np.asarray(y), lambda y: np.ones_like(np.asarray(y)))
            assert evaluate(identity, d) == pytest.approx(d.mean(), abs=1e-12)

    def test_sqrt_distortion_two_point(self):
        got = evaluate(drm_power(0.5), TWO_POINT)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_matches_distorted_expectation_form(self):
        # distorted-probability Stieltjes oracle, equal to the CDF-segment
        # form for any support offset: sum_i x_i (g(1-Q_{i-1}) - g(1-Q_i))
        rng = np.random.default_rng(3)
        spec = drm_power(0.5)
        g = spec.g
        for bounds in (B05, SupportBounds(-2.0, 5.0)):
            for _ in range(15):
                d = random_interior_dist(rng, bounds)
                q = np.concatenate(([0.0], d.cum))
                stieltjes = float(np.sum(d.xs * (g(1 - q[:-1]) - g(1 - q[1:]))))
                assert evaluate(spec, d) == pytest.approx(stieltjes, abs=1e-10)

    def test_cvar_as_drm(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = random_interior_dist(rng, B05)
            alpha = rng.uniform(0.05, 0.95)
            assert evaluate(DRM(*cvar_distortion(alpha)), d) == pytest.approx(evaluate(CVaR(alpha), d), abs=1e-10)

    def test_translation_offset_on_shifted_support(self):
        d = DiscreteDistribution([1.0, 2.0], [0.5, 0.5], SupportBounds(-1.0, 5.0))
        spec = drm_power(0.5)
        shifted = shift(d, 2.0)
        assert evaluate(spec, shifted) == pytest.approx(evaluate(spec, d) + 2.0, abs=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="concave"):
            DRM(lambda y: np.asarray(y) ** 2, lambda y: 2 * np.asarray(y))
        with pytest.raises(ValueError, match="g\\(0\\)=0"):
            DRM(lambda y: np.asarray(y) * 0.5 + 0.5, lambda y: np.full_like(np.asarray(y), 0.5))
        with pytest.raises(ValueError, match="distortion must be increasing"):
            DRM(wavy, lambda y: np.ones_like(np.asarray(y)))
        with pytest.raises(ValueError, match="derivative must be nonnegative"):
            DRM(lambda y: np.asarray(y), lambda y: 1.0 - 2.0 * np.asarray(y))


class TestERM:
    def test_dirac(self):
        assert evaluate(ERM(2.5), DiscreteDistribution.dirac(1.5, B05)) == pytest.approx(1.5, abs=1e-12)

    def test_two_point_closed_form(self):
        assert evaluate(ERM(1.0), TWO_POINT) == pytest.approx(0.6201145069582775, abs=1e-12)

    def test_small_beta_limit_is_mean(self):
        assert evaluate(ERM(1e-8), TWO_POINT) == pytest.approx(0.5, abs=1e-6)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = random_interior_dist(rng, B01)
            betas = [-3.0, -1.0, -1e-6, 1e-6, 1.0, 3.0, 10.0]
            vals = [evaluate(ERM(b), d) for b in betas]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_large_beta_stable(self):
        assert np.isfinite(evaluate(ERM(600.0), TWO_POINT))
        assert evaluate(ERM(600.0), TWO_POINT) == pytest.approx(1.0, abs=0.01)

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            ERM(0.0)

    def test_single_atom_is_that_atom(self):
        assert evaluate(ERM(-3.0), DiscreteDistribution([2.0], [1.0], B05)) == 2.0

    def test_subnormal_beta_is_the_mean(self):
        # The products beta x would be subnormal, and ERM is within 1e-323 of the mean.
        got = evaluate(ERM(1e-323), DiscreteDistribution([1.0, 1.2], [0.3, 0.7], B05))
        assert got == pytest.approx(1.14, rel=1e-15)

    @pytest.mark.parametrize("beta", [2.0**-1001, -1e-320])
    def test_subnormal_beta_is_the_mean_bitwise_past_one_block(self, beta):
        # The products x_i p_i over every atom, in one pairwise sum: the
        # same bits as the blocked products that the mean once summed.
        rng = np.random.default_rng(6)
        m = 2 * _BLOCK + 3
        weights = rng.random(m)
        d = DiscreteDistribution(np.sort(rng.random(m)), weights / weights.sum(), B01)
        assert d.n_atoms == m
        mean = float(np.add.reduce(d.xs * np.diff(d.cum, prepend=0.0)))
        want = min(max(mean, float(d.xs[0])), float(d.xs[-1]))
        assert _centred_log_moment(beta, d) == (want, 0.0)
        assert evaluate(ERM(beta), d) == want

    @pytest.mark.parametrize("beta, want", [(1e308, 4.0), (-1e308, 3.0)])
    def test_beta_at_the_float_limit_reads_the_extreme_atom(self, beta, want):
        assert evaluate(ERM(beta), DiscreteDistribution([3.0, 4.0], [0.5, 0.5], B05)) == want

    @pytest.mark.parametrize("beta", [1e-320, -1e-320, 1.0, 1e308, -1e308])
    def test_mean_rounded_beyond_the_top_atom(self, beta):
        # Two atoms an ulp apart whose computed mean rounds above both: the
        # value at vanishing beta, the mean, still lies within them.
        xs = [3.7610523942724434, 3.761052394272444]
        d = DiscreteDistribution(xs, [0.4454785989004482, 0.5545214010995518], B05)
        assert float(np.sum(d.xs * d.ps)) > xs[1]
        assert xs[0] <= evaluate(ERM(beta), d) <= xs[1]

    def test_light_mass_at_the_extreme_atom(self):
        # At beta < 0 the extreme atom is the lowest, whose mass can be as
        # light as 1e-300 (at the top of the CDF, one below 2^-53 drops out).
        # e^{beta x} still makes it dominate, and a sum of expm1 terms
        # around a centre near it would cancel to -1.
        d = DiscreteDistribution([0.0, 0.75], [1e-300, 1.0], B01)
        with mpmath.workdps(50):
            moment = mpmath.mpf(1e-300) + (1 - mpmath.mpf(1e-300)) * mpmath.exp(-3750)
            exact = mpmath.log(moment) / -5000
        assert evaluate(ERM(-5000.0), d) == pytest.approx(float(exact), rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        atoms=st.lists(
            st.tuples(st.floats(0.0, 5.0), st.floats(0.01, 1.0)),
            min_size=1, max_size=300, unique_by=lambda atom: atom[0],
        ),
        beta=st.one_of(
            st.floats(-800.0, 800.0).filter(lambda b: b != 0.0),
            st.sampled_from([1e-300, -1e-300, 1e-320, -1e-320, 1e-323, 1e308, -1e308]),
        ),
    )
    @example(atoms=[(0.0, 0.6), (1.0, 0.4)], beta=1e-323)  # the products beta x would be subnormal
    @example(atoms=[(0.0, 0.5), (5.0, 0.5)], beta=1e308)  # beta (b - a) is beyond the float range
    def test_value_lies_within_the_atoms(self, atoms, beta):
        weights = np.array([w for _, w in atoms])
        d = DiscreteDistribution([x for x, _ in atoms], weights / weights.sum(), B05)
        assert d.xs[0] <= evaluate(ERM(beta), d) <= d.xs[-1]


@pytest.fixture(scope="module")
def edf():
    """The 2e4-sample beta(2,5) EDF (seed 0) of the 50-digit references."""
    return from_samples(np.sort(np.random.default_rng(0).beta(2.0, 5.0, 2 * 10**4)), B01)


class TestCVaRExact:
    """CVaR against 50-digit sums over the EDF's own CDF values, down to
    alpha = 1e-12. A weight of q - (1 - alpha) rounded 1 - alpha and the
    1/alpha weight magnified that: alpha = 1e-8 and 1e-6 read above the
    largest atom, and alpha = 1e-12 was 2.2e-5 off."""

    @pytest.mark.parametrize("alpha", [1e-12, 1e-8, 1e-6, 1e-4, 1e-3, 0.05, 0.5, 0.9])
    def test_point_matches_50_digit_sum(self, edf, alpha):
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            w = [max(a - (1 - mpmath.mpf(q)), 0) / a for q in [0.0] + edf.cum.tolist()]
            exact = mpmath.fsum(mpmath.mpf(x) * (w[i + 1] - w[i]) for i, x in enumerate(edf.xs.tolist()))
        got = evaluate(CVaR(alpha), edf)
        assert edf.xs[0] <= got <= edf.xs[-1]
        assert abs(got - float(exact)) <= 1e-15 * float(exact)


class TestERMExact:
    """ERM and its supremum-ball local constant against 50-digit sums over
    the 2e4-sample beta(2,5) EDF's own CDF values. The log-sum-exp before
    the centred sum lost 1e-15/beta: 8.7e-5 absolute at beta = 1e-12 and
    1.6e-15 at beta = 1."""

    @staticmethod
    def _atoms(d: DiscreteDistribution):
        """The atoms and their masses as exact differences of the CDF values."""
        with mpmath.workdps(50):
            cum = [mpmath.mpf(0)] + [mpmath.mpf(q) for q in d.cum.tolist()]
            return [mpmath.mpf(x) for x in d.xs.tolist()], [cum[i + 1] - cum[i] for i in range(d.n_atoms)]

    @pytest.fixture(scope="class")
    def centred(self, edf):
        xs, ps = self._atoms(edf)
        with mpmath.workdps(50):
            mean = mpmath.fsum(x * p for x, p in zip(xs, ps))
            return mean, [(x - mean, p) for x, p in zip(xs, ps)]

    @pytest.mark.parametrize("beta", [1e-12, -1e-12, 1e-9, 1e-6, 1e-3, 1.0, 30.0, 5000.0, -5000.0])
    def test_point_matches_50_digit_sum(self, edf, centred, beta):
        mean, terms = centred
        with mpmath.workdps(50):
            b = mpmath.mpf(beta)
            exact = mean + mpmath.log(mpmath.fsum(p * mpmath.exp(b * dx) for dx, p in terms)) / b
        assert abs(evaluate(ERM(beta), edf) - float(exact)) <= 2e-16

    @pytest.fixture(scope="class")
    def lowered(self, edf):
        return self._atoms(neg_sup(edf, 0.01))

    @pytest.mark.parametrize("beta", [1e-9, 1e-3, 1.0, 30.0])
    def test_sup_local_constant_matches_50_digit_sum(self, edf, lowered, beta):
        # (1 - e^-beta) / (beta E[exp(beta (X - 1))]) on the lowered extreme
        with mpmath.workdps(50):
            b = mpmath.mpf(beta)
            moment = mpmath.fsum(p * mpmath.exp(b * (x - 1)) for x, p in zip(*lowered))
            exact = -mpmath.expm1(-b) / (b * moment)
        got = llc(ERM(beta), Distance.SUPREMUM, edf, 0.01)
        assert abs(got - float(exact)) <= 1e-14 * float(exact)


class TestCE:
    def test_identity_utility_is_mean(self):
        got = evaluate(CE(lambda x: np.asarray(x), np.ones_like, lambda z: np.asarray(z)), TWO_POINT)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_square_utility(self):
        square = CE(lambda x: np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x), np.sqrt)
        got = evaluate(square, TWO_POINT)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_erm_as_ce(self):
        rng = np.random.default_rng(6)
        beta = 1.7
        for _ in range(15):
            d = random_interior_dist(rng, B01)
            got = evaluate(exponential_utility(beta), d)
            assert got == pytest.approx(evaluate(ERM(beta), d), abs=1e-10)

    def test_utility_checked_on_the_support(self):
        with pytest.raises(ValueError, match=r"strictly increasing on \[-1.0, 1.0\]"):
            evaluate(ce_power(2.0), from_samples([-0.5, 0.5], SupportBounds(-1.0, 1.0)))
        concave = CE(np.sqrt, lambda x: 0.5 / np.sqrt(np.asarray(x)), lambda z: np.asarray(z) ** 2)
        with pytest.raises(ValueError, match=r"convex on \[1.0, 2.0\]"):
            evaluate(concave, from_samples([1.5], SupportBounds(1.0, 2.0)))

    def test_inverse_mismatch_rejected(self):
        spec = CE(lambda x: np.asarray(x) ** 2, lambda x: 2 * np.asarray(x), lambda z: np.asarray(z))
        with pytest.raises(ValueError, match="inverse"):
            evaluate(spec, TWO_POINT)


class TestRDEU:
    def test_identity_weight_value_is_mean(self):
        one = lambda t: np.ones_like(np.asarray(t))
        got = evaluate(RDEU(lambda y: np.asarray(y), one, lambda x: np.asarray(x), one), TWO_POINT)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_square_weight_two_point(self):
        spec = RDEU(
            lambda y: np.asarray(y) ** 2,
            lambda y: 2 * np.asarray(y),
            lambda x: np.asarray(x),
            lambda x: np.ones_like(np.asarray(x)),
        )
        got = evaluate(spec, TWO_POINT)
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_dirac_gives_value_function(self):
        spec = rdeu_power(2.0, 3.0)
        d = DiscreteDistribution.dirac(0.5, B01)
        assert evaluate(spec, d) == pytest.approx(0.5 ** 3, abs=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="w\\(0\\)=0"):
            RDEU(
                lambda y: 0.5 + 0.5 * np.asarray(y),
                lambda y: np.full_like(np.asarray(y), 0.5),
                lambda x: np.asarray(x),
                lambda x: np.ones_like(np.asarray(x)),
            )
        one = lambda t: np.ones_like(np.asarray(t))
        with pytest.raises(ValueError, match="RDEU weight must be increasing"):
            RDEU(wavy, one, lambda x: np.asarray(x), one)
        with pytest.raises(ValueError, match="v\\(0\\)=0"):
            RDEU(lambda y: np.asarray(y), one, lambda x: np.asarray(x) + 1.0, one)

    def test_value_function_checked_on_the_support(self):
        spec, d = rdeu_power(2.0, 2.0), from_samples([-0.5, 0.5], SupportBounds(-1.0, 1.0))
        for check in (
            lambda: evaluate(spec, d),
            lambda: glc(spec, Distance.SUPREMUM, d.bounds),
            lambda: llc(spec, Distance.SUPREMUM, d, 0.1),
        ):
            with pytest.raises(ValueError, match=r"RDEU value function must be increasing on \[-1.0, 1.0\]"):
                check()
        # Over W1 balls the missing local constant is reported first.
        with pytest.raises(UnsupportedCombinationError, match="no local Lipschitz"):
            llc(spec, Distance.WASSERSTEIN1, d, 0.1)


class TestEvaluateProperties:
    @pytest.mark.parametrize(
        "dispatch",
        [
            lambda spec: evaluate(spec, TWO_POINT),
            lambda spec: glc(spec, Distance.SUPREMUM, B01),
            lambda spec: llc(spec, Distance.SUPREMUM, TWO_POINT, 0.1),
            lambda spec: quadrature_risk(UniformArm(0.0, 1.0), spec, B01),
            # two rows that share their CDF values: the block's own evaluator and constant
            lambda spec: bound_rows([[0.2, 0.6], [0.3, 0.7]], B01, spec, Distance.SUPREMUM, [BoundMethod.DIST], 0.05),
            lambda spec: bound_rows([[0.2, 0.6], [0.3, 0.7]], B01, spec, Distance.SUPREMUM, [BoundMethod.LLC], 0.05),
        ],
        ids=["evaluate", "glc", "llc", "quadrature_risk", "block_evaluate", "block_llc"],
    )
    def test_non_spec_rejected(self, dispatch):
        with pytest.raises(TypeError, match="not a risk measure spec: 'cvar:0.25'"):
            dispatch("cvar:0.25")

    def test_dispatch_matches_family_evaluators(self):
        d = from_samples([1, 2, 3, 4], B05)
        assert evaluate(CVaR(0.3), d) == pytest.approx(brute_force_cvar(d, 0.3), abs=1e-12)
        erm = math.log(np.mean(np.exp(1.2 * np.arange(1.0, 5.0)))) / 1.2
        assert evaluate(ERM(1.2), d) == pytest.approx(erm, abs=1e-12)

    def test_monotone_under_dominance(self):
        rng = np.random.default_rng(7)
        specs = [spec for _, spec in catalog_specs()]
        for _ in range(25):
            base = random_interior_dist(rng, B01)
            worse = DiscreteDistribution(
                np.minimum(base.xs + rng.uniform(0, 0.04, base.n_atoms), 1.0),
                base.ps,
                B01,
            )
            assert dominates(base, worse)
            for spec in specs:
                assert evaluate(spec, base) <= evaluate(spec, worse) + 1e-10

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        phi, phi_int = cvar_spectrum(0.2)
        g, gp = cvar_distortion(0.35)
        specs = [CVaR(0.25), SRM(phi, phi_int), DRM(g, gp), ERM(2.0)]
        for _ in range(15):
            d = random_interior_dist(rng, B01)
            t = rng.uniform(-2, 2)
            shifted = shift(d, t)
            for spec in specs:
                assert evaluate(spec, shifted) == pytest.approx(
                    evaluate(spec, d) + t, abs=1e-10
                )

    def test_range_within_support(self):
        # RDEU with an unbounded value function can leave [a, b]; the range
        # property is asserted for the other families, and for RDEU on [0, 1]
        # where the power catalog keeps values inside.
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = random_interior_dist(rng, B01)
            for _, spec in catalog_specs():
                val = evaluate(spec, d)
                assert B01.a - 1e-10 <= val <= B01.b + 1e-10

    def test_specialization_chains_random(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            d = random_interior_dist(rng, B01)
            alpha = rng.uniform(0.05, 0.9)
            phi, phi_int = cvar_spectrum(alpha)
            cv = evaluate(CVaR(alpha), d)
            assert evaluate(SRM(phi, phi_int), d) == pytest.approx(cv, abs=1e-10)
            assert evaluate(DRM(*cvar_distortion(alpha)), d) == pytest.approx(cv, abs=1e-10)
            beta = rng.uniform(0.2, 4.0)
            ce = evaluate(exponential_utility(beta), d)
            assert ce == pytest.approx(evaluate(ERM(beta), d), abs=1e-10)


class TestCatalog:
    @pytest.mark.parametrize(
        "build, args, message",
        [
            (srm_power, (0.5,), "power spectrum needs k >= 1"),
            (ce_power, (0.5,), "power utility needs k >= 1"),
            (rdeu_power, (0.5, 2.0), "power RDEU needs s >= 1 and k >= 1"),
            (rdeu_power, (2.0, 0.5), "power RDEU needs s >= 1 and k >= 1"),
        ],
    )
    def test_builders_reject_exponents_below_one(self, build, args, message):
        with pytest.raises(ValueError, match=message):
            build(*args)

    def test_scalar_only_functions_take_the_python_loop(self):
        # math.pow and float() reject arrays, so every call of phi and Phi
        # falls back to one call per element; the products are those of the
        # array catalog (np.power(y, 2.0) squares, as y * y does).
        spec = SRM(lambda y: 2.0 * math.pow(y, 1.0), lambda y: float(y) * float(y))
        ref = srm_power(2.0)
        d = from_samples(np.random.default_rng(13).beta(2.0, 5.0, 40), B01)
        assert evaluate(spec, d) == evaluate(ref, d)
        for kind in (Distance.SUPREMUM, Distance.WASSERSTEIN1):
            assert llc(spec, kind, d, 0.05) == llc(ref, kind, d, 0.05)
            assert glc(spec, kind, B01) == glc(ref, kind, B01)
        # Rows that share their CDF values take u and v as 2-D arrays, and
        # the loop goes element by element.
        rows, methods = np.random.default_rng(13).beta(2.0, 5.0, (3, 40)), list(BoundMethod)
        square, double = (lambda x: float(x) * float(x)), (lambda x: 2.0 * math.pow(x, 1.0))
        for spec, ref in ((CE(square, double, math.sqrt), ce_power(2.0)), (RDEU(square, double, square, double), rdeu_power(2.0, 2.0))):
            got, want = (bound_rows(rows, B01, s, Distance.SUPREMUM, methods, 0.05) for s in (spec, ref))
            assert got == want

    def test_unit_exponent_derivatives_are_exactly_one(self):
        y = np.array([0.0, 0.5, 1.0])
        rdeu = rdeu_power(1.0, 1.0)
        for fn in (srm_power(1.0).phi, drm_power(1.0).g_prime, ce_power(1.0).u_prime, rdeu.w_prime, rdeu.v_prime):
            out = fn(y)
            assert out.dtype == np.float64 and out.tolist() == [1.0, 1.0, 1.0]


class TestParseRisk:
    @pytest.mark.parametrize(
        "text,family",
        [
            ("cvar:0.5", CVaR),
            ("erm:1.5", ERM),
            ("srm-power:2", SRM),
            ("drm-power:0.5", DRM),
            ("ce-power:2", CE),
            ("rdeu-power:2,2", RDEU),
        ],
    )
    def test_catalog_families(self, text, family):
        assert isinstance(parse_risk(text), family)

    @pytest.mark.parametrize(
        "text",
        ["cvar", "cvar:1.5", "erm:0", "srm-power:0.5", "drm-power:2", "mystery:1", "rdeu-power:2"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_risk(text)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("cvar:0.5", CVaR(0.5)),
            ("erm:-1.5", ERM(-1.5)),
            ("srm-power:2", srm_power(2.0)),
            ("drm-power:0.5", drm_power(0.5)),
            ("ce-power:2", ce_power(2.0)),
            ("rdeu-power:1.5,2", rdeu_power(1.5, 2.0)),
            (" CVaR :0.25", CVaR(0.25)),
        ],
    )
    def test_round_trip(self, text, expected):
        assert parse_risk(text) == expected

    @pytest.mark.parametrize(
        "text,message",
        [
            ("cvar", "risk spec 'cvar' must look like 'family:params'"),
            ("cvar:x", "bad numeric parameters in risk spec 'cvar:x'"),
            ("mystery:x", "bad numeric parameters in risk spec 'mystery:x'"),
            ("cvar:", "risk spec 'cvar:' needs 1 parameter(s)"),
            ("erm:1,2", "risk spec 'erm:1,2' needs 1 parameter(s)"),
            ("rdeu-power:2", "risk spec 'rdeu-power:2' needs 2 parameter(s)"),
            ("Mystery:1", "unknown risk family 'mystery' in 'Mystery:1'"),
            ("mystery:", "unknown risk family 'mystery' in 'mystery:'"),
        ],
    )
    def test_messages(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_risk(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["srm-power:2", "drm-power:0.5", "ce-power:2", "rdeu-power:2,2"])
    def test_equal_text_parses_to_the_same_spec(self, text):
        # Caches keyed on the spec (quadrature, support checks) hit only then.
        assert parse_risk(text) is parse_risk(text)

    def test_catalog_values_agree_with_direct_construction(self):
        d = from_samples([0.1, 0.4, 0.7], B01)
        assert evaluate(parse_risk("srm-power:3"), d) == pytest.approx(
            evaluate(srm_power(3.0), d)
        )
        assert evaluate(parse_risk("ce-power:2"), d) == pytest.approx(
            evaluate(ce_power(2.0), d)
        )
