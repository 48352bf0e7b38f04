import math

import mpmath
import numpy as np
import pytest
from scipy.special import beta as beta_fn, betainc, betaincinv

from riskbounds import (
    CVaR,
    Distance,
    ERM,
    SupportBounds,
    evaluate,
    from_samples,
    pos_sup,
    quadrature_risk,
)
from riskbounds.bandit import BetaArm, DiracArm, DiscreteArm, TruncNormalArm, UniformArm, true_risk
from riskbounds import oracles
from riskbounds.measures import ce_power, drm_power, parse_risk, rdeu_power, srm_power
from riskbounds.oracles import QuadratureError, refining_integral
from reference import distance, random_feasible
from conftest import random_interior_dist

B01 = SupportBounds(0.0, 1.0)
B05 = SupportBounds(0.0, 5.0)

_SIX_FAMILIES = (
    CVaR(0.3), ERM(2.0), srm_power(2.0), drm_power(0.5), ce_power(2.0), rdeu_power(2.0, 2.0)
)
# Shapes below 1 put an infinite density at a support edge.
_BETA_SHAPES = [(2.0, 5.0), (0.5, 2.0), (2.0, 0.5)]


def _scalar_refining_integral(fn, lo, hi, tol=1e-9):
    """Depth-first adaptive Simpson, one point per integrand call, right half
    first: the loop that ``refining_integral`` vectorizes, kept as the
    reference for its bitwise equality."""

    def f(x):
        return float(np.asarray(fn(np.asarray([x], dtype=np.float64)))[0])

    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    width_floor = max(1e-14, (hi - lo) * 1e-13)
    grid = np.linspace(lo, hi, 33)
    stack = []
    for a, b in zip(grid[:-1], grid[1:]):
        fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
        stack.append((a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol / 32))
    total = 0.0
    while stack:
        a, b, fa, fm, fb, coarse, t = stack.pop()
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left, right = simpson(a, m, fa, flm, fm), simpson(m, b, fm, frm, fb)
        err = left + right - coarse
        if abs(err) <= 15.0 * t or (b - a) <= width_floor:
            total += left + right + err / 15.0
        else:
            stack.append((a, m, fa, flm, fm, left, t / 2.0))
            stack.append((m, b, fm, frm, fb, right, t / 2.0))
    return total


class TestQuadrature:
    def test_uniform_cvar_analytic(self):
        for alpha in (0.05, 0.25, 0.6):
            got = quadrature_risk(UniformArm(0, 1), CVaR(alpha), B01)
            assert got == pytest.approx(1 - alpha / 2, abs=1e-9)

    def test_uniform_erm_analytic(self):
        got = quadrature_risk(UniformArm(0, 1), ERM(1.0), B01)
        assert got == pytest.approx(math.log(math.e - 1.0), abs=1e-9)

    def test_dirac_exact(self):
        assert true_risk(DiracArm(0.7), CVaR(0.05), B01) == pytest.approx(0.7, abs=1e-14)

    def test_beta_cvar_closed_form(self):
        # independent route: CVaR of Beta(A,B) = (A/(A+B)) (1 - I_q(A+1, B)) / alpha
        a_shape, b_shape, alpha = 2.0, 5.0, 0.05
        q = betaincinv(a_shape, b_shape, 1 - alpha)
        closed = (a_shape / (a_shape + b_shape)) * (1 - betainc(a_shape + 1, b_shape, q)) / alpha
        got = quadrature_risk(BetaArm(a_shape, b_shape), CVaR(alpha), B01)
        assert got == pytest.approx(closed, abs=1e-9)

    def test_scaled_beta_support(self):
        plain = quadrature_risk(BetaArm(2, 5), CVaR(0.1), B01)
        scaled = quadrature_risk(BetaArm(2, 5), CVaR(0.1), B05)
        assert scaled == pytest.approx(5 * plain, rel=1e-9)

    def test_truncnormal_montecarlo_sanity(self):
        arm = TruncNormalArm(0.4, 0.15)
        got = quadrature_risk(arm, CVaR(0.25), B01)
        rng = np.random.default_rng(0)
        draws = arm.sample(rng, 400_000, B01)
        tail = np.quantile(draws, 0.75)
        mc = draws[draws >= tail].mean()
        assert got == pytest.approx(mc, abs=5e-3)

    def test_discrete_arm_matches_exact_evaluation(self):
        rng = np.random.default_rng(1)
        specs = [CVaR(0.2), ERM(1.5), srm_power(2.0), drm_power(0.7), ce_power(2.0), rdeu_power(2.0, 2.0)]
        for _ in range(10):
            d = random_interior_dist(rng, B01)
            arm = DiscreteArm(d)
            for spec in specs:
                assert true_risk(arm, spec, B01) == evaluate(spec, d)

    def test_all_families_on_continuous_arm(self):
        arm = BetaArm(2, 2)
        for spec in (CVaR(0.3), ERM(2.0), srm_power(2.0), drm_power(0.5), ce_power(2.0), rdeu_power(2.0, 2.0)):
            val = quadrature_risk(arm, spec, B01)
            assert 0.0 <= val <= 1.0

    def test_refining_integral_polynomial(self):
        assert refining_integral(lambda x: x**3, 2.0, 0.0) == 0.0  # an empty or reversed range
        got = refining_integral(lambda x: x**3, 0.0, 2.0)
        assert got == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("case", ["beta-tail", "truncnormal-cdf", "sqrt", "cubic"])
    def test_refining_integral_matches_scalar_loop_bitwise(self, case):
        beta, normal, g = BetaArm(2, 5), TruncNormalArm(0.25, 0.12), drm_power(0.5).g
        fn, lo, hi = {
            "beta-tail": (lambda y: beta.quantile(y, B05), 0.9, 1.0),
            "truncnormal-cdf": (lambda x: g(1.0 - normal.cdf(x, B01)), 0.0, 1.0),
            "sqrt": (np.sqrt, 0.0, 2.0),
            "cubic": (lambda x: x**3, -1.0, 2.0),
        }[case]
        assert refining_integral(fn, lo, hi) == _scalar_refining_integral(fn, lo, hi)

    def test_refining_integral_batch_size_does_not_change_the_value(self, monkeypatch):
        normal, g = TruncNormalArm(0.25, 0.12), drm_power(0.5).g

        def fn(x):
            return g(1.0 - normal.cdf(x, B01))

        whole = refining_integral(fn, 0.0, 1.0)
        monkeypatch.setattr(oracles, "_BATCH_PANELS", 5)
        assert refining_integral(fn, 0.0, 1.0) == whole

    def test_refining_integral_rejects_nonfinite(self):
        def inverse(x):
            with np.errstate(divide="ignore"):
                return 1.0 / np.asarray(x)

        with pytest.raises(QuadratureError, match="finite"):
            refining_integral(inverse, 0.0, 1.0)

    def test_refining_integral_rejects_unresolved_singularity(self):
        # 1/|x - 0.3| is not integrable: the panels around 0.3 reach the
        # width floor with their disagreement still above the tolerance.
        with pytest.raises(QuadratureError, match="failed to resolve"):
            refining_integral(lambda x: 1.0 / np.abs(x - 0.3), 0.0, 1.0)

    def test_refining_integral_rejects_runaway_refinement(self):
        # Noise above the tolerance never settles, so every panel splits
        # down to the width floor until the panel budget runs out.
        rng = np.random.default_rng(0)
        with pytest.raises(QuadratureError, match="failed to resolve .* panels"):
            refining_integral(lambda x: 1.0 + 1e-7 * rng.standard_normal(x.shape), 0.0, 1.0)

    def test_refining_integral_one_call_per_level(self):
        arm, calls = BetaArm(2, 5), []

        def quantile(y):
            calls.append(y.size)
            return arm.quantile(y, B01)

        got = refining_integral(quantile, 0.95, 1.0) / 0.05
        assert got == pytest.approx(quadrature_risk(arm, CVaR(0.05), B01), abs=1e-15)
        # The seed grid, then one call per refinement level.
        assert calls[0] == 65 and len(calls) < 100

    @pytest.mark.parametrize("arm", [BetaArm(2, 5), TruncNormalArm(0.4, 0.15), UniformArm(0.1, 0.9), DiracArm(0.3)])
    def test_float_for_every_family(self, arm):
        for spec in _SIX_FAMILIES:
            assert type(true_risk(arm, spec, B01)) is float, spec

    def test_quantile_and_cdf_are_the_whole_protocol(self):
        beta = BetaArm(2, 5)

        class QuantileCdfArm:
            def as_discrete(self, bounds):
                return None

            def quantile(self, y, bounds):
                return beta.quantile(y, bounds)

            def cdf(self, x, bounds):
                return beta.cdf(x, bounds)

        arm = QuantileCdfArm()
        for spec in _SIX_FAMILIES:
            assert true_risk(arm, spec, B05) == quadrature_risk(beta, spec, B05), spec


class TestClosedForms:
    """True risks against closed forms computed independently, to 1e-9."""

    @pytest.mark.parametrize("shapes", _BETA_SHAPES)
    @pytest.mark.parametrize("width", [1.0, 5.0])
    @pytest.mark.parametrize("beta", [1.0, -2.0])
    def test_beta_erm(self, shapes, width, beta):
        # E[exp(beta X)] of X = width Z, Z ~ Beta(A, B), is 1F1(A; A + B; beta width).
        a_shape, b_shape = shapes
        closed = float(mpmath.log(mpmath.hyp1f1(a_shape, a_shape + b_shape, beta * width)) / beta)
        got = quadrature_risk(BetaArm(a_shape, b_shape), ERM(beta), SupportBounds(0.0, width))
        assert got == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("mu,sigma", [(0.4, 0.15), (0.25, 0.12), (0.9, 0.5)])
    @pytest.mark.parametrize("beta", [1.0, -1.0, 4.0])
    def test_truncnormal_erm(self, mu, sigma, beta):
        # Moment generating function of N(mu, sigma^2) truncated to [0, 1].
        lo, hi = (0.0 - mu) / sigma, (1.0 - mu) / sigma
        mp_mu, mp_sigma = mpmath.mpf(mu), mpmath.mpf(sigma)
        mgf = (
            mpmath.exp(mp_mu * beta + (mp_sigma * beta) ** 2 / 2)
            * (mpmath.ncdf(hi - mp_sigma * beta) - mpmath.ncdf(lo - mp_sigma * beta))
            / (mpmath.ncdf(hi) - mpmath.ncdf(lo))
        )
        closed = float(mpmath.log(mgf) / beta)
        assert quadrature_risk(TruncNormalArm(mu, sigma), ERM(beta), B01) == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("shapes", _BETA_SHAPES)
    @pytest.mark.parametrize("k", [2.0, 3.0])
    def test_beta_ce_power(self, shapes, k):
        # E[Z^k] of Z ~ Beta(A, B) is B(A + k, B) / B(A, B).
        a_shape, b_shape = shapes
        closed = (beta_fn(a_shape + k, b_shape) / beta_fn(a_shape, b_shape)) ** (1.0 / k)
        assert quadrature_risk(BetaArm(a_shape, b_shape), ce_power(k), B01) == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("lo,hi", [(0.1, 0.9), (0.0, 1.0), (0.3, 0.4)])
    @pytest.mark.parametrize("k", [2.0, 3.0])
    def test_uniform_ce_power(self, lo, hi, k):
        closed = ((hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))) ** (1.0 / k)
        assert quadrature_risk(UniformArm(lo, hi), ce_power(k), B01) == pytest.approx(closed, abs=1e-9)


    @pytest.mark.parametrize("family", ["drm-power:0.5", "rdeu-power:2,2"])
    def test_far_tail_truncnormal(self, family):
        # N(-9, 1) on [0, 1]: the normal probabilities at 0 and 1 both round
        # to 1, so its cdf must come from their complements, which keep the mass.
        def survival(x):  # 1 - F(x), from the normal's upper tail
            upper = [mpmath.ncdf(-(t + 9)) for t in (x, 0, 1)]
            return (upper[0] - upper[2]) / (upper[1] - upper[2])

        with mpmath.workdps(40):
            if family == "drm-power:0.5":  # integral of g(1 - F) over [0, 1]
                closed = float(mpmath.quad(lambda x: mpmath.sqrt(survival(x)), [0, 1]))
            else:  # v(1) minus the integral of w(F) v' over [0, 1]
                closed = float(1 - mpmath.quad(lambda x: 2 * x * (1 - survival(x)) ** 2, [0, 1]))
        got = quadrature_risk(TruncNormalArm(-9.0, 1.0), parse_risk(family), B01)
        assert got == pytest.approx(closed, abs=1e-9)


class TestFeasibleSampler:
    def test_radius_validation(self):
        center = from_samples([1, 2, 3, 4], B05)
        for c in (-0.1, math.inf):
            with pytest.raises(ValueError, match="ball radius"):
                random_feasible(center, Distance.SUPREMUM, c, 5)

    def test_zero_radius_returns_center(self):
        center = from_samples([1, 2, 3, 4], B05)
        cands = random_feasible(center, Distance.SUPREMUM, 0.0, 5)
        assert len(cands) == 5 and all(c == center for c in cands)

    @pytest.mark.parametrize("kind,c", [(Distance.SUPREMUM, 0.25), (Distance.WASSERSTEIN1, 0.4)])
    def test_all_candidates_feasible(self, kind, c):
        center = from_samples([1, 2, 3, 4], B05)
        for cand in random_feasible(center, kind, c, 200, seed=1):
            assert distance(center, cand, kind) <= c

    def test_feasible_on_random_centers(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            center = random_interior_dist(rng, B01)
            for kind, c in ((Distance.SUPREMUM, rng.uniform(0.01, 0.6)), (Distance.WASSERSTEIN1, rng.uniform(0.01, 0.4))):
                for cand in random_feasible(center, kind, c, 30, seed=trial):
                    assert distance(center, cand, kind) <= c

    def test_candidates_never_beat_the_ball_extreme(self):
        # the optimality probe itself, at unit scale
        center = from_samples([1, 2, 3, 4], B05)
        c = 0.25
        spec = CVaR(0.3)
        best = evaluate(spec, pos_sup(center, c))
        cands = random_feasible(center, Distance.SUPREMUM, c, 10_000, seed=3)
        vals = np.array([evaluate(spec, cand) for cand in cands])
        assert np.all(vals <= best + 1e-9)
