import math

import numpy as np
import pytest

from riskbounds import (
    CE,
    CVaR,
    DiscreteDistribution,
    DRM,
    ERM,
    RDEU,
    SRM,
    SupportBounds,
    dominates,
    eval_ce,
    eval_cvar,
    eval_drm,
    eval_erm,
    eval_rdeu,
    eval_srm,
    evaluate,
    from_samples,
    parse_risk,
)
from riskbounds.measures import ce_power, drm_power, rdeu_power, srm_power
from conftest import catalog_specs, cvar_distortion, cvar_spectrum, random_interior_dist

B05 = SupportBounds(0.0, 5.0)
B01 = SupportBounds(0.0, 1.0)
TWO_POINT = DiscreteDistribution([0.0, 1.0], [0.5, 0.5], B01)


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
        assert eval_cvar(0.5, d) == pytest.approx(4.5, abs=1e-12)
        assert eval_cvar(0.5, d) == pytest.approx(brute_force_cvar(d, 0.5), abs=1e-12)

    def test_dirac(self):
        assert eval_cvar(0.3, DiscreteDistribution.dirac(2.0, B05)) == pytest.approx(2.0)

    def test_fractional_tail_split(self):
        d = from_samples([1, 2, 3, 4], B05)
        expected = (0.25 * 4 + 0.05 * 3) / 0.3
        assert eval_cvar(0.3, d) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = random_interior_dist(rng, B05)
            alpha = rng.uniform(0.02, 0.98)
            assert eval_cvar(alpha, d) == pytest.approx(brute_force_cvar(d, alpha), abs=1e-11)

    def test_alpha_domain(self):
        d = from_samples([1], B05)
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                eval_cvar(alpha, d)


class TestSRM:
    def test_uniform_spectrum_is_mean(self):
        d = from_samples([1, 2, 3, 4], B05)
        assert eval_srm(lambda y: np.ones_like(np.asarray(y)), lambda y: np.asarray(y), d) == pytest.approx(2.5)

    def test_linear_spectrum_closed_form(self):
        d = from_samples([1, 2, 3, 4], B05)
        got = eval_srm(lambda y: 2 * np.asarray(y), lambda y: np.asarray(y) ** 2, d)
        assert got == pytest.approx(1 * 0.0625 + 2 * 0.1875 + 3 * 0.3125 + 4 * 0.4375, abs=1e-12)

    def test_cvar_as_srm(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = random_interior_dist(rng, B05)
            alpha = rng.uniform(0.05, 0.95)
            phi, phi_int = cvar_spectrum(alpha)
            assert eval_srm(phi, phi_int, d) == pytest.approx(eval_cvar(alpha, d), abs=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="integrate"):
            SRM(lambda y: 2 * np.asarray(y), lambda y: 2 * np.asarray(y) ** 2)
        with pytest.raises(ValueError, match="nondecreasing"):
            SRM(lambda y: 2 - 2 * np.asarray(y), lambda y: 2 * np.asarray(y) - np.asarray(y) ** 2)


class TestDRM:
    def test_identity_distortion_is_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = random_interior_dist(rng, B05)
            assert eval_drm(lambda y: np.asarray(y), d) == pytest.approx(d.mean(), abs=1e-12)

    def test_sqrt_distortion_two_point(self):
        got = eval_drm(np.sqrt, TWO_POINT)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_matches_distorted_expectation_form(self):
        # distorted-probability Stieltjes oracle, equal to the CDF-segment
        # form for any support offset: sum_i x_i (g(1-Q_{i-1}) - g(1-Q_i))
        rng = np.random.default_rng(3)
        g = drm_power(0.5).g
        for bounds in (B05, SupportBounds(-2.0, 5.0)):
            for _ in range(15):
                d = random_interior_dist(rng, bounds)
                q = np.concatenate(([0.0], d.cum))
                stieltjes = float(np.sum(d.xs * (g(1 - q[:-1]) - g(1 - q[1:]))))
                assert eval_drm(g, d) == pytest.approx(stieltjes, abs=1e-10)

    def test_cvar_as_drm(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = random_interior_dist(rng, B05)
            alpha = rng.uniform(0.05, 0.95)
            g, _ = cvar_distortion(alpha)
            assert eval_drm(g, d) == pytest.approx(eval_cvar(alpha, d), abs=1e-10)

    def test_translation_offset_on_shifted_support(self):
        d = DiscreteDistribution([1.0, 2.0], [0.5, 0.5], SupportBounds(-1.0, 5.0))
        g = drm_power(0.5).g
        shifted = d.shift(2.0)
        assert eval_drm(g, shifted) == pytest.approx(eval_drm(g, d) + 2.0, abs=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="concave"):
            DRM(lambda y: np.asarray(y) ** 2, lambda y: 2 * np.asarray(y))
        with pytest.raises(ValueError, match="g\\(0\\)=0"):
            DRM(lambda y: np.asarray(y) * 0.5 + 0.5, lambda y: np.full_like(np.asarray(y), 0.5))


class TestERM:
    def test_dirac(self):
        assert eval_erm(2.5, DiscreteDistribution.dirac(1.5, B05)) == pytest.approx(1.5, abs=1e-12)

    def test_two_point_closed_form(self):
        assert eval_erm(1.0, TWO_POINT) == pytest.approx(0.6201145069582775, abs=1e-12)

    def test_small_beta_limit_is_mean(self):
        assert eval_erm(1e-8, TWO_POINT) == pytest.approx(0.5, abs=1e-6)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = random_interior_dist(rng, B01)
            betas = [-3.0, -1.0, -1e-6, 1e-6, 1.0, 3.0, 10.0]
            vals = [eval_erm(b, d) for b in betas]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_large_beta_stable(self):
        assert np.isfinite(eval_erm(600.0, TWO_POINT))
        assert eval_erm(600.0, TWO_POINT) == pytest.approx(1.0, abs=0.01)

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            eval_erm(0.0, TWO_POINT)
        with pytest.raises(ValueError):
            ERM(0.0)


class TestCE:
    def test_identity_utility_is_mean(self):
        got = eval_ce(lambda x: np.asarray(x), lambda z: np.asarray(z), TWO_POINT)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_square_utility(self):
        got = eval_ce(lambda x: np.asarray(x) ** 2, np.sqrt, TWO_POINT)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_erm_as_ce(self):
        rng = np.random.default_rng(6)
        beta = 1.7
        for _ in range(15):
            d = random_interior_dist(rng, B01)
            got = eval_ce(
                lambda x: np.exp(beta * np.asarray(x)), lambda z: np.log(z) / beta, d
            )
            assert got == pytest.approx(eval_erm(beta, d), abs=1e-10)

    def test_inverse_mismatch_rejected(self):
        spec = CE(lambda x: np.asarray(x) ** 2, lambda x: 2 * np.asarray(x), lambda z: np.asarray(z))
        with pytest.raises(ValueError, match="inverse"):
            evaluate(spec, TWO_POINT)


class TestRDEU:
    def test_identity_weight_value_is_mean(self):
        got = eval_rdeu(lambda y: np.asarray(y), lambda x: np.asarray(x), TWO_POINT)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_square_weight_two_point(self):
        got = eval_rdeu(lambda y: np.asarray(y) ** 2, lambda x: np.asarray(x), TWO_POINT)
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


class TestEvaluateProperties:
    def test_dispatch_matches_family_evaluators(self):
        d = from_samples([1, 2, 3, 4], B05)
        assert evaluate(CVaR(0.3), d) == eval_cvar(0.3, d)
        assert evaluate(ERM(1.2), d) == eval_erm(1.2, d)

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
            shifted = d.shift(t)
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
            g, _ = cvar_distortion(alpha)
            cv = eval_cvar(alpha, d)
            assert eval_srm(phi, phi_int, d) == pytest.approx(cv, abs=1e-10)
            assert eval_drm(g, d) == pytest.approx(cv, abs=1e-10)
            beta = rng.uniform(0.2, 4.0)
            ce = eval_ce(lambda x: np.exp(beta * np.asarray(x)), lambda z: np.log(z) / beta, d)
            assert ce == pytest.approx(eval_erm(beta, d), abs=1e-10)


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
