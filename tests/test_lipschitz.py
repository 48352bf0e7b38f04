import math

import numpy as np
import pytest

from riskbounds import (
    DEFAULT_GRID_POINTS,
    CVaR,
    DiscreteDistribution,
    Distance,
    SupportBounds,
    UnsupportedCombinationError,
    from_samples,
    glc,
    llc,
    neg_sup,
    neg_w1,
)
from riskbounds.cli import main
from riskbounds.measures import ERM, RDEU, ce_power, drm_power, rdeu_power, srm_power
from conftest import catalog_specs, quad_drm, random_interior_dist

B05 = SupportBounds(0.0, 5.0)
B01 = SupportBounds(0.0, 1.0)
EDF = from_samples([1, 2, 3, 4], B05)
SUP, W1 = Distance.SUPREMUM, Distance.WASSERSTEIN1


class TestGlobalConstants:
    def test_cvar(self):
        assert glc(CVaR(0.5), SUP, B05) == pytest.approx(10.0, abs=1e-12)
        assert glc(CVaR(0.5), W1, B05) == pytest.approx(2.0, abs=1e-12)

    def test_erm(self):
        assert glc(ERM(1.0), W1, B01) == pytest.approx(math.e, abs=1e-12)
        assert glc(ERM(1.0), SUP, B01) == pytest.approx(math.e - 1.0, abs=1e-12)
        assert glc(ERM(2.0), SUP, B05) == pytest.approx(math.expm1(10.0) / 2.0, rel=1e-12)

    def test_erm_negative_beta_unsupported(self):
        with pytest.raises(UnsupportedCombinationError):
            glc(ERM(-1.0), SUP, B01)

    def test_srm_power(self):
        spec = srm_power(3.0)  # phi(1) = 3
        assert glc(spec, W1, B05) == pytest.approx(3.0)
        assert glc(spec, SUP, B05) == pytest.approx(15.0)

    def test_drm_power_unbounded_derivative_reported(self):
        spec = drm_power(0.5)
        assert glc(spec, W1, B01) == math.inf
        assert glc(spec, SUP, B01) == math.inf
        bounded = quad_drm()  # g' <= 2
        assert glc(bounded, W1, B01) == pytest.approx(2.0)
        assert glc(bounded, SUP, B05) == pytest.approx(10.0)

    def test_ce_power(self):
        spec = ce_power(2.0)
        # u'(x) = 2x vanishes at a = 0: no finite global constant
        assert glc(spec, SUP, B01) == math.inf
        shifted = SupportBounds(1.0, 2.0)
        #  ||u'||_1 / u'(a) = (4 - 1) / 2 ;  ||u'||_inf / u'(a) = 4 / 2
        assert glc(spec, SUP, shifted) == pytest.approx(1.5)
        assert glc(spec, W1, shifted) == pytest.approx(2.0)

    def test_rdeu_power(self):
        spec = rdeu_power(2.0, 2.0)  # w' max 2; v = x^2
        assert glc(spec, SUP, B01) == pytest.approx(2.0 * 1.0, rel=1e-3)
        assert glc(spec, W1, B01) == pytest.approx(2.0 * 2.0, rel=1e-3)


class TestLocalConstants:
    def test_cvar_sup_example(self):
        assert llc(CVaR(0.5), SUP, EDF, 0.1) == pytest.approx(6.0, abs=1e-12)

    def test_cvar_w1_no_improvement(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = random_interior_dist(rng, B05)
            assert llc(CVaR(0.3), W1, d, rng.uniform(0, 1)) == pytest.approx(10 / 3)

    def test_srm_constant_spectrum(self):
        spec = srm_power(1.0)  # phi = 1 everywhere
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = random_interior_dist(rng, B05)
            assert llc(spec, SUP, d, rng.uniform(0, 1.5)) == pytest.approx(B05.width)

    def test_cvar_sup_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = random_interior_dist(rng, B05)
            alpha = rng.uniform(0.05, 0.9)
            c = rng.uniform(0.0, 1.2)
            local = llc(CVaR(alpha), SUP, d, c)
            y = 1.0 - alpha - c
            q = B05.a if y <= 0 else d.quantile(y)
            assert local * alpha + q == pytest.approx(B05.b, abs=1e-10)

    def test_local_at_most_global(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = random_interior_dist(rng, B01)
            c = rng.uniform(0.0, 1.2)
            for _, spec in catalog_specs():
                for kind in (SUP, W1):
                    if isinstance(spec, RDEU) and kind is W1:
                        continue
                    assert llc(spec, kind, d, c) <= glc(spec, kind, d.bounds) * (1 + 1e-12)

    def test_nondecreasing_in_radius(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = random_interior_dist(rng, B01)
            cs = np.sort(rng.uniform(0.0, 1.2, 3))
            for _, spec in catalog_specs():
                vals = [llc(spec, SUP, d, c) for c in cs]
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_saturation_reaches_global(self):
        rng = np.random.default_rng(5)
        specs = [CVaR(0.3), srm_power(2.0), quad_drm()]
        for _ in range(10):
            d = random_interior_dist(rng, B05)
            for spec in specs:
                assert llc(spec, SUP, d, 1.0) == pytest.approx(
                    glc(spec, SUP, B05), rel=1e-12
                )

    def test_erm_local_formulas(self):
        beta = 1.5
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = random_interior_dist(rng, B01)
            c = rng.uniform(0.0, 0.8)
            lowered_sup = neg_sup(d, c)
            exp_moment = float(np.sum(lowered_sup.ps * np.exp(beta * lowered_sup.xs)))
            expected = (math.exp(beta * 1.0) - 1.0) / (beta * exp_moment)
            assert llc(ERM(beta), SUP, d, c) == pytest.approx(expected, rel=1e-10)

    def test_erm_local_constant_beyond_float_range_is_inf(self):
        # exp(beta * (b - x)) overflows for beta = 1e4; like glc, report inf
        for dist_kind in (SUP, W1):
            assert llc(ERM(1e4), dist_kind, EDF, 0.1) == math.inf

    def test_unbounded_derivative_at_the_support_edge(self):
        # top atom at b: the singular g'(0) only sits on a zero-width
        # segment, so the integral is finite (and must not become nan)
        at_bound = DiscreteDistribution([2.0, 5.0], [0.5, 0.5], B05)
        got = llc(drm_power(0.5), SUP, at_bound, 0.0)
        assert got == pytest.approx(1.0 + 3.0 * 0.5 / math.sqrt(0.5), abs=1e-12)
        # top atom below b: g'(0) is integrated over [4, 5), honestly infinite
        interior = DiscreteDistribution([2.0, 4.0], [0.5, 0.5], B05)
        assert llc(drm_power(0.5), SUP, interior, 0.0) == math.inf

    @pytest.mark.parametrize("spec", [CVaR(0.3), srm_power(2.0), drm_power(0.5), drm_power(1.0)])
    def test_w1_local_is_global_for_quantile_families(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d = random_interior_dist(rng, B05)
            for c in (0.0, 0.1, 3.0):
                assert llc(spec, W1, d, c) == glc(spec, W1, B05)

    def test_rdeu_w1_unsupported(self):
        with pytest.raises(UnsupportedCombinationError, match="W1"):
            llc(rdeu_power(2.0, 2.0), W1, EDF, 0.1)

    def test_rdeu_sup_needs_convex_weight(self):
        concave_w = RDEU(
            lambda y: np.sqrt(np.asarray(y)),
            lambda y: 0.5 / np.sqrt(np.maximum(np.asarray(y), 1e-12)),
            lambda x: np.asarray(x),
            lambda x: np.ones_like(np.asarray(x)),
        )
        with pytest.raises(ValueError, match="convex"):
            llc(concave_w, SUP, from_samples([0.2, 0.6], B01), 0.1)

    def test_ce_w1_supported(self):
        # ||u'||_inf * (u^{-1})'(lowered expected utility) with u = x^2:
        # 2b / (2 * CE of the W1-lowered transform)
        from riskbounds import evaluate

        spec = ce_power(2.0)
        d = from_samples([0.3, 0.6], B01)
        c = 0.05
        ce_low = evaluate(spec, neg_w1(d, c))
        assert llc(spec, W1, d, c) == pytest.approx(1.0 / ce_low, rel=1e-10)


class TestLoweredExtremeAndCaching:
    @pytest.mark.parametrize("c", [0.0, 0.05, 1.5])
    def test_passed_lowered_extreme_is_bitwise_the_default(self, c):
        rng = np.random.default_rng(8)
        centers = [from_samples(rng.beta(2.0, 5.0, n), B01) for n in (1, 7, 60)]
        centers.append(DiscreteDistribution([0.0, 0.4, 1.0], [0.2, 0.5, 0.3], B01))
        ops = {SUP: neg_sup, W1: neg_w1}
        for d in centers:
            for _, spec in catalog_specs():
                for kind, op in ops.items():
                    if isinstance(spec, RDEU) and kind is W1:
                        continue
                    want = llc(spec, kind, d, c)
                    got = llc(spec, kind, d, c, lowered=lambda: op(d, c))
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_convex_weight_check_runs_once_per_spec(self):
        grid_calls = []

        def w_prime(y):
            y = np.asarray(y, dtype=np.float64)
            if y.size == DEFAULT_GRID_POINTS:
                grid_calls.append(1)
            return 2.0 * y

        spec = RDEU(
            lambda y: np.asarray(y) ** 2, w_prime, lambda x: np.asarray(x), lambda x: np.ones_like(np.asarray(x))
        )
        rng = np.random.default_rng(9)
        for _ in range(50):
            llc(spec, SUP, random_interior_dist(rng, B01), rng.uniform(0.0, 0.5))
        assert len(grid_calls) == 1

    @pytest.mark.parametrize(
        "risk, distance, method",
        [("rdeu-power:2,2", "w1", "llc"), ("erm:-1", "sup", "llc"), ("erm:-1", "sup", "glc"),
         ("erm:-1", "w1", "llc"), ("erm:-1", "w1", "glc")],
    )
    def test_unsupported_constants_exit_3_on_every_call(self, risk, distance, method, tmp_path, capsys):
        # The caches keep values only: a rejected combination is rejected
        # again on the next call in the same process.
        path = tmp_path / "unit.csv"
        path.write_text("0.25\n0.75\n")
        argv = ["ci", "--input", str(path), "--bounds", "0,1", "--risk", risk,
                "--distance", distance, "--method", method]
        assert [main(argv), main(argv)] == [3, 3]
        assert capsys.readouterr().err.count("unsupported combination: ") == 2
