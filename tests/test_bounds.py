import json
import math

import numpy as np
import pytest

from riskbounds import (
    BoundMethod,
    CVaR,
    ConfidenceResult,
    Distance,
    RadiusRule,
    SupportBounds,
    UnsupportedCombinationError,
    bound_from_samples,
    bound_with_radius,
    from_samples,
    llc,
)
from riskbounds.measures import rdeu_power
from reference import compare_methods
from conftest import catalog_specs, random_interior_dist

B05 = SupportBounds(0.0, 5.0)
B01 = SupportBounds(0.0, 1.0)
EDF = from_samples([1, 2, 3, 4], B05)
SUP, W1 = Distance.SUPREMUM, Distance.WASSERSTEIN1


class TestBoundWithRadius:
    def test_dist_cvar_sup_fixture(self):
        res = bound_with_radius(EDF, CVaR(0.5), SUP, BoundMethod.DIST, 0.25)
        assert res.lcb == pytest.approx(2.5, abs=1e-12)
        assert res.ucb == pytest.approx(4.5, abs=1e-12)
        assert res.point == pytest.approx(3.5, abs=1e-12)

    def test_glc_cvar_sup_fixture(self):
        res = bound_with_radius(EDF, CVaR(0.5), SUP, BoundMethod.GLC, 0.25)
        # raw arithmetic values, then the reported pair clamps into [a, b]
        assert res.extras["raw_lcb"] == pytest.approx(1.0, abs=1e-12)
        assert res.extras["raw_ucb"] == pytest.approx(6.0, abs=1e-12)
        assert (res.lcb, res.ucb) == (1.0, 5.0)

    def test_zero_radius_collapses(self):
        for method in BoundMethod:
            res = bound_with_radius(EDF, CVaR(0.5), SUP, method, 0.0)
            assert res.lcb == res.ucb == res.point

    @pytest.mark.parametrize("c", [-0.1, math.inf, math.nan])
    def test_bad_radius_rejected(self, c):
        # glc and llc never reach an operator, so each checks c itself
        with pytest.raises(ValueError, match="radius must be finite"):
            bound_with_radius(EDF, CVaR(0.5), SUP, BoundMethod.GLC, c)
        with pytest.raises(ValueError, match="radius must be finite"):
            llc(CVaR(0.5), SUP, EDF, c)

    def test_dist_bounds_stay_in_support(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = random_interior_dist(rng, B01)
            c = rng.uniform(0, 2.0)
            for kind in (SUP, W1):
                for _, spec in catalog_specs():
                    if isinstance(spec, rdeu_power(1.5, 2.0).__class__) and kind is W1:
                        continue
                    res = bound_with_radius(d, spec, kind, BoundMethod.DIST, c)
                    assert B01.a - 1e-10 <= res.lcb <= res.ucb <= B01.b + 1e-10

    def test_rdeu_clamps_to_its_attainable_range(self):
        # v(x) = x^2 on [0, 5] puts the risk in [0, 25], so the Lipschitz
        # bounds clamp to that range, not to the support interval
        spec = rdeu_power(2.0, 2.0)
        d = from_samples([1, 2, 3, 4], B05)
        for method in (BoundMethod.GLC, BoundMethod.LLC):
            res = bound_with_radius(d, spec, SUP, method, 0.5)
            assert res.lcb <= res.point <= res.ucb
            assert 0.0 <= res.lcb and res.ucb <= 25.0

    def test_rdeu_w1_rejections(self):
        spec = rdeu_power(2.0, 2.0)
        d = from_samples([0.2, 0.6], B01)
        for method in (BoundMethod.DIST, BoundMethod.LLC):
            with pytest.raises(UnsupportedCombinationError):
                bound_with_radius(d, spec, W1, method, 0.1)
        res = bound_with_radius(d, spec, W1, BoundMethod.GLC, 0.1)
        assert res.lcb <= res.point <= res.ucb
        with pytest.raises(UnsupportedCombinationError, match="use the glc method"):
            bound_with_radius(d, spec, W1, BoundMethod.LLC, 0.1)

    def test_inconsistent_bounds_rejected(self):
        # The slack is relative to the point: 1e-9 * max(1, |point|).
        ConfidenceResult(0.5 + 9e-10, 0.9, BoundMethod.DIST, SUP, 0.1, 0.5)
        with pytest.raises(ValueError, match="inconsistent bounds: lcb=0.6, point=0.5, ucb=0.9"):
            ConfidenceResult(0.6, 0.9, BoundMethod.DIST, SUP, 0.1, 0.5)
        with pytest.raises(ValueError, match="inconsistent bounds"):
            ConfidenceResult(0.1, 0.4, BoundMethod.DIST, SUP, 0.1, 0.5)

    def test_json_schema(self):
        res = bound_with_radius(EDF, CVaR(0.5), SUP, BoundMethod.DIST, 0.25)
        blob = json.loads(json.dumps(res.to_json()))
        assert set(blob) == {"method", "distance", "radius", "point", "lcb", "ucb"}
        assert blob["method"] == "dist" and blob["distance"] == "sup"


class TestCompareMethods:
    def test_cvar_sup_chain_fixture(self):
        res_dist, res_llc, res_glc = compare_methods(EDF, CVaR(0.5), SUP, 0.25)
        assert res_dist.ucb == pytest.approx(4.5, abs=1e-12)
        # local constant at this radius: (5 - F^{-1}(0.25)) / 0.5 = 8
        assert res_llc.extras["lipschitz_constant"] == pytest.approx(8.0, abs=1e-12)
        assert res_llc.extras["raw_ucb"] == pytest.approx(3.5 + 8 * 0.25, abs=1e-12)
        assert res_glc.extras["raw_ucb"] == pytest.approx(6.0, abs=1e-12)
        assert res_dist.ucb <= res_llc.extras["raw_ucb"] <= res_glc.extras["raw_ucb"]

    def test_cvar_w1_llc_equals_glc(self):
        res_dist, res_llc, res_glc = compare_methods(EDF, CVaR(0.5), W1, 0.25)
        assert res_llc.extras["lipschitz_constant"] == res_glc.extras["lipschitz_constant"]
        assert res_dist.ucb <= res_llc.extras["raw_ucb"] + 1e-12

    def test_zero_radius_all_collapse(self):
        triple = compare_methods(EDF, CVaR(0.5), SUP, 0.0)
        assert {r.lcb for r in triple} == {r.ucb for r in triple} == {3.5}

    def test_chain_on_randomized_suite(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = random_interior_dist(rng, B01)
            c = rng.uniform(0.005, 0.8)
            for kind in (SUP, W1):
                for _, spec in catalog_specs():
                    if isinstance(spec, rdeu_power(1.5, 2.0).__class__) and kind is W1:
                        continue
                    res_dist, res_llc, res_glc = compare_methods(d, spec, kind, c)
                    assert res_dist.ucb <= res_llc.extras["raw_ucb"] + 1e-9
                    assert res_llc.extras["raw_ucb"] <= res_glc.extras["raw_ucb"] + 1e-9
                    assert res_dist.lcb >= res_llc.extras["raw_lcb"] - 1e-9
                    assert res_llc.extras["raw_lcb"] >= res_glc.extras["raw_lcb"] - 1e-9


class TestBoundFromSamples:
    def test_composition_matches_manual(self):
        samples = [1, 2, 3, 4]
        res = bound_from_samples(samples, B05, CVaR(0.5), SUP, BoundMethod.DIST, 0.05)
        c = math.sqrt(math.log(40.0) / 8.0)
        manual = bound_with_radius(from_samples(samples, B05), CVaR(0.5), SUP, BoundMethod.DIST, c)
        assert res.radius == pytest.approx(c, abs=1e-15)
        assert (res.lcb, res.ucb) == (manual.lcb, manual.ucb)

    def test_w1_default_rule_scaled_dkw(self):
        res = bound_from_samples([0.1, 0.5, 0.9], B01, CVaR(0.5), W1, BoundMethod.DIST, 0.05)
        assert res.extras["radius_rule"] == "scaled-dkw"
        assert res.radius == pytest.approx(math.sqrt(math.log(40.0) / 6.0), abs=1e-15)

    def test_degenerate_delta_two(self):
        res = bound_from_samples([1, 2, 3, 4], B05, CVaR(0.5), SUP, BoundMethod.DIST, 2.0)
        assert res.radius == 0.0
        assert res.lcb == res.ucb == res.point

    def test_rule_distance_mismatch(self):
        with pytest.raises(ValueError, match="W1"):
            bound_from_samples([1], B05, CVaR(0.5), SUP, BoundMethod.DIST, 0.05, RadiusRule.SCALED_DKW)
        with pytest.raises(ValueError, match="sup"):
            bound_from_samples([1], B05, CVaR(0.5), W1, BoundMethod.DIST, 0.05, RadiusRule.DKW)

    def test_cvar_slope_identity_for_aligned_radius(self):
        # with the radius window inside one quantile cell, the realized
        # upper-bound slope equals (b - F^{-1}(1 - alpha)) / alpha exactly
        alpha, c = 0.45, 0.1  # window [0.55, 0.65] inside the cell of atom 3
        res = bound_with_radius(EDF, CVaR(alpha), SUP, BoundMethod.DIST, c)
        slope = (res.ucb - res.point) / c
        assert slope == pytest.approx((5.0 - EDF.quantile(1 - alpha)) / alpha, abs=1e-12)

    def test_widths_shrink_with_n(self):
        rng = np.random.default_rng(2)
        widths = []
        for n in (50, 500, 5000):
            samples = rng.beta(2, 5, n)
            res = bound_from_samples(samples, B01, CVaR(0.25), SUP, BoundMethod.DIST, 0.05)
            widths.append(res.ucb - res.lcb)
        assert widths[0] > widths[1] > widths[2]
