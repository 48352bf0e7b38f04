import math
import re

import numpy as np
import pytest
from scipy.stats import kstwo

from riskbounds import (
    Distance,
    RadiusRule,
    SupportBounds,
    confidence_radius,
    dkw_radius,
    from_samples,
    scaled_dkw_radius,
    w1_radius,
)
from reference import distance

B01 = SupportBounds(0.0, 1.0)
B05 = SupportBounds(0.0, 5.0)

# frozen from a 40-digit evaluation of the closed forms
DKW_50_005 = 0.1920645582639841520340179692363847262052
DKW_200_01 = 0.08654091913011426690915043603275527832489
W1RAW_100_005 = 27.88290966649214436353150936278662369791


class TestDKW:
    def test_degenerate_delta_two(self):
        assert dkw_radius(17, 2.0) == 0.0

    def test_frozen_values(self):
        assert dkw_radius(50, 0.05) == pytest.approx(DKW_50_005, abs=1e-15)
        assert dkw_radius(200, 0.1) == pytest.approx(DKW_200_01, abs=1e-15)

    def test_covers_exact_kolmogorov_law(self):
        # Massart (1990): P(sup|F_n - F| > dkw_radius(n, delta)) <= delta for
        # every continuous F; kstwo is that probability exactly. n stops at
        # 10^4, where the largest sf/delta is about 0.992: DKW is
        # asymptotically tight, so beyond that the margin nears kstwo's own
        # accuracy.
        for n in [*range(1, 201), 500, 1_000, 2_000, 5_000, 10_000]:
            for delta in (1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.5, 1.0):
                assert kstwo.sf(dkw_radius(n, delta), n) <= delta, (n, delta)

    def test_domain(self):
        with pytest.raises(ValueError):
            dkw_radius(0, 0.05)
        with pytest.raises(ValueError):
            dkw_radius(10, 0.0)
        with pytest.raises(ValueError):
            dkw_radius(10, 2.5)


class TestW1Direct:
    def test_clamped_to_width(self):
        assert w1_radius(100, 0.05, B01) == 1.0

    def test_unclamped_formula(self):
        raw = 256.0 / math.sqrt(100) + 8.0 * math.sqrt(math.e * math.log(20.0) / 100)
        assert raw == pytest.approx(W1RAW_100_005, abs=1e-12)
        # the 256/sqrt(n) term keeps the value above the width until n >> 256^2
        n = 10**6
        expected = 256.0 / 1000.0 + 8.0 * math.sqrt(math.e * math.log(20.0) / n)
        assert expected < 1.0
        assert w1_radius(n, 0.05, B01) == pytest.approx(expected, abs=1e-15)

    def test_delta_one_drops_log_term(self):
        assert w1_radius(10**8, 1.0, B01) == pytest.approx(0.0256, abs=1e-15)

    def test_width_homogeneous(self):
        assert w1_radius(10**8, 1.0, SupportBounds(0.0, 0.5)) == pytest.approx(0.0128)

    def test_validity_condition(self):
        with pytest.raises(ValueError, match="log"):
            w1_radius(2, 0.05, B01)  # log(20) = 3.0 > 2
        w1_radius(4, 0.05, B01)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            w1_radius(100, 1.5, B01)


class TestScaledDKW:
    def test_matches_product(self):
        assert scaled_dkw_radius(50, 0.05, B01) == pytest.approx(DKW_50_005, abs=1e-15)
        assert scaled_dkw_radius(50, 0.05, B05) == pytest.approx(5 * DKW_50_005, abs=1e-14)
        assert scaled_dkw_radius(50, 2.0, B05) == 0.0

    def test_is_valid_w1_radius_on_random_pairs(self):
        # ||F - G||_1 <= (b - a) ||F - G||_inf on [a, b]
        rng = np.random.default_rng(0)
        for _ in range(40):
            x = rng.uniform(0, 5, rng.integers(1, 30))
            y = rng.uniform(0, 5, rng.integers(1, 30))
            f, g = from_samples(x, B05), from_samples(y, B05)
            w1 = distance(f, g, Distance.WASSERSTEIN1)
            sup = distance(f, g, Distance.SUPREMUM)
            assert w1 <= B05.width * sup + 1e-12


class TestMonotonicityAndDispatch:
    def test_decreasing_in_n_nonincreasing_in_delta(self):
        # the direct W1 rule sits on its width clamp at small n, so strict
        # decrease is asserted in its unclamped regime
        n_grid = {
            RadiusRule.DKW: (10, 40, 200, 1000),
            RadiusRule.SCALED_DKW: (10, 40, 200, 1000),
            RadiusRule.W1_DIRECT: (10**5, 10**6, 10**7),
        }
        for rule in RadiusRule:
            vals_n = [confidence_radius(rule, n, 0.1, B01) for n in n_grid[rule]]
            assert all(a > b for a, b in zip(vals_n, vals_n[1:]))
            vals_d = [confidence_radius(rule, 10**6, d, B01) for d in (0.01, 0.05, 0.2, 1.0)]
            assert all(a >= b for a, b in zip(vals_d, vals_d[1:]))
            assert min(vals_n + vals_d) >= 0.0

    @pytest.mark.parametrize("rule, delta, bounds", [
        (RadiusRule.DKW, 1e-320, B01),  # 2/delta overflows
        (RadiusRule.SCALED_DKW, 1e-320, B01),
        (RadiusRule.SCALED_DKW, 1e-300, SupportBounds(0.0, 1e308)),  # the width times the DKW radius does
    ])
    def test_overflowing_radius_rejected(self, rule, delta, bounds):
        message = f"the {rule.value} radius for n=5 and delta={delta} on [0.0, {bounds.b}] is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            confidence_radius(rule, 5, delta, bounds)

    @pytest.mark.parametrize("bounds", [B01, None])
    def test_a_non_rule_is_unknown_with_or_without_bounds(self, bounds):
        # Without bounds it once reached the "needs support bounds" message
        # and failed formatting ``rule.value`` with an AttributeError.
        with pytest.raises(ValueError, match="unknown radius rule 'dkw'"):
            confidence_radius("dkw", 10, 0.05, bounds)
