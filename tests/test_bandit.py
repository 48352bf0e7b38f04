import dataclasses
import math

import numpy as np
import pytest

from riskbounds import (
    BanditInstance,
    BoundMethod,
    CVaR,
    DiracArm,
    DiscreteArm,
    SupportBounds,
    UniformArm,
    evaluate,
    from_samples,
    instance_from_dict,
    instance_to_dict,
    neg_sup,
    regret_bound,
    run_lcb,
    solve_cstar,
    true_risk,
)
import riskbounds.bandit as bandit_module
from riskbounds.bandit import (
    BetaArm,
    _sorted_cvar,
    _sorted_cvar_neg_sup,
    _sorted_quantile,
)
from riskbounds.measures import ERM, parse_risk

B01 = SupportBounds(0.0, 1.0)

TWO_DIRAC = BanditInstance(B01, (DiracArm(0.2), DiracArm(0.8)), 100, CVaR(0.25), seed=11)


class TestTrueRisk:
    def test_dirac(self):
        assert true_risk(DiracArm(0.3), CVaR(0.1), B01) == pytest.approx(0.3, abs=1e-14)

    def test_uniform_cvar_analytic(self):
        got = true_risk(UniformArm(0, 1), CVaR(0.4), B01)
        assert got == pytest.approx(1 - 0.4 / 2, abs=1e-9)

    def test_discrete_exact(self):
        d = from_samples([0.1, 0.5, 0.9], B01)
        assert true_risk(DiscreteArm(d), CVaR(0.25), B01) == evaluate(CVaR(0.25), d)

    def test_quadrature_cached_across_parses(self, monkeypatch):
        calls = []
        original = bandit_module.quadrature_risk

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bandit_module, "quadrature_risk", counting)
        bandit_module._cached_quadrature.cache_clear()
        arm = BetaArm(2, 5)
        first = true_risk(arm, parse_risk("srm-power:2"), B01)
        second = true_risk(arm, parse_risk("srm-power:2"), B01)
        assert first == second
        assert len(calls) == 1


class TestRunLcb:
    def test_single_arm_zero_regret(self):
        inst = BanditInstance(B01, (BetaArm(2, 5),), 50, CVaR(0.25), seed=0)
        trace = run_lcb(inst, "dist")
        assert trace.final_regret == 0.0
        assert trace.pulls[0] == 50

    def test_horizon_equals_arms_initialization_only(self):
        inst = BanditInstance(B01, (DiracArm(0.2), DiracArm(0.5), DiracArm(0.8)), 3, CVaR(0.25), seed=0)
        for variant in BoundMethod:
            trace = run_lcb(inst, variant)
            assert list(trace.chosen) == [0, 1, 2]

    def test_deterministic_per_seed(self):
        t1 = run_lcb(TWO_DIRAC, "dist")
        t2 = run_lcb(TWO_DIRAC, "dist")
        assert np.array_equal(t1.chosen, t2.chosen)
        assert np.array_equal(t1.losses, t2.losses)

    def test_two_dirac_fixture_trace(self):
        # seeded fixture: the suboptimal arm is dropped once its index
        # clears the optimal arm's index
        trace = run_lcb(TWO_DIRAC, "dist")
        assert trace.pulls.sum() == 100
        assert trace.pulls[0] > trace.pulls[1]
        assert list(trace.pulls) == [87, 13]
        assert trace.final_regret == pytest.approx(13 * 0.6, abs=1e-12)

    def test_trace_consistency(self):
        for variant in BoundMethod:
            tr = run_lcb(dataclasses.replace(TWO_DIRAC, seed=3), variant)
            tr.validate()
            assert np.all(np.diff(tr.cum_regret) >= -1e-15)
            assert tr.chosen.size == TWO_DIRAC.horizon

    def test_string_and_enum_variants_agree(self):
        assert np.array_equal(run_lcb(TWO_DIRAC, "glc").chosen, run_lcb(TWO_DIRAC, BoundMethod.GLC).chosen)

    def test_generic_risk_path(self):
        # non-CVaR risk exercises the generic operator-based index
        inst = BanditInstance(B01, (DiracArm(0.2), DiracArm(0.8)), 40, ERM(2.0), seed=5)
        trace = run_lcb(inst, "dist")
        trace.validate()
        assert trace.pulls[0] > trace.pulls[1]

    def test_invalid_instances_rejected(self):
        with pytest.raises(ValueError):
            BanditInstance(B01, (), 10, CVaR(0.25))
        with pytest.raises(ValueError):
            BanditInstance(B01, (DiracArm(0.2), DiracArm(0.8)), 1, CVaR(0.25))
        with pytest.raises(ValueError):
            BanditInstance(B01, (DiracArm(1.5),), 10, CVaR(0.25))


class TestFastPathConsistency:
    def test_sorted_helpers_match_generic(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            arr = np.sort(rng.random(n))
            if np.unique(arr).size < n:
                continue
            d = from_samples(arr, B01)
            alpha = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.0, 1.3)
            assert _sorted_cvar(arr, alpha) == pytest.approx(
                evaluate(CVaR(alpha), d), abs=1e-11
            )
            assert _sorted_cvar_neg_sup(arr, alpha, c, 0.0) == pytest.approx(
                evaluate(CVaR(alpha), neg_sup(d, c)), abs=1e-11
            )
            y = rng.uniform(1e-6, 1.0)
            assert _sorted_quantile(arr, y) == d.quantile(y)


class TestSolveCstar:
    def test_uniform_closed_form(self):
        c_star = solve_cstar(UniformArm(0, 1), 0.1, 0.25, B01)
        assert c_star == pytest.approx((math.sqrt(10.4) - 2) / 32, abs=1e-11)
        corrected = 1.0 - (1.0 - 0.25 - 2 * c_star)
        assert corrected == pytest.approx(0.3265564437074637, abs=1e-9)

    def test_dirac_linear_inversion(self):
        # g(c) = 2 c (b - x) / alpha  =>  c* = alpha gap / (2 (b - x))
        c_star = solve_cstar(DiracArm(0.5), 0.2, 0.25, B01)
        assert c_star == pytest.approx(0.25 * 0.2 / (2 * 0.5), abs=1e-11)

    def test_gap_to_zero(self):
        vals = [solve_cstar(UniformArm(0, 1), gap, 0.25, B01) for gap in (0.1, 0.01, 0.001)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_cstar(UniformArm(0, 1), 0.0, 0.25, B01)
        with pytest.raises(ValueError):
            solve_cstar(UniformArm(0, 1), 0.1, 0.75, B01)


class TestRegretBound:
    def test_single_arm_zero(self):
        inst = BanditInstance(B01, (DiracArm(0.3),), 100, CVaR(0.25))
        assert regret_bound(inst) == 0.0

    def test_two_dirac_frozen_value(self):
        inst = BanditInstance(B01, (DiracArm(0.2), DiracArm(0.8)), 10_000, CVaR(0.25))
        # 4 log(sqrt(2) 1e4)/alpha^2 * (0.2^2/0.6) + 3 * 0.6, with the
        # quantile at the solved radius collapsing to the upper arm's atom
        expected = 4 * math.log(math.sqrt(2.0) * 1e4) / 0.0625 * (0.04 / 0.6) + 1.8
        assert regret_bound(inst) == pytest.approx(expected, abs=1e-9)
        assert regret_bound(inst) == pytest.approx(42.57616623895959, abs=1e-9)

    def test_non_cvar_rejected(self):
        inst = BanditInstance(B01, (DiracArm(0.2),), 10, ERM(1.0))
        with pytest.raises(ValueError):
            regret_bound(inst)


class TestInstanceIO:
    def test_round_trip(self):
        obj = {
            "bounds": {"a": 0.0, "b": 1.0},
            "risk": "cvar:0.25",
            "horizon": 500,
            "seed": 3,
            "arms": [
                {"family": "dirac", "params": {"x": 0.2}},
                {"family": "uniform", "params": {"lo": 0.1, "hi": 0.9}},
                {"family": "beta", "params": {"shape_a": 2, "shape_b": 5}},
                {"family": "truncnormal", "params": {"mu": 0.4, "sigma": 0.1}},
                {"family": "discrete", "params": {"atoms": [{"x": 0.3, "p": 0.5}, {"x": 0.7, "p": 0.5}]}},
            ],
        }
        inst = instance_from_dict(obj)
        assert len(inst.arms) == 5 and inst.horizon == 500
        back = instance_to_dict(inst)
        assert instance_from_dict(back) == inst

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            instance_from_dict(
                {"bounds": {"a": 0, "b": 1}, "risk": "cvar:0.5", "horizon": 5,
                 "arms": [{"family": "cauchy", "params": {}}]}
            )

    def test_fixture_file_loads(self):
        import os

        from riskbounds import load_instance

        path = os.path.join(os.path.dirname(__file__), "fixtures", "bandit_4arm.json")
        inst = load_instance(path)
        assert len(inst.arms) == 4
        assert isinstance(inst.risk, CVaR) and inst.risk.alpha == 0.25
        assert inst.horizon == 10_000
