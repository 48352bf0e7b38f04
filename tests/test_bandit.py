import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds import (
    BanditInstance,
    BoundMethod,
    CVaR,
    DiracArm,
    DiscreteArm,
    DiscreteDistribution,
    Distance,
    RegretTrace,
    SupportBounds,
    UniformArm,
    evaluate,
    from_samples,
    glc,
    instance_from_dict,
    llc,
    neg_sup,
    regret_bound,
    run_lcb,
    solve_cstar,
    true_risk,
)
import riskbounds.bandit as bandit_module
from riskbounds.bandit import (
    _INITIAL_CAPACITY,
    BetaArm,
    TruncNormalArm,
    _sorted_cvar,
    _sorted_cvar_neg_sup,
    _sorted_quantile,
    _sorted_quantile_integral,
)
from riskbounds.cli import main
from riskbounds.measures import ERM, parse_risk
from reference import instance_to_dict, sorted_quantile_integral

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


def _assert_consistent(trace: RegretTrace, horizon: int) -> None:
    """One pull a round, pull counts that match the chosen arms, and a
    cumulative regret that never falls."""
    assert trace.chosen.size == trace.losses.size == trace.cum_regret.size == horizon
    assert int(trace.pulls.sum()) == horizon
    assert np.array_equal(np.bincount(trace.chosen, minlength=trace.pulls.size), trace.pulls)
    assert np.all(np.diff(trace.cum_regret) >= 0.0)


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
            _assert_consistent(tr, TWO_DIRAC.horizon)

    def test_string_and_enum_variants_agree(self):
        assert np.array_equal(run_lcb(TWO_DIRAC, "glc").chosen, run_lcb(TWO_DIRAC, BoundMethod.GLC).chosen)

    def test_generic_risk_path(self):
        # non-CVaR risk exercises the generic operator-based index
        inst = BanditInstance(B01, (DiracArm(0.2), DiracArm(0.8)), 40, ERM(2.0), seed=5)
        for variant in BoundMethod:
            trace = run_lcb(inst, variant)
            _assert_consistent(trace, inst.horizon)
            assert trace.pulls[0] > trace.pulls[1], variant

    def test_invalid_instances_rejected(self):
        with pytest.raises(ValueError):
            BanditInstance(B01, (), 10, CVaR(0.25))
        with pytest.raises(ValueError):
            BanditInstance(B01, (DiracArm(0.2), DiracArm(0.8)), 1, CVaR(0.25))
        with pytest.raises(ValueError):
            BanditInstance(B01, (DiracArm(1.5),), 10, CVaR(0.25))
        for arm in [BetaArm(math.nan, 2), BetaArm(2, math.inf), TruncNormalArm(math.nan, 0.1),
                    TruncNormalArm(0.5, math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                BanditInstance(B01, (arm,), 10, CVaR(0.25))
        # Both normal probabilities at 0 and 1 round to 1, both complements to 0.
        with pytest.raises(ValueError, match="no probability mass"):
            BanditInstance(B01, (TruncNormalArm(-50, 0.1),), 10, CVaR(0.25))
        wider = DiscreteArm(DiscreteDistribution([0.5], [1.0], SupportBounds(0.0, 2.0)))
        with pytest.raises(ValueError, match="discrete arm bounds disagree with the instance bounds"):
            BanditInstance(B01, (wider,), 10, CVaR(0.25))

    def test_far_tail_truncnormal_accepted(self):
        # ndtr rounds both endpoints to 1, but their complements keep the mass.
        arm = TruncNormalArm(-9, 1)
        BanditInstance(B01, (arm,), 10, CVaR(0.25))
        assert 0.0 < true_risk(arm, CVaR(0.25), B01) < 1.0
        cdf = arm.cdf(np.linspace(0.0, 1.0, 101), B01)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0 and np.all(np.diff(cdf) > 0.0)


def _reference_run_lcb(instance, variant):
    """``run_lcb`` as it stood before the per-arm sorted buffers: np.insert
    reallocates an arm's sample array every round, and a truncated-normal
    loss is the vector quantile of one uniform."""
    variant = BoundMethod(variant)
    rng = np.random.default_rng(instance.seed)
    arms, bounds, spec = instance.arms, instance.bounds, instance.risk
    K, N = len(arms), instance.horizon
    log_term = math.log(2.0 * K * N * N)
    a, b = bounds.a, bounds.b
    risks = np.array([true_risk(arm, spec, bounds) for arm in arms])
    glc_const = glc(spec, Distance.SUPREMUM, bounds) if variant is BoundMethod.GLC else None
    fast_cvar = isinstance(spec, CVaR)
    samples = [np.empty(0) for _ in range(K)]
    index = np.full(K, -np.inf)
    chosen = np.empty(N, dtype=np.int64)
    losses = np.empty(N)

    def refresh(i):
        arr = samples[i]
        c = math.sqrt(log_term / arr.size)
        if fast_cvar:
            alpha = spec.alpha
            if variant is BoundMethod.DIST:
                index[i] = _sorted_cvar_neg_sup(arr, alpha, c, a)
            elif variant is BoundMethod.LLC:
                y = 1.0 - alpha - c
                local = (b - (a if y <= 0.0 else _sorted_quantile(arr, y))) / alpha
                index[i] = _sorted_cvar(arr, alpha) - local * c
            else:
                index[i] = _sorted_cvar(arr, alpha) - glc_const * c
            return
        edf = from_samples(arr, bounds)
        if variant is BoundMethod.DIST:
            index[i] = evaluate(spec, neg_sup(edf, c))
        elif variant is BoundMethod.LLC:
            index[i] = evaluate(spec, edf) - llc(spec, Distance.SUPREMUM, edf, c) * c
        else:
            index[i] = evaluate(spec, edf) - glc_const * c

    for t in range(N):
        i = t if t < K else int(np.argmin(index))
        if isinstance(arms[i], TruncNormalArm):
            loss = float(arms[i].quantile(rng.random(1), bounds)[0])
        else:
            loss = float(arms[i].sample(rng, 1, bounds)[0])
        arr = samples[i]
        samples[i] = np.insert(arr, int(np.searchsorted(arr, loss)), loss)
        refresh(i)
        chosen[t] = i
        losses[t] = loss
    instant = risks[chosen] - risks.min()
    return chosen, losses, np.cumsum(instant)


def _reference_bandit_files(instance, seeds):
    """The files ``cmd_bandit`` wrote with per-element numpy indexing and
    ``repr(float(x))``, before its rows were formatted from lists."""
    def fmt(x):
        return repr(float(x))

    files = {}
    curve_lines = ["round,variant,mean_cum_regret,std_cum_regret"]
    for variant in BoundMethod:
        traces = [run_lcb(dataclasses.replace(instance, seed=instance.seed + s), variant) for s in range(seeds)]
        for s, tr in enumerate(traces):
            lines = ["round,arm,loss,cum_regret"]
            for t in range(tr.chosen.size):
                lines.append(f"{t},{tr.chosen[t]},{fmt(tr.losses[t])},{fmt(tr.cum_regret[t])}")
            files[f"trace_{variant.value}_{s}.csv"] = "\n".join(lines) + "\n"
        curves = np.stack([tr.cum_regret for tr in traces])
        mean_curve = curves.mean(axis=0)
        std_curve = curves.std(axis=0, ddof=1) if len(traces) > 1 else np.zeros_like(mean_curve)
        for t in range(mean_curve.size):
            curve_lines.append(f"{t},{variant.value},{fmt(mean_curve[t])},{fmt(std_curve[t])}")
    files["aggregate_curves.csv"] = "\n".join(curve_lines) + "\n"
    return files


# One arm of every family. The normal probability below a exceeds 0.5 for
# TruncNormalArm(-0.5, 0.4) and rounds to 1 for the far-tail (-9, 1), so
# each of their draws takes the complement (u > 0.5) branch; the discrete
# arm and the Dirac arm repeat losses, so the buffers hold ties.
MIXED_ARMS = (
    DiracArm(0.45),
    UniformArm(0.1, 0.7),
    BetaArm(2, 5),
    TruncNormalArm(0.3, 0.15),
    TruncNormalArm(-0.5, 0.4),
    TruncNormalArm(-9, 1),
    DiscreteArm(DiscreteDistribution([0.1, 0.3, 0.9], [0.3, 0.5, 0.2], B01)),
)


class TestBufferedLoop:
    """``run_lcb`` keeps each arm's losses in a sorted buffer that doubles
    when full, and draws a truncated-normal loss on Python floats; both must
    reproduce the old loop bit for bit."""

    @pytest.mark.parametrize("risk, horizon", [("cvar:0.25", 2000), ("srm-power:2", 1000)], ids=["cvar", "srm"])
    @pytest.mark.parametrize("variant", list(BoundMethod), ids=lambda v: v.value)
    def test_matches_reference_loop(self, risk, horizon, variant):
        inst = BanditInstance(B01, MIXED_ARMS, horizon, parse_risk(risk), seed=4)
        trace = run_lcb(inst, variant)
        chosen, losses, cum_regret = _reference_run_lcb(inst, variant)
        assert trace.chosen.tobytes() == chosen.tobytes()
        assert trace.losses.tobytes() == losses.tobytes()
        assert trace.cum_regret.tobytes() == cum_regret.tobytes()
        # The most-pulled arm's buffer doubled at least three times.
        assert trace.pulls.max() > 4 * _INITIAL_CAPACITY

    def test_cli_files_match_reference_formatter(self, tmp_path):
        inst = BanditInstance(B01, MIXED_ARMS[:4], 300, CVaR(0.25), seed=2)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        out = tmp_path / "runs"
        assert main(["bandit", "--instance", str(path), "--seeds", "2", "--out", str(out)]) == 0
        expected = _reference_bandit_files(inst, 2)
        assert sorted(expected) == sorted(p.name for p in out.glob("*.csv"))
        for name, text in expected.items():
            assert (out / name).read_text(encoding="utf-8") == text, name


class TestIndexTies:
    """Two identical Dirac arms hold bitwise equal indices whenever their
    pull counts match. The tie goes to the lower-numbered arm, as
    np.argmin picks the first minimum."""

    @pytest.mark.parametrize("risk", ["cvar:0.25", "srm-power:2"], ids=["cvar", "srm"])
    @pytest.mark.parametrize("variant", list(BoundMethod), ids=lambda v: v.value)
    def test_first_minimum_wins(self, risk, variant):
        arms = (DiracArm(0.3), DiracArm(0.3), TruncNormalArm(0.5, 0.1))
        inst = BanditInstance(B01, arms, 300, parse_risk(risk), seed=3)
        trace = run_lcb(inst, variant)
        chosen, losses, cum_regret = _reference_run_lcb(inst, variant)
        assert trace.chosen.tobytes() == chosen.tobytes()
        assert trace.losses.tobytes() == losses.tobytes()
        assert trace.cum_regret.tobytes() == cum_regret.tobytes()
        # Ties arise: both Dirac arms are pulled, arm 0 at least as often.
        assert trace.pulls[0] >= trace.pulls[1] > 10


@st.composite
def _truncnormal_draw_cases(draw):
    """(arm, bounds, seed, tail): bounds off zero and up to 10^3 wide; a tail
    arm sits 37.5 to 38.5 standard deviations below a or above b, where every
    level of its branch falls under the 1e-300 floor."""
    a = draw(st.one_of(st.floats(-100.0, -1e-3), st.floats(1e-3, 100.0)))
    width = draw(st.floats(1e-3, 1e3))
    bounds = SupportBounds(a, a + width)
    sigma = width * draw(st.floats(1e-3, 1e2))
    tail = draw(st.sampled_from(["none", "below", "above"]))
    if tail == "none":
        mu = a + width * draw(st.floats(-3.0, 4.0))
    elif tail == "below":
        mu = a - sigma * draw(st.floats(37.5, 38.5))
    else:
        mu = bounds.b + sigma * draw(st.floats(37.5, 38.5))
    return TruncNormalArm(mu, sigma), bounds, draw(st.integers(0, 2**32 - 1)), tail


class TestOneDrawSample:
    @settings(max_examples=300, deadline=None)
    @given(case=_truncnormal_draw_cases())
    def test_one_draw_matches_quantile(self, case):
        arm, bounds, seed, tail = case
        lo, hi, lo_c, hi_c = arm._ends(bounds)
        if tail == "below":  # complement branch, every level floored
            assert lo == hi == 1.0 and max(lo_c, hi_c) < 1e-300
        elif tail == "above":  # direct branch, every level floored
            assert max(lo, hi) < 1e-300
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = arm.sample(fast, 1, bounds)
            want = arm.quantile(slow.random(1), bounds)
            assert got.dtype == want.dtype and got.shape == want.shape == (1,)
            assert got.tobytes() == want.tobytes()
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_vector_draw_unchanged(self):
        arm = TruncNormalArm(0.4, 0.15)
        got = arm.sample(np.random.default_rng(8), 1000, B01)
        assert got.tobytes() == arm.quantile(np.random.default_rng(8).random(1000), B01).tobytes()


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


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(1, 300),
    lo_k=st.integers(0, 300),
    hi_k=st.integers(0, 300),
    lo_free=st.floats(0.0, 1.0),
    hi_free=st.floats(0.0, 1.0),
    on_grid=st.sampled_from(["none", "lo", "hi", "both"]),
)
def test_sorted_quantile_integral_matches_reference(n, lo_k, hi_k, lo_free, hi_free, on_grid):
    # Levels on the n-grid k/n (cell edges) and anywhere in [0, 1]: the
    # weights with only the end cells clamped are bitwise today's.
    lo = min(lo_k, n) / n if on_grid in ("lo", "both") else lo_free
    hi = min(hi_k, n) / n if on_grid in ("hi", "both") else hi_free
    lo, hi = min(lo, hi), max(lo, hi, 1e-300)
    arr = np.sort(np.random.default_rng(n).random(n))
    got = _sorted_quantile_integral(arr, lo, hi)
    assert np.float64(got).tobytes() == np.float64(sorted_quantile_integral(arr, lo, hi)).tobytes()


def test_sorted_quantile_integral_at_cvar_levels():
    # lo * n and hi * n can round to the same integer, leaving no cell
    arr = np.sort(np.random.default_rng(0).random(6))
    assert _sorted_quantile_integral(arr, np.nextafter(5 / 6, 0.0), 5 / 6) == 0.0
    # the levels the CVaR dist index asks for, over many (n, alpha, c)
    rng = np.random.default_rng(1)
    for _ in range(3000):
        n = int(rng.integers(1, 2000))
        arr = np.sort(rng.random(n))
        alpha, c = rng.uniform(0.01, 0.99), rng.uniform(0.0, 1.2)
        cc = min(c, 1.0)
        lo, hi = max(1.0 - alpha - cc, 0.0), 1.0 - cc
        got, want = _sorted_quantile_integral(arr, lo, hi), sorted_quantile_integral(arr, lo, hi)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
        # The correction peaks at 2 c (b - a) / alpha = 3 at c = (1 - alpha) / 2.
        with pytest.raises(ValueError, match="gap 3.5 exceeds the confidence correction's range"):
            solve_cstar(UniformArm(0, 1), 3.5, 0.25, B01)


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

    def test_two_discrete_arms_closed_form(self):
        # CVaR_0.25 is 0.5 and 0.9, a gap of 0.4. The second arm's radius
        # sits at its quantile's jump, where 1 - alpha - 2c falls to 1/2, so
        # the quantile there is its lower atom 0.3.
        arms = tuple(
            DiscreteArm(DiscreteDistribution(xs, [0.5, 0.5], B01)) for xs in ([0.1, 0.5], [0.3, 0.9])
        )
        inst = BanditInstance(B01, arms, 100, CVaR(0.25))
        expected = 1.2 + 4 * math.log(math.sqrt(2.0) * 100) / 0.25**2 * 0.7**2 / 0.4
        assert regret_bound(inst) == pytest.approx(expected, abs=1e-9)
        assert regret_bound(inst) == pytest.approx(389.4167, abs=1e-4)

    def test_non_cvar_rejected(self):
        inst = BanditInstance(B01, (DiracArm(0.2),), 10, ERM(1.0))
        with pytest.raises(ValueError):
            regret_bound(inst)

    def test_level_above_half_rejected(self):
        inst = BanditInstance(B01, (DiracArm(0.2),), 10, CVaR(0.6))
        with pytest.raises(ValueError, match=r"derived for alpha in \(0, 0.5\], got 0.6"):
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

    def test_whole_float_horizon_and_seed(self):
        obj = {
            "bounds": {"a": 0.0, "b": 1.0},
            "risk": "cvar:0.25",
            "horizon": 10000.0,
            "seed": 3.0,
            "arms": [{"family": "dirac", "params": {"x": 0.2}}],
        }
        inst = instance_from_dict(obj)
        assert (inst.horizon, inst.seed) == (10000, 3)
        assert type(inst.horizon) is int and type(inst.seed) is int
        with pytest.raises(ValueError, match="horizon must be a whole number"):
            instance_from_dict({**obj, "horizon": 10000.5})

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
