"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole gate is also part of the plain ``pytest`` run.
"""

import dataclasses
import functools
import math
import os
import time

import numpy as np
import pytest
from scipy.special import betainc

from riskbounds import (
    BoundMethod,
    CVaR,
    DiscreteDistribution,
    Distance,
    ERM,
    SupportBounds,
    bound_with_radius,
    dkw_radius,
    evaluate,
    from_samples,
    glc,
    llc,
    load_instance,
    neg_sup,
    neg_w1,
    pos_sup,
    pos_w1,
    regret_bound,
    run_lcb,
    scaled_dkw_radius,
    solve_cstar,
    w1_radius,
)
from riskbounds.bandit import BetaArm, UniformArm, true_risk
from riskbounds.measures import RDEU, SRM, DRM
from reference import compare_methods, distance, dominates, random_feasible
from conftest import catalog_specs, quad_drm, random_interior_dist

B01 = SupportBounds(0.0, 1.0)
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "bandit_4arm.json")

SUP, W1 = Distance.SUPREMUM, Distance.WASSERSTEIN1

# 200 centers x 5 radii x 2 distances, 5 verified candidates per cell:
# 10^4 feasible competitors across the randomized suite.
SUITE_SIZE = 200
RADII = (0.02, 0.08, 0.2, 0.5, 1.1)
CANDIDATES_PER_CELL = 5


def _report(number: int, description: str):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorator


@pytest.fixture(scope="module")
def random_suite():
    rng = np.random.default_rng(20250809)
    return [random_interior_dist(rng, B01) for _ in range(SUITE_SIZE)]


@pytest.fixture(scope="module")
def bandit_runs():
    instance = load_instance(FIXTURE)
    traces = {}
    for variant in ("dist", "llc", "glc"):
        traces[variant] = [
            run_lcb(dataclasses.replace(instance, seed=instance.seed + s), variant)
            for s in range(20)
        ]
    return instance, traces


@_report(1, "operator hand-trace fixtures exact to 1e-12")
def test_criterion_1_operator_fixtures():
    edf = from_samples([1, 2, 3, 4], SupportBounds(0.0, 5.0))
    cases = [
        (pos_sup(edf, 0.25), [2, 3, 4, 5], [0.25, 0.25, 0.25, 0.25]),
        (neg_sup(edf, 0.25), [0, 1, 2, 3], [0.25, 0.25, 0.25, 0.25]),
        (pos_w1(edf, 0.3), [1, 2, 3, 5], [0.25, 0.25, 0.225, 0.275]),
        (neg_w1(edf, 0.3), [1, 2, 2.9], [0.25, 0.25, 0.5]),
    ]
    for out, xs, ps in cases:
        assert np.all(np.abs(out.xs - np.asarray(xs)) <= 1e-12)
        assert np.all(np.abs(out.ps - np.asarray(ps)) <= 1e-12)


@_report(2, "ball feasibility exact; extremes dominate 10^4 random feasible candidates; sup outputs equal the pointwise clip")
def test_criterion_2_feasibility_and_optimality(random_suite):
    specs = catalog_specs()
    cell = 0
    for d in random_suite:
        for frac in RADII:
            for kind in (SUP, W1):
                cell += 1
                c = frac if kind is SUP else 0.4 * frac
                if kind is SUP:
                    up, lo = pos_sup(d, c), neg_sup(d, c)
                    cc = min(c, 1.0)
                    grid = np.union1d(np.union1d(d.xs, up.xs), lo.xs)
                    clip_up = np.where(grid < 1.0, np.maximum(d.cdf(grid) - cc, 0.0), 1.0)
                    clip_lo = np.minimum(d.cdf(grid) + cc, 1.0)
                    assert np.all(up.cdf(grid) == clip_up)  # (c) exact at atoms
                    assert np.all(lo.cdf(grid) == clip_lo)
                    assert distance(d, up, SUP) <= cc + 1e-12
                    assert distance(d, lo, SUP) <= cc + 1e-12
                else:
                    up, lo = pos_w1(d, c), neg_w1(d, c)
                    cap_up = float(np.sum(d.ps * (1.0 - d.xs)))
                    cap_lo = d.mean()
                    assert distance(d, up, W1) == pytest.approx(min(c, cap_up), abs=1e-10)
                    assert distance(d, lo, W1) == pytest.approx(min(c, cap_lo), abs=1e-10)
                assert dominates(d, up, tol=1e-12) and dominates(lo, d, tol=1e-12)

                candidates = random_feasible(d, kind, c, CANDIDATES_PER_CELL, seed=cell)
                for label, spec in specs:
                    if kind is W1 and isinstance(spec, RDEU):
                        continue  # W1 extremes do not claim the RDEU optimum
                    hi = evaluate(spec, up)
                    lo_val = evaluate(spec, lo)
                    for cand in candidates:
                        assert distance(d, cand, kind) <= c
                        val = evaluate(spec, cand)
                        assert val <= hi + 1e-9, (label, kind, c)
                        assert val >= lo_val - 1e-9, (label, kind, c)


def _cvar_window_nondegenerate(d, alpha: float, c: float) -> bool:
    """Sharp condition for a strict upper-bound improvement of the ball
    extreme over the local constant for CVaR: the quantile function must
    not be constant on the width-2c window around 1 - alpha. (The bound
    gap equals the integral of F^{-1} over [1-alpha, 1-alpha+c] minus c
    times F^{-1}((1-alpha-c)+.)"""
    lo = 1.0 - alpha - c
    q_lo = d.bounds.a if lo <= 0.0 else d.quantile(lo)
    q_hi = d.quantile(min(1.0 - alpha + c, 1.0))
    return q_hi > q_lo


@_report(3, "tightness chain dist <= llc <= glc, strict over llc for CVaR/SRM/DRM/ERM at the supremum distance")
def test_criterion_3_tightness_chain(random_suite):
    specs = catalog_specs() + [("drm-quad", quad_drm())]
    strict_families = (CVaR, SRM, DRM, ERM)
    checked_strict = 0
    for i, d in enumerate(random_suite):
        for frac in RADII:
            for kind in (SUP, W1):
                c = frac if kind is SUP else 0.4 * frac
                for label, spec in specs:
                    if kind is W1 and isinstance(spec, RDEU):
                        continue
                    res_dist, res_llc, res_glc = compare_methods(d, spec, kind, c)
                    u = (res_dist.ucb, res_llc.extras["raw_ucb"], res_glc.extras["raw_ucb"])
                    l = (res_dist.lcb, res_llc.extras["raw_lcb"], res_glc.extras["raw_lcb"])
                    assert u[0] <= u[1] + 1e-9 and u[1] <= u[2] + 1e-9, (label, kind)
                    assert l[0] >= l[1] - 1e-9 and l[1] >= l[2] - 1e-9, (label, kind)
                    if (
                        kind is SUP
                        and c > 0
                        and d.n_atoms >= 2
                        and isinstance(spec, strict_families)
                    ):
                        # CVaR's upper gap closes exactly when the tail
                        # window sits on a quantile plateau (only possible
                        # for fat atoms, never for n-sample EDFs with
                        # radius >> 1/n); everything else is strict.
                        ucb_strict = (
                            _cvar_window_nondegenerate(d, spec.alpha, c)
                            if isinstance(spec, CVaR)
                            else True
                        )
                        if ucb_strict:
                            assert u[1] - u[0] > 1e-10, (label, c)
                            checked_strict += 1
                        assert l[0] - l[1] > 1e-10, (label, c)
    assert checked_strict > 1000


@_report(4, "interval widths ordered dist < llc < glc on beta(2,5) sweeps, widths nonincreasing in n")
def test_criterion_4_width_sweep():
    configs = [
        (CVaR(0.05), SUP, "dkw"),
        (ERM(1.0), W1, "scaled-dkw"),
    ]
    arm = BetaArm(2.0, 5.0)
    ns = (100, 1_000, 10_000, 100_000)
    seeds = 20
    for spec, kind, rule in configs:
        mean_widths = {m: [] for m in BoundMethod}
        for n in ns:
            widths = {m: [] for m in BoundMethod}
            for s in range(seeds):
                rng = np.random.default_rng([4, n, s])
                d = from_samples(arm.sample(rng, n, B01), B01)
                c = dkw_radius(n, 0.05) if kind is SUP else scaled_dkw_radius(n, 0.05, B01)
                res_dist, res_llc, res_glc = compare_methods(d, spec, kind, c)
                # dist bounds live inside [a, b]; the baselines are compared
                # on their raw (pre-clamp) widths so vacuous intervals do not
                # mask their looseness
                widths[BoundMethod.DIST].append(res_dist.width)
                widths[BoundMethod.LLC].append(res_llc.extras["raw_ucb"] - res_llc.extras["raw_lcb"])
                widths[BoundMethod.GLC].append(res_glc.extras["raw_ucb"] - res_glc.extras["raw_lcb"])
            for m in BoundMethod:
                mean_widths[m].append(float(np.mean(widths[m])))
            assert mean_widths[BoundMethod.DIST][-1] < mean_widths[BoundMethod.LLC][-1]
            assert mean_widths[BoundMethod.LLC][-1] < mean_widths[BoundMethod.GLC][-1]
        for m in BoundMethod:
            seq = mean_widths[m]
            assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:])), (m, seq)


@_report(5, "uniform-distribution slope identities at n=1e5 within 5%, global constant exact")
def test_criterion_5_uniform_identities():
    # tail level 0.25: the exact finite-radius slope is 1 - c/(2 alpha),
    # so the first-order correction stays well inside the 5% budget while
    # the 1/alpha improvement factor over the global constant is unchanged
    alpha, delta, n = 0.25, 0.05, 100_000
    rng = np.random.default_rng([5, 0])
    d = from_samples(rng.random(n), B01)
    c = dkw_radius(n, delta)
    spec = CVaR(alpha)
    res = bound_with_radius(d, spec, SUP, BoundMethod.DIST, c)
    measured_slope = (res.ucb - res.point) / c
    assert abs(measured_slope - 1.0) <= 0.05  # (b - a) = 1
    local = llc(spec, SUP, d, c)
    target = (alpha + c) * 1.0 / alpha
    assert abs(local / target - 1.0) <= 0.05
    assert glc(spec, SUP, B01) == (1.0 - 0.0) / alpha
    assert glc(spec, SUP, B01) / measured_slope == pytest.approx(1.0 / alpha, rel=0.05)


@_report(6, "empirical coverage of the dist bounds >= 0.95 at delta = 0.05")
def test_criterion_6_coverage():
    arm = BetaArm(2.0, 5.0)
    spec = CVaR(0.05)
    n, delta, trials = 1_000, 0.05, 2_000
    truth = true_risk(arm, spec, B01)
    c = dkw_radius(n, delta)
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng([6, t])
        d = from_samples(arm.sample(rng, n, B01), B01)
        lcb = evaluate(spec, neg_sup(d, c))
        ucb = evaluate(spec, pos_sup(d, c))
        hits += lcb <= truth <= ucb
    assert hits / trials >= 0.95


@_report(7, "bandit regret ordering dist < llc < glc with gaps above one pooled standard error")
def test_criterion_7_bandit_ordering(bandit_runs):
    _, traces = bandit_runs
    finals = {v: np.array([t.final_regret for t in traces[v]]) for v in traces}
    means = {v: finals[v].mean() for v in finals}
    assert means["dist"] < means["llc"] < means["glc"]
    for lo_v, hi_v in (("dist", "llc"), ("llc", "glc")):
        gap = means[hi_v] - means[lo_v]
        pooled_se = math.sqrt(
            finals[lo_v].var(ddof=1) / finals[lo_v].size
            + finals[hi_v].var(ddof=1) / finals[hi_v].size
        )
        assert gap > pooled_se, (lo_v, hi_v, gap, pooled_se)


@_report(8, "confidence-correction radius matches the closed form; realized regret within the budget on >= 95% of seeds")
def test_criterion_8_regret_budget(bandit_runs):
    c_star = solve_cstar(UniformArm(0.0, 1.0), 0.1, 0.25, B01)
    corrected = 1.0 - (1.0 - 0.25 - 2.0 * c_star)
    assert corrected == pytest.approx(0.3265564437074637, abs=1e-9)

    instance, traces = bandit_runs
    budget = regret_bound(instance)
    finals = np.array([t.final_regret for t in traces["dist"]])
    assert np.mean(finals <= budget) >= 0.95


@_report(9, "radii match 40-digit evaluation to 1e-12; the scaled radius covers the true W1 error in >= 95% of trials")
def test_criterion_9_radii():
    from mpmath import mp, mpf, sqrt as msqrt, log as mlog, e as me

    mp.dps = 40
    for n in (10, 50, 200, 1_000, 10_000):
        for delta in (0.01, 0.05, 0.5, 1.0):
            expected = float(msqrt(mlog(2 / mpf(str(delta))) / (2 * n)))
            assert abs(dkw_radius(n, delta) - expected) <= 1e-12
            if n >= math.log(1.0 / delta):
                raw = 256 / msqrt(n) + 8 * msqrt(me * mlog(1 / mpf(str(delta))) / n)
                expected_w1 = float(min(raw, mpf(1)))
                assert abs(w1_radius(n, delta, B01) - expected_w1) <= 1e-12

    arm = BetaArm(2.0, 5.0)
    n, delta, trials = 1_000, 0.05, 2_000
    radius = scaled_dkw_radius(n, delta, B01)
    grid = np.linspace(0.0, 1.0, 20_001)
    truth_cdf = betainc(2.0, 5.0, grid)
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng([9, t])
        samples = np.sort(arm.sample(rng, n, B01))
        emp_cdf = np.searchsorted(samples, grid, side="right") / n
        w1_err = np.trapezoid(np.abs(emp_cdf - truth_cdf), grid)
        hits += w1_err <= radius
    assert hits / trials >= 0.95


@_report(10, "operator cost scales linearly from 1e3 to 1e6 sorted atoms (within 3x)")
def test_criterion_10_complexity():
    rng = np.random.default_rng(10)

    def build(m):
        xs = np.sort(rng.uniform(0.001, 0.999, m))
        xs = np.unique(xs)
        ps = np.full(xs.size, 1.0 / xs.size)
        return DiscreteDistribution(xs, ps, B01)

    def clock(d, repeats):
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            pos_sup(d, 0.037)
            neg_sup(d, 0.037)
            pos_w1(d, 0.026)
            neg_w1(d, 0.026)
            best = min(best, time.perf_counter() - t0)
        return best

    small, big = build(1_000), build(1_000_000)
    clock(small, 2)  # warm up
    t_small = clock(small, 7)
    t_big = clock(big, 3)
    ratio = t_big / t_small
    scale = big.n_atoms / small.n_atoms
    assert ratio <= 3.0 * scale, (t_small, t_big, ratio, scale)
