"""An exact per-trial coverage certificate (the second half of criterion 6's
argument, checked trial by trial rather than as a rate).

If the Kolmogorov distance D_n = sup |F_n - F| is at most the supremum
radius c, the true CDF lies in the sup ball, so the ball's extremes bracket
it in first-order stochastic dominance and every monotone risk bound covers
T(F). Under W1 the same event suffices for the ``scaled-dkw`` radius,
because W1 <= (b - a) D_n. A trial inside the ball whose ``dist`` interval
misses the truth is therefore a bug in an operator or an evaluator, never
bad luck.
"""

import numpy as np
import pytest

from riskbounds import BetaArm, BoundMethod, Distance, SupportBounds, TruncNormalArm, bound_rows, true_risk
from riskbounds.measures import RDEU
from riskbounds.oracles import QUADRATURE_TOL
from conftest import catalog_specs

B01 = SupportBounds(0.0, 1.0)
TRIALS = 300


def _kolmogorov_distance(arm, samples: np.ndarray, bounds: SupportBounds) -> np.ndarray:
    """D_n of each row, exact for a continuous arm: the step CDF's largest
    gap to F sits at an order statistic, from above or from below."""
    n = samples.shape[1]
    f = arm.cdf(np.sort(samples, axis=1), bounds)
    i = np.arange(1, n + 1)
    return np.maximum(i / n - f, f - (i - 1) / n).max(axis=1)


def _one_spec_per_family():
    seen = {}
    for _, spec in catalog_specs():
        seen.setdefault(type(spec), spec)
    return list(seen.values())


@pytest.mark.parametrize("arm", [BetaArm(2.0, 5.0), TruncNormalArm(0.3, 0.2)], ids=["beta", "truncnormal"])
@pytest.mark.parametrize("n", [20, 200])
def test_every_in_ball_trial_covers_the_truth(arm, n):
    rng = np.random.default_rng([11, n])
    block = np.stack([arm.sample(rng, n, B01) for _ in range(TRIALS)])
    d_n = _kolmogorov_distance(arm, block, B01)
    specs = _one_spec_per_family()
    assert len(specs) == 6
    in_ball = misses = 0
    for spec in specs:
        truth = true_risk(arm, spec, B01)
        for kind in (Distance.SUPREMUM, Distance.WASSERSTEIN1):
            if isinstance(spec, RDEU) and kind is Distance.WASSERSTEIN1:
                continue
            rows = bound_rows(block, B01, spec, kind, [BoundMethod.DIST], 0.05)
            scale = 1.0 if kind is Distance.SUPREMUM else B01.width
            for (res,), dist in zip(rows, d_n):
                if scale * dist <= res.radius:
                    in_ball += 1
                    misses += not (res.lcb - QUADRATURE_TOL <= truth <= res.ucb + QUADRATURE_TOL)
    # At delta = 0.05 almost every trial lands in the ball, so the check is
    # not vacuous.
    assert in_ball >= 0.9 * TRIALS * 11
    assert misses == 0
