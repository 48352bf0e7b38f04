"""Sharp finite-sample confidence bounds for risk measures.

Instead of widening a point estimate by a Lipschitz constant times a
concentration radius, the bounds here evaluate the risk measure at the
extreme points of a distance ball (supremum or Wasserstein-1) around the
empirical distribution. The ball extremes have closed forms, the resulting
bounds are never wider than Lipschitz-based ones, and the same machinery
drives a risk-averse (CVaR) bandit simulator with a matching regret budget.
"""

from .bandit import (
    Arm,
    BanditInstance,
    BetaArm,
    DiracArm,
    DiscreteArm,
    RegretTrace,
    TruncNormalArm,
    UniformArm,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    regret_bound,
    run_lcb,
    solve_cstar,
    true_risk,
)
from .bounds import (
    BoundMethod,
    ConfidenceResult,
    UnsupportedCombinationError,
    bound_from_samples,
    bound_with_radius,
    compare_methods,
)
from .concentration import (
    RadiusRule,
    confidence_radius,
    dkw_radius,
    scaled_dkw_radius,
    w1_radius,
)
from .distributions import (
    DiscreteDistribution,
    Distance,
    SupportBounds,
    distance,
    dominates,
    from_samples,
    read_samples_csv,
)
from .lipschitz import DEFAULT_GRID_POINTS, glc, llc
from .measures import (
    CE,
    CVaR,
    DRM,
    ERM,
    RDEU,
    SRM,
    RiskMeasure,
    ce_power,
    drm_power,
    eval_ce,
    eval_cvar,
    eval_drm,
    eval_erm,
    eval_rdeu,
    eval_srm,
    evaluate,
    parse_risk,
    rdeu_power,
    srm_power,
)
from .operators import BallSpec, WaterFillTrace, neg_sup, neg_w1, pos_sup, pos_w1
from .oracles import FeasibleSampler, quadrature_risk, random_feasible

__version__ = "0.1.0"
