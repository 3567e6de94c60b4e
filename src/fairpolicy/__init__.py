"""Fairness-penalized treatment-assignment rules for distributional targets.

The library learns decision rules (probability vectors over K treatments per
covariate level) that maximize a functional of the implied outcome
distribution (Gini-welfare, mean, quantiles) penalized by the worst
dissimilarity between protected-group outcome distributions and the
population distribution.  It ships plug-in and inverse-propensity-weighted
empirical objectives, a derivative-free maximizer over products of
simplices, budget-based preference-parameter selection, a closed-form test
oracle, and a Monte Carlo harness.
"""

from .distributions import (
    DistributionError,
    EmptySample,
    OutOfSupport,
    StepCdf,
    SupportInterval,
    SupportMismatch,
    WeightMismatch,
    point_mass,
    step_cdf_from_samples,
)
from .estimation import (
    PropensityModel,
    TrainingRecord,
    TrainingSample,
    ZeroPropensity,
    empirical_pz,
    fit_plugin,
)
from .functionals import (
    InvalidTau,
    SimilarityMeasure,
    TargetFunctional,
    gini_welfare,
    mad_half,
    mean,
    quantile,
)
from .objective import (
    CondCdfArray,
    CovariateSpace,
    DecisionRule,
    EmptySet,
    InvalidLambda,
    SpaceMismatch,
    d1,
    d1_to_set,
    omega,
)
from .optimizer import (
    NonFiniteObjective,
    OptimResult,
    OptimizerConfig,
    maximize,
    random_rule,
)
from .selection import (
    BudgetSelection,
    InvalidBudget,
    LambdaGrid,
    LambdaNotOnGrid,
    LambdaPath,
    NonUniformGrid,
    PathEntry,
    budget_slack,
    delta_n,
    interpolate_linear,
    interpolate_value,
    lip_m,
    select_lambda_budget,
    sweep,
)
from .simharness import SimConfig, SimResult, SimRow, regret_toy, run_simulation
from .toy import (
    ToyParams,
    toy_argmax,
    toy_cdf_g,
    toy_cdf_h,
    toy_cond_array,
    toy_max_value,
    toy_objective,
    toy_propensity,
    toy_sample,
    toy_threshold,
)

__version__ = "0.1.0"
