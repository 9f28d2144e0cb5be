"""Maximin coverage games over finite bandit function classes.

The package computes the exact game value that governs how hard it is to
output a near-optimal arm for every function in a finite class, runs the
matching learners under several noise models, and reproduces the hard
instances (binary trees, Gaussian histograms, linear nets) that separate
adaptive from non-adaptive query strategies.
"""

from types import ModuleType as _ModuleType

from .core import (
    ArmDistribution,
    CapacityError,
    FunctionClass,
    Model,
    NoiseSpec,
    PrecisionError,
    Transcript,
    gap_matrix,
    sample_rewards,
    to_json,
    trial_seed,
    two_point_support,
)
from .dec import DecResult, VersionSet, dec_at, dec_sup, simplex_grid, version_set
from .environments import (
    GaussianDensity,
    PiecewiseUniform,
    TreeMeta,
    gaussian_lipschitz_bound,
    make_gaussian_histogram,
    make_k_armed,
    make_linear_net_class,
    make_singletons,
    make_tree_class,
    tv_distance,
)
from .estimators import (
    chernoff_sample_count,
    median_of_means,
    median_of_means_sample_count,
    mom_groups,
)
from .games import GammaCertificate, MaximinSolution, gamma, solve_maximin, verify_certificate
from .harness import (
    AdaptivityReport,
    CertifyReport,
    ExperimentConfig,
    MonteCarloResult,
    SweepResult,
    TrialRecord,
    adaptivity_experiment,
    build_function_class,
    certify_lower_bound,
    monte_carlo,
    save_trial_records,
    sweep,
)
from .learners import (
    LearnerParams,
    OnlineRegressionOracle,
    UnlearnableInstanceError,
    est_bound,
    run_e2d,
    run_empirical_mean_learner,
    run_median_of_means_learner,
    run_non_adaptive_uniform,
    run_tree_descent,
)

__version__ = "0.1.0"

# every name imported above (the submodules aside), then the version
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
