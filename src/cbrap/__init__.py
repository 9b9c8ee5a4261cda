"""Contextual linear bandits with random projection.

Contexts in n dimensions are mapped through a fixed random m x n matrix
before UCB-style arm selection, so the per-round cost and the confidence
geometry live in m dimensions.  The package bundles the projected policy,
a full-dimensional baseline, synthetic environments with sub-Gaussian
noise, closed-form confidence/regret bounds, and statistical validators
for the projection guarantees.
"""

from .environment import (AlignedSpread, EnvConfig, Environment, GaussianUnit,
                          NoiseKind, NoiseSpec, Replay, ReplayDataset,
                          RoundRecord, SparseUniform, load_context_dataset,
                          make_env, save_context_dataset)
from .errors import (CbrapError, ConfigError, DatasetError,
                     DegenerateInputError, EndOfDataError,
                     InvalidDimensionError, InvalidInputError)
from .estimator import RidgeState
from .harness import (AlgoSummary, CoverageResult, ExperimentConfig,
                      ExperimentSummary, KabanCell, SeedCoverage,
                      coverage_experiment, emit_csv, emit_summary,
                      kaban_experiment, load_experiment_config,
                      load_round_csv, oracle_theory_params, run_experiment)
from .policies import (AdaptiveBeta, ArmScores, FixedBeta, PolicyConfig,
                       cbrap_run, cbrap_select, linucb_run, uniform_run)
from .projection import (ProjectionKind, ProjectionMatrix, SparseBlock,
                         build_projection, inner_product_error,
                         kaban_failure_bound, project_rows, sg_distortion_sample)
from .theory import (TheoryParams, beta_schedule, confidence_distance,
                     derive_gamma, regret_bound, success_probability)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveBeta", "AlgoSummary", "AlignedSpread", "ArmScores", "CbrapError",
    "ConfigError", "CoverageResult", "DatasetError",
    "DegenerateInputError", "EndOfDataError", "EnvConfig", "Environment",
    "ExperimentConfig", "ExperimentSummary", "FixedBeta", "GaussianUnit",
    "InvalidDimensionError", "InvalidInputError", "KabanCell", "NoiseKind",
    "NoiseSpec", "PolicyConfig", "ProjectionKind", "ProjectionMatrix",
    "Replay", "ReplayDataset", "RidgeState", "RoundRecord", "SeedCoverage",
    "SparseBlock", "SparseUniform", "TheoryParams", "beta_schedule",
    "build_projection", "cbrap_run", "cbrap_select", "confidence_distance",
    "coverage_experiment", "derive_gamma", "emit_csv", "emit_summary",
    "inner_product_error",
    "kaban_experiment", "kaban_failure_bound", "linucb_run",
    "load_context_dataset", "load_experiment_config", "load_round_csv",
    "make_env", "oracle_theory_params", "project_rows",
    "regret_bound", "run_experiment", "save_context_dataset",
    "sg_distortion_sample", "success_probability", "uniform_run",
]
