"""Design-based estimation of total treatment effects under network interference.

The package centers on the pseudoinverse estimator for low-order potential
outcome models: each unit's observed outcome is reweighted by an inner
product against the Moore-Penrose pseudoinverse of its treated-subset
design matrix.  Supporting pieces cover interference graphs, graph cluster
randomization (Bernoulli and completely randomized), exact bias and
worst-case variance bounds, bound-driven clustering selection, and a
replicated experiment harness with exhaustive-enumeration oracles.
"""

from __future__ import annotations

from .bounds import (
    BiasBoundGCR,
    BoundReport,
    GammaProfile,
    bias_bound_gcr,
    bias_crd,
    bias_exact,
    gamma_crd,
    gamma_gcr_closed,
    gamma_gcr_envelope,
    gamma_profile,
    gamma_quadform,
    variance_bound,
)
from .clustering import (
    Clustering,
    ClusterStats,
    cluster_neighborhoods,
    cluster_stats,
    contiguous_cycle_clusters,
    load_clustering,
    louvain,
    modularity,
    save_clustering,
    singleton_clustering,
)
from .design import (
    AssignmentDraw,
    Design,
    bernoulli_gcr,
    bernoulli_unit,
    complete_gcr,
    draw_from_w,
    enumerate_support,
    joint_control_prob,
    joint_treat_prob,
    sample,
)
from .errors import (
    CapacityError,
    GeometryError,
    InputError,
    PositivityError,
    PreconditionError,
)
from .estimator import (
    EstimateBreakdown,
    batch_estimates,
    crd_beta1_estimate,
    estimate,
    gcr_explicit_estimate,
    ht_estimate,
    pinv_estimate,
)
from .graph import (
    InterferenceGraph,
    cycle_power,
    from_edge_list,
    load_edge_list,
    save_edge_list,
    sbm_sample,
    to_edge_list,
)
from .harness import (
    EstimatorSpec,
    ExperimentConfig,
    ExperimentReport,
    exhaustive_expectation,
    git_describe,
    mc_convergence_report,
    replicate_estimates,
    report_rows,
    rmse_ratio,
    run_experiment,
    select_clustering,
    write_csv,
)
from .moments import (
    DesignMoments,
    SubsetIndex,
    analytic_cluster_moments,
    bern_cluster_moments,
    crd_cluster_moments,
    enumerate_subsets,
    monte_carlo_moments,
    numeric_pinv,
    size_class_pinv,
    size_class_sums,
    theta_vector,
)
from .outcomes import (
    ClusterAggregatedModel,
    LowOrderModel,
    cluster_aggregate,
    evaluate,
    evaluate_draws,
    gen_cycle_model,
    gen_named_model,
    load_model,
    mixed_signs,
    outcome_bound,
    save_model,
    true_tte,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "InputError",
    "GeometryError",
    "CapacityError",
    "PositivityError",
    "PreconditionError",
    # graph
    "InterferenceGraph",
    "from_edge_list",
    "to_edge_list",
    "cycle_power",
    "sbm_sample",
    "load_edge_list",
    "save_edge_list",
    # clustering
    "Clustering",
    "ClusterStats",
    "singleton_clustering",
    "contiguous_cycle_clusters",
    "louvain",
    "modularity",
    "cluster_neighborhoods",
    "cluster_stats",
    "load_clustering",
    "save_clustering",
    # outcomes
    "LowOrderModel",
    "ClusterAggregatedModel",
    "evaluate",
    "evaluate_draws",
    "true_tte",
    "gen_cycle_model",
    "gen_named_model",
    "cluster_aggregate",
    "outcome_bound",
    "mixed_signs",
    "load_model",
    "save_model",
    # design
    "Design",
    "AssignmentDraw",
    "bernoulli_unit",
    "bernoulli_gcr",
    "complete_gcr",
    "sample",
    "draw_from_w",
    "enumerate_support",
    "joint_treat_prob",
    "joint_control_prob",
    # moments
    "SubsetIndex",
    "DesignMoments",
    "enumerate_subsets",
    "theta_vector",
    "bern_cluster_moments",
    "crd_cluster_moments",
    "numeric_pinv",
    "monte_carlo_moments",
    "analytic_cluster_moments",
    "size_class_sums",
    "size_class_pinv",
    # estimator
    "EstimateBreakdown",
    "estimate",
    "batch_estimates",
    "pinv_estimate",
    "gcr_explicit_estimate",
    "ht_estimate",
    "crd_beta1_estimate",
    # bounds
    "GammaProfile",
    "BoundReport",
    "BiasBoundGCR",
    "gamma_quadform",
    "gamma_gcr_closed",
    "gamma_gcr_envelope",
    "gamma_crd",
    "gamma_profile",
    "bias_exact",
    "bias_bound_gcr",
    "bias_crd",
    "variance_bound",
    # harness
    "EstimatorSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "replicate_estimates",
    "report_rows",
    "exhaustive_expectation",
    "rmse_ratio",
    "git_describe",
    "select_clustering",
    "mc_convergence_report",
    "write_csv",
]
