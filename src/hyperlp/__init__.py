"""hyperlp: hypergraph link-prediction evaluation.

Generate hypergraphs from a latent-space model, clique-expand them,
score links with classical neighborhood heuristics, quantify how much of
a scorer's AUC is owed to higher-order structure, and correct for it via
size-preserving relocation baselines.
"""

from .datasets import (
    DataFormatError,
    DatasetBundle,
    SizeDistFit,
    dataset_stats,
    fit_power_law,
    load_benson,
    load_plain,
    save_plain,
)
from .evaluation import (
    LabeledPairs,
    ScanPoint,
    ScanRow,
    SplitSpec,
    auc,
    auc_conditional,
    leave_one_out,
    model_auc,
    overestimation_scan,
    split_evaluate,
)
from .heuristics import (
    SCORER_IDS,
    SimRankConvergenceError,
    score,
    score_pairs,
    simrank_matrix,
)
from .hypergraph import (
    Hypergraph,
    SimpleGraph,
    clique_expand,
    common_neighbors_count,
    size_distribution,
    width,
)
from .latent import (
    DistanceProfile,
    HoffParams,
    LatentModel,
    PotentialIndex,
    ResourceLimitError,
    build_potential,
    default_hoff_params,
    edge_distance_profile,
    hoff_clique_probability,
    hoff_edge_probability,
    link_probability,
    link_probability_map,
    pairwise_distances,
    phi_preset,
    potential_from_candidates,
    radii_from_percentiles,
    sample_hypergraph,
    sample_latents,
)
from .relocation import (
    AdjustmentReport,
    adjusted_auc,
    assemble_report,
    evaluate_protocol,
    performance_reversal_check,
    relocate,
)
from .verify import (
    TrialSummary,
    clustering_coefficient,
    er_sample,
    exact_ensemble_auc,
    verify_er_auc_baseline,
    verify_er_clustering,
    verify_er_common_neighbors,
    verify_higher_order_auc_lift,
    verify_relocation_baseline,
)

__version__ = "0.1.0"
