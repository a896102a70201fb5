"""hublab: hubness-aware losses, transport regularization, and retrieval
diagnostics for embedding spaces, with a desk-scale trainer and CLI."""

from .bank import (
    MemoryBank,
    centrality_weights,
    cross_centrality,
    intra_centrality,
    push_batch,
)
from .core import (
    CosineBlocks,
    EmbeddingSet,
    SimilarityMatrix,
    cosine_blocks,
    cosine_similarity_matrix,
    l2_normalize,
)
from .eval import RetrievalScores, infer_simi_cent, retrieval_eval
from .hubness import (
    HubnessReport,
    KOccurrence,
    RelevanceLabels,
    antihub_occurrence,
    atkinson,
    good_bad_occurrence,
    hub_occurrence,
    hubness_report,
    k_occurrence,
    pseudo_positive_probe,
    robin_hood,
    skewness,
    truncated_skewness,
)
from .losses import (
    LossBundle,
    NeighborSet,
    loss_kl,
    loss_nbi,
    loss_wti,
    neighbor_targets,
    select_neighbors,
    total_loss,
)
from .tokens import (
    TokenSet,
    cluster_assignments,
    dpc_knn_merge,
    wti_similarity,
)
from .trainer import (
    PairedData,
    TrainConfig,
    TrainResult,
    grad_check,
    synth_generate,
    train,
)
from .transport import (
    TransportPlan,
    blend_targets,
    loss_opt,
    sinkhorn_plan,
)

__version__ = "0.1.0"

__all__ = [
    "CosineBlocks",
    "EmbeddingSet",
    "HubnessReport",
    "KOccurrence",
    "LossBundle",
    "MemoryBank",
    "NeighborSet",
    "PairedData",
    "RelevanceLabels",
    "RetrievalScores",
    "SimilarityMatrix",
    "TokenSet",
    "TrainConfig",
    "TrainResult",
    "TransportPlan",
    "antihub_occurrence",
    "atkinson",
    "blend_targets",
    "centrality_weights",
    "cluster_assignments",
    "cosine_blocks",
    "cosine_similarity_matrix",
    "cross_centrality",
    "dpc_knn_merge",
    "good_bad_occurrence",
    "grad_check",
    "hub_occurrence",
    "hubness_report",
    "infer_simi_cent",
    "intra_centrality",
    "k_occurrence",
    "l2_normalize",
    "loss_kl",
    "loss_nbi",
    "loss_opt",
    "loss_wti",
    "neighbor_targets",
    "pseudo_positive_probe",
    "push_batch",
    "retrieval_eval",
    "robin_hood",
    "select_neighbors",
    "sinkhorn_plan",
    "skewness",
    "synth_generate",
    "total_loss",
    "train",
    "truncated_skewness",
    "wti_similarity",
]
