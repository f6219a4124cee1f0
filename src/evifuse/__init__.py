"""Evidential multi-view learning: subjective-logic opinions, Dirichlet
evidence, cumulative and constraint fusion, and trust-aware training."""

from .dirichlet import (
    BaseRate,
    DirichletParams,
    EvidenceVector,
    combined_evidence,
    expected_probabilities,
    kl_dirichlet,
    predict_class,
    rebase,
    strength,
)
from .opinions import (
    FusionConflictError,
    Opinion,
    bcf_fuse,
    cbf_fuse,
    combine_multiview,
    dirichlet_from_evidence,
    dirichlet_from_opinion,
    opinion_from_dirichlet,
    projected_probability,
)
from .losses import (
    LossConfig,
    annealed_lambda,
    ice_grad,
    ice_loss,
    kl_reg_grad,
    kl_reg_loss,
    overall_grad,
    overall_loss,
    overall_loss_and_grad,
)
from .data import (
    MultiViewDataset,
    MultiViewSample,
    SyntheticSpec,
    ViewGeometry,
    extract_views,
    gen_ood,
    gen_synthetic,
    load_csv,
    load_grid,
    parse_proportions,
    resample_class_ratio,
    save_csv,
    save_grid,
)
from .metrics import (
    EvalRecord,
    OodResult,
    accuracy,
    auc_binary,
    ece,
    metrics_report,
    ood_detect,
    report_from_arrays,
)
from .model import (
    EvidenceHead,
    EvidentialModel,
    ModelConfig,
    NonFiniteEvidence,
    TrainingDiverged,
    TrainingReport,
    compute_base_rate,
    evaluate,
    fit,
    forward,
    load_checkpoint,
    predict,
    save_checkpoint,
    score,
)
from .specfun import digamma, gammas, ln_gamma, trigamma

__version__ = "0.1.0"

__all__ = [
    "BaseRate", "DirichletParams", "EvidenceVector", "combined_evidence",
    "expected_probabilities",
    "kl_dirichlet", "predict_class", "rebase", "strength",
    "FusionConflictError", "Opinion", "bcf_fuse", "cbf_fuse", "combine_multiview",
    "dirichlet_from_evidence", "dirichlet_from_opinion", "opinion_from_dirichlet",
    "projected_probability",
    "LossConfig", "annealed_lambda", "ice_grad", "ice_loss", "kl_reg_grad",
    "kl_reg_loss", "overall_grad", "overall_loss", "overall_loss_and_grad",
    "MultiViewDataset", "MultiViewSample", "SyntheticSpec", "ViewGeometry",
    "extract_views", "gen_ood", "gen_synthetic", "load_csv", "load_grid",
    "parse_proportions", "resample_class_ratio", "save_csv", "save_grid",
    "EvalRecord", "OodResult", "accuracy", "auc_binary", "ece",
    "metrics_report", "ood_detect", "report_from_arrays",
    "EvidenceHead", "EvidentialModel", "ModelConfig", "NonFiniteEvidence", "TrainingDiverged",
    "TrainingReport", "compute_base_rate", "evaluate", "fit", "forward", "load_checkpoint",
    "predict", "save_checkpoint", "score",
    "digamma", "gammas", "ln_gamma", "trigamma",
    "__version__",
]
