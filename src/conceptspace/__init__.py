"""Interpretable multimodal learning through a shared concept space.

Per-modality encoders emit sigmoid "concepts"; projectors map them into one
shared concept manifold where a cross-modal distance regularizer aligns the
modalities. The shared space supports prototype and neighborhood
explanations, cross-modal retrieval, and nearest-neighbor substitution of a
missing modality at inference time.
"""

from .config import ExperimentConfig, LossConfig, TrainPlan, MODALITIES
from .data import (
    Batch,
    DatasetSplit,
    GraphFamily,
    GraphSample,
    PairedSample,
    TabularSample,
    batches,
    betweenness,
    family_to_bits,
    generate_xor_and_xor,
    load_dataset,
    save_dataset,
    split,
)
from .model import SharedConceptModel, load_model, save_model
from .training import (
    LossBreakdown,
    draw_distance_samples,
    semantic_regularizer,
    task_loss,
    total_loss,
    train,
)
from .explain import (
    ConceptIndex,
    Explanation,
    build_index,
    cross_modal_retrieve,
    encode_samples,
    neighborhood,
    prototype,
    substitute_missing,
)
from .evaluation import (
    EvalReport,
    accuracy,
    completeness,
    evaluate_model,
    missing_modality_eval,
    paired_shared_distance,
    retrieval_label_match,
)
from .baselines import (
    BASELINE_KINDS,
    build_baseline,
    relative_representation,
    train_baseline,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
