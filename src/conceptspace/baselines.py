"""Comparison models sharing the main model's backbones.

- mod_graph / mod_tabular: one backbone plus a head, trained on the global
  task from a single modality (no concepts).
- cbm_graph / cbm_tabular: same but through a rescale+sigmoid concept
  bottleneck.
- simple: both backbones, raw embeddings concatenated into a head.
- concept: both concept encoders, concatenated local concepts into a head
  (computes concepts but never shares them across modalities).
- relative: two-stage anchor method. Stage one trains plain unimodal models;
  stage two freezes them, encodes every sample as cosine similarities to a
  fixed set of anchor samples (the same anchor ids in both modalities), and
  trains a head on the concatenated similarity vectors.
"""

from __future__ import annotations

import numpy as np

from .config import MODALITIES, ExperimentConfig
from .data import Batch, DatasetSplit, translation_batch, whole_batch
from .model import ConcatHeadModel, fresh_encoders, predict_side_by_side
from .nn import MLP, Module
from .rng import substream
from .training import train_task_only

BASELINE_KINDS = ("mod_graph", "mod_tabular", "cbm_graph", "cbm_tabular",
                  "simple", "concept", "relative")


def _concat_head_model(cfg, rng, kind, modalities, concepts: bool,
                       head_name: str = "head", cls=ConcatHeadModel):
    """Fresh encoders for `modalities`, each followed by a concept stage when
    `concepts` is set, and then a head over their outputs."""
    encoders, stages = fresh_encoders(cfg, rng, modalities, concepts)
    head = MLP(len(modalities) * cfg.local_width, cfg.head_hidden, cfg.n_classes,
               rng, head_name)
    return cls(cfg, kind, encoders, stages, head)


class ConceptMultimodalModel(ConcatHeadModel):
    """Local concepts per modality, concatenated into the head; the concepts
    stay modality-private (no shared space)."""

    concept_based = True

    # representation space for retrieval / substitution: the local concepts
    def index_spaces(self, batch: Batch) -> dict:
        return self.embed(batch, "eval")


def relative_representation(embedding: np.ndarray, anchor_emb: np.ndarray) -> np.ndarray:
    """Cosine similarity of each embedding row to each anchor embedding.
    Zero vectors map to similarity 0 (cosine is undefined there)."""
    emb = np.atleast_2d(embedding)
    e_norm = np.linalg.norm(emb, axis=1)
    a_norm = np.linalg.norm(anchor_emb, axis=1)
    denom = np.outer(e_norm, a_norm)
    sims = np.zeros((emb.shape[0], anchor_emb.shape[0]))
    np.divide(emb @ anchor_emb.T, denom, out=sims, where=denom > 0)
    return sims if embedding.ndim == 2 else sims[0]


class RelativeModel(Module):
    """Anchor-similarity method. Holds the two frozen unimodal models, the
    anchor ids and embeddings, and the head trained on relative vectors.
    The anchors are buffers: checkpointed, never trained."""

    kind = name = "relative"
    concept_based = False
    buffer_names = ("anchor_ids", "anchor_emb")

    def __init__(self, cfg, rng):
        self.config = cfg
        self.unimodal = {m: _concat_head_model(cfg, rng, f"mod_{m}", (m,), False,
                                               head_name=f"head.{m}")
                         for m in MODALITIES}
        self.head = MLP(len(MODALITIES) * cfg.anchor_count, cfg.head_hidden,
                        cfg.n_classes, rng, "rel_head")
        self.anchor_ids = np.zeros(cfg.anchor_count)
        self.anchor_emb = {m: np.zeros((cfg.anchor_count, cfg.local_width))
                           for m in MODALITIES}
        self.trained = False

    @property
    def encoders(self) -> dict:
        """The backbones; a property, which the module walk does not visit."""
        return {m: self.unimodal[m].encoders[m] for m in MODALITIES}

    def set_anchors(self, ids: np.ndarray, samples) -> None:
        """Freeze anchor embeddings from the (already trained) unimodal models.

        Both modalities' coordinate a must reference the same content, so the
        tabular side embeds the anchor's graph content re-rendered as bits
        (its translation) while the graph side embeds the graph itself.
        """
        self.anchor_ids[...] = ids
        by_id = {s.id: s for s in samples}
        anchors = [by_id[int(i)] for i in ids]
        own = whole_batch(anchors, self.config.bijection)
        translated = translation_batch(anchors, packed=own)
        self.anchor_emb["graph"][...] = self.unimodal["graph"].embed(own, "eval")["graph"]
        self.anchor_emb["tabular"][...] = self.unimodal["tabular"].embed(
            translated, "eval")["tabular"]

    def index_spaces(self, batch: Batch) -> dict:
        return {m: relative_representation(self.unimodal[m].embed(batch, "eval")[m],
                                           self.anchor_emb[m])
                for m in MODALITIES}

    def predict(self, spaces: dict) -> np.ndarray:
        return predict_side_by_side(self.head, spaces)

    def forward(self, batch: Batch, mode: str, rng=None):
        # backbones stay frozen: embeddings always computed in eval mode
        return self.predict(self.index_spaces(batch))

    def backward(self, d_logits):
        self.head.backward(d_logits)   # gradient stops at the frozen backbones


def build_baseline(kind: str, cfg: ExperimentConfig, rng=None):
    if rng is None:
        rng = substream(cfg.seed, "init")
    if kind == "relative":
        return RelativeModel(cfg, rng)
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    family, _, modality = kind.partition("_")
    return _concat_head_model(
        cfg, rng, kind, (modality,) if modality else MODALITIES,
        concepts=family in ("cbm", "concept"),
        cls=ConceptMultimodalModel if kind == "concept" else ConcatHeadModel)


def train_baseline(model, split: DatasetSplit, cfg: ExperimentConfig):
    """Fit a baseline; the relative model runs its two stages here."""
    if not isinstance(model, RelativeModel):
        return train_task_only(model, split, cfg, cfg.plan.epochs)

    history = []
    for m in MODALITIES:
        history += train_task_only(model.unimodal[m], split, cfg, cfg.plan.epochs)
    anchor_rng = substream(cfg.seed, "anchors")
    train_ids = np.array(sorted(s.id for s in split.train))
    ids = np.sort(anchor_rng.choice(train_ids, size=cfg.anchor_count, replace=False))
    model.set_anchors(ids, split.train)
    history += train_task_only(model, split, cfg, cfg.plan.phase2_epochs,
                               trainable=model.head.parameters())
    model.trained = True
    return history
