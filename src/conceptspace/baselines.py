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
from .model import ConceptStage, DenseEncoder, GraphEncoder
from .nn import MLP, Module
from .rng import substream
from .training import train_task_only

BASELINE_KINDS = ("mod_graph", "mod_tabular", "cbm_graph", "cbm_tabular",
                  "simple", "concept", "relative")


def _make_encoder(cfg, rng, modality, name, discretize):
    if modality == "graph":
        return GraphEncoder(cfg, rng, name, discretize=discretize)
    return DenseEncoder(cfg, rng, name)


class _HeadedModel(Module):
    """Shared plumbing: the config and a trained flag."""

    def __init__(self, cfg: ExperimentConfig):
        self.config = cfg
        self.trained = False


class _JointModel(_HeadedModel):
    """A model whose head reads every modality's space side by side."""

    def predict(self, spaces: dict) -> np.ndarray:
        missing = [m for m in MODALITIES if m not in spaces]
        if missing:
            raise ValueError(f"missing modalities {missing}; substitute them first")
        return self.head.forward(np.concatenate([spaces[m] for m in MODALITIES],
                                                axis=1))


class UnimodalPlainModel(_HeadedModel):
    def __init__(self, cfg, rng, modality, head_name: str = "head"):
        super().__init__(cfg)
        self.kind = f"mod_{modality}"
        self.modality = modality
        self.encoder = _make_encoder(cfg, rng, modality, f"enc.{modality}",
                                     discretize=False)
        self.head = MLP(cfg.local_width, cfg.head_hidden, cfg.n_classes, rng, head_name)

    def embed(self, batch: Batch, mode: str, rng=None):
        return self.encoder.forward(*self.encoder.inputs(batch), mode=mode, rng=rng)

    def forward(self, batch: Batch, mode: str, rng=None):
        return self.head.forward(self.embed(batch, mode, rng))

    def backward(self, d_logits):
        self.encoder.backward(self.head.backward(d_logits))


class UnimodalCbmModel(_HeadedModel):
    """Concept-bottleneck variant: rescale + sigmoid before the head."""

    def __init__(self, cfg, rng, modality):
        super().__init__(cfg)
        self.kind = f"cbm_{modality}"
        self.modality = modality
        self.encoder = _make_encoder(cfg, rng, modality, f"enc.{modality}",
                                     discretize=True)
        self.stage = ConceptStage(cfg.local_width, f"local_rescale.{modality}",
                                  cfg.rescale_momentum, cfg.rescale_eps)
        self.head = MLP(cfg.local_width, cfg.head_hidden, cfg.n_classes, rng, "head")

    def forward(self, batch: Batch, mode: str, rng=None):
        z = self.encoder.forward(*self.encoder.inputs(batch), mode=mode, rng=rng)
        return self.head.forward(self.stage.forward(z, mode))

    def backward(self, d_logits):
        self.encoder.backward(self.stage.backward(self.head.backward(d_logits)))


class SimpleMultimodalModel(_HeadedModel):
    """Concatenated raw embeddings, no concept bottleneck."""

    kind = "simple"

    def __init__(self, cfg, rng):
        super().__init__(cfg)
        self.encoders = {m: _make_encoder(cfg, rng, m, f"enc.{m}", discretize=False)
                         for m in MODALITIES}
        self.head = MLP(len(MODALITIES) * cfg.local_width, cfg.head_hidden,
                        cfg.n_classes, rng, "head")

    def forward(self, batch: Batch, mode: str, rng=None):
        embs = [self.encoders[m].forward(*self.encoders[m].inputs(batch),
                                         mode=mode, rng=rng)
                for m in MODALITIES]
        return self.head.forward(np.concatenate(embs, axis=1))

    def backward(self, d_logits):
        g = self.head.backward(d_logits)
        k = self.config.local_width
        for i, m in enumerate(MODALITIES):
            self.encoders[m].backward(g[:, i * k:(i + 1) * k])


class ConceptMultimodalModel(_JointModel):
    """Local concepts per modality, concatenated into the head; the concepts
    stay modality-private (no shared space)."""

    kind = "concept"
    concept_based = True

    def __init__(self, cfg, rng):
        super().__init__(cfg)
        self.encoders = {m: _make_encoder(cfg, rng, m, f"enc.{m}", discretize=True)
                         for m in MODALITIES}
        self.stages = {m: ConceptStage(cfg.local_width, f"local_rescale.{m}",
                                       cfg.rescale_momentum, cfg.rescale_eps)
                       for m in MODALITIES}
        self.head = MLP(len(MODALITIES) * cfg.local_width, cfg.head_hidden,
                        cfg.n_classes, rng, "head")

    def local_concepts(self, batch: Batch, mode: str, rng=None):
        return {m: self.stages[m].forward(
                    self.encoders[m].forward(*self.encoders[m].inputs(batch),
                                             mode=mode, rng=rng), mode)
                for m in MODALITIES}

    def forward(self, batch: Batch, mode: str, rng=None):
        return self.predict(self.local_concepts(batch, mode, rng))

    def backward(self, d_logits):
        g = self.head.backward(d_logits)
        k = self.config.local_width
        for i, m in enumerate(MODALITIES):
            gz = self.stages[m].backward(g[:, i * k:(i + 1) * k])
            self.encoders[m].backward(gz)

    # representation space for retrieval / substitution: the local concepts
    def index_spaces(self, batch: Batch) -> dict:
        return self.local_concepts(batch, "eval")


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


class RelativeModel(_JointModel):
    """Anchor-similarity method. Holds the two frozen unimodal models, the
    anchor ids and embeddings, and the head trained on relative vectors.
    The anchors are buffers: checkpointed, never trained."""

    kind = name = "relative"
    concept_based = False
    buffer_names = ("anchor_ids", "anchor_emb")

    def __init__(self, cfg, rng):
        super().__init__(cfg)
        self.unimodal = {m: UnimodalPlainModel(cfg, rng, m, head_name=f"head.{m}")
                         for m in MODALITIES}
        self.head = MLP(len(MODALITIES) * cfg.anchor_count, cfg.head_hidden,
                        cfg.n_classes, rng, "rel_head")
        self.anchor_ids = np.zeros(cfg.anchor_count)
        self.anchor_emb = {m: np.zeros((cfg.anchor_count, cfg.local_width))
                           for m in MODALITIES}

    def set_anchors(self, ids: np.ndarray, samples) -> None:
        """Freeze anchor embeddings from the (already trained) unimodal models.

        Both modalities' coordinate a must reference the same content, so the
        tabular side embeds the anchor's graph content re-rendered as bits
        (its translation) while the graph side embeds the graph itself.
        """
        self.anchor_ids[...] = ids
        by_id = {s.id: s for s in samples}
        anchors = [by_id[int(i)] for i in ids]
        bijection = self.config.bijection
        own = whole_batch(anchors, bijection=bijection)
        translated = translation_batch(anchors, bijection)
        self.anchor_emb["graph"][...] = self.unimodal["graph"].embed(own, "eval")
        self.anchor_emb["tabular"][...] = self.unimodal["tabular"].embed(translated, "eval")

    def index_spaces(self, batch: Batch) -> dict:
        return {m: relative_representation(self.unimodal[m].embed(batch, "eval"),
                                           self.anchor_emb[m])
                for m in MODALITIES}

    def forward(self, batch: Batch, mode: str, rng=None):
        # backbones stay frozen: embeddings always computed in eval mode
        return self.predict(self.index_spaces(batch))

    def backward(self, d_logits):
        self.head.backward(d_logits)   # gradient stops at the frozen backbones


def build_baseline(kind: str, cfg: ExperimentConfig, rng=None):
    if rng is None:
        rng = substream(cfg.seed, "init")
    if kind in ("mod_graph", "mod_tabular"):
        return UnimodalPlainModel(cfg, rng, kind.removeprefix("mod_"))
    if kind in ("cbm_graph", "cbm_tabular"):
        return UnimodalCbmModel(cfg, rng, kind.removeprefix("cbm_"))
    if kind == "simple":
        return SimpleMultimodalModel(cfg, rng)
    if kind == "concept":
        return ConceptMultimodalModel(cfg, rng)
    if kind == "relative":
        return RelativeModel(cfg, rng)
    raise ValueError(f"unknown baseline kind {kind!r}")


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
                               trainable=model.head.params())
    model.trained = True
    return history
