"""Objective and training loops.

The loss is task cross-entropy plus a cross-modal distance term: for a few
randomly drawn samples per batch, the Euclidean distance between the sample's
shared concepts in each pair of modalities is penalized, pulling the
modalities onto one semantic manifold. Optional per-modality local losses can
be added when local supervision exists.

Three regimes: end_to_end trains everything jointly; sequential first trains
encoders with a throwaway head on concatenated local concepts, then freezes
them and trains the shared stage; local_pretrain first trains each encoder on
its own local task, then freezes and proceeds the same way.

End-to-end training returns the epoch whose binarized shared codes best
explain the training labels: a rare graph (an isolated-family graph whose two
extra edges form a three-node path) moves in and out of the wrong concept
cluster from epoch to epoch while the predictor still classifies it.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .config import MODALITIES, ExperimentConfig, LossConfig
from .data import Batch, DatasetSplit, as_arrays, batches, one_hot
from .errors import ConfigurationError
from .explain import concept_codes
from .model import ConcatHeadModel, SharedConceptModel, _model_blocks
from .nn import Adam, MLP, sigmoid
from .rng import substream

MODALITY_PAIRS = tuple(
    (MODALITIES[i], MODALITIES[j])
    for i in range(len(MODALITIES)) for j in range(i + 1, len(MODALITIES))
)


# -- loss pieces ---------------------------------------------------------------

def task_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy from logits (fused sigmoid, stable form)."""
    return _bce_with_logits(logits, targets)[0]


def _bce_with_logits(logits: np.ndarray, targets: np.ndarray):
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch: logits {logits.shape} vs targets {targets.shape}")
    # max(z,0) - z*t + log(1 + exp(-|z|))
    per = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    grad = (sigmoid(logits) - targets) / logits.size
    return float(per.mean()), grad


def semantic_regularizer(shared: dict, sample_idx: np.ndarray | None = None) -> float:
    b = shared[MODALITIES[0]].shape[0]
    idx = np.arange(b) if sample_idx is None else np.asarray(sample_idx)
    return _distance_with_grads(shared, idx, idx)[0]


def _distance_with_grads(shared: dict, rows_a: np.ndarray, rows_b: np.ndarray):
    """Mean Euclidean distance between row rows_a[k] of one modality and row
    rows_b[k] of the other, over (modality pair, k)."""
    grads = {m: np.zeros_like(shared[m]) for m in shared}
    if len(rows_a) == 0:
        warnings.warn("no samples drawn for the distance term; it contributes 0")
        return 0.0, grads
    scale = 1.0 / (len(MODALITY_PAIRS) * len(rows_a))
    total = 0.0
    for mi, mq in MODALITY_PAIRS:
        diff = shared[mi][rows_a] - shared[mq][rows_b]
        dist = np.sqrt((diff * diff).sum(axis=1))
        total += dist.sum() * scale
        safe = np.where(dist > 1e-12, dist, 1.0)
        g = diff / safe[:, None] * scale
        g[dist <= 1e-12] = 0.0
        np.add.at(grads[mi], rows_a, g)
        np.add.at(grads[mq], rows_b, -g)
    return float(total), grads


def draw_distance_samples(batch: Batch, fraction: float, distance_filter: str,
                          rng: np.random.Generator) -> np.ndarray:
    """ceil(fraction * b) batch positions without replacement, then filtered."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    b = len(batch)
    m = int(np.ceil(fraction * b))
    idx = np.sort(rng.choice(b, size=m, replace=False))
    if distance_filter == "positive":
        idx = idx[batch.y[idx] == 1]
    elif distance_filter != "all":
        raise ValueError(f"unknown distance_filter {distance_filter!r}")
    return idx


@dataclass
class LossBreakdown:
    total: float
    task: float
    reg: float
    local: dict

    def components_sum(self, loss_cfg: LossConfig) -> float:
        return (self.task + loss_cfg.lam * self.reg
                + sum(loss_cfg.betas[i] * self.local.get(m, 0.0)
                      for i, m in enumerate(MODALITIES)))


def total_loss(result, batch: Batch, loss_cfg: LossConfig,
               sample_idx: np.ndarray | None = None) -> LossBreakdown:
    breakdown, *_ = _total_loss_with_grads(result, batch, loss_cfg, sample_idx)
    return breakdown


def _total_loss_with_grads(result, batch: Batch, loss_cfg: LossConfig,
                           sample_idx: np.ndarray | None):
    task, d_logits = _bce_with_logits(result.logits, batch.y_onehot)
    reg = 0.0
    d_shared = None
    if loss_cfg.lam > 0:
        b = result.logits.shape[0]
        idx = np.arange(b) if sample_idx is None else np.asarray(sample_idx)
        rows_a = rows_b = idx
        if result.shared[MODALITIES[0]].shape[0] == 2 * b:
            # Translation rows present: shared matrices carry the task
            # renderings first, then each sample's translation into the other
            # modality. Pair a drawn sample's graph rendering with the tabular
            # rendering of the same content (both directions), so the pulled
            # together points always describe one object.
            rows_a = np.concatenate([idx, b + idx])
            rows_b = np.concatenate([b + idx, idx])
        reg, reg_grads = _distance_with_grads(result.shared, rows_a, rows_b)
        d_shared = {m: loss_cfg.lam * g for m, g in reg_grads.items()}
    local = {}
    d_local = None
    betas = dict(zip(MODALITIES, loss_cfg.betas))
    if any(b > 0 for b in loss_cfg.betas):
        if not result.local_logits:
            raise ConfigurationError(
                "local loss weights set but the model has no local heads")
        d_local = {}
        for mod, beta in betas.items():
            if beta <= 0:
                continue
            value, grad = _bce_with_logits(result.local_logits[mod],
                                           one_hot(batch.local[mod]))
            local[mod] = value
            d_local[mod] = beta * grad
    total = task + loss_cfg.lam * reg + sum(betas[m] * v for m, v in local.items())
    return LossBreakdown(total, task, reg, local), d_logits, d_shared, d_local


# -- code purity of the training split ------------------------------------------

def _code_purity_probe(samples, batch_size: int):
    """Return f(model): the share of `samples` whose global label is the
    majority label of their binarized shared code (eval mode, cut at 0.5).

    On the split the codes come from, this is the accuracy of the
    completeness tree: grown to full depth, tree.BinaryCodeTree predicts
    exactly each code's majority label on its training codes.

    A code is [graph shared | tabular shared], and eval mode encodes every
    row on its own, so each distinct graph and each distinct bit string is
    encoded once, from the samples that first carry them, in batches of at
    most batch_size samples (the layers keep their last inputs for backward).
    """
    samples = list(samples)
    graph_key = [(s.graph.edges, s.graph.node_features) for s in samples]
    first_graph, first_bits = {}, {}
    for i, s in enumerate(samples):
        first_graph.setdefault(graph_key[i], i)
        first_bits.setdefault(s.tabular.bits, i)
    rows = sorted({*first_graph.values(), *first_bits.values()})
    at = {i: k for k, i in enumerate(rows)}
    row_of = {"graph": [at[first_graph[key]] for key in graph_key],
              "tabular": [at[first_bits[s.tabular.bits]] for s in samples]}
    probe = [samples[i] for i in rows]
    probe_batches = batches(as_arrays(probe, with_aux=False), batch_size)
    labels = np.array([s.global_label for s in samples])

    def purity(model) -> float:
        spaces = [model.index_spaces(batch) for batch in probe_batches]
        own = {m: np.concatenate([sp[m] for sp in spaces])[idx] for m, idx in row_of.items()}
        codes = np.packbits(concept_codes(own), axis=1)
        # one opaque value per row: np.unique then groups equal codes in 1-D
        _, cluster = np.unique(codes.view(f"V{codes.shape[1]}").ravel(),
                               return_inverse=True)
        counts = np.zeros((cluster.max() + 1, labels.max() + 1))
        np.add.at(counts, (cluster, labels), 1)
        return float(counts.max(axis=1).sum() / len(samples))

    return purity


# -- training loops --------------------------------------------------------------

def train(model: SharedConceptModel, split: DatasetSplit, cfg: ExperimentConfig):
    """Train in place per cfg.plan; returns (model, history).

    History rows: {epoch, task_loss, reg_loss, local_loss_graph,
    local_loss_tabular, test_accuracy}. Two-phase regimes keep numbering
    epochs across phases; phase-1 rows report that phase's own predictive
    path as test accuracy.

    end_to_end leaves the model as it was at the end of the epoch with the
    highest code purity (see _code_purity_probe) on the training split, the
    latest such epoch on ties; history still has a row for every epoch.

    Before any epoch, raises ConfigurationError for an unknown regime, for
    local loss weights (loss.betas) outside end_to_end, and when local_pretrain
    or local loss weights meet a config without use_local_supervision or a
    model without local heads.
    """
    regimes = {"end_to_end": _train_end_to_end, "sequential": _train_two_phase,
               "local_pretrain": _train_two_phase}
    regime = cfg.plan.regime
    if regime not in regimes:
        raise ConfigurationError(f"unknown regime {regime!r}")
    if any(b > 0 for b in cfg.loss.betas) and regime != "end_to_end":
        # phase 2 of a two-phase regime trains no encoder and no local head
        raise ConfigurationError(
            f"loss.betas act only under plan.regime end_to_end, not {regime}")
    if needs_local_heads(cfg):
        field = "plan.regime local_pretrain" if regime == "local_pretrain" else "loss.betas"
        if not cfg.use_local_supervision:
            raise ConfigurationError(
                f"{field} needs the local labels, which the dataset withholds "
                "unless use_local_supervision is set")
        if not model.local_heads:
            raise ConfigurationError(f"{field} needs a model with local heads")
    history = regimes[regime](model, _start(split, cfg))
    model.trained = True
    return model, history


def needs_local_heads(cfg: ExperimentConfig) -> bool:
    """Whether training reads the local labels through local heads: under
    local_pretrain, or with a local loss weight above 0."""
    return cfg.plan.regime == "local_pretrain" or any(b > 0 for b in cfg.loss.betas)


@dataclass
class _Run:
    """What every loop of one training call shares: the data, and random
    substreams that successive phases keep drawing from."""

    cfg: ExperimentConfig
    split: DatasetSplit
    train_batch: Batch
    test_batch: Batch             # eval mode only, so without aux rows
    shuffle_rng: np.random.Generator
    gumbel_rng: np.random.Generator
    reg_rng: np.random.Generator


def _start(split: DatasetSplit, cfg: ExperimentConfig) -> _Run:
    return _Run(cfg, split, as_arrays(split.train, cfg.bijection),
                as_arrays(split.test, with_aux=False),
                substream(cfg.seed, "shuffle"), substream(cfg.seed, "gumbel"),
                substream(cfg.seed, "regdraw"))


HISTORY_COLUMNS = ("epoch", "task_loss", "reg_loss", "local_loss_graph",
                   "local_loss_tabular", "test_accuracy")


def _fit(run: _Run, net, step, epochs: int, evaluate, first_epoch: int = 0) -> list[dict]:
    """The epoch loop of every regime and phase.

    Per batch of a shuffled pass over the training split: zero net's
    gradients, call step(batch), which runs forward, loss and backward and
    returns this batch's losses by history column, then take an Adam step on
    every parameter of net. Adam's moments start at zero, so a part of net
    that the backward never reaches (a frozen part) keeps its exact values.
    After each epoch, evaluate() gives the test split's logits and labels,
    whose accuracy goes into the history row with the epoch's mean batch
    losses. A loss or test logit that is not finite raises ConfigurationError:
    the run has diverged, e.g. under too large a learning rate. That error
    reports a divergence, so numpy's floating-point warnings are off here.
    """
    opt = Adam(net.parameters(), run.cfg.plan.learning_rate)
    grads = net.grads()
    history = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(first_epoch, first_epoch + epochs):
            sums = dict.fromkeys(HISTORY_COLUMNS[1:-1], 0.0)
            n_batches = 0
            for batch in batches(run.train_batch, run.cfg.plan.batch_size, run.shuffle_rng):
                for g in grads.values():
                    g[...] = 0.0
                for column, value in step(batch).items():
                    _check_finite(value, column, epoch)
                    sums[column] += value
                opt.step(grads)
                n_batches += 1
            logits, labels = evaluate()
            _check_finite(logits, "the test logits of test_accuracy", epoch)
            history.append({"epoch": epoch,
                            **{k: float(v / n_batches) for k, v in sums.items()},
                            "test_accuracy": float((logits.argmax(axis=1) == labels).mean())})
    return history


def _check_finite(values, what: str, epoch: int) -> None:
    if not np.isfinite(values).all():
        raise ConfigurationError(f"training diverged in epoch {epoch}: {what} is not finite")


def _losses(breakdown: LossBreakdown) -> dict:
    return {"task_loss": breakdown.task, "reg_loss": breakdown.reg,
            **{f"local_loss_{m}": v for m, v in breakdown.local.items()}}


def _draw(run: _Run, batch: Batch):
    loss_cfg = run.cfg.loss
    if loss_cfg.lam <= 0:
        return None
    return draw_distance_samples(batch, loss_cfg.sample_fraction,
                                 loss_cfg.distance_filter, run.reg_rng)


def _train_end_to_end(model, run: _Run):
    # probe batches no larger than the test split, so the layer caches left
    # behind stay within those of the per-epoch test evaluation
    train_purity = _code_purity_probe(run.split.train, max(len(run.split.test), 1))
    best = {"purity": -1.0, "state": None}

    def evaluate():
        logits = model.forward(run.test_batch, "eval").logits
        purity = train_purity(model)
        if purity >= best["purity"]:
            best["purity"] = purity
            best["state"] = {name: arr.copy() for name, arr in _model_blocks(model)}
        return logits, run.test_batch.y

    history = _fit(run, model, _shared_step(model, run, frozen_encoders=False),
                   run.cfg.plan.epochs, evaluate)
    for name, arr in _model_blocks(model):
        arr[...] = best["state"][name]
    return history


def _train_two_phase(model, run: _Run):
    """Phase 1 fits the encoders through task-only nets over them: for
    sequential, one throwaway head on the concatenated local concepts against
    the global labels; for local_pretrain, each modality's local head on that
    modality's local labels, one modality after the other. Phase 2 freezes
    the encoders (eval mode) and trains the shared stage and the predictor."""
    cfg = run.cfg
    if cfg.plan.regime == "sequential":
        fprime = MLP(len(MODALITIES) * cfg.local_width, cfg.head_hidden, cfg.n_classes,
                     substream(cfg.seed, "misc"), "fprime")
        nets = {"global": ConcatHeadModel(cfg, "fprime", model.encoders, model.stages,
                                          fprime)}
    else:
        nets = {m: ConcatHeadModel(cfg, f"local_head.{m}", {m: model.encoders[m]},
                                   {m: model.stages[m]}, model.local_heads[m])
                for m in MODALITIES}
    history = []
    for target, net in nets.items():
        history += _fit_task(run, net, target, cfg.plan.epochs, first_epoch=len(history))
    return history + _fit(run, model, _shared_step(model, run, frozen_encoders=True),
                          cfg.plan.phase2_epochs,
                          lambda: (model.forward(run.test_batch, "eval").logits,
                                   run.test_batch.y),
                          first_epoch=len(history))


def _shared_step(model, run: _Run, frozen_encoders: bool):
    """The batch step of the shared model, in either phase: forward with
    translation rows, the full objective, backward."""

    def step(batch):
        result = model.forward(batch, "train", gumbel_rng=run.gumbel_rng, with_aux=True,
                               frozen_encoders=frozen_encoders)
        breakdown, d_logits, d_shared, d_local = _total_loss_with_grads(
            result, batch, run.cfg.loss, _draw(run, batch))
        model.backward(d_logits, d_shared, d_local)
        return _losses(breakdown)

    return step


# -- task-only fits ----------------------------------------------------------------

def _fit_task(run: _Run, net, target: str, epochs: int, first_epoch: int = 0) -> list[dict]:
    """Fit net (forward(batch, mode, rng) -> logits, backward(d_logits)) on
    plain cross-entropy against the global labels (target "global", logged
    as task_loss) or one modality's local labels (logged as
    local_loss_<modality>)."""
    column = "task_loss" if target == "global" else f"local_loss_{target}"

    def labels(batch):
        return batch.y if target == "global" else batch.local[target]

    def step(batch):
        logits = net.forward(batch, "train", run.gumbel_rng)
        value, d_logits = _bce_with_logits(logits, one_hot(labels(batch)))
        net.backward(d_logits)
        return {column: value}

    return _fit(run, net, step, epochs,
                lambda: (net.forward(run.test_batch, "eval"), labels(run.test_batch)),
                first_epoch)


def train_task_only(model_like, split: DatasetSplit, cfg: ExperimentConfig, epochs: int):
    """Fit any model exposing forward(batch, mode, rng)->logits and
    backward(d_logits) on plain cross-entropy against the global labels,
    with random substreams of its own."""
    history = _fit_task(_start(split, cfg), model_like, "global", epochs)
    model_like.trained = True
    return history


# -- history file -----------------------------------------------------------------

def save_history(history, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=HISTORY_COLUMNS)
        writer.writeheader()
        writer.writerows(history)
