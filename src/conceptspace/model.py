"""Forward architecture: per-modality encoders feeding one shared concept space.

Pipeline per batch (all float64):

    graph:   5x graph conv -> node-concept logits -> straight-through one-hot
             -> occurrence counts -> batch rescale -> sigmoid -> local concepts
    tabular: 2-layer dense net -> batch rescale -> sigmoid -> local concepts
    both:    2-layer projector -> one rescale over the union of all
             modalities' rows -> sigmoid -> shared concepts
    head:    concatenation in fixed modality order -> 2-layer net -> logits

Shared-space rescaling pools statistics across every modality's projections
so the modalities land on a common scale; that is what lets one modality's
concepts be read through another's.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .config import MODALITIES, ExperimentConfig
from .data import Batch, N_BITS
from .errors import CheckpointMismatchError
from .nn import (
    BatchRescale,
    GraphConv,
    GumbelSoftmax,
    LeakyReLU,
    MLP,
    Module,
    Sigmoid,
)
from .rng import substream

CHECKPOINT_VERSION = 1


class DenseEncoder(MLP):
    """Backbone for bit-string inputs."""

    def __init__(self, cfg: ExperimentConfig, rng, name: str):
        super().__init__(N_BITS, cfg.dense_hidden, cfg.local_width, rng, name)

    def inputs(self, batch: Batch, with_aux: bool = False):
        if with_aux:
            return (np.concatenate([batch.tab_x, batch.aux_tab_x], axis=0),)
        return (batch.tab_x,)

    def forward(self, x, mode: str = "train", rng=None, gumbel_mode=None):
        if x.ndim != 2 or x.shape[1] != N_BITS:
            raise ValueError(f"tabular input must be (b, {N_BITS})")
        return super().forward(x)


class GraphEncoder(Module):
    """Backbone for node-feature/adjacency inputs.

    With discretize=True each node is assigned a hard one-hot node concept
    (straight-through sampled in training, argmax at eval) and the graph is
    summarized by how often each node concept occurs. With discretize=False
    the raw node embeddings are sum-pooled (used by concept-free baselines).
    """

    def __init__(self, cfg: ExperimentConfig, rng, name: str, discretize: bool = True):
        dims = [1] + [cfg.graph_hidden] * (cfg.graph_layers - 1) + [cfg.local_width]
        # last layer emits node-concept logits: bias starts at zero there
        self.convs = [GraphConv(dims[i], dims[i + 1], rng, f"{name}.conv{i}",
                                zero_bias=(i == cfg.graph_layers - 1))
                      for i in range(cfg.graph_layers)]
        self.acts = [LeakyReLU(cfg.leaky_slope) for _ in range(cfg.graph_layers - 1)]
        self.discretize = discretize
        self.gumbel = GumbelSoftmax(cfg.tau) if discretize else None
        self._n_nodes = None

    def inputs(self, batch: Batch, with_aux: bool = False):
        if with_aux:
            return (np.concatenate([batch.graph_x, batch.aux_graph_x], axis=0),
                    np.concatenate([batch.graph_adj, batch.aux_graph_adj], axis=0))
        return (batch.graph_x, batch.graph_adj)

    def forward(self, h, adj=None, mode: str = "train", rng=None, gumbel_mode=None):
        if h.ndim != 3 or h.shape[1] < 1:
            raise ValueError("graph input must be (b, nodes>=1, 1)")
        self._n_nodes = h.shape[1]
        for i, conv in enumerate(self.convs):
            h = conv.forward(h, adj)
            if i < len(self.acts):
                h = self.acts[i].forward(h)
        if self.discretize:
            node_concepts = self.gumbel.forward(h, gumbel_mode or mode, rng)
            return node_concepts.sum(axis=1)
        return h.sum(axis=1)

    def backward(self, g):
        # undo the node sum: every node sees the same upstream gradient
        gh = np.broadcast_to(g[:, None, :], (g.shape[0], self._n_nodes, g.shape[1]))
        if self.discretize:
            gh = self.gumbel.backward(gh)
        for i in reversed(range(len(self.convs))):
            if i < len(self.acts):
                gh = self.acts[i].backward(gh)
            gh = self.convs[i].backward(gh)


class ConceptStage(Module):
    """Batch rescale + sigmoid turning backbone outputs into concepts."""

    def __init__(self, width: int, name: str, momentum: float, eps: float):
        self.rescale = BatchRescale(width, name, momentum, eps)
        self.sig = Sigmoid()

    def forward(self, z, mode):
        return self.sig.forward(self.rescale.forward(z, mode))

    def backward(self, g):
        return self.rescale.backward(self.sig.backward(g))


def fresh_encoders(cfg: ExperimentConfig, rng, modalities=MODALITIES,
                   concepts: bool = True) -> tuple[dict, dict]:
    """New encoders for `modalities`, built (and drawing from rng) in that
    order, and a concept stage for each when `concepts` is set (else none,
    and the graph encoder sum-pools raw node embeddings)."""
    encoders = {m: GraphEncoder(cfg, rng, f"enc.{m}", discretize=concepts)
                if m == "graph" else DenseEncoder(cfg, rng, f"enc.{m}")
                for m in modalities}
    stages = {m: ConceptStage(cfg.local_width, f"local_rescale.{m}",
                              cfg.rescale_momentum, cfg.rescale_eps)
              for m in modalities} if concepts else {}
    return encoders, stages


class SharedStage(Module):
    """Project local concepts and rescale over the union of all modalities.

    One statistics state serves every modality: the rows of all projected
    batches are stacked before standardization, so the result for a row does
    not depend on which modality contributed it.
    """

    def __init__(self, cfg: ExperimentConfig, rng):
        self.projectors = {
            mod: MLP(cfg.local_width, cfg.projector_hidden, cfg.shared_width,
                     rng, f"proj.{mod}")
            for mod in MODALITIES
        }
        self.concepts = ConceptStage(cfg.shared_width, "shared_rescale",
                                     cfg.rescale_momentum, cfg.rescale_eps)
        self.rows = 0            # row count of the last forward, per modality

    def forward(self, local_c: dict, mode: str) -> dict:
        sizes = [local_c[m].shape[0] for m in MODALITIES]
        if len(set(sizes)) != 1:
            raise ValueError("modalities must contribute equal batch lengths")
        stacked = np.concatenate([self.projectors[m].forward(local_c[m])
                                  for m in MODALITIES], axis=0)
        out = self.concepts.forward(stacked, mode)
        b = sizes[0]
        self.rows = b
        return {m: out[i * b:(i + 1) * b] for i, m in enumerate(MODALITIES)}

    def backward(self, g_shared: dict) -> dict:
        b = g_shared[MODALITIES[0]].shape[0]
        g = np.concatenate([g_shared[m] for m in MODALITIES], axis=0)
        g = self.concepts.backward(g)
        return {m: self.projectors[m].backward(g[i * b:(i + 1) * b])
                for i, m in enumerate(MODALITIES)}


class ConcatHeadModel(Module):
    """Encoders, each followed by its concept stage when stages are given,
    and one head reading their outputs side by side in the encoders' order.

    Every baseline is one of these, and so are the task-only nets that the
    two-phase regimes fit in phase 1 over the shared model's own encoders.
    """

    def __init__(self, cfg: ExperimentConfig, kind: str, encoders: dict,
                 stages: dict, head: MLP):
        self.config = cfg
        self.kind = kind
        self.encoders = encoders
        self.stages = stages
        self.head = head
        self.trained = False

    def embed(self, batch: Batch, mode: str, rng=None, gumbel_mode=None,
              with_aux: bool = False) -> dict:
        """Each modality's encoder output, through its concept stage when there
        are stages. with_aux appends each sample's cross-modal translation
        rendering as extra rows (2b per modality), giving the regularizer
        content-matched pairs under the same batch statistics."""
        out = {}
        for m, enc in self.encoders.items():
            z = enc.forward(*enc.inputs(batch, with_aux), mode=mode, rng=rng,
                            gumbel_mode=gumbel_mode)
            out[m] = self.stages[m].forward(z, mode) if self.stages else z
        return out

    def predict(self, spaces: dict) -> np.ndarray:
        """The head's logits over the spaces side by side, in the encoders'
        order; every encoder's modality must be present."""
        missing = [m for m in self.encoders if m not in spaces]
        if missing:
            raise ValueError(f"missing modalities {missing}; substitute them first")
        return self.head.forward(np.concatenate([spaces[m] for m in self.encoders], axis=1))

    def forward(self, batch: Batch, mode: str, rng=None) -> np.ndarray:
        return self.predict(self.embed(batch, mode, rng))

    def backward(self, d_logits: np.ndarray) -> None:
        self.backward_embed(self.backward_head(d_logits))

    def backward_head(self, d_logits: np.ndarray) -> dict:
        """The gradient of the head's input, split by modality."""
        g = self.head.backward(d_logits)
        k = g.shape[1] // len(self.encoders)
        return {m: g[:, i * k:(i + 1) * k] for i, m in enumerate(self.encoders)}

    def backward_embed(self, grads: dict) -> None:
        """Accumulate the encoders' gradients from those of embed's outputs."""
        for m, enc in self.encoders.items():
            enc.backward(self.stages[m].backward(grads[m]) if self.stages else grads[m])


@dataclass
class ForwardResult:
    local: dict            # modality -> (b, k) local concepts
    shared: dict           # modality -> (b, t) shared concepts
    logits: np.ndarray     # (b, n_classes)
    local_logits: dict     # modality -> (b, n_classes), empty if no local heads


class SharedConceptModel(ConcatHeadModel):
    """Encoders, shared projectors and label predictor as one trainable unit:
    a ConcatHeadModel whose head, the predictor, reads the shared concepts."""

    kind = "shared"
    concept_based = True

    def __init__(self, cfg: ExperimentConfig, rng, with_local_heads: bool = False):
        cfg.validate()
        encoders, stages = fresh_encoders(cfg, rng)
        self.shared_stage = SharedStage(cfg, rng)
        super().__init__(cfg, self.kind, encoders, stages,
                         MLP(len(MODALITIES) * cfg.shared_width, cfg.head_hidden,
                             cfg.n_classes, rng, "predictor"))
        self.local_heads = {}
        if with_local_heads:
            self.local_heads = {
                mod: MLP(cfg.local_width, cfg.head_hidden, cfg.n_classes,
                         rng, f"local_head.{mod}")
                for mod in MODALITIES
            }
        self.frozen_encoders = False

    # -- forward -------------------------------------------------------------

    def forward(self, batch: Batch, mode: str, *, gumbel_rng=None,
                gumbel_mode=None, with_aux: bool = False,
                frozen_encoders: bool = False) -> ForwardResult:
        """frozen_encoders runs the encoders and their concept stages in eval
        mode, and the backward pass that follows stops short of them."""
        self.frozen_encoders = frozen_encoders
        local = self.embed(batch, "eval" if frozen_encoders else mode, gumbel_rng,
                           gumbel_mode, with_aux)
        shared = self.shared_stage.forward(local, mode)
        b = len(batch)
        logits = self.predict({m: shared[m][:b] for m in MODALITIES})
        local_logits = {mod: head.forward(local[mod][:b])
                        for mod, head in self.local_heads.items()}
        return ForwardResult(local, shared, logits, local_logits)

    def index_spaces(self, batch: Batch) -> dict:
        """Eval-mode shared concepts; the space all explanations live in."""
        return self.shared_stage.forward(self.embed(batch, "eval"), "eval")

    # -- backward ------------------------------------------------------------

    def backward(self, d_logits: np.ndarray, d_shared: dict | None = None,
                 d_local_logits: dict | None = None) -> None:
        """Accumulate gradients. Extra terms enter at the shared concepts
        (distance regularizer, over all rows including translation renderings)
        and at the local heads (local losses, task rows only)."""
        b = d_logits.shape[0]
        rows = self.shared_stage.rows
        gs = {}
        for m, g in self.backward_head(d_logits).items():
            gs[m] = np.zeros((rows, g.shape[1]))
            gs[m][:b] = g
        if d_shared:
            for m, extra in d_shared.items():
                gs[m] += extra
        gc = self.shared_stage.backward(gs)
        if d_local_logits:
            for m, g in d_local_logits.items():
                gc[m][:b] += self.local_heads[m].backward(g)
        if not self.frozen_encoders:
            self.backward_embed(gc)

    # -- parameter bookkeeping -------------------------------------------------

    def param_groups(self) -> dict:
        groups = {f"encoder.{m}": self.encoders[m].parameters() for m in MODALITIES}
        groups.update({f"projector.{m}": self.shared_stage.projectors[m].parameters()
                       for m in MODALITIES})
        groups["predictor"] = self.head.parameters()
        for m, head in self.local_heads.items():
            groups[f"local_head.{m}"] = head.parameters()
        return groups


# -- checkpoints ---------------------------------------------------------------
#
# Layout: 8-byte little-endian manifest length, JSON manifest (sorted keys),
# then raw little-endian float64 blocks in manifest order. The manifest tags
# every block with name and shape; loading validates both against the model
# rebuilt from the embedded config.

def _model_blocks(model) -> list[tuple[str, np.ndarray]]:
    """What a checkpoint holds: sorted parameters, then sorted buffers."""
    return sorted(model.parameters().items()) + sorted(model.buffers().items())


def save_model(model, path: str) -> None:
    blocks = _model_blocks(model)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "config": model.config.to_dict(),
        "modalities": list(MODALITIES),
        "trained": bool(model.trained),
        "rescale_trained": {name: bool(state.trained)
                            for name, state in model.rescale_states().items()},
        "blocks": [{"name": n, "shape": list(a.shape)} for n, a in blocks],
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(mbytes)))
        fh.write(mbytes)
        for _, arr in blocks:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_checkpoint(path: str) -> tuple[dict, bytes]:
    """Split a checkpoint file into its manifest and its block payload."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise CheckpointMismatchError(f"checkpoint {path} is shorter than its header")
    (mlen,) = struct.unpack("<Q", raw[:8])
    if len(raw) < 8 + mlen:
        raise CheckpointMismatchError(
            f"checkpoint {path} ends inside its {mlen}-byte manifest")
    try:
        manifest = json.loads(raw[8:8 + mlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointMismatchError(f"checkpoint manifest is unreadable: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointMismatchError(f"checkpoint {path}'s manifest is not an object")
    return manifest, raw[8 + mlen:]


def read_manifest(path: str) -> dict:
    return _read_checkpoint(path)[0]


def load_model(path: str):
    """Rebuild the model a checkpoint describes. The manifest must list
    exactly the model's blocks, with their shapes, and the payload must hold
    exactly those blocks: nothing missing, short or left over."""
    from . import baselines  # registry of baseline kinds; deferred to avoid a cycle

    manifest, payload = _read_checkpoint(path)
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            f"unsupported checkpoint version {manifest.get('version')}")
    try:
        kind, trained = manifest["kind"], manifest["trained"]
        rescale_trained = dict(manifest["rescale_trained"])
        names = [str(spec["name"]) for spec in manifest["blocks"]]
        shapes = [tuple(spec["shape"]) for spec in manifest["blocks"]]
        cfg = ExperimentConfig.from_dict(manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointMismatchError(f"checkpoint manifest is damaged: {exc!r}") from exc
    if kind == SharedConceptModel.kind:
        has_heads = any(n.startswith("local_head.") for n in names)
        model = SharedConceptModel(cfg, substream(cfg.seed, "init"),
                                   with_local_heads=has_heads)
    elif kind in baselines.BASELINE_KINDS:
        model = baselines.build_baseline(kind, cfg)
    else:
        raise CheckpointMismatchError(f"checkpoint holds an unknown model kind {kind!r}")
    targets = dict(_model_blocks(model))
    if sorted(names) != sorted(targets):
        missing = sorted(set(targets) - set(names))
        extra = sorted(set(names) - set(targets))
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise CheckpointMismatchError(
            f"checkpoint blocks do not match a {kind} model: missing {missing}, "
            f"unexpected {extra}, repeated {repeated}")
    for name, shape in zip(names, shapes):
        if targets[name].shape != shape:
            raise CheckpointMismatchError(
                f"block {name!r} has shape {shape}, expected {targets[name].shape}")
    expected = 8 * sum(targets[name].size for name in names)
    if len(payload) != expected:
        raise CheckpointMismatchError(
            f"checkpoint payload is {len(payload)} bytes, its manifest describes {expected}")
    offset = 0
    for name, shape in zip(names, shapes):
        size = 8 * targets[name].size
        targets[name][...] = np.frombuffer(payload[offset:offset + size],
                                           dtype="<f8").reshape(shape)
        offset += size
    for name, state in model.rescale_states().items():
        state.trained = rescale_trained.get(name, False)
    model.trained = trained
    return model

