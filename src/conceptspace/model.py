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

from .config import MODALITIES, ExperimentConfig, first_difference
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
    distinct_rows,
)
from .rng import substream

CHECKPOINT_VERSION = 1


class DenseEncoder(MLP):
    """Backbone for bit-string inputs."""

    def __init__(self, cfg: ExperimentConfig, rng, name: str):
        super().__init__(N_BITS, cfg.dense_hidden, cfg.local_width, rng, name)

    def inputs(self, batch: Batch, with_aux: bool = False):
        return (np.concatenate([batch.tab_x, batch.aux_tab_x]) if with_aux else batch.tab_x,)

    def forward(self, x, mode: str = "train", rng=None, gumbel_mode=None):
        if x.ndim != 2 or x.shape[1] != N_BITS:
            raise ValueError(f"tabular input must be (b, {N_BITS})")
        return super().forward(x)

    def backward(self, g):
        # the bits are data: lin1 needs no input gradient
        self.lin1.backward_params(self.act.backward(self.lin2.backward(g)))


class GraphEncoder(Module):
    """Backbone for the graphs that a batch's rows index in its graph table.

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
        self._n_nodes = self._inverse = None

    def inputs(self, batch: Batch, with_aux: bool = False):
        """(table_x, table_adj, rows), the aux rows appended with_aux."""
        rows = np.concatenate([batch.graph, batch.aux_graph]) if with_aux else batch.graph
        return batch.table_x, batch.table_adj, rows

    def forward(self, h, adj, rows, mode: str = "train", rng=None, gumbel_mode=None):
        """Encode the graphs h[rows], adj[rows] of a graph table. A batch of 3 rows
        or more runs the convolutions once per distinct row index (nn.distinct_rows),
        which the packer gives each byte-distinct graph, and gathers its rows back
        after the node sum, or before the node concepts where the Gumbel takes them
        per row (train and soft mode), so its noise keeps its shape and order."""
        rows = np.asarray(rows)
        if h.ndim != 3 or h.shape[1] < 1 or np.shape(adj) != h.shape[:2] + h.shape[1:2]:
            raise ValueError("graph table must be (g, nodes>=1, 1), adj (g, nodes, nodes)")
        if rows.ndim != 1 or rows.dtype.kind not in "iu" or len(rows) and (
                rows.min() < 0 or rows.max() >= len(h)):
            raise ValueError(f"graph rows must be a 1-D integer index into {len(h)} graphs")
        self._n_nodes, self._inverse = h.shape[1], None
        if len(rows) >= 3:
            first, self._inverse = distinct_rows(rows[:, None])
            rows = rows[first]
        h, adj = h[rows], adj[rows]
        for i, conv in enumerate(self.convs):
            h = conv.forward(h, adj)
            if i < len(self.acts):
                h = self.acts[i].forward(h)
        back = self._inverse
        if back is not None and self.discretize and (gumbel_mode or mode) != "eval":
            h, back = h[back], None
        if self.discretize:
            h = self.gumbel.forward(h, gumbel_mode or mode, rng)
        z = h.sum(axis=1)
        return z if back is None else z[back]

    def backward(self, g):
        """After the Gumbel backward, the rows of each distinct graph are
        summed, in row order, and the convolutions run backward on the
        distinct graphs as forward ran them."""
        # undo the node sum: every node sees the same upstream gradient
        gh = np.broadcast_to(g[:, None, :], (g.shape[0], self._n_nodes, g.shape[1]))
        if self.discretize:
            gh = self.gumbel.backward(gh)
        if self._inverse is not None:
            order = np.argsort(self._inverse, kind="stable")
            starts = np.flatnonzero(np.diff(self._inverse[order], prepend=-1))
            gh = np.add.reduceat(gh[order], starts, axis=0)
        for i in range(len(self.convs) - 1, 0, -1):
            gh = self.acts[i - 1].backward(self.convs[i].backward(gh))
        self.convs[0].backward_params(gh)        # the node features are data


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
    and the graph encoder sum-pools raw node embeddings). Every model is
    built through here, so an invalid cfg raises ValueError here."""
    cfg.validate()
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
            gs[m] = np.zeros((rows, g.shape[1]))      # no head gradient on aux rows
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
# then raw little-endian float64 blocks in manifest order. The manifest is
# _manifest(model); loading rebuilds the model from the embedded config and
# accepts the file only if it is what save_model would write for that model.

def _model_blocks(model) -> list[tuple[str, np.ndarray]]:
    """What a checkpoint holds: sorted parameters, then sorted buffers."""
    return sorted(model.parameters().items()) + sorted(model.buffers().items())


def _manifest(model) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "config": model.config.to_dict(),
        "modalities": list(MODALITIES),
        "trained": bool(model.trained),
        "rescale_trained": {name: bool(state.trained)
                            for name, state in model.rescale_states().items()},
        "blocks": [{"name": n, "shape": list(a.shape)} for n, a in _model_blocks(model)],
    }


def save_model(model, path: str) -> None:
    mbytes = json.dumps(_manifest(model), sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(mbytes)))
        fh.write(mbytes)
        for _, arr in _model_blocks(model):
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
    return manifest, raw[8 + mlen:]


def read_manifest(path: str) -> dict:
    return _read_checkpoint(path)[0]


def load_model(path: str):
    """Rebuild the model a checkpoint describes from its kind and config, with
    local heads if a block is named for one, and its trained flags. Raises
    CheckpointMismatchError unless the file is what save_model writes for
    it: a manifest equal to _manifest(model) in types as well as values (a
    flag is true or false, not "no" or 1), then exactly the model's blocks,
    every value finite and every running_var at least 0."""
    from . import baselines  # registry of baseline kinds; deferred to avoid a cycle

    manifest, payload = _read_checkpoint(path)
    try:
        kind = manifest["kind"]
        cfg = ExperimentConfig.from_dict(manifest["config"])
        heads = any(spec["name"].startswith("local_head.") for spec in manifest["blocks"])
        model = (SharedConceptModel(cfg, substream(cfg.seed, "init"), with_local_heads=heads)
                 if kind == SharedConceptModel.kind else baselines.build_baseline(kind, cfg))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointMismatchError(f"checkpoint manifest is damaged: {exc!r}") from exc
    flags = manifest.get("rescale_trained")
    for name, state in model.rescale_states().items():
        state.trained = flags.get(name, False) if isinstance(flags, dict) else False
    model.trained = manifest.get("trained")
    note = first_difference(manifest, _manifest(model))
    if note:
        raise CheckpointMismatchError(
            f"checkpoint manifest does not match a {kind} model built from its config: {note}")
    blocks = _model_blocks(model)
    sizes = [a.size for _, a in blocks]
    if len(payload) != 8 * sum(sizes):
        raise CheckpointMismatchError(f"checkpoint payload is {len(payload)} bytes, "
                                      f"its manifest describes {8 * sum(sizes)}")
    values = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(values).all():
        raise CheckpointMismatchError(f"checkpoint {path} holds a value that is not finite")
    for (_, arr), part in zip(blocks, np.split(values, np.cumsum(sizes)[:-1])):
        arr[...] = part.reshape(arr.shape)
    if any((state.running_var < 0).any() for state in model.rescale_states().values()):
        raise CheckpointMismatchError(f"checkpoint {path} holds a negative running_var")
    return model
