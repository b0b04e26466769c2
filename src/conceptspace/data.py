"""Synthetic two-modality benchmark: 6-bit tables paired with small graphs.

Each logical sample is rendered twice: as a bit string whose first two bits
carry an XOR sub-task, and as a 10-node graph whose family encodes a second
XOR sub-task. The global label is the AND of the two XOR outcomes, so neither
modality alone can solve the task. Graph node features are normalized
betweenness centralities computed after random-edge injection.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .config import is_finite_real, is_integer
from .errors import DatasetError
from .rng import substream

DATASET_VERSION = 1
NODE_COUNT = 10
N_BITS = 6


class GraphFamily(Enum):
    ISOLATED = "isolated"             # 10 disconnected nodes
    C4 = "c4"                         # 4-cycle plus 6 isolated nodes
    C6 = "c6"                         # 6-cycle plus 4 isolated nodes
    C4_C6_BRIDGED = "c4_c6_bridged"   # 4-cycle and 6-cycle joined by one edge


FAMILIES = (GraphFamily.ISOLATED, GraphFamily.C4, GraphFamily.C6,
            GraphFamily.C4_C6_BRIDGED)

# Two parity-preserving family -> bit-pair assignments. Both send
# {ISOLATED, C4_C6_BRIDGED} to XOR=0 and {C4, C6} to XOR=1, so the task
# labels are identical under either choice.
_BIJECTIONS = {
    "default": {
        GraphFamily.ISOLATED: (0, 0),
        GraphFamily.C4: (0, 1),
        GraphFamily.C6: (1, 0),
        GraphFamily.C4_C6_BRIDGED: (1, 1),
    },
    "swapped": {
        GraphFamily.ISOLATED: (1, 1),
        GraphFamily.C4: (1, 0),
        GraphFamily.C6: (0, 1),
        GraphFamily.C4_C6_BRIDGED: (0, 0),
    },
}


_FAMILY_OF = {name: {bits: family for family, bits in table.items()}
              for name, table in _BIJECTIONS.items()}


def _table(tables: dict, bijection: str) -> dict:
    try:
        return tables[bijection]
    except KeyError:
        raise ValueError(f"unknown bijection {bijection!r}") from None


def family_to_bits(family: GraphFamily, bijection: str = "default") -> tuple[int, int]:
    """Map a graph family to its 2-bit code under the chosen bijection."""
    return _table(_BIJECTIONS, bijection)[family]


def bits_to_family(code: tuple[int, int], bijection: str = "default") -> GraphFamily:
    """Inverse of family_to_bits (the mapping is a bijection)."""
    family = _table(_FAMILY_OF, bijection).get(tuple(code))
    if family is None:
        raise ValueError(f"code {code!r} is not a 2-bit pair")
    return family


@dataclass(frozen=True)
class TabularSample:
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != N_BITS or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be {N_BITS} values in {{0,1}}")

    @property
    def local_label(self) -> int:
        return self.bits[0] ^ self.bits[1]


@dataclass(frozen=True)
class GraphSample:
    node_count: int
    edges: tuple[tuple[int, int], ...]   # unordered unique pairs, stored i < j
    node_features: tuple[float, ...]     # normalized betweenness per node
    family: GraphFamily

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (0 <= i < j < self.node_count):
                raise ValueError(f"edge ({i},{j}) out of range or unordered")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        if len(self.node_features) != self.node_count:
            raise ValueError("one feature per node required")


@dataclass(frozen=True)
class PairedSample:
    id: int
    tabular: TabularSample
    graph: GraphSample
    local_label_tab: int
    local_label_graph: int
    global_label: int


def _paired(sample_id: int, tab: TabularSample, graph: GraphSample) -> PairedSample:
    """A sample with its labels: each modality's XOR, and their AND."""
    code = family_to_bits(graph.family)    # either bijection gives the same XOR
    local_graph = code[0] ^ code[1]
    return PairedSample(sample_id, tab, graph, tab.local_label, local_graph,
                        tab.local_label & local_graph)


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[PairedSample, ...]
    test: tuple[PairedSample, ...]
    seed: int


def _cycle_edges(nodes) -> list[tuple[int, int]]:
    ordered = list(nodes)
    return [(min(a, b), max(a, b)) for a, b in zip(ordered, ordered[1:] + ordered[:1])]


def _family_edges(family: GraphFamily) -> list[tuple[int, int]]:
    if family is GraphFamily.ISOLATED:
        return []
    if family is GraphFamily.C4:
        return _cycle_edges(range(4))
    if family is GraphFamily.C6:
        return _cycle_edges(range(6))
    return _cycle_edges(range(4)) + _cycle_edges(range(4, 10)) + [(0, 4)]


def betweenness(node_count: int, edges) -> np.ndarray:
    """Normalized betweenness centrality (Brandes, unweighted, undirected).

    Normalizer is (n-1)(n-2)/2, the number of node pairs excluding the
    vertex itself; isolated nodes score 0.
    """
    adj = [[] for _ in range(node_count)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    score = np.zeros(node_count)
    for s in range(node_count):
        stack = []
        preds = [[] for _ in range(node_count)]
        sigma = np.zeros(node_count)
        sigma[s] = 1.0
        dist = np.full(node_count, -1)
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(node_count)
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                score[w] += delta[w]
    # each unordered pair was visited from both endpoints
    score /= 2.0
    return score / ((node_count - 1) * (node_count - 2) / 2.0)


def generate_xor_and_xor(n_samples: int, seed: int, random_edge_max: int = 2,
                         bijection: str = "default") -> list[PairedSample]:
    """Draw paired samples: uniform bits, uniform family, 0..max extra edges.

    `bijection` must name a bijection but never changes a sample: both keep
    each family's XOR, so the labels are the same under either."""
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if random_edge_max < 0:
        raise ValueError("random_edge_max must be nonnegative")
    _table(_BIJECTIONS, bijection)     # rejects an unknown bijection
    rng = substream(seed, "data")
    samples = []
    for sid in range(n_samples):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=N_BITS))
        family = FAMILIES[rng.integers(0, len(FAMILIES))]
        edges = set(_family_edges(family))
        n_extra = int(rng.integers(0, random_edge_max + 1))
        for _ in range(n_extra):
            free = [(i, j) for i in range(NODE_COUNT) for j in range(i + 1, NODE_COUNT)
                    if (i, j) not in edges]
            if not free:
                break
            edges.add(free[rng.integers(0, len(free))])
        edge_tuple = tuple(sorted(edges))
        feats = betweenness(NODE_COUNT, edge_tuple)
        graph = GraphSample(NODE_COUNT, edge_tuple, tuple(float(f) for f in feats), family)
        samples.append(_paired(sid, TabularSample(bits), graph))
    return samples


def split(samples, ratio: float, seed: int) -> DatasetSplit:
    """Deterministic shuffled split; a sample never straddles the boundary."""
    if not 0 < ratio < 1:
        raise ValueError("ratio must be in (0, 1)")
    rng = substream(seed, "data")
    order = rng.permutation(len(samples))
    n_train = int(round(ratio * len(samples)))
    train = tuple(samples[i] for i in order[:n_train])
    test = tuple(samples[i] for i in order[n_train:])
    return DatasetSplit(train=train, test=test, seed=seed)


# -- cross-modal translation renderings ---------------------------------------
#
# Every sample's content exists in both modalities: the graph's family can be
# re-rendered as a bit string (its 2-bit code plus padding), and the table's
# meaningful bit pair as a canonical family graph. These renderings pair the
# modalities by content for the training regularizer and act as the auxiliary
# inputs that replace a missing modality at inference. They are synthesized
# deterministically from the sample id, never stored.

_AUX_STREAM = 0x7A51


def _aux_rng(sample_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((_AUX_STREAM, sample_id)))


def tabular_rendering(sample: PairedSample, bijection: str = "default") -> tuple[int, ...]:
    """The graph content as a bit string: family code + seeded padding bits."""
    code = family_to_bits(sample.graph.family, bijection)
    padding = _aux_rng(sample.id).integers(0, 2, size=N_BITS - 2)
    return code + tuple(int(b) for b in padding)


@functools.lru_cache(maxsize=len(FAMILIES))
def _canonical_graph(family: GraphFamily):
    """A family's canonical graph as (edges, betweenness features, normalized
    adjacency). It depends on the family alone, so it is computed once per
    family; the arrays are read-only because every caller shares them."""
    edges = tuple(sorted(_family_edges(family)))
    feats = betweenness(NODE_COUNT, edges)
    adj = normalized_adjacency(NODE_COUNT, edges)
    feats.setflags(write=False)
    adj.setflags(write=False)
    return edges, feats, adj


def _rendered_graph(sample: PairedSample, bijection: str):
    return _canonical_graph(bits_to_family(sample.tabular.bits[:2], bijection))


def graph_rendering(sample: PairedSample, bijection: str = "default"):
    """The tabular content as a canonical family graph (edges, features).
    The features are a shared read-only array."""
    edges, feats, _ = _rendered_graph(sample, bijection)
    return edges, feats


# -- batching ----------------------------------------------------------------
#
# A Batch is the one packed form of samples. as_arrays packs samples in list
# order; every other batch is rows taken from a packed batch (Batch.take) or a
# packed batch with its own and aux fields swapped (translation_batch).

@dataclass(frozen=True)
class Batch:
    ids: tuple[int, ...]
    graph_x: np.ndarray        # (b, NODE_COUNT, 1) betweenness features
    graph_adj: np.ndarray      # (b, NODE_COUNT, NODE_COUNT) normalized adjacency
    tab_x: np.ndarray          # (b, N_BITS)
    y: np.ndarray              # (b,) global labels
    y_onehot: np.ndarray       # (b, 2)
    local: dict                # modality -> (b,) local labels
    aux_graph_x: np.ndarray | None = None    # graph rendering of the tabular content
    aux_graph_adj: np.ndarray | None = None
    aux_tab_x: np.ndarray | None = None      # tabular rendering of the graph content

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, idx: np.ndarray) -> Batch:
        """Rows `idx` of this batch, in that order, as a batch of their own
        (integer-array indexing copies, so it shares no array with this one)."""
        arrays = {name: value[idx] for name, value in vars(self).items()
                  if isinstance(value, np.ndarray)}
        return replace(self, ids=tuple(self.ids[i] for i in idx),
                       local={m: v[idx] for m, v in self.local.items()}, **arrays)


def normalized_adjacency(node_count: int, edges) -> np.ndarray:
    """Symmetric degree-normalized adjacency with self-loops."""
    a = np.eye(node_count)
    for i, j in edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def one_hot(labels: np.ndarray) -> np.ndarray:
    """(n, 2) float targets of binary labels."""
    onehot = np.zeros((len(labels), 2))
    onehot[np.arange(len(labels)), labels] = 1.0
    return onehot


def as_arrays(samples, bijection: str = "default", with_aux: bool = True) -> Batch:
    """Pack a list of samples into one model-ready Batch, in list order.
    with_aux=False leaves out the translation renderings (the aux fields),
    which eval-mode encoding never reads."""
    n = len(samples)
    graph_x = np.zeros((n, NODE_COUNT, 1))
    graph_adj = np.zeros((n, NODE_COUNT, NODE_COUNT))
    tab_x = np.zeros((n, N_BITS))
    for k, s in enumerate(samples):
        graph_x[k, :, 0] = s.graph.node_features
        graph_adj[k] = normalized_adjacency(s.graph.node_count, s.graph.edges)
        tab_x[k] = s.tabular.bits
    y = np.array([s.global_label for s in samples], dtype=np.int64)
    batch = Batch(
        ids=tuple(int(s.id) for s in samples), graph_x=graph_x, graph_adj=graph_adj,
        tab_x=tab_x, y=y, y_onehot=one_hot(y),
        local={"graph": np.array([s.local_label_graph for s in samples], dtype=np.int64),
               "tabular": np.array([s.local_label_tab for s in samples], dtype=np.int64)})
    if not with_aux:
        return batch
    aux_graph_x = np.zeros((n, NODE_COUNT, 1))
    aux_graph_adj = np.zeros((n, NODE_COUNT, NODE_COUNT))
    aux_tab_x = np.zeros((n, N_BITS))
    for k, s in enumerate(samples):
        _, feats, adj = _rendered_graph(s, bijection)
        aux_graph_x[k, :, 0] = feats
        aux_graph_adj[k] = adj
        aux_tab_x[k] = tabular_rendering(s, bijection)
    return replace(batch, aux_graph_x=aux_graph_x, aux_graph_adj=aux_graph_adj,
                   aux_tab_x=aux_tab_x)


def batches(packed: Batch, batch_size: int,
            rng: np.random.Generator | None = None) -> list[Batch]:
    """Cut `packed` into batches of batch_size rows, in row order.

    Given rng, a training pass: the rows go in rng.permutation order and a
    trailing batch of one row is dropped, because batch standardization is
    degenerate there. Without it every batch is kept (inference runs on
    running statistics).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    n = len(packed)
    order = np.arange(n) if rng is None else rng.permutation(n)
    out = []
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if rng is not None and len(idx) == 1:
            continue
        out.append(packed.take(idx))
    return out


def whole_batch(samples, bijection: str = "default") -> Batch:
    """All samples as a single batch, with the translation renderings."""
    return as_arrays(samples, bijection)


def translation_batch(samples, bijection: str = "default",
                      packed: Batch | None = None) -> Batch:
    """A batch whose modality slots hold the cross-modal renderings: the graph
    slot carries each sample's tabular content as a graph, the tabular slot
    the graph content as bits, and the aux slots the samples' own inputs.
    Encoding it yields the auxiliary representations used when a modality is
    missing. Given `packed` (as_arrays of the samples, with the aux rows), it
    shares that batch's arrays; translating a translation gives the fields
    back. Raises ValueError when `packed` has no aux rows."""
    b = packed if packed is not None else as_arrays(samples, bijection)
    if b.aux_graph_x is None:
        raise ValueError("translation_batch needs a batch packed with its aux rows")
    return replace(b, graph_x=b.aux_graph_x, aux_graph_x=b.graph_x,
                   graph_adj=b.aux_graph_adj, aux_graph_adj=b.graph_adj,
                   tab_x=b.aux_tab_x, aux_tab_x=b.tab_x)


# -- serialization -----------------------------------------------------------

def save_dataset(samples, path: str, *, seed: int, random_edge_max: int,
                 bijection: str) -> None:
    """One JSON document: header plus a samples array. Round-trip is lossless."""
    doc = {
        "version": DATASET_VERSION,
        "seed": seed,
        "n_samples": len(samples),
        "random_edge_max": random_edge_max,
        "bijection": bijection,
        "samples": [
            {
                "id": s.id,
                "bits": list(s.tabular.bits),
                "family": s.graph.family.value,
                "edges": [list(e) for e in s.graph.edges],
                "features": list(s.graph.node_features),
                "local_tab": s.local_label_tab,
                "local_graph": s.local_label_graph,
                "global": s.global_label,
            }
            for s in samples
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))


_HEADER_FIELDS = ("version", "seed", "n_samples", "random_edge_max", "bijection")
_RECORD_FIELDS = ("id", "bits", "family", "edges", "features", "local_tab",
                  "local_graph", "global")


def _sample_from_record(rec: dict) -> PairedSample:
    missing = [k for k in _RECORD_FIELDS if k not in rec]
    if missing:
        raise ValueError(f"lacks {', '.join(missing)}")
    if not is_integer(rec["id"]):
        raise ValueError(f"id {rec['id']!r} is not an integer")
    if len(rec["features"]) != NODE_COUNT:
        raise ValueError(f"has {len(rec['features'])} nodes, not {NODE_COUNT}")
    if not all(map(is_integer, rec["bits"])):
        raise ValueError(f"bits {rec['bits']!r} are not all integers")
    for edge in rec["edges"]:
        if not all(map(is_integer, edge)):
            raise ValueError(f"edge {edge!r} has an endpoint that is not an integer")
    for value in rec["features"]:
        if not is_finite_real(value):
            raise ValueError(f"feature {value!r} is not a finite number")
    graph = GraphSample(
        node_count=NODE_COUNT,
        edges=tuple(tuple(e) for e in rec["edges"]),
        node_features=tuple(rec["features"]),
        family=GraphFamily(rec["family"]),
    )
    sample = _paired(rec["id"], TabularSample(tuple(rec["bits"])), graph)
    for key, want in (("local_tab", sample.local_label_tab),
                      ("local_graph", sample.local_label_graph),
                      ("global", sample.global_label)):
        if rec[key] != want:
            raise ValueError(f"{key} is {rec[key]!r}, its bits and family give {want}")
    return sample


def load_dataset(path: str) -> tuple[list[PairedSample], dict]:
    """Read a file written by save_dataset. Raises DatasetError when a header
    field, `samples` or a record field is missing, the header's n_samples
    differs from the record count, an id repeats or is not an integer (a
    bool included), a graph does not have NODE_COUNT nodes, a bit or an edge
    endpoint is not an integer, a feature is not a finite number (a bool is neither),
    or a label disagrees with the bits and family. Stored feature values are
    taken as they are."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DatasetError("dataset is not a JSON object")
    if doc.get("version") != DATASET_VERSION:
        raise DatasetError(f"unsupported dataset version {doc.get('version')}")
    missing = [k for k in (*_HEADER_FIELDS, "samples") if k not in doc]
    if missing:
        raise DatasetError(f"dataset lacks {', '.join(missing)}")
    records = doc["samples"]
    if not isinstance(records, list):
        raise DatasetError("dataset samples is not a list")
    if doc["n_samples"] != len(records):
        raise DatasetError(f"dataset header says {doc['n_samples']} samples, "
                           f"it holds {len(records)}")
    if doc["bijection"] not in _BIJECTIONS:
        raise DatasetError(f"unknown bijection {doc['bijection']!r}")
    samples, seen = [], set()
    for pos, rec in enumerate(records):
        try:
            sample = _sample_from_record(rec)
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"dataset record {pos}: {exc}") from None
        if sample.id in seen:
            raise DatasetError(f"dataset id {sample.id} appears more than once")
        seen.add(sample.id)
        samples.append(sample)
    header = {k: doc[k] for k in _HEADER_FIELDS}
    return samples, header
