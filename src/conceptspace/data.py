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

from .config import first_difference, is_finite_real, train_size
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
    except (KeyError, TypeError):        # TypeError: an unhashable name
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
    n_train = train_size(len(samples), ratio)
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


@functools.lru_cache(maxsize=1 << 14)
def _aux_padding(sample_id: int) -> tuple[int, ...]:
    """The padding bits of a sample's tabular rendering; a pure function of
    its id, so each id's bits are drawn once."""
    return tuple(int(b) for b in _aux_rng(sample_id).integers(0, 2, size=N_BITS - 2))


def tabular_rendering(sample: PairedSample, bijection: str = "default") -> tuple[int, ...]:
    """The graph content as a bit string: family code + seeded padding bits."""
    return family_to_bits(sample.graph.family, bijection) + _aux_padding(sample.id)


@functools.lru_cache(maxsize=len(FAMILIES))
def _canonical_graph(family: GraphFamily):
    """A family's canonical graph as (edges, betweenness features). It
    depends on the family alone, so it is computed once per family; the
    features are read-only because every caller shares them."""
    edges = tuple(sorted(_family_edges(family)))
    feats = betweenness(NODE_COUNT, edges)
    feats.setflags(write=False)
    return edges, feats


def graph_rendering(sample: PairedSample, bijection: str = "default"):
    """The tabular content as a canonical family graph (edges, features).
    The features are a shared read-only array."""
    return _canonical_graph(bits_to_family(sample.tabular.bits[:2], bijection))


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
    return _adjacency_stack(node_count, [edges])[0]


def _adjacency_stack(node_count: int, edge_lists) -> np.ndarray:
    """normalized_adjacency of each edge list, stacked: (len, node_count, node_count)."""
    nn = node_count * node_count
    a = np.zeros((len(edge_lists), node_count, node_count))
    a.reshape(-1, nn)[:, ::node_count + 1] = 1.0          # a view: self-loops
    a.put([k * nn + p for k, edges in enumerate(edge_lists) for i, j in edges
           for p in (i * node_count + j, j * node_count + i)], 1.0)
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=2))
    a *= d_inv_sqrt[:, :, None]
    a *= d_inv_sqrt[:, None, :]
    return a


def one_hot(labels: np.ndarray) -> np.ndarray:
    """(n, 2) float targets of binary labels."""
    onehot = np.zeros((len(labels), 2))
    onehot[np.arange(len(labels)), labels] = 1.0
    return onehot


def _pack(graphs) -> tuple[np.ndarray, np.ndarray]:
    """(graph_x, graph_adj) of a list of (edges, features) graphs, with one
    normalized adjacency per distinct edge tuple, gathered into the rows."""
    distinct = {}          # each distinct edge tuple -> its row in the stack
    rows = [distinct.setdefault(edges, len(distinct)) for edges, _ in graphs]
    x = np.array([feats for _, feats in graphs], dtype=float)
    return x.reshape(len(x), NODE_COUNT, 1), _adjacency_stack(NODE_COUNT, list(distinct))[rows]


def as_arrays(samples, bijection: str = "default", with_aux: bool = True) -> Batch:
    """Pack a list of samples into one model-ready Batch, in list order.
    with_aux=False leaves out the translation renderings (the aux fields),
    which eval-mode encoding never reads."""
    n = len(samples)
    graph_x, graph_adj = _pack([(s.graph.edges, s.graph.node_features) for s in samples])
    tab_x = np.array([s.tabular.bits for s in samples], dtype=float).reshape(n, N_BITS)
    y = np.array([s.global_label for s in samples], dtype=np.int64)
    batch = Batch(
        ids=tuple(int(s.id) for s in samples), graph_x=graph_x, graph_adj=graph_adj,
        tab_x=tab_x, y=y, y_onehot=one_hot(y),
        local={"graph": np.array([s.local_label_graph for s in samples], dtype=np.int64),
               "tabular": np.array([s.local_label_tab for s in samples], dtype=np.int64)})
    if not with_aux:
        return batch
    aux_graph_x, aux_graph_adj = _pack([graph_rendering(s, bijection) for s in samples])
    aux_tab_x = np.array([tabular_rendering(s, bijection) for s in samples], dtype=float)
    return replace(batch, aux_graph_x=aux_graph_x, aux_graph_adj=aux_graph_adj,
                   aux_tab_x=aux_tab_x.reshape(tab_x.shape))


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

def _record(s: PairedSample) -> dict:
    return {"id": s.id, "bits": list(s.tabular.bits), "family": s.graph.family.value,
            "edges": [list(e) for e in s.graph.edges],
            "features": list(s.graph.node_features), "local_tab": s.local_label_tab,
            "local_graph": s.local_label_graph, "global": s.global_label}


def save_dataset(samples, path: str, *, seed: int, random_edge_max: int,
                 bijection: str) -> None:
    """One JSON document: header plus a samples array. Round-trip is lossless."""
    doc = {**dataset_header(len(samples), seed, random_edge_max, bijection),
           "samples": [_record(s) for s in samples]}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))


def dataset_header(n_samples: int, seed: int, random_edge_max: int, bijection: str) -> dict:
    """Every field of a dataset file but its samples: what save_dataset writes
    and load_dataset checks, and what a dataset generated for a config holds."""
    return {"version": DATASET_VERSION, "seed": seed, "n_samples": n_samples,
            "random_edge_max": random_edge_max, "bijection": bijection}


def _int(value, name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):      # null, "a", NaN; Infinity
        raise ValueError(f"{name} {json.dumps(value)} is not an integer") from None


def _sample_from_record(rec: dict, random_edge_max: int) -> PairedSample:
    """The sample a record holds, in the types _record writes, if the record is
    _record of it. Its edges are rebuilt as the generator builds them: the
    family's own plus at most random_edge_max stored ones, sorted. Features are
    checked finite here: NaN is written back as read."""
    for value in rec["features"]:
        if not is_finite_real(value):
            raise ValueError(f"feature {value!r} is not a finite number")
    family = GraphFamily(rec["family"])
    own = set(_family_edges(family))
    edges = own | {tuple(_int(v, "edge endpoint") for v in e) for e in rec["edges"]}
    if len(edges) - len(own) > random_edge_max:
        raise ValueError(f"{len(edges) - len(own)} edges beyond the {family.value} "
                         f"family's, more than random_edge_max {random_edge_max}")
    graph = GraphSample(NODE_COUNT, tuple(sorted(edges)), tuple(rec["features"]), family)
    bits = TabularSample(tuple(_int(b, "bit") for b in rec["bits"]))
    sample = _paired(_int(rec["id"], "id"), bits, graph)
    note = first_difference(rec, _record(sample))
    if note:
        raise ValueError(note)
    return sample


def load_dataset(path: str) -> tuple[list[PairedSample], dict]:
    """Read a file written by save_dataset: accepted only if it is what
    save_dataset writes for the header and samples rebuilt from it, in types
    as well as values (true, 1.0 and "1" differ from 1), with finite features
    taken as stored and no id repeated; anything else raises DatasetError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DatasetError("dataset is not a JSON object")
    if not isinstance(doc.get("samples", []), list):
        raise DatasetError("dataset samples is not a list")
    try:
        records, bijection = doc["samples"], doc["bijection"]
        _table(_BIJECTIONS, bijection)
        want = dataset_header(len(records), _int(doc["seed"], "seed"),
                              _int(doc["random_edge_max"], "random_edge_max"), bijection)
    except KeyError as exc:
        raise DatasetError(f"dataset lacks {exc.args[0]}") from None
    except ValueError as exc:
        raise DatasetError(f"dataset header: {exc}") from None
    note = first_difference({k: v for k, v in doc.items() if k != "samples"}, want)
    if note:
        raise DatasetError(f"dataset header: {note}")
    samples, seen = [], set()
    for pos, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise DatasetError(f"dataset record {pos} is not a JSON object")
        try:
            sample = _sample_from_record(rec, want["random_edge_max"])
        except KeyError as exc:
            raise DatasetError(f"dataset record {pos} lacks {exc.args[0]}") from None
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"dataset record {pos}: {exc}") from None
        if sample.id in seen:
            raise DatasetError(f"dataset id {sample.id} appears more than once")
        seen.add(sample.id)
        samples.append(sample)
    return samples, want
