"""Independent brute-force oracles the tests check the library against.

Everything here takes the slow, exhaustive route on purpose: truth-table
label enumeration, explicit shortest-path enumeration for betweenness, naive
sigmoid-then-log cross-entropy, linear scans for every retrieval query, and
majority-vote-per-cluster for completeness. None of it shares code with the
implementations under test.

The kernel references at the end are the plain expressions that faster
kernels in conceptspace.nn, conceptspace.tree and conceptspace.data replaced;
the library must give their bytes. The graph encoder's full-row backward is kept the same
way: the backward over each batch's distinct graphs that replaced it gives
its bytes when no graph repeats, and its values to rounding when graphs do.
So is the per-row packing of graphs that the batch's graph table replaced;
gather_rows reads a batch's rows out of its table to compare with it.
"""

from collections import deque
from itertools import combinations

import numpy as np

FAMILY_XOR = {"isolated": 0, "c4": 1, "c6": 1, "c4_c6_bridged": 0}


def label_oracle(bits, family_name: str) -> tuple[int, int, int]:
    """(local_tab, local_graph, global) from first principles."""
    local_tab = int(bits[0] != bits[1])
    local_graph = FAMILY_XOR[family_name]
    return local_tab, local_graph, local_tab & local_graph


def betweenness_oracle(node_count: int, edges) -> np.ndarray:
    """Enumerate every shortest path of every pair; count pass-throughs."""
    adj = {v: set() for v in range(node_count)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    def all_shortest_paths(s, t):
        # BFS layer by layer, keeping every path of the shortest length
        if s == t:
            return []
        frontier = [[s]]
        seen_depth = {s: 0}
        depth = 0
        found = []
        while frontier and not found:
            depth += 1
            nxt = []
            for path in frontier:
                for w in adj[path[-1]]:
                    if seen_depth.get(w, depth) < depth:
                        continue
                    seen_depth[w] = depth
                    if w == t:
                        found.append(path + [w])
                    else:
                        nxt.append(path + [w])
            frontier = nxt
        return found

    score = np.zeros(node_count)
    for s, t in combinations(range(node_count), 2):
        paths = all_shortest_paths(s, t)
        if not paths:
            continue
        for path in paths:
            for v in path[1:-1]:
                score[v] += 1.0 / len(paths)
    return score / ((node_count - 1) * (node_count - 2) / 2.0)


def adjacency_oracle(node_count: int, edges) -> np.ndarray:
    """Self-loops plus edges, each entry set one at a time, then scaled by
    1/sqrt(degree) on both sides, row scale first."""
    a = np.eye(node_count)
    for i, j in edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def bce_reference(logits: np.ndarray, targets: np.ndarray) -> float:
    """sigmoid then plain log loss; only valid for moderate logits."""
    p = 1.0 / (1.0 + np.exp(-logits))
    per = -(targets * np.log(p) + (1 - targets) * np.log(1 - p))
    return float(per.mean())


def scan_neighborhood(vectors: np.ndarray, ids, query: np.ndarray, radius: float):
    """(id, distance) strictly inside radius, sorted by (distance, id)."""
    out = []
    for i, row in zip(ids, vectors):
        d = float(np.sqrt(((row - query) ** 2).sum()))
        if d < radius:
            out.append((int(i), d))
    return sorted(out, key=lambda t: (t[1], t[0]))


def scan_nearest(vectors: np.ndarray, ids, query: np.ndarray):
    """(id, distance) of the closest row; ties to the smallest id."""
    best = None
    for i, row in zip(ids, vectors):
        d = float(np.sqrt(((row - query) ** 2).sum()))
        if best is None or d < best[1] or (d == best[1] and int(i) < best[0]):
            best = (int(i), d)
    return best


def scan_prototype(z: np.ndarray, codes: np.ndarray, ids, code) -> int:
    members = [k for k in range(len(ids)) if np.array_equal(codes[k], code)]
    centroid = z[members].mean(axis=0)
    return scan_nearest(z, ids, centroid)[0]


def majority_vote_completeness(train_codes, train_labels, test_codes,
                               test_labels) -> float:
    """Per-cluster majority on train, applied to test; assumes every test
    code was seen in training."""
    table = {}
    for code, y in zip(map(tuple, np.asarray(train_codes)), train_labels):
        table.setdefault(code, []).append(int(y))
    correct = 0
    for code, y in zip(map(tuple, np.asarray(test_codes)), test_labels):
        votes = table[tuple(code)]
        values, counts = np.unique(votes, return_counts=True)
        pred = int(values[counts == counts.max()].min())
        correct += int(pred == y)
    return correct / len(test_labels)


# -- kernel references -------------------------------------------------------------

def linear_reference(x, W, b):
    return x @ W + b


def leaky_relu_reference(x, slope):
    return np.where(x > 0, x, slope * x)


def leaky_relu_backward_reference(x, g, slope):
    return np.where(x > 0, g, slope * g)


def one_hot_argmax_reference(x):
    idx = x.argmax(axis=-1)
    out = np.zeros_like(x)
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


def graph_encoder_grads_reference(enc, h, adj, g):
    """The parameter gradients of GraphEncoder enc for upstream gradient g,
    the plain way: every row of (h, adj) runs forward and backward through
    every convolution, and the first one computes its input's gradient too.
    The node concepts' backward goes through enc.gumbel's last softmax, so
    enc must have run forward on (h, adj) last."""
    acts = len(enc.acts)
    slope = enc.acts[0].slope if acts else 0.0
    inputs, masks, x = [], [], h
    for i, conv in enumerate(enc.convs):
        ax = adj @ x
        inputs.append(ax.reshape(-1, ax.shape[-1]))
        x = (inputs[-1] @ conv.W + conv.b).reshape(len(h), h.shape[1], -1)
        if i < acts:
            masks.append(x > 0)
            x = np.where(x > 0, x, slope * x)
    gh = np.broadcast_to(g[:, None, :], x.shape)
    if enc.discretize:
        s = enc.gumbel._soft
        gh = (gh - (gh * s).sum(axis=-1, keepdims=True)) * s / enc.gumbel.tau
    grads = {}
    for i in reversed(range(len(enc.convs))):
        conv = enc.convs[i]
        if i < acts:
            gh = np.where(masks[i], gh, slope * gh)
        g2 = gh.reshape(-1, gh.shape[-1])
        grads[f"{conv.name}.W"] = np.zeros_like(conv.W) + inputs[i].T @ g2
        grads[f"{conv.name}.b"] = np.zeros_like(conv.b) + g2.sum(axis=0)
        gh = adj @ (g2 @ conv.W.T).reshape(len(h), h.shape[1], -1)
    return grads


def betweenness_reference(node_count: int, edges) -> np.ndarray:
    """Brandes' betweenness on numpy arrays and scalars, normalized as
    conceptspace.data.betweenness normalizes it."""
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
    score /= 2.0
    return score / ((node_count - 1) * (node_count - 2) / 2.0)


def adjacency_stack_reference(node_count: int, edge_lists) -> np.ndarray:
    """The normalized adjacency of each edge list, built in one stacked
    array: (len, node_count, node_count)."""
    nn = node_count * node_count
    a = np.zeros((len(edge_lists), node_count, node_count))
    a.reshape(-1, nn)[:, ::node_count + 1] = 1.0          # a view: self-loops
    a.put([k * nn + p for k, edges in enumerate(edge_lists) for i, j in edges
           for p in (i * node_count + j, j * node_count + i)], 1.0)
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=2))
    a *= d_inv_sqrt[:, :, None]
    a *= d_inv_sqrt[:, None, :]
    return a


def pack_rows_reference(graphs, node_count: int = 10):
    """(x, adj) of a list of (edges, features) graphs, one row per graph:
    (len, node_count, 1) features and (len, node_count, node_count)
    adjacency, the per-row packing that the batch's graph table replaced."""
    x = np.array([feats for _, feats in graphs], dtype=float).reshape(-1, node_count, 1)
    return x, adjacency_stack_reference(node_count, [edges for edges, _ in graphs])


def gather_rows(batch, aux: bool = False):
    """(x, adj) of each row of a batch, gathered from its graph table: the
    own rows, or the aux rows when `aux` is set."""
    rows = batch.aux_graph if aux else batch.graph
    return batch.table_x[rows], batch.table_adj[rows]


def sigmoid_reference(x):
    """Each side of 0 in its overflow-free form, scattered by a boolean index."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def rescale_eval_reference(x, mean, var, eps):
    return (x - mean) / np.sqrt(var + eps)


def gini_tree_reference(x, y):
    """The Gini tree grown one feature at a time, as nested tuples:
    ("leaf", label) or (feature, left for 0, right for 1)."""
    def gini(labels):
        _, counts = np.unique(labels, return_counts=True)
        p = counts / len(labels)
        return 1.0 - float((p * p).sum())

    def build(idx):
        labels = y[idx]
        values, counts = np.unique(labels, return_counts=True)
        cols = x[idx]
        varying = [f for f in range(x.shape[1]) if cols[:, f].min() != cols[:, f].max()]
        if len(values) == 1 or not varying:
            return ("leaf", int(values[counts == counts.max()].min()))
        parent = gini(labels)
        best_f, best_gain = -1, -1.0
        for f in varying:
            mask = cols[:, f] == 1
            w = mask.sum() / len(idx)
            gain = parent - (1 - w) * gini(labels[~mask]) - w * gini(labels[mask])
            if gain > best_gain + 1e-15:
                best_f, best_gain = f, gain
        mask = cols[:, best_f] == 1
        return (best_f, build(idx[~mask]), build(idx[mask]))

    x, y = np.asarray(x, dtype=np.uint8), np.asarray(y)
    return build(np.arange(len(y)))
