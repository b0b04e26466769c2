import numpy as np
import pytest

from conceptspace import model as model_module
from conceptspace.baselines import build_baseline
from conceptspace.config import ExperimentConfig, MODALITIES
from conceptspace.data import generate_xor_and_xor, translation_batch, whole_batch
from conceptspace.errors import CheckpointMismatchError
from conceptspace.model import (
    ConceptStage,
    DenseEncoder,
    GraphEncoder,
    SharedConceptModel,
    load_model,
    read_manifest,
    save_model,
)
from conceptspace.nn import BatchRescale, MLP, distinct_rows, sigmoid
from conceptspace.rng import substream

from oracles import graph_encoder_grads_reference

cfg = ExperimentConfig()


@pytest.fixture(scope="module")
def batch16():
    return whole_batch(generate_xor_and_xor(16, seed=11, random_edge_max=2))


@pytest.fixture()
def fresh_model():
    return SharedConceptModel(cfg, substream(0, "init"))


def train_forward(model, batch, **kw):
    return model.forward(batch, "train", gumbel_rng=np.random.default_rng(0), **kw)


# -- shapes and ranges (the default configuration) -----------------------------------

def test_forward_shapes(fresh_model, batch16):
    res = train_forward(fresh_model, batch16)
    for m in MODALITIES:
        assert res.local[m].shape == (16, 7)
        assert res.shared[m].shape == (16, 8)
    assert res.logits.shape == (16, 2)


def test_forward_with_translations_doubles_rows(fresh_model, batch16):
    res = train_forward(fresh_model, batch16, with_aux=True)
    for m in MODALITIES:
        assert res.local[m].shape == (32, 7)
        assert res.shared[m].shape == (32, 8)
    assert res.logits.shape == (16, 2)   # predictions stay per-sample


def test_concepts_in_open_unit_interval(fresh_model, batch16):
    res = train_forward(fresh_model, batch16)
    for m in MODALITIES:
        assert np.all((res.local[m] > 0) & (res.local[m] < 1))
        assert np.all((res.shared[m] > 0) & (res.shared[m] < 1))


def test_eval_is_deterministic_and_pure(fresh_model, batch16):
    train_forward(fresh_model, batch16)      # populate statistics
    states = fresh_model.rescale_states()
    snap = {k: (s.running_mean.copy(), s.running_var.copy())
            for k, s in states.items()}
    a = fresh_model.forward(batch16, "eval")
    b = fresh_model.forward(batch16, "eval")
    assert np.array_equal(a.logits, b.logits)
    for m in MODALITIES:
        assert np.array_equal(a.shared[m], b.shared[m])
    for k, s in fresh_model.rescale_states().items():
        assert np.array_equal(s.running_mean, snap[k][0])
        assert np.array_equal(s.running_var, snap[k][1])


def test_eval_before_any_training_raises(fresh_model, batch16):
    with pytest.raises(RuntimeError):
        fresh_model.forward(batch16, "eval")


# -- local concept pipeline -----------------------------------------------------------

def test_three_sigma_sample_hits_sigmoid_three():
    # craft a column whose last entry sits exactly 3 population stds above the
    # mean (needs >= 10 peers: the max z-score of one element among n is
    # sqrt(n-1))
    base = np.linspace(-1.0, 1.0, 15)

    def zscore_of_last(t):
        col = np.append(base, t)
        return (t - col.mean()) / col.std()

    lo, hi = 0.0, 100.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if zscore_of_last(mid) < 3.0 else (lo, mid)
    col = np.append(base, lo)
    stage = ConceptStage(1, "t", momentum=0.1, eps=1e-9)
    out = stage.forward(col[:, None], "train")
    assert out[-1, 0] == pytest.approx(sigmoid(np.array([3.0]))[0], abs=1e-6)
    assert out[-1, 0] == pytest.approx(0.9526, abs=1e-3)


def test_concept_stage_matches_manual_zscore():
    x = np.random.default_rng(3).normal(size=(32, 7))
    stage = ConceptStage(7, "t", momentum=0.1, eps=1e-5)
    out = stage.forward(x, "train")
    manual = sigmoid((x - x.mean(0)) / np.sqrt(x.var(0) + 1e-5))
    assert np.allclose(out, manual)


# -- shared stage ------------------------------------------------------------------

def test_union_statistics_closed_form():
    # modality 1 contributes a constant-0 column, modality 2 a constant-2
    # column: both standardize against the pooled mean 1 and land at
    # sigmoid(-1) and sigmoid(+1)
    rescale = BatchRescale(1, "t", eps=0.0)
    stacked = np.concatenate([np.zeros((8, 1)), np.full((8, 1), 2.0)])
    out = sigmoid(rescale.forward(stacked, "train"))
    assert np.allclose(out[:8], sigmoid(np.array([-1.0])))
    assert np.allclose(out[8:], sigmoid(np.array([1.0])))


def test_union_statistics_ignore_modality_attribution():
    # same multiset of rows, attributed to modalities differently: each row's
    # standardized value is unchanged
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(20, 4))
    out1 = BatchRescale(4, "a").forward(rows, "train")
    perm = rng.permutation(20)
    out2 = BatchRescale(4, "b").forward(rows[perm], "train")
    assert np.allclose(out1[perm], out2)


def test_identical_projector_outputs_give_identical_shared(fresh_model, batch16):
    local = fresh_model.embed(batch16, "train",
                              rng=np.random.default_rng(0))
    # route the same local concepts through one modality's projector twice
    proj = fresh_model.shared_stage.projectors
    proj["tabular"].lin1.W[...] = proj["graph"].lin1.W
    proj["tabular"].lin1.b[...] = proj["graph"].lin1.b
    proj["tabular"].lin2.W[...] = proj["graph"].lin2.W
    proj["tabular"].lin2.b[...] = proj["graph"].lin2.b
    shared = fresh_model.shared_stage.forward(
        {"graph": local["graph"], "tabular": local["graph"]}, "train")
    assert np.allclose(shared["graph"], shared["tabular"])


def test_mismatched_batch_lengths_rejected(fresh_model):
    with pytest.raises(ValueError):
        fresh_model.shared_stage.forward(
            {"graph": np.zeros((4, 7)), "tabular": np.zeros((5, 7))}, "train")


def test_frozen_encoders_stop_the_backward_at_the_shared_stage(fresh_model, batch16):
    train_forward(fresh_model, batch16)      # statistics for the eval-mode encoders
    fresh_model.zero_grad()
    stats = {k: (s.running_mean.copy(), s.running_var.copy())
             for k, s in fresh_model.rescale_states().items()}
    rng = np.random.default_rng(0)
    drawn = rng.bit_generator.state
    res = fresh_model.forward(batch16, "train", gumbel_rng=rng, with_aux=True,
                              frozen_encoders=True)
    noise = np.random.default_rng(1)
    # the concept stages ran in eval mode: a backward through them would raise
    fresh_model.backward(noise.normal(size=res.logits.shape),
                         {m: noise.normal(size=res.shared[m].shape) for m in MODALITIES})
    grads = fresh_model.grads()
    assert all(not g.any() for k, g in grads.items() if k.startswith("enc."))
    assert all(g.any() for k, g in grads.items() if k.startswith(("proj.", "predictor.")))
    for k, s in fresh_model.rescale_states().items():
        unchanged = (np.array_equal(s.running_mean, stats[k][0])
                     and np.array_equal(s.running_var, stats[k][1]))
        assert unchanged == k.startswith("local_rescale.")
    assert rng.bit_generator.state == drawn
    # a plain forward and backward afterwards reaches the encoders again
    res = train_forward(fresh_model, batch16)
    fresh_model.backward(noise.normal(size=res.logits.shape))
    assert all(g.any() for k, g in fresh_model.grads().items() if k.startswith("enc."))


# -- prediction --------------------------------------------------------------------

def test_predict_requires_every_modality(fresh_model):
    with pytest.raises(ValueError):
        fresh_model.predict({"graph": np.zeros((2, 8))})


def test_concatenation_order_matters(fresh_model):
    rng = np.random.default_rng(9)
    s = {"graph": rng.uniform(size=(4, 8)), "tabular": rng.uniform(size=(4, 8))}
    swapped = {"graph": s["tabular"], "tabular": s["graph"]}
    a = fresh_model.predict(s)
    b = fresh_model.predict(swapped)
    assert not np.allclose(a, b)
    # fixed ordering regression: graph block feeds the first half of the head
    manual = fresh_model.head.forward(
        np.concatenate([s["graph"], s["tabular"]], axis=1))
    assert np.array_equal(a, manual)


# -- graph encoder -----------------------------------------------------------------

def test_hard_counts_sum_to_node_count(fresh_model, batch16):
    enc = fresh_model.encoders["graph"]
    counts = enc.forward(*enc.inputs(batch16), mode="train",
                         rng=np.random.default_rng(0))
    assert np.all(counts.sum(axis=1) == 10.0)
    assert np.all(counts >= 0)
    counts_eval = enc.forward(*enc.inputs(batch16), mode="eval")
    assert np.all(counts_eval.sum(axis=1) == 10.0)


def test_identical_concept_multisets_collapse():
    # two different node-concept layouts with the same histogram produce the
    # same graph summary (the known ambiguity of count-based readouts)
    enc = GraphEncoder(cfg, substream(1, "init"), "enc", discretize=True)
    logits_a = np.zeros((1, 10, 7))
    logits_b = np.zeros((1, 10, 7))
    for node in range(10):
        logits_a[0, node, node % 2] = 5.0        # alternating 0,1,0,1,...
        logits_b[0, node, (node < 5) * 1] = 5.0  # 1,1,1,1,1,0,0,0,0,0
    a = enc.gumbel.forward(logits_a, "eval").sum(axis=1)
    b = enc.gumbel.forward(logits_b, "eval").sum(axis=1)
    assert np.array_equal(a, b)


def test_empty_graph_rejected(fresh_model):
    with pytest.raises(ValueError):
        fresh_model.encoders["graph"].forward(np.zeros((2, 0, 1)),
                                              np.zeros((2, 0, 0)), mode="train")


@pytest.mark.parametrize("adj_shape", [(1, 10, 10), (4, 10, 9), (4, 10), None],
                         ids=["one adjacency for four graphs", "not square", "2-D", "none"])
def test_adjacency_shape_checked(fresh_model, adj_shape):
    adj = None if adj_shape is None else np.zeros(adj_shape)
    for mode in ("train", "eval"):
        with pytest.raises(ValueError, match="adj"):
            fresh_model.encoders["graph"].forward(np.zeros((4, 10, 1)), adj, mode=mode,
                                                  rng=np.random.default_rng(0))


def test_tabular_shape_checked(fresh_model):
    with pytest.raises(ValueError):
        fresh_model.encoders["tabular"].forward(np.zeros((4, 5)))


# -- every mode encodes each distinct graph once ----------------------------------------

GRAPH_KINDS = ("shared", "mod_graph", "cbm_graph", "simple", "concept", "relative")


@pytest.fixture(scope="module")
def distinct_graphs():
    """Samples whose graphs are all distinct, as a batch with aux rows."""
    samples = generate_xor_and_xor(120, seed=11, random_edge_max=2)
    firsts = {}
    for s in samples:
        firsts.setdefault((s.graph.edges, s.graph.node_features), s)
    return samples, list(firsts.values()), whole_batch(list(firsts.values()))


def eval_ready(kind, samples, batch):
    """A fresh model of `kind` that eval mode can run: one train-mode forward
    gives its rescale states statistics, and the relative model anchors."""
    if kind == "shared":
        model = SharedConceptModel(cfg, substream(0, "init"))
        train_forward(model, batch)
        return model
    model = build_baseline(kind, cfg)
    if kind == "relative":
        model.set_anchors(np.array([s.id for s in samples[:cfg.anchor_count]]), samples)
    else:
        model.forward(batch, "train", np.random.default_rng(0))
    return model


def eval_spaces(model, batch) -> dict:
    if hasattr(model, "index_spaces"):
        return model.index_spaces(batch)
    return model.embed(batch, "eval")


@pytest.fixture()
def dedup_calls(monkeypatch):
    """(rows in, distinct rows out) of each call GraphEncoder makes to distinct_rows."""
    calls = []

    def recording(x):
        rows, inverse = distinct_rows(x)
        calls.append((len(x), len(rows)))
        return rows, inverse

    monkeypatch.setattr(model_module, "distinct_rows", recording)
    return calls


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_repeated_graphs_encode_as_their_rows(kind, distinct_graphs, dedup_calls):
    samples, firsts, batch = distinct_graphs
    model = eval_ready(kind, samples, batch)
    n = len(batch)
    idx = np.concatenate([np.arange(n)[::-1], np.arange(0, n, 2)])    # even rows twice
    want = eval_spaces(model, batch)
    got = eval_spaces(model, batch.take(idx))
    assert (len(idx), n) in dedup_calls and (n, n) in dedup_calls
    assert got.keys() == want.keys() and "graph" in got
    for m in got:
        assert got[m].tobytes() == want[m][idx].tobytes()

    # the graph slot of a translation batch holds the 4 canonical family graphs
    dedup_calls.clear()
    keys = [s.tabular.bits[:2] for s in firsts]
    rows = sorted({keys.index(k) for k in keys})
    translated = translation_batch(firsts, packed=batch)
    got = eval_spaces(model, translated)["graph"]
    want = eval_spaces(model, translated.take(np.array(rows)))["graph"]
    assert dedup_calls[0] == (n, 4) and len(rows) == 4
    assert got.tobytes() == want[[rows.index(keys.index(k)) for k in keys]].tobytes()


def test_training_dedups_and_small_batches_skip_it(distinct_graphs, dedup_calls):
    samples, _, batch = distinct_graphs
    model = eval_ready("shared", samples, batch)
    assert dedup_calls == [(len(batch), len(batch))]           # eval_ready's training forward
    dedup_calls.clear()
    twice = batch.take(np.array([0, 0, 1, 1]))
    train_forward(model, twice, with_aux=True)
    model.forward(twice, "train", gumbel_mode="soft")
    assert dedup_calls[1] == (4, 2) and dedup_calls[0][0] == 8
    dedup_calls.clear()
    train_forward(model, twice.take(np.array([0, 1])))
    for rows in ([0], [0, 1], [1, 2]):                 # serve's single-query path
        model.index_spaces(twice.take(np.array(rows)))
    assert dedup_calls == []
    model.index_spaces(twice.take(np.array([0, 1, 2])))
    assert dedup_calls == [(3, 2)]


# -- training runs the convolutions once per distinct graph ------------------------------

def encoder_gradients(enc, h, adj, mode, seed=1):
    """(grads after enc.backward, the full-row reference's grads) for a random
    upstream gradient, after a forward in `mode`: "train" draws node
    concepts, "soft" takes the tempered softmax."""
    z = enc.forward(h, adj, "train", np.random.default_rng(seed),
                    gumbel_mode=None if mode == "train" else mode)
    g = np.random.default_rng(seed + 1).normal(size=z.shape)
    enc.zero_grad()
    enc.backward(g)
    return enc.grads(), graph_encoder_grads_reference(enc, h, adj, g)


@pytest.mark.parametrize("mode", ["train", "soft"])
@pytest.mark.parametrize("discretize", [True, False])
def test_grouped_graph_backward_equals_the_full_row_one(distinct_graphs, mode, discretize):
    _, _, batch = distinct_graphs
    repeated = batch.take(np.random.default_rng(0).integers(0, 12, size=40))
    enc = GraphEncoder(cfg, substream(0, "init"), "enc.graph", discretize=discretize)
    h, adj = enc.inputs(repeated, with_aux=True)
    got, want = encoder_gradients(enc, h, adj, mode)
    assert got.keys() == want.keys() and len(got) == 2 * cfg.graph_layers
    for name in got:      # to 1e-12 of each array's largest entry: sums differ in order
        assert np.abs(got[name] - want[name]).max() <= 1e-12 * np.abs(want[name]).max(), name


@pytest.mark.parametrize("mode", ["train", "soft"])
def test_grouped_graph_backward_has_the_full_row_bytes_when_no_graph_repeats(
        distinct_graphs, mode):
    _, _, batch = distinct_graphs
    enc = GraphEncoder(cfg, substream(0, "init"), "enc.graph")
    got, want = encoder_gradients(enc, *enc.inputs(batch), mode)
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_grouped_graph_backward_against_finite_differences(distinct_graphs):
    _, _, batch = distinct_graphs
    repeated = batch.take(np.array([0, 1, 0, 2, 1, 0]))
    small = cfg.with_overrides(graph_hidden=4)
    enc = GraphEncoder(small, substream(0, "init"), "enc.graph")
    h, adj = enc.inputs(repeated, with_aux=True)
    w = np.random.default_rng(3).normal(size=(len(h), small.local_width))

    def loss():
        return float((w * enc.forward(h, adj, "train", gumbel_mode="soft")).sum())

    loss()
    enc.zero_grad()
    enc.backward(w)
    step = 1e-5
    for name, param in enc.parameters().items():
        flat, fd = param.reshape(-1), np.zeros(param.size)
        for i in range(param.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss()
            flat[i] = orig - step
            down = loss()
            flat[i] = orig
            fd[i] = (up - down) / (2 * step)
        analytic = enc.grads()[name].reshape(-1)
        err = np.linalg.norm(analytic - fd) / (np.linalg.norm(fd) + 1e-12)
        assert err < 1e-6, (name, err)


def test_dense_encoder_skips_only_its_input_gradient(batch16):
    enc = DenseEncoder(cfg, substream(0, "init"), "enc.tabular")
    g = np.random.default_rng(0).normal(size=(16, cfg.local_width))
    enc.forward(batch16.tab_x)
    MLP.backward(enc, g)
    want = {k: v.copy() for k, v in enc.grads().items()}
    enc.zero_grad()
    assert enc.backward(g) is None
    for name, got in enc.grads().items():
        assert got.tobytes() == want[name].tobytes(), name


# -- permutation equivariance ---------------------------------------------------------

def test_batch_permutation_equivariance_eval(fresh_model, batch16):
    train_forward(fresh_model, batch16)
    perm = np.random.default_rng(1).permutation(16)
    permuted = whole_batch([generate_xor_and_xor(16, seed=11, random_edge_max=2)[i]
                            for i in perm])
    a = fresh_model.forward(batch16, "eval")
    b = fresh_model.forward(permuted, "eval")
    assert np.allclose(a.logits[perm], b.logits)
    for m in MODALITIES:
        assert np.allclose(a.shared[m][perm], b.shared[m])


def test_batch_permutation_equivariance_train(batch16):
    # deterministic train path: soft assignments instead of sampling
    perm = np.random.default_rng(2).permutation(16)
    permuted = whole_batch([generate_xor_and_xor(16, seed=11, random_edge_max=2)[i]
                            for i in perm])
    m1 = SharedConceptModel(cfg, substream(0, "init"))
    a = m1.forward(batch16, "train", gumbel_mode="soft")
    m2 = SharedConceptModel(cfg, substream(0, "init"))
    b = m2.forward(permuted, "train", gumbel_mode="soft")
    assert np.allclose(a.logits[perm], b.logits)
    for m in MODALITIES:
        assert np.allclose(a.local[m][perm], b.local[m])
        assert np.allclose(a.shared[m][perm], b.shared[m])


# -- checkpoints -------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, fresh_model, batch16):
    train_forward(fresh_model, batch16)
    fresh_model.trained = True
    path = tmp_path / "m.ckpt"
    save_model(fresh_model, str(path))
    loaded = load_model(str(path))
    assert loaded.trained
    a = fresh_model.forward(batch16, "eval").logits
    b = loaded.forward(batch16, "eval").logits
    assert np.array_equal(a, b)
    for k, v in fresh_model.parameters().items():
        assert np.array_equal(v, loaded.parameters()[k])


def test_checkpoint_save_is_deterministic(tmp_path, fresh_model, batch16):
    train_forward(fresh_model, batch16)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(fresh_model, str(p1))
    save_model(fresh_model, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_shape_validation(tmp_path, fresh_model):
    import json
    import struct

    path = tmp_path / "m.ckpt"
    save_model(fresh_model, str(path))
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8:8 + mlen])
    manifest["blocks"][0]["shape"] = [1, 1]
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    (tmp_path / "bad.ckpt").write_bytes(struct.pack("<Q", len(mbytes)) + mbytes
                                        + raw[8 + mlen:])
    with pytest.raises(CheckpointMismatchError):
        load_model(str(tmp_path / "bad.ckpt"))


def test_checkpoint_manifest_contents(tmp_path, fresh_model):
    path = tmp_path / "m.ckpt"
    save_model(fresh_model, str(path))
    manifest = read_manifest(str(path))
    assert manifest["version"] == 1
    assert manifest["kind"] == "shared"
    assert manifest["modalities"] == ["graph", "tabular"]
    names = {b["name"] for b in manifest["blocks"]}
    assert "predictor.lin1.W" in names
    assert "shared_rescale.running_mean" in names
    assert manifest["config"]["local_width"] == 7
