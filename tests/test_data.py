import json
from dataclasses import fields, replace

import numpy as np
import pytest

from conceptspace.config import BIJECTIONS, ExperimentConfig
from conceptspace.data import (
    FAMILIES,
    N_BITS,
    NODE_COUNT,
    GraphFamily,
    GraphSample,
    TabularSample,
    as_arrays,
    batches,
    betweenness,
    bits_to_family,
    family_to_bits,
    generate_xor_and_xor,
    graph_rendering,
    load_dataset,
    normalized_adjacency,
    save_dataset,
    split,
    tabular_rendering,
    translation_batch,
    whole_batch,
    _aux_rng,
    _family_edges,
)
from conceptspace.errors import DatasetError

from oracles import adjacency_oracle, betweenness_oracle, label_oracle


@pytest.fixture(scope="module")
def thousand():
    return generate_xor_and_xor(1000, seed=0, random_edge_max=2)


# -- family code mapping -------------------------------------------------------

def test_family_bits_fixed_mapping():
    assert family_to_bits(GraphFamily.ISOLATED) == (0, 0)
    assert family_to_bits(GraphFamily.C4) == (0, 1)
    assert family_to_bits(GraphFamily.C6) == (1, 0)
    assert family_to_bits(GraphFamily.C4_C6_BRIDGED) == (1, 1)


@pytest.mark.parametrize("bijection", ["default", "swapped"])
def test_family_bits_parity_and_inverse(bijection):
    for family in FAMILIES:
        code = family_to_bits(family, bijection)
        assert (code[0] ^ code[1]) == (1 if family in (GraphFamily.C4, GraphFamily.C6) else 0)
        assert bits_to_family(code, bijection) is family


def test_unknown_bijection_rejected():
    with pytest.raises(ValueError):
        family_to_bits(GraphFamily.C4, "nonsense")


def test_task_is_bijection_invariant():
    a = generate_xor_and_xor(300, seed=5, random_edge_max=2, bijection="default")
    b = generate_xor_and_xor(300, seed=5, random_edge_max=2, bijection="swapped")
    for sa, sb in zip(a, b):
        assert sa.tabular.bits == sb.tabular.bits
        assert sa.graph.edges == sb.graph.edges
        assert sa.local_label_graph == sb.local_label_graph
        assert sa.global_label == sb.global_label


def test_training_under_either_bijection_learns_the_same_task():
    # the code assignment only relabels translation renderings; labels are
    # identical, so learning quality should match (smoke-scale band)
    from conceptspace import train
    from conceptspace.config import ExperimentConfig, TrainPlan
    from conceptspace.model import SharedConceptModel
    from conceptspace.rng import substream

    accs = {}
    for bijection in ("default", "swapped"):
        cfg = ExperimentConfig(n_samples=300, seed=5, bijection=bijection,
                               plan=TrainPlan(epochs=40))
        samples = generate_xor_and_xor(cfg.n_samples, cfg.seed,
                                       cfg.random_edge_max, bijection)
        ds = split(samples, cfg.split_ratio, cfg.seed)
        model = SharedConceptModel(cfg, substream(cfg.seed, "init"))
        _, history = train(model, ds, cfg)
        accs[bijection] = history[-1]["test_accuracy"]
    assert all(a > 0.65 for a in accs.values()), accs
    assert abs(accs["default"] - accs["swapped"]) <= 0.15, accs


# -- generator -------------------------------------------------------------------

def test_generator_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        generate_xor_and_xor(0, seed=0)


def test_labels_match_truth_table_oracle(thousand):
    for s in thousand:
        lt, lg, g = label_oracle(s.tabular.bits, s.graph.family.value)
        assert s.local_label_tab == lt
        assert s.local_label_graph == lg
        assert s.global_label == g


def test_zero_zero_bits_force_negative(thousand):
    hits = [s for s in thousand if s.tabular.bits[:2] == (0, 0)]
    assert hits and all(s.global_label == 0 for s in hits)


def test_one_zero_bits_with_c6_positive(thousand):
    hits = [s for s in thousand
            if s.tabular.bits[:2] == (1, 0) and s.graph.family is GraphFamily.C6]
    assert hits and all(s.global_label == 1 for s in hits)


def test_one_one_bits_with_bridged_negative(thousand):
    hits = [s for s in thousand
            if s.tabular.bits[:2] == (1, 1)
            and s.graph.family is GraphFamily.C4_C6_BRIDGED]
    assert hits and all(s.global_label == 0 for s in hits)


def test_class_balance(thousand):
    rate = sum(s.global_label for s in thousand) / len(thousand)
    assert 0.15 <= rate <= 0.35


def test_generator_determinism_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        samples = generate_xor_and_xor(200, seed=3, random_edge_max=2)
        save_dataset(samples, str(p), seed=3, random_edge_max=2, bijection="default")
    assert p1.read_bytes() == p2.read_bytes()


def test_graph_invariants(thousand):
    for s in thousand:
        assert s.graph.node_count == 10
        for i, j in s.graph.edges:
            assert i < j and i != j
        base = set(_family_edges(s.graph.family))
        assert base <= set(s.graph.edges)
        assert len(s.graph.edges) <= len(base) + 2


def test_tabular_sample_validation():
    with pytest.raises(ValueError):
        TabularSample((0, 1, 2, 0, 1, 0))
    with pytest.raises(ValueError):
        TabularSample((0, 1, 0))


def test_graph_sample_validation():
    with pytest.raises(ValueError):
        GraphSample(10, ((3, 3),), tuple([0.0] * 10), GraphFamily.ISOLATED)
    with pytest.raises(ValueError):
        GraphSample(10, ((2, 1),), tuple([0.0] * 10), GraphFamily.ISOLATED)
    with pytest.raises(ValueError):
        GraphSample(10, ((1, 2), (1, 2)), tuple([0.0] * 10), GraphFamily.ISOLATED)


# -- betweenness -----------------------------------------------------------------

def test_betweenness_isolated_nodes_zero():
    assert np.all(betweenness(10, ()) == 0.0)


def test_betweenness_pure_c4_value():
    values = betweenness(10, tuple(_family_edges(GraphFamily.C4)))
    assert values[:4] == pytest.approx([0.5 / 36] * 4, abs=1e-15)
    assert np.all(values[4:] == 0.0)


def test_betweenness_matches_path_enumeration_oracle(thousand):
    for s in thousand[:200]:
        got = betweenness(s.graph.node_count, s.graph.edges)
        want = betweenness_oracle(s.graph.node_count, s.graph.edges)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_stored_features_are_betweenness(thousand):
    for s in thousand[:50]:
        want = betweenness(s.graph.node_count, s.graph.edges)
        assert np.allclose(s.graph.node_features, want, atol=1e-15)


# -- split -----------------------------------------------------------------------

def test_split_ratio(thousand):
    ds = split(thousand, 0.8, seed=0)
    assert len(ds.train) == 800 and len(ds.test) == 200


def test_split_disjoint_and_deterministic(thousand):
    a = split(thousand, 0.8, seed=1)
    b = split(thousand, 0.8, seed=1)
    train_ids = {s.id for s in a.train}
    test_ids = {s.id for s in a.test}
    assert not train_ids & test_ids
    assert train_ids | test_ids == {s.id for s in thousand}
    assert [s.id for s in a.train] == [s.id for s in b.train]


def test_split_rejects_bad_ratio(thousand):
    for ratio in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            split(thousand, ratio, seed=0)


def test_config_accepts_exactly_the_splits_that_train_2_and_test_1():
    verdicts = set()
    for n in range(1, 41):
        for ratio in (0.01, 0.05, 0.1, 0.125, 0.25, 1 / 3, 0.45, 0.5, 0.55, 2 / 3, 0.75,
                      0.8, 0.9, 0.95, 0.975, 0.99):
            ds = split(list(range(n)), ratio, seed=0)
            try:
                ExperimentConfig(n_samples=n, split_ratio=ratio, anchor_count=1).validate()
                accepted = True
            except ValueError as exc:
                assert "split_ratio" in str(exc)
                accepted = False
            assert accepted == (len(ds.train) >= 2 and len(ds.test) >= 1), (n, ratio)
            verdicts.add(accepted)
    assert verdicts == {True, False}


# -- batching --------------------------------------------------------------------

def test_batch_sizes_800_by_64(thousand):
    ds = split(thousand, 0.8, seed=0)
    parts = batches(as_arrays(ds.train, with_aux=False), 64)
    assert [len(b) for b in parts] == [64] * 12 + [32]


def test_batches_without_shuffle_keep_order(thousand):
    parts = batches(as_arrays(thousand[:10], with_aux=False), 4)
    assert [i for b in parts for i in b.ids] == [s.id for s in thousand[:10]]


def test_trailing_singleton_dropped(thousand):
    packed = as_arrays(thousand[:65], with_aux=False)
    parts = batches(packed, 64, np.random.default_rng(0))
    assert len(parts) == 1 and len(parts[0]) == 64
    kept = batches(packed, 64)
    assert [len(b) for b in kept] == [64, 1]


def test_batches_reject_bad_size(thousand):
    with pytest.raises(ValueError):
        batches(as_arrays(thousand[:10], with_aux=False), 0)


def test_shuffled_batches_deterministic(thousand):
    packed = as_arrays(thousand[:100], with_aux=False)
    a = batches(packed, 16, np.random.default_rng(7))
    b = batches(packed, 16, np.random.default_rng(7))
    assert [x.ids for x in a] == [x.ids for x in b]


def test_training_pass_draws_one_permutation(thousand):
    # the shuffle stream is what keeps checkpoints byte-identical: a training
    # pass cuts in the order of one permutation draw and draws nothing else
    packed = as_arrays(thousand[:65], with_aux=False)
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    parts = batches(packed, 16, rng)
    order = twin.permutation(65)
    assert [i for b in parts for i in b.ids] == [thousand[k].id for k in order[:64]]
    assert rng.bit_generator.state == twin.bit_generator.state


def test_batch_tensors(thousand):
    b = whole_batch(thousand[:8])
    assert b.graph_x.shape == (8, 10, 1)
    assert b.graph_adj.shape == (8, 10, 10)
    assert b.tab_x.shape == (8, 6)
    assert b.y_onehot.shape == (8, 2)
    assert np.array_equal(b.y_onehot.argmax(1), b.y)
    assert b.aux_tab_x.shape == (8, 6)
    assert b.aux_graph_x.shape == (8, 10, 1)


def assert_same_batch(got, want):
    """Every field equal, byte for byte: the ids as Python ints, each array
    in dtype, shape and bytes, and None where the other has None."""
    assert got.ids == want.ids and all(type(i) is int for i in got.ids)
    assert list(got.local) == list(want.local)
    pairs = [(f"local.{m}", got.local[m], want.local[m]) for m in want.local]
    pairs += [(f.name, getattr(got, f.name), getattr(want, f.name))
              for f in fields(want) if f.name not in ("ids", "local")]
    for name, a, b in pairs:
        if a is None or b is None:
            assert a is b, name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.mark.parametrize("bijection", BIJECTIONS)
@pytest.mark.parametrize("seed", [None, 3], ids=["plain", "shuffled"])
def test_each_batch_equals_packing_its_samples(thousand, bijection, seed):
    some = thousand[:65]          # 4 batches of 16, then a singleton
    by_id = {s.id: s for s in some}
    rng = None if seed is None else np.random.default_rng(seed)
    parts = batches(as_arrays(some, bijection), 16, rng)
    assert len(parts) == (5 if rng is None else 4)     # a training pass drops it
    for part in parts:
        assert_same_batch(part, as_arrays([by_id[i] for i in part.ids], bijection))


@pytest.mark.parametrize("bijection", BIJECTIONS)
def test_whole_batch_is_the_packed_samples(thousand, bijection):
    assert_same_batch(whole_batch(thousand[:20], bijection),
                      as_arrays(thousand[:20], bijection))


def test_normalized_adjacency_symmetric_rows():
    adj = normalized_adjacency(4, ((0, 1), (1, 2)))
    assert np.allclose(adj, adj.T)
    assert adj[3, 3] == 1.0          # isolated node keeps its self-loop weight


def test_packed_adjacency_has_the_per_sample_bytes(thousand):
    def per_sample(s):
        adj = normalized_adjacency(NODE_COUNT, s.graph.edges)
        assert adj.tobytes() == adjacency_oracle(NODE_COUNT, s.graph.edges).tobytes()
        return adj.tobytes()

    packed = as_arrays(thousand)
    assert packed.graph_adj.shape == (1000, NODE_COUNT, NODE_COUNT)
    for k, s in enumerate(thousand):
        assert packed.graph_adj[k].tobytes() == per_sample(s)
    edgeless = [s for s in thousand
                if s.graph.family is GraphFamily.ISOLATED and not s.graph.edges]
    assert edgeless
    for s in (thousand[0], edgeless[0]):
        assert as_arrays([s], with_aux=False).graph_adj[0].tobytes() == per_sample(s)
    assert np.array_equal(as_arrays(edgeless[:1]).graph_adj[0], np.eye(NODE_COUNT))


def test_repeated_edge_sets_pack_to_the_per_sample_bytes(tmp_path, thousand):
    # samples sharing an edge set, also with the pairs listed in another
    # order and as loaded from a file, in both list orders
    by_edges = {}
    for s in thousand:
        by_edges.setdefault(s.graph.edges, []).append(s)
    shared = [group for group in by_edges.values() if len(group) >= 3][:6]
    assert len(shared) == 6
    some = [s for group in shared for s in group[:3]]
    reordered = [replace(s, graph=replace(s.graph, edges=s.graph.edges[::-1]))
                 for s in some if len(s.graph.edges) > 1]
    assert reordered
    path = tmp_path / "d.json"
    save_dataset(some, str(path), seed=0, random_edge_max=2, bijection="default")
    loaded, _ = load_dataset(str(path))
    mixed = some + reordered + loaded + some[::2]
    for samples in (mixed, mixed[::-1]):
        for with_aux in (True, False):
            packed = as_arrays(samples, with_aux=with_aux)
            assert packed.graph_adj.shape == (len(samples), NODE_COUNT, NODE_COUNT)
            for k, s in enumerate(samples):
                want = normalized_adjacency(NODE_COUNT, s.graph.edges)
                assert packed.graph_adj[k].tobytes() == want.tobytes()


def test_aux_padding_is_a_fresh_draw(thousand):
    some = thousand[:300]
    for _ in range(2):               # the second pass reads the cache
        packed = as_arrays(some)
        for k, s in enumerate(some):
            fresh = _aux_rng(s.id).integers(0, 2, size=N_BITS - 2).tolist()
            assert packed.aux_tab_x[k, 2:].tolist() == fresh
            assert list(tabular_rendering(s)[2:]) == fresh


# -- translation renderings -------------------------------------------------------

def test_tabular_rendering_carries_family_code(thousand):
    for s in thousand[:100]:
        bits = tabular_rendering(s)
        assert bits[:2] == family_to_bits(s.graph.family)
        assert len(bits) == 6
        assert bits == tabular_rendering(s)   # deterministic per sample


def test_graph_rendering_carries_bit_content(thousand):
    for s in thousand[:100]:
        edges, feats = graph_rendering(s)
        family = bits_to_family(s.tabular.bits[:2])
        assert set(edges) == set(_family_edges(family))
        assert np.allclose(feats, betweenness(10, edges))


@pytest.mark.parametrize("bijection", BIJECTIONS)
def test_cached_renderings_equal_fresh_ones(thousand, bijection):
    for family in FAMILIES:
        code = family_to_bits(family, bijection)
        some = [s for s in thousand if s.tabular.bits[:2] == code][:3]
        edges = tuple(sorted(_family_edges(family)))
        want_x = betweenness(NODE_COUNT, edges)
        want_adj = normalized_adjacency(NODE_COUNT, edges)
        for _ in range(2):           # the second pass reads the cache
            arr = as_arrays(some, bijection)
            for k in range(len(some)):
                assert np.array_equal(arr.aux_graph_x[k, :, 0], want_x)
                assert np.array_equal(arr.aux_graph_adj[k], want_adj)
            got_edges, feats = graph_rendering(some[0], bijection)
            assert got_edges == edges and np.array_equal(feats, want_x)
            with pytest.raises(ValueError):
                feats[0] = 1.0       # shared by every later batch: read-only


def test_translation_batch_needs_aux_rows(thousand):
    with pytest.raises(ValueError, match="aux rows"):
        translation_batch(None, packed=as_arrays(thousand[:5], with_aux=False))


def test_translation_batch_swaps_renderings(thousand):
    some = thousand[:6]
    own = whole_batch(some)
    swapped = translation_batch(some)
    assert np.array_equal(swapped.tab_x, own.aux_tab_x)
    assert np.array_equal(swapped.graph_x, own.aux_graph_x)
    assert np.array_equal(swapped.aux_tab_x, own.tab_x)


@pytest.mark.parametrize("bijection", BIJECTIONS)
def test_translating_twice_gives_the_fields_back(thousand, bijection):
    own = as_arrays(thousand[:9], bijection)
    once = translation_batch(None, packed=own)
    assert once.graph_x is own.aux_graph_x and once.aux_tab_x is own.tab_x   # no copy
    assert_same_batch(translation_batch(None, packed=once), own)
    assert_same_batch(translation_batch(None, packed=translation_batch(thousand[:9], bijection)),
                      own)


# -- serialization ----------------------------------------------------------------

def test_dataset_round_trip_lossless(tmp_path, thousand):
    path = tmp_path / "d.json"
    save_dataset(thousand[:50], str(path), seed=0, random_edge_max=2,
                 bijection="default")
    loaded, header = load_dataset(str(path))
    assert header["n_samples"] == 50 and header["seed"] == 0
    for a, b in zip(thousand[:50], loaded):
        assert a == b
    # second save of the loaded copy is byte-identical
    path2 = tmp_path / "d2.json"
    save_dataset(loaded, str(path2), seed=0, random_edge_max=2,
                 bijection="default")
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"version": 999, "seed": 0, "n_samples": 0, "random_edge_max": 0,
           "bijection": "default", "samples": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_dataset(str(path))


def _saved_doc(tmp_path, samples):
    path = tmp_path / "d.json"
    save_dataset(samples, str(path), seed=0, random_edge_max=2, bijection="default")
    return json.loads(path.read_text())


def _first_bit_1(value):
    """An edit that sets record 1's first bit to value(that bit)."""
    return lambda d: d["samples"][1]["bits"].__setitem__(0, value(d["samples"][1]["bits"][0]))


def _first_endpoint(value):
    """An edit that sets the second endpoint of record 1's first edge to
    value(that endpoint); record 1 holds 13 edges."""
    def edit(d):
        edge = d["samples"][1]["edges"][0]
        edge[1] = value(edge[1])
    return edit


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("seed"),
    lambda d: d.pop("samples"),
    lambda d: d["samples"][1].pop("edges"),
    lambda d: d.update(n_samples=d["n_samples"] + 1),
    lambda d: d["samples"][2].update(id=d["samples"][0]["id"]),
    lambda d: d["samples"][1].update(features=d["samples"][1]["features"][:9]),
    lambda d: d["samples"][1].update(local_tab=1 - d["samples"][1]["local_tab"]),
    lambda d: d["samples"][1].update(local_graph=1 - d["samples"][1]["local_graph"]),
    lambda d: d["samples"][1].update(**{"global": 1 - d["samples"][1]["global"]}),
    lambda d: d["samples"][1].update(family="triangle"),
    lambda d: d.update(samples={}),
    lambda d: d["samples"][1].update(**{"global": bool(d["samples"][1]["global"])}),
    lambda d: d["samples"][1].update(local_tab=float(d["samples"][1]["local_tab"])),
    lambda d: d["samples"][1].update(colour="red"),
    lambda d: d.update(bijection="rotated"),
    lambda d: d.update(version=True),
    lambda d: d.update(n_samples=float(d["n_samples"])),
    lambda d: d.update(seed=float(d["seed"])),
    lambda d: d.update(random_edge_max=float(d["random_edge_max"])),
    lambda d: d.update(bijection=["default"]),
    lambda d: d.update(colour="red"),
    lambda d: d["samples"][1].update(id=str(d["samples"][1]["id"])),
    lambda d: d["samples"][1].update(id=d["samples"][1]["id"] + 0.5),
    lambda d: d["samples"][1].update(id=float("inf")),
    lambda d: d["samples"][1].update(id=float("nan")),
    _first_bit_1(float),
    _first_bit_1(lambda bit: float("inf")),
    _first_endpoint(bool),
    _first_endpoint(float),
    lambda d: d.update(seed=str(d["seed"])),
    lambda d: d.update(seed=float("inf")),
    lambda d: d.update(version=2),
    lambda d: d["samples"].__setitem__(1, [1, 2]),
    # record 2 is a c4 graph with 2 extra edges, the most random_edge_max allows
    lambda d: d["samples"][2].update(edges=[[0, 1]]),
    lambda d: d["samples"][2]["edges"].append([8, 9]),
    lambda d: d["samples"][1]["edges"].reverse(),
], ids=["missing header field", "missing samples", "missing record field",
        "count differs from header", "repeated id", "nine nodes",
        "local_tab disagrees", "local_graph disagrees", "global disagrees",
        "unknown family", "samples not a list", "boolean global", "float local_tab",
        "unknown record field", "unknown bijection", "boolean version", "float n_samples",
        "float seed", "float random_edge_max", "bijection a list",
        "unknown top-level field", "string id", "fractional id", "infinite id", "NaN id",
        "float bit", "infinite bit", "bool endpoint", "float endpoint", "string seed",
        "infinite seed", "version 2", "record a list", "without its family's edges",
        "three extra edges", "edges out of order"])
def test_load_rejects_damaged_dataset(tmp_path, thousand, edit):
    doc = _saved_doc(tmp_path, thousand[:5])
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError):
        load_dataset(str(path))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["samples"].__setitem__(1, [1, 2]), "dataset record 1 is not a JSON object"),
    (lambda d: d.update(samples={}), "dataset samples is not a list"),
    (lambda d: d.pop("samples"), "dataset lacks samples"),
    (lambda d: d["samples"][1].update(id=True), "dataset record 1: id is true, not 1"),
    (lambda d: d.update(colour="red"), 'dataset header: colour is "red", not absent'),
    (lambda d: d.update(bijection=["default"]), "dataset header: unknown bijection ['default']"),
    (lambda d: d["samples"][1].update(id=None), "dataset record 1: id null is not an integer"),
    (lambda d: d["samples"][1].update(id=float("nan")),
     "dataset record 1: id NaN is not an integer"),
    (_first_endpoint(lambda v: None), "dataset record 1: edge endpoint null is not an integer"),
    (lambda d: d.update(seed=None), "dataset header: seed null is not an integer"),
    (lambda d: d.update(random_edge_max="abc"),
     'dataset header: random_edge_max "abc" is not an integer'),
    (lambda d: d["samples"][2]["edges"].append([8, 9]),
     "dataset record 2: 3 edges beyond the c4 family's, more than random_edge_max 2"),
], ids=["record a list", "samples not a list", "missing samples", "boolean id",
        "unknown top-level field", "bijection a list", "null id", "NaN id", "null endpoint",
        "null seed", "string random_edge_max", "three extra edges"])
def test_damaged_dataset_message(tmp_path, thousand, edit, message):
    doc = _saved_doc(tmp_path, thousand[:5])
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError) as info:
        load_dataset(str(path))
    assert str(info.value) == message


@pytest.mark.parametrize("edit", [
    _first_endpoint(int),
    lambda d: d["samples"][2].update(features=[0 if f == 0 else f
                                               for f in d["samples"][2]["features"]]),
], ids=["integer endpoints", "integer-valued features"])
def test_load_takes_stored_values_in_the_writers_types(tmp_path, thousand, edit):
    """What the type rows above differ from: record 1's endpoints written as
    the integers they are load, and so do record 2's 0.0 betweenness
    features written as 0 (features are taken as stored); saving the loaded
    samples again gives the same bytes. Each edited value equals the one
    generated, so the records still describe their graphs."""
    doc = _saved_doc(tmp_path, thousand[:5])
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    samples, header = load_dataset(str(path))
    again = tmp_path / "again.json"
    save_dataset(samples, str(again), seed=header["seed"],
                 random_edge_max=header["random_edge_max"], bijection=header["bijection"])
    assert again.read_bytes() == path.read_bytes()
