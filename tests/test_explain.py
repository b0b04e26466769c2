import csv
import json

import numpy as np
import pytest

from conceptspace.config import BIJECTIONS, MODALITIES, other_modality
from conceptspace.data import as_arrays, whole_batch
from conceptspace.errors import NoSuchConceptError
from conceptspace.evaluation import retrieval_label_match
from conceptspace.explain import (
    ConceptIndex,
    Explanation,
    _nearest,
    build_index,
    cross_modal_retrieve,
    encode_samples,
    neighborhood,
    pca_projection,
    prototype,
    save_explanation,
    save_pca_csv,
    substitute_matrix,
    substitute_missing,
)
from conceptspace.model import SharedConceptModel
from conceptspace.rng import substream

from oracles import scan_nearest, scan_neighborhood, scan_prototype


@pytest.fixture(scope="module")
def trained(small_cfg_module, small_split_module, small_model_module):
    model, _ = small_model_module
    index = build_index(model, small_split_module.train)
    return model, index, small_split_module


# reuse the session fixtures under module-friendly names
@pytest.fixture(scope="module")
def small_cfg_module(request):
    return request.getfixturevalue("small_cfg")


@pytest.fixture(scope="module")
def small_split_module(request):
    return request.getfixturevalue("small_split")


@pytest.fixture(scope="module")
def small_model_module(request):
    return request.getfixturevalue("small_model")


def synthetic_index():
    """Hand-built index: 4 samples, 2-dim spaces, known geometry."""
    spaces = {
        "graph": np.array([[0.1, 0.1], [0.9, 0.9], [0.5, 0.4], [0.2, 0.8]]),
        "tabular": np.array([[0.1, 0.2], [0.8, 0.9], [0.45, 0.5], [0.3, 0.7]]),
    }
    z = np.concatenate([spaces["graph"], spaces["tabular"]], axis=1)
    return ConceptIndex(
        ids=np.array([0, 1, 2, 3]),
        spaces=spaces,
        z=z,
        codes=(z >= 0.5).astype(np.uint8),
        local_labels={"graph": np.array([0, 1, 1, 0]),
                      "tabular": np.array([0, 1, 0, 1])},
        global_labels=np.array([0, 1, 0, 0]),
    )


# -- index construction ----------------------------------------------------------

def test_index_has_one_row_per_training_sample(trained):
    _, index, ds = trained
    n = len(ds.train)
    assert len(index) == n
    for m in MODALITIES:
        assert index.spaces[m].shape == (n, 8)
    assert index.z.shape == (n, 16)
    assert index.codes.shape == (n, 16)


def test_index_entries_in_unit_interval(trained):
    _, index, _ = trained
    for m in MODALITIES:
        assert np.all((index.spaces[m] > 0) & (index.spaces[m] < 1))


def test_index_rebuild_is_identical(trained):
    model, index, ds = trained
    again = build_index(model, ds.train)
    for m in MODALITIES:
        assert np.array_equal(index.spaces[m], again.spaces[m])
    assert np.array_equal(index.codes, again.codes)


def test_index_order_independent_of_storage_order(trained):
    model, index, ds = trained
    reordered = list(ds.train)[::-1]
    again = build_index(model, reordered)
    assert np.array_equal(index.ids, again.ids)
    for m in MODALITIES:
        assert np.allclose(index.spaces[m], again.spaces[m])


@pytest.mark.parametrize("bijection", BIJECTIONS)
def test_spaces_do_not_depend_on_aux_rows(trained, bijection):
    model, index, ds = trained
    ordered = sorted(ds.train, key=lambda s: s.id)
    with_aux = model.index_spaces(whole_batch(ordered, bijection=bijection))
    encoded = encode_samples(model, ds.test)
    test_with_aux = model.index_spaces(whole_batch(ds.test, bijection=bijection))
    for m in MODALITIES:
        assert index.spaces[m].tobytes() == with_aux[m].tobytes()
        assert encoded[m].tobytes() == test_with_aux[m].tobytes()


def test_untrained_model_rejected(small_cfg):
    model = SharedConceptModel(small_cfg, substream(9, "init"))
    with pytest.raises(RuntimeError):
        build_index(model, [])


# -- prototypes -------------------------------------------------------------------

def test_singleton_cluster_is_its_own_prototype():
    index = synthetic_index()
    for k in range(4):
        assert prototype(index, index.codes[k]) == scan_prototype(
            index.z, index.codes, index.ids, index.codes[k])


def test_absent_code_raises():
    index = synthetic_index()
    missing = 1 - index.codes[0]
    if any(np.array_equal(missing, c) for c in index.codes):
        missing = np.array([1, 1, 1, 0], dtype=np.uint8)
    with pytest.raises(NoSuchConceptError):
        prototype(index, missing)


def test_prototype_may_lie_outside_the_cluster():
    # a third sample (different code) sits nearer to the 2-member cluster's
    # centroid than either member: the argmin runs over the whole training set
    spaces = {
        "graph": np.array([[0.9, 0.1], [0.6, 0.4], [0.75, 0.51]]),
        "tabular": np.array([[0.9, 0.1], [0.6, 0.4], [0.75, 0.25]]),
    }
    z = np.concatenate([spaces["graph"], spaces["tabular"]], axis=1)
    index = ConceptIndex(np.array([0, 1, 2]), spaces, z,
                         (z >= 0.5).astype(np.uint8),
                         {"graph": np.zeros(3), "tabular": np.zeros(3)},
                         np.zeros(3))
    # cluster {0, 1} has code (1,0,1,0) and centroid (0.75, 0.25, 0.75, 0.25):
    # members are 0.30 away, sample 2 (code (1,1,1,0)) only 0.26
    code = np.array([1, 0, 1, 0], dtype=np.uint8)
    assert prototype(index, code) == 2
    assert scan_prototype(z, index.codes, index.ids, code) == 2


def test_prototype_oracle_agreement_on_trained_index(trained):
    _, index, _ = trained
    seen = {tuple(c) for c in index.codes}
    for code in list(seen)[:20]:
        assert prototype(index, np.array(code)) == scan_prototype(
            index.z, index.codes, index.ids, np.array(code))


def test_prototype_bad_code_shape():
    with pytest.raises(ValueError):
        prototype(synthetic_index(), np.array([1, 0], dtype=np.uint8))


# -- neighborhoods ----------------------------------------------------------------

def test_zero_radius_is_empty(trained):
    _, index, ds = trained
    query = index.spaces["graph"][0]
    expl = neighborhood(index, query, "graph", 0.0)
    assert expl.results == []


def test_big_radius_catches_everything(trained):
    _, index, _ = trained
    query = index.spaces["tabular"][5]
    expl = neighborhood(index, query, "tabular", np.sqrt(8) + 1.0)
    assert len(expl.results) == len(index)


def test_neighborhood_matches_linear_scan(trained):
    _, index, ds = trained
    test_vec = encode_samples((trained[0]), list(ds.test)[:3])
    for k in range(3):
        query = test_vec["graph"][k]
        expl = neighborhood(index, query, "graph", 0.6)
        want = scan_neighborhood(index.spaces["graph"], index.ids, query, 0.6)
        assert [(r[0], r[2]) for r in expl.results] == want


def test_radius_monotonicity(trained):
    _, index, _ = trained
    query = index.spaces["graph"][17]
    sets = []
    for rho in (0.1, 0.3, 0.7, 1.5):
        expl = neighborhood(index, query, "graph", rho)
        sets.append({r[0] for r in expl.results})
    for small, big in zip(sets, sets[1:]):
        assert small <= big


def test_negative_radius_rejected(trained):
    _, index, _ = trained
    with pytest.raises(ValueError):
        neighborhood(index, index.spaces["graph"][0], "graph", -0.1)


# -- cross-modal retrieval -----------------------------------------------------------

def test_cross_modal_radius_matches_scan(trained):
    _, index, _ = trained
    query = index.spaces["tabular"][3]
    expl = cross_modal_retrieve(index, query, "tabular", radius=0.5)
    want = scan_neighborhood(index.spaces["graph"], index.ids, query, 0.5)
    assert [(r[0], r[2]) for r in expl.results] == want
    assert all(r[1] == "graph" for r in expl.results)


def test_top_k_returns_k_sorted(trained):
    _, index, _ = trained
    query = index.spaces["tabular"][3]
    expl = cross_modal_retrieve(index, query, "tabular", top_k=5)
    assert len(expl.results) == 5
    dists = [r[2] for r in expl.results]
    assert dists == sorted(dists)
    top1 = scan_nearest(index.spaces["graph"], index.ids, query)
    assert (expl.results[0][0], expl.results[0][2]) == top1


def test_exactly_one_mode_required(trained):
    _, index, _ = trained
    query = index.spaces["tabular"][0]
    with pytest.raises(ValueError):
        cross_modal_retrieve(index, query, "tabular")
    with pytest.raises(ValueError):
        cross_modal_retrieve(index, query, "tabular", radius=0.5, top_k=3)


# -- substitution ------------------------------------------------------------------

def test_exact_match_retrieves_itself_at_zero_distance(trained):
    model, index, _ = trained
    query = index.spaces["graph"][12]
    vec, retrieved, dist = substitute_missing(model, index, query,
                                              "tabular", "graph")
    assert dist == 0.0
    assert np.array_equal(vec, index.spaces["graph"][12])
    # ties go to the smallest id: duplicate stored vectors are possible
    dupes = np.flatnonzero((index.spaces["graph"] == query).all(axis=1))
    assert retrieved == int(index.ids[dupes].min())


def test_substitution_matches_scan(trained):
    model, index, ds = trained
    queries = encode_samples(model, list(ds.test)[:5])["tabular"]
    subs, ids = substitute_matrix(index, queries, "graph")
    for k in range(5):
        want_id, _ = scan_nearest(index.spaces["graph"], index.ids, queries[k])
        assert ids[k] == want_id
        row = index.row_of(want_id)
        assert np.array_equal(subs[k], index.spaces["graph"][row])


def test_same_modality_substitution_rejected(trained):
    model, index, _ = trained
    with pytest.raises(ValueError):
        substitute_missing(model, index, index.spaces["graph"][0],
                           "graph", "graph")


def test_empty_index_rejected(trained):
    model, index, _ = trained
    empty = ConceptIndex(np.array([], dtype=int),
                         {m: np.zeros((0, 8)) for m in MODALITIES},
                         None, None, {m: np.array([]) for m in MODALITIES},
                         np.array([]))
    with pytest.raises(RuntimeError):
        substitute_missing(model, empty, index.spaces["graph"][0],
                           "tabular", "graph")


# -- exact ties ----------------------------------------------------------------------

CENTER = np.array([0.5, 0.5])


def tied_index():
    """Hand-built index on dyadic coordinates, so distances tie exactly. From
    CENTER, graph ids 2, 4, 7 and 15 lie at 0.25 and ids 9, 12 at 0.5;
    tabular id 12 lies at 0, ids 4, 9, 15 at 0.25 and ids 2, 7 at 0.5."""
    spaces = {
        "graph": np.array([[0.25, 0.5], [0.75, 0.5], [0.5, 0.25], [0.5, 1.0],
                           [0.0, 0.5], [0.5, 0.75]]),
        "tabular": np.array([[0.5, 0.0], [0.5, 0.75], [1.0, 0.5], [0.25, 0.5],
                             [0.5, 0.5], [0.75, 0.5]]),
    }
    z = np.concatenate([spaces["graph"], spaces["tabular"]], axis=1)
    return ConceptIndex(np.array([2, 4, 7, 9, 12, 15]), spaces, z,
                        (z >= 0.5).astype(np.uint8),
                        {m: np.zeros(6, dtype=int) for m in MODALITIES},
                        np.zeros(6, dtype=int))


def scan_ranked(index, query, modalities, top_k):
    """(id, modality, distance) by (distance, modality, id), cut at top_k."""
    rows = sorted((d, m, i) for m in modalities
                  for i, d in scan_neighborhood(index.spaces[m], index.ids, query, np.inf))
    return [(i, m, d) for d, m, i in rows[:top_k]]


def test_substitute_missing_tie_goes_to_smallest_id():
    index = tied_index()
    vec, retrieved, dist = substitute_missing(None, index, CENTER, "tabular", "graph")
    assert (retrieved, dist) == scan_nearest(index.spaces["graph"], index.ids, CENTER)
    assert (retrieved, dist) == (2, 0.25)
    assert np.array_equal(vec, index.spaces["graph"][0])


def test_substitute_matrix_ties_go_to_smallest_id():
    index = tied_index()
    # each of the first three queries ties two or four graph rows
    queries = np.array([CENTER, [0.25, 0.25], [0.75, 0.25], [0.5, 0.75]])
    subs, ids = substitute_matrix(index, queries, "graph")
    want = [scan_nearest(index.spaces["graph"], index.ids, q)[0] for q in queries]
    assert ids.tolist() == want == [2, 2, 4, 15]
    assert np.array_equal(subs, index.spaces["graph"][[0, 0, 1, 5]])


def test_prototype_tie_goes_to_smallest_id():
    # ids 2 and 5 share code 1010 and sit 0.25 either side of their centroid
    # (0.75, 0.25, 0.75, 0.25); id 1 (another code) is farther
    z = np.array([[0.0, 0.0, 0.0, 0.0], [0.875, 0.375, 0.875, 0.375],
                  [0.625, 0.125, 0.625, 0.125]])
    spaces = {"graph": z[:, :2], "tabular": z[:, 2:]}
    index = ConceptIndex(np.array([1, 2, 5]), spaces, z, (z >= 0.5).astype(np.uint8),
                         {m: np.zeros(3) for m in MODALITIES}, np.zeros(3))
    code = np.array([1, 0, 1, 0], dtype=np.uint8)
    assert prototype(index, code) == scan_prototype(z, index.codes, index.ids, code) == 2


@pytest.mark.parametrize("top_k", [1, 2, 3, 4, 5, 6])
def test_cross_modal_top_k_cut_inside_a_tie(top_k):
    index = tied_index()
    expl = cross_modal_retrieve(index, CENTER, "tabular", top_k=top_k)
    assert expl.results == scan_ranked(index, CENTER, ["graph"], top_k)


@pytest.mark.parametrize("kw", [{"top_k": 0}, {"top_k": -1}, {"radius": -0.1}],
                         ids=["top_k 0", "top_k -1", "negative radius"])
def test_cross_modal_rejects_an_empty_top_k_or_a_negative_radius(kw):
    with pytest.raises(ValueError):
        cross_modal_retrieve(tied_index(), CENTER, "tabular", **kw)


@pytest.mark.parametrize("radius, n_tabular", [(0.0, 0), (0.25, 1), (0.5, 4)])
def test_radius_equal_to_a_stored_distance_is_excluded(radius, n_tabular):
    index = tied_index()
    assert len(neighborhood(index, CENTER, "tabular", radius).results) == n_tabular
    for mod in MODALITIES:
        want = scan_neighborhood(index.spaces[mod], index.ids, CENTER, radius)
        assert all(d < radius for _, d in want)
        got = neighborhood(index, CENTER, mod, radius).results
        assert [(i, d) for i, _, d in got] == want
    cross = cross_modal_retrieve(index, CENTER, "tabular", radius=radius).results
    assert [(i, d) for i, _, d in cross] == scan_neighborhood(
        index.spaces["graph"], index.ids, CENTER, radius)


@pytest.mark.parametrize("query", ["neighborhood", "cross_modal"])
def test_nan_radius_rejected(query):
    index = tied_index()
    with pytest.raises(ValueError, match="radius"):
        if query == "neighborhood":
            neighborhood(index, CENTER, "graph", float("nan"))
        else:
            cross_modal_retrieve(index, CENTER, "tabular", radius=float("nan"))


# -- nearest rows over distinct rows ------------------------------------------------

# every point of a dyadic 5 x 5 grid: most of them tie two or more stored rows
GRID = np.array([(x, y) for x in np.arange(5) / 4 for y in np.arange(5) / 4])


def duplicated_tied_index():
    """tied_index with every row stored twice: the copies follow in reverse
    order under ids 16-21, so each tie of tied_index also ties later copies."""
    base = tied_index()
    spaces = {m: np.concatenate([v, v[::-1]]) for m, v in base.spaces.items()}
    z = np.concatenate([spaces["graph"], spaces["tabular"]], axis=1)
    return ConceptIndex(np.concatenate([base.ids, np.arange(16, 22)]), spaces, z,
                        (z >= 0.5).astype(np.uint8),
                        {m: np.zeros(12, dtype=int) for m in MODALITIES},
                        np.zeros(12, dtype=int))


def named_spaces(index):
    return {**index.spaces, "z": index.z}


def assert_nearest_is_scan(index, name, queries):
    """_nearest over the distinct rows picks the scan's row with the scan's
    distance bytes; returns the scan's ids."""
    stored = named_spaces(index)[name]
    want = [scan_nearest(stored, index.ids, q) for q in queries]
    rows, dists = _nearest(stored, index.distinct[name], queries)
    assert index.ids[rows].tolist() == [i for i, _ in want]
    assert dists.tobytes() == np.array([d for _, d in want]).tobytes()
    return [i for i, _ in want]


def test_distinct_rows_are_first_occurrences():
    index = duplicated_tied_index()
    for name, x in named_spaces(index).items():
        want = [k for k in range(len(x))
                if not any(x[k].tobytes() == x[j].tobytes() for j in range(k))]
        assert index.distinct[name][0].tolist() == want == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("make_index", [tied_index, duplicated_tied_index])
def test_nearest_callers_equal_the_scan_on_ties(make_index):
    index = make_index()
    for mod in MODALITIES:
        want = assert_nearest_is_scan(index, mod, GRID)
        subs, ids = substitute_matrix(index, GRID, mod)
        assert ids.tolist() == want
        assert np.array_equal(subs, index.spaces[mod][[index.row_of(i) for i in want]])
        one_sub, one_id = substitute_matrix(index, GRID[7:8], mod)     # a single query
        assert one_id.tolist() == want[7:8] and np.array_equal(one_sub, subs[7:8])
        for q in GRID:
            vec, got_id, dist = substitute_missing(None, index, q, other_modality(mod), mod)
            want_id, want_dist = scan_nearest(index.spaces[mod], index.ids, q)
            assert (got_id, np.float64(dist).tobytes()) == (
                want_id, np.float64(want_dist).tobytes())
            assert np.array_equal(vec, index.spaces[mod][index.row_of(want_id)])
    assert_nearest_is_scan(index, "z", np.concatenate([GRID, GRID], axis=1))
    for code in index.codes:
        assert prototype(index, code) == scan_prototype(index.z, index.codes, index.ids, code)


@pytest.mark.parametrize("seed", range(8))
def test_ranked_distances_are_the_norm_over_every_row(seed):
    # stored rows drawn from a small pool, so most of them repeat
    r = np.random.default_rng(seed)
    width, n = int(r.integers(1, 101)), int(r.integers(1, 801))
    pool = r.normal(size=(int(r.integers(1, n + 1)), width))
    spaces = {m: pool[r.integers(0, len(pool), size=n)] for m in MODALITIES}
    index = ConceptIndex(np.arange(n) * 3, spaces, None, None,
                         {m: np.zeros(n, dtype=int) for m in MODALITIES}, np.zeros(n))
    for query in (r.normal(size=width), spaces["graph"][0]):
        for mod in MODALITIES:
            got = {i: d for i, _, d in neighborhood(index, query, mod, np.inf).results}
            want = np.linalg.norm(spaces[mod] - query, axis=1)
            assert np.array([got[i] for i in index.ids]).tobytes() == want.tobytes()


def test_nearest_callers_equal_the_scan_on_the_trained_index(trained):
    model, index, ds = trained
    assert all(len(index.distinct[m][0]) < len(index) for m in MODALITIES)   # rows repeat
    test_spaces = encode_samples(model, ds.test)
    local = as_arrays(ds.test, with_aux=False).local
    for source, target in (MODALITIES, MODALITIES[::-1]):
        queries = np.concatenate([test_spaces[source], index.spaces[target][:20]])
        want = assert_nearest_is_scan(index, target, queries)
        assert substitute_matrix(index, queries, target)[1].tolist() == want
        for q, want_id in zip(queries[::20], want[::20]):
            assert substitute_missing(model, index, q, source, target)[1] == want_id
        rows = [index.row_of(i) for i in want[:len(ds.test)]]
        label_match = (index.local_labels[target][rows] == local[source]).mean()
        assert retrieval_label_match(model, index, ds.test, (source, target)) == label_match
    for code in np.unique(index.codes, axis=0):
        assert prototype(index, code) == scan_prototype(index.z, index.codes, index.ids, code)


# -- explanation records --------------------------------------------------------------

def test_explanation_validation():
    with pytest.raises(ValueError):
        Explanation("nonsense", 0, "graph", [])
    with pytest.raises(ValueError):
        Explanation("neighborhood", 0, "graph", [(1, "graph", -0.5)])
    with pytest.raises(ValueError):
        Explanation("neighborhood", 0, "graph",
                    [(1, "graph", 0.9), (2, "graph", 0.1)])


def test_explanation_json_round_trip(tmp_path, trained):
    _, index, _ = trained
    expl = neighborhood(index, index.spaces["graph"][4], "graph", 0.8,
                        query_id=int(index.ids[4]))
    path = tmp_path / "expl.json"
    save_explanation(expl, str(path))
    doc = json.loads(path.read_text())
    assert doc["kind"] == "neighborhood"
    assert doc["query"] == {"id": int(index.ids[4]), "modality": "graph"}
    assert doc["params"]["radius"] == 0.8
    for rec in doc["results"]:
        assert set(rec) == {"id", "modality", "distance"}


# -- 2D projection export --------------------------------------------------------------

def test_pca_rows_cover_both_modalities(trained):
    _, index, _ = trained
    rows = pca_projection(index)
    assert len(rows) == 2 * len(index)
    mods = {r[1] for r in rows}
    assert mods == set(MODALITIES)


def test_pca_csv_schema(tmp_path, trained):
    _, index, _ = trained
    path = tmp_path / "pca.csv"
    save_pca_csv(index, str(path))
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == ["id", "modality", "pc1", "pc2", "label"]
    assert len(body) == 2 * len(index)


def test_pca_deterministic(trained):
    _, index, _ = trained
    a = pca_projection(index)
    b = pca_projection(index)
    assert a == b
