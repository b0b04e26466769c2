import csv

import numpy as np
import pytest

from conceptspace.baselines import build_baseline, train_baseline
from conceptspace.config import ExperimentConfig, MODALITIES, TrainPlan
from conceptspace.data import batches, generate_xor_and_xor, split, whole_batch
from conceptspace.evaluation import (
    EvalReport,
    LEDGER_COLUMNS,
    accuracy,
    append_ledger,
    completeness,
    evaluate_model,
    missing_modality_eval,
    model_codes,
    paired_shared_distance,
    retrieval_label_match,
)
from conceptspace.explain import ConceptIndex, build_index
from conceptspace.tree import BinaryCodeTree

from oracles import gini_tree_reference, majority_vote_completeness


class StubModel:
    """Fixed-function model without a representation space, for metric
    contract tests: its logits come from forward."""

    kind = "stub"
    concept_based = True
    trained = True
    config = ExperimentConfig()

    def __init__(self, logits_fn):
        self._logits_fn = logits_fn

    def forward(self, batch, mode):
        return self._logits_fn(batch)


class IndexedStubModel(StubModel):
    """Fixed-function model with fixed index spaces; as for every model with
    index spaces, its logits come from predicting on them (label 0 here)."""

    def __init__(self, spaces_fn):
        self._spaces_fn = spaces_fn

    def index_spaces(self, batch):
        return self._spaces_fn(batch)

    def predict(self, spaces):
        return np.tile([1.0, 0.0], (spaces[MODALITIES[0]].shape[0], 1))


@pytest.fixture(scope="module")
def data200():
    return generate_xor_and_xor(200, seed=2, random_edge_max=2)


# -- accuracy ---------------------------------------------------------------------

def test_perfect_predictions_score_one(data200):
    def perfect(batch):
        out = np.full((len(batch), 2), -5.0)
        out[np.arange(len(batch)), batch.y] = 5.0
        return out

    assert accuracy(StubModel(perfect), data200) == 1.0


def test_random_predictions_score_chance(data200):
    rng = np.random.default_rng(0)
    samples = generate_xor_and_xor(1000, seed=3, random_edge_max=2)

    def coin(batch):
        return rng.normal(size=(len(batch), 2))

    acc = accuracy(StubModel(coin), samples)
    assert 0.4 <= acc <= 0.6


def test_accuracy_invariant_to_eval_batch_size(small_model, small_split):
    model, _ = small_model
    logits_whole = model.forward(whole_batch(small_split.test), "eval").logits
    pieces = [model.forward(b, "eval").logits
              for b in batches(whole_batch(small_split.test), 7)]
    assert np.allclose(logits_whole, np.concatenate(pieces), atol=1e-12)


def test_trained_model_beats_chance(small_model, small_split):
    model, _ = small_model
    assert accuracy(model, small_split.test) > 0.7


# -- completeness ------------------------------------------------------------------

def make_index(codes, labels):
    codes = np.asarray(codes, dtype=np.uint8)
    n, width = codes.shape
    half = width // 2
    z = codes.astype(float)
    return ConceptIndex(np.arange(n),
                        {"graph": z[:, :half], "tabular": z[:, half:]},
                        z, codes,
                        {"graph": np.zeros(n, dtype=int),
                         "tabular": np.zeros(n, dtype=int)},
                        np.asarray(labels))


def test_codes_determined_by_label_give_one():
    train = make_index([[0, 0], [1, 1], [0, 0], [1, 1]], [0, 1, 0, 1])
    score = completeness(train, np.array([[0, 0], [1, 1]], dtype=np.uint8),
                         np.array([0, 1]))
    assert score == 1.0


def test_single_cluster_scores_majority_rate():
    train = make_index([[1, 0]] * 10, [0] * 7 + [1] * 3)
    test_codes = np.array([[1, 0]] * 4, dtype=np.uint8)
    score = completeness(train, test_codes, np.array([0, 0, 1, 1]))
    assert score == 0.5       # predicts the majority label 0


def test_completeness_equals_majority_vote_oracle():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n_bits = rng.integers(2, 6)
        train_codes = rng.integers(0, 2, size=(60, n_bits))
        train_labels = rng.integers(0, 2, size=60)
        # test codes drawn from the training codes: every cluster seen
        pick = rng.integers(0, 60, size=30)
        test_codes = train_codes[pick]
        test_labels = rng.integers(0, 2, size=30)
        score = completeness(make_index(train_codes, train_labels),
                             test_codes.astype(np.uint8), test_labels)
        want = majority_vote_completeness(train_codes, train_labels,
                                          test_codes, test_labels)
        assert score == pytest.approx(want)


def test_unseen_test_codes_still_scored():
    train = make_index([[0, 0], [1, 1]], [0, 1])
    score = completeness(train, np.array([[0, 1]], dtype=np.uint8),
                         np.array([1]))
    assert score in (0.0, 1.0)   # routed deterministically, no crash


def test_tree_majority_tie_breaks_to_smallest_label():
    tree = BinaryCodeTree().fit(np.array([[0], [0]], dtype=np.uint8),
                                np.array([0, 1]))
    assert tree.predict(np.array([[0]], dtype=np.uint8))[0] == 0


def test_tree_splits_through_zero_gain():
    # two clusters with identical class ratios: Gini gain of the split is 0,
    # yet full depth must still separate them to realize cluster majorities
    codes = np.array([[0, 0], [0, 0], [0, 1], [0, 1]], dtype=np.uint8)
    labels = np.array([0, 1, 1, 0])
    tree = BinaryCodeTree().fit(codes, labels)
    pred = tree.predict(np.array([[0, 0], [0, 1]], dtype=np.uint8))
    assert pred.tolist() == [0, 0]   # each cluster's tied vote -> smallest label


def tree_tuples(node):
    if node.label >= 0:
        return ("leaf", node.label)
    return (node.feature, tree_tuples(node.left), tree_tuples(node.right))


def random_code_sets(count: int, seed: int = 11):
    """(codes, labels) with 1-20 features and 2-3 labels. Rows repeat a few
    distinct codes, and some columns are copies or complements of others,
    so equal gains (ties) are common."""
    r = np.random.default_rng(seed)
    for _ in range(count):
        n_features = int(r.integers(1, 21))
        pool = r.integers(0, 2, size=(int(r.integers(2, 12)), n_features))
        codes = pool[r.integers(0, len(pool), size=int(r.integers(4, 160)))]
        for f in range(1, n_features):
            pick = r.random()
            if pick < 0.2:
                codes[:, f] = codes[:, r.integers(0, f)]
            elif pick < 0.35:
                codes[:, f] = 1 - codes[:, r.integers(0, f)]
        values = r.choice([0, 1, 2, 4, 7], size=int(r.integers(2, 4)), replace=False)
        labels = values[r.integers(0, len(values), size=len(codes))]
        yield codes.astype(np.uint8), labels


def test_tree_equals_the_per_feature_reference_node_for_node():
    grown = 0
    for codes, labels in random_code_sets(400):
        tree = BinaryCodeTree().fit(codes, labels)
        assert tree_tuples(tree.root) == gini_tree_reference(codes, labels)
        grown += tree.root.label < 0
    assert grown >= 300         # that many trees split at least once


def test_model_codes_shapes(small_model, small_split):
    model, _ = small_model
    codes, labels = model_codes(model, small_split.test)
    assert codes.shape == (len(small_split.test), 16)
    assert set(np.unique(codes)) <= {0, 1}
    assert len(labels) == len(small_split.test)


# -- missing modality ----------------------------------------------------------------

def test_degenerate_constant_spaces_change_nothing(data200):
    # constant representations: substitution returns the same constant row,
    # so missing-modality accuracy equals the plain accuracy
    def spaces(batch):
        return {m: np.full((len(batch), 4), 0.5) for m in MODALITIES}

    stub = IndexedStubModel(spaces)
    ds = split(data200, 0.8, seed=0)
    index = build_index(stub, list(ds.train))
    plain = accuracy(stub, list(ds.test))
    for m in MODALITIES:
        assert missing_modality_eval(stub, index, list(ds.test), m) == plain


def test_missing_modality_on_trained_model(small_model, small_split):
    model, _ = small_model
    index = build_index(model, small_split.train)
    for m in MODALITIES:
        value = missing_modality_eval(model, index, small_split.test, m)
        assert 0.0 <= value <= 1.0


def test_unknown_modality_rejected(small_model, small_split):
    model, _ = small_model
    index = build_index(model, small_split.train)
    with pytest.raises(ValueError):
        missing_modality_eval(model, index, small_split.test, "audio")


# -- retrieval label match -------------------------------------------------------------

def test_retrieval_chance_level_for_random_spaces(data200):
    rng = np.random.default_rng(8)

    def spaces(batch):
        return {m: rng.uniform(size=(len(batch), 4)) for m in MODALITIES}

    stub = IndexedStubModel(spaces)
    ds = split(data200, 0.8, seed=0)
    index = build_index(stub, list(ds.train))
    rate = retrieval_label_match(stub, index, list(ds.test),
                                 ("tabular", "graph"))
    assert 0.2 <= rate <= 0.8


def test_retrieval_direction_must_cross(small_model, small_split):
    model, _ = small_model
    index = build_index(model, small_split.train)
    with pytest.raises(ValueError):
        retrieval_label_match(model, index, small_split.test,
                              ("graph", "graph"))


def test_paired_distance_nonnegative(small_model, small_split):
    model, _ = small_model
    d = paired_shared_distance(model, small_split.test)
    assert 0 <= d <= np.sqrt(8)


# -- reports -----------------------------------------------------------------------

def test_eval_report_validates_fractions():
    report = EvalReport("shared", 0, "abc", accuracy=1.2)
    with pytest.raises(ValueError):
        report.validate()


def test_ledger_row_and_columns(tmp_path):
    report = EvalReport("shared", 3, "abc", accuracy=0.99, completeness=0.97,
                        missing={"graph": 1.0, "tabular": 0.98},
                        retrieval={"graph->tabular": 0.9, "tabular->graph": 1.0})
    path = tmp_path / "results.csv"
    append_ledger(report, str(path))
    append_ledger(report, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(LEDGER_COLUMNS)
    assert len(rows) == 3             # header + one row per invocation
    assert rows[1][0] == "shared" and rows[1][1] == "3"
    assert float(rows[1][6]) == pytest.approx(0.95)


def test_ledger_header_goes_into_an_empty_file(tmp_path):
    report = EvalReport("shared", 0, "abc", accuracy=0.9)
    path = tmp_path / "results.csv"
    path.write_text("")
    append_ledger(report, str(path))
    append_ledger(report, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(LEDGER_COLUMNS)] + [["shared", "0", "0.900000", "", "", "", ""]] * 2


def test_evaluate_model_full_metric_set(small_model, small_split, small_cfg):
    model, _ = small_model
    index = build_index(model, small_split.train)
    report = evaluate_model(model, index, small_split, small_cfg.hash())
    d = report.to_dict()
    assert d["accuracy"] is not None
    assert d["completeness"] is not None
    assert set(d["missing_modality"]) == set(MODALITIES)
    assert len(d["retrieval_label_match"]) == 2
    # five numbers in total, as one full eval emits
    values = [d["accuracy"], d["completeness"], *d["missing_modality"].values(),
              d["retrieval_label_match_mean"]]
    assert len(values) == 5 and all(v is not None for v in values)


def test_repeated_eval_is_identical(small_model, small_split, small_cfg):
    model, _ = small_model
    index = build_index(model, small_split.train)
    a = evaluate_model(model, index, small_split, small_cfg.hash()).to_dict()
    b = evaluate_model(model, index, small_split, small_cfg.hash()).to_dict()
    assert a == b


@pytest.fixture(scope="module", params=["shared", "concept", "relative"])
def indexed_model(request, small_model, small_split, small_cfg):
    """(kind, trained model) for each kind with index spaces."""
    kind = request.param
    if kind == "shared":
        return kind, small_model[0]
    cfg = small_cfg.with_overrides(plan=TrainPlan(epochs=5, phase2_epochs=5))
    model = build_baseline(kind, cfg)
    train_baseline(model, small_split, cfg)
    return kind, model


def test_evaluate_model_equals_public_helpers(indexed_model, small_split):
    kind, model = indexed_model
    index = build_index(model, small_split.train)
    test = small_split.test
    report = evaluate_model(model, index, small_split, "h")
    assert report.accuracy == accuracy(model, test)
    if kind == "relative":
        assert report.completeness is None
    else:
        assert report.completeness == completeness(index, *model_codes(model, test))
    assert report.missing == {m: missing_modality_eval(model, index, test, m)
                              for m in MODALITIES}
    assert report.retrieval == {
        f"{a}->{b}": retrieval_label_match(model, index, test, (a, b))
        for a, b in [MODALITIES, MODALITIES[::-1]]}


def test_predicting_on_index_spaces_is_the_eval_forward(indexed_model, small_split):
    # evaluation takes a model's logits from the index spaces it encodes anyway
    kind, model = indexed_model
    batch = whole_batch(small_split.test, model.config.bijection)
    out = model.forward(batch, "eval")
    logits = out.logits if kind == "shared" else out
    assert model.predict(model.index_spaces(batch)).tobytes() == logits.tobytes()
    assert accuracy(model, small_split.test) == float((logits.argmax(axis=1) == batch.y).mean())
