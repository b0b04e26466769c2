import warnings

import numpy as np
import pytest

from conceptspace.config import ExperimentConfig, LossConfig, TrainPlan
from conceptspace.data import generate_xor_and_xor, split, whole_batch
from conceptspace.errors import ConfigurationError
from conceptspace.evaluation import model_codes
from conceptspace.model import ForwardResult, SharedConceptModel
from conceptspace.nn import Module
from conceptspace.rng import substream
from conceptspace.training import (
    HISTORY_COLUMNS,
    draw_distance_samples,
    save_history,
    semantic_regularizer,
    task_loss,
    total_loss,
    train,
    _bce_with_logits,
    _code_purity_probe,
    _fit,
    _start,
    _total_loss_with_grads,
)
from conceptspace.tree import BinaryCodeTree

from oracles import bce_reference

rng = np.random.default_rng(0)


# -- task loss ---------------------------------------------------------------------

def test_confident_correct_logits_give_near_zero_loss():
    logits = np.array([[20.0, -20.0], [-20.0, 20.0]])
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert task_loss(logits, targets) < 1e-8


def test_zero_logit_costs_log_two():
    assert task_loss(np.zeros((3, 2)), np.eye(3, 2)) == pytest.approx(np.log(2))


def test_matches_naive_sigmoid_cross_entropy():
    logits = rng.normal(size=(16, 2)) * 3
    targets = (rng.uniform(size=(16, 2)) > 0.5).astype(float)
    assert task_loss(logits, targets) == pytest.approx(
        bce_reference(logits, targets), abs=1e-9)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        task_loss(np.zeros((3, 2)), np.zeros((2, 3)))


def test_bce_gradient_matches_finite_differences():
    logits = rng.normal(size=(4, 2))
    targets = np.array([[1.0, 0], [0, 1], [1, 0], [0, 1]])
    _, grad = _bce_with_logits(logits, targets)
    h = 1e-6
    for i in range(4):
        for j in range(2):
            lp, lm = logits.copy(), logits.copy()
            lp[i, j] += h
            lm[i, j] -= h
            fd = (_bce_with_logits(lp, targets)[0]
                  - _bce_with_logits(lm, targets)[0]) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, abs=1e-8)


# -- distance regularizer -------------------------------------------------------------

def test_identical_shared_concepts_cost_nothing():
    s = rng.uniform(size=(8, 8))
    assert semantic_regularizer({"graph": s, "tabular": s.copy()}) == 0.0


def test_unit_distance_single_pair():
    s1 = np.zeros((1, 8))
    s2 = np.zeros((1, 8))
    s1[0, 0] = 1.0
    assert semantic_regularizer({"graph": s1, "tabular": s2}) == pytest.approx(1.0)


def test_mean_over_samples():
    s1 = np.zeros((2, 4))
    s2 = np.zeros((2, 4))
    s1[0, 0] = 1.0      # distance 1
    s1[1, 0] = 3.0      # distance 3
    assert semantic_regularizer({"graph": s1, "tabular": s2}) == pytest.approx(2.0)


def test_empty_draw_returns_zero_with_warning():
    s = rng.uniform(size=(4, 8))
    with pytest.warns(UserWarning):
        value = semantic_regularizer({"graph": s, "tabular": s},
                                     sample_idx=np.array([], dtype=int))
    assert value == 0.0


# -- sample drawing ----------------------------------------------------------------

def batch_of(n, seed=0):
    return whole_batch(generate_xor_and_xor(n, seed=seed, random_edge_max=2))


def test_draw_ceils_fraction():
    batch = batch_of(64)
    idx = draw_distance_samples(batch, 0.1, "all", np.random.default_rng(0))
    assert len(idx) == 7            # ceil(6.4)
    assert len(np.unique(idx)) == 7


def test_draw_full_fraction_covers_batch():
    batch = batch_of(10)
    idx = draw_distance_samples(batch, 1.0, "all", np.random.default_rng(0))
    assert sorted(idx) == list(range(10))


def test_draw_deterministic_given_state():
    batch = batch_of(64)
    a = draw_distance_samples(batch, 0.25, "all", np.random.default_rng(5))
    b = draw_distance_samples(batch, 0.25, "all", np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_draw_positive_filter():
    batch = batch_of(64)
    idx = draw_distance_samples(batch, 1.0, "positive", np.random.default_rng(0))
    assert np.all(batch.y[idx] == 1)
    assert len(idx) == batch.y.sum()


def test_draw_rejects_bad_fraction():
    with pytest.raises(ValueError):
        draw_distance_samples(batch_of(8), 0.0, "all", np.random.default_rng(0))
    with pytest.raises(ValueError):
        draw_distance_samples(batch_of(8), 0.5, "typo", np.random.default_rng(0))


# -- total loss --------------------------------------------------------------------

def make_result(b=6):
    shared = {"graph": rng.uniform(size=(b, 8)), "tabular": rng.uniform(size=(b, 8))}
    logits = rng.normal(size=(b, 2))
    return ForwardResult({}, shared, logits, {})


def test_total_without_extras_equals_task_loss():
    batch = batch_of(6)
    result = make_result(6)
    breakdown = total_loss(result, batch, LossConfig(lam=0.0, betas=(0, 0)))
    assert breakdown.total == task_loss(result.logits, batch.y_onehot)
    assert breakdown.reg == 0.0 and breakdown.local == {}


def test_loss_decomposition_is_exact():
    batch = batch_of(6)
    result = make_result(6)
    loss_cfg = LossConfig(lam=0.1)
    breakdown = total_loss(result, batch, loss_cfg, np.arange(6))
    assert abs(breakdown.total - breakdown.components_sum(loss_cfg)) <= 1e-12


def test_doubling_lambda_doubles_only_the_distance_term():
    batch = batch_of(6)
    result = make_result(6)
    b1 = total_loss(result, batch, LossConfig(lam=0.1), np.arange(6))
    b2 = total_loss(result, batch, LossConfig(lam=0.2), np.arange(6))
    assert b2.task == b1.task
    assert b2.reg == b1.reg    # component value; the total carries the weight
    assert b2.total - b2.task == pytest.approx(2 * (b1.total - b1.task))


def test_local_weights_without_heads_rejected():
    batch = batch_of(6)
    result = make_result(6)
    with pytest.raises(ConfigurationError):
        total_loss(result, batch, LossConfig(lam=0.0, betas=(0.5, 0.5)))


def test_translation_rows_use_content_matched_pairs():
    # rows: [task | translations]; the pairing must cross them
    b = 3
    shared = {"graph": np.zeros((2 * b, 8)), "tabular": np.zeros((2 * b, 8))}
    shared["graph"][0, 0] = 1.0       # graph rendering of sample0's graph content
    shared["tabular"][b + 0, 0] = 1.0  # tabular rendering of the same content
    result = ForwardResult({}, shared, np.zeros((b, 2)), {})
    batch = batch_of(b)
    breakdown, _, d_shared, _ = _total_loss_with_grads(
        result, batch, LossConfig(lam=1.0), np.arange(b))
    assert breakdown.reg == 0.0        # matched rows are identical
    assert np.allclose(d_shared["graph"], 0.0)


# -- training loops ----------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_split():
    return split(generate_xor_and_xor(200, seed=1, random_edge_max=2), 0.8, 1)


def tiny_cfg(**kw):
    plan = TrainPlan(epochs=kw.pop("epochs", 12), phase2_epochs=kw.pop("phase2_epochs", 12))
    return ExperimentConfig(n_samples=200, seed=1, plan=plan, **kw)


def test_training_reduces_loss(tiny_split):
    cfg = tiny_cfg(epochs=30)
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"))
    _, history = train(model, tiny_split, cfg)
    losses = [h["task_loss"] for h in history]
    assert np.median(losses[-10:]) < np.median(losses[:10])
    assert model.trained


def test_training_is_deterministic(tiny_split):
    cfg = tiny_cfg(epochs=5)
    runs = []
    for _ in range(2):
        model = SharedConceptModel(cfg, substream(cfg.seed, "init"))
        model, history = train(model, tiny_split, cfg)
        runs.append((model.parameters(), history))
    p1, p2 = runs[0][0], runs[1][0]
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("epochs", [0, 3])
def test_code_purity_is_completeness_tree_training_accuracy(tiny_split, epochs):
    cfg = tiny_cfg(epochs=max(epochs, 1))
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"))
    if epochs:
        train(model, tiny_split, cfg)
    else:   # initial weights; one train-mode pass gives eval mode its statistics
        model.forward(whole_batch(tiny_split.train), "train",
                      gumbel_rng=substream(cfg.seed, "gumbel"))
    codes, labels = model_codes(model, tiny_split.train)
    tree = BinaryCodeTree().fit(codes, labels)
    purity = _code_purity_probe(tiny_split.train, 64)(model)
    assert purity == (tree.predict(codes) == labels).mean()


@pytest.mark.parametrize("regime", ["end_to_end", "sequential", "local_pretrain"])
def test_diverging_training_raises(tiny_split, regime):
    cfg = tiny_cfg(epochs=2, phase2_epochs=2, use_local_supervision=True)
    cfg.plan.regime = regime
    cfg.plan.learning_rate = 1e300
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"),
                               with_local_heads=(regime == "local_pretrain"))
    with np.errstate(all="ignore"), pytest.raises(
            ConfigurationError, match=r"^training diverged in epoch 0: \w+ is not finite$"):
        train(model, tiny_split, cfg)
    assert not getattr(model, "trained", False)


def test_diverging_training_raises_without_numpy_warnings():
    cfg = ExperimentConfig(n_samples=120, seed=0, plan=TrainPlan(epochs=4, phase2_epochs=4))
    cfg.plan.learning_rate = 1e300
    data = split(generate_xor_and_xor(cfg.n_samples, cfg.seed, cfg.random_edge_max),
                 cfg.split_ratio, cfg.seed)
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigurationError, match=r"^training diverged in epoch 0: "):
            train(model, data, cfg)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_non_finite_test_logits_stop_training(tiny_split):
    def evaluate():
        return np.array([[0.0, 1.0], [np.inf, 0.0]]), np.array([1, 0])

    with pytest.raises(ConfigurationError, match="epoch 3: the test logits"):
        _fit(_start(tiny_split, tiny_cfg()), Module(), lambda batch: {"task_loss": 0.5},
             2, evaluate, first_epoch=3)


@pytest.mark.parametrize("regime", ["sequential", "local_pretrain"])
def test_sequential_freezes_encoders(tiny_split, regime):
    # encoders (and local heads) end phase 1 identically regardless of how
    # long phase 2 runs
    local = regime == "local_pretrain"
    encoder_params = []
    for phase2 in (1, 10):
        cfg = tiny_cfg(epochs=8, phase2_epochs=phase2, use_local_supervision=local)
        cfg.plan.regime = regime
        model = SharedConceptModel(cfg, substream(cfg.seed, "init"), with_local_heads=local)
        train(model, tiny_split, cfg)
        snap = {}
        for part in [*model.encoders.values(), *model.local_heads.values()]:
            snap.update({k: v.copy() for k, v in part.parameters().items()})
        encoder_params.append(snap)
    a, b = encoder_params
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_sequential_history_spans_both_phases(tiny_split):
    cfg = tiny_cfg(epochs=4, phase2_epochs=6)
    cfg.plan.regime = "sequential"
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"))
    _, history = train(model, tiny_split, cfg)
    assert [h["epoch"] for h in history] == list(range(10))


def test_local_pretrain_requires_supervision_flag(tiny_split):
    cfg = tiny_cfg()
    cfg.plan.regime = "local_pretrain"
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"), with_local_heads=True)
    with pytest.raises(ConfigurationError):
        train(model, tiny_split, cfg)


def test_local_pretrain_requires_heads(tiny_split):
    cfg = tiny_cfg(use_local_supervision=True)
    cfg.plan.regime = "local_pretrain"
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"))
    with pytest.raises(ConfigurationError):
        train(model, tiny_split, cfg)


def test_local_pretrain_runs_and_freezes(tiny_split):
    cfg = tiny_cfg(epochs=4, phase2_epochs=4, use_local_supervision=True)
    cfg.plan.regime = "local_pretrain"
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"), with_local_heads=True)
    _, history = train(model, tiny_split, cfg)
    assert len(history) == 12      # 4 per modality + 4 shared
    assert model.trained


def test_beta_without_heads_rejected_at_train(tiny_split):
    cfg = tiny_cfg()
    cfg.loss.betas = (0.5, 0.5)
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"))
    with pytest.raises(ConfigurationError):
        train(model, tiny_split, cfg)


def test_end_to_end_with_local_losses(tiny_split):
    cfg = tiny_cfg(epochs=3, use_local_supervision=True)
    cfg.loss.betas = (0.3, 0.3)
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"), with_local_heads=True)
    _, history = train(model, tiny_split, cfg)
    assert history[-1]["local_loss_graph"] > 0
    assert history[-1]["local_loss_tabular"] > 0


def test_history_csv(tmp_path, tiny_split):
    cfg = tiny_cfg(epochs=3)
    model = SharedConceptModel(cfg, substream(cfg.seed, "init"))
    _, history = train(model, tiny_split, cfg)
    path = tmp_path / "history.csv"
    save_history(history, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert len(lines) == 4
