import numpy as np
import pytest

from conceptspace.baselines import (
    BASELINE_KINDS,
    build_baseline,
    relative_representation,
    train_baseline,
)
from conceptspace.config import ExperimentConfig, MODALITIES, TrainPlan
from conceptspace.data import generate_xor_and_xor, split, whole_batch
from conceptspace.evaluation import accuracy, missing_modality_eval
from conceptspace.explain import build_index
from conceptspace.model import SharedConceptModel
from conceptspace.rng import substream
from conceptspace.training import train_task_only

rng = np.random.default_rng(0)


@pytest.fixture(scope="module")
def tiny():
    cfg = ExperimentConfig(n_samples=200, seed=3,
                           plan=TrainPlan(epochs=25, phase2_epochs=25))
    samples = generate_xor_and_xor(cfg.n_samples, cfg.seed, cfg.random_edge_max)
    return cfg, split(samples, cfg.split_ratio, cfg.seed)


def test_every_kind_builds(tiny):
    cfg, _ = tiny
    for kind in BASELINE_KINDS:
        model = build_baseline(kind, cfg)
        assert model.kind == kind
        assert not model.trained


@pytest.mark.parametrize("field, value", [("n_classes", 3), ("tau", -1.0), ("local_width", 0),
                                          ("anchor_count", 0)])
@pytest.mark.parametrize("kind", ("shared",) + BASELINE_KINDS)
def test_every_model_rejects_an_invalid_config(kind, field, value):
    cfg = ExperimentConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        if kind == "shared":
            SharedConceptModel(cfg, substream(cfg.seed, "init"))
        else:
            build_baseline(kind, cfg)


def test_unknown_kind_rejected(tiny):
    with pytest.raises(ValueError):
        build_baseline("transformer", tiny[0])


def test_backbone_parity_with_main_model(tiny):
    cfg, _ = tiny
    reference = SharedConceptModel(cfg, substream(cfg.seed, "init"))
    ref_shapes = {
        "graph": {k.split(".", 1)[1]: v.shape
                  for k, v in reference.encoders["graph"].parameters().items()},
        "tabular": {k.split(".", 1)[1]: v.shape
                    for k, v in reference.encoders["tabular"].parameters().items()},
    }
    for kind in BASELINE_KINDS:
        model = build_baseline(kind, cfg)
        for mod, enc in model.encoders.items():
            shapes = {k.split(".", 1)[1]: v.shape for k, v in enc.parameters().items()}
            assert shapes == ref_shapes[mod], kind


# -- relative representation -------------------------------------------------------

def test_relative_representation_matches_direct_formula():
    emb = rng.normal(size=(6, 7))
    anchors = rng.normal(size=(5, 7))
    got = relative_representation(emb, anchors)
    for i in range(6):
        for a in range(5):
            want = emb[i] @ anchors[a] / (np.linalg.norm(emb[i])
                                          * np.linalg.norm(anchors[a]))
            assert got[i, a] == pytest.approx(want, abs=1e-12)


def test_relative_self_anchor_is_one():
    anchors = rng.normal(size=(4, 7))
    got = relative_representation(anchors[2], anchors)
    assert got[2] == pytest.approx(1.0)
    assert np.all((got >= -1 - 1e-12) & (got <= 1 + 1e-12))


def test_relative_orthogonal_is_zero():
    anchors = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = relative_representation(np.array([1.0, 0.0]), anchors)
    assert got[1] == pytest.approx(0.0)


def test_relative_zero_embedding_maps_to_zero():
    anchors = rng.normal(size=(3, 4))
    got = relative_representation(np.zeros(4), anchors)
    assert np.array_equal(got, np.zeros(3))


def test_relative_invariant_to_positive_scaling():
    emb = rng.normal(size=(3, 5))
    anchors = rng.normal(size=(4, 5))
    a = relative_representation(emb, anchors)
    b = relative_representation(emb * 17.3, anchors)
    assert np.allclose(a, b)


# -- training behavior ----------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_relative(tiny):
    cfg, ds = tiny
    model = build_baseline("relative", cfg)
    history = train_baseline(model, ds, cfg)
    return cfg, ds, model, history


def test_relative_anchors_are_paired_train_ids(trained_relative):
    cfg, ds, model, _ = trained_relative
    ids = model.anchor_ids.astype(int)
    train_ids = {s.id for s in ds.train}
    assert len(ids) == cfg.anchor_count
    assert set(ids) <= train_ids
    for m in MODALITIES:
        assert model.anchor_emb[m].shape == (cfg.anchor_count, cfg.local_width)
        assert np.any(model.anchor_emb[m] != 0)


def test_relative_phase_two_freezes_backbones(trained_relative):
    cfg, ds, model, _ = trained_relative
    before = {k: v.copy() for k, v in model.parameters().items()
              if not k.startswith("rel_head.")}
    train_task_only(model, ds, cfg, epochs=3)
    for k, v in model.parameters().items():
        if k in before:
            assert np.array_equal(before[k], v)


def test_relative_learns_the_task(trained_relative):
    _, ds, model, _ = trained_relative
    assert accuracy(model, ds.test) > 0.8


def test_unimodal_models_cap_near_bayes(tiny):
    cfg, ds = tiny
    for kind in ("mod_graph", "mod_tabular"):
        model = build_baseline(kind, cfg)
        train_baseline(model, ds, cfg)
        acc = accuracy(model, ds.test)
        assert 0.5 <= acc <= 0.88     # one modality cannot solve the AND


def test_simple_multimodal_learns(tiny):
    cfg, ds = tiny
    model = build_baseline("simple", cfg)
    train_baseline(model, ds, cfg)
    assert accuracy(model, ds.test) > 0.8   # beats the unimodal ceiling


def test_concept_multimodal_spaces_and_missing_protocol(tiny):
    cfg, ds = tiny
    model = build_baseline("concept", cfg)
    train_baseline(model, ds, cfg)
    index = build_index(model, ds.train)
    assert index.codes.shape[1] == 2 * cfg.local_width
    batch = whole_batch(ds.test)
    spaces = model.index_spaces(batch)
    for m in MODALITIES:
        assert spaces[m].shape == (len(ds.test), cfg.local_width)
        assert np.all((spaces[m] > 0) & (spaces[m] < 1))
    for m in MODALITIES:
        value = missing_modality_eval(model, index, ds.test, m)
        assert 0.0 <= value <= 1.0


def test_concept_predict_requires_all_modalities(tiny):
    cfg, _ = tiny
    model = build_baseline("concept", cfg)
    with pytest.raises(ValueError):
        model.predict({"graph": np.zeros((2, 7))})


def test_baselines_without_spaces_have_no_index_hook(tiny):
    cfg, _ = tiny
    for kind in ("mod_graph", "mod_tabular", "cbm_graph", "cbm_tabular", "simple"):
        model = build_baseline(kind, cfg)
        assert not hasattr(model, "index_spaces")


def test_baseline_training_is_deterministic(tiny):
    cfg, ds = tiny
    finals = []
    for _ in range(2):
        model = build_baseline("concept", cfg)
        history = train_baseline(model, ds, cfg)
        finals.append((history[-1]["task_loss"],
                       {k: v.copy() for k, v in model.parameters().items()}))
    assert finals[0][0] == finals[1][0]
    assert all(np.array_equal(finals[0][1][k], finals[1][1][k])
               for k in finals[0][1])
