"""Analytic gradients vs central finite differences on a 4-sample micro-batch.

The loss surface is made smooth and repeatable for differencing: categorical
node assignments run in soft mode (tempered softmax, no sampling) and the
distance term uses a fixed index set. Gradients are compared per parameter
group via relative L2 error.
"""

import numpy as np
import pytest

from conceptspace.baselines import build_baseline
from conceptspace.config import ExperimentConfig
from conceptspace.data import generate_xor_and_xor, whole_batch
from conceptspace.model import SharedConceptModel
from conceptspace.rng import substream
from conceptspace.training import _bce_with_logits, _total_loss_with_grads, task_loss

STEP = 1e-5
TOLERANCE = 1e-4


def group_relative_errors(model, batch, loss_cfg, sample_idx):
    def loss_value():
        result = model.forward(batch, "train", gumbel_mode="soft", with_aux=True)
        breakdown, *_ = _total_loss_with_grads(result, batch, loss_cfg, sample_idx)
        return breakdown.total

    model.zero_grad()
    result = model.forward(batch, "train", gumbel_mode="soft", with_aux=True)
    _, d_logits, d_shared, d_local = _total_loss_with_grads(
        result, batch, loss_cfg, sample_idx)
    model.backward(d_logits, d_shared, d_local)
    analytic = {k: v.copy() for k, v in model.grads().items()}

    errors = {}
    for group_name, group in model.param_groups().items():
        got, want = [], []
        for name, arr in group.items():
            flat = arr.ravel()
            fd = np.zeros(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + STEP
                up = loss_value()
                flat[i] = orig - STEP
                down = loss_value()
                flat[i] = orig
                fd[i] = (up - down) / (2 * STEP)
            got.append(analytic[name].ravel())
            want.append(fd)
        got = np.concatenate(got)
        want = np.concatenate(want)
        errors[group_name] = float(np.linalg.norm(got - want)
                                   / (np.linalg.norm(want) + 1e-12))
    return errors


@pytest.fixture(scope="module")
def micro_batch():
    return whole_batch(generate_xor_and_xor(4, seed=7, random_edge_max=2))


def test_gradients_default_objective(micro_batch):
    cfg = ExperimentConfig(seed=0)
    model = SharedConceptModel(cfg, substream(3, "init"))
    errors = group_relative_errors(model, micro_batch, cfg.loss, np.arange(4))
    assert set(errors) == {"encoder.graph", "encoder.tabular", "projector.graph",
                           "projector.tabular", "predictor"}
    for group, err in errors.items():
        assert err < TOLERANCE, f"{group}: {err}"


def test_gradients_with_local_losses(micro_batch):
    cfg = ExperimentConfig(seed=0)
    cfg.loss.betas = (0.5, 0.7)
    model = SharedConceptModel(cfg, substream(4, "init"), with_local_heads=True)
    errors = group_relative_errors(model, micro_batch, cfg.loss, np.arange(4))
    for group, err in errors.items():
        assert err < TOLERANCE, f"{group}: {err}"
    assert "local_head.graph" in errors


@pytest.mark.parametrize("kind", ["mod_graph", "mod_tabular", "cbm_tabular", "simple"])
def test_gradients_concat_head_baselines(kind, micro_batch):
    """Baselines whose train-mode forward draws no sample: their backward
    against central differences of the task loss, per layer."""
    model = build_baseline(kind, ExperimentConfig(seed=0), substream(5, "init"))

    def loss_value():
        return task_loss(model.forward(micro_batch, "train"), micro_batch.y_onehot)

    model.zero_grad()
    _, d_logits = _bce_with_logits(model.forward(micro_batch, "train"),
                                   micro_batch.y_onehot)
    model.backward(d_logits)
    analytic = {k: v.copy() for k, v in model.grads().items()}
    layers = {}
    for name, arr in model.parameters().items():
        flat = arr.ravel()
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            up = loss_value()
            flat[i] = orig - STEP
            down = loss_value()
            flat[i] = orig
            fd[i] = (up - down) / (2 * STEP)
        got, want = layers.setdefault(name.rsplit(".", 1)[0], ([], []))
        got.append(analytic[name].ravel())
        want.append(fd)
    assert {layer.split(".")[0] for layer in layers} == {"enc", "head"}
    for layer, (got, want) in layers.items():
        got, want = np.concatenate(got), np.concatenate(want)
        err = np.linalg.norm(got - want) / (np.linalg.norm(want) + 1e-12)
        assert err < TOLERANCE, f"{kind} {layer}: {err}"
