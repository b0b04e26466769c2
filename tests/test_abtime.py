"""tools/abtime.py: its sign test, and one short A/A run in subprocesses."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "abtime.py"

spec = importlib.util.spec_from_file_location("abtime", SCRIPT)
abtime = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abtime)


@pytest.mark.parametrize("slower, n, p", [
    (0, 1, 1.0), (1, 1, 1.0), (5, 10, 1.0), (0, 10, 2 / 1024), (10, 10, 2 / 1024),
    (2, 10, 2 * 56 / 1024), (8, 10, 2 * 56 / 1024), (0, 0, 1.0)])
def test_sign_test_is_the_two_sided_binomial_tail(slower, n, p):
    assert abtime.sign_test_p(slower, n) == pytest.approx(p)


def test_the_done_when_counts_of_60_pairs():
    assert abtime.sign_test_p(41, 60) < 0.01 < abtime.sign_test_p(40, 60)


def _check_a_run_of_one_tree_against_itself(unit):
    out = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT),
                          "--unit", unit, "--pairs", "2"],
                         capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == f"unit {unit}, 2 pairs after 5 warm-up units per tree, one BLAS thread"
    assert re.fullmatch(r"A .+: median [\d.]+ ms \[[\d.]+, [\d.]+\]", lines[1])
    assert re.fullmatch(r"B/A ratio: median [\d.]+ \[IQR [\d.]+, [\d.]+\]; "
                        r"B slower in [012] of 2 pairs; sign test p = [\d.e-]+", lines[3])


def test_a_run_of_one_tree_against_itself_prints_its_summary():
    _check_a_run_of_one_tree_against_itself("serve_op")


def test_a_serve_query_run_of_one_tree_against_itself_prints_its_summary():
    _check_a_run_of_one_tree_against_itself("serve_query")


@pytest.mark.parametrize("unit", ["setup", "load", "pack"])
def test_a_data_unit_run_of_one_tree_against_itself_prints_its_summary(unit):
    _check_a_run_of_one_tree_against_itself(unit)


def test_setup_unit_generates_and_splits_the_default_dataset(monkeypatch):
    """The setup unit is the benchmark's set-up: generate and split the
    default dataset of --seed."""
    import conceptspace as cs

    calls = []
    monkeypatch.setattr(cs, "split", lambda *args: calls.append(args))
    run = abtime.UNITS["setup"](cs, 3)
    assert run() > 0 and run() > 0 and len(calls) == 2
    samples, ratio, seed = calls[0]
    cfg = cs.ExperimentConfig(seed=3)
    assert (ratio, seed) == (cfg.split_ratio, 3)
    assert samples == cs.generate_xor_and_xor(cfg.n_samples, 3, cfg.random_edge_max)


def test_load_unit_loads_the_default_dataset_saved_at_setup(monkeypatch):
    import conceptspace as cs

    loaded = []
    honest = cs.load_dataset
    monkeypatch.setattr(cs, "load_dataset", lambda path: loaded.append(honest(path)))
    run = abtime.UNITS["load"](cs, 3)
    assert run() > 0 and run() > 0 and len(loaded) == 2
    samples, header = loaded[0]
    cfg = cs.ExperimentConfig(seed=3)
    assert header == cs.data.dataset_header(1000, 3, cfg.random_edge_max, cfg.bijection)
    assert samples == cs.generate_xor_and_xor(1000, 3, cfg.random_edge_max)


def test_pack_unit_packs_the_default_split_as_training_does(monkeypatch):
    """The pack unit is train()'s packing: the training samples with their
    aux rows under the config's bijection, then the test samples without."""
    import conceptspace as cs

    calls = []

    def recording(samples, *args, **kw):
        calls.append((samples, args, kw))

    monkeypatch.setattr(cs.data, "as_arrays", recording)
    monkeypatch.setattr(cs.training, "as_arrays", recording)
    run = abtime.UNITS["pack"](cs, 3)
    assert run() > 0 and len(calls) == 2
    cfg = cs.ExperimentConfig(seed=3)
    ds = cs.split(cs.generate_xor_and_xor(cfg.n_samples, 3, cfg.random_edge_max),
                  cfg.split_ratio, 3)
    assert calls == [(ds.train, (cfg.bijection,), {}), (ds.test, (), {"with_aux": False})]
    cs.training._start(ds, cfg)
    assert calls[2:] == calls[:2]


@pytest.mark.parametrize("unit, epochs", [("train", 30), ("train_epoch", 1)])
def test_train_units_run_the_benchmarks_fit_operation(unit, epochs, monkeypatch):
    """A train unit times train() of a fresh default shared model, initialised
    as the benchmark's fit initialises it, on the default dataset of --seed."""
    import conceptspace as cs
    from conceptspace.rng import substream

    calls = []
    monkeypatch.setattr(cs, "train", lambda model, ds, cfg: calls.append((model, ds, cfg)))
    run = abtime.UNITS[unit](cs, 3)
    assert run() > 0 and len(calls) == 1
    model, ds, cfg = calls[0]
    assert cfg == cs.ExperimentConfig(seed=3, plan=cs.TrainPlan(epochs=epochs))
    assert (len(ds.train), len(ds.test)) == (800, 200)
    fresh = cs.SharedConceptModel(cfg, substream(3, "init")).parameters()
    assert all(v.tobytes() == fresh[k].tobytes() for k, v in model.parameters().items())
