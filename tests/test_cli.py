import csv
import json

import numpy as np
import pytest

from conceptspace.baselines import build_baseline
from conceptspace.cli import main
from conceptspace.config import ExperimentConfig, TrainPlan, load_config
from conceptspace.data import load_dataset
from conceptspace.model import SharedConceptModel, save_model
from conceptspace.rng import substream


def micro_config(tmp_path, **kw):
    """A config small enough for command tests to run in seconds."""
    kw.setdefault("n_samples", 120)
    cfg = ExperimentConfig(seed=0, plan=TrainPlan(epochs=4, phase2_epochs=4), **kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared dataset + one trained 'shared' checkpoint for command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = micro_config(root)
    data_path = str(root / "dataset.json")
    assert main(["--config", cfg_path, "--out", data_path, "generate"]) == 0
    out_dir = str(root / "run")
    assert main(["--config", cfg_path, "--out", out_dir, "train",
                 "--dataset", data_path, "--model", "shared"]) == 0
    ckpt = f"{out_dir}/shared_seed0.ckpt"
    return {"root": root, "config": cfg_path, "dataset": data_path,
            "out": out_dir, "ckpt": ckpt}


# -- generate ----------------------------------------------------------------------

def test_generate_writes_dataset(workdir, capsys):
    samples, header = load_dataset(workdir["dataset"])
    assert len(samples) == 120
    assert header["seed"] == 0


def test_generate_rerun_is_byte_identical(workdir, tmp_path):
    again = tmp_path / "again.json"
    assert main(["--config", workdir["config"], "--out", str(again),
                 "generate"]) == 0
    assert again.read_bytes() == open(workdir["dataset"], "rb").read()


def test_generate_unwritable_path_exits_2(workdir):
    assert main(["--config", workdir["config"],
                 "--out", "/nonexistent-dir/x.json", "generate"]) == 2


def test_default_config_generates_1000(tmp_path):
    out = tmp_path / "full.json"
    assert main(["--out", str(out), "generate"]) == 0
    samples, header = load_dataset(str(out))
    assert len(samples) == 1000
    assert header["n_samples"] == 1000


# -- train -------------------------------------------------------------------------

def test_train_writes_checkpoint_and_history(workdir):
    history = f"{workdir['out']}/shared_seed0_history.csv"
    with open(history) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert open(workdir["ckpt"], "rb").read()[:2]   # nonempty


def test_train_same_seed_identical_checkpoint(workdir, tmp_path):
    out2 = tmp_path / "run2"
    assert main(["--config", workdir["config"], "--out", str(out2), "train",
                 "--dataset", workdir["dataset"], "--model", "shared"]) == 0
    a = open(workdir["ckpt"], "rb").read()
    b = open(f"{out2}/shared_seed0.ckpt", "rb").read()
    assert a == b


def test_train_local_pretrain_without_supervision_exits_3(workdir, tmp_path):
    assert main(["--config", workdir["config"], "--out", str(tmp_path), "train",
                 "--dataset", workdir["dataset"], "--model", "shared",
                 "--regime", "local_pretrain"]) == 3


def test_train_local_pretrain_with_flag_succeeds(workdir, tmp_path):
    assert main(["--config", workdir["config"], "--out", str(tmp_path), "train",
                 "--dataset", workdir["dataset"], "--model", "shared",
                 "--regime", "local_pretrain", "--local-supervision"]) == 0


@pytest.mark.parametrize("regime, flags, named", [
    ("sequential", ["--local-supervision"], "plan.regime end_to_end"),
    ("end_to_end", [], "use_local_supervision"),
], ids=["local losses under sequential", "local losses without local supervision"])
def test_train_local_losses_rejected_before_any_epoch(workdir, tmp_path, regime, flags,
                                                      named, capsys):
    doc = json.loads(open(workdir["config"]).read())
    doc["loss"]["betas"] = [0.5, 0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "run"), "train",
                 "--dataset", workdir["dataset"], "--model", "shared",
                 "--regime", regime, *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: loss.betas") and named in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model", ["simple", "relative"])
@pytest.mark.parametrize("flags", [[], ["--local-supervision"]],
                         ids=["without local supervision", "with local supervision"])
def test_baseline_local_losses_rejected_before_any_epoch(workdir, tmp_path, model, flags,
                                                         capsys):
    doc = json.loads(open(workdir["config"]).read())
    doc["loss"]["betas"] = [0.5, 0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "run"), "train",
                 "--dataset", workdir["dataset"], "--model", model, *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: loss.betas") and model in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_train_seed_mismatch_exits_3(workdir, tmp_path):
    assert main(["--config", workdir["config"], "--seed", "9",
                 "--out", str(tmp_path), "train",
                 "--dataset", workdir["dataset"], "--model", "shared"]) == 3


def test_train_baseline_rejects_two_phase_regime(workdir, tmp_path):
    assert main(["--config", workdir["config"], "--out", str(tmp_path), "train",
                 "--dataset", workdir["dataset"], "--model", "simple",
                 "--regime", "sequential"]) == 3


def test_train_baseline_kind(workdir, tmp_path):
    assert main(["--config", workdir["config"], "--out", str(tmp_path), "train",
                 "--dataset", workdir["dataset"], "--model", "concept"]) == 0
    assert (tmp_path / "concept_seed0.ckpt").exists()


def test_train_and_eval_relative(workdir, tmp_path):
    assert main(["--config", workdir["config"], "--out", str(tmp_path), "train",
                 "--dataset", workdir["dataset"], "--model", "relative"]) == 0
    assert main(["--out", str(tmp_path), "eval", "--checkpoint",
                 str(tmp_path / "relative_seed0.ckpt"),
                 "--dataset", workdir["dataset"]]) == 0


def test_diverging_training_exits_3(workdir, tmp_path, capsys):
    doc = json.loads(open(workdir["config"]).read())
    doc["plan"]["learning_rate"] = 1e300
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        assert main(["--config", str(path), "--out", str(tmp_path / "run"), "train",
                     "--dataset", workdir["dataset"], "--model", "shared"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged in epoch 0:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


# -- eval --------------------------------------------------------------------------

def test_eval_writes_report_and_ledger(workdir, tmp_path):
    out = tmp_path / "eval"
    assert main(["--out", str(out), "eval", "--checkpoint", workdir["ckpt"],
                 "--dataset", workdir["dataset"]]) == 0
    report = json.loads((out / "shared_seed0_report.json").read_text())
    assert {"accuracy", "completeness", "missing_modality",
            "retrieval_label_match"} <= set(report)
    with open(out / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "model" and rows[1][0] == "shared"


def test_eval_repeat_appends_identical_row(workdir, tmp_path):
    out = tmp_path / "eval"
    for _ in range(2):
        assert main(["--out", str(out), "eval", "--checkpoint", workdir["ckpt"],
                     "--dataset", workdir["dataset"]]) == 0
    with open(out / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3 and rows[1] == rows[2]


def test_eval_mismatched_dataset_exits_4(workdir, tmp_path):
    other = tmp_path / "other.json"
    assert main(["--config", workdir["config"], "--seed", "5",
                 "--out", str(other), "generate"]) == 0
    assert main(["--out", str(tmp_path), "eval", "--checkpoint", workdir["ckpt"],
                 "--dataset", str(other)]) == 4


@pytest.mark.parametrize("kind, command", [
    ("shared", ["eval"]), ("shared", ["explain", "embedding"]), ("simple", ["eval"]),
], ids=["shared eval", "shared explain embedding", "simple eval"])
def test_untrained_checkpoint_exits_4(workdir, tmp_path, kind, command, capsys):
    cfg = load_config(workdir["config"])
    model = (SharedConceptModel(cfg, substream(cfg.seed, "init")) if kind == "shared"
             else build_baseline(kind, cfg))
    ckpt = tmp_path / f"{kind}.ckpt"
    save_model(model, str(ckpt))
    assert main(["--out", str(tmp_path / "out"), *command, "--checkpoint", str(ckpt),
                 "--dataset", workdir["dataset"]]) == 4
    assert capsys.readouterr().err == (
        f"error: checkpoint {ckpt} holds an untrained {kind} model\n")
    assert not (tmp_path / "out").exists()


def test_eval_metric_subset(workdir, tmp_path):
    out = tmp_path / "eval"
    assert main(["--out", str(out), "eval", "--checkpoint", workdir["ckpt"],
                 "--dataset", workdir["dataset"],
                 "--metrics", "accuracy"]) == 0
    report = json.loads((out / "shared_seed0_report.json").read_text())
    assert report["accuracy"] is not None
    assert report["completeness"] is None


# -- explain -----------------------------------------------------------------------

def test_explain_prototype_all_zeros_code_never_crashes(workdir, tmp_path):
    code = "0" * 16
    rc = main(["--out", str(tmp_path), "explain", "prototype",
               "--checkpoint", workdir["ckpt"], "--dataset", workdir["dataset"],
               "--code", code])
    assert rc in (0, 5)


def test_explain_prototype_absent_code_exits_5(workdir, tmp_path, capsys):
    # a code that cannot occur: alternating bits over 16 dims is possible in
    # principle, so probe until one is absent; the command must exit 5 then
    from conceptspace.explain import build_index
    from conceptspace.model import load_model
    from conceptspace.data import load_dataset as ld
    from conceptspace.data import split as sp

    model = load_model(workdir["ckpt"])
    samples, _ = ld(workdir["dataset"])
    index = build_index(model, sp(samples, model.config.split_ratio,
                                  model.config.seed).train)
    seen = {tuple(c) for c in index.codes}
    absent = None
    rng = np.random.default_rng(0)
    while absent is None:
        cand = tuple(rng.integers(0, 2, size=16))
        if cand not in seen:
            absent = cand
    code = "".join(str(b) for b in absent)
    rc = main(["--out", str(tmp_path), "explain", "prototype",
               "--checkpoint", workdir["ckpt"], "--dataset", workdir["dataset"],
               "--code", code])
    assert rc == 5
    assert code in capsys.readouterr().err


def test_explain_prototype_of_a_held_code(workdir, tmp_path, capsys):
    from conceptspace.explain import build_index, prototype
    from conceptspace.model import load_model
    from conceptspace.data import split as sp

    model = load_model(workdir["ckpt"])
    samples, _ = load_dataset(workdir["dataset"])
    index = build_index(model, sp(samples, model.config.split_ratio,
                                  model.config.seed).train)
    held = index.codes[len(index) // 2]
    code = "".join(str(b) for b in held.tolist())
    assert main(["--out", str(tmp_path), "explain", "prototype",
                 "--checkpoint", workdir["ckpt"], "--dataset", workdir["dataset"],
                 "--code", code]) == 0
    doc = json.loads((tmp_path / f"prototype_{code}.json").read_text())
    assert doc == {"kind": "prototype", "code": code,
                   "sample_id": prototype(index, held)}


@pytest.mark.parametrize("query", [
    ["embedding"],
    ["crossmodal", "--sample-id", "3", "--modality", "tabular"],
])
def test_explain_model_without_concept_space_exits_3(workdir, tmp_path, query, capsys):
    run = tmp_path / "run"
    assert main(["--config", workdir["config"], "--out", str(run), "train",
                 "--dataset", workdir["dataset"], "--model", "simple"]) == 0
    capsys.readouterr()
    out = tmp_path / "explained"
    assert main(["--out", str(out), "explain", *query,
                 "--checkpoint", str(run / "simple_seed0.ckpt"),
                 "--dataset", workdir["dataset"]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "simple" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_explain_prototype_without_concept_codes_exits_3(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["--config", workdir["config"], "--out", str(run), "train",
                 "--dataset", workdir["dataset"], "--model", "relative"]) == 0
    capsys.readouterr()
    out = tmp_path / "explained"
    assert main(["--out", str(out), "explain", "prototype", "--code", "0101",
                 "--checkpoint", str(run / "relative_seed0.ckpt"),
                 "--dataset", workdir["dataset"]]) == 3
    err = capsys.readouterr().err
    assert err == "error: a relative model has no concept codes\n"
    assert not out.exists()


def test_explain_crossmodal_top5(workdir, tmp_path):
    assert main(["--out", str(tmp_path), "explain", "crossmodal",
                 "--checkpoint", workdir["ckpt"], "--dataset", workdir["dataset"],
                 "--sample-id", "3", "--modality", "tabular",
                 "--top-k", "5"]) == 0
    doc = json.loads((tmp_path / "crossmodal_3.json").read_text())
    assert len(doc["results"]) == 5
    dists = [r["distance"] for r in doc["results"]]
    assert dists == sorted(dists)
    assert all(r["modality"] == "graph" for r in doc["results"])


def test_explain_neighborhood(workdir, tmp_path):
    assert main(["--out", str(tmp_path), "explain", "neighborhood",
                 "--checkpoint", workdir["ckpt"], "--dataset", workdir["dataset"],
                 "--sample-id", "7", "--modality", "graph",
                 "--radius", "0.8"]) == 0
    doc = json.loads((tmp_path / "neighborhood_7.json").read_text())
    assert doc["params"]["radius"] == 0.8


def test_explain_substitute_is_stable(workdir, tmp_path):
    ids = []
    for _ in range(2):
        assert main(["--out", str(tmp_path), "explain", "substitute",
                     "--checkpoint", workdir["ckpt"],
                     "--dataset", workdir["dataset"],
                     "--sample-id", "11", "--modality", "tabular"]) == 0
        doc = json.loads((tmp_path / "substitute_11.json").read_text())
        ids.append(doc["results"][0]["id"])
    assert ids[0] == ids[1]


def test_explain_embedding_csv(workdir, tmp_path):
    assert main(["--out", str(tmp_path), "explain", "embedding",
                 "--checkpoint", workdir["ckpt"],
                 "--dataset", workdir["dataset"]]) == 0
    with open(tmp_path / "embedding_pca.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "modality", "pc1", "pc2", "label"]
    assert len(rows) == 1 + 2 * 96      # both modalities of the train split


# -- reproduce ----------------------------------------------------------------------

def test_reproduce_composes_the_other_commands(tmp_path, capsys):
    cfg_path = micro_config(tmp_path, n_samples=80)
    out = tmp_path / "rep"
    # one seed cannot give the completeness line its 4 wins: overall FAIL
    assert main(["--config", cfg_path, "--out", str(out), "reproduce",
                 "--seeds", "0"]) == 6
    printed = capsys.readouterr().out
    assert "shared" in printed and "relative" in printed
    assert "overall: FAIL" in printed
    doc = json.loads((out / "reproduce_results.json").read_text())
    assert doc["seeds"] == [0]
    assert set(doc["reports"]) == {"shared", "mod_graph", "mod_tabular",
                                   "cbm_graph", "cbm_tabular", "simple",
                                   "concept", "relative"}

    # pure composition: the same numbers come out of the manual pipeline
    from conceptspace.cli import _reproduce_job
    from conceptspace.config import load_config
    cfg = load_config(cfg_path)
    again = _reproduce_job(cfg.to_dict(), "shared", 0)
    assert doc["reports"]["shared"][0] == again


def test_reproduce_parallel_workers_match_serial(tmp_path, capsys):
    cfg_path = micro_config(tmp_path, n_samples=60, anchor_count=20)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["--config", cfg_path, "--out", str(serial), "reproduce",
                 "--seeds", "0,1"]) == 6
    assert "overall: FAIL" in capsys.readouterr().out
    assert main(["--config", cfg_path, "--out", str(parallel), "--workers", "2",
                 "reproduce", "--seeds", "0,1"]) == 6
    assert "overall: FAIL" in capsys.readouterr().out
    a = json.loads((serial / "reproduce_results.json").read_text())
    b = json.loads((parallel / "reproduce_results.json").read_text())
    assert a == b


def _report(acc, compl=None, miss=(None, None), retr=None):
    """One evaluation report as reproduce reads it."""
    return {"accuracy": acc, "completeness": compl,
            "missing_modality": {"graph": miss[0], "tabular": miss[1]},
            "retrieval_label_match_mean": retr}


def test_reproduce_exit_code_follows_the_verdict(tmp_path, monkeypatch, capsys):
    def passing_job(cfg_dict, kind, seed):
        if kind == "shared":
            return _report(0.99, 0.99, (0.99, 0.99), 0.99)
        if kind == "concept":
            return _report(0.98, 0.95, (0.9, 0.8), 0.8)
        if kind == "relative":
            return _report(0.98, miss=(0.8, None))
        return _report(0.98 if kind == "simple" else 0.75)

    def failing_job(cfg_dict, kind, seed):
        # the concept baseline wins completeness in two of five seeds
        if kind == "concept" and seed < 2:
            return _report(0.98, 1.0, (0.9, 0.8), 0.8)
        return passing_job(cfg_dict, kind, seed)

    for job, code, verdict in ((passing_job, 0, "PASS"), (failing_job, 6, "FAIL")):
        monkeypatch.setattr("conceptspace.cli._reproduce_job", job)
        out = tmp_path / verdict
        assert main(["--out", str(out), "reproduce", "--seeds", "0,1,2,3,4"]) == code
        printed = capsys.readouterr().out
        assert f"overall: {verdict}" in printed
        assert json.loads((out / "reproduce_results.json").read_text())["seeds"] == [
            0, 1, 2, 3, 4]


def _one_seed_reports(shared, capped_acc, floored_acc, relative_miss_graph):
    """reproduce's by-kind reports for one seed: the concept baseline ties the
    shared model, the four kinds capped at 0.80 share `capped_acc`, and
    simple and relative share `floored_acc`."""
    def report(*args, **kw):
        return [_report(*args, **kw)]
    acc, compl, miss_graph, miss_tab, retr = shared
    both = report(acc, compl, (miss_graph, miss_tab), retr)
    return {"shared": both, "concept": both,
            **{kind: report(capped_acc)
               for kind in ("mod_graph", "mod_tabular", "cbm_graph", "cbm_tabular")},
            "simple": report(floored_acc),
            "relative": report(floored_acc, miss=(relative_miss_graph, None))}


_MEAN_LINES = ("shared mean acc", "shared mean compl", "shared mean miss_graph",
               "shared mean miss_tab", "shared mean retr", "mod_graph mean acc",
               "mod_tabular mean acc", "cbm_graph mean acc", "cbm_tabular mean acc",
               "simple mean acc", "concept mean acc", "relative mean acc",
               "relative mean miss_graph")
_SEED_LINES = [("shared per-seed acc >= 0.95", True, "min 0.9700"),
               ("shared compl beats concept in >=4/5 seeds", False, "0/1"),
               ("shared beats concept on missing modality every seed", False, ""),
               ("shared retrieval match beats concept every seed", False, "")]


@pytest.mark.parametrize("relative_miss_graph", [0.65, 0.92])
def test_reproduce_means_on_a_bound_pass(relative_miss_graph):
    from conceptspace.cli import _acceptance_lines
    by_kind = _one_seed_reports((0.97, 0.93, 0.95, 0.88, 0.90), 0.80, 0.97,
                                relative_miss_graph)
    details = ("0.9700", "0.9300", "0.9500", "0.8800", "0.9000", "0.8000",
               "0.8000", "0.8000", "0.8000", "0.9700", "0.9700", "0.9700",
               f"{relative_miss_graph:.4f}")
    assert _acceptance_lines(by_kind) == [
        *((name, True, detail) for name, detail in zip(_MEAN_LINES, details)),
        *_SEED_LINES]


@pytest.mark.parametrize("relative_miss_graph", [0.65, 0.92])
def test_reproduce_means_one_ulp_outside_a_bound_fail(relative_miss_graph):
    from conceptspace.cli import _acceptance_lines
    below = lambda v: float(np.nextafter(v, 0.0))
    above = lambda v: float(np.nextafter(v, 1.0))
    outside = below if relative_miss_graph < 0.8 else above
    by_kind = _one_seed_reports([below(v) for v in (0.97, 0.93, 0.95, 0.88, 0.90)],
                                above(0.80), below(0.97), outside(relative_miss_graph))
    lines = _acceptance_lines(by_kind)
    assert [(name, ok) for name, ok, _ in lines[:len(_MEAN_LINES)]] == [
        (name, False) for name in _MEAN_LINES]
    assert lines[len(_MEAN_LINES):] == _SEED_LINES


def test_usage_errors_exit_1():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["train", "--model", "nonsense"]) == 1


@pytest.mark.parametrize("query", [
    ["prototype"],
    ["neighborhood", "--sample-id", "3", "--modality", "graph"],
    ["crossmodal", "--modality", "graph"],
    ["substitute", "--sample-id", "3"],
])
def test_explain_query_without_its_options_is_a_usage_error(workdir, query, capsys):
    assert main(["explain", *query, "--checkpoint", workdir["ckpt"],
                 "--dataset", workdir["dataset"]]) == 1
    assert "requires --" in capsys.readouterr().err


def test_truncated_checkpoint_exits_4(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    raw = open(workdir["ckpt"], "rb").read()
    bad.write_bytes(raw[:len(raw) - 8])
    assert main(["--out", str(tmp_path), "eval", "--checkpoint", str(bad),
                 "--dataset", workdir["dataset"]]) == 4
    assert "payload" in capsys.readouterr().err


def test_help_exits_0():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("args", [
    ["explain", "prototype", "--code", "1x"],
    ["explain", "crossmodal", "--sample-id", "3", "--modality", "graph", "--top-k", "-2"],
    ["explain", "crossmodal", "--sample-id", "3", "--modality", "graph", "--top-k", "0"],
    ["explain", "neighborhood", "--sample-id", "3", "--modality", "graph",
     "--radius", "-0.5"],
    ["eval", "--metrics", "bogus"],
    ["eval", "--metrics", "accuracy,bogus"],
], ids=["code not binary", "negative top-k", "zero top-k", "negative radius",
        "unknown metric", "one unknown metric"])
def test_bad_option_value_is_a_usage_error(workdir, tmp_path, args, capsys):
    assert main(["--out", str(tmp_path), *args, "--checkpoint", workdir["ckpt"],
                 "--dataset", workdir["dataset"]]) == 1
    assert "error: argument --" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bad_seed_list_is_a_usage_error(tmp_path, capsys):
    for seeds in ("0,x", "0,0"):
        assert main(["--out", str(tmp_path), "reproduce", "--seeds", seeds]) == 1
        assert f"'{seeds}'" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_nonpositive_workers_is_a_usage_error(tmp_path, workers, capsys):
    out = tmp_path / "out"
    assert main(["--config", micro_config(tmp_path), "--workers", workers,
                 "--out", str(out), "reproduce", "--seeds", "0"]) == 1
    assert f"argument --workers: '{workers}' is not a positive integer" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_prototype_code_of_wrong_width_exits_5(workdir, tmp_path, capsys):
    assert main(["--out", str(tmp_path), "explain", "prototype", "--code", "101",
                 "--checkpoint", workdir["ckpt"], "--dataset", workdir["dataset"]]) == 5
    assert "16" in capsys.readouterr().err


@pytest.mark.parametrize("edit, named", [
    (lambda d: d.update(n_samples=-5), "n_samples"),
    (lambda d: d["plan"].update(regime="backwards"), "regime"),
    (lambda d: d.update(colour="red"), "colour"),
    (lambda d: d.update(plan=[1, 2]), "TrainPlan"),
    (lambda d: d["loss"].update(lam=-0.1), "lam"),
    (lambda d: d["loss"].update(betas=[0.0, -1.0]), "betas"),
    (lambda d: d["loss"].update(sample_fraction=0.0), "sample_fraction"),
    (lambda d: d["loss"].update(distance_filter="negative"), "distance_filter"),
    (lambda d: d["plan"].update(phase2_epochs=0), "epoch"),
    (lambda d: d["plan"].update(learning_rate=0.0), "learning_rate"),
    (lambda d: d["plan"].update(batch_size=1), "batch_size"),
    (lambda d: d.update(split_ratio=1.0), "split_ratio"),
    (lambda d: d.update(random_edge_max=-1), "random_edge_max"),
    (lambda d: d.update(bijection="mirrored"), "bijection"),
    (lambda d: d.update(shared_width=0), "shared_width"),
    (lambda d: d.update(tau=0.0), "tau"),
    (lambda d: d.update(rescale_momentum=0.0), "rescale_momentum"),
    (lambda d: d.update(rescale_eps=0.0), "rescale_eps"),
    (lambda d: d.update(version=2), "version"),
    (lambda d: d.update(local_width=7.5), "local_width"),
    (lambda d: d["plan"].update(batch_size=8.5), "batch_size"),
    (lambda d: d.update(n_samples=40.5), "n_samples"),
    (lambda d: d["plan"].update(epochs=True), "epochs"),
    (lambda d: d["loss"].update(betas=[0, 0, 1]), "betas"),
    (lambda d: d["plan"].update(learning_rate=float("nan")), "learning_rate"),
    (lambda d: d.update(tau="1.0"), "tau"),
    (lambda d: d["plan"].update(learning_rate=10 ** 400), "learning_rate"),
    (lambda d: d.update(use_local_supervision="no"), "use_local_supervision"),
    (lambda d: d.update(out_dir=5), "out_dir"),
    (lambda d: d.update(out_dir=None), "out_dir"),
], ids=["invalid value", "invalid plan value", "unknown field", "plan not an object",
        "lam", "betas", "sample_fraction", "distance_filter", "epochs",
        "learning_rate", "batch_size", "split_ratio", "random_edge_max",
        "bijection", "width", "tau", "rescale_momentum", "rescale_eps", "version",
        "float width", "float batch_size", "float n_samples", "bool epochs",
        "three betas", "NaN learning_rate", "string tau", "huge learning_rate",
        "string use_local_supervision", "number out_dir", "null out_dir"])
def test_invalid_config_file_exits_3(tmp_path, edit, named, capsys):
    # the base config is valid: 20 anchors fit in its 32 training samples
    doc = ExperimentConfig(n_samples=40, anchor_count=20).to_dict()
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "d.json"),
                 "generate"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and named in err


def test_negative_seed_exits_3(tmp_path, capsys):
    assert main(["--seed", "-1", "--out", str(tmp_path / "d.json"), "generate"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("fields", [
    {"n_classes": 3},
    {"n_classes": 1},
    {"split_ratio": 0.999},
    {"split_ratio": 0.005, "anchor_count": 1},
], ids=["three classes", "one class", "no test sample", "one training sample"])
def test_config_the_program_cannot_run_exits_3(workdir, tmp_path, fields, capsys):
    # otherwise the config of the dataset it trains on
    doc = {**json.loads(open(workdir["config"]).read()), **fields}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--out", str(tmp_path / "run"), "train",
                 "--dataset", workdir["dataset"], "--model", "shared"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_malformed_json_config_exits_2(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"n_samples": 40,')
    assert main(["--config", str(path), "--out", str(tmp_path / "d.json"),
                 "generate"]) == 2


def test_malformed_json_dataset_exits_2(workdir, tmp_path):
    bad = tmp_path / "dataset.json"
    bad.write_text(open(workdir["dataset"]).read()[:100])
    assert main(["--config", workdir["config"], "--out", str(tmp_path), "train",
                 "--dataset", str(bad), "--model", "shared"]) == 2
    assert main(["--out", str(tmp_path), "eval", "--checkpoint", workdir["ckpt"],
                 "--dataset", str(bad)]) == 2


def _record_1(**fields):
    """An edit that replaces fields of the dataset's record 1."""
    def edit(d):
        d["samples"][1].update(fields)
        return d
    return edit


@pytest.mark.parametrize("edit", [
    lambda d: {"version": 1},
    lambda d: {**d, "n_samples": d["n_samples"] - 1},
    lambda d: {**d, "samples": d["samples"][:1] + d["samples"][:1] + d["samples"][2:]},
    _record_1(features=["a"] + [0.0] * 9),
    _record_1(edges=[[3, 8.5]]),
    _record_1(features=[[0.1]] + [0.0] * 9),
    _record_1(edges=[[False, 9]]),
    _record_1(features=[float("nan")] + [0.0] * 9),
    _record_1(features=[True] + [0.0] * 9),
    _record_1(features=[10 ** 400] + [0.0] * 9),
    _record_1(bits=[True, False, True, False, True, False]),
], ids=["version only", "count differs from header", "repeated id",
        "string feature", "float endpoint", "list feature", "bool endpoint",
        "NaN feature", "bool feature", "huge feature", "bool bits"])
def test_damaged_dataset_exits_2(workdir, tmp_path, edit, capsys):
    doc = json.loads(open(workdir["dataset"]).read())
    bad = tmp_path / "dataset.json"
    bad.write_text(json.dumps(edit(doc)))
    assert main(["--config", workdir["config"], "--out", str(tmp_path), "train",
                 "--dataset", str(bad), "--model", "shared"]) == 2
    assert main(["--out", str(tmp_path), "eval", "--checkpoint", workdir["ckpt"],
                 "--dataset", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: dataset") for line in err)


def test_boolean_sample_id_exits_2(workdir, tmp_path, capsys):
    doc = json.loads(open(workdir["dataset"]).read())
    doc["samples"][1]["id"] = True          # a bool is an int in Python
    bad = tmp_path / "dataset.json"
    bad.write_text(json.dumps(doc))
    assert main(["--config", workdir["config"], "--out", str(tmp_path), "train",
                 "--dataset", str(bad), "--model", "shared"]) == 2
    assert capsys.readouterr().err == (
        "error: dataset record 1: id True is not an integer\n")
    assert not list(tmp_path.glob("*.ckpt"))
