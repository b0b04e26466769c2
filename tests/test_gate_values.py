"""tools/gate_values.py: its runs are the gate's, its nudges move one weight
by one ulp, and the gate's own criterion tests judge stored values."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from conceptspace.baselines import build_baseline
from conceptspace.config import ExperimentConfig
from conceptspace.model import SharedConceptModel
from conceptspace.rng import substream

import test_acceptance

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("gate_values", ROOT / "tools" / "gate_values.py")
gate_values = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate_values)


@pytest.mark.parametrize("kind, weight", [("shared", "enc.graph.conv1.W"),
                                          ("cbm_tabular", "enc.tabular.lin1.W")])
def test_a_nudge_moves_one_element_by_one_ulp(kind, weight):
    cfg = ExperimentConfig(seed=0)
    make = ((lambda: SharedConceptModel(cfg, substream(0, "init"))) if kind == "shared"
            else (lambda: build_baseline(kind, cfg)))
    plain = make().parameters()
    for j in (1, 2, 3):
        model = make()
        gate_values.nudge(model, j)
        for name, value in model.parameters().items():
            moved = np.flatnonzero(value.reshape(-1) != plain[name].reshape(-1))
            if name != weight:
                assert moved.size == 0, name
                continue
            assert moved.tolist() == [7 * j]
            assert value.reshape(-1)[7 * j] == np.nextafter(plain[name].reshape(-1)[7 * j],
                                                            np.inf)


def test_a_plain_run_is_the_gates_run():
    got = gate_values.run_job("mod_tabular", 1, 0)
    want = test_acceptance.Grid().run("mod_tabular", 1)
    assert got["report"] == want["report"] and got["paired_distance"] is None


def report(acc, compl=None, miss=(None, None), retr=None):
    missing = {m: v for m, v in zip(("graph", "tabular"), miss) if v is not None}
    return {"accuracy": acc, "completeness": compl, "missing_modality": missing,
            "retrieval_label_match_mean": retr}


PASSING = {
    "shared": report(0.99, 1.0, (1.0, 0.99), 0.97),
    "shared_lam0": report(0.99, 1.0, (1.0, 0.99), 0.97),
    **{k: report(0.76) for k in ("mod_graph", "mod_tabular", "cbm_graph", "cbm_tabular")},
    "simple": report(0.98),
    "concept": report(0.98, 0.97, (0.7, 0.8), 0.6),
    "relative": report(0.99, None, (0.8, 0.8), 0.7),
}


def runs(nudges=1, **changed):
    """Passing runs at nudges 0..nudges; changed[kind] = (j, report) replaces one."""
    out = {}
    for kind in gate_values.KINDS:
        for seed in test_acceptance.SEEDS:
            for j in range(nudges + 1):
                distance = {"shared": 0.5, "shared_lam0": 0.9}.get(kind)
                out[gate_values.key(kind, seed, j)] = {
                    "report": PASSING[kind], "seconds": 8.0, "paired_distance": distance}
    for kind, (j, rep) in changed.items():
        for seed in test_acceptance.SEEDS:
            out[gate_values.key(kind, seed, j)]["report"] = rep
    return out


def test_the_gates_own_tests_judge_the_stored_values():
    lines_before = list(test_acceptance.record_criterion.__globals__["_ACCEPTANCE_LINES"])
    judged = gate_values.judge(runs(), 0, 0)
    assert [name for name, _, _ in judged] == list(gate_values.CRITERIA)
    assert all(passed for _, passed, _ in judged)
    lines = [line for _, _, recorded in judged for line in recorded]
    assert lines[0] == ("[PASS] criterion 1: task accuracy (mean >= 0.97, each seed >= 0.95, "
                        "<= 10 min/seed) - mean 0.9900, min 0.9900, slowest 8s")
    assert [line.split(":")[0] for line in lines] == [
        f"[PASS] criterion {c}" for c in ("1", "2", "3", "4", "5d", "6")]
    assert "0.500<0.900" in lines[4]
    # the pytest run's own criterion lines are left as they were
    assert test_acceptance.record_criterion.__globals__["_ACCEPTANCE_LINES"] == lines_before


def test_each_pairing_of_nudges_is_judged():
    # concept's completeness ties the shared model's at nudge 1: criterion 2 fails
    # wherever the baselines take nudge 1
    tie = report(0.98, 1.0, (0.7, 0.8), 0.6)
    verdicts = gate_values.verdicts(runs(concept=(1, tie)), 1)
    assert verdicts["test_criterion_2_completeness"] == {
        "0,0": True, "0,1": False, "1,0": True, "1,1": False}
    assert all(all(v.values()) for name, v in verdicts.items()
               if name != "test_criterion_2_completeness")


def test_compare_names_each_moved_value_and_the_nudge_range(tmp_path, capsys):
    a = {"nudges": 1, "runs": runs(shared=(1, report(0.985, 1.0, (1.0, 0.99), 0.97)))}
    a["verdicts"] = gate_values.verdicts(a["runs"], 1)
    b = {"nudges": 0, "runs": runs(0, shared=(0, report(0.98, 1.0, (1.0, 0.99), 0.97)))}
    b["verdicts"] = gate_values.verdicts(b["runs"], 0)
    paths = []
    for name, result in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(result))
    assert gate_values.main(["--compare", *map(str, paths)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == [f"shared seed {s} accuracy: A 0.9900 [nudges 0.9850, 0.9900] -> "
                       f"B 0.9800 (-2 samples), OUTSIDE A's range" for s in range(5)]
    # per seed: 6 values of each shared kind, 1 of each of 5 accuracy-only
    # baselines, 5 of concept's and 4 of relative's; shared accuracy moved
    assert out[5] == f"{5 * (6 + 6 + 5 + 5 + 4) - 5} values equal"
    assert out[6:] == [f"{name}: passes A 4/4, B 1/1 pairings"
                       for name in gate_values.CRITERIA]
