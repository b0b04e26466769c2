"""Tests of the benchmark itself: each workload at a tiny size, the metric
lists against BENCHMARK.json, and planted faults that must be reported as
failures rather than as numbers.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from conceptspace import evaluation, explain, nn  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((BENCH / "interactions.json").read_text())
# every query kind shows up in the first round at this seed and size
SIZES = W.Sizes(**{**W.TINY.__dict__, "queries_per_round": 16})


def _execute(workload, trace, tmp_path):
    return W.execute(workload, seed=0, seconds=0, trace=trace, sizes=SIZES,
                     work_dir=tmp_path)


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(W.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(W.PER_LAYER)
    assert sorted(INTERACTIONS["per_layer"]) == sorted(W.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_untraced_run_is_correct_and_reports_every_metric(workload, tmp_path):
    result = _execute(workload, False, tmp_path)
    assert result.correct, result.lines
    assert result.ledger.attempted >= 1 and result.ledger.failed == 0
    assert list(result.metrics) == [name for name, _ in W.END_TO_END]
    for name, (value, unit) in result.metrics.items():
        assert math.isfinite(value) and value > 0, (name, value)
        assert unit == dict(W.END_TO_END)[name]


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_traced_run_covers_the_layers_it_should_move(workload, tmp_path):
    result = _execute(workload, True, tmp_path)
    assert result.correct, result.lines
    assert list(result.metrics) == list(W.PER_LAYER)
    for name, row in INTERACTIONS["per_layer"].items():
        if row["moves"] and row["moves"][0].startswith(workload + ":"):
            assert result.metrics[name][0] > 0, name
    assert (tmp_path / f"trace-{workload}-seed0.json").is_file()


def test_broken_span_is_caught_by_the_nesting_check(tmp_path):
    result = _execute("fit", True, tmp_path)
    assert any("spans closed and inside their parents" in x for x in result.lines)
    spans = json.loads((tmp_path / "trace-fit-seed0.json").read_text())["spans"]
    assert tracing.nesting_problems(spans) == []
    child = next(i for i, s in enumerate(spans) if s[0] == "nn.GraphConv.backward")
    parent_end = spans[spans[child][1]][3]
    end = spans[child][3]
    spans[child][3] = parent_end + 1
    assert "outside its parent" in tracing.nesting_problems(spans)[0]
    spans[child][3] = 0
    assert "not closed" in tracing.nesting_problems(spans)[0]
    spans[child][3] = end
    sibling = next(i for i in range(child + 1, len(spans))
                   if spans[i][1] == spans[child][1])
    spans[sibling][2] = end - 1
    assert "overlaps the sibling" in tracing.nesting_problems(spans)[0]


def test_wrong_graphconv_weight_gradient_fails_fit(tmp_path, monkeypatch):
    honest = nn.GraphConv.backward

    def wrong(self, g):
        before = self.dW.copy()
        out = honest(self, g)
        self.dW += 0.1 * (self.dW - before)
        return out

    monkeypatch.setattr(nn.GraphConv, "backward", wrong)
    result = _execute("fit", False, tmp_path)
    assert not result.correct
    assert any("gradient of enc.graph.conv" in e for e in result.ledger.errors)


def test_flipped_checkpoint_byte_fails_setup(tmp_path, monkeypatch, capsys):
    fixture = tmp_path / "fixture"
    shutil.copytree(W.FIXTURE_DIR, fixture)
    ckpt = fixture / json.loads((fixture / "fixture.json").read_text())["checkpoint"]
    blob = bytearray(ckpt.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    ckpt.write_bytes(bytes(blob))
    monkeypatch.setattr(W, "FIXTURE_DIR", fixture)
    with pytest.raises(W.SetupError):
        _execute("serve", False, tmp_path)

    code = run.main(["--workload", "serve", "--seed", "0", "--seconds", "0"])
    out = capsys.readouterr().out
    assert code != 0
    assert '"metrics"' not in out


def test_tampered_query_result_is_counted_as_failed(tmp_path, monkeypatch):
    honest = explain.cross_modal_retrieve

    def tampered(*args, **kwargs):
        expl = honest(*args, **kwargs)
        i, mod, dist = expl.results[0]
        expl.results[0] = (i + 1, mod, dist)
        return expl

    monkeypatch.setattr(explain, "cross_modal_retrieve", tampered)
    result = _execute("serve", False, tmp_path)
    assert not result.correct
    assert result.ledger.failed >= 1
    assert all("crossmodal" in e for e in result.ledger.errors), result.ledger.errors


def test_serve_report_off_the_fixture_is_counted_as_failed(tmp_path, monkeypatch):
    honest = evaluation.evaluate_model

    def off_by_two_samples(*args, **kwargs):
        report = honest(*args, **kwargs)
        report.missing["tabular"] -= 0.01
        return report

    monkeypatch.setattr(evaluation, "evaluate_model", off_by_two_samples)
    result = _execute("serve", False, tmp_path)
    assert not result.correct
    assert any("missing_modality.tabular" in e for e in result.ledger.errors)


class SteadyReference:
    """Stands in for the reference helper: the machine never changes speed."""

    def bracket(self):
        return 0

    def factor(self, bracket):
        return 1.0


def test_grid_report_that_changes_between_passes_is_counted_as_failed(tmp_path,
                                                                      monkeypatch):
    wl = W.GridWorkload(0, SIZES, tmp_path, tracing.Tracer())
    wl.setup()
    ledger, samples = W.Ledger(), W.Samples(SteadyReference())
    wl.step(ledger, samples)
    assert ledger.failed == 0, ledger.errors
    honest = evaluation.evaluate_model

    def drifting(*args, **kwargs):
        report = honest(*args, **kwargs)
        report.accuracy -= 0.005
        return report

    monkeypatch.setattr(evaluation, "evaluate_model", drifting)
    wl.step(ledger, samples)
    assert ledger.failed == len(W.GRID_JOBS)
    assert all("differs from the first pass" in e for e in ledger.errors)


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
