"""The benchmark's three workloads, the checks on their outputs, and the loop
that times them.

Each workload is a closed loop: one client in one process sends its next
operation only after the previous one has returned.

- ``fit`` trains the shared model end to end at the default config for a
  short run, over and over at one seed.
- ``grid`` trains and evaluates, in sequence, every model that ``reproduce``
  runs for one seed: the shared model under its three regimes and all seven
  baselines, each for a few epochs.
- ``serve`` loads a fully trained checkpoint shipped with the benchmark and
  alternates a full evaluation with a seeded mix of explanation queries.

Every operation is checked. One that raises, or whose output fails its check,
counts as failed, and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from conceptspace import baselines, data, evaluation, explain, model, training
from conceptspace.config import MODALITIES, ExperimentConfig
from conceptspace.rng import substream
from conceptspace.training import _total_loss_with_grads
from reference import Reference
from tracing import Tracer, layer_metric, nesting_problems, self_times

FIXTURE_DIR = Path(__file__).resolve().parent / "fixture"

# Every model reproduce trains for one seed, in its order, then the two
# extra regimes of the shared model.
GRID_JOBS = (("shared", "end_to_end"),
             *((kind, "end_to_end") for kind in baselines.BASELINE_KINDS),
             ("shared", "sequential"),
             ("shared", "local_pretrain"))
# Kinds whose reports carry a completeness value; every other kind has none.
CONCEPT_KINDS = frozenset({"shared", "concept"})

# Every number in a serve evaluation report may differ from the one recorded
# with the fixture by at most one test sample out of 200. That allows a border
# sample to flip under reordered float arithmetic, and is far inside the
# README's per-seed bands (accuracy >= 0.95, graph-missing >= 0.95,
# tabular-missing >= 0.88, retrieval match >= 0.90), which the fixture's
# report clears by 0.015 or more.
REPORT_TOL = 0.005
# Finite-difference check of the analytic gradient, along one random
# direction per parameter tensor. The loss has kinks (LeakyReLU), and a
# pre-activation can sit within a step of one: a direction passes if the
# central difference agrees at any of the steps, a wrong gradient at none.
GRAD_STEPS = (1e-5, 1e-6, 1e-7)
GRAD_REL_TOL = 1e-4
GRAD_SAMPLES = 8
QUERY_KINDS = ("neighborhood", "crossmodal", "prototype", "substitute")
TOP_K = 5
RADIUS_RANGE = (0.05, 0.5)
DIST_TOL = 1e-12

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "fraction"),
              ("op_ms_p50", "ms"), ("items_per_s", "1/s"))
OVERHEAD_METRICS = ("trace.op_overhead_pct", "trace.query_overhead_pct")
PER_LAYER = (
    "data.betweenness.calls", "data.betweenness.self_ms",
    "data.as_arrays.calls", "data.as_arrays.self_ms",
    "data.translation_batch.calls", "data.batches.self_ms",
    "data.generate_xor_and_xor.self_ms",
    "nn.GraphConv.forward.self_ms", "nn.GraphConv.backward.self_ms",
    "nn.LeakyReLU.self_ms", "nn.GumbelSoftmax.self_ms",
    "nn.BatchRescale.self_ms", "nn.Linear.self_ms",
    "nn.Adam.step.calls", "nn.Adam.step.self_ms",
    "model.SharedConceptModel.forward.self_ms",
    "model.SharedConceptModel.backward.self_ms",
    "model.SharedStage.forward.self_ms", "model.load_model.self_ms",
    "training.train.self_ms", "training.train_task_only.self_ms",
    "explain.build_index.self_ms", "explain.encode_samples.self_us",
    "explain.neighborhood.self_us", "explain.cross_modal_retrieve.self_us",
    "explain.prototype.self_us", "explain.substitute_missing.self_us",
    "explain.substitute_matrix.self_ms",
    "evaluation.evaluate_model.self_ms", "evaluation.accuracy.self_ms",
    "evaluation.completeness.self_ms",
    "evaluation.missing_modality_eval.self_ms",
    "evaluation.retrieval_label_match.self_ms",
    "tree.BinaryCodeTree.fit.self_ms", "tree.BinaryCodeTree.predict.self_ms",
    "baselines.train_baseline.self_ms",
    "baselines.RelativeModel.index_spaces.self_ms",
) + OVERHEAD_METRICS


@dataclass(frozen=True)
class Sizes:
    """How much work one operation does. The defaults are the benchmark;
    the tests shrink them."""

    n_samples: int = 1000
    fit_epochs: int = 30
    # After 30 epochs the model predicts about the test split's majority
    # label, whose rate is 0.75 +- 0.03 over seeds (200 samples, positive
    # rate 0.25), and it can sit a point or two below that while it starts
    # to separate the classes. 0.60 stays under that at any plausible split
    # and still fails a broken predictor (0.5 at random, 0.25 all-positive).
    # It cannot tell a model that learns from one that does not: each fit
    # also checks its gradients by finite differences and that training
    # moved every parameter.
    fit_accuracy_floor: float = 0.60
    grid_epochs: int = 3
    setup_repeats: int = 5
    queries_per_round: int = 300


TINY = Sizes(n_samples=200, fit_epochs=2, fit_accuracy_floor=0.0, grid_epochs=1,
             setup_repeats=1, queries_per_round=12)


class SetupError(RuntimeError):
    """The workload cannot start: an input or the fixture failed its check."""


class Ledger:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(problems)}")


class Samples:
    """Times and rates as measured (``raw``) and at reference speed
    (``scaled``), by name. A rate's name ends in ``_per_s``. Values are kept
    in flat arrays, so that the memory they take grows little with the
    number of operations a run gets through."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.raw: dict = {}
        self.scaled: dict = {}

    @contextmanager
    def block(self):
        """Values added inside the block are scaled by the reference samples
        taken just before and just after it (see reference.py)."""
        bracket = self.reference.bracket()
        start = {key: len(values) for key, values in self.raw.items()}
        yield
        f = self.reference.factor(bracket)
        for key, values in self.raw.items():
            rate = key.endswith("_per_s")
            self.scaled.setdefault(key, array("d")).extend(
                x / f if rate else x * f for x in values[start.get(key, 0):])

    def add(self, key: str, value: float) -> None:
        self.raw.setdefault(key, array("d")).append(value)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _saved_sha256(mdl, work_dir: Path) -> str:
    path = work_dir / f"model-{os.getpid()}.ckpt"
    try:
        model.save_model(mdl, str(path))
        return sha256_file(path)
    finally:
        path.unlink(missing_ok=True)


def _dataset(cfg: ExperimentConfig):
    samples = data.generate_xor_and_xor(cfg.n_samples, cfg.seed, cfg.random_edge_max,
                                        cfg.bijection)
    return data.split(samples, cfg.split_ratio, cfg.seed)


def _samples_per_epoch(n_train: int, batch_size: int) -> int:
    # training drops a trailing batch of one sample
    return n_train - (1 if n_train % batch_size == 1 else 0)


def _history_problems(history) -> list[str]:
    if not history:
        return ["empty history"]
    bad = [(row["epoch"], k) for row in history for k, v in row.items()
           if not math.isfinite(v)]
    return [f"non-finite history values {bad[:3]}"] if bad else []


def gradient_problems(mdl, batch, cfg: ExperimentConfig, rng) -> list[str]:
    """Compare the model's analytic gradient of the training loss with a
    central difference along one random direction per parameter tensor.

    The loss is the one train() minimises, with the Gumbel-softmax in its
    deterministic soft mode so that the loss is a smooth function.
    """
    idx = np.arange(len(batch.ids))

    def loss() -> float:
        res = mdl.forward(batch, "train", gumbel_mode="soft", with_aux=True)
        return _total_loss_with_grads(res, batch, cfg.loss, idx)[0].total

    mdl.zero_grad()
    res = mdl.forward(batch, "train", gumbel_mode="soft", with_aux=True)
    _, d_logits, d_shared, d_local = _total_loss_with_grads(res, batch, cfg.loss, idx)
    mdl.backward(d_logits, d_shared, d_local)
    grads = {k: v.copy() for k, v in mdl.grads().items()}
    mdl.zero_grad()

    def central_difference(param, direction, step) -> float:
        orig = param.copy()
        param += step * direction
        up = loss()
        param[...] = orig - step * direction
        down = loss()
        param[...] = orig
        return (up - down) / (2 * step)

    problems = []
    for name, param in mdl.parameters().items():
        direction = rng.standard_normal(param.shape)
        analytic = float(np.sum(grads[name] * direction))
        numeric = []
        for step in GRAD_STEPS:
            numeric.append(central_difference(param, direction, step))
            if abs(numeric[-1] - analytic) <= (
                    GRAD_REL_TOL * max(abs(numeric[-1]), abs(analytic)) + 1e-9):
                break
        else:
            problems.append(f"gradient of {name} along a random direction is "
                            f"{analytic:.6g}, finite differences give "
                            f"{', '.join(f'{x:.6g}' for x in numeric)}")
    return problems


class Workload:
    """What every workload has in common: by default an operation's time is
    the median ``op_ms`` and its rate the median ``items_per_s``."""

    def summary(self, samples: dict) -> dict:
        return {"op_ms_p50": _median(samples.get("op_ms", [])),
                "items_per_s": _median(samples.get("items_per_s", []))}


# -- fit ---------------------------------------------------------------------

class FitWorkload(Workload):
    """Train the default shared model for ``fit_epochs`` epochs, repeatedly.

    One operation is one ``train()`` call. Items are training samples pushed
    through ``train()``. Before it trains, each operation checks the fresh
    model's gradients on a few training samples.
    """

    name = "fit"

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path, tracer: Tracer):
        base = ExperimentConfig(seed=seed, n_samples=sizes.n_samples)
        self.cfg = base.with_overrides(plan=replace(base.plan, epochs=sizes.fit_epochs))
        self.sizes, self.work_dir, self.tracer = sizes, work_dir, tracer
        self.rng = np.random.default_rng(seed)
        self.first_sha = None

    def setup(self):
        self.ds = _dataset(self.cfg)
        self.check_batch = data.whole_batch(self.ds.train[:GRAD_SAMPLES],
                                            bijection=self.cfg.bijection)

    def describe(self) -> str:
        return (f"{len(self.ds.train)} training samples x {self.cfg.plan.epochs} epochs "
                f"per train() call, batch {self.cfg.plan.batch_size}, "
                f"lambda {self.cfg.loss.lam}")

    def step(self, ledger: Ledger, samples: Samples) -> None:
        cfg = self.cfg
        problems = []
        try:
            # on a twin: train-mode forwards update running statistics
            twin = model.SharedConceptModel(cfg, substream(cfg.seed, "init"))
            with self.tracer.span("bench.fit.gradient_check"):
                problems += gradient_problems(twin, self.check_batch, cfg, self.rng)
            mdl = model.SharedConceptModel(cfg, substream(cfg.seed, "init"))
            initial = {k: v.copy() for k, v in mdl.parameters().items()}
            with samples.block():
                t0 = time.perf_counter()
                _, history = training.train(mdl, self.ds, cfg)
                dt = time.perf_counter() - t0
                items = cfg.plan.epochs * _samples_per_epoch(len(self.ds.train),
                                                             cfg.plan.batch_size)
                samples.add("op_ms", dt * 1e3)
                samples.add("items_per_s", items / dt)
            problems += _history_problems(history)
            if not problems:
                acc = history[-1]["test_accuracy"]
                if acc < self.sizes.fit_accuracy_floor:
                    problems.append(f"final test accuracy {acc} below "
                                    f"{self.sizes.fit_accuracy_floor}")
                if not history[-1]["task_loss"] < history[0]["task_loss"]:
                    problems.append("task loss did not fall")
            frozen = [group for group, params in mdl.param_groups().items()
                      if max(np.abs(v - initial[k]).max() for k, v in params.items()) < 1e-6]
            if frozen:
                problems.append(f"training did not move {frozen}")
            sha = _saved_sha256(mdl, self.work_dir)
            self.first_sha = self.first_sha or sha
            if sha != self.first_sha:
                problems.append(f"checkpoint sha256 {sha[:12]} differs from the "
                                f"first fit's {self.first_sha[:12]} at the same seed")
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            problems.append(repr(exc))
        ledger.record("fit", problems)

    def finish(self, ledger: Ledger) -> list[str]:
        return [f"fit checkpoint sha256: {self.first_sha}"]

    def human_lines(self, samples: dict) -> list[str]:
        rates = samples.get("items_per_s", [])
        return [f"fit_samples_per_s = {_median(rates):.1f} 1/s "
                f"(median of {len(rates)} train() calls)"]


# -- grid --------------------------------------------------------------------

class GridWorkload(Workload):
    """Train, index and evaluate every grid model for one seed, in sequence.

    One operation is one pass over the grid; its time is the sum over the
    jobs of each job's median time, so each job is scaled to reference speed
    on its own. Items are training samples pushed through the pass's fits,
    over the time spent in them. Every pass runs at the same seed, so each
    job's report must equal its first pass's.
    """

    name = "grid"

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path, tracer: Tracer):
        self.base = ExperimentConfig(seed=seed, n_samples=sizes.n_samples)
        self.sizes, self.tracer = sizes, tracer
        self.first_reports: dict = {}
        self.items: dict = {}

    def setup(self):
        self.ds = _dataset(self.base)

    def describe(self) -> str:
        return (f"{len(GRID_JOBS)} models per pass, {self.sizes.grid_epochs} epochs "
                f"per phase, {len(self.ds.train)} train / {len(self.ds.test)} test")

    def _job_cfg(self, regime: str) -> ExperimentConfig:
        e = self.sizes.grid_epochs
        return self.base.with_overrides(
            plan=replace(self.base.plan, regime=regime, epochs=e, phase2_epochs=e),
            use_local_supervision=(regime == "local_pretrain"))

    def step(self, ledger: Ledger, samples: Samples) -> None:
        per_epoch = _samples_per_epoch(len(self.ds.train), self.base.plan.batch_size)
        for kind, regime in GRID_JOBS:
            problems = []
            cfg = self._job_cfg(regime)
            try:
                with self.tracer.span(f"bench.grid.{kind}.{regime}"), samples.block():
                    t0 = time.perf_counter()
                    if kind == "shared":
                        mdl = model.SharedConceptModel(
                            cfg, substream(cfg.seed, "init"),
                            with_local_heads=(regime == "local_pretrain"))
                        _, history = training.train(mdl, self.ds, cfg)
                    else:
                        mdl = baselines.build_baseline(kind, cfg)
                        history = baselines.train_baseline(mdl, self.ds, cfg)
                    t1 = time.perf_counter()
                    index = (explain.build_index(mdl, self.ds.train)
                             if hasattr(mdl, "index_spaces") else None)
                    report = evaluation.evaluate_model(mdl, index, self.ds, cfg.hash())
                    t2 = time.perf_counter()
                    samples.add(f"job_ms.{kind}.{regime}", (t2 - t0) * 1e3)
                    samples.add(f"train_ms.{kind}.{regime}", (t1 - t0) * 1e3)
                self.items[kind, regime] = len(history) * per_epoch
                problems += _history_problems(history)
                report.validate()
                if report.accuracy is None:
                    problems.append("no accuracy")
                if (report.completeness is not None) != (kind in CONCEPT_KINDS):
                    problems.append(f"completeness {report.completeness} for kind {kind}")
                first = self.first_reports.setdefault((kind, regime), report.to_dict())
                if report.to_dict() != first:
                    problems.append("report differs from the first pass's at the same seed")
            except Exception as exc:  # noqa: BLE001
                problems.append(repr(exc))
            ledger.record(f"grid {kind}/{regime}", problems)

    def finish(self, ledger: Ledger) -> list[str]:
        return []

    def summary(self, samples: dict) -> dict:
        def total(prefix):
            return sum(_median(samples.get(f"{prefix}.{kind}.{regime}", []))
                       for kind, regime in GRID_JOBS)
        return {"op_ms_p50": total("job_ms"),
                "items_per_s": sum(self.items.values()) / (total("train_ms") / 1e3)}

    def human_lines(self, samples: dict) -> list[str]:
        passes = len(samples.get("job_ms.shared.end_to_end", []))
        return [f"grid_s = {self.summary(samples)['op_ms_p50'] / 1e3:.3f} s "
                f"(sum over {len(GRID_JOBS)} models of each one's median over "
                f"{passes} passes)"]


# -- serve -------------------------------------------------------------------

def _scan(rows: np.ndarray, query: np.ndarray) -> list[float]:
    diff = rows - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff)).tolist()


def _compare(got: list, want: list) -> list[str]:
    """Both are lists of (id, distance)."""
    if [i for i, _ in got] != [i for i, _ in want]:
        return [f"ids {[i for i, _ in got][:6]} != scan {[i for i, _ in want][:6]}"]
    worst = max((abs(a - b) for (_, a), (_, b) in zip(got, want)), default=0.0)
    return [f"distance off by {worst:.3g}"] if worst > DIST_TOL else []


def check_query(index, kind: str, params: dict, vecs: dict, result) -> list[str]:
    """Compare one query result with a brute-force linear scan of the index."""
    ids = index.ids.tolist()
    mod = params["modality"]
    if kind == "neighborhood":
        d = _scan(index.spaces[mod], vecs[mod][0])
        want = sorted((dist, i) for dist, i in zip(d, ids) if dist < params["radius"])
        got = [(i, dist) for i, m, dist in result.results if m == mod]
        if len(got) != len(result.results):
            return ["result from another modality"]
        return _compare(got, [(i, dist) for dist, i in want])
    if kind == "crossmodal":
        target = params["target"]
        d = _scan(index.spaces[target], vecs[mod][0])
        want = sorted(zip(d, ids))[:TOP_K]
        got = [(i, dist) for i, m, dist in result.results if m == target]
        if len(got) != len(result.results):
            return ["result from the source modality"]
        return _compare(got, [(i, dist) for dist, i in want])
    if kind == "prototype":
        code = params["code"]
        weights = 1 << np.arange(index.codes.shape[1], dtype=np.int64)
        members = [r for r, c in enumerate((index.codes @ weights).tolist())
                   if c == int(code @ weights)]
        if not members:
            return ["queried code is not in the index"]
        centroid = index.z[members].sum(axis=0) / len(members)
        want = min(zip(_scan(index.z, centroid), ids))[1]
        return [] if result == want else [f"prototype {result} != scan {want}"]
    if kind == "substitute":
        target = params["target"]
        d = _scan(index.spaces[target], vecs[mod][0])
        dist, want = min(zip(d, ids))
        vec, got, got_dist = result
        problems = _compare([(got, got_dist)], [(want, dist)])
        if not problems and not np.array_equal(vec, index.spaces[target][ids.index(want)]):
            problems.append("substitute vector differs from the stored row")
        return problems
    raise ValueError(f"unknown query kind {kind!r}")


def report_problems(got, want, path: str = "report") -> list[str]:
    """Differences between two evaluation reports: numbers may differ by
    REPORT_TOL, everything else must be equal."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path} has keys {sorted(got)}, expected {sorted(want)}"]
        return [p for k in want for p in report_problems(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        ok = abs(got - want) <= REPORT_TOL
    else:
        ok = got == want
    return [] if ok else [f"{path} is {got!r}, the fixture records {want!r}"]


def run_query(mdl, index, kind: str, sample, params: dict):
    """One explanation query as the CLI runs it: encode the sample, then ask.
    Returns (vectors, result)."""
    vecs = explain.encode_samples(mdl, [sample])
    mod = params["modality"]
    if kind == "neighborhood":
        return vecs, explain.neighborhood(index, vecs[mod][0], mod, params["radius"],
                                          query_id=sample.id)
    if kind == "crossmodal":
        return vecs, explain.cross_modal_retrieve(index, vecs[mod][0], mod,
                                                  top_k=TOP_K, query_id=sample.id)
    if kind == "prototype":
        z = np.concatenate([vecs[m][0] for m in MODALITIES])
        params["code"] = (z >= 0.5).astype(np.uint8)
        return vecs, explain.prototype(index, params["code"])
    if kind == "substitute":
        return vecs, explain.substitute_missing(mdl, index, vecs[mod][0], mod,
                                                params["target"])
    raise ValueError(f"unknown query kind {kind!r}")


class ServeWorkload(Workload):
    """Query a frozen, fully trained shared model.

    One operation is one ``build_index`` + ``evaluate_model``. Each round
    runs one evaluation and then ``queries_per_round`` explanation queries
    against the index it built. Items are queries; each one's time includes
    encoding its sample. Each evaluation report must match the one recorded
    with the fixture, within REPORT_TOL.
    """

    name = "serve"

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path, tracer: Tracer):
        self.rng = np.random.default_rng(seed)
        self.sizes, self.work_dir, self.tracer = sizes, work_dir, tracer
        self.fixture = json.loads((FIXTURE_DIR / "fixture.json").read_text())

    def setup(self):
        path = FIXTURE_DIR / self.fixture["checkpoint"]
        sha = sha256_file(path)
        if sha != self.fixture["sha256"]:
            raise SetupError(f"{path.name} has sha256 {sha}, the fixture records "
                             f"{self.fixture['sha256']}")
        self.model = model.load_model(str(path))
        self.ds = _dataset(self.model.config)
        self.all_samples = self.ds.train + self.ds.test

    def describe(self) -> str:
        return (f"evaluation over {len(self.ds.train)} indexed / {len(self.ds.test)} "
                f"test samples; {self.sizes.queries_per_round} queries per round")

    def _plan(self) -> list:
        """The next round's queries, drawn from the workload seed."""
        rng, plan = self.rng, []
        for _ in range(self.sizes.queries_per_round):
            kind = QUERY_KINDS[rng.integers(len(QUERY_KINDS))]
            mod = MODALITIES[rng.integers(len(MODALITIES))]
            params = {"modality": mod, "target": [m for m in MODALITIES if m != mod][0]}
            if kind == "prototype":
                # a training sample: its code is one the index holds
                sample = self.ds.train[rng.integers(len(self.ds.train))]
            else:
                sample = self.all_samples[rng.integers(len(self.all_samples))]
            if kind == "neighborhood":
                params["radius"] = float(rng.uniform(*RADIUS_RANGE))
            plan.append((kind, sample, params))
        return plan

    def _eval(self, ledger: Ledger, samples: Samples):
        problems, index = [], None
        try:
            with self.tracer.span("bench.serve.eval"), samples.block():
                t0 = time.perf_counter()
                index = explain.build_index(self.model, self.ds.train)
                report = evaluation.evaluate_model(self.model, index, self.ds,
                                                   self.model.config.hash())
                samples.add("op_ms", (time.perf_counter() - t0) * 1e3)
            problems += report_problems(report.to_dict(), self.fixture["report"])
        except Exception as exc:  # noqa: BLE001
            problems.append(repr(exc))
        ledger.record("eval", problems)
        return index

    def step(self, ledger: Ledger, samples: Samples) -> None:
        index = self._eval(ledger, samples)
        plan = self._plan()
        if index is None:
            for kind, _, _ in plan:
                ledger.record(f"query {kind}", ["no index"])
            return
        with samples.block():
            for kind, sample, params in plan:
                problems = []
                try:
                    with self.tracer.span(f"bench.serve.{kind}"):
                        t0 = time.perf_counter()
                        vecs, result = run_query(self.model, index, kind, sample, params)
                        dt = time.perf_counter() - t0
                    samples.add("query_us", dt * 1e6)
                    samples.add(f"query_us.{kind}", dt * 1e6)
                    samples.add("items_per_s", 1.0 / dt)
                    problems += check_query(index, kind, params, vecs, result)
                except Exception as exc:  # noqa: BLE001
                    problems.append(repr(exc))
                ledger.record(f"query {kind} sample {sample.id}", problems)

    def finish(self, ledger: Ledger) -> list[str]:
        problems = []
        try:
            sha = _saved_sha256(self.model, self.work_dir)
            if sha != self.fixture["sha256"]:
                problems.append(f"model saved after serving has sha256 {sha}, "
                                f"loaded {self.fixture['sha256']}")
        except Exception as exc:  # noqa: BLE001
            problems.append(repr(exc))
        ledger.record("re-save after serving", problems)
        return []

    def human_lines(self, samples: dict) -> list[str]:
        evals, q = samples.get("op_ms", []), samples.get("query_us", [])
        lines = [f"eval_ms_p50 = {_median(evals):.2f} ms "
                 f"(median of {len(evals)} build_index + evaluate_model)"]
        if q:
            lines.append(f"query_us_p50 = {_median(q):.1f} us, query_us_p95 = "
                         f"{_quantile(q, 0.95):.1f} us ({len(q)} queries, all kinds)")
        for kind in QUERY_KINDS:
            xs = samples.get(f"query_us.{kind}", [])
            lines.append(f"query.{kind}_us_p50 = {_median(xs):.1f} us "
                         f"({len(xs)} queries)")
        return lines


WORKLOADS = {w.name: w for w in (FitWorkload, GridWorkload, ServeWorkload)}


# -- the timing loop -----------------------------------------------------------

def _median(xs) -> float:
    return statistics.median(xs) if xs else float("nan")


def _quantile(xs, q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))] if xs else float("nan")


def _overhead_pct(traced: float, plain: float) -> float:
    if not (traced > 0 and plain > 0):
        return 0.0
    return (traced / plain - 1.0) * 100.0


@dataclass
class Result:
    correct: bool
    ledger: Ledger
    metrics: dict            # name -> (value, unit)
    lines: list              # human-readable report, printed before the result


def execute(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = Sizes(), work_dir: Path | None = None) -> Result:
    """Set up, run the closed loop for ``seconds`` and check every output.

    Untraced, the result holds the end-to-end metrics. Traced, the loop
    first records one set-up and one operation (the per-layer metrics come
    from those spans), then alternates untraced and traced operations for
    the rest of the time to measure the tracing overhead. Times are kept as
    measured and, block by block, at reference speed (see ``Samples``); the
    end-to-end metrics use the latter.
    """
    work_dir = Path(work_dir or Path.cwd() / ".bench_out")
    work_dir.mkdir(parents=True, exist_ok=True)
    reference = Reference()
    try:
        return _run(workload, seed, seconds, trace, sizes, work_dir, reference)
    finally:
        reference.close()


def _run(workload, seed, seconds, trace, sizes, work_dir, reference) -> Result:
    tracer = Tracer()
    wl = WORKLOADS[workload](seed, sizes, work_dir, tracer)
    ledger = Ledger()
    plain, traced = Samples(reference), Samples(reference)

    def timed_setup() -> None:
        with plain.block():
            t0 = time.perf_counter()
            wl.setup()
            plain.add("setup_s", time.perf_counter() - t0)

    timed_setup()
    lines = [f"workload {workload}: {wl.describe()}"]

    spans = []
    if trace:
        with tracer.record():
            with tracer.span(f"bench.{workload}.setup"):
                wl.setup()
            with tracer.span(f"bench.{workload}.op"):
                # the first operation runs cold: keep it out of the overhead
                wl.step(ledger, Samples(reference))
        spans = tracer.take()
    start = time.perf_counter()
    deadline = start + seconds
    # the remaining set-ups are spread over the run, so that their median
    # samples the machine over the same stretch as the operations
    marks = [start + seconds * k / sizes.setup_repeats
             for k in range(1, sizes.setup_repeats)]
    while True:
        wl.step(ledger, plain)
        if trace:
            with tracer.record():
                wl.step(ledger, traced)
            tracer.take()
        while marks and time.perf_counter() >= marks[0]:
            marks.pop(0)
            timed_setup()
        if time.perf_counter() >= deadline:
            break
    while marks:
        marks.pop(0)
        timed_setup()
    lines += wl.finish(ledger)

    if trace:
        selfs = self_times(spans)
        metrics = {m: (layer_metric(spans, selfs, m), _unit(m))
                   for m in PER_LAYER if m not in OVERHEAD_METRICS}
        metrics["trace.op_overhead_pct"] = (_overhead_pct(
            wl.summary(traced.scaled)["op_ms_p50"], wl.summary(plain.scaled)["op_ms_p50"]),
            "%")
        metrics["trace.query_overhead_pct"] = (_overhead_pct(
            _median(traced.scaled.get("query_us", [])),
            _median(plain.scaled.get("query_us", []))), "%")
        problems = nesting_problems(spans)
        ledger.record("trace nesting", problems)
        if not problems:
            lines.append(f"trace: all {len(spans)} spans closed and inside their parents")
        path = work_dir / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "fields": ["name", "parent", "start_ns", "end_ns"],
                                    "spans": spans}))
        lines.append(f"trace: {len(spans)} spans written to {path.name}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": _median(plain.scaled["setup_s"]),
            "peak_rss_mb": rss_mb,
            "ok_frac": (ledger.attempted - ledger.failed) / max(ledger.attempted, 1),
            **wl.summary(plain.scaled),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        raw = {"setup_s": _median(plain.raw["setup_s"]), **wl.summary(plain.raw)}
        lines.append(f"reference work: median {statistics.median(reference.ms):.2f} ms "
                     f"over {len(reference.ms)} samples; times below are as measured")
        lines.append("scaled over as measured, in the result: " + ", ".join(
            f"{k} {values[k] / raw[k]:.4f}" for k in raw))
        lines.append(f"setup_s as measured = {raw['setup_s']:.4f} s "
                     f"(median of {len(plain.raw['setup_s'])})")
        lines += wl.human_lines(plain.raw)
        lines.append(f"error_frac = {ledger.failed / max(ledger.attempted, 1):.6f} "
                     f"({ledger.failed} of {ledger.attempted} operations)")
    lines += [f"failed: {e}" for e in ledger.errors]
    correct = ledger.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    return Result(correct, ledger, metrics, lines)


def _unit(metric: str) -> str:
    return {"calls": "count", "self_ms": "ms", "self_us": "us"}[metric.rpartition(".")[2]]
