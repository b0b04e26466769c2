"""Train the acceptance gate's grid and print the values its criteria read.

    python tools/gate_values.py --out values.json --nudges 3 --workers 2
    python tools/gate_values.py --compare A.json B.json

The grid is the one tests/test_acceptance.py trains: every model kind at
seeds 0-4 at the default config, plus the shared model without the distance
term (`shared_lam0`). Each run is built, trained and evaluated as the gate's
`Grid.run` does it. The script imports the `src/` next to it, so the same
script measures any two commits: copy it into the other checkout's `tools/`.

`--nudges K` adds K runs of each (kind, seed). Before training, run j adds
one ulp to element 7 * j of one initial weight: `enc.graph.conv1.W`, or
`enc.tabular.lin1.W` in a model without a graph encoder. Run 0 is the plain
run, the gate's own. How far the nudged runs spread is how far rounding
alone moves each value.

The criteria are judged by the gate's own test functions, which read the
stored reports through a stand-in for their grid: at every pairing (a, b) of
nudge a for the shared runs and nudge b for the baselines. Pairing (0, 0) is
the gate itself, and its lines are printed as the gate prints them (the
"acceptance criteria" section of test_output.txt), followed by how many
pairings each criterion passes. `--out` writes every run's report, training
seconds and paired shared distance as JSON.

`--compare A.json B.json` prints, for each value that differs, A's plain
value, A's range over its nudges, B's plain value, the change in test samples
(200 test samples, so one is 0.005; a retrieval value is a mean over 400
queries) and whether B's value lies within A's range; then each criterion's
pairing count in A and in B.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import multiprocessing
import os
import sys
import time

if __name__ == "__main__":      # before numpy loads: one BLAS thread here and in each worker
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conceptspace.baselines import build_baseline, train_baseline  # noqa: E402
from conceptspace.config import ExperimentConfig  # noqa: E402
from conceptspace.data import generate_xor_and_xor, split  # noqa: E402
from conceptspace.evaluation import evaluate_model, paired_shared_distance  # noqa: E402
from conceptspace.explain import build_index  # noqa: E402
from conceptspace.model import SharedConceptModel  # noqa: E402
from conceptspace.rng import substream  # noqa: E402
from conceptspace.training import train  # noqa: E402

import conftest  # noqa: E402  (tests/: where the gate records its criterion lines)
import test_acceptance as gate  # noqa: E402

KINDS = ("shared", "shared_lam0", "mod_graph", "mod_tabular", "cbm_graph",
         "cbm_tabular", "simple", "concept", "relative")
NUDGED = ("enc.graph.conv1.W", "enc.tabular.lin1.W")    # the first the model holds
NUDGE_STRIDE = 7
# the gate's tests that read only the grid's reports, training seconds and
# paired shared distances, in the order the gate runs them
CRITERIA = ("test_criterion_1_task_accuracy", "test_criterion_2_completeness",
            "test_criterion_3_missing_modality", "test_criterion_4_baseline_bands",
            "test_criterion_5d_regularizer_effect",
            "test_missing_modality_ordering_and_bands",
            "test_criterion_6_retrieval_label_match")
METRICS = (("accuracy", 0.005), ("completeness", 0.005), ("miss_graph", 0.005),
           ("miss_tab", 0.005), ("retrieval", 0.0025), ("paired_distance", None))


def nudge(model, j: int) -> None:
    """Add one ulp to element NUDGE_STRIDE * j of the first NUDGED weight."""
    params = model.parameters()
    flat = params[next(name for name in NUDGED if name in params)].reshape(-1)
    k = NUDGE_STRIDE * j
    flat[k] = np.nextafter(flat[k], np.inf)


def run_job(kind: str, seed: int, j: int) -> dict:
    """One gate run of `kind` at `seed`, nudged by nudge j when j > 0."""
    cfg = ExperimentConfig(seed=seed)
    if kind == "shared_lam0":
        cfg.loss.lam = 0.0
    samples = generate_xor_and_xor(cfg.n_samples, cfg.seed, cfg.random_edge_max)
    ds = split(samples, cfg.split_ratio, cfg.seed)
    shared = kind.startswith("shared")
    model = (SharedConceptModel(cfg, substream(cfg.seed, "init")) if shared
             else build_baseline(kind, cfg))
    if j:
        nudge(model, j)
    started = time.time()
    if shared:
        train(model, ds, cfg)
    else:
        train_baseline(model, ds, cfg)
    seconds = time.time() - started
    index = build_index(model, ds.train) if hasattr(model, "index_spaces") else None
    return {"report": evaluate_model(model, index, ds, cfg.hash()).to_dict(),
            "seconds": seconds,
            "paired_distance": paired_shared_distance(model, ds.test) if shared else None}


def key(kind: str, seed: int, j: int) -> str:
    return f"{kind}/{seed}/{j}"


class StandIn:
    """What the gate's criterion tests read of their Grid, from stored runs:
    the shared kinds at nudge a, the baselines at nudge b. A run's "model" is
    its paired shared distance, which judge has criterion 5d read back."""

    def __init__(self, runs: dict, a: int, b: int):
        self.runs, self.a, self.b = runs, a, b
        self.train_seconds = {(kind, seed): runs[key(kind, seed, a)]["seconds"]
                              for kind in KINDS[:2] for seed in gate.SEEDS}

    def run(self, kind, seed):
        stored = self.runs[key(kind, seed, self.a if kind.startswith("shared") else self.b)]
        return {"report": stored["report"], "model": stored["paired_distance"],
                "split": argparse.Namespace(test=None)}

    def metric(self, kind, getter):
        return [getter(self.run(kind, seed)["report"]) for seed in gate.SEEDS]


def judge(runs: dict, a: int, b: int) -> list[tuple[str, bool, list[str]]]:
    """(test name, passed, lines it recorded) of each gate criterion test."""
    measure, recorded, out = gate.paired_shared_distance, conftest._ACCEPTANCE_LINES, []
    gate.paired_shared_distance = lambda distance, _samples: distance
    try:
        for name in CRITERIA:
            start = len(recorded)
            try:
                getattr(gate, name)(StandIn(runs, a, b))
                passed = True
            except AssertionError:
                passed = False
            out.append((name, passed, recorded[start:]))
            del recorded[start:]
    finally:
        gate.paired_shared_distance = measure
    return out


def verdicts(runs: dict, nudges: int) -> dict:
    """Criterion test -> {"a,b": passed} over every pairing of nudges."""
    out = {name: {} for name in CRITERIA}
    for a, b in itertools.product(range(nudges + 1), repeat=2):
        for name, passed, _ in judge(runs, a, b):
            out[name][f"{a},{b}"] = passed
    return out


def grid(nudges: int, workers: int) -> dict:
    jobs = [(kind, seed, j) for j in range(nudges + 1) for kind in KINDS
            for seed in gate.SEEDS]
    if workers > 1:
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(workers, mp_context=ctx) as pool:
            results = list(pool.map(run_job, *zip(*jobs)))
    else:
        results = [run_job(*job) for job in jobs]
    return {key(*job): result for job, result in zip(jobs, results)}


def values(run: dict) -> dict:
    r = run["report"]
    return {"accuracy": r["accuracy"], "completeness": r["completeness"],
            "miss_graph": r["missing_modality"].get("graph"),
            "miss_tab": r["missing_modality"].get("tabular"),
            "retrieval": r["retrieval_label_match_mean"],
            "paired_distance": run["paired_distance"]}


def compare(a: dict, b: dict) -> list[str]:
    lines, same = [], 0
    for kind, seed in itertools.product(KINDS, gate.SEEDS):
        a_runs = [values(a["runs"][key(kind, seed, j)]) for j in range(a["nudges"] + 1)]
        b_value = values(b["runs"][key(kind, seed, 0)])
        for metric, sample in METRICS:
            want, got = a_runs[0][metric], b_value[metric]
            if want is None or want == got:
                same += want is not None
                continue
            spread = [v[metric] for v in a_runs]
            low, high = min(spread), max(spread)
            delta = (f"{(got - want) / sample:+.0f} samples" if sample
                     else f"{got - want:+.4f}")
            lines.append(f"{kind} seed {seed} {metric}: A {want:.4f} "
                         f"[nudges {low:.4f}, {high:.4f}] -> B {got:.4f} ({delta}), "
                         f"{'within' if low <= got <= high else 'OUTSIDE'} A's range")
    lines.append(f"{same} values equal")
    for name in CRITERIA:
        counts = [f"{sum(v.values())}/{len(v)}" for v in (a["verdicts"][name],
                                                          b["verdicts"][name])]
        lines.append(f"{name}: passes A {counts[0]}, B {counts[1]} pairings")
    return lines


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nudges", type=int, default=0, help="nudged runs per (kind, seed)")
    parser.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    parser.add_argument("--out", help="write every run and verdict to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files instead of training")
    args = parser.parse_args(argv)
    if args.nudges < 0 or args.workers < 1:
        parser.error("--nudges must be at least 0 and --workers at least 1")
    if args.compare:
        print("\n".join(compare(*map(_read, args.compare))))
        return 0
    runs = grid(args.nudges, args.workers)
    for _, _, recorded in judge(runs, 0, 0):
        for line in recorded:
            print(line)
    result = {"nudges": args.nudges, "runs": runs, "verdicts": verdicts(runs, args.nudges)}
    for name, by_pairing in result["verdicts"].items():
        print(f"{name}: passes {sum(by_pairing.values())} of {len(by_pairing)} pairings")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
