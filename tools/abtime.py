"""Paired A/B timing of one unit of work in two source trees.

    python tools/abtime.py A_TREE B_TREE --unit serve_op --pairs 60
    python tools/abtime.py A_TREE B_TREE --unit serve_query --pairs 60
    python tools/abtime.py A_TREE B_TREE --unit train --seed 5 --pairs 20
    python tools/abtime.py A_TREE B_TREE --unit setup --seed 5 --pairs 60
    python tools/abtime.py A_TREE B_TREE --unit pack --seed 5 --pairs 60

Each tree is a checkout with the package under `src/` (`git archive` makes
one of another commit). One long-lived worker process per tree imports that
tree's package, sets its unit up once and then runs it on request, with BLAS
pinned to one thread. After 5 warm-up units each, the workers run units
alternately, never two at once, and each pair swaps which side goes first.

Units (public names only, so any two commits of the package can be compared):
- `serve_op`: `build_index` of the training split plus `evaluate_model`, on
  the trained checkpoint the benchmark ships and the dataset regenerated
  from its config (the benchmark's `serve` operation). `--seed` is not used.
- `serve_query`: on the same checkpoint and dataset, 50 queries of the two
  kinds that rank index rows, drawn once at set-up from `--seed` as the
  benchmark's `serve` draws its queries (bench/workloads.py): each kind in
  even odds, a neighborhood at a radius uniform in RADIUS_RANGE or a
  cross-modal top TOP_K; a uniform query modality; a uniform sample of the
  train and test splits. Each query encodes its sample alone
  (`encode_samples`) and then asks. `build_index` of the training split runs
  once, at set-up; both trees draw the same queries.
- `train`: the benchmark's `fit` operation, `train()` of a fresh default
  shared model (initialised from `--seed` as the benchmark does) for 30
  epochs, the benchmark's `fit_epochs`, on the default dataset of that seed.
- `train_epoch`: the same with `plan.epochs=1`. Packing and the per-epoch
  evaluation weigh more in it than in `train`.
- `setup`: the benchmark's `fit` and `grid` set-up, `generate_xor_and_xor`
  and `split` of the default dataset of `--seed` (1000 samples).
- `load`: `load_dataset` of that dataset, saved once at set-up to a
  temporary directory that is removed when the worker exits.
- `pack`: the packing `train()` does once per run, on that dataset's split:
  `data.as_arrays` of the training samples with their aux rows, then of the
  test samples without them.

It prints each side's median unit time and, over the pairs, the median and
interquartile range of the B/A time ratio, the number of pairs in which B
was slower, and the two-sided sign-test p-value of that count.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

CHECKPOINT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench",
                          "fixture", "shared_seed0.ckpt")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP = 5
QUERIES = 50                   # per serve_query unit
RADIUS_RANGE, TOP_K = (0.05, 0.5), 5    # as the benchmark's serve queries


def _dataset(cs, cfg):
    samples = cs.generate_xor_and_xor(cfg.n_samples, cfg.seed, cfg.random_edge_max,
                                      cfg.bijection)
    return cs.split(samples, cfg.split_ratio, cfg.seed)


def serve_op(cs, seed: int):
    model = cs.load_model(CHECKPOINT)
    cfg = model.config
    ds = _dataset(cs, cfg)

    def run() -> float:
        t0 = time.perf_counter()
        index = cs.build_index(model, ds.train)
        cs.evaluate_model(model, index, ds, cfg.hash())
        return time.perf_counter() - t0
    return run


def serve_query(cs, seed: int):
    model = cs.load_model(CHECKPOINT)
    ds = _dataset(cs, model.config)
    index = cs.build_index(model, ds.train)
    samples, rng, queries = ds.train + ds.test, np.random.default_rng(seed), []
    for _ in range(QUERIES):
        kind = ("neighborhood", "crossmodal")[rng.integers(2)]
        mod = cs.MODALITIES[rng.integers(len(cs.MODALITIES))]
        sample = samples[rng.integers(len(samples))]
        queries.append((kind, mod, sample, float(rng.uniform(*RADIUS_RANGE))))

    def run() -> float:
        t0 = time.perf_counter()
        for kind, mod, sample, radius in queries:
            vec = cs.encode_samples(model, [sample])[mod][0]
            if kind == "neighborhood":
                cs.neighborhood(index, vec, mod, radius, query_id=sample.id)
            else:
                cs.cross_modal_retrieve(index, vec, mod, top_k=TOP_K, query_id=sample.id)
        return time.perf_counter() - t0
    return run


def _train(epochs: int):
    def unit(cs, seed: int):
        cfg = cs.ExperimentConfig(seed=seed, plan=cs.TrainPlan(epochs=epochs))
        ds = _dataset(cs, cfg)

        def run() -> float:
            model = cs.SharedConceptModel(cfg, cs.rng.substream(seed, "init"))
            t0 = time.perf_counter()
            cs.train(model, ds, cfg)
            return time.perf_counter() - t0
        return run
    return unit


def setup(cs, seed: int):
    cfg = cs.ExperimentConfig(seed=seed)

    def run() -> float:
        t0 = time.perf_counter()
        _dataset(cs, cfg)
        return time.perf_counter() - t0
    return run


def load(cs, seed: int):
    cfg = cs.ExperimentConfig(seed=seed)
    folder = tempfile.TemporaryDirectory()
    path = os.path.join(folder.name, "dataset.json")
    samples = cs.generate_xor_and_xor(cfg.n_samples, cfg.seed, cfg.random_edge_max,
                                      cfg.bijection)
    cs.save_dataset(samples, path, seed=cfg.seed, random_edge_max=cfg.random_edge_max,
                    bijection=cfg.bijection)

    def run() -> float:
        t0 = time.perf_counter()
        cs.load_dataset(os.path.join(folder.name, "dataset.json"))   # keeps folder alive
        return time.perf_counter() - t0
    return run


def pack(cs, seed: int):
    cfg = cs.ExperimentConfig(seed=seed)
    ds = _dataset(cs, cfg)

    def run() -> float:
        t0 = time.perf_counter()
        cs.data.as_arrays(ds.train, cfg.bijection)
        cs.data.as_arrays(ds.test, with_aux=False)
        return time.perf_counter() - t0
    return run


UNITS = {"serve_op": serve_op, "serve_query": serve_query, "train": _train(30),
         "train_epoch": _train(1), "setup": setup, "load": load, "pack": pack}


def worker(tree: str, unit: str, seed: int) -> None:
    """Answer each "run" line on stdin with one unit's time in seconds."""
    src = os.path.abspath(os.path.join(tree, "src"))
    sys.path.insert(0, src)
    import conceptspace as cs

    if not os.path.abspath(cs.__file__).startswith(src + os.sep):
        raise SystemExit(f"conceptspace was imported from {cs.__file__}, not {src}")
    run = UNITS[unit](cs, seed)
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "run":
            return
        print(repr(run()), flush=True)


class Worker:
    def __init__(self, tree: str, unit: str, seed: int):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update({v: "1" for v in BLAS_THREAD_VARS})
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", tree, unit, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        if self.proc.stdout.readline().strip() != "ready":
            raise SystemExit(f"the worker for {tree} did not start")

    def run(self) -> float:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def sign_test_p(slower: int, n: int) -> float:
    """Two-sided binomial p-value of `slower` of n pairs at probability 1/2."""
    k = max(slower, n - slower)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k, n + 1)) / 2 ** n)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:                # --worker TREE UNIT SEED
        tree, unit, seed = argv[1:]
        worker(tree, unit, int(seed))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_tree")
    parser.add_argument("b_tree")
    parser.add_argument("--unit", choices=sorted(UNITS), required=True)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=60)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {side: Worker(tree, args.unit, args.seed)
             for side, tree in (("A", args.a_tree), ("B", args.b_tree))}
    try:
        for _ in range(WARMUP):
            for w in sides.values():
                w.run()
        times = {"A": [], "B": []}
        for i in range(args.pairs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                times[side].append(sides[side].run())
    finally:
        for w in sides.values():
            w.close()
    a, b = np.array(times["A"]), np.array(times["B"])
    ratio = b / a
    slower, ties = int((ratio > 1).sum()), int((ratio == 1).sum())
    print(f"unit {args.unit}, {args.pairs} pairs after {WARMUP} warm-up units "
          "per tree, one BLAS thread")
    for side, tree, t in (("A", args.a_tree, a), ("B", args.b_tree, b)):
        print(f"{side} {tree}: median {np.median(t) * 1e3:.2f} ms "
              f"[{np.percentile(t, 25) * 1e3:.2f}, {np.percentile(t, 75) * 1e3:.2f}]")
    q1, q3 = np.percentile(ratio, [25, 75])
    print(f"B/A ratio: median {np.median(ratio):.4f} [IQR {q1:.4f}, {q3:.4f}]; "
          f"B slower in {slower} of {args.pairs} pairs; sign test p = "
          f"{sign_test_p(slower, args.pairs - ties):.2g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
