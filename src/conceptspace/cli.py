"""Command-line harness: generate / train / eval / explain / reproduce.

Exit codes: 0 success, 1 usage error (including a --workers below 1 or a
repeated seed in reproduce --seeds), 2 I/O failure or a malformed dataset
file (e.g. a bit or an edge endpoint that is not an integer, or a node
feature that is not a finite number), 3 configuration or model/regime
mismatch (e.g. an integer field holding a fraction or a boolean, a number
field that is not finite, a string field holding something else, or not one
loss.betas weight per modality; loss.betas above 0 outside end_to_end or on
a baseline; local_pretrain or loss.betas above 0 without
use_local_supervision) or diverged training (a loss or test logit that is
not finite), 4 checkpoint/dataset mismatch (e.g. a checkpoint manifest that
is not a JSON object, or eval or explain on a checkpoint of an untrained
model), 5 explanation-domain error (e.g. a concept code no training sample
carries), 6 a reproduce run whose overall verdict is FAIL, after it has
written its table, its lines and reproduce_results.json. A seed list shorter
than 4 always fails, because the completeness line needs 4 wins.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import sys
from dataclasses import replace
from math import inf

import numpy as np

from .baselines import BASELINE_KINDS, build_baseline, train_baseline
from .config import MODALITIES, REGIMES, ExperimentConfig, load_config, other_modality
from .data import generate_xor_and_xor, load_dataset, save_dataset, split
from .errors import (
    CheckpointMismatchError,
    ConfigurationError,
    DatasetError,
    NoSuchConceptError,
)
from .evaluation import METRICS, append_ledger, evaluate_model
from .explain import (
    Explanation,
    build_index,
    cross_modal_retrieve,
    encode_samples,
    neighborhood,
    prototype,
    save_explanation,
    save_pca_csv,
    substitute_missing,
)
from .model import SharedConceptModel, load_model, save_model
from .rng import substream
from .training import needs_local_heads, save_history, train

MODEL_KINDS = ("shared",) + BASELINE_KINDS

# (name, getter) of each metric reproduce reports, in table order
_COLUMNS = (
    ("acc", lambda r: r["accuracy"]),
    ("compl", lambda r: r["completeness"]),
    ("miss_graph", lambda r: r["missing_modality"].get("graph")),
    ("miss_tab", lambda r: r["missing_modality"].get("tabular")),
    ("retr", lambda r: r["retrieval_label_match_mean"]),
)

# (kind, metric, low, high): the 5-seed mean must lie in [low, high]; the
# per-seed orderings are checked separately in _acceptance_lines.
_MEAN_BOUNDS = (
    ("shared", "acc", 0.97, inf), ("shared", "compl", 0.93, inf),
    ("shared", "miss_graph", 0.95, inf), ("shared", "miss_tab", 0.88, inf),
    ("shared", "retr", 0.90, inf),
    ("mod_graph", "acc", -inf, 0.80), ("mod_tabular", "acc", -inf, 0.80),
    ("cbm_graph", "acc", -inf, 0.80), ("cbm_tabular", "acc", -inf, 0.80),
    ("simple", "acc", 0.97, inf), ("concept", "acc", 0.97, inf),
    ("relative", "acc", 0.97, inf), ("relative", "miss_graph", 0.65, 0.92),
)


def _load_cfg(args) -> ExperimentConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if args.config:
        return load_config(args.config, **overrides)
    return ExperimentConfig().with_overrides(**overrides)


def _generate(cfg: ExperimentConfig):
    return generate_xor_and_xor(cfg.n_samples, cfg.seed, cfg.random_edge_max,
                                cfg.bijection)


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    samples = _generate(cfg)
    out = args.out or "dataset.json"
    save_dataset(samples, out, seed=cfg.seed, random_edge_max=cfg.random_edge_max,
                 bijection=cfg.bijection)
    pos = sum(s.global_label for s in samples)
    print(f"wrote {len(samples)} samples to {out}")
    print(f"global positive rate: {pos / len(samples):.3f}")
    return 0


def _train_one(cfg: ExperimentConfig, samples, kind: str):
    """Build, split and train one model; returns (model, split, history)."""
    ds = split(samples, cfg.split_ratio, cfg.seed)
    if kind == "shared":
        model = SharedConceptModel(cfg, substream(cfg.seed, "init"),
                                   with_local_heads=needs_local_heads(cfg))
        _, history = train(model, ds, cfg)
    elif kind in BASELINE_KINDS:
        model = build_baseline(kind, cfg)
        history = train_baseline(model, ds, cfg)
    else:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    return model, ds, history


def _matching_dataset(path: str, cfg: ExperimentConfig, error):
    """The dataset's samples; raises `error` unless it is the one `cfg` describes."""
    samples, header = load_dataset(path)
    fp = cfg.dataset_fingerprint()
    got = {k: header[k] for k in fp}
    if got != fp:
        raise error(f"dataset is {got}, but the config describes {fp}")
    return samples


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    if args.regime:
        cfg = cfg.with_overrides(plan=replace(cfg.plan, regime=args.regime))
    if args.local_supervision:
        cfg = cfg.with_overrides(use_local_supervision=True)
    samples = _matching_dataset(args.dataset, cfg, ConfigurationError)
    model, _, history = _train_one(cfg, samples, args.model)
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.model}_seed{cfg.seed}"
    save_model(model, os.path.join(out_dir, f"{stem}.ckpt"))
    save_history(history, os.path.join(out_dir, f"{stem}_history.csv"))
    print(f"final test accuracy: {history[-1]['test_accuracy']:.4f}")
    return 0


def _load_pair(ckpt_path: str, dataset_path: str):
    model = load_model(ckpt_path)
    if not model.trained:
        raise CheckpointMismatchError(
            f"checkpoint {ckpt_path} holds an untrained {model.kind} model")
    samples = _matching_dataset(dataset_path, model.config, CheckpointMismatchError)
    return model, split(samples, model.config.split_ratio, model.config.seed)


def _evaluate(model, ds, config_hash: str, metrics=METRICS):
    """Index the training split if the model has a space to index, then evaluate."""
    index = build_index(model, ds.train) if hasattr(model, "index_spaces") else None
    return evaluate_model(model, index, ds, config_hash, metrics)


def cmd_eval(args) -> int:
    model, ds = _load_pair(args.checkpoint, args.dataset)
    report = _evaluate(model, ds, model.config.hash(), args.metrics)
    out_dir = args.out or model.config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{model.kind}_seed{model.config.seed}"
    report.save_json(os.path.join(out_dir, f"{stem}_report.json"))
    append_ledger(report, os.path.join(out_dir, "results.csv"))
    for key, value in report.to_dict().items():
        if key not in ("model", "seed", "config_hash"):
            print(f"{key}: {value}")
    return 0


def _find_sample(samples, sample_id: int):
    try:
        return {s.id: s for s in samples}[sample_id]
    except KeyError:
        raise ConfigurationError(f"sample id {sample_id} not in dataset") from None


def cmd_explain(args) -> int:
    model, ds = _load_pair(args.checkpoint, args.dataset)
    if not hasattr(model, "index_spaces"):
        raise ConfigurationError(f"a {model.kind} model has no concept space to explain")
    index = build_index(model, ds.train)
    sub = args.subcommand
    if sub == "prototype" and index.codes is None:
        raise ConfigurationError(f"a {model.kind} model has no concept codes")
    out_dir = args.out or model.config.out_dir
    os.makedirs(out_dir, exist_ok=True)

    if sub == "embedding":
        path = os.path.join(out_dir, "embedding_pca.csv")
        save_pca_csv(index, path)
        print(f"wrote {path}")
        return 0

    if sub == "prototype":
        width = index.codes.shape[1]
        if len(args.code) != width:
            raise NoSuchConceptError(f"--code has {len(args.code)} bits; this "
                                     f"checkpoint's concept codes have {width}")
        sample_id = prototype(index, [int(c) for c in args.code])
        expl_path = os.path.join(out_dir, f"prototype_{args.code}.json")
        with open(expl_path, "w") as fh:
            json.dump({"kind": "prototype", "code": args.code,
                       "sample_id": sample_id}, fh, indent=2)
        print(f"prototype of {args.code}: sample {sample_id}")
        return 0

    query = _find_sample((*ds.train, *ds.test), args.sample_id)
    vecs = encode_samples(model, [query])
    modality = args.modality

    if sub == "neighborhood":
        expl = neighborhood(index, vecs[modality][0], modality, args.radius,
                            query_id=query.id)
    elif sub == "crossmodal":
        kw = {"top_k": args.top_k} if args.radius is None else {"radius": args.radius}
        expl = cross_modal_retrieve(index, vecs[modality][0], modality,
                                    query_id=query.id, **kw)
    elif sub == "substitute":
        missing = other_modality(modality)
        _, retrieved, dist = substitute_missing(model, index, vecs[modality][0],
                                                modality, missing)
        expl = Explanation("substitution", query.id, modality,
                           [(retrieved, missing, dist)],
                           {"present": modality, "missing": missing})
    else:
        raise ConfigurationError(f"unknown explain subcommand {sub!r}")

    path = os.path.join(out_dir, f"{sub}_{query.id}.json")
    save_explanation(expl, path)
    print(f"wrote {path} ({len(expl.results)} results)")
    return 0


# -- reproduce -------------------------------------------------------------------

def _reproduce_job(cfg_dict: dict, kind: str, seed: int) -> dict:
    cfg = ExperimentConfig.from_dict(cfg_dict).with_overrides(seed=seed)
    model, ds, _ = _train_one(cfg, _generate(cfg), kind)
    return _evaluate(model, ds, cfg.hash()).to_dict()


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.array(values, dtype=float)
    stderr = arr.std(ddof=1) / np.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return float(arr.mean()), float(stderr)


def _acceptance_lines(by_kind: dict) -> list[tuple[str, bool, str]]:
    lines = []
    getters = dict(_COLUMNS)
    acc, compl, miss_g, miss_t, retr = getters.values()
    for kind, name, low, high in _MEAN_BOUNDS:
        if kind in by_kind:
            value = _mean_stderr([getters[name](r) for r in by_kind[kind]])[0]
            lines.append((f"{kind} mean {name}", low <= value <= high, f"{value:.4f}"))
    if "shared" in by_kind:
        per_seed = [acc(r) for r in by_kind["shared"]]
        lines.append(("shared per-seed acc >= 0.95", min(per_seed) >= 0.95,
                      f"min {min(per_seed):.4f}"))
    if "shared" in by_kind and "concept" in by_kind:
        s, c = by_kind["shared"], by_kind["concept"]
        wins = sum(compl(a) > compl(b) for a, b in zip(s, c))
        lines.append(("shared compl beats concept in >=4/5 seeds", wins >= 4,
                      f"{wins}/{len(s)}"))
        both = all(miss_g(a) > miss_g(b) and miss_t(a) > miss_t(b)
                   for a, b in zip(s, c))
        lines.append(("shared beats concept on missing modality every seed",
                      both, ""))
        retr_wins = all(retr(a) > retr(b) for a, b in zip(s, c))
        lines.append(("shared retrieval match beats concept every seed",
                      retr_wins, ""))
    return lines


def cmd_reproduce(args) -> int:
    cfg = _load_cfg(args)
    seeds = args.seeds
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(kind, seed) for kind in MODEL_KINDS for seed in seeds]
    with (concurrent.futures.ProcessPoolExecutor(max_workers=args.workers)
          if args.workers > 1 else contextlib.nullcontext()) as pool:
        results = dict(zip(jobs, (pool.map if pool else map)(
            _reproduce_job, [cfg.to_dict()] * len(jobs), *zip(*jobs))))

    by_kind = {kind: [results[(kind, seed)] for seed in seeds]
               for kind in MODEL_KINDS}
    with open(os.path.join(out_dir, "reproduce_results.json"), "w") as fh:
        json.dump({"seeds": seeds, "reports": {k: v for k, v in by_kind.items()}},
                  fh, indent=2, sort_keys=True)

    def cell(values):
        if any(v is None for v in values):
            return "-"
        m, se = _mean_stderr(values)
        return f"{100 * m:.1f} +/- {100 * se:.1f}"

    header = f"{'model':<12}" + "".join(f" {name.replace('_', ' '):>14}"
                                        for name, _ in _COLUMNS)
    print(header)
    print("-" * len(header))
    for kind in MODEL_KINDS:
        print(f"{kind:<12}" + "".join(f" {cell([get(r) for r in by_kind[kind]]):>14}"
                                      for _, get in _COLUMNS))
    print()
    all_ok = True
    for name, ok, detail in _acceptance_lines(by_kind):
        print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
        all_ok &= ok
    print("overall:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 6


# -- parser ----------------------------------------------------------------------

# options each explain query needs beyond --checkpoint and --dataset
_EXPLAIN_NEEDS = {
    "prototype": ("code",),
    "neighborhood": ("sample_id", "modality", "radius"),
    "crossmodal": ("sample_id", "modality"),
    "substitute": ("sample_id", "modality"),
    "embedding": (),
}


def _checked(convert, ok, what: str):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptspace",
        description="shared-concept-space multimodal learning harness")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="root seed override")
    parser.add_argument("--out", help="output file or directory")
    parser.add_argument("--workers", default=1, help="parallel worker processes (reproduce)",
                        type=_checked(int, lambda v: v >= 1, "a positive integer"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="write a dataset JSON file")

    p_train = sub.add_parser("train", help="train a model on a dataset")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--model", required=True, choices=MODEL_KINDS)
    p_train.add_argument("--regime", choices=REGIMES)
    p_train.add_argument("--local-supervision", action="store_true",
                         help="expose local labels (off by default)")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--metrics", default=METRICS, type=_checked(
        lambda t: tuple(t.split(",")), lambda v: set(v) <= set(METRICS),
        f"a comma list of {','.join(METRICS)}"))

    p_expl = sub.add_parser("explain", help="export explanation artifacts")
    p_expl.add_argument("subcommand", choices=tuple(_EXPLAIN_NEEDS))
    p_expl.add_argument("--checkpoint", required=True)
    p_expl.add_argument("--dataset", required=True)
    p_expl.add_argument("--code", help="bit string for prototype queries",
                        type=_checked(str, lambda v: set(v) <= {"0", "1"},
                                      "a string of 0s and 1s"))
    p_expl.add_argument("--sample-id", type=int)
    p_expl.add_argument("--modality", choices=MODALITIES)
    p_expl.add_argument("--radius", type=_checked(float, lambda v: v >= 0,
                                                  "a nonnegative number"))
    p_expl.add_argument("--top-k", default=5, type=_checked(int, lambda v: v >= 1,
                                                            "a positive integer"))

    p_rep = sub.add_parser("reproduce", help="run every model over a seed list")
    p_rep.add_argument("--seeds", default="0,1,2,3,4", type=_checked(
        lambda t: [int(s) for s in t.split(",")],
        lambda v: min(v) >= 0 and len(set(v)) == len(v),
        "a comma list of distinct nonnegative integers"))
    return parser


# (exception type, exit code) of each documented failure, matched in order
_EXIT_CODES = ((NoSuchConceptError, 5), (CheckpointMismatchError, 4), (ConfigurationError, 3),
               (OSError, 2), (UnicodeDecodeError, 2), (json.JSONDecodeError, 2),
               (DatasetError, 2))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "explain":
            missing = [f"--{name.replace('_', '-')}"
                       for name in _EXPLAIN_NEEDS[args.subcommand]
                       if getattr(args, name) is None]
            if missing:
                parser.error(f"explain {args.subcommand} requires {', '.join(missing)}")
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    handlers = {
        "generate": cmd_generate,
        "train": cmd_train,
        "eval": cmd_eval,
        "explain": cmd_explain,
        "reproduce": cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except tuple(t for t, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for t, code in _EXIT_CODES if isinstance(exc, t))


def entry() -> None:
    sys.exit(main())
