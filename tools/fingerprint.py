"""Print sha256 fingerprints of the artifacts every model kind produces.

Eleven jobs: the shared model under its three regimes, the shared model
end to end with local losses (loss.betas (0.3, 0.3), named
shared/end_to_end_local), and the seven baselines, at seed 0 with
n_samples=300 and TrainPlan(epochs=4, phase2_epochs=4) (local_pretrain and
the local-loss job also set use_local_supervision). Each job is built and
trained by cli._train_one, then its checkpoint and history CSV are written
and the checkpoint is reloaded and evaluated as `conceptspace eval` does.
One line per job gives the sha256 of the checkpoint, the history CSV and the
eval report.

One more line covers the read path of the trained checkpoint the benchmark
ships, bench/fixture/shared_seed0.ckpt, over the dataset regenerated from its
config: the sha256 of the raw bytes of its build_index spaces, of its eval
report JSON, and of encode_samples over its test split. A last line covers
the explanation queries over the same index: the sha256 of the JSON of every
result of a fixed query set. Each test sample, encoded in each modality, asks
for its neighborhood at radius 0.3, its cross-modal top 5, its cross-modal
neighbors within 0.4 and its substitute in the other modality; then every
code the index holds asks for its prototype. The fixture is only read.

Two more lines follow. `dataset/seed0` gives the sha256 of the save_dataset
bytes of the datasets of seeds 0 and 3 (n_samples=300) under both bijections,
and the sha256 of the same files loaded with load_dataset and saved again; the
two are equal when the round trip is lossless. `embedding/shared_seed0` gives
the sha256 of the fixture index's 2-D PCA export (save_pca_csv).

`batches/seed0` gives the sha256 of every field (name, dtype, shape and
bytes of each array, repr of the ids) of the batches the seed-0 dataset
(n_samples=300) is packed into under each bijection: its whole_batch, its
translation_batch and one training pass of batches() over its whole_batch
(shuffled by default_rng(0), trailing singleton dropped).

Run from the root of a checkout; it imports the `src/` next to it, so the
same script fingerprints any two commits that have `cli._evaluate`:

    python tools/fingerprint.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from conceptspace.baselines import BASELINE_KINDS
from conceptspace.cli import _evaluate, _generate, _train_one
from conceptspace.config import BIJECTIONS, MODALITIES, ExperimentConfig, TrainPlan
from conceptspace.data import (
    batches,
    load_dataset,
    save_dataset,
    split,
    translation_batch,
    whole_batch,
)
from conceptspace.evaluation import evaluate_model
from conceptspace.explain import (
    build_index,
    cross_modal_retrieve,
    encode_samples,
    neighborhood,
    prototype,
    save_pca_csv,
    substitute_missing,
)
from conceptspace.model import load_model, save_model
from conceptspace.training import save_history

FIXTURE = os.path.join(ROOT, "bench", "fixture", "shared_seed0.ckpt")
# (kind, regime, loss.betas) of each trained job
JOBS = (("shared", "end_to_end", (0.0, 0.0)), ("shared", "sequential", (0.0, 0.0)),
        ("shared", "local_pretrain", (0.0, 0.0)), ("shared", "end_to_end", (0.3, 0.3)),
        *((kind, "end_to_end", (0.0, 0.0)) for kind in BASELINE_KINDS))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def job_name(kind: str, regime: str, betas: tuple) -> str:
    return f"{kind}/{regime}" + ("_local" if any(betas) else "")


def fingerprint(kind: str, regime: str, betas: tuple, out_dir: str) -> tuple[str, str, str]:
    base = ExperimentConfig(seed=0, n_samples=300,
                            plan=TrainPlan(epochs=4, phase2_epochs=4))
    cfg = base.with_overrides(plan=replace(base.plan, regime=regime),
                              loss=replace(base.loss, betas=betas),
                              use_local_supervision=(regime == "local_pretrain"
                                                     or any(betas)))
    model, ds, history = _train_one(cfg, _generate(cfg), kind)
    stem = os.path.join(out_dir, job_name(kind, regime, betas).replace("/", "_"))
    ckpt = f"{stem}.ckpt"
    csv_path = f"{stem}_history.csv"
    report_path = f"{stem}_report.json"
    save_model(model, ckpt)
    save_history(history, csv_path)
    _evaluate(load_model(ckpt), ds, cfg.hash()).save_json(report_path)
    return _sha256(ckpt), _sha256(csv_path), _sha256(report_path)


def fingerprint_datasets(out_dir: str) -> tuple[str, str]:
    saved, resaved = hashlib.sha256(), hashlib.sha256()
    path = os.path.join(out_dir, "dataset.json")
    for seed in (0, 3):
        for bijection in BIJECTIONS:
            cfg = ExperimentConfig(seed=seed, n_samples=300, bijection=bijection)
            save_dataset(_generate(cfg), path, seed=seed,
                         random_edge_max=cfg.random_edge_max, bijection=bijection)
            with open(path, "rb") as fh:
                saved.update(fh.read())
            samples, header = load_dataset(path)
            save_dataset(samples, path, seed=header["seed"],
                         random_edge_max=header["random_edge_max"],
                         bijection=header["bijection"])
            with open(path, "rb") as fh:
                resaved.update(fh.read())
    return saved.hexdigest(), resaved.hexdigest()


def _batch_update(digest, batch) -> None:
    for f in fields(batch):
        value = getattr(batch, f.name)
        for key, part in value.items() if isinstance(value, dict) else [("", value)]:
            digest.update(f"{f.name}{key}".encode())
            if isinstance(part, np.ndarray):
                digest.update(f"{part.dtype}{part.shape}".encode() + part.tobytes())
            else:
                digest.update(repr(part).encode())


def fingerprint_batches() -> str:
    digest = hashlib.sha256()
    for bijection in BIJECTIONS:
        cfg = ExperimentConfig(seed=0, n_samples=300, bijection=bijection)
        samples = _generate(cfg)
        for batch in (whole_batch(samples, bijection=bijection),
                      translation_batch(samples, bijection),
                      *batches(whole_batch(samples, bijection=bijection),
                               cfg.plan.batch_size, np.random.default_rng(0))):
            _batch_update(digest, batch)
    return digest.hexdigest()


def _spaces_sha256(spaces: dict) -> str:
    digest = hashlib.sha256()
    for m in MODALITIES:
        digest.update(spaces[m].tobytes())
    return digest.hexdigest()


def _json_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, indent=2).encode()).hexdigest()


def fingerprint_read_path(model, ds, index) -> tuple[str, str, str]:
    report = evaluate_model(model, index, ds, model.config.hash()).to_dict()
    return (_spaces_sha256(index.spaces), _json_sha256(report),
            _spaces_sha256(encode_samples(model, ds.test)))


def fingerprint_queries(model, ds, index) -> str:
    vecs = encode_samples(model, ds.test)
    results = []
    for k in range(len(ds.test)):
        for mod, other in (MODALITIES, MODALITIES[::-1]):
            query = vecs[mod][k]
            vec, sample_id, dist = substitute_missing(model, index, query, mod, other)
            results += [neighborhood(index, query, mod, 0.3).to_dict(),
                        cross_modal_retrieve(index, query, mod, top_k=5).to_dict(),
                        cross_modal_retrieve(index, query, mod, radius=0.4).to_dict(),
                        [vec.tolist(), sample_id, dist]]
    results += [prototype(index, code) for code in np.unique(index.codes, axis=0)]
    return _json_sha256(results)


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        for kind, regime, betas in JOBS:
            print(job_name(kind, regime, betas), *fingerprint(kind, regime, betas, out_dir))
        model = load_model(FIXTURE)
        ds = split(_generate(model.config), model.config.split_ratio, model.config.seed)
        index = build_index(model, ds.train)
        print("read_path/shared_seed0", *fingerprint_read_path(model, ds, index))
        print("queries/shared_seed0", fingerprint_queries(model, ds, index))
        print("dataset/seed0", *fingerprint_datasets(out_dir))
        pca_path = os.path.join(out_dir, "embedding_pca.csv")
        save_pca_csv(index, pca_path)
        print("embedding/shared_seed0", _sha256(pca_path))
    print("batches/seed0", fingerprint_batches())
    return 0


if __name__ == "__main__":
    sys.exit(main())
