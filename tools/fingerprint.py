"""Print sha256 fingerprints of the artifacts every model kind produces.

Ten jobs: the shared model under its three regimes and the seven baselines,
at seed 0 with n_samples=300 and TrainPlan(epochs=4, phase2_epochs=4)
(local_pretrain also sets use_local_supervision). Each job is built and
trained by cli._train_one, then its checkpoint and history CSV are written
and the checkpoint is reloaded and evaluated as `conceptspace eval` does.
One line per job gives the sha256 of the checkpoint, the history CSV and the
eval report.

One more line covers the read path of the trained checkpoint the benchmark
ships, bench/fixture/shared_seed0.ckpt, over the dataset regenerated from its
config: the sha256 of the raw bytes of its build_index spaces, of its eval
report JSON, and of encode_samples over its test split. The fixture is only
read.

Run from the root of a checkout; it imports the `src/` next to it, so the
same script fingerprints any two commits:

    python tools/fingerprint.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from conceptspace.baselines import BASELINE_KINDS
from conceptspace.cli import _generate, _train_one
from conceptspace.config import MODALITIES, ExperimentConfig, TrainPlan
from conceptspace.data import split
from conceptspace.evaluation import evaluate_model
from conceptspace.explain import build_index, encode_samples
from conceptspace.model import load_model, save_model
from conceptspace.training import save_history

FIXTURE = os.path.join(ROOT, "bench", "fixture", "shared_seed0.ckpt")
JOBS = (("shared", "end_to_end"), ("shared", "sequential"),
        ("shared", "local_pretrain"),
        *((kind, "end_to_end") for kind in BASELINE_KINDS))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def fingerprint(kind: str, regime: str, out_dir: str) -> tuple[str, str, str]:
    base = ExperimentConfig(seed=0, n_samples=300,
                            plan=TrainPlan(epochs=4, phase2_epochs=4))
    cfg = base.with_overrides(plan=replace(base.plan, regime=regime),
                              use_local_supervision=(regime == "local_pretrain"))
    model, ds, history = _train_one(cfg, _generate(cfg), kind)
    ckpt = os.path.join(out_dir, f"{kind}_{regime}.ckpt")
    csv_path = os.path.join(out_dir, f"{kind}_{regime}_history.csv")
    report_path = os.path.join(out_dir, f"{kind}_{regime}_report.json")
    save_model(model, ckpt)
    save_history(history, csv_path)
    loaded = load_model(ckpt)
    index = build_index(loaded, ds.train) if hasattr(loaded, "index_spaces") else None
    evaluate_model(loaded, index, ds, cfg.hash()).save_json(report_path)
    return _sha256(ckpt), _sha256(csv_path), _sha256(report_path)


def _spaces_sha256(spaces: dict) -> str:
    digest = hashlib.sha256()
    for m in MODALITIES:
        digest.update(spaces[m].tobytes())
    return digest.hexdigest()


def fingerprint_read_path(path: str) -> tuple[str, str, str]:
    model = load_model(path)
    cfg = model.config
    ds = split(_generate(cfg), cfg.split_ratio, cfg.seed)
    index = build_index(model, ds.train)
    report = evaluate_model(model, index, ds, cfg.hash()).to_dict()
    report_json = json.dumps(report, sort_keys=True, indent=2).encode()
    return (_spaces_sha256(index.spaces), hashlib.sha256(report_json).hexdigest(),
            _spaces_sha256(encode_samples(model, ds.test)))


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        for kind, regime in JOBS:
            hashes = fingerprint(kind, regime, out_dir)
            print(f"{kind}/{regime}", *hashes)
    print("read_path/shared_seed0", *fingerprint_read_path(FIXTURE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
