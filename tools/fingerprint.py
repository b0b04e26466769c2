"""Print sha256 fingerprints of the artifacts every model kind produces.

Ten jobs: the shared model under its three regimes and the seven baselines,
at seed 0 with n_samples=300 and TrainPlan(epochs=4, phase2_epochs=4)
(local_pretrain also sets use_local_supervision). Each job is built and
trained by cli._train_one, then its checkpoint and history CSV are written
and the checkpoint is reloaded and evaluated as `conceptspace eval` does.
One line per job gives the sha256 of the checkpoint, the history CSV and the
eval report.

Run from the root of a checkout; it imports the `src/` next to it, so the
same script fingerprints any two commits:

    python tools/fingerprint.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from conceptspace.baselines import BASELINE_KINDS
from conceptspace.cli import _generate, _train_one
from conceptspace.config import ExperimentConfig, TrainPlan
from conceptspace.evaluation import evaluate_model
from conceptspace.explain import build_index
from conceptspace.model import load_model, save_model
from conceptspace.training import save_history

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


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        for kind, regime in JOBS:
            hashes = fingerprint(kind, regime, out_dir)
            print(f"{kind}/{regime}", *hashes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
