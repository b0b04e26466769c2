"""Metrics: task accuracy, concept completeness, missing-modality accuracy,
and cross-modal retrieval label agreement.

Completeness asks how much of the task the learned concepts alone can carry:
a decision tree fit on the training samples' binarized concept codes maps
code bits to labels, and completeness is one score, that tree's accuracy on
the test codes. Missing-modality accuracy substitutes the absent modality's
representation with its nearest stored training neighbor (queried from the
present modality) before predicting.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .config import MODALITIES, other_modality
from .data import as_arrays, translation_batch
from .explain import ConceptIndex, _nearest, concept_codes, substitute_matrix
from .tree import BinaryCodeTree


class _EncodedSamples(tuple):
    """Samples packed into one Batch once, with the model's eval
    logits and index spaces for them, each computed on first use.
    evaluate_model hands one to every metric helper it calls, so the test
    split is packed once and encoded once per batch; a helper given plain
    samples packs its own. A model with index spaces predicts from them,
    which is its eval forward: its head reads exactly those spaces."""

    def __new__(cls, model, samples, with_aux: bool):
        self = super().__new__(cls, samples)
        self.model = model
        self.batch = as_arrays(self, model.config.bijection, with_aux=with_aux)
        return self

    @functools.cached_property
    def logits(self) -> np.ndarray:
        if hasattr(self.model, "index_spaces"):
            return self.model.predict(self.spaces)
        return self.model.forward(self.batch, "eval")

    @functools.cached_property
    def spaces(self) -> dict:
        return self.model.index_spaces(self.batch)

    @functools.cached_property
    def aux_spaces(self) -> dict:
        """Index spaces of the translation batch (the aux rows swapped in)."""
        return self.model.index_spaces(translation_batch(self, packed=self.batch))


def _encoded(model, samples, with_aux: bool = False) -> _EncodedSamples:
    if isinstance(samples, _EncodedSamples):
        return samples
    return _EncodedSamples(model, samples, with_aux)


def accuracy(model, samples) -> float:
    """Fraction of samples whose argmax logit matches the global label."""
    enc = _encoded(model, samples)
    return float((enc.logits.argmax(axis=1) == enc.batch.y).mean())


def completeness(index: ConceptIndex, test_codes: np.ndarray,
                 test_labels: np.ndarray) -> float:
    """Decision-tree accuracy of binarized concept codes on the test split.

    The tree is fit on the training codes held by the index. Test codes never
    seen in training still route through the tree (codes are plain bit
    features), so the score stays well-defined.
    """
    if index.codes is None:
        raise ValueError("completeness needs a concept-based index")
    tree = BinaryCodeTree().fit(index.codes, index.global_labels)
    return float((tree.predict(test_codes) == test_labels).mean())


def model_codes(model, samples) -> tuple[np.ndarray, np.ndarray]:
    """Binarized concatenated representations plus global labels."""
    enc = _encoded(model, samples)
    return concept_codes(enc.spaces), enc.batch.y


def missing_modality_eval(model, index: ConceptIndex, samples,
                          missing_modality: str) -> float:
    """Score predictions when one modality's native rendering is unavailable.

    The missing modality's content arrives re-rendered in the present
    modality (the auxiliary input), is encoded there, and the nearest stored
    training vector from the missing modality's space stands in for it; the
    present modality keeps its own rendering.
    """
    present = other_modality(missing_modality)
    enc = _encoded(model, samples, with_aux=True)
    queries = enc.aux_spaces[present]   # the missing content, seen by the present encoder
    substituted, _ = substitute_matrix(index, queries, missing_modality)
    logits = model.predict({present: enc.spaces[present],
                            missing_modality: substituted})
    return float((logits.argmax(axis=1) == enc.batch.y).mean())


def retrieval_label_match(model, index: ConceptIndex, samples,
                          direction: tuple[str, str]) -> float:
    """Fraction of test queries whose top-1 cross-modal retrieval carries the
    same local label as the query does in its own modality."""
    source, target = direction
    if source == target:
        raise ValueError("retrieval direction must cross modalities")
    enc = _encoded(model, samples)
    rows, _ = _nearest(index.spaces[target], index.distinct[target], enc.spaces[source])
    retrieved = index.local_labels[target][rows]
    return float((retrieved == enc.batch.local[source]).mean())


def paired_shared_distance(model, samples) -> float:
    """Mean cross-modal Euclidean distance between a sample's own
    representations; the quantity the training regularizer pulls down."""
    spaces = _encoded(model, samples).spaces
    diff = spaces[MODALITIES[0]] - spaces[MODALITIES[1]]
    return float(np.sqrt((diff * diff).sum(axis=1)).mean())


# -- reports ---------------------------------------------------------------------

LEDGER_COLUMNS = ("model", "seed", "acc", "compl", "miss_m1", "miss_m2",
                  "retr_match")


@dataclass
class EvalReport:
    model_kind: str
    seed: int
    config_hash: str
    accuracy: float | None = None
    completeness: float | None = None
    missing: dict = field(default_factory=dict)      # modality -> accuracy
    retrieval: dict = field(default_factory=dict)    # "source->target" -> rate

    def validate(self) -> None:
        for v in [self.accuracy, self.completeness, *self.missing.values(),
                  *self.retrieval.values()]:
            if v is not None and not 0 <= v <= 1:
                raise ValueError("metrics must be fractions in [0, 1]")

    @property
    def retrieval_mean(self) -> float | None:
        if not self.retrieval:
            return None
        return float(np.mean(list(self.retrieval.values())))

    def to_dict(self) -> dict:
        return {
            "model": self.model_kind,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "accuracy": self.accuracy,
            "completeness": self.completeness,
            "missing_modality": self.missing,
            "retrieval_label_match": self.retrieval,
            "retrieval_label_match_mean": self.retrieval_mean,
        }

    def save_json(self, path: str) -> None:
        self.validate()
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)

    def ledger_row(self) -> dict:
        def fmt(v):
            return "" if v is None else f"{v:.6f}"
        return {
            "model": self.model_kind,
            "seed": self.seed,
            "acc": fmt(self.accuracy),
            "compl": fmt(self.completeness),
            "miss_m1": fmt(self.missing.get("graph")),
            "miss_m2": fmt(self.missing.get("tabular")),
            "retr_match": fmt(self.retrieval_mean),
        }


def append_ledger(report: EvalReport, path: str) -> None:
    """One CSV row per evaluation, fixed column order, a header in a new or empty file."""
    report.validate()
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LEDGER_COLUMNS)
        if fh.tell() == 0:
            writer.writeheader()
        writer.writerow(report.ledger_row())


METRICS = ("accuracy", "completeness", "missing", "retrieval")


def evaluate_model(model, index: ConceptIndex | None, split, config_hash: str,
                   metrics=METRICS) -> EvalReport:
    """Run the requested metric set; metrics needing an index are skipped
    (reported as None) when the model has no representation space.

    The metrics share one packing of the test split and one encoding each of
    the own and the translation batch."""
    report = EvalReport(model_kind=model.kind, seed=model.config.seed,
                        config_hash=config_hash)
    indexable = index is not None and hasattr(model, "index_spaces")
    test = _EncodedSamples(model, split.test,
                           with_aux=indexable and "missing" in metrics)
    if "accuracy" in metrics:
        report.accuracy = accuracy(model, test)
    if "completeness" in metrics and indexable and getattr(model, "concept_based", False):
        codes, labels = model_codes(model, test)
        report.completeness = completeness(index, codes, labels)
    if "missing" in metrics and indexable:
        for mod in MODALITIES:
            report.missing[mod] = missing_modality_eval(model, index, test, mod)
    if "retrieval" in metrics and indexable:
        for source in MODALITIES:
            target = other_modality(source)
            report.retrieval[f"{source}->{target}"] = retrieval_label_match(
                model, index, test, (source, target))
    report.validate()
    return report
