"""Experiment configuration: every hyperparameter in one serializable record.

The config travels verbatim inside checkpoints, dataset files and reports, so
any artifact can be traced back to the exact settings that produced it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigurationError

FORMAT_VERSION = 1

REGIMES = ("end_to_end", "sequential", "local_pretrain")
DISTANCE_FILTERS = ("all", "positive")
BIJECTIONS = ("default", "swapped")

# Fixed modality order; concatenations, checkpoints and reports all follow it.
MODALITIES = ("graph", "tabular")


def other_modality(modality: str) -> str:
    others = [m for m in MODALITIES if m != modality]
    if len(others) != 1:
        raise ValueError(f"unknown modality {modality!r}")
    return others[0]


def is_integer(value) -> bool:
    """An int that is not a bool (JSON true and false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """An int that is not a bool, or a float, within the finite float range."""
    return ((is_integer(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max)


def _check_types(record) -> None:
    """Every int field of a config dataclass holds an integer, every float
    field a finite real number (an integer will do), every bool field a bool
    and every str field a string."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be true or false, not {value!r}")
        if f.type == "int" and not is_integer(value):
            raise ValueError(f"{f.name} must be an integer, not {value!r}")
        if f.type == "float" and not is_finite_real(value):
            raise ValueError(f"{f.name} must be a finite number, not {value!r}")
        if f.type == "str" and not isinstance(value, str):
            raise ValueError(f"{f.name} must be a string, not {value!r}")


@dataclass
class LossConfig:
    """Objective weights: task term + distance regularizer + optional local terms."""

    lam: float = 0.1                  # strength of the cross-modal distance term
    betas: tuple[float, float] = (0.0, 0.0)   # per-modality local-loss strengths
    sample_fraction: float = 0.1      # fraction of each batch used for the distance term
    distance_filter: str = "all"      # "all" or "positive" (keep only positive-label samples)

    def validate(self) -> None:
        _check_types(self)
        if len(self.betas) != len(MODALITIES) or not all(map(is_finite_real, self.betas)):
            raise ValueError(f"betas must be one finite number per modality {MODALITIES}")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if any(b < 0 for b in self.betas):
            raise ValueError("betas must be nonnegative")
        if not 0 < self.sample_fraction <= 1:
            raise ValueError("sample_fraction must be in (0, 1]")
        if self.distance_filter not in DISTANCE_FILTERS:
            raise ValueError(f"distance_filter must be one of {DISTANCE_FILTERS}")


@dataclass
class TrainPlan:
    """Which regime to run and for how long."""

    regime: str = "end_to_end"
    epochs: int = 150                 # single phase, or phase 1 of two-phase regimes
    phase2_epochs: int = 150          # phase 2; also the relative model's head stage
    learning_rate: float = 1e-3
    batch_size: int = 64

    def validate(self) -> None:
        _check_types(self)
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        if self.epochs <= 0 or self.phase2_epochs <= 0:
            raise ValueError("epoch counts must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 2:
            raise ValueError("training batch_size must be at least 2")


@dataclass
class ExperimentConfig:
    # dataset
    n_samples: int = 1000
    split_ratio: float = 0.8
    random_edge_max: int = 2
    bijection: str = "default"
    use_local_supervision: bool = False
    # architecture
    local_width: int = 7              # concepts per modality
    shared_width: int = 8             # shared-space dimension
    dense_hidden: int = 30
    graph_hidden: int = 30
    graph_layers: int = 5
    projector_hidden: int = 8
    head_hidden: int = 10
    n_classes: int = 2                # must be 2: every label is binary
    tau: float = 1.0                  # straight-through softmax temperature
    leaky_slope: float = 0.01
    rescale_momentum: float = 0.1
    rescale_eps: float = 1e-5
    # training / baselines
    seed: int = 0
    plan: TrainPlan = field(default_factory=TrainPlan)
    loss: LossConfig = field(default_factory=LossConfig)
    anchor_count: int = 50
    out_dir: str = "."               # flags > file > this default

    def validate(self) -> None:
        _check_types(self)
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if not 0 < self.split_ratio < 1:
            raise ValueError("split_ratio must be in (0, 1)")
        if self.random_edge_max < 0:
            raise ValueError("random_edge_max must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.bijection not in BIJECTIONS:
            raise ValueError(f"bijection must be one of {BIJECTIONS}")
        for name in ("local_width", "shared_width", "dense_hidden", "graph_hidden",
                     "graph_layers", "projector_hidden", "head_hidden", "anchor_count"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.n_classes != 2:
            raise ValueError("n_classes must be 2: every label is binary")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        n_train = round(self.n_samples * self.split_ratio)   # as data.split counts
        if n_train < 2 or n_train == self.n_samples:
            raise ValueError(f"split_ratio leaves {n_train} of {self.n_samples} samples "
                             "to train; at least 2 must train and 1 must test")
        if self.anchor_count > n_train:
            raise ValueError("anchor_count cannot exceed the training split size")
        if not 0 < self.rescale_momentum <= 1:
            raise ValueError("rescale_momentum must be in (0, 1]")
        if self.rescale_eps <= 0:
            raise ValueError("rescale_eps must be positive")
        self.plan.validate()
        self.loss.validate()

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["loss"]["betas"] = list(self.loss.betas)
        d["version"] = FORMAT_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Raises ConfigurationError for an unknown field or an invalid value."""
        try:
            d = dict(d)
            version = d.pop("version", FORMAT_VERSION)
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported config version {version}")
            plan = TrainPlan(**d.pop("plan", {}))
            loss_d = dict(d.pop("loss", {}))
            if "betas" in loss_d:
                loss_d["betas"] = tuple(loss_d["betas"])
            loss = LossConfig(**loss_d)
            cfg = cls(plan=plan, loss=loss, **d)
            cfg.validate()
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid config: {exc}") from exc
        return cfg

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy with top-level fields replaced (flags > file > defaults).
        Raises ConfigurationError for an invalid value."""
        cfg = replace(self, **kwargs)
        try:
            cfg.validate()
        except ValueError as exc:
            raise ConfigurationError(f"invalid config: {exc}") from exc
        return cfg

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def dataset_fingerprint(self) -> dict:
        """The fields that identify a generated dataset."""
        return {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "random_edge_max": self.random_edge_max,
            "bijection": self.bijection,
        }


def load_config(path: str, **overrides) -> ExperimentConfig:
    with open(path) as fh:
        d = json.load(fh)
    return ExperimentConfig.from_dict(d).with_overrides(**overrides)
