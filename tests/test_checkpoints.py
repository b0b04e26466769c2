"""Checkpoints of every model kind: exact round trips and strict loading."""

import json
import struct

import numpy as np
import pytest

from conceptspace.baselines import BASELINE_KINDS, build_baseline, train_baseline
from conceptspace.config import ExperimentConfig, TrainPlan
from conceptspace.data import generate_xor_and_xor, split, whole_batch
from conceptspace.errors import CheckpointMismatchError
from conceptspace.model import SharedConceptModel, _model_blocks, load_model, save_model
from conceptspace.rng import substream
from conceptspace.training import train

KINDS = ("shared", "shared_heads") + BASELINE_KINDS


@pytest.fixture(scope="module")
def micro():
    cfg = ExperimentConfig(n_samples=80, seed=0, anchor_count=10,
                           plan=TrainPlan(epochs=1, phase2_epochs=1))
    samples = generate_xor_and_xor(cfg.n_samples, cfg.seed, cfg.random_edge_max)
    ds = split(samples, cfg.split_ratio, cfg.seed)
    return cfg, ds, whole_batch(ds.test)


def _trained(kind, cfg, ds):
    if kind.startswith("shared"):
        model = SharedConceptModel(cfg, substream(cfg.seed, "init"),
                                   with_local_heads=(kind == "shared_heads"))
        train(model, ds, cfg)
    else:
        model = build_baseline(kind, cfg)
        train_baseline(model, ds, cfg)
    return model


def _logits(model, batch):
    out = model.forward(batch, "eval")
    return out if isinstance(out, np.ndarray) else out.logits


@pytest.mark.parametrize("kind", KINDS)
def test_save_load_save_is_exact(kind, micro, tmp_path):
    cfg, ds, batch = micro
    model = _trained(kind, cfg, ds)
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(model, str(first))
    loaded = load_model(str(first))
    save_model(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(_logits(model, batch), _logits(loaded, batch))
    if hasattr(model, "index_spaces"):
        a, b = model.index_spaces(batch), loaded.index_spaces(batch)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[m], b[m]) for m in a)


@pytest.mark.parametrize("kind", KINDS)
def test_every_block_is_its_own_array(kind, micro):
    cfg, _, _ = micro
    model = (SharedConceptModel(cfg, substream(0, "init"),
                                with_local_heads=(kind == "shared_heads"))
             if kind.startswith("shared") else build_baseline(kind, cfg))
    # two layers under one name would share keys and drop one layer's arrays
    assert len(model.parameters()) == sum(len(m.param_names) for m in model.modules())
    blocks = _model_blocks(model)
    names = [name for name, _ in blocks]
    assert len(set(names)) == len(names)
    for i, (name, a) in enumerate(blocks):
        for other, b in blocks[i + 1:]:
            assert not np.shares_memory(a, b), (name, other)


def _parts(path):
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[:8])
    return raw, json.loads(raw[8:8 + mlen]), raw[8 + mlen:]


def _pack(manifest, payload):
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return struct.pack("<Q", len(mbytes)) + mbytes + payload


def _drop_first_block(raw, manifest, payload):
    spec = manifest["blocks"].pop(0)
    return _pack(manifest, payload[8 * int(np.prod(spec["shape"])):])


def _repeat_first_block(raw, manifest, payload):
    spec = manifest["blocks"][0]
    manifest["blocks"].insert(0, spec)
    return _pack(manifest, payload[:8 * int(np.prod(spec["shape"]))] + payload)


def _block_value(name_end, value):
    """A corruption that sets the first value of the first block whose name
    ends in `name_end`."""
    def corrupt(raw, manifest, payload):
        offset = 0
        for spec in manifest["blocks"]:
            if spec["name"].endswith(name_end):
                return _pack(manifest, payload[:offset] + struct.pack("<d", value)
                             + payload[offset + 8:])
            offset += 8 * int(np.prod(spec["shape"]))
    return corrupt


CORRUPTIONS = {
    "missing block": _drop_first_block,
    "repeated block": _repeat_first_block,
    "short payload": lambda raw, m, p: raw[:-8],
    "trailing bytes": lambda raw, m, p: raw + bytes(8),
    "truncated header": lambda raw, m, p: raw[:5],
    "truncated manifest": lambda raw, m, p: raw[:40],
    "manifest length past the end": lambda raw, m, p: struct.pack("<Q", len(raw)) + raw[8:],
    "manifest not an object": lambda raw, m, p: _pack([1], p),
    "manifest not JSON": lambda raw, m, p: struct.pack("<Q", 5) + b"{oops" + p,
    "NaN weight": _block_value(".W", float("nan")),
    "inf weight": _block_value(".W", float("inf")),
    "negative running_var": _block_value(".running_var", -1.0),
}


@pytest.fixture(scope="module")
def saved(micro, tmp_path_factory):
    cfg, _, _ = micro
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    model = SharedConceptModel(cfg, substream(0, "init"))
    model.forward(micro[2], "train", gumbel_rng=np.random.default_rng(0))
    save_model(model, str(path))
    return path


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_load_rejects_damaged_checkpoint(corruption, saved, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CORRUPTIONS[corruption](*_parts(saved)))
    with pytest.raises(CheckpointMismatchError):
        load_model(str(bad))


def _edited(edit):
    """A corruption that rewrites the manifest in place and keeps the payload."""
    def corrupt(raw, manifest, payload):
        edit(manifest)
        return _pack(manifest, payload)
    return corrupt


MANIFEST_DAMAGE = {
    "unknown kind": _edited(lambda m: m.update(kind="transformer")),
    "invalid config value": _edited(lambda m: m["config"].update(n_samples=0)),
    "unknown config field": _edited(lambda m: m["config"].update(colour="red")),
    "blocks not a list": _edited(lambda m: m.update(blocks=7)),
    "version 2": _edited(lambda m: m.update(version=2)),
    "modalities reversed": _edited(lambda m: m["modalities"].reverse()),
    "trained as a string": _edited(lambda m: m.update(trained="no")),
    "trained as a number": _edited(lambda m: m.update(trained=1)),
    "rescale flag missing": _edited(lambda m: m["rescale_trained"].popitem()),
    "rescale flag extra": _edited(lambda m: m["rescale_trained"].update(extra=True)),
    "rescale flags as a list": _edited(
        lambda m: m.update(rescale_trained=[list(i) for i in m["rescale_trained"].items()])),
    **{f"no {key}": _edited(lambda m, key=key: m.pop(key))
       for key in ("config", "kind", "blocks", "trained", "rescale_trained")},
}


@pytest.mark.parametrize("damage", MANIFEST_DAMAGE)
def test_load_rejects_damaged_manifest(damage, saved, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(MANIFEST_DAMAGE[damage](*_parts(saved)))
    with pytest.raises(CheckpointMismatchError):
        load_model(str(bad))
