"""Explanation machinery over a frozen model's concept space.

A ConceptIndex materializes every training sample's representation in each
modality (computed in eval mode, so values are batch-independent), the
per-sample global concatenation, and its binarization at 0.5. All queries are
exhaustive nearest-neighbor scans: prototypes (sample closest to a concept
cluster's centroid), radius neighborhoods, cross-modal retrieval, and the
nearest-stored-concept substitution used for missing-modality inference.

Rows are stored sorted by sample id, and ties go to the smallest id. Every
scan takes distances on a space's distinct rows only (ConceptIndex.distinct:
the first occurrences, in row order), since equal rows have equal distances.
`_nearest` takes the first argmin over them, the row a scan over every row
picks; `_ranked` expands them to every row and sorts on (distance, id).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .config import MODALITIES, other_modality
from .data import as_arrays
from .errors import NoSuchConceptError
from .nn import distinct_rows

EXPLANATION_KINDS = ("neighborhood", "cross_modal", "substitution")


@dataclass
class ConceptIndex:
    ids: np.ndarray                 # (n,) sorted ascending
    spaces: dict                    # modality -> (n, width)
    z: np.ndarray | None            # (n, sum of widths) global concatenation
    codes: np.ndarray | None        # (n, sum of widths) uint8, z >= 0.5
    local_labels: dict              # modality -> (n,)
    global_labels: np.ndarray       # (n,)
    distinct: dict = field(init=False, repr=False)   # modality or "z" -> (rows, inverse)

    def __post_init__(self):
        self.distinct = {name: distinct_rows(x) for name, x in
                         {**self.spaces, "z": self.z}.items() if x is not None}

    def __len__(self) -> int:
        return len(self.ids)

    def row_of(self, sample_id: int) -> int:
        pos = int(np.searchsorted(self.ids, sample_id))
        if pos >= len(self.ids) or self.ids[pos] != sample_id:
            raise KeyError(f"sample {sample_id} not in index")
        return pos


def concept_codes(spaces: dict) -> np.ndarray:
    """Binarized codes: the spaces side by side in MODALITIES order, cut at >= 0.5."""
    return (np.concatenate([spaces[m] for m in MODALITIES], axis=1) >= 0.5).astype(np.uint8)


def build_index(model, samples) -> ConceptIndex:
    """Materialize representations of the training set under a frozen model."""
    if not getattr(model, "trained", False):
        raise RuntimeError("index requires a trained model")
    order = np.argsort([s.id for s in samples])
    ordered = [samples[i] for i in order]
    batch = as_arrays(ordered, with_aux=False)
    spaces = model.index_spaces(batch)
    z = codes = None
    if getattr(model, "concept_based", False):
        z = np.concatenate([spaces[m] for m in MODALITIES], axis=1)
        codes = concept_codes(spaces)
    return ConceptIndex(
        ids=np.array([s.id for s in ordered]),
        spaces=spaces,
        z=z,
        codes=codes,
        local_labels={m: batch.local[m] for m in MODALITIES},
        global_labels=batch.y,
    )


@dataclass
class Explanation:
    kind: str
    query_id: int
    query_modality: str
    results: list                   # of (sample_id, modality, distance)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EXPLANATION_KINDS:
            raise ValueError(f"unknown explanation kind {self.kind!r}")
        dists = [r[2] for r in self.results]
        if any(d < 0 for d in dists):
            raise ValueError("distances must be nonnegative")
        if any(a > b for a, b in zip(dists, dists[1:])):
            raise ValueError("results must be sorted by ascending distance")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "query": {"id": self.query_id, "modality": self.query_modality},
            "results": [{"id": int(i), "modality": m, "distance": float(d)}
                        for i, m, d in self.results],
            "params": self.params,
        }


def save_explanation(expl: Explanation, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(expl.to_dict(), fh, sort_keys=True, indent=2)


def encode_samples(model, samples) -> dict:
    """Eval-mode representations for arbitrary samples (test or train)."""
    return model.index_spaces(as_arrays(samples, with_aux=False))


# -- queries -------------------------------------------------------------------

def _nearest(stored: np.ndarray, distinct: tuple, queries: np.ndarray):
    """(rows, distances): for each query row, the first stored row at the
    least Euclidean distance, ranked on squared distances. Only the distinct
    rows (`distinct` is ConceptIndex.distinct of `stored`) are scanned."""
    rows = distinct[0]
    if len(rows) == 0:
        raise RuntimeError("empty index")
    d2 = ((queries[:, None, :] - stored[rows][None, :, :]) ** 2).sum(axis=2)
    pick = d2.argmin(axis=1)
    return rows[pick], np.sqrt(d2[np.arange(len(pick)), pick])


def _ranked(index: ConceptIndex, query_vec: np.ndarray, modality: str,
            radius: float | None, top_k: int | None) -> list:
    """(id, modality, distance) of the stored rows of `modality`, ordered by
    (distance, id): those strictly within `radius`, or else the first `top_k`."""
    if (radius is None) == (top_k is None):
        raise ValueError("pass exactly one of radius or top_k")
    if radius is not None and not radius >= 0:
        raise ValueError("radius must be nonnegative")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be at least 1")
    rows, inverse = index.distinct[modality]
    dists = np.sqrt(((query_vec - index.spaces[modality][rows]) ** 2).sum(axis=1))[inverse]
    kept = np.flatnonzero(dists < radius) if radius is not None else np.arange(len(dists))
    order = kept[np.lexsort((index.ids[kept], dists[kept]))][:top_k]
    return [(i, modality, d) for i, d in
            zip(index.ids[order].tolist(), dists[order].tolist())]


def prototype(index: ConceptIndex, code) -> int:
    """Training sample nearest to the centroid of all samples whose binarized
    global concatenation equals `code`. The argmin runs over the whole
    training set, not just the cluster."""
    if index.codes is None:
        raise ValueError("index has no binarized codes (not a concept-based model)")
    code = np.asarray(code, dtype=np.uint8)
    if code.shape != (index.codes.shape[1],):
        raise ValueError(f"code must have length {index.codes.shape[1]}")
    members = np.all(index.codes == code, axis=1)
    if not members.any():
        raise NoSuchConceptError(
            "no training sample has code " + "".join(str(int(b)) for b in code))
    rows, _ = _nearest(index.z, index.distinct["z"],
                       index.z[members].mean(axis=0, keepdims=True))
    return int(index.ids[rows[0]])


def neighborhood(index: ConceptIndex, query_vec: np.ndarray, modality: str,
                 radius: float, query_id: int = -1) -> Explanation:
    """Training samples strictly within `radius` of the query, same modality."""
    results = _ranked(index, query_vec, modality, radius, None)
    return Explanation("neighborhood", query_id, modality, results,
                       {"radius": radius})


def cross_modal_retrieve(index: ConceptIndex, query_vec: np.ndarray,
                         source_modality: str, radius: float | None = None,
                         top_k: int | None = None, query_id: int = -1) -> Explanation:
    """Nearest training samples from the other modality.

    Radius mode keeps everything strictly within `radius`; top_k mode keeps
    the k nearest. Exactly one of the two must be given.
    """
    target = other_modality(source_modality)
    results = _ranked(index, query_vec, target, radius, top_k)
    params = {"radius": radius} if radius is not None else {"top_k": top_k}
    params["targets"] = [target]
    return Explanation("cross_modal", query_id, source_modality, results, params)


def substitute_missing(model, index: ConceptIndex, query_vec: np.ndarray,
                       present_modality: str, missing_modality: str):
    """Replace a missing modality's representation with the stored training
    vector nearest (in the missing modality's rows) to the present modality's
    query vector. Returns (substitute_vector, retrieved_id, distance)."""
    if present_modality == missing_modality:
        raise ValueError("present and missing modality must differ")
    stored = index.spaces[missing_modality]
    rows, dists = _nearest(stored, index.distinct[missing_modality],
                           np.atleast_2d(query_vec))
    return stored[rows[0]].copy(), int(index.ids[rows[0]]), float(dists[0])


def substitute_matrix(index: ConceptIndex, queries: np.ndarray,
                      missing_modality: str):
    """Vectorized substitution for a batch of present-modality vectors."""
    stored = index.spaces[missing_modality]
    rows, _ = _nearest(stored, index.distinct[missing_modality], queries)
    return stored[rows], index.ids[rows]


# -- 2D projection export --------------------------------------------------------

def pca_projection(index: ConceptIndex) -> list:
    """Rows (id, modality, pc1, pc2, global_label) of a 2-component PCA over
    every stored representation from every modality."""
    x = np.concatenate([index.spaces[m] for m in MODALITIES], axis=0)
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    dominant = comps[np.arange(len(comps)), np.abs(comps).argmax(axis=1)]
    comps = comps * np.where(dominant < 0, -1.0, 1.0)[:, None]   # dominant loading positive
    keys = [(i, mod, label) for mod in MODALITIES
            for i, label in zip(index.ids.tolist(), index.global_labels.tolist())]
    return [(i, mod, pc1, pc2, label)
            for (i, mod, label), (pc1, pc2) in zip(keys, (centered @ comps.T).tolist())]


def save_pca_csv(index: ConceptIndex, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "modality", "pc1", "pc2", "label"))
        writer.writerows(pca_projection(index))
