"""Deterministic decision tree over binary features (Gini splitting).

Splitting continues while a node is label-impure and any feature still
varies, even at zero Gini gain; ties go to the lowest feature index and leaf
majorities to the smallest label. Grown to full depth this realizes exactly
the code -> majority-label map on the training codes, which is what the
concept completeness score measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class _Node:
    label: int = -1          # leaf prediction; -1 for internal nodes
    feature: int = -1
    left: "_Node | None" = None     # feature == 0 branch
    right: "_Node | None" = None    # feature == 1 branch


def _gini(y: np.ndarray) -> float:
    _, counts = np.unique(y, return_counts=True)
    p = counts / len(y)
    return 1.0 - float((p * p).sum())


def _majority(y: np.ndarray) -> int:
    values, counts = np.unique(y, return_counts=True)
    return int(values[counts == counts.max()].min())


class BinaryCodeTree:
    def __init__(self):
        self.root: _Node | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "BinaryCodeTree":
        x = np.asarray(x, dtype=np.uint8)
        y = np.asarray(y)
        self.root = self._build(x, y, np.arange(len(y)))
        return self

    def _build(self, x, y, idx) -> _Node:
        labels = y[idx]
        if len(np.unique(labels)) == 1:
            return _Node(label=int(labels[0]))
        cols = x[idx]
        varying = np.flatnonzero(cols.min(axis=0) != cols.max(axis=0))
        if len(varying) == 0:
            return _Node(label=_majority(labels))
        parent = _gini(labels)
        best_f, best_gain = -1, -1.0
        for f in varying:            # ascending order: ties keep the lowest index
            mask = cols[:, f] == 1
            n1 = mask.sum()
            w = n1 / len(idx)
            gain = parent - (1 - w) * _gini(labels[~mask]) - w * _gini(labels[mask])
            if gain > best_gain + 1e-15:
                best_f, best_gain = int(f), gain
        mask = cols[:, best_f] == 1
        return _Node(
            feature=best_f,
            left=self._build(x, y, idx[~mask]),
            right=self._build(x, y, idx[mask]),
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.uint8)
        out = np.empty(len(x), dtype=np.int64)
        for i, row in enumerate(x):
            node = self.root
            while node.label < 0:
                node = node.right if row[node.feature] == 1 else node.left
            out[i] = node.label
        return out
