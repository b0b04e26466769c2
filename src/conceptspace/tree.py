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


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of label counts (rows, labels). The squares
    sum as p0 + (p1 + p2 + ...), the order np.sum takes over the nonzero
    ones for up to 3 labels (a zero term changes no sum)."""
    p = counts / counts.sum(axis=1, keepdims=True)
    p *= p
    return 1.0 - (p[:, 0] + p[:, 1:].sum(axis=1))


class BinaryCodeTree:
    def __init__(self):
        self.root: _Node | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "BinaryCodeTree":
        x = np.asarray(x, dtype=np.uint8)
        values, y = np.unique(np.asarray(y), return_inverse=True)
        self.root = self._build(x, np.eye(len(values))[y], values, np.arange(len(y)))
        return self

    def _build(self, x, onehot, values, idx) -> _Node:
        """onehot holds each row's label as a 0/1 row over the sorted values."""
        hot = onehot[idx]
        counts = hot.sum(axis=0, keepdims=True)
        cols = x[idx]
        varying = np.flatnonzero(cols.min(axis=0) != cols.max(axis=0))
        if np.count_nonzero(counts) == 1 or len(varying) == 0:
            return _Node(label=int(values[counts.argmax()]))   # first max: smallest label
        ones = cols[:, varying].T.astype(float) @ hot   # label counts where f == 1
        w = ones.sum(axis=1) / len(idx)
        gains = _gini(counts) - (1 - w) * _gini(counts - ones) - w * _gini(ones)
        best_f, best_gain = -1, -1.0
        for f, gain in zip(varying, gains):   # ascending: ties keep the lowest index
            if gain > best_gain + 1e-15:
                best_f, best_gain = int(f), gain
        mask = cols[:, best_f] == 1
        return _Node(
            feature=best_f,
            left=self._build(x, onehot, values, idx[~mask]),
            right=self._build(x, onehot, values, idx[mask]),
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
