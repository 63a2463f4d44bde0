"""Record-by-record forest scorer, the reference for toksel.evaluation.ForestScorer.

This is the forest toksel shipped before its trees grew on distinct
rows: each tree keeps an array of bootstrap record indices per node and
scores every candidate split over those records, and predict walks each
record down each tree. The weighted-row forest must give the same
predictions bit for bit for the same seed.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from toksel.errors import DataError, ParameterError


class ForestScorer:
    """Bootstrap ensemble of randomized binary-split trees voting a probability.

    Each tree greedily splits on the best of sqrt(k) candidate features
    by Gini reduction (each binary feature used at most once per path)
    and predicts its leaf's poor-call frequency; the ensemble averages
    tree outputs. Deterministic for a given seed.
    """

    def __init__(self, subset: Sequence[int], trees: int = 100, seed=None):
        if trees < 1:
            raise ParameterError("trees must be >= 1")
        ids = tuple(sorted(int(t) for t in subset))
        if len(set(ids)) != len(ids):
            raise ParameterError("subset ids must be distinct")
        self.subset = ids
        self.trees = trees
        self.seed = seed
        self._roots: Optional[list] = None

    # tree nodes are (feature, left, right) tuples; leaves are floats

    def _grow(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray, remaining: list[int], rng) -> object:
        y_node = y[idx]
        n = y_node.size
        n1 = int(y_node.sum())
        if n1 == 0 or n1 == n or not remaining:
            return n1 / n
        m = max(1, int(round(math.sqrt(len(self.subset)))))
        if len(remaining) <= m:
            cand = list(remaining)
        else:
            cand = sorted(rng.choice(remaining, size=m, replace=False).tolist())

        best = self._best_split(X, y, idx, cand, n, n1)
        if best is None:
            # sampled candidates were constant here; fall back to all remaining
            best = self._best_split(X, y, idx, remaining, n, n1)
        if best is None:
            return n1 / n
        feat, left_idx, right_idx = best
        rest = [f for f in remaining if f != feat]
        return (
            feat,
            self._grow(X, y, left_idx, rest, rng),
            self._grow(X, y, right_idx, rest, rng),
        )

    @staticmethod
    def _best_split(X, y, idx, candidates, n, n1):
        best_gain = -1.0
        best = None
        parent = 2.0 * (n1 / n) * (1.0 - n1 / n)
        for feat in candidates:
            mask = X[idx, feat] == 1
            nr = int(mask.sum())
            if nr == 0 or nr == n:
                continue
            right = idx[mask]
            left = idx[~mask]
            r1 = int(y[right].sum())
            l1 = n1 - r1
            gini = (
                left.size * 2.0 * (l1 / left.size) * (1.0 - l1 / left.size)
                + right.size * 2.0 * (r1 / right.size) * (1.0 - r1 / right.size)
            ) / n
            gain = parent - gini
            if gain > best_gain:
                best_gain = gain
                best = (feat, left, right)
        return best

    def fit(self, selections: np.ndarray, labels: np.ndarray) -> "ForestScorer":
        y = np.asarray(labels, dtype=np.int64)
        n1 = int(y.sum())
        if n1 == 0 or n1 == y.size:
            raise DataError("training data must contain both poor and non-poor calls")
        X = np.asarray(selections)[:, list(self.subset)].astype(np.int8)
        rng = np.random.default_rng(self.seed)
        n = y.size
        features = list(range(len(self.subset)))
        self._roots = []
        for _ in range(self.trees):
            boot = rng.integers(0, n, size=n)
            self._roots.append(self._grow(X, y, boot, features, rng))
        return self

    @staticmethod
    def _predict_tree(node, X, idx, out):
        if isinstance(node, float):
            out[idx] = node
            return
        feat, left, right = node
        mask = X[idx, feat] == 1
        ForestScorer._predict_tree(left, X, idx[~mask], out)
        ForestScorer._predict_tree(right, X, idx[mask], out)

    def predict(self, selections: np.ndarray) -> np.ndarray:
        if self._roots is None:
            raise ParameterError("scorer is not fitted")
        X = np.asarray(selections)[:, list(self.subset)].astype(np.int8)
        total = np.zeros(X.shape[0], dtype=np.float64)
        scratch = np.empty(X.shape[0], dtype=np.float64)
        idx = np.arange(X.shape[0])
        for root in self._roots:
            self._predict_tree(root, X, idx, scratch)
            total += scratch
        return total / len(self._roots)
