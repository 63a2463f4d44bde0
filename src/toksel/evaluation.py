"""Subset scoring: repeated-split AUC with pluggable scorers, and Jaccard redundancy.

The default scorer is a smoothed probability table over the subset's
joint token patterns; with binary tokens and small subsets it is the
empirical Bayes-optimal scorer and keeps every reported number exactly
reproducible from the master seed. A from-scratch randomized-tree
ensemble is available for comparison.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .dataset import Dataset, PatternTable, cell_ids
from .errors import DataError, ParameterError, UndefinedStatisticError

if TYPE_CHECKING:  # pragma: no cover
    from .selection import SelectionTrace


def auc(scores: Sequence[float], labels: Sequence[int], weights: Optional[Sequence[float]] = None) -> float:
    """Area under the ROC curve via the rank statistic, with midrank ties.

    Equals P(score+ > score-) + 0.5 * P(score+ == score-) exactly, entry i
    counting weights[i] times (default 1); integer weights keep every sum exact.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    w = np.ones(s.shape) if weights is None else np.asarray(weights, dtype=np.float64)
    if s.shape != y.shape or s.shape != w.shape or s.ndim != 1:
        raise ParameterError("scores, labels and weights must be 1-d and equal length")
    pos = y == 1
    values, group = np.unique(s, return_inverse=True)
    w1 = np.bincount(group, weights=np.where(pos, w, 0.0), minlength=values.size)
    w0 = np.bincount(group, weights=np.where(pos, 0.0, w), minlength=values.size)
    n1 = w1.sum()
    n0 = w0.sum()
    if n1 == 0 or n0 == 0:
        raise UndefinedStatisticError("AUC undefined: labels contain a single class")
    # each positive beats the negatives of every lower score group and ties half of its own
    below = np.cumsum(w0) - w0
    return float(np.sum(w1 * (below + 0.5 * w0))) / (n1 * n0)


def jaccard(a: Sequence[int], b: Sequence[int]) -> float:
    """Jaccard similarity of two binary columns; 0 when both are all-zero."""
    av = np.asarray(a).astype(bool)
    bv = np.asarray(b).astype(bool)
    if av.shape != bv.shape or av.ndim != 1:
        raise ParameterError("columns must be 1-d and equal length")
    union = int((av | bv).sum())
    if union == 0:
        return 0.0
    return int((av & bv).sum()) / union


def jaccard_set(dataset: Dataset, subset: Sequence[int]) -> float:
    """Mean pairwise Jaccard similarity over all token pairs in the subset."""
    ids = sorted(set(int(t) for t in subset))
    if len(ids) != len(list(subset)):
        raise ParameterError("subset ids must be distinct")
    for t in ids:
        if not 0 <= t < len(dataset.catalog):
            raise ParameterError(f"token id {t} outside catalog")
    if len(ids) <= 1:
        return 0.0
    cols = dataset.selections[:, ids].astype(np.int64)
    inter = cols.T @ cols
    counts = np.diag(inter)
    union = counts[:, None] + counts[None, :] - inter
    iu = np.triu_indices(len(ids), k=1)
    inters = inter[iu].astype(np.float64)
    unions = union[iu].astype(np.float64)
    ratios = np.divide(inters, unions, out=np.zeros_like(inters), where=unions > 0)
    return float(ratios.sum() / ratios.size)


# -- train/test split plan ---------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    """Repeated random holdout plan; all randomness derives from master_seed."""

    splits: int
    train_fraction: float = 0.7
    master_seed: int = 0

    def __post_init__(self):
        if self.master_seed is None:
            raise ParameterError("repeated splits require a seed for reproducibility")
        if self.splits < 1:
            raise ParameterError("splits must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ParameterError("train_fraction must be in (0, 1)")

    def partitions(self, n: int) -> list[tuple[np.ndarray, np.ndarray, np.random.SeedSequence]]:
        """Per-split (train_idx, test_idx, scorer_seed) over n records."""
        if n < 2:
            raise DataError("need at least 2 rated records to split")
        n_train = min(max(int(round(self.train_fraction * n)), 1), n - 1)
        out = []
        for child in np.random.SeedSequence(self.master_seed).spawn(self.splits):
            rng = np.random.default_rng(child)
            perm = rng.permutation(n)
            out.append((perm[:n_train], perm[n_train:], child.spawn(1)[0]))
        return out


# -- scorers -----------------------------------------------------------


def _check_subset(subset: Sequence[int]) -> tuple[int, ...]:
    ids = tuple(sorted(int(t) for t in subset))
    if len(set(ids)) != len(ids):
        raise ParameterError("subset ids must be distinct")
    return ids


def _smoothed_rate(n1, n, alpha: float):
    """(n_poor + alpha) / (n + 2*alpha): the table scorer's score of a cell, or its prior."""
    return (n1 + alpha) / (n + 2 * alpha)


class TableScorer:
    """Smoothed empirical P(poor | token pattern) lookup.

    Fitted patterns score (n_poor + alpha) / (n + 2*alpha); patterns
    unseen in training back off to the smoothed training prior. Subset
    order is canonicalized so the scorer depends only on the token set.
    """

    def __init__(self, subset: Sequence[int], alpha: float = 1.0):
        if alpha < 0:
            raise ParameterError("alpha must be >= 0")
        self.subset = _check_subset(subset)
        self.alpha = alpha
        self._scores: Optional[np.ndarray] = None
        self.prior_: Optional[float] = None

    def fit(self, selections: np.ndarray, labels: np.ndarray) -> "TableScorer":
        y = np.asarray(labels, dtype=np.int64)
        n1_total = int(y.sum())
        if n1_total == 0 or n1_total == y.size:
            raise DataError("training data must contain both poor and non-poor calls")
        X = np.asarray(selections)[:, list(self.subset)]
        cells, n_cells = cell_ids(X, range(len(self.subset)))
        n1 = np.bincount(cells, weights=y, minlength=n_cells)
        n = np.bincount(cells, minlength=n_cells).astype(np.float64)
        self.prior_ = _smoothed_rate(n1_total, y.size, self.alpha)
        self._scores = _smoothed_rate(n1, n, self.alpha)
        # one training row per cell, so predict can key new rows together with them
        last = np.empty(n_cells, dtype=np.int64)
        last[cells] = np.arange(cells.size)
        self._cells = X[last]
        return self

    def predict(self, selections: np.ndarray) -> np.ndarray:
        if self._scores is None:
            raise ParameterError("scorer is not fitted")
        X = np.asarray(selections)[:, list(self.subset)]
        cells, n_cells = cell_ids(np.vstack([self._cells, X]), range(len(self.subset)))
        fitted = self._cells.shape[0]
        scores = np.full(n_cells, self.prior_)
        scores[cells[:fitted]] = self._scores
        return scores[cells[fitted:]]

    def score_dataset(self, dataset: Dataset) -> np.ndarray:
        """Scores for the dataset's rated records."""
        return self.predict(dataset.rated_selections)


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
        self.subset = _check_subset(subset)
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

    def score_dataset(self, dataset: Dataset) -> np.ndarray:
        return self.predict(dataset.rated_selections)


def table_scorer_fit(train: Dataset, subset: Sequence[int], alpha: float = 1.0) -> TableScorer:
    """Fit the probability-table scorer on a dataset's rated records."""
    return TableScorer(subset, alpha=alpha).fit(train.rated_selections, train.rated_pc)


def forest_scorer_fit(train: Dataset, subset: Sequence[int], trees: int = 100, seed=None) -> ForestScorer:
    """Fit the randomized-tree ensemble scorer on a dataset's rated records."""
    return ForestScorer(subset, trees=trees, seed=seed).fit(train.rated_selections, train.rated_pc)


# -- repeated-split evaluation ------------------------------------------


@dataclass(frozen=True)
class KEval:
    k: int
    auc_mean: float
    auc_std: float
    js_mean: float
    js_std: float


@dataclass(frozen=True)
class EvalReport:
    strategy: str
    per_k: tuple[KEval, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "per_k": [
                {
                    "k": e.k,
                    "auc_mean": e.auc_mean,
                    "auc_std": e.auc_std,
                    "js_mean": e.js_mean,
                    "js_std": e.js_std,
                }
                for e in self.per_k
            ],
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("strategy,k,auc_mean,auc_std,js_mean,js_std\n")
        for e in self.per_k:
            buf.write(
                f"{self.strategy},{e.k},{e.auc_mean!r},{e.auc_std!r},{e.js_mean!r},{e.js_std!r}\n"
            )
        return buf.getvalue()


def report_to_json_text(report: EvalReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def _split_counts(table: PatternTable, pc: np.ndarray, partitions) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per split, the (train, test) records of each pattern, as (n_patterns, 2) label counts."""
    out = []
    for train_idx, _, _ in partitions:
        keys = table.row_of_record[train_idx] * 2 + pc[train_idx]
        train = np.bincount(keys, minlength=table.counts.size).reshape(-1, 2)
        out.append((train, table.counts - train))
    return out


def _table_split_aucs(
    table: PatternTable, subset: tuple[int, ...], split_counts, alpha: float
) -> np.ndarray:
    """Table-scorer test AUC per split, from pattern counts; equals fitting
    TableScorer on each split's training rows and scoring its test rows."""
    cells, n_cells = cell_ids(table.rows, subset)

    def per_cell(counts, label):
        return np.bincount(cells, weights=counts[:, label], minlength=n_cells)

    vals = np.empty(len(split_counts))
    for i, (train, test) in enumerate(split_counts):
        n1 = per_cell(train, 1)
        n = n1 + per_cell(train, 0)
        n1_total = int(train[:, 1].sum())
        if n1_total == 0 or n1_total == int(train.sum()):
            raise DataError("training data must contain both poor and non-poor calls")
        prior = _smoothed_rate(n1_total, int(train.sum()), alpha)
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.where(n > 0, _smoothed_rate(n1, n, alpha), prior)
        # each cell's test records enter the AUC as one weighted entry per label
        vals[i] = auc(
            np.concatenate([scores, scores]),
            np.repeat([0, 1], n_cells),
            np.concatenate([per_cell(test, 0), per_cell(test, 1)]),
        )
    return vals


def _forest_split_aucs(
    X: np.ndarray, y: np.ndarray, subset: tuple[int, ...], partitions, trees: int
) -> np.ndarray:
    vals = np.empty(len(partitions))
    for i, (train_idx, test_idx, scorer_seed) in enumerate(partitions):
        scorer = ForestScorer(subset, trees=trees, seed=scorer_seed).fit(X[train_idx], y[train_idx])
        vals[i] = auc(scorer.predict(X[test_idx]), y[test_idx])
    return vals


def evaluate_subsets(
    dataset: Dataset,
    traces: Sequence["SelectionTrace"],
    plan: SplitPlan,
    scorer_kind: str = "table",
    alpha: float = 1.0,
    trees: int = 100,
) -> list[EvalReport]:
    """AUC (mean/std over splits) and Jaccard for every prefix of every trace.

    Splits are shared across strategies and prefix sizes, so at a common
    feature set (e.g. the full catalog) all strategies report the same
    AUC. Jaccard is computed once on the full dataset: it does not
    depend on the split.
    """
    if not traces:
        raise ParameterError("traces must be non-empty")
    if scorer_kind not in ("table", "forest"):
        raise ParameterError(f"unknown scorer kind {scorer_kind!r}")
    X = dataset.rated_selections
    y = dataset.rated_pc
    partitions = plan.partitions(X.shape[0])
    if scorer_kind == "table":
        split_counts = _split_counts(dataset.patterns, y, partitions)

    cache: dict[tuple[int, ...], np.ndarray] = {}
    reports = []
    for trace in traces:
        entries = []
        ids = [step.token_id for step in trace.steps]
        for k in range(1, len(ids) + 1):
            subset = tuple(sorted(ids[:k]))
            if subset not in cache:
                if scorer_kind == "table":
                    cache[subset] = _table_split_aucs(dataset.patterns, subset, split_counts, alpha)
                else:
                    cache[subset] = _forest_split_aucs(X, y, subset, partitions, trees)
            vals = cache[subset]
            std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
            entries.append(
                KEval(
                    k=k,
                    auc_mean=float(np.mean(vals)),
                    auc_std=std,
                    js_mean=jaccard_set(dataset, subset),
                    js_std=0.0,
                )
            )
        reports.append(EvalReport(strategy=trace.strategy, per_k=tuple(entries)))
    return reports


def univariate_aucs(dataset: Dataset, plan: SplitPlan, alpha: float = 1.0) -> np.ndarray:
    """Mean single-token AUC per catalog token over the plan's splits."""
    y = dataset.rated_pc
    split_counts = _split_counts(dataset.patterns, y, plan.partitions(y.size))
    n_tokens = len(dataset.catalog)
    means = np.empty(n_tokens)
    for t in range(n_tokens):
        means[t] = _table_split_aucs(dataset.patterns, (t,), split_counts, alpha).mean()
    return means
