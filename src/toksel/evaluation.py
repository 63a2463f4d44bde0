"""Subset scoring: repeated-split AUC with two scorers, and Jaccard redundancy.

Either scorer gives each cell of a subset (the records that agree on its
tokens) one score, and a split's AUC weights each cell's score by the
cell's test records. The default, "table", scores a cell by the
Laplace-smoothed poor-call rate of its training records, taken from the
split's counts per distinct token row; with binary tokens and small
subsets it is the empirical Bayes-optimal scorer and keeps every reported
number exactly reproducible from the master seed. "forest", a
from-scratch randomized-tree ensemble (`ForestScorer`), is there for
comparison.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field
from operator import index
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .counts import cell_ids, distinct_rows
from .dataset import Dataset, check_subset, token_ids
from .errors import DataError, ParameterError, UndefinedStatisticError

if TYPE_CHECKING:  # pragma: no cover
    from .selection import SelectionTrace

# the repeated-split scorers: the pattern table (default) and the randomized-tree ensemble
SCORERS = ("table", "forest")


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
    ids = sorted(check_subset(subset, len(dataset.catalog)))
    if len(ids) <= 1:
        return 0.0
    inter = dataset.cooccurrence[np.ix_(ids, ids)]
    counts = np.diag(inter)
    union = counts[:, None] + counts[None, :] - inter
    iu = np.triu_indices(len(ids), k=1)
    inters = inter[iu]
    unions = union[iu]
    ratios = np.divide(inters, unions, out=np.zeros_like(inters), where=unions > 0)
    return float(ratios.sum() / ratios.size)


# -- train/test split plan ---------------------------------------------


def check_seed(seed) -> None:
    """Refuse, with ParameterError, a seed that is not an integer >= 0 (Python
    or numpy): None, which numpy's generators take for fresh entropy, and a
    bool, which they take for 0 or 1, included."""
    try:
        if not isinstance(seed, bool) and index(seed) >= 0:
            return
    except TypeError:
        pass
    raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")


@dataclass(frozen=True)
class SplitPlan:
    """Repeated random holdout plan; all randomness derives from master_seed."""

    splits: int
    train_fraction: float = 0.7
    master_seed: int = 0

    def __post_init__(self):
        check_seed(self.master_seed)
        if self.splits < 1:
            raise ParameterError("splits must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ParameterError("train_fraction must be in (0, 1)")

    def partitions(self, n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.random.SeedSequence]]:
        """Per-split (train_idx, test_idx, scorer_seed) over n records, as a
        one-shot iterator that draws each split when it is reached."""
        if n < 2:
            raise DataError("need at least 2 rated records to split")
        n_train = min(max(int(round(self.train_fraction * n)), 1), n - 1)

        def draw(child):
            perm = np.random.default_rng(child).permutation(n)
            return perm[:n_train], perm[n_train:], child.spawn(1)[0]

        return map(draw, np.random.SeedSequence(self.master_seed).spawn(self.splits))


# -- scorers -----------------------------------------------------------


def _smoothed_rate(n1, n):
    """(n_poor + 1) / (n + 2), Laplace smoothing: the table scorer's score of a cell,
    or its prior. The pseudocount is fixed; there is no option to change it."""
    return (n1 + 1) / (n + 2)


class ForestScorer:
    """Bootstrap ensemble of randomized binary-split trees voting a probability.

    Each tree greedily splits on the best of sqrt(k) candidate features
    by Gini reduction (each binary feature used at most once per path)
    and predicts its leaf's poor-call frequency; the ensemble averages
    tree outputs. Deterministic for a given seed.

    A tree grows on the distinct training rows, each weighted by how
    often the tree's bootstrap drew it with each label: the same tree,
    bit for bit, as one grown on the drawn records themselves. Every
    count a node needs is one integer sum over its rows of a per-tree
    count row, and the candidates are drawn node by node in depth-first
    order, as the record-by-record forest draws them.
    """

    def __init__(self, subset: Sequence[int], trees: int = 100, seed=None):
        if trees < 1:
            raise ParameterError("trees must be >= 1")
        self.subset = tuple(sorted(token_ids(subset)))
        self.trees = trees
        self.seed = seed
        self._roots: Optional[list] = None

    # tree nodes are (feature, left, right) tuples; leaves are floats

    def _grow(
        self, columns: np.ndarray, counts: np.ndarray, idx: np.ndarray, n: int, n1: int, remaining: list[int], rng
    ) -> object:
        """Tree over the distinct rows `idx`, drawn n times in all, n1 of them poor.

        Row i's count row `counts[i]` is [n_i·x_i0 … n_i·x_i(k-1), n1_i·x_i0 …
        n1_i·x_i(k-1)]: row i was drawn n_i times, n1_i of them poor, and x_if is
        its feature f, also held as the bool column `columns[f]`. Summed over a
        node's rows, the count rows give, for every feature, how many draws and
        poor draws a split on it sends right: one integer gather and sum per node.
        """
        if n1 == 0 or n1 == n or not remaining:
            return n1 / n
        k = len(self.subset)
        m = max(1, int(round(math.sqrt(k))))
        if len(remaining) <= m:
            cand = remaining
        else:
            cand = sorted([remaining[i] for i in rng.choice(len(remaining), size=m, replace=False).tolist()])
        sums = np.add.reduce(counts[idx]).tolist()
        right_n, right_n1 = sums[:k], sums[k:]
        feat = self._best_split(right_n, right_n1, cand, n, n1)
        if feat is None:
            # sampled candidates were constant here; fall back to all remaining
            feat = self._best_split(right_n, right_n1, remaining, n, n1)
        if feat is None:
            return n1 / n
        right = columns[feat][idx]
        rest = [f for f in remaining if f != feat]
        nr, r1 = right_n[feat], right_n1[feat]
        return (
            feat,
            self._grow(columns, counts, idx[~right], n - nr, n1 - r1, rest, rng),
            self._grow(columns, counts, idx[right], nr, r1, rest, rng),
        )

    @staticmethod
    def _best_split(right_n, right_n1, candidates, n, n1):
        """The candidate of largest Gini gain (the first of equal gains), or None if all
        are constant. Feature f sends right_n[f] draws, right_n1[f] of them poor, right.

        The counts are exact Python ints, so each float operation, taken in the
        record-by-record forest's order, rounds to the same bits as there.
        """
        best, best_gain = None, -math.inf
        parent = 2.0 * (n1 / n) * (1.0 - n1 / n)
        for f in candidates:
            nr, r1 = right_n[f], right_n1[f]
            if nr == 0 or nr == n:
                continue
            nl, l1 = n - nr, n1 - r1
            gini = (nl * 2.0 * (l1 / nl) * (1.0 - l1 / nl) + nr * 2.0 * (r1 / nr) * (1.0 - r1 / nr)) / n
            if parent - gini > best_gain:
                best, best_gain = f, parent - gini
        return best

    def fit(self, rows: np.ndarray, labels: np.ndarray, row_of_record=None) -> "ForestScorer":
        """Grow the trees on the records `rows[row_of_record]` (`rows` if None) with 0/1 `labels`."""
        X = np.asarray(rows)
        check_subset(self.subset, X.shape[1])
        y = np.asarray(labels, dtype=np.int64)
        n1 = int(y.sum())
        if n1 == 0 or n1 == y.size:
            raise DataError("training data must contain both poor and non-poor calls")
        cells, columns = self._distinct_columns(X)
        if row_of_record is not None:
            cells = cells[row_of_record]
        bits = columns.T
        keys = cells * 2 + y
        rng = np.random.default_rng(self.seed)
        n = y.size
        k = len(self.subset)
        features = list(range(k))
        counts = np.empty((bits.shape[0], 2 * k), dtype=np.int64)
        self._roots = []
        for _ in range(self.trees):
            boot = rng.integers(0, n, size=n)
            w = np.bincount(keys[boot], minlength=2 * bits.shape[0]).reshape(-1, 2)
            drawn = w.sum(axis=1)
            np.multiply(drawn[:, None], bits, out=counts[:, :k])
            np.multiply(w[:, 1:], bits, out=counts[:, k:])
            root = self._grow(columns, counts, np.flatnonzero(drawn), n, int(w[:, 1].sum()), features, rng)
            self._roots.append(root)
        return self

    def _distinct_columns(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each record's distinct row under the subset, and the distinct rows'
        features as bools, one contiguous row per feature."""
        cells, rows = distinct_rows(X, self.subset)
        return cells, np.ascontiguousarray((rows == 1).T)

    @staticmethod
    def _predict_tree(node, columns, idx, out):
        if isinstance(node, float):
            out[idx] = node
            return
        feat, left, right = node
        mask = columns[feat][idx]
        ForestScorer._predict_tree(left, columns, idx[~mask], out)
        ForestScorer._predict_tree(right, columns, idx[mask], out)

    def predict(self, selections: np.ndarray) -> np.ndarray:
        if self._roots is None:
            raise ParameterError("scorer is not fitted")
        X = np.asarray(selections)
        check_subset(self.subset, X.shape[1])
        # each distinct row walks each tree once; its records share the result
        cells, columns = self._distinct_columns(X)
        n_rows = columns.shape[1]
        total = np.zeros(n_rows, dtype=np.float64)
        scratch = np.empty(n_rows, dtype=np.float64)
        idx = np.arange(n_rows)
        for root in self._roots:
            self._predict_tree(root, columns, idx, scratch)
            total += scratch
        return (total / len(self._roots))[cells]


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
        return {"strategy": self.strategy, "per_k": [asdict(e) for e in self.per_k]}

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


def _split_aucs(dataset: Dataset, subsets, plan: SplitPlan, scorer_kind="table", trees=100) -> np.ndarray:
    """Test AUC of each subset (rows) on each of the plan's splits (columns).

    Each split is drawn, scored for every subset and dropped before the
    next, so memory does not grow with the number of splits. A scorer
    gives each cell of a subset one score: the table scorer from the
    split's training counts per pattern, the forest by fitting on the
    training records as pattern rows (`key >> 1`) and labels (`key & 1`),
    and predicting the pattern rows, which walks each cell's row once. One
    `auc` then counts each cell's test records as one integer-weighted
    entry per label, which equals scoring the test records one by one.
    A split's test counts are one bincount of its test keys (the fewer at the default 0.7).
    """
    table = dataset.patterns
    # each subset's cell ids, held for every split: int32, half an int64 array on
    # tables of many rows (a cell id is below the table's row count)
    cells = [(c.astype(np.int32), n_cells) for c, n_cells in (cell_ids(table.rows, s) for s in subsets)]
    out = np.empty((len(subsets), plan.splits))
    keys = table.key_of_record
    if keys is None:
        raise ParameterError("repeated splits need each rated record's key: load with counts=True, keys=True")
    splits = plan.partitions(keys.size)
    for j in range(plan.splits):
        train_idx, test_idx, scorer_seed = next(splits)
        test = np.bincount(keys[test_idx], minlength=table.counts.size).reshape(-1, 2)
        train = table.counts - test
        n1_total, n_total = int(train[:, 1].sum()), int(train.sum())
        if scorer_kind == "forest":
            rows_train, y_train = keys[train_idx] >> 1, keys[train_idx] & 1
        for i, (s, (c, n_cells)) in enumerate(zip(subsets, cells)):

            def per_cell(counts, label):
                return np.bincount(c, weights=counts[:, label], minlength=n_cells)

            if scorer_kind == "table":
                if n1_total == 0 or n1_total == n_total:
                    raise DataError("training data must contain both poor and non-poor calls")
                n1 = per_cell(train, 1)
                n = n1 + per_cell(train, 0)
                scores = np.where(n > 0, _smoothed_rate(n1, n), _smoothed_rate(n1_total, n_total))
            else:
                # a cell's patterns share its row under the subset, hence its prediction
                scores = np.empty(n_cells)
                forest = ForestScorer(s, trees=trees, seed=scorer_seed).fit(table.rows, y_train, rows_train)
                scores[c] = forest.predict(table.rows)
            out[i, j] = auc(
                np.concatenate([scores, scores]),
                np.repeat([0, 1], n_cells),
                np.concatenate([per_cell(test, 0), per_cell(test, 1)]),
            )
        train_idx = test_idx = rows_train = y_train = None  # dropped before the next split is drawn
    return out


def evaluate_subsets(
    dataset: Dataset,
    traces: Sequence["SelectionTrace"],
    plan: SplitPlan,
    scorer_kind: str = "table",
    trees: int = 100,
) -> list[EvalReport]:
    """AUC (mean/std over splits) and Jaccard for every prefix of every trace.

    Splits are shared across strategies and prefix sizes, so at a common
    feature set (e.g. the full catalog) all strategies report the same
    AUC, and each distinct subset is scored once. Jaccard is computed on
    the full dataset: it does not depend on the split.
    """
    if not traces:
        raise ParameterError("traces must be non-empty")
    if scorer_kind not in SCORERS:
        raise ParameterError(f"unknown scorer kind {scorer_kind!r}")
    if trees < 1:
        raise ParameterError("trees must be >= 1")
    prefixes = [[tuple(sorted(t.token_ids[:k])) for k in range(1, len(t.steps) + 1)] for t in traces]
    subsets = list(dict.fromkeys(s for p in prefixes for s in p))
    aucs = dict(zip(subsets, _split_aucs(dataset, subsets, plan, scorer_kind, trees)))

    reports = []
    for trace, subs in zip(traces, prefixes):
        entries = []
        for k, subset in enumerate(subs, start=1):
            vals = aucs[subset]
            std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
            entries.append(KEval(k, float(np.mean(vals)), std, jaccard_set(dataset, subset), 0.0))
        reports.append(EvalReport(trace.strategy, tuple(entries)))
    return reports


def univariate_aucs(dataset: Dataset, plan: SplitPlan) -> np.ndarray:
    """Mean single-token AUC per catalog token over the plan's splits."""
    singletons = [(t,) for t in range(len(dataset.catalog))]
    return _split_aucs(dataset, singletons, plan).mean(axis=1)
