"""Plug-in entropy and information gain over binary token subsets.

All quantities are in bits. The estimator is the maximum-likelihood
plug-in over empirical cell counts of rated records, taken from the
dataset's pattern table (`Dataset.patterns`) so that one evaluation
costs time in distinct token rows, not in records, with optional
add-alpha smoothing (off by default: smoothing trades the exact
monotonicity of the plug-in estimate for variance reduction).

Numerical note: conditional entropies are assembled from one term per
occupied cell, n*log2(n) - n1*log2(n1) - n0*log2(n0), combined with
math.fsum. fsum returns the correctly rounded sum of the term multiset,
so subsets inducing the same cell populations (duplicate or constant
tokens) produce bit-identical values regardless of cell order, and the
monotonicity audit can use a zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, cell_ids
from .errors import DataError, ParameterError


def entropy(p: float) -> float:
    """Binary entropy in bits, with 0*log2(0) taken as 0."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"probability must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -p * math.log2(p) - q * math.log2(q)


def _validate_subset(dataset: Dataset, subset: Sequence[int]) -> tuple[int, ...]:
    ids = tuple(int(t) for t in subset)
    if len(set(ids)) != len(ids):
        raise ParameterError(f"subset ids must be distinct, got {list(subset)}")
    n_tokens = len(dataset.catalog)
    for t in ids:
        if not 0 <= t < n_tokens:
            raise ParameterError(f"token id {t} outside catalog (size {n_tokens})")
    return ids


def cell_counts(dataset: Dataset, subset: Sequence[int]) -> np.ndarray:
    """Rated records per (occupied cell, poor-call label) of a token subset.

    Returns an (n_cells, 2) float array of exact integer counts, columns
    (not poor, poor). A cell is one combination of the subset's token
    values; cells no rated record falls in are omitted, and cells come
    in the order `toksel.dataset.cell_ids` numbers them.
    """
    ids = _validate_subset(dataset, subset)
    table = dataset.patterns
    if table.total == 0:
        raise DataError("dataset has no rated records")
    cells, n_cells = cell_ids(table.rows, ids)
    return np.stack(
        [np.bincount(cells, weights=table.counts[:, c], minlength=n_cells) for c in (0, 1)],
        axis=1,
    )


def _xlog2(n: np.ndarray) -> np.ndarray:
    # n * log2(n) with n == 0 contributing 0; fractional n (add-alpha pseudocounts) included
    return n * np.log2(np.where(n > 0, n, 1.0))


def _cell_terms(n0: np.ndarray, n1: np.ndarray) -> np.ndarray:
    n = n0 + n1
    return _xlog2(n) - _xlog2(n0) - _xlog2(n1)


def _cond_term_sum(dataset: Dataset, subset: Sequence[int]) -> float:
    """Sum over cells of n*H(pc within cell), scaled by n (i.e. N * H[pc|subset])."""
    counts = cell_counts(dataset, subset)
    terms = _cell_terms(counts[:, 0], counts[:, 1])
    return math.fsum(terms[terms != 0.0])


def _marginal_term(dataset: Dataset) -> tuple[float, int]:
    n0, n1 = (int(c) for c in dataset.patterns.counts.sum(axis=0))
    if n0 + n1 == 0:
        raise DataError("dataset has no rated records")
    term = float(_cell_terms(np.array([float(n0)]), np.array([float(n1)]))[0])
    return term, n0 + n1


def pc_entropy(dataset: Dataset) -> float:
    """Entropy of the poor-call label over rated records, in bits."""
    term, total = _marginal_term(dataset)
    return term / total


class IgEvaluator:
    """Plug-in information gain against one dataset, memoized per subset.

    Keeps each subset's conditional term sum, N * H[pc | subset], under
    the sorted subset: the sum depends only on the cell populations, and
    fsum makes it independent of cell order, so any order of the same
    tokens gets the same bits.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self.base_term, self.total = _marginal_term(dataset)
        self._memo: dict[tuple[int, ...], float] = {}

    def cond(self, subset: Sequence[int]) -> float:
        key = tuple(sorted(int(t) for t in subset))
        value = self._memo.get(key)
        if value is None:
            # through the module global, so that a wrapped _cond_term_sum is the one called
            value = _cond_term_sum(self._dataset, key)
            self._memo[key] = value
        return value

    def ig(self, subset: Sequence[int]) -> float:
        return max(0.0, (self.base_term - self.cond(subset)) / self.total)


def information_gain(dataset: Dataset, subset: Sequence[int], alpha: float = 0.0) -> float:
    """Information gain of the poor-call label from a token subset, in bits.

    Plug-in estimate H[pc] - H[pc | subset] over rated records. With
    alpha > 0, every one of the 2^k * 2 cells receives an add-alpha
    pseudocount (which breaks exact monotonicity).
    """
    subset = _validate_subset(dataset, subset)
    if alpha < 0:
        raise ParameterError("alpha must be >= 0")
    if alpha > 0:
        return _smoothed_ig(dataset, subset, alpha)
    return IgEvaluator(dataset).ig(subset)


def _smoothed_ig(dataset: Dataset, subset: Sequence[int], alpha: float) -> float:
    counts = cell_counts(dataset, subset) + alpha
    # the 2^k - n_cells empty cells each hold (alpha, alpha): summed in closed form
    empty = 2.0 ** len(subset) - counts.shape[0]
    pseudo = np.array([alpha])
    n0 = counts[:, 0].sum() + empty * alpha
    n1 = counts[:, 1].sum() + empty * alpha
    cond = float(np.sum(_cell_terms(counts[:, 0], counts[:, 1])))
    cond += empty * float(_cell_terms(pseudo, pseudo)[0])
    base = float(_cell_terms(np.array([n0]), np.array([n1]))[0])
    return (base - cond) / (n0 + n1)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a sampled property audit over random token subsets."""

    kind: str
    trials: int
    violations: int
    max_violation: float
    tolerance: float
    seed: Optional[int]

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.trials

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }


def _audit_sizes(dataset: Dataset, max_subset_size: Optional[int]) -> int:
    """Largest subset size the audits sample; defaults to min(catalog, 10)
    to keep thousands of trials affordable on wide catalogs."""
    n_tokens = len(dataset.catalog)
    return max(1, min(n_tokens, 10 if max_subset_size is None else max_subset_size))


def audit_monotonicity(
    dataset: Dataset,
    trials: int,
    seed: Optional[int] = None,
    max_subset_size: Optional[int] = None,
) -> AuditReport:
    """Check IG(T1) <= IG(T2) on random chains T1 within T2, at zero tolerance.

    The plug-in estimate satisfies this exactly: conditioning on a finer
    empirical partition can never increase plug-in conditional entropy.
    Violations are counted whenever the finer chain's conditional term
    sum exceeds the coarser one's at all.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n_tokens = len(dataset.catalog)
    cap = _audit_sizes(dataset, max_subset_size)
    ev = IgEvaluator(dataset)

    violations = 0
    max_violation = 0.0
    for _ in range(trials):
        size2 = int(rng.integers(1, cap + 1))
        t2 = rng.permutation(n_tokens)[:size2]
        size1 = int(rng.integers(0, size2 + 1))
        t1 = t2[rng.permutation(size2)[:size1]]
        # IG(T1) > IG(T2) exactly when the T2 term sum exceeds the T1 term sum
        gap = (ev.cond(t2) - ev.cond(t1)) / ev.total
        if gap > 0.0:
            violations += 1
            max_violation = max(max_violation, gap)
    return AuditReport("monotonicity", trials, violations, max_violation, 0.0, seed)


def audit_submodularity(
    dataset: Dataset,
    trials: int,
    seed: Optional[int] = None,
    tolerance: float = 1e-9,
    max_subset_size: Optional[int] = None,
) -> AuditReport:
    """Check the diminishing-returns inequality on random triples (T1 ⊆ T2, e ∉ T2).

    The marginal gain of a token added to the smaller set must be at
    least its gain on the superset, up to `tolerance`. Interaction
    effects between tokens (e.g. an exclusive-or relationship with the
    label) can produce genuine violations.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if tolerance < 0:
        raise ParameterError("tolerance must be >= 0")
    rng = np.random.default_rng(seed)
    n_tokens = len(dataset.catalog)
    if n_tokens < 2:
        raise DataError("submodularity audit needs at least 2 tokens")
    cap = min(_audit_sizes(dataset, max_subset_size), n_tokens - 1)
    ev = IgEvaluator(dataset)

    violations = 0
    max_violation = 0.0
    for _ in range(trials):
        size2 = int(rng.integers(0, cap + 1))
        perm = rng.permutation(n_tokens)
        t2 = perm[:size2]
        e = int(perm[size2])
        size1 = int(rng.integers(0, size2 + 1))
        t1 = t2[rng.permutation(size2)[:size1]]

        t1 = tuple(int(x) for x in t1)
        t2 = tuple(int(x) for x in t2)
        gain_small = ev.cond(t1) - ev.cond(t1 + (e,))
        gain_large = ev.cond(t2) - ev.cond(t2 + (e,))
        gap = (gain_large - gain_small) / ev.total
        if gap > tolerance:
            violations += 1
            max_violation = max(max_violation, gap)
    return AuditReport("submodularity", trials, violations, max_violation, tolerance, seed)
