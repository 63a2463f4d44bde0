"""Plug-in entropy and information gain over binary token subsets.

All quantities are in bits. The estimator is the maximum-likelihood
plug-in over empirical cell counts of rated records, taken from the
dataset's pattern table (`Dataset.patterns`) so that one evaluation
costs time in distinct token rows, not in records.

Numerical note: conditional entropies are assembled from one term per
occupied cell, n*log2(n) - n1*log2(n1) - n0*log2(n0), combined with
math.fsum. fsum returns the correctly rounded sum of the term multiset,
so subsets inducing the same cell populations (duplicate or constant
tokens) produce bit-identical values regardless of cell order, and the
monotonicity audit can use a zero tolerance. But each term is rounded
before the sum, so a token that splits cells in exact proportion (true
gain 0) can still show a violation of about 1e-15 bits.

Many subsets are scored at once by `stacked_term_sums`: their cell keys
are stacked and folded together (`dataset.fold_keys`), counted by one
bincount per label, and each subset's nonzero terms summed by one fsum,
so each sum is the same bits as `_cond_term_sum`'s. The greedy and
exhaustive searches score one-token extensions this way
(`extension_term_sums`), and the audits draw every trial first and
then score each distinct subset once, in batches of equal size
(`subset_term_sums`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, PatternTable, cell_ids, check_subset, fold_keys
from .errors import DataError, ParameterError


def entropy(p: float) -> float:
    """Binary entropy in bits, with 0*log2(0) taken as 0."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"probability must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -p * math.log2(p) - q * math.log2(q)


def cell_counts(dataset: Dataset, subset: Sequence[int]) -> np.ndarray:
    """Rated records per (occupied cell, poor-call label) of a token subset.

    Returns an (n_cells, 2) float array of exact integer counts, columns
    (not poor, poor). A cell is one combination of the subset's token
    values; cells no rated record falls in are omitted, and cells come
    in the order `toksel.dataset.cell_ids` numbers them.
    """
    ids = check_subset(subset, len(dataset.catalog))
    table = dataset.patterns
    if table.total == 0:
        raise DataError("dataset has no rated records")
    cells, n_cells = cell_ids(table.rows, ids)
    return np.stack(
        [np.bincount(cells, weights=table.counts[:, c], minlength=n_cells) for c in (0, 1)],
        axis=1,
    )


def _xlog2(n: np.ndarray) -> np.ndarray:
    # n * log2(n) with n == 0 contributing 0
    return n * np.log2(np.where(n > 0, n, 1.0))


def _cell_terms(n0: np.ndarray, n1: np.ndarray) -> np.ndarray:
    n = n0 + n1
    return _xlog2(n) - _xlog2(n0) - _xlog2(n1)


def _cond_term_sum(dataset: Dataset, subset: Sequence[int]) -> float:
    """Sum over cells of n*H(pc within cell), scaled by n (i.e. N * H[pc|subset]).

    The empty subset has one cell holding every rated record: its sum is N * H[pc].
    """
    counts = cell_counts(dataset, subset)
    terms = _cell_terms(counts[:, 0], counts[:, 1])
    return math.fsum(terms[terms != 0.0])


def stacked_term_sums(table: PatternTable, start, width: int, subsets: np.ndarray) -> list[float]:
    """N * H[pc | cells] for each block of `dataset.fold_keys(table.columns, start, width, subsets)`.

    The blocks' keys are counted per label in one bincount over all
    blocks, the term n*log2(n) - n0*log2(n0) - n1*log2(n1) taken for
    each occupied key, and each block's nonzero terms summed by one fsum.
    A block's keys are its subset's cells, so its sum is the fsum of the
    same nonzero terms that `_cond_term_sum` adds for that subset, and
    the two agree to the bit.
    """
    m, n_rows = subsets.shape[0], table.rows.shape[0]
    if m == 0 or n_rows == 0:
        return [0.0] * m
    keys, n_keys = fold_keys(table.columns, start, width, subsets)
    n0, n1 = (np.bincount(keys, np.tile(w, m), minlength=n_keys) for w in table.weights)
    occupied = np.flatnonzero(n0 + n1)
    terms = _cell_terms(n0[occupied], n1[occupied])
    nonzero = terms != 0.0
    values = terms[nonzero].tolist()
    # each block's keys are below the next block's: a block ends after its largest key
    last = np.searchsorted(occupied, keys.reshape(m, n_rows).max(axis=1))
    ends = np.cumsum(nonzero)[last].tolist()
    return [math.fsum(values[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def extension_term_sums(
    table: PatternTable, cells: np.ndarray, n_cells: int, candidates: Sequence[int]
) -> list[float]:
    """N * H[pc | S + t] for each candidate t, from the cells of S over `table.rows`.

    The j-th candidate is block j of `stacked_term_sums`: it starts from
    the cells of S and is refined by t's column. Each sum agrees to the
    bit with `_cond_term_sum(dataset, S + t)`. Memory is O(candidates * rows).
    """
    candidates = np.array(list(candidates), dtype=np.intp)
    return stacked_term_sums(table, cells, n_cells, candidates[:, None])


def subset_term_sums(table: PatternTable, subsets: Sequence[Sequence[int]]) -> list[float]:
    """N * H[pc | subset] for each of equal-size subsets, scored as the blocks of one
    `stacked_term_sums`; each agrees to the bit with `_cond_term_sum`."""
    size = len(subsets[0]) if subsets else 0
    return stacked_term_sums(table, 0, 1, np.array(subsets, dtype=np.intp).reshape(len(subsets), size))


def pc_entropy(dataset: Dataset) -> float:
    """Entropy of the poor-call label over rated records, in bits."""
    return _cond_term_sum(dataset, ()) / dataset.patterns.total


class IgEvaluator:
    """Plug-in information gain against one dataset.

    A subset's conditional term sum, N * H[pc | subset], depends only on
    its cell populations, and fsum makes it independent of cell order, so
    any order of the same tokens gets the same bits.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self.base_term = self.cond(())
        self.patterns = dataset.patterns
        self.total = self.patterns.total

    def cond(self, subset: Sequence[int]) -> float:
        # through the module global, so that a wrapped _cond_term_sum is the one called
        return _cond_term_sum(self._dataset, subset)

    def ig(self, subset: Sequence[int]) -> float:
        return self.gain(self.cond(subset))

    def gain(self, term_sum: float) -> float:
        """The information gain of a subset whose conditional term sum is `term_sum`."""
        return max(0.0, (self.base_term - term_sum) / self.total)


def information_gain(dataset: Dataset, subset: Sequence[int]) -> float:
    """Information gain of the poor-call label from a token subset, in bits.

    Plug-in estimate H[pc] - H[pc | subset] over rated records.
    """
    subset = check_subset(subset, len(dataset.catalog))
    return IgEvaluator(dataset).ig(subset)


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
        return {name: value for name, value in asdict(self).items() if name != "kind"}


# Largest subset the audits sample, so that thousands of trials stay affordable on wide catalogs.
_AUDIT_MAX_SIZE = 10
# Keys (subsets * table rows) an audit scores in one batch: a bound on the batch's arrays.
_AUDIT_BATCH_KEYS = 1 << 14


def _audit(kind, dataset, trials, seed, tolerance, min_tokens, draw, gap) -> AuditReport:
    """Count the gaps above `tolerance` of `trials` draws of `draw(rng, n_tokens)`.

    A draw reads no term sum, so every trial is drawn first, in order,
    from one generator: the subsets it returns, each as its sorted ids.
    Each distinct subset is then scored once, in batches of subsets of one
    size (`subset_term_sums`), and each trial's gap is `gap` of its
    subsets' term sums, divided by the rated-record count.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not 0 <= tolerance < math.inf:
        raise ParameterError(f"tolerance must be a finite number >= 0, got {tolerance}")
    n_tokens = len(dataset.catalog)
    if n_tokens < min_tokens:
        raise DataError(f"{kind} audit needs at least {min_tokens} tokens")
    table = dataset.patterns
    total = table.total
    if total == 0:
        raise DataError("dataset has no rated records")
    rng = np.random.default_rng(seed)
    draws = [draw(rng, n_tokens) for _ in range(trials)]

    by_size: dict[int, set] = {}
    for subsets in draws:
        for subset in subsets:
            by_size.setdefault(len(subset), set()).add(subset)
    per_batch = max(1, _AUDIT_BATCH_KEYS // table.rows.shape[0])
    term_sums = {}
    for size in sorted(by_size):
        subsets = sorted(by_size[size])
        for lo in range(0, len(subsets), per_batch):
            batch = subsets[lo:lo + per_batch]
            term_sums.update(zip(batch, subset_term_sums(table, batch)))

    violations = 0
    max_violation = 0.0
    for subsets in draws:
        value = gap(*(term_sums[subset] for subset in subsets)) / total
        if value > tolerance:
            violations += 1
            max_violation = max(max_violation, value)
    return AuditReport(kind, trials, violations, max_violation, tolerance, seed)


def audit_monotonicity(dataset: Dataset, trials: int, seed: Optional[int] = None) -> AuditReport:
    """Check IG(T1) <= IG(T2) on random chains T1 within T2, at zero tolerance.

    The plug-in estimate satisfies this in exact arithmetic: conditioning
    on a finer empirical partition can never increase plug-in conditional
    entropy. Violations are counted whenever the finer chain's conditional
    term sum exceeds the coarser one's at all; see the module docstring
    for the rounding case where that happens.
    """

    def draw(rng, n_tokens):
        size2 = int(rng.integers(1, min(n_tokens, _AUDIT_MAX_SIZE) + 1))
        t2 = rng.permutation(n_tokens)[:size2]
        size1 = int(rng.integers(0, size2 + 1))
        t1 = t2[rng.permutation(size2)[:size1]]
        return tuple(sorted(t2.tolist())), tuple(sorted(t1.tolist()))

    # IG(T1) > IG(T2) exactly when the T2 term sum exceeds the T1 term sum
    return _audit("monotonicity", dataset, trials, seed, 0.0, 1, draw, lambda t2, t1: t2 - t1)


def audit_submodularity(
    dataset: Dataset,
    trials: int,
    seed: Optional[int] = None,
    tolerance: float = 1e-9,
) -> AuditReport:
    """Check the diminishing-returns inequality on random triples (T1 ⊆ T2, e ∉ T2).

    The marginal gain of a token added to the smaller set must be at
    least its gain on the superset, up to `tolerance`. Interaction
    effects between tokens (e.g. an exclusive-or relationship with the
    label) can produce genuine violations.
    """

    def draw(rng, n_tokens):
        size2 = int(rng.integers(0, min(n_tokens - 1, _AUDIT_MAX_SIZE) + 1))
        perm = rng.permutation(n_tokens)
        t2 = tuple(int(x) for x in perm[:size2])
        e = int(perm[size2])
        size1 = int(rng.integers(0, size2 + 1))
        t1 = tuple(t2[i] for i in rng.permutation(size2)[:size1])
        return tuple(sorted(t1)), tuple(sorted(t1 + (e,))), tuple(sorted(t2)), tuple(sorted(t2 + (e,)))

    def gap(t1, t1e, t2, t2e):
        gain_small = t1 - t1e
        gain_large = t2 - t2e
        return gain_large - gain_small

    return _audit("submodularity", dataset, trials, seed, tolerance, 2, draw, gap)
