"""Record-by-record table scorer, the reference for toksel.evaluation's "table" scorer.

This is the table scorer toksel shipped before a split's table scores
came from its counts per distinct token row: it is fitted on the
training records and scores each test record on its own. The split AUCs
that `toksel.evaluation._split_aucs` takes from counts must equal those
of this scorer, fitted and applied on each split.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from toksel.counts import cell_ids, distinct_rows
from toksel.dataset import check_subset, token_ids
from toksel.errors import DataError, ParameterError
from toksel.evaluation import _smoothed_rate


class TableScorer:
    """Laplace-smoothed empirical P(poor | token pattern) lookup.

    Fitted patterns score (n_poor + 1) / (n + 2); patterns unseen in
    training back off to the smoothed training prior. Subset order is
    canonicalized so the scorer depends only on the token set.
    """

    def __init__(self, subset: Sequence[int]):
        self.subset = tuple(sorted(token_ids(subset)))
        self._scores: Optional[np.ndarray] = None
        self.prior_: Optional[float] = None

    def fit(self, selections: np.ndarray, labels: np.ndarray) -> "TableScorer":
        X = np.asarray(selections)
        check_subset(self.subset, X.shape[1])
        y = np.asarray(labels, dtype=np.int64)
        n1_total = int(y.sum())
        if n1_total == 0 or n1_total == y.size:
            raise DataError("training data must contain both poor and non-poor calls")
        # one training row per cell, so predict can key new rows together with them
        cells, self._cells = distinct_rows(X, self.subset)
        n_cells = self._cells.shape[0]
        n1 = np.bincount(cells, weights=y, minlength=n_cells)
        n = np.bincount(cells, minlength=n_cells).astype(np.float64)
        self.prior_ = _smoothed_rate(n1_total, y.size)
        self._scores = _smoothed_rate(n1, n)
        return self

    def predict(self, selections: np.ndarray) -> np.ndarray:
        if self._scores is None:
            raise ParameterError("scorer is not fitted")
        X = np.asarray(selections)
        check_subset(self.subset, X.shape[1])
        X = X[:, list(self.subset)]
        cells, n_cells = cell_ids(np.vstack([self._cells, X]), range(len(self.subset)))
        fitted = self._cells.shape[0]
        scores = np.full(n_cells, self.prior_)
        scores[cells[:fitted]] = self._scores
        return scores[cells[fitted:]]
