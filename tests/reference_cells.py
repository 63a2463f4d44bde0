"""Sort-based cell keying, the reference for toksel.counts' bincount compaction.

These are the keyings toksel shipped before one compaction numbered
every cell: `cell_ids` ran `np.unique` over int64 codes of 32 tokens at
a time, and the pattern table was built by `np.unique` over each row
packed into a byte string. `toksel.counts.cell_ids` must give the same
ids for every subset of at most 32 tokens, and `Dataset.patterns` the
same rows and counts, in any row order.

`cond_term_sum` is the term sum toksel shipped before every term sum came
from one batched routine: one subset's `cell_counts`, one term per cell
and one fsum. The batched sums must agree with it to the bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from toksel.infotheory import cell_counts

# The previous chunks' cell id, shifted left by the chunk width, and the
# chunk's packed bits fit in int64.
KEY_CHUNK = 32


def cell_ids(rows: np.ndarray, subset: Sequence[int]) -> tuple[np.ndarray, int]:
    """Cell of each row and the number of cells: ids in increasing order of
    the subset values read as a binary number, subset[j] as bit j of its
    32-token chunk and earlier chunks more significant."""
    subset = list(subset)
    ids = np.zeros(rows.shape[0], dtype=np.int64)
    for start in range(0, len(subset), KEY_CHUNK):
        chunk = subset[start:start + KEY_CHUNK]
        weights = np.left_shift(1, np.arange(len(chunk), dtype=np.int64))
        code = rows[:, chunk].astype(np.int64) @ weights
        _, ids = np.unique((ids << KEY_CHUNK) | code, return_inverse=True)
        ids = ids.reshape(-1)
    n_cells = int(ids.max()) + 1 if ids.size else 0
    return ids, n_cells


def patterns(sel: np.ndarray, pc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, counts, row of each record) of rated selections `sel` with 0/1 labels `pc`:
    distinct rows in byte order of the packed rows, token 0 most significant."""
    packed = np.ascontiguousarray(np.packbits(sel, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1).astype(np.int64)
    counts = np.bincount(inverse * 2 + pc, minlength=2 * first.size)
    return sel[first], counts.reshape(-1, 2), inverse


def row_counts(sel: np.ndarray, ratings: np.ndarray) -> tuple[list, list, list]:
    """Counted record by record: the distinct rows of `sel`, in increasing order
    read as binary numbers with token 0 least significant, each row's records
    per rating class (unrated, not poor: 3-5 stars, poor: 1-2 stars) for stored
    `ratings` (0 for unrated), and each rated record's index among the rated
    rows * 2 + its poor-call label."""
    counts: dict = {}
    for row, rating in zip(map(tuple, sel.tolist()), ratings.tolist()):
        counts.setdefault(row, [0, 0, 0])[0 if rating == 0 else 2 if rating <= 2 else 1] += 1
    rows = sorted(counts, key=lambda row: sum(bit << j for j, bit in enumerate(row)))
    rated = {row: i for i, row in enumerate(r for r in rows if counts[r][1] or counts[r][2])}
    keys = [rated[row] * 2 + (rating <= 2) for row, rating in zip(map(tuple, sel.tolist()), ratings.tolist()) if rating]
    return [list(row) for row in rows], [counts[row] for row in rows], keys


def _xlog2(n: np.ndarray) -> np.ndarray:
    return n * np.log2(np.where(n > 0, n, 1.0))


def cond_term_sum(dataset, subset: Sequence[int]) -> float:
    """N * H[pc | subset]: the fsum over the subset's cells of the nonzero
    n*log2(n) - n0*log2(n0) - n1*log2(n1)."""
    counts = cell_counts(dataset, subset)
    n0, n1 = counts[:, 0], counts[:, 1]
    terms = _xlog2(n0 + n1) - _xlog2(n0) - _xlog2(n1)
    return math.fsum(terms[terms != 0.0])
