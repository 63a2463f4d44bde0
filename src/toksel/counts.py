"""Counts of distinct token rows: the one form every statistic reads.

Every statistic conditioned on the poor-call label (IG, the audits, the
searches, the table scorer) and every A/B count depends on a survey only
through how many records share each token row, per rating class
(unrated, not poor, poor). `RowFold` folds blocks of rows into that
table and keeps no block: the loaders fold a file's checked blocks
(`load_dataset(..., counts=True)` gives their `RowCounts`), and a
`Dataset` its records a chunk at a time. Blocks wait in a buffer as long
as the table (`_FOLD_ROWS` rows at least) and merge into it when it is
full, so even rows that seldom repeat are merged a logarithmic number of
times.

Cells are numbered by `_compact`: the keys that occur, renumbered 0..n-1
in increasing order by a bincount and a cumsum, no sort. `fold_keys`
folds a subset's columns into each row's key a bit at a time, compacting
whenever the key range passes twice the row count, so no subset is too
wide and no bincount takes more than four bins per row.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import CapacityError, ParameterError

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import TokenCatalog

# Rows a fold's buffer holds at least. Fewer merge more often (at 900,000 calls the
# fold takes 0.07 s at 8,192, about half that at 16,384), more make each merge's arrays
# larger (16,384 added 0.7 MB to abtest's peak on two 50,000-call arms, 8,192 none).
_FOLD_ROWS = 1 << 13
# The rating class of a stored rating (0 for unrated): 0 unrated, 1 not poor (3-5 stars), 2 poor (1-2 stars).
_RATING_CLASSES = np.array([0, 2, 2, 1, 1, 1], np.intp)


def _compact(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, int]:
    """Keys in 0..n_keys-1 renumbered 0..n-1 in increasing order over the n
    keys that occur: one bincount and a cumsum, no sort."""
    occupied = np.bincount(keys, minlength=n_keys) > 0
    ranks = np.cumsum(occupied) - 1
    return ranks[keys], int(np.count_nonzero(occupied))


def _mapped_int32(values: np.ndarray) -> np.ndarray:
    """`values` as int32 in a memory mapping of their own, unmapped whole when dropped."""
    out = np.frombuffer(mmap.mmap(-1, max(1, 4 * values.size)), np.int32, values.size)
    np.copyto(out, values, casting="unsafe")
    return out


def cell_ids(rows: np.ndarray, subset: Sequence[int]) -> tuple[np.ndarray, int]:
    """Cell of each row under a token subset, and the number of cells.

    Rows share a cell exactly when they agree on every column in
    `subset`. Ids run 0..n_cells-1 in increasing order of the rows'
    subset values read as a binary number, Σ row[subset[j]] * 2^j, so
    subset[0] is the least significant bit. Any subset width works
    (`fold_keys`).
    """
    return fold_keys(rows.T, 0, 1, np.array([list(subset)], dtype=np.intp).reshape(1, -1), dense=True)


def fold_keys(
    columns: np.ndarray, start, width: int, subsets: np.ndarray, dense: bool = False
) -> tuple[np.ndarray, int]:
    """Cell keys of m blocks of rows, stacked: block j starts from its own
    cells and is refined by the token columns in row j of the (m, s) `subsets`.

    `columns` is the rows transposed, (n_tokens, n_rows). `start`
    (broadcast to (m, n_rows)) holds each row's starting cell in each
    block, ids below `width`; block j's are offset by j * width. The
    columns are folded in from the last, as less significant bits than
    the start, and the keys are renumbered (`_compact`) whenever their
    range passes twice their count, so no bincount takes more than four
    bins per key. Returns the (m * n_rows,) keys, block by block, and
    their range: rows share a key exactly when they are in one block and
    share its start cell and its columns' values. Each block's keys are
    below the next block's, and within a block they increase with the
    start cell, then with the columns' values read as a binary number,
    subsets[j][0] the least significant bit. Keys are renumbered only
    over those that occur, so some keys in the range may not occur, unless
    `dense`: then they are renumbered at the end too, if the last column
    left them so, and every key in the range occurs.
    """
    m, size = subsets.shape
    keys = np.empty((m, columns.shape[1]), dtype=np.int64)
    np.add(start, width * np.arange(m)[:, None], out=keys)
    keys, n_keys, compacted = keys.reshape(-1), m * width, False
    for i in reversed(range(size)):
        keys *= 2
        keys += columns[subsets[:, i]].reshape(-1)
        n_keys *= 2
        compacted = n_keys > 2 * keys.size
        if compacted:
            keys, n_keys = _compact(keys, n_keys)
    if dense and not compacted:
        keys, n_keys = _compact(keys, n_keys)
    return keys, n_keys


def refine_cells(cells: np.ndarray, column: np.ndarray, n_cells: int) -> tuple[np.ndarray, int]:
    """Cells of S + t from the cells of S (ids 0..n_cells-1) and t's 0/1 column.

    A row's new cell is its pair (old cell, column value), numbered in
    increasing order over the occupied pairs, column value least
    significant. Started from `cell_ids(rows, ())` and refined by
    t_1, ..., t_m, the ids are `cell_ids(rows, (t_m, ..., t_1))`'s.
    """
    return _compact(2 * cells + column, 2 * n_cells)


def distinct_rows(rows: np.ndarray, subset: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's cell under a token subset (as `cell_ids` numbers them), and
    the subset's columns of one row per cell, so that row c stands for cell c."""
    cells, n_cells = cell_ids(rows, subset)
    row_of_cell = np.empty(n_cells, dtype=np.int64)
    row_of_cell[cells] = np.arange(cells.size)
    return cells, rows[np.ix_(row_of_cell, list(subset))]


@dataclass(frozen=True)
class PatternTable:
    """Distinct token rows of a dataset's rated records, with poor-call counts.

    Every plug-in statistic conditioned on the poor-call label depends on
    the records only through these counts. Rows come in the order
    `cell_ids` numbers the cells of the whole catalog: increasing as
    binary numbers with token 0 least significant. A subsample of the rated
    records (one side of a split) is one bincount of their keys, and their
    rows and labels are `rows[key >> 1]` and `key & 1`; a table folded
    without keys (`RowFold(..., keys=False)`) has none.
    """

    rows: np.ndarray  # (n_patterns, n_tokens) uint8, each distinct rated token row once
    counts: np.ndarray  # (n_patterns, 2) int64: rated records per row that are (not poor, poor)
    # (n_rated,) int32: each rated record's pattern index * 2 + poor-call label, or None
    key_of_record: Optional[np.ndarray] = None
    # (n_tokens, n_patterns) uint8: `rows` transposed, so that each token's column is contiguous
    columns: np.ndarray = field(init=False, repr=False, compare=False)
    # (2, n_patterns) float64: `counts` transposed, the weights a bincount per label takes
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", np.ascontiguousarray(self.rows.T))
        object.__setattr__(self, "weights", np.ascontiguousarray(self.counts.T, dtype=np.float64))
        for arr in (self.rows, self.counts, self.key_of_record, self.columns, self.weights):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class RowFold:
    """Blocks of token rows, each row with its rating, folded into the distinct
    rows and their records per rating class.

    Blocks wait in one buffer of `max(_FOLD_ROWS, table rows)` rows, a memory
    mapping of its own, so that no waiting block sits in the heap among the
    short-lived arrays that read the next ones. A block that does not fit
    merges the buffer first; one longer than the buffer merges alone.
    With `keys`, each merge keeps its records' keys (3 * row + rating class) and
    its old rows' new rows, as int32, and `result` composes them into `key_of_record`,
    releasing each merge's arrays once composed, so that the records' keys are held once.
    A fold gives its result once: its buffer and merges go with it.
    """

    def __init__(self, n_tokens: int, keys: bool = False):
        self.rows = np.zeros((0, n_tokens), np.uint8)
        self.counts = np.zeros((0, 3), np.int64)
        self._cells = self._ratings = None
        self._pending = 0
        self._merges = [] if keys else None  # (old rows' new rows, records' keys) per merge
        self._size_buffer()

    def _size_buffer(self) -> None:
        """A buffer of max(_FOLD_ROWS, table rows) rows, kept while it is as long."""
        size, n_tokens = max(1, _FOLD_ROWS, len(self.rows)), self.rows.shape[1]
        if self._cells is None or len(self._cells) < size:
            mapping = mmap.mmap(-1, size * (n_tokens + 1))
            self._cells = np.frombuffer(mapping, np.uint8, size * n_tokens).reshape(size, n_tokens)
            self._ratings = np.frombuffer(mapping, np.uint8, size, size * n_tokens)

    def add(self, cells: np.ndarray, ratings: np.ndarray) -> None:
        """Fold in (n, n_tokens) 0/1 cells and their n stored ratings (0 for unrated)."""
        n = len(cells)
        if self._pending + n > len(self._cells):
            self._merge(self._cells[:self._pending], self._ratings[:self._pending])
        if n > len(self._cells):
            self._merge(cells, ratings)
            return
        self._cells[self._pending:self._pending + n] = cells
        self._ratings[self._pending:self._pending + n] = ratings
        self._pending += n

    def _merge(self, cells: np.ndarray, ratings: np.ndarray) -> None:
        """The table's rows and `cells` stacked, keyed by `cell_ids` over the whole
        catalog: the keys that occur are the new table's rows, in order."""
        n = len(self.rows)
        stacked = np.concatenate([self.rows, cells])
        ids, n_rows = cell_ids(stacked, range(stacked.shape[1]))
        row_of_id = np.empty(n_rows, np.intp)
        row_of_id[ids] = np.arange(len(ids))
        counts = np.zeros((n_rows, 3), np.int64)
        counts[ids[:n]] = self.counts  # the table's rows are distinct: one row per key
        counts += np.bincount(3 * ids[n:] + _RATING_CLASSES[ratings], minlength=counts.size).reshape(-1, 3)
        if self._merges is not None:  # keyed again: kept from the bincount, they outlive its temporaries
            if counts.size > np.iinfo(np.int32).max:
                raise CapacityError(f"{n_rows} distinct token rows: too many to key each record in int32")
            self._merges.append((_mapped_int32(ids[:n]), _mapped_int32(3 * ids[n:] + _RATING_CLASSES[ratings])))
        self.rows, self.counts, self._pending = stacked[row_of_id], counts, 0
        self._size_buffer()

    def result(self, catalog: "TokenCatalog") -> "RowCounts":
        if self._cells is None:
            raise ParameterError("a fold gives its result once")
        if self._pending:
            self._merge(self._cells[:self._pending], self._ratings[:self._pending])
        self._cells = self._ratings = None
        return RowCounts(catalog, self.rows, self.counts, None if self._merges is None else self._record_keys())

    def _record_keys(self) -> np.ndarray:
        """Each rated record's rated row * 2 + poor-call label, int32: from the last merge
        back, `key` maps each (row, rating class) of the table it left to that, or -1."""
        rated = self.counts[:, 1:].any(axis=1)
        key = np.full((len(self.rows), 3), -1, np.int32)
        key[rated, 1:] = 2 * np.arange(np.count_nonzero(rated))[:, None] + [0, 1]
        out = np.empty(int(self.counts[:, 1:].sum()), np.int32)
        end = out.size
        while self._merges:
            old_rows, records = self._merges.pop()
            got = key.reshape(-1)[records]
            got = got[got >= 0]
            out[end - got.size:end], end = got, end - got.size
            key = key[old_rows]
        return out


@dataclass(frozen=True, eq=False)
class RowCounts:
    """A survey's distinct token rows, in `cell_ids` order of the whole catalog,
    with their records per rating class: (unrated, not poor, poor).

    What a statistic load gives (`load_dataset(..., counts=True)`): no record is
    kept, and every statistic reads it as it reads a `Dataset`, through `catalog`,
    `patterns` and `cooccurrence`, and the repeated splits through the keys.
    """

    catalog: "TokenCatalog"
    rows: np.ndarray  # (n_rows, n_tokens) uint8
    counts: np.ndarray  # (n_rows, 3) int64
    key_of_record: Optional[np.ndarray] = None  # (n_rated,) int32 `PatternTable` keys, or None

    def __post_init__(self):
        for arr in (self.rows, self.counts, self.key_of_record):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.counts.sum())

    @property
    def responders(self) -> int:
        """Records that select some token."""
        return int(self.counts[self.rows.any(axis=1)].sum())

    @property
    def token_sums(self) -> np.ndarray:
        """int64 records that select each token."""
        return self.rows.T.astype(np.int64) @ self.counts.sum(axis=1)

    def _rated(self) -> tuple[np.ndarray, np.ndarray]:
        """The rated rows and their (not poor, poor) counts."""
        rated = self.counts[:, 1:].any(axis=1)
        return self.rows[rated], self.counts[rated, 1:]

    @cached_property
    def patterns(self) -> PatternTable:
        """The rated rows' table, with the records' keys if folded with them."""
        return PatternTable(*self._rated(), self.key_of_record)

    @cached_property
    def cooccurrence(self) -> np.ndarray:
        """float64 records selecting both of two tokens: int64 sums over blocks of rows under 128 KiB."""
        total, out = self.counts.sum(axis=1), np.zeros((self.rows.shape[1],) * 2, np.int64)
        step = max(1, (1 << 14) // max(1, self.rows.shape[1]))
        for lo in range(0, len(self.rows), step):
            rows = self.rows[lo:lo + step]
            out += rows.T @ (rows * total[lo:lo + step, None])
        return out.astype(np.float64)
