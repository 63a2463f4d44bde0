import io

import numpy as np
import pytest

from toksel import dataset as dataset_module
from toksel.dataset import Dataset, TokenCatalog

import reference_cells


def make_dataset(selections, ratings, catalog=None, arms=None, platforms=None):
    """Build a Dataset from a selection matrix and a rating list (None = unrated)."""
    sel = np.asarray(selections, dtype=np.uint8)
    n, n_tokens = sel.shape
    if catalog is None:
        catalog = TokenCatalog.numbered(n_tokens)
    return Dataset(
        catalog,
        [f"c{i:04d}" for i in range(n)],
        arms or ["none"] * n,
        platforms or ["desktop"] * n,
        np.array([0 if r is None else r for r in ratings], dtype=np.int16),
        sel,
    )


def proportional_split_dataset(*extra_columns):
    """803 rated records; token 0 splits (396 not poor, 407 poor) into (108, 111) and
    (288, 296), so its true gain is 0 and only rounding sets it apart from 0; token 1
    is constant; each of `extra_columns` (803 values of 0/1) is one more token."""
    rows = np.array([[1, 0]] * 219 + [[0, 0]] * 584, dtype=np.uint8)
    ratings = [5] * 108 + [1] * 111 + [5] * 288 + [1] * 296
    return make_dataset(np.column_stack([rows, *extra_columns]).astype(np.uint8), ratings)


def rated_records(ds):
    """The token rows and 0/1 int64 poor-call labels of a Dataset's rated records, in record order."""
    rated = ds.rated_mask
    return ds.selections[rated], (ds.pc_labels[rated] == 1).astype(np.int64)


def contents(ds):
    """Everything a Dataset holds, in a form that compares with ==."""
    return ds.catalog, ds.call_ids, ds.arms, ds.platforms, ds.ratings.tolist(), ds.selections.tolist()


def keyed_contents(ds):
    """What `evaluate` reads of a Dataset or of keyed RowCounts: the catalog, the
    record count, the pattern table with each rated record's key and the
    co-occurrence counts, in a form that compares with ==."""
    table = ds.patterns
    return (
        ds.catalog, len(ds), table.rows.tolist(), table.counts.tolist(), table.key_of_record.tolist(),
        ds.cooccurrence.tolist(),
    )


def counts_contents(counts):
    """What a RowCounts holds, its rated table and what abtest reads of it, in a
    form that compares with ==."""
    table = counts.patterns
    return (
        counts.catalog, counts.rows.tolist(), counts.counts.tolist(), table.rows.tolist(),
        table.counts.tolist(), len(counts), counts.responders, counts.token_sums.tolist(),
    )


def reference_counts_contents(ds):
    """`counts_contents` of a Dataset's records counted one by one (`reference_cells.row_counts`)."""
    rows, counts, _ = reference_cells.row_counts(ds.selections, ds.ratings)
    rated = [(row, c[1:]) for row, c in zip(rows, counts) if c[1] or c[2]]
    return (
        ds.catalog, rows, counts, [row for row, _ in rated], [c for _, c in rated],
        len(ds), int(ds.responded.sum()), ds.selections.sum(axis=0).tolist(),
    )


def written_text(ds, fmt):
    """The text `save_dataset` writes in format `fmt`."""
    buf = io.StringIO()
    dataset_module._WRITERS[fmt](ds, buf)
    return buf.getvalue()


def pc_to_rating(pc):
    """Map a poor-call bit to a representative star rating."""
    return [1 if v else 5 for v in pc]


@pytest.fixture
def xor_dataset():
    """Poor call = token0 XOR token1; token2 constant. Breaks diminishing returns."""
    rows = []
    ratings = []
    for t0 in (0, 1):
        for t1 in (0, 1):
            for _ in range(2):
                rows.append([t0, t1, 0])
                ratings.append(1 if t0 ^ t1 else 5)
    return make_dataset(rows, ratings)


@pytest.fixture
def duplicate_dataset():
    """Tokens 0 and 1 are identical columns; token 2 adds independent signal."""
    rng = np.random.default_rng(99)
    n = 400
    pc = rng.random(n) < 0.4
    a = np.where(pc, rng.random(n) < 0.8, rng.random(n) < 0.1)
    c = np.where(pc, rng.random(n) < 0.6, rng.random(n) < 0.3)
    sel = np.column_stack([a, a, c]).astype(np.uint8)
    return make_dataset(sel, pc_to_rating(pc))
