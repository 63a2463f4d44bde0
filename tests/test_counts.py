"""The block fold (`toksel.counts.RowFold`) against record-by-record counting.

A file's counts load folds each checked block into one table of
distinct token rows and drops it; a Dataset folds its records a chunk at
a time. Either keys each rated record as it merges, when asked. Whatever
the block or chunk size, and however often the fold merges, the rated
table must be the full load's `Dataset.patterns` (rows, counts and row
order), the A/B totals the records' own, and each record's key its row's
index and its label.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toksel import counts as counts_module
from toksel import dataset as dataset_module
from toksel.abtest import run_abtest
from toksel.dataset import ARMS, Dataset, TokenCatalog, load_dataset, save_dataset
from toksel.errors import ParameterError
from toksel.evaluation import SplitPlan, evaluate_subsets, univariate_aucs
from toksel.infotheory import audit_monotonicity, audit_submodularity
from toksel.selection import STRATEGIES
from toksel.synthgen import generate_truth

import reference_cells
from conftest import counts_contents, reference_counts_contents
from test_dataset import _small_demo_config, bit_matrices


@st.composite
def surveys(draw, widths=st.integers(1, 6)):
    """Datasets of 0-40 records over `widths` tokens whose rows repeat, unrated records included."""
    n_tokens = draw(widths)
    distinct = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_tokens, max_size=n_tokens), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(distinct), max_size=40))
    n = len(rows)
    return Dataset(
        TokenCatalog.numbered(n_tokens),
        [f"c{i}" for i in range(n)],
        draw(st.lists(st.sampled_from(ARMS), min_size=n, max_size=n)),
        ["desktop"] * n,
        draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),  # 0: unrated
        np.array(rows, dtype=np.uint8).reshape(n, n_tokens),
    )


def line_bytes(path) -> int:
    """The mean length in bytes of a file's lines."""
    data = path.read_bytes()
    return max(1, len(data) // max(1, data.count(b"\n")))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_counts_load_holds_the_full_load_table_and_totals(fmt, data, tmp_path_factory):
    ds = data.draw(surveys())
    if fmt == "jsonl" and len(ds) == 0:  # a JSONL file with no records names no token
        return
    path = tmp_path_factory.mktemp("counts") / f"d.{fmt}"
    save_dataset(ds, path, format=fmt)
    full = load_dataset(path, format=fmt)
    rows_per_block = data.draw(st.sampled_from([1, 2, 3, None]))  # None: the default block size
    chunk_text = rows_per_block and rows_per_block * line_bytes(path)
    fold_rows = data.draw(st.sampled_from([0, 1, 3, counts_module._FOLD_ROWS]))
    with mock.patch.object(dataset_module, "_CHUNK_TEXT", chunk_text or dataset_module._CHUNK_TEXT), \
            mock.patch.object(counts_module, "_FOLD_ROWS", fold_rows):
        counts = load_dataset(path, format=fmt, counts=True)
    table, want = counts.patterns, full.patterns
    assert table.rows.dtype == np.uint8 and table.counts.dtype == np.int64
    assert np.array_equal(table.rows, want.rows) and np.array_equal(table.counts, want.counts)
    assert table.key_of_record is None
    # every row with its counts per rating class, and abtest's totals
    assert counts_contents(counts) == reference_counts_contents(full)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_keyed_counts_load_keys_each_rated_record_as_the_reference(fmt, data, tmp_path_factory):
    # 40 tokens cross the 32 columns that once fit one int64 key
    ds = data.draw(surveys(st.integers(1, 6) | st.just(40)))
    if fmt == "jsonl" and len(ds) == 0:
        return
    path = tmp_path_factory.mktemp("keyed") / f"d.{fmt}"
    save_dataset(ds, path, format=fmt)
    rows_per_block = data.draw(st.sampled_from([1, 2, 3, None]))
    chunk_text = rows_per_block and rows_per_block * line_bytes(path)
    fold_rows = data.draw(st.sampled_from([1, 2, 3, counts_module._FOLD_ROWS]))
    with mock.patch.object(dataset_module, "_CHUNK_TEXT", chunk_text or dataset_module._CHUNK_TEXT), \
            mock.patch.object(counts_module, "_FOLD_ROWS", fold_rows):
        counts = load_dataset(path, format=fmt, counts=True, keys=True)
    rows, per_class, keys = reference_cells.row_counts(ds.selections, ds.ratings)
    assert (counts.rows.tolist(), counts.counts.tolist()) == (rows, per_class)
    assert counts.key_of_record.dtype == np.int32 and counts.key_of_record.tolist() == keys
    assert counts.patterns.key_of_record is counts.key_of_record


def assert_patterns_are_the_reference(ds):
    table = ds.patterns
    rows, counts, keys = reference_cells.row_counts(ds.selections, ds.ratings)
    rated = [(row, c[1:]) for row, c in zip(rows, counts) if c[1] or c[2]]
    assert table.rows.tolist() == [row for row, _ in rated] and table.counts.tolist() == [c for _, c in rated]
    assert table.key_of_record.dtype == np.int32 and table.key_of_record.tolist() == keys
    assert (ds.row_counts.rows.tolist(), ds.row_counts.counts.tolist()) == (rows, counts)


def chunks(chunk_rows, fold_rows):
    return mock.patch.multiple(dataset_module, _CHUNK_ROWS=chunk_rows), mock.patch.object(
        counts_module, "_FOLD_ROWS", fold_rows
    )


@given(rows=bit_matrices(min_cols=1), data=st.data())
@settings(max_examples=200, deadline=None)
def test_chunked_patterns_are_the_distinct_row_reference(rows, data):
    ratings = data.draw(st.lists(st.integers(0, 5), min_size=len(rows), max_size=len(rows)))
    n = len(rows)
    ds = Dataset(TokenCatalog.numbered(rows.shape[1]), ["c"] * n, ["none"] * n, ["p"] * n, ratings, rows)
    patch_rows, patch_fold = chunks(data.draw(st.integers(1, 7)), data.draw(st.integers(0, 9)))
    with patch_rows, patch_fold:
        assert_patterns_are_the_reference(ds)


@pytest.mark.parametrize("n_tokens, chunk_rows, fold_rows", [(40, 64, 100), (40, 4096, 1 << 14), (15, 7, 0)])
def test_chunked_patterns_of_wide_and_narrow_catalogs(n_tokens, chunk_rows, fold_rows):
    # 40 tokens cross the 32 columns that once fit one int64 key
    rng = np.random.default_rng(n_tokens)
    distinct = (rng.random((600, n_tokens)) < 0.1).astype(np.uint8)
    rows = distinct[rng.integers(0, len(distinct), 3000)]
    ratings = rng.integers(0, 6, len(rows))
    n = len(rows)
    ds = Dataset(TokenCatalog.numbered(n_tokens), ["c"] * n, ["none"] * n, ["p"] * n, ratings, rows)
    patch_rows, patch_fold = chunks(chunk_rows, fold_rows)
    with patch_rows, patch_fold:
        assert_patterns_are_the_reference(ds)


def test_merges_are_amortized(monkeypatch):
    # rows that never repeat, one per block: the rows merged at once at least double
    # the table, so 1,000 blocks take about log2(1,000) merges, not 1,000
    merges = []
    cell_ids = counts_module.cell_ids

    def spy(rows, subset):
        merges.append(len(rows))
        return cell_ids(rows, subset)

    monkeypatch.setattr(counts_module, "cell_ids", spy)
    monkeypatch.setattr(counts_module, "_FOLD_ROWS", 0)
    fold = counts_module.RowFold(12)
    for i in range(1000):
        fold.add(np.array([[i >> j & 1 for j in range(12)]], np.uint8), np.array([i % 6]))
    counts = fold.result(TokenCatalog.numbered(12))
    assert 0 < len(merges) <= 12 and sum(merges) < 3000
    assert counts.rows.shape == (1000, 12) and len(counts) == 1000
    assert counts.rows.tolist() == [[i >> j & 1 for j in range(12)] for i in range(1000)]


def test_keyed_fold_carries_each_record_through_every_merge(monkeypatch):
    # one record per block, in an order that puts most new rows below the table's,
    # so that nearly every merge moves rows that earlier records were keyed by
    monkeypatch.setattr(counts_module, "_FOLD_ROWS", 0)
    values = [(389 * i) % 700 for i in range(1500)]
    sel = np.array([[v >> j & 1 for j in range(10)] for v in values], np.uint8)
    ratings = np.array([i * 7 % 6 for i in range(1500)])
    fold = counts_module.RowFold(10, keys=True)
    for row, rating in zip(sel, ratings):
        fold.add(row[None], rating[None])
    counts = fold.result(TokenCatalog.numbered(10))
    rows, per_class, keys = reference_cells.row_counts(sel, ratings)
    assert (counts.rows.tolist(), counts.counts.tolist()) == (rows, per_class)
    assert counts.key_of_record.dtype == np.int32 and counts.key_of_record.tolist() == keys


@given(keys=st.lists(st.integers(0, 63), max_size=50))
def test_compact_ranks_the_keys_that_occur(keys):
    keys = np.array(keys, np.int64)
    ranks, n = counts_module._compact(keys, 64)
    distinct, inverse = np.unique(keys, return_inverse=True)
    assert n == distinct.size and ranks.tolist() == inverse.reshape(-1).tolist()


@pytest.fixture(scope="module")
def survey_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("survey") / "d.csv"
    save_dataset(generate_truth(_small_demo_config(3000)), path)
    return path


def test_counts_give_the_dataset_statistics(survey_file):
    # every registry row that draws no record split, both audits and both abtest
    # denominators read a file's counts as they read its Dataset
    ds, counts = load_dataset(survey_file), load_dataset(survey_file, counts=True)
    for name, (run, _, draws) in STRATEGIES.items():
        if draws != "splits":
            assert run(counts, 6, 3, 5, 0.7) == run(ds, 6, 3, 5, 0.7), name
    assert STRATEGIES["exhaustive"][0](counts, 3, None, 5, 0.7) == STRATEGIES["exhaustive"][0](ds, 3, None, 5, 0.7)
    assert audit_monotonicity(counts, 60, 1) == audit_monotonicity(ds, 60, 1)
    assert audit_submodularity(counts, 60, 1) == audit_submodularity(ds, 60, 1)
    for denominator in ("displays", "responders"):
        assert run_abtest(counts, counts, denominator) == run_abtest(ds, ds, denominator)


@pytest.mark.parametrize("scorer", ["table", "forest"])
def test_keyed_counts_give_the_dataset_evaluation(survey_file, scorer):
    # the repeated splits and Jaccard read a file's keyed counts as they read its Dataset
    ds, keyed = load_dataset(survey_file), load_dataset(survey_file, counts=True, keys=True)
    auc_greedy, rits = STRATEGIES["auc_greedy"][0], STRATEGIES["rits"][0]
    traces = [auc_greedy(ds, 4, 3, 5, 0.7), rits(ds, 4, 3, 5, 0.7)]
    assert auc_greedy(keyed, 4, 3, 5, 0.7) == traces[0]
    plan = SplitPlan(splits=3, master_seed=2)
    assert evaluate_subsets(keyed, traces, plan, scorer, 2) == evaluate_subsets(ds, traces, plan, scorer, 2)


def test_counts_without_keys_refuse_record_splits(survey_file):
    with pytest.raises(ParameterError, match="each rated record's key"):
        univariate_aucs(load_dataset(survey_file, counts=True), SplitPlan(splits=2))
