"""The compact string column against plain lists of str.

Values are drawn from awkward text: empty, NUL, CR/LF, quote, comma,
non-ASCII and a lone surrogate, which a str holds but a UTF-8 file does
not, so file round trips draw without it. Every property runs with
chunks of 1, 2 and 3 rows.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from toksel import dataset as dataset_module
from toksel.dataset import (
    ARMS,
    Dataset,
    ResponseRecord,
    StringColumn,
    TokenCatalog,
    dataset_to_csv_text,
    dataset_to_jsonl_text,
    filter_dataset,
    load_dataset,
)

FILE_CHARS = ["\0", "\r", "\n", '"', ",", "a", "1", " ", "ü", "語", "😀"]
CHUNK_ROWS = st.sampled_from([1, 2, 3])


@st.composite
def values(draw, chars=(*FILE_CHARS, "\ud800"), max_size=9):
    """A list of strings: of any length, or now and then all of one length,
    which `StringColumn.slice` reads through numpy when they are ASCII."""
    alphabet = st.sampled_from(chars)
    if draw(st.booleans()):
        width = draw(st.integers(0, 3))
        text = st.text(alphabet, min_size=width, max_size=width)
    else:
        text = st.text(alphabet, max_size=4)
    return draw(st.lists(text, max_size=max_size))


def chunked(rows):
    """Values joined and written, and csv.reader's rows read, `rows` at a time;
    lines read in chunks of about as many of these files' short lines."""
    return mock.patch.multiple(dataset_module, _CHUNK_ROWS=rows, _CHUNK_TEXT=16 * rows)


@given(values(), CHUNK_ROWS, st.data())
@settings(max_examples=200, deadline=None)
def test_column_slices_takes_and_concatenations_match_the_list(strings, rows, data):
    with chunked(rows):
        column = StringColumn.of(strings)
        assert len(column) == len(strings)
        assert column.text == "".join(strings)
        n = len(strings)
        for lo in range(n + 1):
            for hi in range(lo, n + 2):
                assert column.slice(lo, hi) == strings[lo:hi]
        idx = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
        assert column.take(np.array(idx, np.int64)).slice(0, len(idx)) == [strings[i] for i in idx]
        cut = data.draw(st.integers(0, n))
        joined = StringColumn.concat([StringColumn.of(strings[:cut]), StringColumn.of(strings[cut:])])
        assert (joined.text, joined.ends.tolist()) == (column.text, column.ends.tolist())


@st.composite
def datasets(draw, chars=(*FILE_CHARS, "\ud800"), min_records=0):
    call_ids = draw(values(chars))
    n = max(len(call_ids), min_records)
    call_ids += ["x"] * (n - len(call_ids))
    platforms = draw(st.lists(st.sampled_from(draw(values(chars, max_size=3)) or [""]), min_size=n, max_size=n))
    arms = draw(st.lists(st.sampled_from(ARMS), min_size=n, max_size=n))
    ratings = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    cells = draw(st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=2), min_size=n, max_size=n))
    return call_ids, arms, platforms, ratings, cells


def build(columns):
    call_ids, arms, platforms, ratings, cells = columns
    return Dataset(
        TokenCatalog.from_labels(["echo", "noise"]), call_ids, arms, platforms,
        np.array(ratings, np.int16), np.array(cells, np.uint8).reshape(len(call_ids), 2),
    )


@given(datasets(), CHUNK_ROWS)
@settings(max_examples=150, deadline=None)
def test_public_tuples_equal_the_input(columns, rows):
    call_ids, arms, platforms, _, _ = columns
    records = [ResponseRecord(c, a, p, r or None, tuple(s)) for c, a, p, r, s in zip(*columns)]
    with chunked(rows):
        dataset = build(columns)
        assert dataset.call_ids == tuple(call_ids)
        assert dataset.arms == tuple(arms)
        assert dataset.platforms == tuple(platforms)
        assert dataset.records() == records
        assert [dataset.record(i) for i in range(-len(records), 0)] == records


@given(datasets(), st.sampled_from([None, *ARMS]), st.booleans(), st.booleans(), CHUNK_ROWS)
@settings(max_examples=150, deadline=None)
def test_filter_matches_a_per_index_reference(columns, arm, rated_only, responded_only, rows):
    call_ids, arms, platforms, ratings, cells = columns
    keep = [
        i for i in range(len(call_ids))
        if (arm is None or arms[i] == arm) and (not rated_only or ratings[i]) and (not responded_only or any(cells[i]))
    ]
    with chunked(rows):
        out = filter_dataset(build(columns), arm=arm, rated_only=rated_only, responded_only=responded_only)
        assert out.call_ids == tuple(call_ids[i] for i in keep)
        assert out.arms == tuple(arms[i] for i in keep)
        assert out.platforms == tuple(platforms[i] for i in keep)
        assert out.ratings.tolist() == [ratings[i] for i in keep]
        assert out.selections.tolist() == [cells[i] for i in keep]


@given(datasets(chars=FILE_CHARS, min_records=1), st.sampled_from(["csv", "jsonl"]), CHUNK_ROWS)
@settings(max_examples=150, deadline=None)
def test_save_load_save_gives_the_same_bytes(tmp_path_factory, columns, fmt, rows):
    to_text = {"csv": dataset_to_csv_text, "jsonl": dataset_to_jsonl_text}[fmt]
    path = tmp_path_factory.mktemp("column") / f"data.{fmt}"
    with chunked(rows):
        dataset = build(columns)
        text = to_text(dataset)
        path.write_text(text, encoding="utf-8", newline="")
        loaded = load_dataset(path, format=fmt)
        assert to_text(loaded) == text
        assert (loaded.call_ids, loaded.arms, loaded.platforms) == (dataset.call_ids, dataset.arms, dataset.platforms)
