import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toksel import counts as counts_module
from toksel import dataset as dataset_module
from toksel.counts import cell_ids, distinct_rows, refine_cells
from toksel.dataset import (
    ARMS,
    Dataset,
    TokenCatalog,
    Token,
    check_subset,
    filter_dataset,
    load_dataset,
    save_dataset,
)
from toksel.errors import DataError, ParameterError, SchemaError
from toksel.synthgen import demo_generator_config, generate_truth

import reference_cells
from conftest import contents, make_dataset, rated_records


CSV_4ROW = """call_id,arm,platform,rating,echo,noise
a,none,desktop,1,0,1
b,control,desktop,5,1,1
c,treatment,mobile,,0,0
d,none,desktop,3,1,0
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestTokenCatalog:
    def test_default_is_15_tokens_8_audio_7_video(self):
        cat = TokenCatalog.default()
        assert len(cat) == 15
        assert len(cat.panel_ids("audio")) == 8
        assert len(cat.panel_ids("video")) == 7
        assert [t.id for t in cat] == list(range(15))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            TokenCatalog([Token(0, "x", "audio"), Token(1, "x", "video")])

    def test_noncontiguous_ids_rejected(self):
        with pytest.raises(SchemaError):
            TokenCatalog([Token(0, "x", "audio"), Token(2, "y", "video")])

    def test_unknown_panel_rejected(self):
        with pytest.raises(SchemaError):
            TokenCatalog([Token(0, "x", "screen")])

    def test_csv_round_trip(self, tmp_path):
        cat = TokenCatalog.default()
        path = tmp_path / "catalog.csv"
        cat.to_csv(path)
        assert TokenCatalog.from_csv(path) == cat

    def test_csv_round_trip_of_carriage_return_label(self, tmp_path):
        cat = TokenCatalog.from_labels(["echo\r", "a\r\nb", "noise"])
        path = tmp_path / "catalog.csv"
        cat.to_csv(path)
        assert TokenCatalog.from_csv(path) == cat

    def test_csv_after_a_byte_order_mark_names_it(self, tmp_path):
        path = tmp_path / "catalog.csv"
        TokenCatalog.default().to_csv(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        with pytest.raises(SchemaError, match=r"^header starts with a UTF-8 byte order mark \(BOM\);"):
            TokenCatalog.from_csv(path)

    def test_from_labels_refuses_panels_of_another_length(self):
        with pytest.raises(SchemaError, match="3 labels but 1 panels"):
            TokenCatalog.from_labels(["a", "b", "c"], ["audio"])
        assert TokenCatalog.from_labels(["a", "b"], ["audio", "video"]).panel_ids("video") == [1]

    def test_id_lookup(self):
        cat = TokenCatalog.numbered(4)
        assert cat.id_of("token_02") == 2
        with pytest.raises(SchemaError):
            cat.id_of("nope")


class TestLoadCsv:
    def test_valid_4_rows(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.csv", CSV_4ROW))
        assert len(ds) == 4
        assert ds.catalog.labels == ["echo", "noise"]
        assert list(ds.ratings) == [1, 5, 0, 3]
        assert (ds.arms[2], ds.platforms[2], ds.ratings[2]) == ("treatment", "mobile", 0)
        assert not ds.responded[2]
        assert ds.responded[0]

    def test_rating_out_of_range_names_row(self, tmp_path):
        bad = CSV_4ROW.replace("b,control,desktop,5", "b,control,desktop,7")
        with pytest.raises(DataError, match="row 3"):
            load_dataset(write(tmp_path, "d.csv", bad))

    def test_wrong_column_count_names_row(self, tmp_path):
        bad = CSV_4ROW.replace("d,none,desktop,3,1,0", "d,none,desktop,3,1")
        with pytest.raises(DataError, match="row 5"):
            load_dataset(write(tmp_path, "d.csv", bad))

    def test_non_binary_cell_rejected(self, tmp_path):
        bad = CSV_4ROW.replace("a,none,desktop,1,0,1", "a,none,desktop,1,2,1")
        with pytest.raises(DataError, match="row 2"):
            load_dataset(write(tmp_path, "d.csv", bad))

    def test_unknown_arm_rejected(self, tmp_path):
        bad = CSV_4ROW.replace("b,control,", "b,groupB,")
        with pytest.raises(DataError, match="arm"):
            load_dataset(write(tmp_path, "d.csv", bad))

    def test_unknown_token_column_against_catalog(self, tmp_path):
        cat = TokenCatalog.from_labels(["echo", "static"])
        with pytest.raises(SchemaError, match="unknown"):
            load_dataset(write(tmp_path, "d.csv", CSV_4ROW), catalog=cat)

    def test_column_order_mapped_by_name(self, tmp_path):
        cat = TokenCatalog.from_labels(["noise", "echo"])
        ds = load_dataset(write(tmp_path, "d.csv", CSV_4ROW), catalog=cat)
        assert ds.catalog.labels == ["noise", "echo"]
        assert list(ds.selections[0]) == [1, 0]  # row a: echo=0, noise=1

    def test_default_catalog_recognized_by_header(self, tmp_path):
        ds_demo = generate_truth(_small_demo_config(12))
        path = tmp_path / "demo.csv"
        save_dataset(ds_demo, path)
        ds = load_dataset(path)
        assert ds.catalog == TokenCatalog.default()


class TestLoadJsonl:
    def test_round_trip_with_csv_equivalence(self, tmp_path):
        csv_ds = load_dataset(write(tmp_path, "d.csv", CSV_4ROW))
        jsonl_path = tmp_path / "d.jsonl"
        save_dataset(csv_ds, jsonl_path, format="jsonl")
        ds = load_dataset(jsonl_path, format="jsonl")
        assert contents(ds) == contents(csv_ds)

    def test_unknown_label_rejected(self, tmp_path):
        line = '{"call_id":"a","arm":"none","platform":"d","rating":4,"selections":{"mystery":1}}'
        cat = TokenCatalog.from_labels(["echo"])
        with pytest.raises(SchemaError, match="mystery"):
            load_dataset(write(tmp_path, "d.jsonl", line + "\n"), format="jsonl", catalog=cat)

    def test_missing_key_rejected(self, tmp_path):
        line = '{"call_id":"a","arm":"none","rating":4,"selections":{"echo":1}}'
        with pytest.raises(SchemaError, match="platform"):
            load_dataset(write(tmp_path, "d.jsonl", line + "\n"), format="jsonl")

    def test_invalid_json_names_row(self, tmp_path):
        good = '{"call_id":"a","arm":"none","platform":"d","rating":4,"selections":{"echo":1}}'
        with pytest.raises(DataError, match="row 2"):
            load_dataset(write(tmp_path, "d.jsonl", good + "\n{oops\n"), format="jsonl")


def _small_demo_config(n_calls):
    import dataclasses

    return dataclasses.replace(demo_generator_config(), n_calls=n_calls)


# any text, with the characters CSV quotes for drawn often
TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from(',"\r\n'))


@st.composite
def any_dataset(draw, min_records=0, max_records=5, text=TEXT, label=TEXT):
    """Text drawn from `text` in call ids and platforms and from `label` in token
    labels, arbitrary by default; unrated rows included."""
    labels = draw(st.lists(label, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(min_records, max_records))
    texts = st.lists(text, min_size=n, max_size=n)
    cells = draw(st.lists(st.integers(0, 1), min_size=n * len(labels), max_size=n * len(labels)))
    return Dataset(
        TokenCatalog.from_labels(labels),
        draw(texts),
        draw(st.lists(st.sampled_from(ARMS), min_size=n, max_size=n)),
        draw(texts),
        draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),  # 0: unrated
        np.array(cells, dtype=np.uint8).reshape(n, len(labels)),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, fmt, data):
        # a JSONL file with no records has nowhere to carry the token labels
        dataset = data.draw(any_dataset(min_records=1 if fmt == "jsonl" else 0))
        directory = tmp_path_factory.mktemp("round_trip")
        first, second = directory / f"one.{fmt}", directory / f"two.{fmt}"
        save_dataset(dataset, first, format=fmt)
        loaded = load_dataset(first, format=fmt)
        save_dataset(loaded, second, format=fmt)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.catalog.labels == dataset.catalog.labels
        assert contents(loaded) == contents(dataset)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_synthetic_file_round_trips_byte_identically(self, tmp_path, fmt):
        truth = generate_truth(_small_demo_config(1000))
        p1 = tmp_path / f"one.{fmt}"
        p2 = tmp_path / f"two.{fmt}"
        save_dataset(truth, p1, format=fmt)
        loaded = load_dataset(p1, format=fmt)
        save_dataset(loaded, p2, format=fmt)
        assert p1.read_bytes() == p2.read_bytes()
        again = load_dataset(p2, format=fmt)
        assert contents(again) == contents(loaded)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_file_of_several_chunks_round_trips_byte_identically(self, tmp_path, fmt, line_end):
        truth = generate_truth(_small_demo_config(3 * dataset_module._CHUNK_ROWS + 100))
        platforms = list(truth.platforms)
        if line_end == "\r\n":  # a "\r" in any text field gives the CSV "\r\n" line ends
            platforms[-50] = "web\r"
        truth = Dataset(truth.catalog, truth.call_ids, truth.arms, platforms, truth.ratings, truth.selections)
        p1 = tmp_path / f"one.{fmt}"
        p2 = tmp_path / f"two.{fmt}"
        save_dataset(truth, p1, format=fmt)
        if fmt == "csv":
            assert p1.read_bytes().count(line_end.encode()) == len(truth) + 1
        loaded = load_dataset(p1, format=fmt)
        save_dataset(loaded, p2, format=fmt)
        assert p1.read_bytes() == p2.read_bytes()
        assert contents(loaded) == contents(truth)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_platforms_that_are_not_strings_are_stored_and_saved_as_strings(self, tmp_path, fmt):
        dataset = make_dataset([[0, 1], [1, 0]], [1, None], platforms=[5, None])
        assert dataset.platforms == ("5", "None")
        first, second = tmp_path / f"one.{fmt}", tmp_path / f"two.{fmt}"
        save_dataset(dataset, first, format=fmt)
        save_dataset(load_dataset(first, format=fmt), second, format=fmt)
        assert first.read_bytes() == second.read_bytes()

    def test_pc_label_count_matches_rating_count(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.csv", CSV_4ROW))
        assert (ds.pc_labels >= 0).sum() == (ds.ratings > 0).sum()


class TestDatasetInvariants:
    def test_pc_labeling_rule(self):
        ds = make_dataset([[0]] * 6, [None, 1, 2, 3, 4, 5])
        assert ds.pc_labels.dtype == np.int8 and ds.pc_labels.tolist() == [-1, 1, 1, 0, 0, 0]

    def test_responded_matches_any_selection(self):
        ds = make_dataset([[0, 0], [1, 0], [1, 1]], [5, 5, 5])
        assert list(ds.responded) == [False, True, True]

    def test_rating_bounds_enforced(self):
        # cast to the stored int16, 65541 would wrap to 5 and 2.7 truncate to 2
        for ratings in ([5, 6], [5, -1], np.array([5, 65541]), [5, 2.7], [5, 65541], [5, np.nan]):
            with pytest.raises(DataError, match="at record 1"):
                Dataset(TokenCatalog.numbered(1), ["a", "b"], ["none"] * 2, ["web"] * 2, ratings, [[0], [0]])

    def test_selection_binary_enforced(self):
        # cast to the stored uint8, 257 would wrap to 1 and 0.5 truncate to 0
        for cells in ([[0], [2]], [[0], [-1]], np.array([[0], [257]]), [[0], [0.5]], [[0], [np.nan]]):
            with pytest.raises(DataError, match="at record 1"):
                Dataset(TokenCatalog.numbered(1), ["a", "b"], ["none"] * 2, ["web"] * 2, [5, 5], cells)

    @pytest.mark.parametrize("column", ["arms", "platforms"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_arm_and_platform_counts_must_match_record_count(self, column, length):
        columns = {"arms": ["control"] * 2, "platforms": ["web"] * 2}
        columns[column] = columns[column][:1] * length
        with pytest.raises(DataError, match=f"{column} length must match record count"):
            Dataset(TokenCatalog.numbered(2), ["a", "b"], columns["arms"], columns["platforms"],
                    np.array([1, 5]), np.zeros((2, 2), np.uint8))

    def test_arms_given_as_codes(self):
        codes = np.array([2, 0, 1], np.uint8)
        ds = Dataset(TokenCatalog.numbered(1), ["a", "b", "c"], codes, ["web"] * 3, np.ones(3), np.zeros((3, 1)))
        assert ds.arms == ("none", "control", "treatment")
        with pytest.raises(SchemaError):
            Dataset(TokenCatalog.numbered(1), ["a"], np.array([3], np.uint8), ["web"], np.ones(1), np.zeros((1, 1)))

    def test_arrays_are_read_only(self):
        ds = make_dataset([[0, 1]], [4])
        with pytest.raises(ValueError):
            ds.selections[0, 0] = 1
        with pytest.raises(ValueError):
            ds.pc_labels[0] = 1

    def test_arrays_given_are_copied_and_left_writeable(self):
        ratings, cells, codes = np.array([1, 5], np.int16), np.zeros((2, 1), np.uint8), np.array([2, 2], np.uint8)
        view = ratings[:]
        ds = Dataset(TokenCatalog.numbered(1), ["a", "b"], codes, ["w"] * 2, view, cells)
        assert view.flags.writeable and cells.flags.writeable and codes.flags.writeable
        ratings[0], cells[0, 0], codes[0] = 9, 1, 0
        assert ds.ratings.tolist() == [1, 5] and ds.pc_labels.tolist() == [1, 0]
        assert ds.selections.tolist() == [[0], [0]] and ds.arms == ("none", "none")

    def test_record_selection_length_checked(self):
        with pytest.raises(DataError, match=r"selections must be \(n_records, 2\), got \(1, 3\)"):
            Dataset(TokenCatalog.numbered(2), ["a"], ["none"], ["desktop"], [2], [[1, 0, 1]])


@st.composite
def bit_matrices(draw, min_cols=0):
    """0/1 matrices of 0-60 rows and min_cols-70 columns, with copied and constant columns."""
    n_rows, n_cols = draw(st.integers(0, 60)), draw(st.integers(min_cols, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.3, 0.5]))
    cols = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["random", "copy", "zeros", "ones"]))
        if kind == "copy" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))])
        elif kind in ("zeros", "ones"):
            cols.append(np.full(n_rows, kind == "ones", dtype=np.uint8))
        else:
            cols.append((rng.random(n_rows) < density).astype(np.uint8))
    return np.array(cols, dtype=np.uint8).T.reshape(n_rows, n_cols)


class TestSubsetsAndCells:
    def test_check_subset_keeps_order(self):
        assert check_subset([2, 0, 1], 3) == (2, 0, 1)
        assert check_subset(np.array([1, 0]), 2) == (1, 0)

    @pytest.mark.parametrize("subset", [[0, 0], [-1], [3]])
    def test_check_subset_rejects(self, subset):
        with pytest.raises(ParameterError):
            check_subset(subset, 3)

    @pytest.mark.parametrize(
        "token",
        [0.9, 1.0, np.float64(1.0), "1", b"1", None, [1], 1 + 0j, True, False],
        ids=["float", "integral float", "numpy float", "str", "bytes", "None", "list", "complex", "True", "False"],
    )
    def test_check_subset_rejects_ids_that_are_not_integers(self, token):
        with pytest.raises(ParameterError, match="is not an integer"):
            check_subset([token], 3)

    def test_check_subset_accepts_numpy_integers(self):
        got = check_subset([np.int64(2), np.uint8(0)], 3)
        assert got == (2, 0) and all(type(t) is int for t in got)

    def test_distinct_rows_stand_for_their_cells(self):
        rows = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 1], [0, 1, 0], [1, 0, 1]], dtype=np.uint8)
        cells, distinct = distinct_rows(rows, [2, 0])
        assert distinct.dtype == np.uint8 and distinct.shape == (3, 2)
        assert np.array_equal(distinct[cells], rows[:, [2, 0]])

    @given(rows=bit_matrices(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_cell_ids_match_the_sort_keying(self, rows, data):
        n_cols = rows.shape[1]
        subset = data.draw(st.permutations(range(n_cols)))[: data.draw(st.integers(0, n_cols))]
        ids, n_cells = cell_ids(rows, subset)
        assert ids.dtype == np.int64
        if len(subset) <= reference_cells.KEY_CHUNK:
            ref_ids, ref_n_cells = reference_cells.cell_ids(rows, subset)
            assert n_cells == ref_n_cells and ids.tolist() == ref_ids.tolist()
        # any width: one cell per distinct value of the row read as a binary number, in order
        codes = [sum(int(row[t]) << j for j, t in enumerate(subset)) for row in rows]
        rank = {code: i for i, code in enumerate(sorted(set(codes)))}
        assert n_cells == len(rank)
        assert ids.tolist() == [rank[code] for code in codes]
        cells, n_refined = cell_ids(rows, ())
        for t in subset:
            cells, n_refined = refine_cells(cells, rows[:, t], n_refined)
        assert n_refined == n_cells and cells.tolist() == cell_ids(rows, subset[::-1])[0].tolist()

    @given(rows=bit_matrices(min_cols=1), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_pattern_table_matches_the_sort_build(self, rows, data):
        ratings = data.draw(
            st.lists(st.sampled_from([None, 1, 2, 3, 4, 5]), min_size=len(rows), max_size=len(rows))
        )
        ds = make_dataset(rows, ratings)
        table = ds.patterns
        sel, pc = rated_records(ds)
        ref_rows, ref_counts, _ = reference_cells.patterns(sel, pc)
        assert table.rows.dtype == np.uint8 and table.rows.shape == (len(ref_rows), rows.shape[1])
        assert table.counts.dtype == ref_counts.dtype and table.key_of_record.dtype == np.int32
        # the same rows with the same counts; the row order is not part of the contract
        got = {tuple(r): tuple(c) for r, c in zip(table.rows.tolist(), table.counts.tolist())}
        want = {tuple(r): tuple(c) for r, c in zip(ref_rows.tolist(), ref_counts.tolist())}
        assert got == want and len(got) == len(table.rows)
        # each rated record's key gives back its row and its label
        assert np.array_equal(table.rows[table.key_of_record >> 1], sel)
        assert np.array_equal(table.key_of_record & 1, pc)

    def test_no_rows_no_cells_and_empty_subset_one_cell(self):
        for rows in (np.zeros((0, 5), dtype=np.uint8), np.zeros((0, 0), dtype=np.uint8)):
            for subset in ([], [0], [4, 1, 2]):
                ids, n_cells = cell_ids(rows, subset[: rows.shape[1]])
                assert ids.shape == (0,) and n_cells == 0
        ids, n_cells = refine_cells(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8), 0)
        assert ids.shape == (0,) and n_cells == 0
        ids, n_cells = cell_ids(np.eye(3, dtype=np.uint8), [])
        assert ids.tolist() == [0, 0, 0] and n_cells == 1

    def test_wide_subsets_bincount_at_most_four_bins_per_row(self, monkeypatch):
        bins = []
        compact = counts_module._compact

        def spy(keys, n_keys):
            assert keys.size == 0 or int(keys.max()) < n_keys
            bins.append(n_keys)
            return compact(keys, n_keys)

        monkeypatch.setattr(counts_module, "_compact", spy)
        rows = np.random.default_rng(0).integers(0, 2, (3, 200), dtype=np.uint8)
        ids, n_cells = cell_ids(rows, range(200))
        assert n_cells == 3 and len(bins) > 1 and max(bins) <= 12

    def test_record_keys_give_uint8_rows_and_labels_of_rated_records(self):
        ds = make_dataset([[1, 0], [0, 1], [1, 1]], [2, None, 5])
        table = ds.patterns
        assert table.rows.dtype == np.uint8
        assert table.rows[table.key_of_record >> 1].tolist() == [[1, 0], [1, 1]]
        assert (table.key_of_record & 1).tolist() == [1, 0]
        assert not hasattr(ds, "rated_selections") and not hasattr(ds, "rated_pc")

    def test_cooccurrence_counts_every_record(self):
        ds = make_dataset([[1, 0], [1, 1], [0, 1]], [2, None, 5])
        assert ds.cooccurrence.tolist() == [[2.0, 1.0], [1.0, 2.0]]

    @given(rows=bit_matrices(min_cols=1), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_cooccurrence_is_the_float64_record_sum(self, rows, data):
        ratings = data.draw(st.lists(st.sampled_from([None, 1, 3, 5]), min_size=len(rows), max_size=len(rows)))
        want = rows.T.astype(np.float64) @ rows.astype(np.float64)
        got = make_dataset(rows, ratings).cooccurrence
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestFilter:
    @pytest.fixture
    def mixed(self):
        return make_dataset(
            [[1, 0], [0, 0], [1, 1], [0, 1], [0, 0]],
            [1, None, 4, None, 2],
            arms=["control", "treatment", "treatment", "control", "treatment"],
        )

    def test_empty_predicate_is_identity(self, mixed):
        out = filter_dataset(mixed)
        assert contents(out) == contents(mixed)

    def test_arm_filter(self, mixed):
        out = filter_dataset(mixed, arm="treatment")
        assert len(out) == 3
        assert out.arms == ("treatment",) * 3

    def test_rated_only_shrinks_by_unrated_count(self, mixed):
        n_unrated = int((mixed.ratings == 0).sum())
        out = filter_dataset(mixed, rated_only=True)
        assert len(out) == len(mixed) - n_unrated

    def test_responded_only(self, mixed):
        out = filter_dataset(mixed, responded_only=True)
        assert len(out) == 3
        assert out.responded.all()

    def test_order_preserved_and_catalog_shared(self, mixed):
        out = filter_dataset(mixed, arm="control")
        assert out.catalog is mixed.catalog
        assert out.call_ids == ("c0000", "c0003")

    @given(
        ds=any_dataset(),
        arm=st.sampled_from([None, *ARMS]),
        rated=st.booleans(),
        responded=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_filter_idempotent(self, ds, arm, rated, responded):
        # any_dataset draws 0 records too, as a header-only CSV loads
        once = filter_dataset(ds, arm=arm, rated_only=rated, responded_only=responded)
        twice = filter_dataset(once, arm=arm, rated_only=rated, responded_only=responded)
        assert contents(once) == contents(twice)
