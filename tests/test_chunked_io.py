"""The chunked loaders and the writers against the row-by-row reference ones.

On every file both loaders must return an equal Dataset, or raise the
same exception type with the same message: same row, same precedence.
On the reference tests' files, a keyed counts load must hold the full
load's pattern table, record keys and co-occurrence counts, or raise its
error. Both writers must write the same text.
"""

import csv
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toksel import dataset as dataset_module
from toksel.dataset import (
    ARMS,
    BASE_COLUMNS,
    Dataset,
    TokenCatalog,
    load_dataset,
    save_dataset,
)
from toksel.errors import DataError, SchemaError

from conftest import contents, counts_contents, keyed_contents, written_text
from reference_io import csv_text_reference, jsonl_text_reference, load_reference
from test_dataset import any_dataset

LABELS = ["echo", "noise", "a,b", 'say "hi"', "two\nlines", "ü"]
TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from(',"\r\n'), max_size=6)

CSV_RATINGS = ["", "1", "2", "3", "4", "5"]
# int() reads the first six as ratings 1-5, so they are valid; "\u0663" is an Arabic-Indic 3
CSV_ODD_RATINGS = [" 3", "+3", "03", "3 ", "\u0663", "0_3", "4_0", "0", "6", "-1", "3.0", "x", "True"]
CSV_BAD_CELLS = ["", "11", "2", " 1", "0 ", "01", "\u0661", "x", "-0", "True"]
BAD_ARMS = ["groupB", "", "Control", " none", "none "]

JSON_ODD_RATINGS = [True, False, 1.0, 3.0, "3", " 3", "x", 0, 6, -1, [3], {}]
# the first four equal 0 or 1, but are not JSON integers
JSON_BAD_CELLS = [True, False, 1.0, 0.0, "1", 2, -1, None, [1]]
# "[" in a text value keeps a chunk off the tail heads' one decode
JSON_VALUES = st.one_of(
    TEXT, st.sampled_from(["[", "a[0]"]), st.integers(-5, 5), st.none(), st.booleans(), st.just([1, "a"])
)
BAD_LINES = [
    "{oops", '{"a": 1} x', "[1, 2]", "3", '"text"', "null", '{"selections": [1]}', "\ufeff{}", "{}, {}", "{},",
]
BLANK_LINES = ["", "  ", "\t"]


def outcome(load, path, fmt, catalog, view=contents, **options):
    try:
        ds = load(path, format=fmt, catalog=catalog, **options)
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), str(exc)
    return view(ds)


def chunk_sizes(chunk_text=None, chunk_rows=None):
    """The loader's block size in bytes and csv.reader's rows per chunk, each at
    its default when None."""
    return mock.patch.multiple(
        dataset_module,
        _CHUNK_TEXT=chunk_text or dataset_module._CHUNK_TEXT,
        _CHUNK_ROWS=chunk_rows or dataset_module._CHUNK_ROWS,
    )


def assert_keyed_counts_load_agrees(path, fmt, catalog, chunk_text=None, chunk_rows=None):
    """load_dataset with counts=True, keys=True holds what evaluate reads of the
    full load (`keyed_contents`), or raises its exception with its message."""
    with chunk_sizes(chunk_text, chunk_rows):
        full = outcome(load_dataset, path, fmt, catalog, keyed_contents)
        assert outcome(load_dataset, path, fmt, catalog, keyed_contents, counts=True, keys=True) == full


def assert_same_outcome(path, fmt, catalog=None, chunk_text=None, chunk_rows=None):
    """Both loaders give the same outcome. The chunked one reads blocks of about
    `chunk_text` bytes at a time, and `chunk_rows` rows of csv.reader (`chunk_sizes`)."""
    expected = outcome(load_reference, path, fmt, catalog)
    with chunk_sizes(chunk_text, chunk_rows):
        got = outcome(load_dataset, path, fmt, catalog)
    assert got == expected
    return got


def chunk_ranges(lines, chunk_text):
    """(start, stop) of each block the loader cuts ASCII `lines` into at `chunk_text`
    bytes: a block ends with the line that brings it to `chunk_text`."""
    ranges, start, size = [], 0, 0
    for i, line in enumerate(lines):
        size += len(line)
        if size >= chunk_text or i == len(lines) - 1:
            ranges.append((start, i + 1))
            start, size = i + 1, 0
    return ranges


# Block sizes in bytes: 1 makes a block of each line; a test file's CSV lines
# are about 10-40 bytes long and its JSONL lines about 100-150.
CHUNK_TEXT = st.sampled_from([1, 40, 150, 400, None])
CHUNK_ROWS = st.sampled_from([1, 2, 3, 5, None])


def drawn_catalog(draw, labels):
    """None (the file's own labels), the labels reordered, or now and then a catalog that does not match."""
    kind = draw(st.sampled_from(["file", "file", "reordered", "reordered", "mismatch"]))
    if kind == "file":
        return None
    labels = draw(st.permutations(labels))
    if kind == "mismatch":
        labels = [*labels[:-1], "static"]
    return TokenCatalog.from_labels(labels)


@st.composite
def csv_file(draw):
    """CSV text, mostly valid, with faults put into random rows and cells; and a catalog."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 14))
    rows = [
        [
            draw(TEXT),
            draw(st.sampled_from(ARMS)),
            draw(TEXT),
            draw(st.sampled_from(CSV_RATINGS)),
            *draw(st.lists(st.sampled_from("01"), min_size=len(labels), max_size=len(labels))),
        ]
        for _ in range(n)
    ]
    def put_cell(row, text):  # a row made short by an earlier fault has its last field replaced
        row[min(len(BASE_COLUMNS) + draw(st.integers(0, len(labels) - 1)), len(row) - 1)] = text

    for _ in range(draw(st.integers(0, 3)) if n else 0):
        row = rows[draw(st.integers(0, n - 1))]
        fault = draw(st.sampled_from(["arm", "rating", "cell", "empty and double", "short", "long"]))
        if fault == "arm":
            row[1] = draw(st.sampled_from(BAD_ARMS))
        elif fault == "rating":
            row[3] = draw(st.sampled_from(CSV_ODD_RATINGS))
        elif fault == "cell":
            put_cell(row, draw(st.sampled_from(CSV_BAD_CELLS)))
        elif fault == "empty and double":  # in any two cells: the joined length is that of valid ones
            put_cell(row, "")
            put_cell(rows[draw(st.integers(0, n - 1))], "11")
        elif fault == "short":
            del row[max(len(row) - 1, len(BASE_COLUMNS)):]
        else:
            row.append("0")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerows([[*BASE_COLUMNS, *labels], *rows])
    text = buf.getvalue()
    if draw(st.sampled_from([False, False, True])):  # the reader raises on this field, after the rows
        text += "x" * (csv.field_size_limit() + 1)
    return text, drawn_catalog(draw, labels)


@st.composite
def jsonl_file(draw):
    """JSONL text, mostly valid, with faults put into random records and lines; and a catalog."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
    records = []
    for _ in range(draw(st.integers(0, 14))):
        record = {
            "call_id": draw(JSON_VALUES),
            "arm": draw(st.sampled_from(ARMS)),
            "platform": draw(JSON_VALUES),
            "rating": draw(st.sampled_from([None, 1, 2, 3, 4, 5])),
            # keys in any order, file to file and record to record
            "selections": {label: draw(st.sampled_from([0, 1])) for label in draw(st.permutations(labels))},
        }
        if draw(st.booleans()):
            del record["rating"]
        records.append(record)
    for _ in range(draw(st.integers(0, 3)) if records else 0):
        record = records[draw(st.integers(0, len(records) - 1))]
        fault = draw(st.sampled_from(["key", "arm", "missing label", "extra label", *["rating", "cell"] * 2]))
        label = draw(st.sampled_from(labels))
        if fault == "key":
            record.pop(draw(st.sampled_from(["call_id", "arm", "platform", "selections"])), None)
        elif fault == "arm":
            record["arm"] = draw(st.sampled_from([*BAD_ARMS, 1, None, ["control"]]))
        elif fault == "rating":
            record["rating"] = draw(st.sampled_from(JSON_ODD_RATINGS))
        elif fault == "cell" and "selections" in record:
            record["selections"][label] = draw(st.sampled_from(JSON_BAD_CELLS))
        elif fault == "missing label" and "selections" in record:
            record["selections"].pop(label, None)
        elif fault == "extra label" and "selections" in record:
            record["selections"]["static"] = 0
    ascii_only = draw(st.booleans())
    lines = [json.dumps(record, ensure_ascii=ascii_only) for record in records]
    for _ in range(draw(st.sampled_from([0, 0, 1])) if len(lines) > 1 else 0):
        i = draw(st.integers(0, len(lines) - 2))
        kind = draw(st.sampled_from(["array", "member", "split"]))
        if kind == "array":
            lines[i:i + 2] = array_merged(lines[i], lines[i + 1])
        elif kind == "member":
            lines[i:i + 2] = member_merged(lines[i], lines[i + 1])
        elif '"selections": ' in lines[i]:  # one record over two lines, the second starting with "{"
            lines[i:i + 1] = lines[i].split('"selections": ', 1)
            lines[i] += '"selections":'
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        bad = draw(st.sampled_from([*BAD_LINES, *BLANK_LINES]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return text, drawn_catalog(draw, labels)


# Two JSON records as two lines, neither of which is one JSON value, that read as an
# array of the two records once joined by a comma and wrapped in brackets: a line
# holds the first record and most of the second, whose array runs into the next
# line; or the first record's members run on into the next line, before the second.
def array_merged(first, second):
    return [f'{first},{second[:-1]},"pad":[{{}}', "{}]}"]


def member_merged(first, second):
    return [first[:-1], f'"pad": 0}},{second}']


# Call ids and platforms that a canonical CSV file writes unquoted, with a character of
# two UTF-8 bytes and a NUL (which csv refuses before Python 3.11) among them, or an
# arm's name: a head whose fields shift by one then still passes the arm check; ASCII
# token labels, with the characters JSON escapes
PLAIN = st.text(st.sampled_from("ab0 1:{}é\0"), max_size=4) | st.sampled_from(ARMS)
ASCII_LABEL = st.text(st.sampled_from('ab01 ,:{}"\\'), min_size=1, max_size=3)
ENCODE = json.JSONEncoder(ensure_ascii=False).encode
TAIL_FAULTS = {
    "csv": ["cell", "empty and double", "commas", "quote", "crlf", "non-ascii", "no final end", "blank"],
    "jsonl": ["cell", "empty and double", "order", "head selections", "crlf", "non-ascii", "no final end", "blank"],
}


def split_end(line):
    body = line.rstrip("\r\n")
    return body, line[len(body):]


def record_of(body):
    """The JSON record a line holds with its selections, or None when an earlier fault broke it."""
    try:
        record = json.loads(body)
    except ValueError:
        return None
    return record if isinstance(record, dict) and isinstance(record.get("selections"), dict) else None


def with_cell(line, fmt, j, raw):
    """A record line with its j-th cell (in file order) written as `raw`."""
    body, end = split_end(line)
    if fmt == "csv":
        fields = body.split(",")
        fields[min(len(BASE_COLUMNS) + j, len(fields) - 1)] = raw
        return ",".join(fields) + end
    record = record_of(body)
    if record is None or not record["selections"]:
        return line
    selections = record["selections"]
    selections[list(selections)[j % len(selections)]] = "@"  # no drawn text holds "@"
    return ENCODE(record).replace('"@"', raw) + end


@st.composite
def canonical_file(draw, fmt):
    """A file as save_dataset writes it, with 0-2 faults put into it; a catalog; and a block size in bytes.

    The files are mostly canonical, so that most of their blocks are read
    from their lines' tails. A fault makes a block fail a guard, or the
    file fail a check, or both.
    """
    dataset = draw(any_dataset(min_records=1, max_records=16, text=PLAIN, label=ASCII_LABEL))
    text = written_text(dataset, fmt)
    lines = text.splitlines(keepends=True)
    first = 1 if fmt == "csv" else 0  # the line after the header
    k = len(dataset.catalog)
    chunk_text = draw(st.sampled_from([1, 1, 30, 60, 120]))

    def record_line():
        return draw(st.integers(first, len(lines) - 1))

    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(TAIL_FAULTS[fmt]))
        i, j = record_line(), draw(st.integers(0, k - 1))
        if fault == "cell":
            lines[i] = with_cell(lines[i], fmt, j, draw(st.sampled_from(["2", " 1", "é"])))
        elif fault == "empty and double":  # two lines, or one, of the length of valid ones
            lines[i] = with_cell(lines[i], fmt, j, '""' if fmt == "jsonl" else "")
            i, j = record_line(), draw(st.integers(0, k - 1))
            lines[i] = with_cell(lines[i], fmt, j, "11")
        elif fault == "commas":  # heads of 2 and of 4 commas, 6 in all
            lines[i] = lines[i].replace(",", "", 1)
            i = i + 1 if i + 1 < len(lines) else max(first, i - 1)
            lines[i] = "," + lines[i]
        elif fault == "quote":  # in chunk 3, often on its last line: a line break there may run on into chunk 4
            ranges = chunk_ranges(lines[first:], chunk_text)
            start, stop = ranges[min(2, len(ranges) - 1)]
            i = first + draw(st.integers(start, stop - 1) | st.just(stop - 1))
            quoted = '"' + draw(st.sampled_from(["a\nb", "x,y", 'q""q', "a\r\nb"])) + '"'
            lines[i] = quoted + lines[i][lines[i].find(","):]
        elif fault == "crlf":  # every line, or one
            targets = range(first, len(lines)) if draw(st.booleans()) else [i]
            for t in targets:
                lines[t] = split_end(lines[t])[0] + "\r\n"
        elif fault == "non-ascii":
            body, end = split_end(lines[i])
            tail = len(body) - 2 * k if fmt == "csv" else body.rfind('"selections"')
            at = draw(st.integers(max(tail, 0), max(len(body) - 1, 0)))
            lines[i] = body[:at] + "é" + body[at + 1:] + end
        elif fault == "no final end":
            lines[-1] = split_end(lines[-1])[0]
        elif fault == "blank":
            lines.insert(draw(st.integers(first, len(lines))), draw(st.sampled_from(["\n", "  \n"])))
        elif fault == "order":  # the selections' keys reversed, or the selections first
            body, end = split_end(lines[i])
            record = record_of(body)
            if record is None:
                continue
            if draw(st.booleans()):
                record["selections"] = dict(reversed(record["selections"].items()))
            else:
                record = {"selections": record.pop("selections"), **record}
            lines[i] = ENCODE(record) + end
        else:  # a selections member in the head, before the tail's: the last one counts
            head = draw(st.sampled_from(["5", "{}", "[1]", '{"x": 1}', "null"]))
            lines[i] = '{"selections": ' + head + ", " + lines[i][1:]
    return "".join(lines), drawn_catalog(draw, dataset.catalog.labels), chunk_text


class TestAgainstReference:
    @given(drawn=csv_file(), chunk_text=CHUNK_TEXT, chunk_rows=CHUNK_ROWS)
    @settings(max_examples=250, deadline=None)
    def test_csv(self, tmp_path_factory, drawn, chunk_text, chunk_rows):
        text, catalog = drawn
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_same_outcome(path, "csv", catalog, chunk_text, chunk_rows)
        assert_keyed_counts_load_agrees(path, "csv", catalog, chunk_text, chunk_rows)

    @given(drawn=jsonl_file(), chunk_text=CHUNK_TEXT, chunk_rows=CHUNK_ROWS)
    @settings(max_examples=250, deadline=None)
    def test_jsonl(self, tmp_path_factory, drawn, chunk_text, chunk_rows):
        text, catalog = drawn
        path = tmp_path_factory.mktemp("jsonl") / "d.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        assert_same_outcome(path, "jsonl", catalog, chunk_text, chunk_rows)
        assert_keyed_counts_load_agrees(path, "jsonl", catalog, chunk_text, chunk_rows)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_canonical_files_with_faults(self, tmp_path_factory, fmt, data):
        text, catalog, chunk_text = data.draw(canonical_file(fmt))
        path = tmp_path_factory.mktemp(fmt) / f"d.{fmt}"
        path.write_text(text, encoding="utf-8", newline="")
        chunk_rows = data.draw(CHUNK_ROWS)
        assert_same_outcome(path, fmt, catalog, chunk_text, chunk_rows)
        assert_keyed_counts_load_agrees(path, fmt, catalog, chunk_text, chunk_rows)

    @given(dataset=any_dataset(), chunk_rows=st.sampled_from([1, 2, 3, None]))
    @settings(max_examples=150, deadline=None)
    def test_writers(self, dataset, chunk_rows):
        assert_same_text(dataset, chunk_rows)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    @pytest.mark.parametrize("field", ["a,b", 'say "hi"', "two\nlines", "cr\r", "nul\0"])
    def test_writers_when_one_chunk_needs_quoting(self, chunk_rows, field):
        # only the record in the middle chunk holds the field; a "\r" gives every line "\r\n"
        call_ids = [f"c{i}" for i in range(3 * chunk_rows)]
        platforms = ["web"] * len(call_ids)
        platforms[chunk_rows] = field
        dataset = Dataset(
            TokenCatalog.from_labels(["echo", "noise"]), call_ids, ["control"] * len(call_ids), platforms,
            [i % 6 for i in range(len(call_ids))], [[i % 2, i // 2 % 2] for i in range(len(call_ids))],
        )
        assert_same_text(dataset, chunk_rows)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_writers_with_labels_other_than_ascii(self, chunk_rows):
        labels = ["ü", "écho \u2603", "two\nlines", "plain"]
        n = 3 * chunk_rows + 1
        dataset = Dataset(
            TokenCatalog.from_labels(labels), [f"c{i}" for i in range(n)], ["treatment"] * n, ["ß"] * n,
            [i % 6 for i in range(n)], [[(i >> j) & 1 for j in range(len(labels))] for i in range(n)],
        )
        assert_same_text(dataset, chunk_rows)


def assert_same_text(dataset, chunk_rows):
    """Both writers, `chunk_rows` records at a time, write the reference writers' text."""
    with mock.patch.object(dataset_module, "_CHUNK_ROWS", chunk_rows or dataset_module._CHUNK_ROWS):
        assert written_text(dataset, "csv") == csv_text_reference(dataset)
        assert written_text(dataset, "jsonl") == jsonl_text_reference(dataset)


CSV_HEAD = "call_id,arm,platform,rating,echo,noise\n"


def csv_rows(n, start=0):
    return "".join(
        f"c{i},control,desktop,{1 + i % 5},{i % 2},{i // 2 % 2}\n" for i in range(start, start + n)
    )


def jsonl_lines(n, start=0):
    return "".join(
        json.dumps({
            "call_id": f"c{i}", "arm": "treatment", "platform": "mobile",
            "rating": None if i % 7 == 0 else 1 + i % 5, "selections": {"echo": i % 2, "noise": i // 2 % 2},
        }) + "\n"
        for i in range(start, start + n)
    )


def several_chunks(line):
    """A count of ASCII lines as long as `line`, or longer, that fill three of
    the loader's blocks, and 10 lines more."""
    return 3 * dataset_module._CHUNK_TEXT // len(line) + 10


def record_line(call_id="x", arm="none"):
    return json.dumps({"call_id": call_id, "arm": arm, "platform": "web", "selections": {"echo": 1, "noise": 0}})


class TestCases:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        return path

    def test_csv_empty_cell_next_to_a_two_character_cell(self, tmp_path):
        # joined, the cells "" and "11" have the length of two valid cells
        path = self.write(tmp_path, "d.csv", CSV_HEAD + csv_rows(3) + "x,none,web,4,,11\n")
        got = assert_same_outcome(path, "csv")
        assert got == (DataError, "row 5: token cell for 'echo' must be 0 or 1, got ''")

    def test_csv_heads_of_two_and_four_commas(self, tmp_path):
        # 6 commas in two heads; split together, the fields pass the arm and rating checks
        text = CSV_HEAD + csv_rows(3) + "xcontrol,none,3,1,0\n" + ",y,none,web,4,1,0\n"
        got = assert_same_outcome(self.write(tmp_path, "d.csv", text), "csv")
        assert got == (DataError, "row 5: expected 6 columns, got 5")

    def test_csv_heads_read_by_position_give_the_row_path_dataset(self, tmp_path):
        # call ids and platforms other than ASCII (UTF-8 of 2, 3 and 4 bytes), empty
        # platforms and ratings, and every arm, in a chunk read from its tails alone
        heads = [
            "é1,control,ü,1", "語,treatment,,", "😀x,none,ß web,5", ",control,,3", "a b,none,語😀,",
            "c5,treatment,desktop,2", "ü,none,é,4",
        ]
        text = CSV_HEAD + "".join(f"{head},{i % 2},{i // 2 % 2}\n" for i, head in enumerate(heads))
        path = self.write(tmp_path, "d.csv", text)
        expected = assert_same_outcome(path, "csv")
        assert expected[1][:3] == ("é1", "語", "😀x") and expected[3][1] == "" and expected[4][1] == 0
        assert set(expected[2]) == set(ARMS)
        row_path = mock.Mock(side_effect=AssertionError("a chunk reached the row checks"))
        with mock.patch.object(dataset_module, "_check_csv_row", row_path):
            assert outcome(load_dataset, path, "csv", None) == expected
        # the loader's own row path, with every block refused at the tail guard
        with mock.patch.object(dataset_module, "_csv_block", mock.Mock(return_value=None)):
            assert outcome(load_dataset, path, "csv", None) == expected

    @pytest.mark.parametrize(
        "arm, rating, error",
        [
            # arm texts one character off an arm: shorter, longer, or one character changed
            ("contro", "4", "row 5: unknown arm 'contro'"),
            ("treatmen", "4", "row 5: unknown arm 'treatmen'"),
            ("none ", "4", "row 5: unknown arm 'none '"),
            ("Control", "4", "row 5: unknown arm 'Control'"),
            ("treatmenx", "4", "row 5: unknown arm 'treatmenx'"),
            ("nonE", "4", "row 5: unknown arm 'nonE'"),
            ("none", "0", "row 5: rating 0 outside 1-5"),
            ("none", "6", "row 5: rating 6 outside 1-5"),
            ("none", "12", "row 5: rating 12 outside 1-5"),
            ("none", " 3", None),
        ],
    )
    def test_csv_head_fields_off_the_written_ones_go_to_the_row_path(self, tmp_path, arm, rating, error):
        text = CSV_HEAD + csv_rows(3) + f"x,{arm},web,{rating},1,0\n" + csv_rows(3, start=3)
        path = self.write(tmp_path, "d.csv", text)
        rows = mock.Mock(wraps=dataset_module._check_csv_row)
        with mock.patch.object(dataset_module, "_check_csv_row", rows):
            got = assert_same_outcome(path, "csv")
        assert rows.call_count == (4 if error else 7)  # the chunk's rows up to the first error
        if error:
            assert got == (DataError, error)
        else:
            assert got[4] == [1, 2, 3, 3, 4, 5, 1]

    @pytest.mark.parametrize("call_id, read", [('"q""q"', 'q"q'), ('"qq"', "qq"), ("q\0q", "q\0q")])
    def test_csv_quote_or_nul_in_a_head_goes_to_csv_reader(self, tmp_path, call_id, read):
        # csv.reader reads a quoted field without its quotes, and refuses a NUL before Python 3.11
        path = self.write(tmp_path, "d.csv", CSV_HEAD + csv_rows(3) + f"{call_id},none,web,4,1,0\n")
        got = assert_same_outcome(path, "csv")
        assert got[1][3] == read or got[0] is DataError

    @pytest.mark.parametrize("rating", [" 3", "+3", "03"])
    def test_csv_ratings_int_reads_load_as_3(self, tmp_path, rating):
        path = self.write(tmp_path, "d.csv", CSV_HEAD + csv_rows(3) + f"x,none,web,{rating},1,0\n")
        assert assert_same_outcome(path, "csv")[4] == [1, 2, 3, 3]

    @pytest.mark.parametrize(
        "rating, error",
        [
            (True, "row 2: rating 'True' is not an integer"),
            (1.0, "row 2: rating '1.0' is not an integer"),
            ("3", None),
        ],
    )
    def test_jsonl_ratings_of_other_types(self, tmp_path, rating, error):
        line = json.dumps({"call_id": "x", "arm": "none", "platform": "web", "rating": rating,
                           "selections": {"echo": 1, "noise": 0}})
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", jsonl_lines(1) + line + "\n"), "jsonl")
        if error:
            assert got == (DataError, error)
        else:
            assert got[4] == [0, 3]

    @pytest.mark.parametrize(
        "selections, error",
        [
            *[({"echo": 1, "noise": cell}, f"token cell for 'noise' must be 0 or 1, got {cell!r}")
              for cell in (True, False, 1.0, 0.0)],
            ({"echo": 1, "noise": 0, "static": 0}, "unknown token label 'static'"),
        ],
    )
    def test_jsonl_record_fault_alone_in_its_chunk(self, tmp_path, selections, error):
        line = json.dumps({"call_id": "x", "arm": "none", "platform": "web", "selections": selections})
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", jsonl_lines(3) + line + "\n"), "jsonl")
        assert got[1] == f"row 4: {error}"

    def test_jsonl_keys_in_another_order_than_the_catalog(self, tmp_path):
        reordered = json.dumps({"selections": {"noise": 1, "echo": 0}, "platform": "web", "arm": "none",
                                "call_id": "x"})
        path = self.write(tmp_path, "d.jsonl", jsonl_lines(5) + reordered + "\n")
        assert assert_same_outcome(path, "jsonl")[5][-1] == [0, 1]
        catalog = TokenCatalog.from_labels(["noise", "echo"])
        assert assert_same_outcome(path, "jsonl", catalog)[5][-1] == [1, 0]

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("csv", CSV_HEAD + csv_rows(2) + "c9,none,we\rb,4,1,0\n" + csv_rows(2, start=2)),
            ("csv", (CSV_HEAD + csv_rows(2) + "c\r9,none,web,4,1,0\n").replace("\n", "\r\n")),
            ("jsonl", jsonl_lines(3) + record_line().replace('"arm"', '\r"arm"') + "\n" + jsonl_lines(2, start=2)),
        ],
    )
    @pytest.mark.parametrize("chunk_text", [1, None])
    def test_carriage_return_in_a_head_ends_a_line(self, tmp_path, fmt, text, chunk_text):
        # as a file read as text ends a line at a bare "\r", which JSON reads as whitespace
        got = assert_same_outcome(self.write(tmp_path, f"d.{fmt}", text), fmt, chunk_text=chunk_text)
        assert got[0] is DataError and got[1].startswith("row 4: ")

    @pytest.mark.parametrize("chunk_text", [1, None])
    def test_csv_fields_that_split_a_character_do_not_decode(self, tmp_path, chunk_text):
        # the bytes of "é", b"\xc3\xa9", end one call id and start the next: joined, they
        # decode; past the first 8 KiB, which the header is decoded with
        bad = b"a\xc3,none,web,4,1,0\n\xa9b,none,web,4,1,0\n"
        text = (CSV_HEAD + csv_rows(400)).encode() + bad + csv_rows(3).encode()
        got = assert_same_outcome(self.write(tmp_path, "d.csv", text), "csv", chunk_text=chunk_text)
        assert got[0] is DataError and "can't decode byte 0xc3" in got[1]

    def test_csv_header_after_a_byte_order_mark_names_it(self, tmp_path):
        path = self.write(tmp_path, "d.csv", "\ufeff" + CSV_HEAD + csv_rows(3))
        got = assert_same_outcome(path, "csv")
        assert got == (SchemaError, dataset_module._BOM_ERROR) and "byte order mark" in got[1]

    def test_csv_catalog_in_another_order_than_the_header(self, tmp_path):
        path = self.write(tmp_path, "d.csv", CSV_HEAD + csv_rows(20))
        catalog = TokenCatalog.from_labels(["noise", "echo"])
        assert assert_same_outcome(path, "csv", catalog)[0] == catalog

    def test_jsonl_bad_record_before_a_syntax_error_in_a_later_chunk_wins(self, tmp_path):
        n = several_chunks(jsonl_lines(1))
        bad = json.dumps(
            {"call_id": "x", "arm": "none", "platform": "web", "selections": {"echo": 2, "noise": 0}}
        )
        text = jsonl_lines(n) + bad + "\n" + jsonl_lines(50, start=n) + "{oops\n"
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl")
        assert got == (DataError, f"row {n + 1}: token cell for 'echo' must be 0 or 1, got 2")
        # without the bad record the syntax error is the one reported
        text = jsonl_lines(n + 51) + "{oops\n"
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl")
        syntax = "invalid JSON (Expecting property name enclosed in double quotes)"
        assert got == (DataError, f"row {n + 52}: {syntax}")

    def test_csv_bad_row_in_a_later_chunk_wins_over_a_later_decoding_error(self, tmp_path):
        n = 3 * dataset_module._CHUNK_ROWS + 10
        text = (CSV_HEAD + csv_rows(n) + "x,none,web,7,1,0\n" + csv_rows(3000, start=n)).encode() + b"\xff\n"
        got = assert_same_outcome(self.write(tmp_path, "d.csv", text), "csv")
        assert got == (DataError, f"row {n + 2}: rating 7 outside 1-5")
        # the decoding error is met before the bad row when it comes first
        text = (CSV_HEAD + csv_rows(n)).encode() + b"\xff\n" + b"x,none,web,7,1,0\n"
        assert assert_same_outcome(self.write(tmp_path, "d.csv", text), "csv")[1].startswith(f"{tmp_path}")

    def test_jsonl_bad_line_before_a_decoding_error_in_its_chunk_wins(self, tmp_path):
        n = 3 * dataset_module._CHUNK_ROWS + 10
        text = (jsonl_lines(n) + "{oops\n" + jsonl_lines(3000, start=n)).encode() + b"\xff\n"
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl")
        assert got == (DataError, f"row {n + 1}: invalid JSON (Expecting property name enclosed in double quotes)")
        # so does a bad record: the first fault in the file is reported
        text = (jsonl_lines(n) + record_line(arm="groupB") + "\n" + jsonl_lines(3000, start=n)).encode() + b"\xff\n"
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl")
        assert got == (DataError, f"row {n + 1}: unknown arm 'groupB'")

    @pytest.mark.parametrize("chunk_text", [1, 64])
    @pytest.mark.parametrize("bad", ["{oops", record_line(arm="groupB")], ids=["not JSON", "bad record"])
    def test_jsonl_decoding_error_after_a_bad_line_in_an_earlier_block_wins_in_its_text_chunk(
        self, tmp_path, bad, chunk_text
    ):
        # read as text, the file decodes 8 KiB at a time: the bad line, past the first
        # chunk and a line before the bad byte, is in the chunk that does not decode,
        # though the bad byte is in a later block than the bad line
        head = jsonl_lines(200) + bad + "\n" + jsonl_lines(1, start=200)
        assert len(head) // 8192 == len(head.rsplit("\n", 3)[0]) // 8192 > 0
        path = self.write(tmp_path, "d.jsonl", head.encode() + b"\xff\n")
        got = assert_same_outcome(path, "jsonl", chunk_text=chunk_text)
        # the position is counted from the start of the chunk
        error = f"can't decode byte 0xff in position {len(head) % 8192}: invalid start byte"
        assert got == (DataError, f"{path}: 'utf-8' codec {error}")

    @pytest.mark.parametrize("chunk_text", [1, 64, None])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_decoding_error_in_the_text_chunk_of_a_bad_row_wins(self, tmp_path, fmt, chunk_text):
        # read as text, a file decodes 8 KiB at a time, and no line of a chunk that does not
        # decode is read: a bad byte a line after a bad row hides it, 300 lines after it does not
        bad, rows = ("x,none,web,7,1,0\n", csv_rows) if fmt == "csv" else ("{oops\n", jsonl_lines)
        for gap, hidden in ((1, True), (300, False)):
            text = ((CSV_HEAD if fmt == "csv" else "") + rows(20) + bad + rows(gap, start=20)).encode() + b"\xff\n"
            got = assert_same_outcome(self.write(tmp_path, f"d.{fmt}", text), fmt, chunk_text=chunk_text)
            assert got[0] is DataError and got[1].startswith(str(tmp_path)) == hidden

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_valid_files_of_several_chunks(self, tmp_path, fmt):
        n = several_chunks(csv_rows(1) if fmt == "csv" else jsonl_lines(1))
        text = CSV_HEAD + csv_rows(n) if fmt == "csv" else jsonl_lines(n)
        assert len(assert_same_outcome(self.write(tmp_path, f"d.{fmt}", text), fmt)[1]) == n

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_canonical_file_is_read_from_its_tails_alone(self, tmp_path, fmt):
        n = several_chunks(csv_rows(1) if fmt == "csv" else jsonl_lines(1))
        text = CSV_HEAD + csv_rows(n) if fmt == "csv" else jsonl_lines(n)
        path = self.write(tmp_path, f"d.{fmt}", text)
        expected = outcome(load_reference, path, fmt, None)
        row_path = mock.Mock(side_effect=AssertionError("a chunk reached the row checks"))
        with mock.patch.object(dataset_module, "_check_csv_row", row_path), \
                mock.patch.object(dataset_module, "_check_jsonl_record", row_path):
            got = load_dataset(path, format=fmt)
        assert (got.catalog, got.call_ids, got.arms, got.platforms) == expected[:4]
        assert (got.ratings.tolist(), got.selections.tolist()) == expected[4:]

    def test_csv_quote_in_chunk_3_hands_the_rest_of_the_file_to_csv(self, tmp_path):
        size = 4
        lines = csv_rows(6 * size, start=10).splitlines(keepends=True)  # two-digit ids: one width
        # a quoted line break on the last line of chunk 3: the record runs on into chunk 4
        first_half = '"call\n'
        lines[3 * size - 1] = first_half + 'id"' + lines[3 * size - 1][lines[3 * size - 1].index(","):]
        path = self.write(tmp_path, "d.csv", CSV_HEAD + "".join(lines))
        # blocks of `size` lines, the third of which ends with the quoted field's first line
        chunk_text = (size - 1) * len(lines[0]) + len(first_half)
        tail = mock.Mock(wraps=dataset_module._csv_block)
        rows = mock.Mock(wraps=dataset_module._check_csv_row)
        with mock.patch.object(dataset_module, "_csv_block", tail), \
                mock.patch.object(dataset_module, "_check_csv_row", rows):
            got = assert_same_outcome(path, "csv", chunk_text=chunk_text)
        assert got[1][3 * size - 1] == "call\nid" and len(got[1]) == 6 * size
        # blocks 1 and 2 are read from their tails, block 3 tries and fails
        assert tail.call_count == 3
        assert tail.call_args_list[2].args[0].endswith(first_half.encode())
        # from block 3 on, every record goes through csv.reader and the row check
        assert [call.args[1] for call in rows.call_args_list] == list(range(2 + 2 * size, 2 + 6 * size))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_line_longer_than_the_chunk_text_is_a_chunk_of_one_line(self, tmp_path, fmt):
        chunk_text = 200
        lines = (csv_rows(20) if fmt == "csv" else jsonl_lines(20)).splitlines(keepends=True)
        at = chunk_ranges(lines, chunk_text)[1][0]  # the first line of chunk 2
        long_id = "x" * 3 * chunk_text
        long_line = (csv_rows(1) if fmt == "csv" else jsonl_lines(1)).replace("c0", long_id)
        lines.insert(at, long_line)
        path = self.write(tmp_path, f"d.{fmt}", (CSV_HEAD if fmt == "csv" else "") + "".join(lines))
        expected = assert_same_outcome(path, fmt, chunk_text=chunk_text)
        assert expected[1][at] == long_id
        # read from its tail, alone in its block, as every other block is
        name = "_csv_block" if fmt == "csv" else "_jsonl_block"
        tail = mock.Mock(wraps=getattr(dataset_module, name))
        row_path = mock.Mock(side_effect=AssertionError("a chunk reached the row checks"))
        with mock.patch.multiple(dataset_module, _CHUNK_TEXT=chunk_text, **{name: tail}), \
                mock.patch.object(dataset_module, "_check_csv_row", row_path), \
                mock.patch.object(dataset_module, "_check_jsonl_record", row_path):
            got = outcome(load_dataset, path, fmt, None)
        assert got == expected
        assert tail.call_args_list[1].args[0] == long_line.encode()
        assert sum(call.args[0].count(b"\n") for call in tail.call_args_list) == len(lines)

    @pytest.mark.parametrize("end", ["\r", "\r\n", "\n"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_blocks_end_at_any_line_end_and_keep_each_crlf_whole(self, tmp_path, fmt, end):
        lines = ((CSV_HEAD + csv_rows(40)) if fmt == "csv" else jsonl_lines(40)).splitlines()
        text = end.join([*lines, ""])
        path = self.write(tmp_path, f"d.{fmt}", text)
        longest = max(map(len, lines)) + len(end)
        for chunk_text in (1, 7, 64, 200):
            assert_same_outcome(path, fmt, chunk_text=chunk_text)
            # a file with no line feed is not read as one block
            with open(path, "rb") as fh, mock.patch.object(dataset_module, "_CHUNK_TEXT", chunk_text):
                blocks = list(dataset_module._blocks(fh))
            assert b"".join(blocks) == text.encode()
            assert all(block.endswith(end.encode()) and len(block) < chunk_text + longest for block in blocks)

    def test_jsonl_records_merged_across_two_lines_through_an_array(self, tmp_path):
        # read as one array, the two lines are two records; each line alone is not one
        first, second = jsonl_lines(2).splitlines()
        text = jsonl_lines(3) + "\n".join(array_merged(first, second)) + "\n"
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl")
        assert got == (DataError, "row 4: invalid JSON (Extra data)")

    def test_jsonl_record_members_run_on_into_the_next_line(self, tmp_path):
        # read as one array, the two lines are two records; the second line does not start with "{"
        first, second = jsonl_lines(2).splitlines()
        text = jsonl_lines(3) + "\n".join(member_merged(first, second)) + "\n"
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl")
        assert got == (DataError, "row 4: invalid JSON (Expecting ',' delimiter)")

    def test_jsonl_object_over_two_lines(self, tmp_path):
        head, tail = record_line().split('"selections": ')
        text = jsonl_lines(3) + head + '"selections":\n' + tail + "\n"
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl")
        assert got == (DataError, "row 4: invalid JSON (Expecting value)")

    def test_jsonl_bracket_in_a_call_id(self, tmp_path):
        text = jsonl_lines(3) + record_line(call_id="a[0]") + "\n"
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl")
        assert got[1] == ("c0", "c1", "c2", "a[0]")

    @pytest.mark.parametrize("reordered, chunk_text", [(False, None), (True, None), (True, 1)])
    def test_jsonl_lone_surrogates_in_call_ids_and_platforms(self, tmp_path, reordered, chunk_text):
        # a "\\ud800" escape decodes to a str that UTF-8 cannot encode; read from the
        # lines' tails, or row by row where one line's keys are reordered, the records
        # hold such call ids and platforms as any others, and the counts read past them
        records = [json.loads(line) for line in jsonl_lines(6).splitlines()]
        for i, record in enumerate(records):
            record.update(call_id=f"c{i}\ud800", platform="\udfff" * (i % 3))
        if reordered:
            records[3] = dict(reversed(records[3].items()))
        path = self.write(tmp_path, "d.jsonl", "".join(json.dumps(record) + "\n" for record in records))
        row_check = mock.Mock(wraps=dataset_module._check_jsonl_record)
        with mock.patch.object(dataset_module, "_check_jsonl_record", row_check):
            got = assert_same_outcome(path, "jsonl", chunk_text=chunk_text)
        assert row_check.called == reordered
        assert got[1] == tuple(f"c{i}\ud800" for i in range(6))
        assert got[3] == tuple("\udfff" * (i % 3) for i in range(6))
        with chunk_sizes(chunk_text):
            counts = load_dataset(path, format="jsonl", counts=True)
            assert counts_contents(counts) == counts_contents(load_dataset(path, format="jsonl").row_counts)
        assert_keyed_counts_load_agrees(path, "jsonl", None, chunk_text)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("column", ["call_id", "platform"])
    def test_save_refuses_text_utf8_cannot_encode_before_opening_the_file(self, tmp_path, fmt, column):
        # loaded from JSON "\\ud800" escapes, records 3 and 4 hold lone surrogates, one in each
        # column; the first of them is named, and the file at the path is left as it was
        records = [json.loads(line) for line in jsonl_lines(6).splitlines()]
        other = "platform" if column == "call_id" else "call_id"
        records[3][column], records[4][other] = "x\ud800", "\udfff"
        path = self.write(tmp_path, "d.jsonl", "".join(json.dumps(record) + "\n" for record in records))
        out = self.write(tmp_path, f"out.{fmt}", b"kept")
        with pytest.raises(DataError, match=f"^{column} that UTF-8 cannot encode at record 3$"):
            save_dataset(load_dataset(path, format="jsonl"), out, format=fmt)
        assert out.read_bytes() == b"kept"

    @pytest.mark.parametrize("chunk_text", [1, 16])
    def test_jsonl_first_record_after_blocks_of_blank_lines(self, tmp_path, chunk_text):
        # at least three blocks hold only blank lines before the first record
        blank = "\n  \n\t\r\n" * chunk_text
        rows = blank.count("\n")
        path = self.write(tmp_path, "d.jsonl", blank + jsonl_lines(8))
        got = assert_same_outcome(path, "jsonl", chunk_text=chunk_text)
        assert got[1] == tuple(f"c{i}" for i in range(8))
        assert_keyed_counts_load_agrees(path, "jsonl", None, chunk_text)
        text = blank + jsonl_lines(3) + record_line(arm="groupB") + "\n" + jsonl_lines(3, start=3)
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl", chunk_text=chunk_text)
        assert got == (DataError, f"row {rows + 4}: unknown arm 'groupB'")

    @pytest.mark.parametrize("chunk_text", [1, None])
    def test_jsonl_catalog_mismatch_before_a_line_not_json_wins(self, tmp_path, chunk_text):
        n = several_chunks(jsonl_lines(1))
        catalog = TokenCatalog.from_labels(["echo", "static"])
        path = self.write(tmp_path, "d.jsonl", jsonl_lines(n) + "{oops\n" + jsonl_lines(3, start=n))
        got = assert_same_outcome(path, "jsonl", catalog, chunk_text=chunk_text)
        assert got == (SchemaError, "token columns do not match catalog (missing=['static'], unknown=['noise'])")
        assert_keyed_counts_load_agrees(path, "jsonl", catalog, chunk_text)
        # with the file's own catalog the line that is not JSON is the error
        got = assert_same_outcome(path, "jsonl", chunk_text=chunk_text)
        assert got == (DataError, f"row {n + 1}: invalid JSON (Expecting property name enclosed in double quotes)")
        assert_keyed_counts_load_agrees(path, "jsonl", None, chunk_text)

    @pytest.mark.parametrize("counts", [False, True])
    def test_jsonl_catalog_mismatch_raises_before_any_block_is_read(self, tmp_path, counts):
        path = self.write(tmp_path, "d.jsonl", "\n" + jsonl_lines(several_chunks(jsonl_lines(1))))
        catalog = TokenCatalog.from_labels(["echo", "static"])
        blocks = mock.Mock(side_effect=AssertionError("a block was read"))
        with mock.patch.object(dataset_module, "_blocks", blocks), pytest.raises(SchemaError) as raised:
            load_dataset(path, format="jsonl", catalog=catalog, counts=counts)
        assert str(raised.value) == "token columns do not match catalog (missing=['static'], unknown=['noise'])"

    @pytest.mark.parametrize("chunk_text", [1, 64, None])
    def test_jsonl_byte_not_utf8_a_few_lines_after_the_first_record(self, tmp_path, chunk_text):
        head = ("\n" + jsonl_lines(3)).encode()
        path = self.write(tmp_path, "d.jsonl", head + b"x\xff\n" + jsonl_lines(2, start=3).encode())
        got = assert_same_outcome(path, "jsonl", chunk_text=chunk_text)
        error = f"can't decode byte 0xff in position {len(head) + 1}: invalid start byte"
        assert got == (DataError, f"{path}: 'utf-8' codec {error}")
        assert_keyed_counts_load_agrees(path, "jsonl", None, chunk_text)

    @pytest.mark.parametrize("chunk_text", [1, None])
    def test_jsonl_first_line_with_keys_in_another_order(self, tmp_path, chunk_text):
        # its block is read row by row, and every later block from its lines' tails
        lines = jsonl_lines(several_chunks(jsonl_lines(1))).splitlines(keepends=True)
        lines[0] = json.dumps(dict(reversed(json.loads(lines[0]).items()))) + "\n"
        path = self.write(tmp_path, "d.jsonl", "".join(lines))
        real, read = dataset_module._jsonl_block, []

        def block(*args):
            got = real(*args)
            read.append(got is not None)
            return got

        with mock.patch.object(dataset_module, "_jsonl_block", block):
            got = assert_same_outcome(path, "jsonl", chunk_text=chunk_text)
        assert len(got[1]) == len(lines) and got[1][0] == "c0"
        assert len(read) > 2 and read == [False] + [True] * (len(read) - 1)

    def test_jsonl_blank_lines_count_in_row_numbers(self, tmp_path):
        text = jsonl_lines(2) + "\n  \n" + jsonl_lines(1, start=2) + record_line(arm="groupB") + "\n"
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl")
        assert got == (DataError, "row 6: unknown arm 'groupB'")
        text = "\n" + jsonl_lines(2) + "\t\n" + jsonl_lines(2, start=2)
        got = assert_same_outcome(self.write(tmp_path, "d.jsonl", text), "jsonl")
        assert got[1] == ("c0", "c1", "c2", "c3")
