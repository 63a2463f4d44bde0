"""Survey-response data model, CSV/JSONL ingestion, and poor-call labeling.

A dataset couples a token catalog (the survey's checkbox questions) with
each call's responses. Calls rated 1 or 2 stars are labeled "poor";
that binary label is what every downstream statistic conditions on.
Records without a star rating are kept for response-rate analysis but
carry no poor-call label.

A Dataset holds no Python object per record. Ratings and token cells
are numpy arrays; arms are uint8 codes into ARMS; call ids and
platforms are `StringColumn`s, each all its values as one joined str
plus an int64 array of end offsets. The tuples `Dataset.call_ids`,
`.arms` and `.platforms` are built on first access, and no stage reads
them: the loaders keep each chunk's columns and join them at the
end, the writers read one chunk's slice at a time, and
`filter_dataset` takes rows of the columns. A load with `counts=True`
keeps no record at all, as a column store builds no column that a query
does not read (Abadi et al., "Materialization Strategies in a
Column-Oriented DBMS", ICDE 2007): the loader checks each block as any
load does, folds it into the counts of the distinct token rows
(`counts.RowFold`) and drops it, and every statistic command reads those
`RowCounts`; with `keys=True` as well, the fold keeps each rated
record's pattern key, all that the repeated splits of `evaluate` and
`select --strategy auc_greedy` read of a record. A Dataset's own
`row_counts` and `patterns` are built by the same fold over its record
columns.

A line as `save_dataset` writes it is a head (call_id, arm, platform
and rating) and a tail whose text depends only on the catalog:
",c,c,...,c" and the line end in CSV, ', "selections": {"<label>": c,
...}}' and "\n" in JSONL (labels in the first record's order). One
template, `_Tail`, both writes the tails of a chunk of records and
checks those of a block of lines.

Files are written in chunks of records: each head by string formatting,
and the chunk's tails by one fill of the template. A CSV chunk whose
call ids or platforms need quoting goes through csv.writer instead.

A file's catalog comes from its head, read as text before the first
block: a CSV file's header, or the selections keys of a JSONL file's
first record. A `catalog` that does not match it raises there, and the
tails are built from it before any row is read.

Files are read as bytes, in blocks of about 128 KiB (`_CHUNK_TEXT`)
that end after a line end, so that a block of wide lines holds no more
than one of narrow ones, as Instant Loading splits CSV input into chunks
at line ends and finds their delimiters with vector operations
(Mühlbauer et al., "Instant Loading for Main Memory Databases", PVLDB
2013). When every line of a block ends in the tail of its line end with
0 or 1 in each cell, the block is read with a few array operations over
its bytes: the tails are compared with the template, each cell read at
a fixed offset from its line end, and only the heads are parsed. In CSV,
when no head holds a quote, a NUL or a carriage return, the heads are
read by position at their three commas: the call ids and platforms
gathered and decoded once per block, the arms and ratings read as
codes, with no str per field. In JSONL, the heads are decoded at once
and each head + "}" read by one batched `json.loads`.

Any other block is read row by row, and each row goes through the row
check that names its first error (`_check_csv_row`,
`_check_jsonl_record`), so that either format reports its first fault
in file order. From the first CSV block that fails, csv.reader reads
the rest of the file as text, since a quoted field may hold a line
break, and its rows are then taken _CHUNK_ROWS at a time. A JSONL
block that fails is decoded and its lines checked in order
(`_add_jsonl_lines`), and the next block is read from its tails again;
but from a JSONL block that is not UTF-8, or holds a bad line, the rest
of the file is read as text. A file read as text decodes its bytes
8 KiB at a time and reads no line of a chunk that does not decode; read
as text again past the lines already read, it keeps that order, so that
the first error reported, and a decoding error's byte position, are a
text reader's, though the chunk holding a bad line may reach into the
next block.
"""

from __future__ import annotations

import csv
import io
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice, repeat
from json.encoder import encode_basestring
from operator import index, itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .counts import _RATING_CLASSES, PatternTable, RowCounts, RowFold
from .errors import DataError, ParameterError, SchemaError

ARMS = ("control", "treatment", "none")
PANELS = ("audio", "video")

# A str holding a surrogate, as a JSON "\ud800" escape decodes to, is not text that UTF-8 can encode.
_SURROGATE = re.compile("[\ud800-\udfff]")

# Fixed columns preceding the per-token 0/1 columns in the CSV schema.
BASE_COLUMNS = ("call_id", "arm", "platform", "rating")

# Default 15-question catalog: 8 audio and 7 video problem statements.
DEFAULT_TOKENS = (
    ("I could not hear any sound", "audio"),
    ("The other side could not hear any sound", "audio"),
    ("I heard echo in the call", "audio"),
    ("I heard noise in the call", "audio"),
    ("Volume was low", "audio"),
    ("The call ended unexpectedly", "audio"),
    ("Speech was not natural or sounded distorted", "audio"),
    ("We kept interrupting each other", "audio"),
    ("I could not see any video", "video"),
    ("The other side could not see my video", "video"),
    ("Image quality was poor", "video"),
    ("Video kept freezing", "video"),
    ("Video stopped unexpectedly", "video"),
    ("The other side was too dark", "video"),
    ("Video was ahead or behind audio", "video"),
)


@dataclass(frozen=True)
class Token:
    id: int
    label: str
    panel: str


class TokenCatalog:
    """Ordered, immutable universe of survey tokens.

    Token ids are positional: 0..n-1 in catalog order. Files reference
    tokens by column name; names are mapped to ids once at load time.
    """

    def __init__(self, tokens: Sequence[Token]):
        tokens = tuple(tokens)
        if not tokens:
            raise SchemaError("catalog must contain at least one token")
        for i, tok in enumerate(tokens):
            if tok.id != i:
                raise SchemaError(f"token ids must be contiguous 0..n-1, got id {tok.id} at position {i}")
            if tok.panel not in PANELS:
                raise SchemaError(f"unknown panel {tok.panel!r} for token {tok.label!r}")
        labels = [t.label for t in tokens]
        if len(set(labels)) != len(labels):
            raise SchemaError("token labels must be unique")
        for label in filter(_SURROGATE.search, labels):
            raise SchemaError(f"token label {label!r} is not UTF-8 text")
        self._tokens = tokens
        self._by_label = {t.label: t.id for t in tokens}

    @classmethod
    def default(cls) -> "TokenCatalog":
        return cls([Token(i, label, panel) for i, (label, panel) in enumerate(DEFAULT_TOKENS)])

    @classmethod
    def from_labels(cls, labels: Sequence[str], panels: Optional[Sequence[str]] = None) -> "TokenCatalog":
        """Build a catalog from bare labels. Panels default to audio when unknown."""
        if panels is None:
            panels = ["audio"] * len(labels)
        if len(panels) != len(labels):
            raise SchemaError(f"{len(labels)} labels but {len(panels)} panels")
        return cls([Token(i, lab, pan) for i, (lab, pan) in enumerate(zip(labels, panels))])

    @classmethod
    def numbered(cls, n: int) -> "TokenCatalog":
        """Synthetic n-token catalog (first half audio, rest video); used for experiments."""
        if n < 1:
            raise ParameterError("catalog size must be >= 1")
        half = (n + 1) // 2
        return cls(
            [Token(i, f"token_{i:02d}", "audio" if i < half else "video") for i in range(n)]
        )

    @classmethod
    def from_csv(cls, path) -> "TokenCatalog":
        """Read a catalog file with header id,label,panel."""
        with _text_errors(path), open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header and header[0].startswith("\ufeff"):
                raise SchemaError(_BOM_ERROR)
            if header != ["id", "label", "panel"]:
                raise SchemaError(f"catalog header must be id,label,panel, got {header}")
            rows = []
            for row_no, r in enumerate(reader, start=2):
                if len(r) != 3 or not r[0].isdecimal():
                    raise SchemaError(f"catalog row {row_no}: expected an integer id, label, panel, got {r}")
                rows.append((int(r[0]), r[1], r[2]))
        rows.sort(key=lambda r: r[0])
        return cls([Token(i, lab, pan) for i, lab, pan in rows])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator=_csv_line_end(self.labels))
            writer.writerow(["id", "label", "panel"])
            for t in self._tokens:
                writer.writerow([t.id, t.label, t.panel])

    @property
    def tokens(self) -> tuple[Token, ...]:
        return self._tokens

    @property
    def labels(self) -> list[str]:
        return [t.label for t in self._tokens]

    def id_of(self, label: str) -> int:
        try:
            return self._by_label[label]
        except KeyError:
            raise SchemaError(f"unknown token label {label!r}") from None

    def panel_ids(self, panel: str) -> list[int]:
        return [t.id for t in self._tokens if t.panel == panel]

    def __len__(self) -> int:
        return len(self._tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self._tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, TokenCatalog) and self._tokens == other._tokens

    def __hash__(self) -> int:
        return hash(self._tokens)


class StringColumn:
    """A column of strings held as one joined str and the int64 end offset,
    in characters, of each value.

    A short str costs some 50 bytes as a Python object, and a tuple 8 more
    to point at it; here a value costs its characters and its offset. It is
    a column store's layout for variable-length values (Abadi, Madden &
    Hachem, "Column-Stores vs. Row-Stores", SIGMOD 2008), as in Apache
    Arrow's string arrays. A str holds any text, NUL, line breaks and lone
    surrogates included, so nothing is escaped.
    """

    __slots__ = ("text", "ends")

    def __init__(self, text: str, ends: np.ndarray):
        self.text = text
        self.ends = ends
        ends.setflags(write=False)

    @classmethod
    def of(cls, values: Iterable) -> "StringColumn":
        """The column of str(v) for each of `values`, joined _CHUNK_ROWS values at a time."""
        values = map(str, values)
        chunks = iter(lambda: list(islice(values, _CHUNK_ROWS)), [])
        return cls.concat(
            [cls("".join(chunk), np.cumsum(np.fromiter(map(len, chunk), np.int64, len(chunk)))) for chunk in chunks]
        )

    @classmethod
    def concat(cls, columns: Sequence["StringColumn"]) -> "StringColumn":
        """The values of `columns`, one after another."""
        ends = np.concatenate([np.zeros(0, np.int64), *(c.ends for c in columns)])
        lo = offset = 0
        for c in columns:  # each column's ends shifted in place by the text before it
            ends[lo:lo + len(c)] += offset
            lo, offset = lo + len(c), offset + len(c.text)
        return cls("".join(c.text for c in columns), ends)

    def __len__(self) -> int:
        return self.ends.size

    def slice(self, lo: int, hi: int) -> list[str]:
        """The values at positions lo..hi-1, as str objects."""
        start = int(self.ends[lo - 1]) if lo else 0
        ends = self.ends[lo:hi] - start
        text = self.text[start:start + int(ends[-1])] if ends.size else ""
        width = len(text) // max(ends.size, 1)
        # ASCII values of one width and without NUL (numpy drops a value's trailing
        # NULs) are the items of a "<U{width}" array, which makes their strs at once
        if width and text.isascii() and "\0" not in text and np.array_equal(ends, np.arange(1, ends.size + 1) * width):
            return np.frombuffer(text.encode("utf-32-le"), f"<U{width}").tolist()
        ends = ends.tolist()
        return list(map(text.__getitem__, map(slice, [0, *ends[:-1]], ends)))

    def take(self, idx: np.ndarray) -> "StringColumn":
        """The column of the values at positions `idx`, in that order."""
        bounds = np.concatenate([np.zeros(1, np.int64), self.ends])
        idx = np.asarray(idx, np.int64)
        return StringColumn.of(map(self.text.__getitem__, map(slice, bounds[idx], bounds[idx + 1])))


def _string_column(values) -> StringColumn:
    return values if isinstance(values, StringColumn) else StringColumn.of(values)


_ARM_CODES = {arm: code for code, arm in enumerate(ARMS)}


def _arm_codes(arms) -> np.ndarray:
    """uint8 codes into ARMS of arm names, or of codes already given as a uint8 array."""
    if isinstance(arms, np.ndarray) and arms.dtype == np.uint8:
        bad = arms[arms >= len(ARMS)]
        if bad.size:
            raise SchemaError(f"unknown arm code {bad[0]}")
        return arms
    for arm in set(arms):
        if arm not in ARMS:
            raise SchemaError(f"unknown arm {arm!r}")
    return np.fromiter(map(_ARM_CODES.__getitem__, arms), np.uint8, len(arms))


def _stored(values: np.ndarray, dtype, top: int, error: str) -> np.ndarray:
    """`values` as the `dtype` a Dataset stores them in, each an integer in
    0..top; DataError names the first record that holds another value, one
    the cast would change (out of range, fractional, NaN) included."""
    with np.errstate(invalid="ignore"):  # NaN and the infinities cast to some integer, which differs
        stored = values.astype(dtype, copy=False)  # values of `dtype` already: no copy, no compare
    if stored.size and (stored.min() < 0 or stored.max() > top or (stored is not values and (stored != values).any())):
        bad = (stored < 0) | (stored > top) | (stored != values)
        raise DataError(f"{error} at record {np.argwhere(bad)[0, 0]}")
    return stored


class Dataset:
    """Immutable survey responses, one call per record, with derived poor-call labels.

    Stored as columns: ratings and token cells as numpy arrays, call ids
    and platforms as `StringColumn`s, arms as uint8 codes into ARMS. The
    tuples `call_ids`, `arms` and `platforms` are built on access; no
    stage reads them. Ratings use 0 internally for "absent", poor-call
    labels use -1. `row_counts` folds the records into counts, with each
    rated record's key, a chunk at a time, so that no copy of the records
    is made (`toksel.counts`); `patterns` and `cooccurrence` are read from
    it.
    """

    def __init__(
        self,
        catalog: TokenCatalog,
        call_ids: Sequence[str],
        arms: Sequence[str],
        platforms: Sequence[str],
        ratings: np.ndarray,
        selections: np.ndarray,
    ):
        """`call_ids` and `platforms` are sequences of values stored as str,
        or `StringColumn`s, shared as given; `arms` are arm names, or their uint8
        codes into ARMS. The ratings, selections and arm codes are copied, so
        that no array the caller holds changes the dataset or is made read-only."""
        arms = arms.copy() if isinstance(arms, np.ndarray) else arms
        self._store(catalog, call_ids, arms, platforms, np.array(ratings), np.array(selections))

    @classmethod
    def _own(cls, *columns) -> "Dataset":
        """A dataset of the columns `__init__` takes, whose arrays nothing else
        references: stored as they are, with no copy."""
        dataset = cls.__new__(cls)
        dataset._store(*columns)
        return dataset

    def _store(self, catalog, call_ids, arms, platforms, ratings, selections) -> None:
        call_ids, platforms = _string_column(call_ids), _string_column(platforms)
        ratings, selections = np.asarray(ratings), np.asarray(selections)
        if ratings.ndim != 1:
            raise DataError("ratings must hold one value per record")
        n = len(ratings)
        for name, column in (("call_ids", call_ids), ("arms", arms), ("platforms", platforms)):
            if len(column) != n:
                raise DataError(f"{name} length must match record count")
        if selections.shape != (n, len(catalog)):
            raise DataError(
                f"selections must be (n_records, {len(catalog)}), got {selections.shape}"
            )
        ratings = _stored(ratings, np.int16, 5, "rating other than 1-5")
        selections = _stored(selections, np.uint8, 1, "selection cell other than 0 or 1")

        self._catalog = catalog
        self._call_ids = call_ids
        self._arm_codes = _arm_codes(arms)
        self._platforms = platforms
        self._ratings = ratings
        self._selections = selections
        for arr in (self._arm_codes, self._ratings, self._selections):
            arr.setflags(write=False)

    # -- basic views -------------------------------------------------

    @property
    def catalog(self) -> TokenCatalog:
        return self._catalog

    @cached_property
    def call_ids(self) -> tuple[str, ...]:
        return tuple(self._call_ids.slice(0, len(self)))

    @cached_property
    def arms(self) -> tuple[str, ...]:
        return tuple(map(ARMS.__getitem__, self._arm_codes.tolist()))

    @cached_property
    def platforms(self) -> tuple[str, ...]:
        return tuple(self._platforms.slice(0, len(self)))

    @property
    def selections(self) -> np.ndarray:
        """(n_records, n_tokens) uint8 matrix of 0/1 selections (read-only)."""
        return self._selections

    @property
    def ratings(self) -> np.ndarray:
        """int16 vector, 1..5 for rated calls and 0 for unrated (read-only)."""
        return self._ratings

    @cached_property
    def pc_labels(self) -> np.ndarray:
        """int8 vector aligned with records: 1 poor, 0 not poor, -1 unrated (read-only)."""
        pc = (_RATING_CLASSES[self._ratings] - 1).astype(np.int8)
        pc.setflags(write=False)
        return pc

    @property
    def responded(self) -> np.ndarray:
        return self._selections.any(axis=1)

    @cached_property
    def rated_mask(self) -> np.ndarray:
        return self._ratings > 0

    @cached_property
    def row_counts(self) -> RowCounts:
        """The records folded into counts with their keys (`counts.RowFold`), _CHUNK_ROWS at a time."""
        fold = RowFold(len(self._catalog), keys=True)
        for lo in range(0, len(self), _CHUNK_ROWS):
            fold.add(self._selections[lo:lo + _CHUNK_ROWS], self._ratings[lo:lo + _CHUNK_ROWS])
        return fold.result(self._catalog)

    @property
    def cooccurrence(self) -> np.ndarray:
        """float64 records selecting both of two tokens (`RowCounts.cooccurrence`)."""
        return self.row_counts.cooccurrence

    @property
    def patterns(self) -> PatternTable:
        """The rated records compressed to their distinct token rows, with label
        counts and each rated record's key."""
        return self.row_counts.patterns

    def __len__(self) -> int:
        return self._ratings.shape[0]


def token_ids(subset: Sequence[int]) -> list[int]:
    """Token ids as ints: Python or numpy integers; a bool, a float or a
    string raises ParameterError rather than being read as 0/1, truncated
    or parsed."""
    ids = []
    for t in subset:
        try:
            if isinstance(t, bool):  # True == 1, but a flag is not a token id
                raise TypeError
            ids.append(index(t))
        except TypeError:
            raise ParameterError(f"token id {t!r} is not an integer") from None
    return ids


def check_subset(subset: Sequence[int], n_tokens: int) -> tuple[int, ...]:
    """A token subset's ids as ints, in the given order. A subset is distinct
    integer ids (`token_ids`) in 0..n_tokens-1; anything else raises
    ParameterError."""
    ids = token_ids(subset)
    if len(set(ids)) != len(ids):
        raise ParameterError(f"subset ids must be distinct, got {ids}")
    for t in ids:
        if not 0 <= t < n_tokens:
            raise ParameterError(f"token id {t} outside catalog (size {n_tokens})")
    return tuple(ids)


def filter_dataset(
    dataset: Dataset,
    arm: Optional[str] = None,
    rated_only: bool = False,
    responded_only: bool = False,
) -> Dataset:
    """Row-filtered view of a dataset; catalog and record order are preserved."""
    if arm is not None and arm not in ARMS:
        raise ParameterError(f"unknown arm {arm!r}")
    keep = np.ones(len(dataset), dtype=bool)
    if arm is not None:
        keep &= dataset._arm_codes == _ARM_CODES[arm]
    if rated_only:
        keep &= dataset.rated_mask
    if responded_only:
        keep &= dataset.responded
    idx = np.flatnonzero(keep)
    return Dataset._own(
        dataset.catalog,
        dataset._call_ids.take(idx),
        dataset._arm_codes[idx],
        dataset._platforms.take(idx),
        dataset.ratings[idx],
        dataset.selections[idx],
    )


# -- file ingestion ---------------------------------------------------


def _parse_rating(text: str, row_no: int) -> int:
    if text == "":
        return 0
    try:
        rating = int(text)
    except ValueError:
        raise DataError(f"row {row_no}: rating {text!r} is not an integer") from None
    if not 1 <= rating <= 5:
        raise DataError(f"row {row_no}: rating {rating} outside 1-5")
    return rating


def _catalog_for_labels(labels: list[str], catalog: Optional[TokenCatalog]) -> TokenCatalog:
    if catalog is not None:
        if sorted(labels) != sorted(catalog.labels):
            missing = set(catalog.labels) - set(labels)
            extra = set(labels) - set(catalog.labels)
            raise SchemaError(f"token columns do not match catalog (missing={sorted(missing)}, unknown={sorted(extra)})")
        return catalog
    default = TokenCatalog.default()
    if labels == default.labels:
        return default
    # Panel membership is unknown for ad-hoc files; default every token to audio.
    return TokenCatalog.from_labels(labels)


def load_dataset(
    path,
    format: str = "csv",
    catalog: Optional[TokenCatalog] = None,
    *,
    counts: bool = False,
    keys: bool = False,
) -> Union[Dataset, RowCounts]:
    """Load a dataset from a CSV or JSONL file.

    Token columns are matched by name against `catalog` when given
    (catalog order defines token ids); otherwise the catalog is derived
    from the file itself. Rows without a rating are retained; they are
    excluded from any poor-call-conditioned statistic downstream.

    Every field of every record is checked in any case, so a file loads
    or fails alike, with the same error. With `counts=True` no record is
    kept: each block of records is folded into counts as it is read
    (`counts.RowFold`), and the result is their `RowCounts`; with
    `keys=True` as well, they hold each rated record's pattern key, for a
    caller that draws record-level splits.
    """
    loaders = {"csv": _load_csv, "jsonl": _load_jsonl}
    if format not in loaders:
        raise ParameterError(f"unknown format {format!r}")
    if keys and not counts:
        raise ParameterError("keys=True needs counts=True")
    sink = partial(_Counts, keys=keys) if counts else _Columns
    with _text_errors(path):
        return loaders[format](path, catalog, sink)


@contextmanager
def _text_errors(path):
    """Report a file that is not UTF-8 text, or not parseable as CSV, as a DataError."""
    try:
        yield
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None


# Records written, column values joined, or rows that csv.reader parses, at a time.
_CHUNK_ROWS = 4096
# Bytes of a file read, checked and converted at a time: one block's bytes and
# what they parse into are alive at once, so a bound in bytes, not in lines,
# bounds them whatever the width of a line.
_CHUNK_TEXT = 1 << 17

# Rating cells as written. Other text that int() reads (" 3", "+3") is valid
# too: its block goes through the row check.
_CSV_RATINGS = {"": 0, "1": 1, "2": 2, "3": 3, "4": 4, "5": 5}
# Looked up after a type check: True == 1 and 1.0 == 1, but neither is a rating.
_JSON_RATINGS = {None: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
_JSONL_KEYS = ("call_id", "arm", "platform", "selections")
# A UTF-8 byte order mark (as Excel's "CSV UTF-8" writes one) reads as part of the first header field.
_BOM_ERROR = "header starts with a UTF-8 byte order mark (BOM); save the file as UTF-8 without a BOM"
_LINE_END = re.compile(rb"[\r\n]")


class _Columns:
    """A file's columns, kept as the chunks the readers give and joined once
    by `result`: call ids and platforms as each chunk's `StringColumn`, and
    arm codes, ratings and cells as each chunk's arrays, after an empty one
    that gives a file of no records its columns' dtypes and width."""

    def __init__(self, n_tokens: int):
        self.call_ids, self.platforms = [], []
        self.arms, self.ratings = [np.zeros(0, np.uint8)], [np.zeros(0, np.int16)]
        self.cells = [np.zeros((0, n_tokens), np.uint8)]

    def add(self, call_ids, arms, platforms, ratings, cells) -> None:
        """Append a chunk: its arms as names, or as their uint8 codes into ARMS."""
        self.call_ids.append(_string_column(call_ids))
        self.platforms.append(_string_column(platforms))
        self.arms.append(_arm_codes(arms))
        self.ratings.append(np.asarray(ratings, np.int16))
        self.cells.append(np.asarray(cells, np.uint8))

    def result(self, catalog: TokenCatalog) -> Dataset:
        return Dataset._own(
            catalog,
            StringColumn.concat(self.call_ids),
            np.concatenate(self.arms),
            StringColumn.concat(self.platforms),
            np.concatenate(self.ratings),
            np.concatenate(self.cells),
        )


class _Counts:
    """A file's records folded into counts as they are read: the readers have
    checked every field of a chunk, and only its cells and ratings are kept,
    until the fold merges them into its table (with their keys if `keys`)."""

    def __init__(self, n_tokens: int, keys: bool = False):
        self.fold = RowFold(n_tokens, keys)

    def add(self, call_ids, arms, platforms, ratings, cells) -> None:
        self.fold.add(np.asarray(cells, np.uint8), np.asarray(ratings))

    def result(self, catalog: TokenCatalog) -> RowCounts:
        return self.fold.result(catalog)


def _load_csv(path, catalog: Optional[TokenCatalog], sink):
    with open(path, newline="", encoding="utf-8") as fh:
        read: list[str] = []  # the lines csv.reader reads the header row from
        header = next(csv.reader(read.append(line) or line for line in fh), None)
    if header is None:
        raise SchemaError("empty file: missing header")
    if header and header[0].startswith("\ufeff"):
        raise SchemaError(_BOM_ERROR)
    if tuple(header[: len(BASE_COLUMNS)]) != BASE_COLUMNS or len(header) <= len(BASE_COLUMNS):
        raise SchemaError(
            f"header must start with {','.join(BASE_COLUMNS)} followed by token columns"
        )
    labels = header[len(BASE_COLUMNS):]
    if len(set(labels)) != len(labels):
        raise SchemaError("duplicate token columns in header")
    cat = _catalog_for_labels(labels, catalog)
    col_order = [labels.index(lab) for lab in cat.labels]
    tails = {end: _Tail([","] * len(labels) + [end], col_order) for end in ("\n", "\r\n")}

    with open(path, "rb") as fh:
        columns, row_no = sink(len(cat)), 2
        fh.seek(sum(len(line.encode()) for line in read))
        for block in _blocks(fh):
            got = _csv_block(block, tails)
            if got is None:
                break
            columns.add(*got)
            row_no += len(got[1])
        else:
            return columns.result(cat)
    # a quoted field may hold a line break and run on into the next block: from the
    # first block that fails a guard, csv.reader reads the rest of the file as text;
    # its rows are counted, as each field is a str object far larger than its text
    with _text_after(path, "", len(read) + row_no - 2) as fh:
        for chunk in _chunks(csv.reader(fh), _CHUNK_ROWS, lambda row: 1):
            numbered = enumerate(chunk, row_no)
            columns.add(*zip(*(_check_csv_row(row, n, labels, col_order) for n, row in numbered)))
            row_no += len(chunk)
    return columns.result(cat)


def _blocks(fh) -> Iterator[bytes]:
    """The rest of a file opened in binary, in blocks of about _CHUNK_TEXT bytes
    that end after a line end ("\\n", "\\r\\n" or a bare "\\r"), or where the file does.

    A block read up to the middle of a line is read on to the line's end,
    so a line longer than a block extends it. A bare carriage return ends a
    block too, as it ends a line read as text: a file whose lines end in one
    is not read whole.
    """
    while block := fh.read(_CHUNK_TEXT):
        parts = [block]
        while not parts[-1].endswith((b"\n", b"\r")) and (ahead := fh.peek()):
            end = _LINE_END.search(ahead)
            parts.append(fh.read(end.end() if end else len(ahead)))
        if parts[-1].endswith(b"\r") and fh.peek()[:1] == b"\n":  # never split a "\r\n"
            parts.append(fh.read(1))
        yield b"".join(parts)


@contextmanager
def _text_after(path, newline: Optional[str], lines: int):
    """The file opened as text, past its first `lines` lines.

    A decoding error is then raised where a reader of the whole file as
    text raises it: a text file decodes its bytes in chunks of a fixed
    size counted from the start of the file, and no line of a chunk is
    read until the whole chunk decodes.
    """
    with open(path, newline=newline, encoding="utf-8") as fh:
        next(islice(fh, lines, lines), None)
        yield fh


def _chunks(items, budget: int, size) -> Iterator[list]:
    """The lines of a text file, or the rows of a csv reader, in chunks whose
    sizes, as `size` gives each item's, add up to `budget`.

    A chunk ends with the item that brings it to `budget`, so an item as
    large as that is a chunk of its own when it starts one. A CSV or
    decoding error is raised after the items read before it are yielded,
    so that a bad row among them is the error reported; this is why lines
    are not read by `readlines(hint)`, which drops them.
    """
    while True:
        chunk: list = []
        total = 0
        try:
            for item in items:
                chunk.append(item)
                total += size(item)
                if total >= budget:
                    break
        except (csv.Error, UnicodeDecodeError):
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk


class _Tail:
    """The end of a canonical line, whose text depends only on the catalog:
    `parts` with a 0/1 cell between each two, the cells in file order.

    One template, the tail's UTF-8 bytes with "0" in each cell, serves
    both ways. `lines` writes a chunk's tails by one fill of it, and
    `split` checks a block's bytes against it in one pass, each tail read
    at a fixed offset from its line end, as simdjson finds a JSON text's
    structure (Langdale & Lemire, "Parsing Gigabytes of JSON per Second",
    VLDB J. 2019), leaving each line's head to the loader.
    """

    def __init__(self, parts: list[str], col_order: list[int]):
        text = "0".join(parts)
        self.width = len(text)  # in characters
        self.template = np.frombuffer(text.encode(), np.uint8)
        slots = np.cumsum([len(part.encode()) + 1 for part in parts[:-1]]) - 1
        self.slots = slots[col_order]  # the cells' byte offsets, in catalog order
        # a tail's bytes less the template's: 0 or 1 in a cell, 0 elsewhere
        self.top = np.zeros(self.template.size, np.uint8)
        self.top[slots] = 1

    def lines(self, heads: list[str], cells: np.ndarray) -> str:
        """The text of the lines `heads[i]` + the tail holding the catalog-ordered
        0/1 cells `cells[i]`: the tails filled as one array, decoded once and cut
        at the tail's width, which is the same for every line."""
        grid = np.empty((len(heads), self.template.size), np.uint8)
        grid[:] = self.template
        grid[:, self.slots] += cells
        tails, w = grid.tobytes().decode(), self.width
        return "".join([head + tails[i:i + w] for i, head in zip(range(0, len(tails), w), heads)])

    def split(self, data: np.ndarray, ends: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The offset in `data` where each line's tail starts, and the (n, k)
        catalog-ordered cells of the tails, for the lines of `data` that end
        at the line feeds `ends`; None unless every line ends in the tail
        with 0 or 1 in each cell."""
        w = self.template.size
        if ends[0] < w - 1 or (ends[1:] - ends[:-1]).min(initial=w) < w:  # a line shorter than the tail
            return None
        at = ends - (w - 1)
        grid = _windows(data, w)[at]  # each line's last w bytes
        grid -= self.template  # a byte below the template's wraps past 1
        if (grid > self.top).any():
            return None
        return at, grid[:, self.slots]


def _windows(data: np.ndarray, width: int) -> np.ndarray:
    """The view whose row i is data[i:i + width], as numpy's
    sliding_window_view gives it, without its checks."""
    return np.ndarray((data.size - width + 1, width), np.uint8, data, 0, (1, 1))


def _block_lines(block: bytes, tails: dict) -> Optional[tuple[np.ndarray, np.ndarray, _Tail]]:
    """A block's bytes, the offsets of its line feeds, and the tail of its
    first line's end, `tails["\\n"]` or `tails["\\r\\n"]`.

    None if its last line has no line end, or if some line holds a
    carriage return but in a "\\r\\n" line end: one ends a line when the
    file is read as text.
    """
    if not block.endswith(b"\n"):
        return None
    data = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    crlf = ends[0] > 0 and data[ends[0] - 1] == ord("\r")
    if np.count_nonzero(data == ord("\r")) != ends.size if crlf else b"\r" in block:
        return None
    return data, ends, tails["\r\n" if crlf else "\n"]


def _line_starts(ends: np.ndarray) -> np.ndarray:
    return np.concatenate([np.zeros(1, ends.dtype), ends[:-1] + 1])


def _csv_block(block: bytes, tails: dict):
    """call_id, arm code, platform, rating and catalog-ordered cell columns of
    a block of CSV lines that each end in the tail of their line end, or None
    when a guard fails.

    The guards leave csv.reader nothing to do but split each head at its
    three commas: no head holds a quote or a NUL (which csv refuses before
    Python 3.11) or a carriage return, and none is longer than csv's field
    size limit. The heads are read by position from the block's bytes: the
    call ids and platforms are gathered and decoded once each, and the arms
    and ratings read as codes. Each arm and rating must be text
    `_check_csv_row` accepts unchanged, as `save_dataset` writes it.
    """
    lines = _block_lines(block, tails)
    if lines is None or b'"' in block or b"\0" in block:
        return None
    data, ends, tail = lines
    split = tail.split(data, ends)
    if split is None:
        return None
    tail_at, cells = split
    # the heads' commas, the tails' masked out: 3 per line in total, and each line's
    # three in its own head (a count alone can hide a head of 2 beside one of 4)
    commas = data == ord(",")
    _windows(commas.view(np.uint8), tail.template.size)[tail_at] = 0
    commas = np.flatnonzero(commas)
    if commas.size != 3 * ends.size:
        return None
    first, second, third = commas.reshape(-1, 3).T
    starts = _line_starts(ends)
    if (first < starts).any() or (third >= tail_at).any() or (tail_at - starts).max() >= csv.field_size_limit():
        return None
    arms = _CSV_ARM_FIELDS.codes(data, first + 1, second)
    ratings = _CSV_RATING_FIELDS.codes(data, third + 1, tail_at)  # a rating's code is its value
    if arms is None or ratings is None:
        return None
    call_ids, platforms = _utf8_fields(data, starts, first), _utf8_fields(data, second + 1, third)
    if call_ids is None or platforms is None:
        return None
    return call_ids, arms, platforms, ratings.astype(np.int16), cells


class _FieldCodes:
    """Reads fields of a block as codes, each field's index in `texts`: found
    by its length in bytes and its first byte, in which no two texts agree,
    and checked against its text's other bytes.

    One lookup serves every text: compared with each text in turn, the
    fields made a CSV load about a quarter slower.
    """

    def __init__(self, texts: Sequence[str]):
        self.texts = [np.frombuffer(text.encode(), np.uint8) for text in texts]
        self.longest = max(map(len, self.texts))
        # the code at length * 256 + first byte; longer fields share the last row
        self.table = np.full((self.longest + 2) * 256, len(texts), np.uint8)
        for code, text in enumerate(self.texts):
            row = text.size * 256
            # an empty field's byte is the one after it, whichever
            self.table[row + int(text[0]) if text.size else slice(row, row + 256)] = code

    def codes(self, data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Optional[np.ndarray]:
        """The code of each field data[lo[i]:hi[i]], which some byte follows;
        None if some field holds none of the texts."""
        codes = self.table[np.minimum(hi - lo, self.longest + 1) * 256 + data[lo]]
        if (codes == len(self.texts)).any():
            return None
        present = np.flatnonzero(np.bincount(codes, minlength=len(self.texts)))
        for code in present:
            text = self.texts[code]
            if text.size > 1 and (_windows(data, text.size)[lo[codes == code]] != text).any():
                return None
        return codes


_CSV_ARM_FIELDS = _FieldCodes(ARMS)
_CSV_RATING_FIELDS = _FieldCodes(list(_CSV_RATINGS))


def _utf8_fields(data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Optional[StringColumn]:
    """The column of the fields data[lo[i]:hi[i]] of a block, gathered and
    decoded at once; None unless each field is UTF-8 on its own."""
    lengths = hi - lo
    ends = np.cumsum(lengths)
    # each field's bytes, gathered at their offsets from its place in the joined bytes
    utf8 = data[np.repeat(lo - (ends - lengths), lengths) + np.arange(ends[-1])]
    try:
        text = utf8.tobytes().decode()
    except UnicodeDecodeError:
        return None
    if len(text) < utf8.size:
        # ends counted in characters, at the bytes that start one; a field that
        # starts inside another's last character would hide two bad ones
        lead = (utf8 & 0xC0) != 0x80
        if not lead[(ends - lengths)[lengths > 0]].all():
            return None
        ends = np.concatenate([np.zeros(1, np.int64), np.cumsum(lead)])[ends]
    return StringColumn(text, ends)


def _check_csv_row(row: list[str], row_no: int, labels: list[str], col_order: list[int]):
    """A CSV row's call_id, arm, platform, rating and catalog-ordered cells (True for "1"), or its first error."""
    if len(row) != len(BASE_COLUMNS) + len(labels):
        raise DataError(f"row {row_no}: expected {len(BASE_COLUMNS) + len(labels)} columns, got {len(row)}")
    if row[1] not in ARMS:
        raise DataError(f"row {row_no}: unknown arm {row[1]!r}")
    rating = _parse_rating(row[3], row_no)
    cells = row[len(BASE_COLUMNS):]
    if not {"0", "1"}.issuperset(cells):
        j = next(j for j in col_order if cells[j] not in ("0", "1"))
        raise DataError(f"row {row_no}: token cell for {labels[j]!r} must be 0 or 1, got {cells[j]!r}")
    return (*row[:3], rating, [cells[j] == "1" for j in col_order])


def _load_jsonl(path, catalog: Optional[TokenCatalog], sink):
    # the catalog, from the first record's selections keys: read as text, as a CSV header is
    with open(path, encoding="utf-8") as fh:
        row_no, first = next(((n, text) for n, text in enumerate(map(str.strip, fh), 1) if text), (0, ""))
    if not first:
        raise SchemaError("empty file: no records")
    labels = list(_jsonl_object(first, row_no).get("selections", {}))
    cat = _catalog_for_labels(labels, catalog)
    tails = {end: _jsonl_tail(labels, cat, end) for end in ("\n", "\r\n")}
    columns, row_no = sink(len(cat)), 1
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            got = _jsonl_block(block, tails)
            if got is not None:
                columns.add(*got)
                row_no += len(got[3])
                continue
            try:
                lines = io.StringIO(block.decode(), newline=None).readlines()
                row_no = _add_jsonl_lines(columns, lines, row_no, cat.labels)
            except (UnicodeDecodeError, DataError):
                break
        else:
            return columns.result(cat)
    # a block that does not decode, or holds a fault, is read again as text with the
    # rest of the file, so that the error reported is a text reader's: a decoding
    # error comes before the lines of its 8 KiB chunk, which may start in an earlier block
    with _text_after(path, None, row_no - 1) as fh:
        for lines in _chunks(fh, _CHUNK_TEXT, len):
            row_no = _add_jsonl_lines(columns, lines, row_no, cat.labels)
    return columns.result(cat)


def _add_jsonl_lines(columns, lines: list[str], row_no: int, labels: list[str]) -> int:
    """Check the records of `lines`, numbered from `row_no`, in order, and add
    them to `columns`; the first fault raises. The row number after them."""
    texts = map(str.strip, lines)
    rows = [_check_jsonl_record(_jsonl_object(text, n), n, labels) for n, text in enumerate(texts, row_no) if text]
    if rows:
        columns.add(*zip(*rows))
    return row_no + len(lines)


def _jsonl_tail(labels: list[str], cat: TokenCatalog, end: str = "\n") -> _Tail:
    """The tail of a JSONL line whose selections hold `labels` in this order,
    as `save_dataset` writes it with line end `end`."""
    keys = [encode_basestring(label) + ": " for label in labels]
    parts = [', "selections": {' + keys[0], *[", " + key for key in keys[1:]], "}}" + end]
    return _Tail(parts, [labels.index(label) for label in cat.labels])


def _jsonl_block(block: bytes, tails: dict):
    """call_id, arm, platform, rating and catalog-ordered cell columns of a
    block of JSONL lines that each end in the tail of their line end, or
    None when a guard fails.

    The block's heads, each followed by "}", are joined by ",\n" and
    decoded at once, and `_decoded` reads them as the elements of one JSON
    array under its guard. Each object must hold a call_id, an arm and a
    platform, so it has at least one member. Then the parser stands after
    a member value of the line's outermost object at the end of the head:
    so head + tail is that object with the tail's selections as one more
    member, which wins over a selections member of the head, as
    `json.loads` keeps the last value of a repeated key. The arms and
    ratings must be ones `_check_jsonl_record` accepts unchanged.
    """
    lines = _block_lines(block, tails)
    if lines is None:
        return None
    data, ends, tail = lines
    split = tail.split(data, ends)
    if split is None:
        return None
    tail_at, cells = split
    brackets = tail.template.tobytes().count(b"[")
    if (data[_line_starts(ends)] != ord("{")).any() or (
        np.count_nonzero(data == ord("[")) != ends.size * brackets if brackets else b"[" in block
    ):
        return None
    # "},\n".join(heads) + "}\n": each tail's first two bytes become "}," (the last
    # one's "}"), and of the rest only its line feed is kept
    text, keep, at = data.copy(), np.ones(data.size, np.uint8), np.arange(tail.template.size)
    _windows(text, 2)[tail_at] = np.frombuffer(b"},", np.uint8)
    _windows(keep, at.size)[tail_at] = (at < 2) | (at == at.size - 1)
    keep[tail_at[-1] + 1] = 0
    try:
        objs = _decoded(text[keep.view(bool)].tobytes().decode(), ends.size)
    except UnicodeDecodeError:
        return None
    if objs is None:
        return None
    try:
        call_ids, arms, platforms = zip(*map(itemgetter("call_id", "arm", "platform"), objs))
    except KeyError:
        return None
    ratings = list(map(dict.get, objs, repeat("rating")))
    if not (
        all(map(ARMS.__contains__, arms))
        and set(map(type, ratings)) <= {int, type(None)}
        and set(ratings) <= _JSON_RATINGS.keys()
    ):
        return None
    ratings = np.fromiter(map(_JSON_RATINGS.__getitem__, ratings), np.int16, len(objs))
    return call_ids, arms, platforms, ratings, cells


def _decoded(text: str, n: int) -> Optional[list[dict]]:
    """The JSON objects of n heads, from one `json.loads` of "[" + text + "]",
    where `text` is "},\n".join(heads) + "}\n", the elements head + "}"
    joined by ",\n"; None unless that shows each element holds exactly one
    object.

    It does when every head starts with "{", no head holds a "[" (both
    checked by the caller), and the result is n objects. Strict JSON has
    no raw line break inside a string, so every joining comma is a
    structural one; with no "[" the wrapper is the only array, and a comma
    between members of an object must be followed by a string key, not by
    the "{" that starts the next element; so every joining comma separates
    two values of the wrapper, and n values from n elements put one value
    in each.
    """
    try:
        objs = json.loads(f"[{text}]")
    except (ValueError, RecursionError):
        return None
    return objs if len(objs) == n and set(map(type, objs)) <= {dict} else None


def _jsonl_object(text: str, row_no: int) -> dict:
    """The JSON object on a stripped, non-blank line; anything else raises."""
    # a ValueError: JSONDecodeError or an integer past the digit limit; a RecursionError: deep nesting
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"row {row_no}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("selections", {}), dict):
        raise DataError(f"row {row_no}: expected a JSON object whose selections are an object")
    return obj


def _check_jsonl_record(obj: dict, row_no: int, labels: list[str]):
    """A JSONL record's call_id, arm, platform, rating and cells in the order
    of the catalog's `labels`, or its first error."""
    for key in _JSONL_KEYS:
        if key not in obj:
            raise SchemaError(f"row {row_no}: missing key {key!r}")
    if obj["arm"] not in ARMS:
        raise DataError(f"row {row_no}: unknown arm {obj['arm']!r}")
    rating = obj.get("rating")
    rating = 0 if rating is None else _parse_rating(str(rating), row_no)
    selections = obj["selections"]
    cells = list(map(selections.get, labels))
    # type check first: True == 1 and 1.0 == 1, but neither is a 0/1 cell
    if len(selections) != len(labels) or set(map(type, cells)) != {int} or not {0, 1}.issuperset(cells):
        label_set = set(labels)
        for lab, val in selections.items():
            if lab not in label_set:
                raise SchemaError(f"row {row_no}: unknown token label {lab!r}")
            if type(val) is not int or val not in (0, 1):
                raise DataError(f"row {row_no}: token cell for {lab!r} must be 0 or 1, got {val!r}")
        # every key is a label with a 0/1 cell, so some label has no key
        raise SchemaError(f"row {row_no}: missing token keys {sorted(label_set - set(selections))}")
    return str(obj["call_id"]), obj["arm"], str(obj["platform"]), rating, cells


# -- canonical writers ------------------------------------------------


def _csv_line_end(*texts) -> str:
    # csv quotes a field only for the characters of its line terminator, and an
    # unquoted "\r" reads back as a line break: text holding one gets "\r\n" line ends
    return "\r\n" if any("\r" in text for t in texts for text in t) else "\n"


# An arm's text, indexed by its code, and a rating's, indexed by the stored
# rating (0 for unrated): object arrays, so that one gather gives a chunk's strs.
_CSV_ARM_TEXT = np.array(ARMS, object)
_CSV_RATING_TEXT = np.array(list(_CSV_RATINGS), object)
_JSON_ARM_TEXT = np.array(list(map(encode_basestring, ARMS)), object)
_JSON_RATING_TEXT = np.array(list(map(json.dumps, _JSON_RATINGS)), object)


def _record_chunks(dataset: Dataset) -> Iterator[tuple]:
    """call_ids, arm codes, platforms, ratings and selections of _CHUNK_ROWS records at a time."""
    for lo in range(0, len(dataset), _CHUNK_ROWS):
        hi = lo + _CHUNK_ROWS
        yield (
            dataset._call_ids.slice(lo, hi), dataset._arm_codes[lo:hi],
            dataset._platforms.slice(lo, hi), dataset.ratings[lo:hi], dataset.selections[lo:hi],
        )


def _write_csv(dataset: Dataset, fh) -> None:
    labels = dataset.catalog.labels
    end = _csv_line_end(labels, (dataset._call_ids.text, dataset._platforms.text))
    writer = csv.writer(fh, lineterminator=end)
    writer.writerow([*BASE_COLUMNS, *labels])
    tail = _Tail([","] * len(labels) + [end], list(range(len(labels))))
    for call_ids, arms, platforms, ratings, cells in _record_chunks(dataset):
        arms, ratings = _CSV_ARM_TEXT[arms].tolist(), _CSV_RATING_TEXT[ratings].tolist()
        heads = [f"{c},{a},{p},{r}" for c, a, p, r in zip(call_ids, arms, platforms, ratings)]
        text = "".join(heads)
        # a chunk where some call id or platform holds a comma, a quote, a line
        # break or a NUL goes through csv.writer, which quotes such fields
        if text.count(",") == 3 * len(heads) and not any(map(text.__contains__, '"\r\n\0')):
            fh.write(tail.lines(heads, cells))
        else:
            writer.writerows(zip(call_ids, arms, platforms, ratings, *cells.T.tolist()))


def _write_jsonl(dataset: Dataset, fh) -> None:
    tail, enc = _jsonl_tail(dataset.catalog.labels, dataset.catalog), encode_basestring
    for call_ids, arms, platforms, ratings, cells in _record_chunks(dataset):
        arms, ratings = _JSON_ARM_TEXT[arms].tolist(), _JSON_RATING_TEXT[ratings].tolist()
        # the members as JSONEncoder(ensure_ascii=False) writes them, in this order
        heads = [
            f'{{"call_id": {enc(c)}, "arm": {a}, "platform": {enc(p)}, "rating": {r}'
            for c, a, p, r in zip(call_ids, arms, platforms, ratings)
        ]
        fh.write(tail.lines(heads, cells))


_WRITERS = {"csv": _write_csv, "jsonl": _write_jsonl}


def save_dataset(dataset: Dataset, path, format: str = "csv") -> None:
    """Write a dataset in canonical form, a chunk of records at a time; loading
    the result reproduces it byte-for-byte. A call id or platform that UTF-8
    cannot encode raises DataError before the file is opened."""
    if format not in _WRITERS:
        raise ParameterError(f"unknown format {format!r}")
    # a lone surrogate (a JSON "\ud800" escape loads as one) is refused before the
    # file is opened; an ASCII column holds none, so it is not scanned
    found = [
        (int(np.searchsorted(column.ends, bad.start(), side="right")), name)
        for name, column in (("call_id", dataset._call_ids), ("platform", dataset._platforms))
        if not column.text.isascii() and (bad := _SURROGATE.search(column.text))
    ]
    if found:
        record, name = min(found)
        raise DataError(f"{name} that UTF-8 cannot encode at record {record}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _WRITERS[format](dataset, fh)
