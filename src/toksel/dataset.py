"""Survey-response data model, CSV/JSONL ingestion, and poor-call labeling.

A dataset couples a token catalog (the survey's checkbox questions) with
per-call response records. Calls rated 1 or 2 stars are labeled "poor";
that binary label is what every downstream statistic conditions on.
Records without a star rating are kept for response-rate analysis but
carry no poor-call label.

A Dataset holds no Python object per record. Ratings and token cells
are numpy arrays; arms are uint8 codes into ARMS; call ids and
platforms are `StringColumn`s, each all its values as one joined str
plus an int64 array of end offsets. The tuples `Dataset.call_ids`,
`.arms` and `.platforms` are built on first access, and no stage reads
them: the loaders append each chunk to the columns and drop its
strings, the writers read one chunk's slice at a time, and
`filter_dataset` takes rows of the columns.

A line as `save_dataset` writes it is a head (call_id, arm, platform
and rating) and a tail whose text depends only on the catalog:
",c,c,...,c" and the line end in CSV, ', "selections": {"<label>": c,
...}}' and "\n" in JSONL (labels in the first record's order). One
template, `_Tail`, both writes and checks the tails, a chunk of lines
at a time.

Files are written in chunks of records: each head by string formatting,
and the chunk's tails by one fill of the template. A CSV chunk whose
call ids or platforms need quoting goes through csv.writer instead.

Files are read in chunks of lines of about 256 KiB of text (`_CHUNK_TEXT`
characters), so that a chunk of wide lines holds no more than one of
narrow ones; each chunk is read in one of two ways. When every line of
a chunk ends in the tail with 0 or 1 in each cell, the cells are read by
array compares and only each line's head is parsed. In CSV, when no
head holds a quote or a NUL, the heads are read by position from their
text's UTF-32 code units, at their three commas: the call ids and
platforms as one joined text each, the arms and ratings as codes, with
no str per field. In JSONL, head + "}" is decoded by one batched
`json.loads`. Any other chunk is read row by row, and each row goes
through the row check that names its first error (`_check_csv_row`,
`_check_jsonl_record`): the first CSV chunk that fails hands itself and
the rest of the file to csv.reader, since a quoted field may hold a line
break, and its rows are then taken _CHUNK_ROWS at a time; a JSONL chunk
is decoded line by line by `_jsonl_objects`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import mmap
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from json.encoder import encode_basestring
from operator import getitem, index, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DataError, ParameterError, SchemaError

ARMS = ("control", "treatment", "none")
PANELS = ("audio", "video")

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


@dataclass(frozen=True)
class ResponseRecord:
    """One call's survey outcome."""

    call_id: str
    arm: str
    platform: str
    rating: Optional[int]  # 1..5 or None
    selections: tuple[int, ...]  # 0/1 per catalog token

    @property
    def responded(self) -> bool:
        return any(self.selections)


def label_pc(rating: Optional[int]) -> Optional[int]:
    """Poor-call indicator: 1 for ratings 1-2, 0 for 3-5, None when unrated."""
    if rating is None:
        return None
    return 1 if rating <= 2 else 0


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


class Dataset:
    """Immutable collection of response records plus derived poor-call labels.

    Stored columnar for fast counting: ratings and token cells as numpy
    arrays, call ids and platforms as `StringColumn`s, arms as uint8
    codes into ARMS. The tuples `call_ids`, `arms` and `platforms` and
    the record view of `records()` are built on access; no stage reads
    them. Ratings use 0 internally for "absent", poor-call labels use -1.
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
        """`call_ids` and `platforms` are sequences of values stored as str, or
        `StringColumn`s, shared as given; `arms` are arm names, or their uint8
        codes into ARMS."""
        call_ids, platforms = _string_column(call_ids), _string_column(platforms)
        n = len(call_ids)
        ratings = np.asarray(ratings, dtype=np.int16)
        selections = np.asarray(selections, dtype=np.uint8)
        if ratings.shape != (n,):
            raise DataError("ratings length must match record count")
        if len(arms) != n:
            raise DataError("arms length must match record count")
        if len(platforms) != n:
            raise DataError("platforms length must match record count")
        if selections.shape != (n, len(catalog)):
            raise DataError(
                f"selections must be (n_records, {len(catalog)}), got {selections.shape}"
            )
        bad = np.flatnonzero((ratings < 0) | (ratings > 5))
        if bad.size:
            raise DataError(f"rating outside 1-5 at record {bad[0]}")
        if selections.size and selections.max() > 1:
            raise DataError("selection cells must be 0 or 1")

        self._catalog = catalog
        self._call_ids = call_ids
        self._arm_codes = _arm_codes(arms)
        self._platforms = platforms
        self._ratings = ratings
        self._selections = selections
        pc = np.full(n, -1, dtype=np.int8)
        rated = ratings > 0
        pc[rated] = (ratings[rated] <= 2).astype(np.int8)
        self._pc = pc
        for arr in (self._arm_codes, self._ratings, self._selections, self._pc):
            arr.setflags(write=False)

    @classmethod
    def from_records(cls, catalog: TokenCatalog, records: Sequence[ResponseRecord]) -> "Dataset":
        n = len(records)
        sel = np.zeros((n, len(catalog)), dtype=np.uint8)
        ratings = np.zeros(n, dtype=np.int16)
        for i, rec in enumerate(records):
            if len(rec.selections) != len(catalog):
                raise DataError(f"record {i}: selections length {len(rec.selections)} != catalog size {len(catalog)}")
            sel[i] = rec.selections
            ratings[i] = 0 if rec.rating is None else rec.rating
        return cls(
            catalog,
            [r.call_id for r in records],
            [r.arm for r in records],
            [r.platform for r in records],
            ratings,
            sel,
        )

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

    @property
    def pc_labels(self) -> np.ndarray:
        """int8 vector aligned with records: 1 poor, 0 not poor, -1 unrated."""
        return self._pc

    @property
    def responded(self) -> np.ndarray:
        return self._selections.any(axis=1)

    @cached_property
    def rated_mask(self) -> np.ndarray:
        return self._ratings > 0

    @cached_property
    def rated_selections(self) -> np.ndarray:
        """Selection rows of rated records (uint8)."""
        return self._selections[self.rated_mask]

    @cached_property
    def rated_pc(self) -> np.ndarray:
        return (self._pc[self.rated_mask] == 1).astype(np.int64)

    @cached_property
    def cooccurrence(self) -> np.ndarray:
        """Records selecting both of two tokens, as float64 sums over row chunks: exact below 2^53."""
        out = np.zeros((self._selections.shape[1],) * 2)
        for start in range(0, len(self), _CHUNK_ROWS):
            sel = self._selections[start:start + _CHUNK_ROWS].astype(np.float64)
            out += sel.T @ sel
        return out

    @cached_property
    def patterns(self) -> "PatternTable":
        """The rated records compressed to their distinct token rows, with label counts."""
        sel = self._selections[self.rated_mask]
        inverse, rows = distinct_rows(sel, range(sel.shape[1]))
        counts = np.bincount(inverse * 2 + self.rated_pc, minlength=2 * len(rows))
        return PatternTable(rows, counts.reshape(-1, 2), inverse)

    def __len__(self) -> int:
        return self._ratings.shape[0]

    def record(self, i: int) -> ResponseRecord:
        i = range(len(self))[i]
        rating = int(self._ratings[i])
        return ResponseRecord(
            call_id=self._call_ids.slice(i, i + 1)[0],
            arm=ARMS[self._arm_codes[i]],
            platform=self._platforms.slice(i, i + 1)[0],
            rating=rating if rating else None,
            selections=tuple(int(v) for v in self._selections[i]),
        )

    def records(self) -> list[ResponseRecord]:
        return list(self)

    def __iter__(self) -> Iterator[ResponseRecord]:
        for call_ids, arms, platforms, ratings, cells in _record_chunks(self):
            for c, a, p, r, s in zip(call_ids, arms.tolist(), platforms, ratings.tolist(), cells.tolist()):
                yield ResponseRecord(call_id=c, arm=ARMS[a], platform=p, rating=r or None, selections=tuple(s))


@dataclass(frozen=True)
class PatternTable:
    """Distinct token rows of a dataset's rated records, with poor-call counts.

    Every plug-in statistic conditioned on the poor-call label depends on
    the records only through these counts. Rows come in the order
    `cell_ids` numbers the cells of the whole catalog: increasing as
    binary numbers with token 0 least significant.
    """

    rows: np.ndarray  # (n_patterns, n_tokens) uint8, each distinct rated token row once
    counts: np.ndarray  # (n_patterns, 2) int64: rated records per row that are (not poor, poor)
    row_of_record: np.ndarray  # (n_rated,) int64: pattern index of each rated record

    def __post_init__(self):
        for arr in (self.rows, self.counts, self.row_of_record):
            arr.setflags(write=False)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def token_ids(subset: Sequence[int]) -> list[int]:
    """Token ids as ints: Python or numpy integers; a float or a string
    raises ParameterError rather than being truncated or parsed."""
    ids = []
    for t in subset:
        try:
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


def _compact(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, int]:
    """Keys in 0..n_keys-1 renumbered 0..n-1 in increasing order over the n
    keys that occur: one bincount and a cumsum, no sort."""
    occupied = np.bincount(keys, minlength=n_keys) > 0
    ranks = np.cumsum(occupied) - 1
    return ranks[keys], int(np.count_nonzero(occupied))


def cell_ids(rows: np.ndarray, subset: Sequence[int]) -> tuple[np.ndarray, int]:
    """Cell of each row under a token subset, and the number of cells.

    Rows share a cell exactly when they agree on every column in
    `subset`. Ids run 0..n_cells-1 in increasing order of the rows'
    subset values read as a binary number, Σ row[subset[j]] * 2^j, so
    subset[0] is the least significant bit. Any subset width works: the
    columns are folded in from the last, and the keys are renumbered
    whenever their range passes twice the row count, so no bincount
    takes more than four bins per row.
    """
    keys, n_keys = np.zeros(rows.shape[0], dtype=np.int64), 1
    for t in reversed(list(subset)):
        keys *= 2
        keys += rows[:, t]
        n_keys *= 2
        if n_keys > 2 * rows.shape[0]:
            keys, n_keys = _compact(keys, n_keys)
    return _compact(keys, n_keys)


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
    return Dataset(
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


def load_dataset(path, format: str = "csv", catalog: Optional[TokenCatalog] = None) -> Dataset:
    """Load a dataset from a CSV or JSONL file.

    Token columns are matched by name against `catalog` when given
    (catalog order defines token ids); otherwise the catalog is derived
    from the file itself. Rows without a rating are retained; they are
    excluded from any poor-call-conditioned statistic downstream.
    """
    loaders = {"csv": _load_csv, "jsonl": _load_jsonl}
    if format not in loaders:
        raise ParameterError(f"unknown format {format!r}")
    with _text_errors(path):
        return loaders[format](path, catalog)


@contextmanager
def _text_errors(path):
    """Report a file that is not UTF-8 text, or not parseable as CSV, as a DataError."""
    try:
        yield
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None


# Records written, column values joined, or rows that csv.reader parses, at a time.
_CHUNK_ROWS = 4096
# Characters of file lines read, checked and converted at a time: one chunk's
# lines and what they parse into are alive at once, so a bound in text, not in
# lines, bounds them whatever the width of a line.
_CHUNK_TEXT = 1 << 18

# Rating cells as written. Other text that int() reads (" 3", "+3") is valid
# too: its chunk goes through the row check.
_CSV_RATINGS = {"": 0, "1": 1, "2": 2, "3": 3, "4": 4, "5": 5}
# Looked up after a type check: True == 1 and 1.0 == 1, but neither is a rating.
_JSON_RATINGS = {None: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
_JSONL_KEYS = ("call_id", "arm", "platform", "selections")


class _Buffer:
    """An array grown a chunk of rows at a time, into spare capacity that
    doubles when full; `array` is a view of the rows appended.

    Chunks are not kept to be joined at the end: kept, each chunk's arrays
    sit in the C heap between the next chunks' short-lived objects, and
    once joined and freed they leave holes that the allocator keeps
    resident. Each capacity is an anonymous memory mapping of its own
    instead: one that a doubling frees goes back to the system whole,
    and pages past the rows appended are never touched.
    """

    def __init__(self):
        self.data, self.size = None, 0

    def append(self, chunk: np.ndarray) -> None:
        end = self.size + len(chunk)
        if self.data is None or end > len(self.data):
            shape = (max(end, 2 * self.size, _CHUNK_ROWS), *chunk.shape[1:])
            mapping = mmap.mmap(-1, math.prod(shape) * chunk.itemsize)
            grown = np.frombuffer(mapping, chunk.dtype, math.prod(shape)).reshape(shape)
            if self.size:
                grown[:self.size] = self.data[:self.size]
            self.data = grown
        self.data[self.size:end] = chunk
        self.size = end

    def array(self, empty: np.ndarray) -> np.ndarray:
        """The rows appended, or `empty` if no chunk was."""
        return empty if self.data is None else self.data[:self.size]


class _TextBuffer:
    """A string column grown a chunk of values at a time: its text as UTF-8
    bytes ("surrogatepass" keeps lone surrogates), and its ends in characters."""

    def __init__(self):
        self.utf8, self.ends, self.chars = _Buffer(), _Buffer(), 0

    def append(self, values) -> None:
        chunk = _string_column(values)
        self.utf8.append(np.frombuffer(chunk.text.encode("utf-8", "surrogatepass"), np.uint8))
        self.ends.append(chunk.ends + self.chars)
        self.chars += len(chunk.text)

    def column(self) -> StringColumn:
        """The column; the UTF-8 bytes are freed once decoded."""
        utf8, self.utf8 = self.utf8.array(np.zeros(0, np.uint8)), None
        return StringColumn(str(memoryview(utf8), "utf-8", "surrogatepass"), self.ends.array(np.zeros(0, np.int64)))


class _Columns:
    """A file's columns, filled chunk by chunk; each chunk's strings are
    dropped once they are appended to the compact columns."""

    def __init__(self):
        self.call_ids, self.platforms = _TextBuffer(), _TextBuffer()
        self.arms, self.ratings, self.cells = _Buffer(), _Buffer(), _Buffer()

    def add(self, call_ids, arms, platforms, ratings, cells) -> None:
        """Append a chunk: its arms as names, or as their uint8 codes into ARMS."""
        self.call_ids.append(call_ids)
        self.arms.append(_arm_codes(arms))
        self.platforms.append(platforms)
        self.ratings.append(np.asarray(ratings, np.int16))
        self.cells.append(np.asarray(cells, np.uint8))

    def dataset(self, catalog: TokenCatalog) -> Dataset:
        return Dataset(
            catalog,
            self.call_ids.column(),
            self.arms.array(np.zeros(0, np.uint8)),
            self.platforms.column(),
            self.ratings.array(np.zeros(0, np.int16)),
            self.cells.array(np.zeros((0, len(catalog)), np.uint8)),
        )


def _load_csv(path, catalog: Optional[TokenCatalog]) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty file: missing header")
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

        columns, row_no = _Columns(), 2
        chunks = _chunks(fh, _CHUNK_TEXT, len)  # the lines after the header
        for lines in chunks:
            got = _csv_tail_chunk(lines, tails["\r\n" if lines[0].endswith("\r\n") else "\n"])
            if got is None:
                # a quoted field may hold a line break and run on into the next chunk:
                # from the first chunk that fails the tail guard, csv reads the rest of the file;
                # its rows are counted, as each field is a str object far larger than its text
                rows = csv.reader(chain(lines, chain.from_iterable(chunks)))
                for chunk in _chunks(rows, _CHUNK_ROWS, lambda row: 1):
                    numbered = enumerate(chunk, row_no)
                    columns.add(*zip(*(_check_csv_row(row, n, labels, col_order) for n, row in numbered)))
                    row_no += len(chunk)
                break
            columns.add(*got)
            row_no += len(lines)
    return columns.dataset(cat)


def _chunks(items, budget: int, size) -> Iterator[list]:
    """The lines of a file, or the rows of a csv reader, in chunks whose sizes,
    as `size` gives each item's, add up to `budget`.

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
    `split` reads the cells of a chunk of lines with vector compares
    against it, as simdjson finds a JSON text's structure (Langdale &
    Lemire, "Parsing Gigabytes of JSON per Second", VLDB J. 2019),
    leaving each line's head to the loader. A tail with text other than
    ASCII is written but never matches.
    """

    def __init__(self, parts: list[str], col_order: list[int]):
        text = "0".join(parts)
        self.width = len(text)  # in characters
        self.template = np.frombuffer(text.encode(), np.uint8)
        slots = np.cumsum([len(part.encode()) + 1 for part in parts[:-1]]) - 1
        self.slots = slots[col_order]  # the cells' byte offsets, in catalog order
        self.fixed = np.ones(self.template.size, bool)
        self.fixed[slots] = False
        self.text = self.template[self.fixed] if text.isascii() else None

    def lines(self, heads: list[str], cells: np.ndarray) -> str:
        """The text of the lines `heads[i]` + the tail holding the catalog-ordered
        0/1 cells `cells[i]`: the tails filled as one array, decoded once and cut
        at the tail's width, which is the same for every line."""
        grid = np.empty((len(heads), self.template.size), np.uint8)
        grid[:] = self.template
        grid[:, self.slots] += cells
        tails, w = grid.tobytes().decode(), self.width
        return "".join([head + tails[i:i + w] for i, head in zip(range(0, len(tails), w), heads)])

    def split(self, lines: list[str]) -> Optional[tuple[list[str], np.ndarray]]:
        """Each line's head, the line without its last `width` characters, and the
        (n, k) catalog-ordered cells in its tail; None unless every line ends
        in the tail with "0" or "1" in each cell."""
        if self.text is None:
            return None
        n, w = len(lines), self.width
        tails = "".join(map(getitem, lines, repeat(slice(-w, None))))
        data = tails.encode()
        # n * w characters: no line is shorter than the tail; as many bytes: all are ASCII
        if len(tails) != n * w or len(data) != n * w:
            return None
        grid = np.frombuffer(data, np.uint8).reshape(n, w)
        cells = grid[:, self.slots] - np.uint8(ord("0"))
        if (cells > 1).any() or not (grid[:, self.fixed] == self.text).all():
            return None
        return list(map(getitem, lines, repeat(slice(None, -w)))), cells


def _csv_tail_chunk(lines: list[str], tail: _Tail):
    """call_id, arm code, platform, rating and catalog-ordered cell columns of
    CSV lines that each end in `tail`, or None when a guard fails.

    The guards leave csv.reader nothing to do but split each head at its
    three commas: no head holds a quote or a NUL (which csv refuses before
    Python 3.11), and none is longer than csv's field size limit. No head
    holds a carriage return or a line feed, since a file read with
    newline="" ends a line at either. The heads are read by position from
    their text's UTF-32 code units, in which positions count characters:
    the call ids and platforms as joined text, the arms and ratings as
    codes. Each arm and rating must be text `_check_csv_row` accepts
    unchanged, as `save_dataset` writes it.
    """
    split = tail.split(lines)
    if split is None:
        return None
    heads, cells = split
    text = "\n".join(heads)
    if '"' in text or "\0" in text:
        return None
    # commas counted per head, as the commas before each line end: 3 per line in
    # total can hide a head of 2 commas beside one of 4
    data = np.frombuffer(f"{text}\n".encode("utf-32-le"), np.uint32)
    ends = np.flatnonzero(data == ord("\n"))
    comma_at = np.flatnonzero(data == ord(","))
    commas = np.searchsorted(comma_at, ends)
    if (np.diff(commas, prepend=0) != 3).any() or np.diff(ends, prepend=-1).max() > csv.field_size_limit():
        return None
    # a head's fields lie between its start, its three commas and its end
    starts = np.concatenate([np.zeros(1, np.int64), ends[:-1] + 1])
    first, second, third = comma_at.reshape(-1, 3).T
    arms = _field_codes(data, first + 1, second, ARMS)
    ratings = _field_codes(data, third + 1, ends, list(_CSV_RATINGS))  # a rating's index is its value
    if arms is None or ratings is None:
        return None
    call_ids, platforms = _fields(data, starts, first), _fields(data, second + 1, third)
    return call_ids, arms.astype(np.uint8), platforms, ratings.astype(np.int16), cells


def _fields(data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> StringColumn:
    """The column of the texts at code units lo[i]..hi[i]-1 of the UTF-32 `data`."""
    lengths = hi - lo
    ends = np.cumsum(lengths)
    # each field's code units, gathered at their offsets from its place in the joined text
    at = np.arange(ends[-1]) + np.repeat(lo - (ends - lengths), lengths)
    return StringColumn(data[at].tobytes().decode("utf-32-le"), ends)


def _field_codes(data: np.ndarray, lo: np.ndarray, hi: np.ndarray, texts: Sequence[str]) -> Optional[np.ndarray]:
    """For each field at code units lo[i]..hi[i]-1 of the UTF-32 `data`, the
    index of its text in `texts`; None if some field holds none of them."""
    lengths = hi - lo
    codes = np.full(lengths.size, len(texts))
    for code, value in enumerate(texts):
        rows = np.flatnonzero(lengths == len(value))
        units = data[lo[rows, None] + np.arange(len(value))]
        codes[rows[(units == np.frombuffer(value.encode("utf-32-le"), np.uint32)).all(axis=1)]] = code
    return None if (codes == len(texts)).any() else codes


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


def _load_jsonl(path, catalog: Optional[TokenCatalog]) -> Dataset:
    cat, tail, error, columns, first_row = None, None, None, _Columns(), 1
    with open(path, encoding="utf-8") as fh:
        for lines in _chunks(fh, _CHUNK_TEXT, len):
            if cat is None and error is None:
                labels = _first_labels(lines, first_row)
                if labels is not None:
                    try:
                        cat = _catalog_for_labels(labels, catalog)
                    except DataError as exc:
                        error = exc
                    else:
                        tail = _jsonl_tail(labels, cat)
            got = _jsonl_tail_chunk(lines, tail) if tail is not None else None
            if got is None:
                rows, objs = _jsonl_objects(lines, first_row)
            first_row += len(lines)
            # a line that is not a JSON object is reported before any record
            # error, so after one the rest of the file is only parsed
            if error is not None or (got is None and not objs):
                continue
            try:
                columns.add(*(got or zip(*map(_check_jsonl_record, objs, rows, repeat(cat.labels)))))
            except DataError as exc:
                error = exc
    if error is not None:
        raise error
    if cat is None:
        raise SchemaError("empty file: no records")
    return columns.dataset(cat)


def _first_labels(lines: list[str], first_row: int) -> Optional[list[str]]:
    """The selections keys of the first record in `lines`, None if every line is blank.

    A first non-blank line that is not a JSON object raises its error,
    which is the first error `_jsonl_objects` would raise on the lines.
    """
    for row_no, line in enumerate(lines, first_row):
        if line.strip():
            return list(_jsonl_object(line.strip(), row_no).get("selections", {}))
    return None


def _jsonl_tail(labels: list[str], cat: TokenCatalog) -> _Tail:
    """The tail of a JSONL line whose selections hold `labels` in this order,
    as `save_dataset` writes it."""
    keys = [encode_basestring(label) + ": " for label in labels]
    parts = [', "selections": {' + keys[0], *[", " + key for key in keys[1:]], "}}\n"]
    return _Tail(parts, [labels.index(label) for label in cat.labels])


def _jsonl_tail_chunk(lines: list[str], tail: _Tail):
    """call_id, arm, platform, rating and catalog-ordered cell columns of JSONL
    lines that each end in `tail`, or None when a guard fails.

    The heads are decoded as head + "}" under `_decoded`'s guard, and
    each object must hold a call_id, an arm and a platform, so it has at
    least one member. Then the parser stands after a member value of the
    line's outermost object at the end of the head: so head + tail is that
    object with the tail's selections as one more member, which wins over a
    selections member of the head, as `json.loads` keeps the last value of
    a repeated key. The arms and ratings must be ones `_check_jsonl_record`
    accepts unchanged.
    """
    split = tail.split(lines)
    if split is None:
        return None
    heads, cells = split
    objs = _decoded(heads)
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


def _jsonl_objects(lines: list[str], first_row: int) -> tuple[list[int], list[dict]]:
    """Line numbers and objects of the non-blank lines of `lines`, numbered from
    `first_row`; the first line that is not a JSON object raises its error."""
    texts = list(map(str.strip, lines))
    rows = [row_no for row_no, text in enumerate(texts, first_row) if text]
    return rows, list(map(_jsonl_object, filter(None, texts), rows))


def _decoded(heads: list[str]) -> Optional[list[dict]]:
    """The JSON object each head + "}" (a text, below) holds, from one
    `json.loads` of "[" + ",\n".join(texts) + "]", which is "[" +
    "},\n".join(heads) + "}]"; None unless that shows each text holds
    exactly one object.

    It does when every text starts with "{", the joined text holds no "[",
    and the result is one object per text. Strict JSON has no raw line
    break inside a string, so every joining comma is a structural one; with
    no "[" the wrapper is the only array, and a comma between members of an
    object must be followed by a string key, not by the "{" that starts the
    next text; so every joining comma separates two values of the wrapper,
    and N values from N texts put one value in each text.
    """
    joined = "},\n".join(heads)
    if "[" in joined or not all(map(str.startswith, heads, repeat("{"))):
        return None
    try:
        objs = json.loads(f"[{joined}}}]")
    except (ValueError, RecursionError):
        return None
    return objs if len(objs) == len(heads) and set(map(type, objs)) <= {dict} else None


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


def dataset_to_csv_text(dataset: Dataset) -> str:
    """The text `save_dataset` writes in CSV."""
    buf = io.StringIO()
    _write_csv(dataset, buf)
    return buf.getvalue()


def dataset_to_jsonl_text(dataset: Dataset) -> str:
    """The text `save_dataset` writes in JSONL."""
    buf = io.StringIO()
    _write_jsonl(dataset, buf)
    return buf.getvalue()


def save_dataset(dataset: Dataset, path, format: str = "csv") -> None:
    """Write a dataset in canonical form, a chunk of records at a time; loading
    the result reproduces it byte-for-byte."""
    if format not in _WRITERS:
        raise ParameterError(f"unknown format {format!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _WRITERS[format](dataset, fh)
