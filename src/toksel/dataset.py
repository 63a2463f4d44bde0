"""Survey-response data model, CSV/JSONL ingestion, and poor-call labeling.

A dataset couples a token catalog (the survey's checkbox questions) with
per-call response records. Calls rated 1 or 2 stars are labeled "poor";
that binary label is what every downstream statistic conditions on.
Records without a star rating are kept for response-rate analysis but
carry no poor-call label.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

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


class Dataset:
    """Immutable collection of response records plus derived poor-call labels.

    Stored columnar (numpy) for fast counting; `records()` materializes
    the record view. Ratings use 0 internally for "absent", poor-call
    labels use -1.
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
        n = len(call_ids)
        ratings = np.asarray(ratings, dtype=np.int16)
        selections = np.asarray(selections, dtype=np.uint8)
        if ratings.shape != (n,):
            raise DataError("ratings length must match record count")
        if selections.shape != (n, len(catalog)):
            raise DataError(
                f"selections must be (n_records, {len(catalog)}), got {selections.shape}"
            )
        bad = np.flatnonzero((ratings < 0) | (ratings > 5))
        if bad.size:
            raise DataError(f"rating outside 1-5 at record {bad[0]}")
        if selections.size and selections.max() > 1:
            raise DataError("selection cells must be 0 or 1")
        for arm in set(arms):
            if arm not in ARMS:
                raise SchemaError(f"unknown arm {arm!r}")

        self._catalog = catalog
        self._call_ids = tuple(str(c) for c in call_ids)
        self._arms = tuple(arms)
        self._platforms = tuple(platforms)
        self._ratings = ratings
        self._selections = selections
        pc = np.full(n, -1, dtype=np.int8)
        rated = ratings > 0
        pc[rated] = (ratings[rated] <= 2).astype(np.int8)
        self._pc = pc
        for arr in (self._ratings, self._selections, self._pc):
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

    @property
    def call_ids(self) -> tuple[str, ...]:
        return self._call_ids

    @property
    def arms(self) -> tuple[str, ...]:
        return self._arms

    @property
    def platforms(self) -> tuple[str, ...]:
        return self._platforms

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
        """Selection rows of rated records, as int64."""
        return self._selections[self.rated_mask].astype(np.int64)

    @cached_property
    def rated_pc(self) -> np.ndarray:
        return (self._pc[self.rated_mask] == 1).astype(np.int64)

    @cached_property
    def patterns(self) -> "PatternTable":
        """The rated records compressed to their distinct token rows, with label counts."""
        sel = self._selections[self.rated_mask]
        # one byte string per row: a void-view unique is far faster than unique(axis=0)
        packed = np.ascontiguousarray(np.packbits(sel, axis=1))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        inverse = inverse.reshape(-1).astype(np.int64)
        counts = np.bincount(inverse * 2 + self.rated_pc, minlength=2 * first.size)
        return PatternTable(sel[first], counts.reshape(-1, 2), inverse)

    def __len__(self) -> int:
        return len(self._call_ids)

    def record(self, i: int) -> ResponseRecord:
        rating = int(self._ratings[i])
        return ResponseRecord(
            call_id=self._call_ids[i],
            arm=self._arms[i],
            platform=self._platforms[i],
            rating=rating if rating else None,
            selections=tuple(int(v) for v in self._selections[i]),
        )

    def records(self) -> list[ResponseRecord]:
        return [self.record(i) for i in range(len(self))]

    def __iter__(self) -> Iterator[ResponseRecord]:
        return (self.record(i) for i in range(len(self)))


@dataclass(frozen=True)
class PatternTable:
    """Distinct token rows of a dataset's rated records, with poor-call counts.

    Every plug-in statistic conditioned on the poor-call label depends on
    the records only through these counts.
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


# Cells are keyed chunk by chunk so that the previous chunks' cell id,
# shifted left by the chunk width, and the chunk's packed bits fit in int64.
_KEY_CHUNK = 32


def cell_ids(rows: np.ndarray, subset: Sequence[int]) -> tuple[np.ndarray, int]:
    """Cell of each row under a token subset, and the number of cells.

    Rows share a cell exactly when they agree on every column in
    `subset`. Ids run 0..n_cells-1 in increasing order of the rows'
    subset values read as a binary number, with subset[j] as bit j of
    its 32-token chunk and earlier chunks more significant. Any subset
    width works: each chunk re-keys the cells found so far.
    """
    subset = list(subset)
    ids = np.zeros(rows.shape[0], dtype=np.int64)
    for start in range(0, len(subset), _KEY_CHUNK):
        chunk = subset[start:start + _KEY_CHUNK]
        weights = np.left_shift(1, np.arange(len(chunk), dtype=np.int64))
        code = rows[:, chunk].astype(np.int64) @ weights
        _, ids = np.unique((ids << _KEY_CHUNK) | code, return_inverse=True)
        ids = ids.reshape(-1)
    n_cells = int(ids.max()) + 1 if ids.size else 0
    return ids, n_cells


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
        keep &= np.array([a == arm for a in dataset.arms])
    if rated_only:
        keep &= dataset.rated_mask
    if responded_only:
        keep &= dataset.responded
    idx = np.flatnonzero(keep)
    return Dataset(
        dataset.catalog,
        [dataset.call_ids[i] for i in idx],
        [dataset.arms[i] for i in idx],
        [dataset.platforms[i] for i in idx],
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


def _parse_cell(text: str, row_no: int, label: str) -> int:
    if text == "0":
        return 0
    if text == "1":
        return 1
    raise DataError(f"row {row_no}: token cell for {label!r} must be 0 or 1, got {text!r}")


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

        call_ids: list[str] = []
        arms: list[str] = []
        platforms: list[str] = []
        ratings: list[int] = []
        rows: list[list[int]] = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"row {row_no}: expected {len(header)} columns, got {len(row)}")
            call_ids.append(row[0])
            if row[1] not in ARMS:
                raise DataError(f"row {row_no}: unknown arm {row[1]!r}")
            arms.append(row[1])
            platforms.append(row[2])
            ratings.append(_parse_rating(row[3], row_no))
            cells = row[len(BASE_COLUMNS):]
            rows.append([_parse_cell(cells[j], row_no, labels[j]) for j in col_order])

    sel = np.array(rows, dtype=np.uint8) if rows else np.zeros((0, len(cat)), dtype=np.uint8)
    return Dataset(cat, call_ids, arms, platforms, np.array(ratings, dtype=np.int16), sel)


def _load_jsonl(path, catalog: Optional[TokenCatalog]) -> Dataset:
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"row {row_no}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or not isinstance(obj.get("selections", {}), dict):
                raise DataError(f"row {row_no}: expected a JSON object whose selections are an object")
            records.append(obj)
            obj["_row"] = row_no

    if not records:
        raise SchemaError("empty file: no records")
    labels = list(records[0].get("selections", {}).keys())
    cat = _catalog_for_labels(labels, catalog)
    label_set = set(cat.labels)

    call_ids, arms, platforms, ratings = [], [], [], []
    sel = np.zeros((len(records), len(cat)), dtype=np.uint8)
    for i, obj in enumerate(records):
        row_no = obj["_row"]
        for key in ("call_id", "arm", "platform", "selections"):
            if key not in obj:
                raise SchemaError(f"row {row_no}: missing key {key!r}")
        if obj["arm"] not in ARMS:
            raise DataError(f"row {row_no}: unknown arm {obj['arm']!r}")
        call_ids.append(str(obj["call_id"]))
        arms.append(obj["arm"])
        platforms.append(str(obj["platform"]))
        rating = obj.get("rating")
        if rating is None:
            ratings.append(0)
        else:
            ratings.append(_parse_rating(str(rating), row_no))
        for lab, val in obj["selections"].items():
            if lab not in label_set:
                raise SchemaError(f"row {row_no}: unknown token label {lab!r}")
            # type check first: True == 1 and 1.0 == 1, but neither is a 0/1 cell
            if type(val) is not int or val not in (0, 1):
                raise DataError(f"row {row_no}: token cell for {lab!r} must be 0 or 1, got {val!r}")
            sel[i, cat.id_of(lab)] = val
        if len(obj["selections"]) != len(cat):
            missing = sorted(label_set - set(obj["selections"]))
            raise SchemaError(f"row {row_no}: missing token keys {missing}")

    return Dataset(cat, call_ids, arms, platforms, np.array(ratings, dtype=np.int16), sel)


# -- canonical writers ------------------------------------------------


def _csv_line_end(fields) -> str:
    # csv quotes a field only for the characters of its line terminator, and an
    # unquoted "\r" reads back as a line break: text holding one gets "\r\n" line ends
    return "\r\n" if any("\r" in f for f in fields) else "\n"


def dataset_to_csv_text(dataset: Dataset) -> str:
    buf = io.StringIO()
    labels = dataset.catalog.labels
    text_fields = [*labels, *dataset.call_ids, *dataset.platforms]
    writer = csv.writer(buf, lineterminator=_csv_line_end(text_fields))
    writer.writerow(list(BASE_COLUMNS) + labels)
    ratings = dataset.ratings
    sel = dataset.selections
    for i in range(len(dataset)):
        rating = str(ratings[i]) if ratings[i] else ""
        writer.writerow(
            [dataset.call_ids[i], dataset.arms[i], dataset.platforms[i], rating]
            + [str(v) for v in sel[i]]
        )
    return buf.getvalue()


def dataset_to_jsonl_text(dataset: Dataset) -> str:
    labels = dataset.catalog.labels
    lines = []
    for i in range(len(dataset)):
        rating = int(dataset.ratings[i])
        obj = {
            "call_id": dataset.call_ids[i],
            "arm": dataset.arms[i],
            "platform": dataset.platforms[i],
            "rating": rating if rating else None,
            "selections": {lab: int(v) for lab, v in zip(labels, dataset.selections[i])},
        }
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(lines) + "\n" if lines else ""


def save_dataset(dataset: Dataset, path, format: str = "csv") -> None:
    """Write a dataset in canonical form; loading the result reproduces it byte-for-byte."""
    if format == "csv":
        text = dataset_to_csv_text(dataset)
    elif format == "jsonl":
        text = dataset_to_jsonl_text(dataset)
    else:
        raise ParameterError(f"unknown format {format!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
