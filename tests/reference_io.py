"""Row-by-row survey file loaders and writers, the reference for toksel.dataset's chunked ones.

These are the loaders and writers toksel shipped before its file I/O
worked in chunks: every cell is parsed or formatted on its own, in file
order. The chunked loaders, which read a chunk of lines from their tails
or row by row, must return an equal Dataset for every file, or raise the
same exception with the same message; the writers must write the same
text.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional

import numpy as np

from toksel.dataset import (
    ARMS,
    BASE_COLUMNS,
    Dataset,
    TokenCatalog,
    _catalog_for_labels,
    _csv_line_end,
    _text_errors,
)
from toksel.errors import DataError, ParameterError, SchemaError


def load_reference(path, format: str = "csv", catalog: Optional[TokenCatalog] = None) -> Dataset:
    loaders = {"csv": _load_csv, "jsonl": _load_jsonl}
    if format not in loaders:
        raise ParameterError(f"unknown format {format!r}")
    with _text_errors(path):
        return loaders[format](path, catalog)


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


def csv_text_reference(dataset: Dataset) -> str:
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


def jsonl_text_reference(dataset: Dataset) -> str:
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
