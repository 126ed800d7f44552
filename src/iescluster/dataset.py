"""CSV dataset ingestion: observations in rows, features in columns, with an
optional ground-truth label column."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDataError


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with optional per-row labels, row order preserved."""

    features: np.ndarray
    labels: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None
    label_name: str | None = None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]


def _coerce_labels(raw: list[str]) -> np.ndarray:
    """Keep labels as ints when every value parses as one, else as floats
    when every value parses as a finite one (so ``1`` and ``1.0`` are one
    label, and ``2`` sorts before ``10``), else as strings."""
    try:
        ints = [int(v) for v in raw]
    except ValueError:
        pass
    else:
        # numpy makes float64 of a mix of int64- and uint64-only values.
        values = np.array(ints)
        return values if values.dtype.kind in "iu" else np.array(ints, dtype=object)
    try:
        values = np.array([float(v) for v in raw])
    except ValueError:
        return np.array(raw, dtype=object)
    return values if np.all(np.isfinite(values)) else np.array(raw, dtype=object)


def load_dataset(path, label_column=None, has_header: bool = False) -> Dataset:
    """Parse a rectangular numeric UTF-8 CSV, splitting off an optional label column.

    ``label_column`` may be a 0-based column index or, with a header, a column
    name (a name implies ``has_header``). Blank lines are skipped. Ragged rows
    (a header of another width too) and non-numeric or non-finite feature
    cells raise errors naming the offending line of the file.

    Two parsers read the file. A fast one converts the feature cells with
    numpy's C parser (``np.loadtxt``), and takes only a file without quote
    characters, NULs or lone carriage returns, with the same comma count on
    every non-blank line, and with every feature cell a finite number that
    ``np.loadtxt`` reads. Any other file goes to the exact parser, csv.reader
    and ``float`` cell by cell, which names the bad line. Both give the same
    Dataset, bit for bit, on every file the fast one takes.
    """
    dataset = _load_fast(path, label_column, has_header)
    return dataset if dataset is not None else _load_exact(path, label_column, has_header)


def _load_fast(path, label_column, has_header: bool) -> Dataset | None:
    """``load_dataset`` through ``np.loadtxt``, or None for a file whose
    Dataset it cannot vouch for equals the exact parser's. Raises only the
    label-column errors the exact parser raises on the same file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    # csv.reader reads a quoted cell its own way, ends a line at a lone \r,
    # and before Python 3.11 rejects a NUL.
    if '"' in text or "\x00" in text or text.count("\r") != text.count("\r\n"):
        return None
    # A line's \r is its last character, which strip() drops and loadtxt
    # reads as the line's end.
    lines = [line for line in text.split("\n") if line.replace(",", "").strip()]
    del text
    # A longer cell is a csv.Error in csv.reader.
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    width = lines[0].count(",") + 1
    if any(line.count(",") != width - 1 for line in lines):
        return None
    header = None
    if has_header or _by_name(label_column):
        header = [cell.strip() for cell in lines[0].split(",")]
        lines = lines[1:]
        if not lines:
            return None
    label_idx, feature_cols = _columns(path, header, width, label_column)
    try:
        # comments=None: the default "#" would skip lines the exact parser rejects.
        features = np.loadtxt(
            lines, delimiter=",", comments=None, quotechar=None,
            usecols=feature_cols, ndmin=2,
        )
    except ValueError:
        return None
    if not np.isfinite(features).all():
        return None
    raw_labels = [] if label_idx is None else [_cell(line, label_idx, width).strip() for line in lines]
    return _dataset(features, raw_labels, header, label_idx, feature_cols)


def _cell(line: str, j: int, width: int) -> str:
    """Cell ``j`` of a line of ``width`` comma-separated cells, split off
    from the nearer end."""
    if j < width // 2:
        return line.split(",", j + 1)[j]
    return line.rsplit(",", width - j)[1]


def _load_exact(path, label_column=None, has_header: bool = False) -> Dataset:
    """``load_dataset`` through csv.reader and ``float``, cell by cell: the
    fallback for any file the fast parser refuses, and its oracle."""
    # Each kept row's line in the file (a quoted multi-line record's last).
    rows, lines = [], []
    try:
        # utf-8-sig drops the byte-order mark of Excel's "CSV UTF-8" export.
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if any(cell.strip() for cell in row):
                    rows.append(row)
                    lines.append(reader.line_num)
    except UnicodeDecodeError as err:
        raise InvalidDataError(f"{path}: not UTF-8 text: {err}") from err
    except csv.Error as err:  # a cell longer than csv.field_size_limit()
        raise InvalidDataError(f"{path}: line {reader.line_num}: {err}") from err
    if not rows:
        raise InvalidDataError(f"{path}: empty file")

    width = len(rows[0])
    for row, line in zip(rows, lines):
        if len(row) != width:
            raise InvalidDataError(
                f"{path}: line {line}: expected {width} columns, got {len(row)}"
            )

    header = None
    if has_header or _by_name(label_column):
        header = [cell.strip() for cell in rows[0]]
        rows, lines = rows[1:], lines[1:]
        if not rows:
            raise InvalidDataError(f"{path}: no data rows after header")

    label_idx, feature_cols = _columns(path, header, width, label_column)
    features = np.empty((len(rows), len(feature_cols)))
    raw_labels: list[str] = []
    for i, (row, line) in enumerate(zip(rows, lines)):
        for out_j, j in enumerate(feature_cols):
            cell = row[j].strip()
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise InvalidDataError(
                    f"{path}: line {line}, column {j + 1}: "
                    f"non-numeric value {cell!r}"
                )
            features[i, out_j] = value
        if label_idx is not None:
            raw_labels.append(row[label_idx].strip())
    return _dataset(features, raw_labels, header, label_idx, feature_cols)


def _by_name(label_column) -> bool:
    return isinstance(label_column, str) and not _is_int(label_column)


def _columns(path, header, width: int, label_column) -> tuple[int | None, list[int]]:
    """The label column's index (None without one) and the feature columns'."""
    label_idx = None
    if label_column is not None:
        if _by_name(label_column):
            if header is None or label_column not in header:
                raise InvalidDataError(f"{path}: no column named {label_column!r}")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not -width <= label_idx < width:
                raise InvalidDataError(
                    f"{path}: label column index {label_idx} out of range for {width} columns"
                )
            label_idx %= width

    feature_cols = [j for j in range(width) if j != label_idx]
    if not feature_cols:
        raise InvalidDataError(f"{path}: no feature columns left after label split")
    return label_idx, feature_cols


def _dataset(features, raw_labels, header, label_idx, feature_cols) -> Dataset:
    labels = _coerce_labels(raw_labels) if label_idx is not None else None
    names = (
        tuple(header[j] for j in feature_cols) if header is not None else None
    )
    label_name = header[label_idx] if (header is not None and label_idx is not None) else None
    return Dataset(features=features, labels=labels, feature_names=names, label_name=label_name)


def _is_int(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


def save_dataset(dataset: Dataset, path) -> None:
    """Write features (and the label column, when present) as CSV with header."""
    names = dataset.feature_names or tuple(f"f{j}" for j in range(dataset.m))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(names) + ([dataset.label_name or "label"] if dataset.labels is not None else [])
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            if dataset.labels is not None:
                row.append(str(dataset.labels[i]))
            writer.writerow(row)
