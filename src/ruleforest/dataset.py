"""Tabular multi-target regression data: CSV ingestion and fold planning."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

MISSING_POLICIES = ("zero_fill", "drop_row", "error")


class DatasetError(ValueError):
    """Raised for malformed or unusable input data."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus target matrix with column names.

    Rows are instances. All cells are finite 64-bit floats; missing values
    must be resolved at load time.
    """

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]
    target_names: tuple[str, ...]

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "target_names", tuple(self.target_names))
        if features.ndim != 2 or targets.ndim != 2:
            raise DatasetError("features and targets must be 2-D")
        if features.shape[0] != targets.shape[0]:
            raise DatasetError("features and targets disagree on row count")
        if features.shape[0] < 1 or features.shape[1] < 1 or targets.shape[1] < 1:
            raise DatasetError("dataset must have at least one row, feature and target")
        if not np.isfinite(features).all() or not np.isfinite(targets).all():
            raise DatasetError("dataset contains non-finite values")
        if len(self.feature_names) != features.shape[1]:
            raise DatasetError("feature_names length mismatch")
        if len(self.target_names) != targets.shape[1]:
            raise DatasetError("target_names length mismatch")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DatasetError("duplicate feature names")
        if len(set(self.target_names)) != len(self.target_names):
            raise DatasetError("duplicate target names")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def m(self) -> int:
        return self.targets.shape[1]

    def subset(self, rows) -> "Dataset":
        """New Dataset restricted to the given row indices (order preserved)."""
        rows = np.asarray(rows)
        return Dataset(
            self.features[rows], self.targets[rows], self.feature_names, self.target_names
        )


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic k-fold assignment: ``assignments[i]`` is row i's fold."""

    k: int
    assignments: np.ndarray = field(repr=False)

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def load_csv(path, target_columns, missing_policy: str = "zero_fill") -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    Columns named in ``target_columns`` become targets (in the given order);
    every remaining column becomes a feature, in header order. Empty cells are
    treated as missing and handled per ``missing_policy``: filled with 0.0
    (``zero_fill``), the whole row dropped (``drop_row``), or rejected
    (``error``). Non-numeric and non-finite cells (``nan``, ``inf``,
    ``1e309``) are always rejected: categorical columns are unsupported, and
    so is a header that leaves a column's name blank or names one column
    twice.
    """
    if missing_policy not in MISSING_POLICIES:
        raise DatasetError(f"unknown missing policy {missing_policy!r}")
    target_columns = list(target_columns)
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading byte-order mark is not part of a name
        rows = _numbered_rows(csv.reader(fh), path)
        _, header = next(rows, (None, None))
        if header is None:
            raise DatasetError(f"{path}: empty file")
        header = [name.strip() for name in header]
        if "" in header:
            raise DatasetError(f"{path}: column {header.index('') + 1} has a blank name in the header")
        if len(set(header)) < len(header):
            repeated = next(name for i, name in enumerate(header) if name in header[:i])
            raise DatasetError(f"{path}: column {repeated!r} appears more than once in the header")
        for name in target_columns:
            if name not in header:
                raise DatasetError(f"{path}: unknown target column {name!r}")
        feature_names = [name for name in header if name not in target_columns]
        if not feature_names:
            raise DatasetError(f"{path}: no feature columns left after removing targets")
        col_of = {name: i for i, name in enumerate(header)}

        parsed = []
        for lineno, row in rows:
            if not row:  # a blank line
                continue
            if len(row) != len(header):
                raise DatasetError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            values = []
            has_missing = False
            for name in feature_names + target_columns:
                cell = row[col_of[name]].strip()
                if cell == "":
                    has_missing = True
                    values.append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"{path}:{lineno}: non-numeric value {cell!r} in column {name!r} "
                        "(categorical columns are not supported)"
                    ) from None
                if not math.isfinite(value):  # 1e309 too, which parses as inf
                    raise DatasetError(f"{path}:{lineno}: non-finite value {cell!r} in column {name!r}")
                values.append(value)
            if has_missing:
                if missing_policy == "error":
                    raise DatasetError(f"{path}:{lineno}: missing value")
                if missing_policy == "drop_row":
                    continue
                values = [0.0 if np.isnan(v) else v for v in values]
            parsed.append(values)

    if not parsed:
        raise DatasetError(f"{path}: no usable rows after applying {missing_policy}")
    data = np.asarray(parsed, dtype=np.float64)
    d = len(feature_names)
    return Dataset(data[:, :d], data[:, d:], feature_names, target_columns)


def _numbered_rows(reader, path):
    """Each row ``reader`` yields, blank ones too, with the physical line it
    starts on, so a row whose quoted cell spans lines is named by its first."""
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:  # a cell longer than the csv module's field limit, for one
        raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # the decoder reads ahead a chunk at a time, so no line is named
        raise DatasetError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV; reloading reproduces every value exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + list(dataset.target_names))
        for i in range(dataset.n):
            writer.writerow(
                [repr(float(v)) for v in dataset.features[i]]
                + [repr(float(v)) for v in dataset.targets[i]]
            )


def kfold(n: int, k: int, seed: int) -> FoldPlan:
    """Deterministic shuffled k-fold plan; fold sizes differ by at most one."""
    if not 2 <= k <= n:
        raise DatasetError(f"fold count {k} out of range for {n} rows")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = np.arange(n) % k
    return FoldPlan(k=k, assignments=assignments)
