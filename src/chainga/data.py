"""Dataset loading, encoding, normalization, discretization and splitting."""

from __future__ import annotations

import csv
import hashlib
import itertools
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng  # at import: a first draw would pay its lazy import

TRAIN, VAL, TEST = 0, 1, 2

MISSING_TOKENS = {"", "?", "na", "n/a", "nan", "null"}
BLOCK_ROWS = 256  # rows per block of load_csv's parse


class DataError(Exception):
    """Raised for malformed or unusable input tables."""


@dataclass
class RawTable:
    """Column-typed table as parsed from a CSV file.

    A column's dtype is its type: numeric columns are float64 arrays,
    categorical ones object arrays of strings.
    """

    names: list[str]
    columns: list[np.ndarray]
    label_column: str

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def label_values(self) -> np.ndarray:
        labels = self.columns[self.names.index(self.label_column)]
        return labels if labels.dtype == object else labels + 0.0  # -0.0 and 0.0: one class


@dataclass
class Dataset:
    """Prepared dataset with a continuous view (for KNN distance) and a
    discretized view (for entropy), plus a train/val/test partition.

    X_cont is min-max scaled to [0, 1] with statistics fit on the training
    rows only; X_disc holds small non-negative bin indices per column.
    """

    X_cont: np.ndarray
    X_disc: np.ndarray
    y: np.ndarray
    split: np.ndarray
    feature_names: list[str]
    class_names: list[str]
    bins: int

    def __post_init__(self):
        for arr in (self.X_cont, self.X_disc, self.y, self.split):
            arr.setflags(write=False)

    @property
    def d(self) -> int:
        return self.X_cont.shape[1]

    @property
    def n_rows(self) -> int:
        return self.X_cont.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def indices(self, part: int) -> np.ndarray:
        return np.flatnonzero(self.split == part)

    @property
    def train_idx(self) -> np.ndarray:
        return self.indices(TRAIN)

    @property
    def val_idx(self) -> np.ndarray:
        return self.indices(VAL)

    @property
    def test_idx(self) -> np.ndarray:
        return self.indices(TEST)

    def digest(self) -> str:
        """Content hash that identifies the dataset in ``run_manifest.yaml``."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.X_disc).tobytes())
        h.update(np.ascontiguousarray(self.y).tobytes())
        h.update(np.ascontiguousarray(self.split).tobytes())
        h.update(str(self.bins).encode())
        return h.hexdigest()


@dataclass
class SyntheticSpec:
    """Recipe for a small synthetic classification table.

    Informative features carry class-separated means, redundant features
    are noisy copies of informative ones, noise features are independent
    of the label.
    """

    n_rows: int
    n_informative: int
    n_redundant: int = 0
    n_noise: int = 0
    n_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_informative < 1:
            raise DataError("synthetic spec needs at least one informative feature")
        if self.n_rows < 3 * self.n_classes:
            raise DataError("synthetic spec needs at least 3 rows per class")
        if min(self.n_redundant, self.n_noise) < 0 or self.n_classes < 2:
            raise DataError("invalid synthetic spec")


# a line and its ending, split as io.StringIO(text, newline="") splits them
# (a str iterator costs no copy of the text; a StringIO holds 4 bytes per character)
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _rows(text: str):
    """The non-empty rows of CSV text, parsed lazily."""
    return filter(None, csv.reader(map(operator.itemgetter(0), _LINE.finditer(text))))


def _blocks(rows):
    """Lists of up to ``BLOCK_ROWS`` consecutive rows."""
    while block := list(itertools.islice(rows, BLOCK_ROWS)):
        yield block


def _scan(text: str, header: bool, late: list[int] | None = None):
    """One parse of the rows, a block at a time. Returns the column names
    (None for a file with no rows), the data row count, the first ragged
    row as (index, width) or None, per column the float64 arrays of its
    blocks or None, and some columns' stripped cells, each distinct string
    held once. No block is converted after the first ragged row.

    Pass 1 (no ``late``) converts a column's blocks until one holds a cell
    that is not a finite number, then sets it to None. A column that the
    first block rejects has its cells collected from that block on. Pass 2
    collects only the cells of the ``late`` columns, those rejected later,
    whose strings pass 1 did not keep."""
    rows = _rows(text)
    first = next(rows, None)
    if first is None:
        return None, 0, None, [], {}
    names = [c.strip() for c in first] if header else [f"f{i}" for i in range(len(first))]
    parts = [None if late else [] for _ in names]
    cells: dict[int, list[str]] = {j: [] for j in late or ()}
    shared: dict[str, str] = {}
    n_rows, ragged = 0, None
    for block in _blocks(rows if header else itertools.chain([first], rows)):
        if ragged is None:
            ragged = next(((n_rows + i, len(row)) for i, row in enumerate(block) if len(row) != len(names)), None)
        if ragged is None:
            for j, (part, column) in enumerate(zip(parts, zip(*block))):
                if part is not None:
                    try:  # float() semantics: surrounding whitespace and "1_0" parse
                        values = np.array(column, dtype=np.float64)
                    except ValueError:  # a text cell or a missing token
                        values = None
                    if values is not None and np.isfinite(values).all():
                        part.append(values)
                        continue
                    parts[j] = None  # also for "nan", "inf", "1e999"
                    if not n_rows:  # the first block rejects it: keep its cells from here on
                        cells[j] = []
                if j in cells:
                    cells[j] += [shared.setdefault(v, v) for v in map(str.strip, column)]
        n_rows += len(block)
    return names, n_rows, ragged, parts, cells


def _typed_column(name: str, cells: list[str], path) -> np.ndarray:
    """A column from its stripped cells, its missing cells filled."""
    tokens = {v for v in set(cells) if v.lower() in MISSING_TOKENS}  # each distinct string tested once
    missing = [v in tokens for v in cells] if tokens else []
    present = [v for v, m in zip(cells, missing) if not m] if tokens else cells
    if not present:
        raise DataError(f"column {name!r} in {path} is entirely missing")
    try:
        values = np.array(present, dtype=np.float64)
    except ValueError:  # a text cell: the column is categorical
        values = np.array(present, dtype=object)
    numeric = values.dtype != object
    if numeric and not np.isfinite(values).all():  # inf, 1e999, -nan
        raise DataError(f"column {name!r} in {path} holds a non-finite number")
    if tokens:
        if numeric:
            fill = np.median(values)
        else:
            uniq, counts = np.unique(values, return_counts=True)
            fill = uniq[np.argmax(counts)]  # the smallest of the most frequent
        full = np.full(len(cells), fill, dtype=values.dtype)
        full[~np.array(missing)] = values
        values = full
    return values


def load_csv(path, label_column: str, header: bool = True) -> RawTable:
    """Load a comma-separated table, typing each column numeric when every
    present entry parses as a number and categorical otherwise.

    Missing entries ("", "?", "NA", ...) are imputed with the column median
    (numeric) or mode (categorical).

    The file is read whole, then parsed in blocks of ``BLOCK_ROWS`` rows,
    so only one block's cells are alive at a time. A column whose every
    block converts to finite floats is numeric with nothing missing, and
    is kept as those floats. The other columns (a text cell, a missing
    token or a non-finite number) are typed from their stripped cells,
    each distinct string held once. Pass 1 collects them for a column
    that its first block rejects; only a column that a later block
    rejects, whose earlier blocks became floats, is parsed again.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
        if "\x00" in text:  # numpy strings drop trailing NULs, merging categories
            raise DataError(f"dataset file holds a NUL character: {path}")
        names, n_rows, ragged, parts, cells = _scan(text, header)
    except FileNotFoundError as exc:
        raise DataError(f"dataset file not found: {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset file is not UTF-8 text: {path}") from exc
    except csv.Error as exc:
        raise DataError(f"malformed CSV in {path}: {exc}") from exc

    if names is None:
        raise DataError(f"empty table: {path}")
    if not n_rows:
        raise DataError(f"table has a header but no data rows: {path}")
    if ragged:
        i, got = ragged
        raise DataError(
            f"ragged row {i + (2 if header else 1)} in {path}: "
            f"expected {len(names)} fields, got {got}"
        )
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise DataError(f"header of {path} repeats column name(s) {', '.join(map(repr, repeated))}")
    if label_column not in names:
        raise DataError(f"label column {label_column!r} not present in {path}")

    late = [j for j, part in enumerate(parts) if part is None and j not in cells]
    if late:  # a later block rejected them: parse again for their strings
        cells.update(_scan(text, header, late)[4])
    del text  # its memory goes back before the joined columns are allocated
    columns: list[np.ndarray] = []
    for j, name in enumerate(names):
        if parts[j] is None:
            values = _typed_column(name, cells.pop(j), path)
        else:
            values = np.concatenate(parts[j])
            parts[j] = None  # each block freed once its column is joined
        columns.append(values)

    raw = RawTable(names, columns, label_column)
    if len(set(raw.label_values().astype(str).tolist())) < 2:  # a bare np.unique imports numpy.ma
        raise DataError(f"label column {label_column!r} has fewer than 2 distinct values")
    return raw


def _allocate_811(count: int) -> tuple[int, int, int]:
    """Largest-remainder 8:1:1 allocation of ``count`` rows."""
    targets = (0.8 * count, 0.1 * count, 0.1 * count)
    base = [int(t) for t in targets]
    rem = [t - b for t, b in zip(targets, base)]
    for _ in range(count - sum(base)):
        k = int(np.argmax(rem))
        base[k] += 1
        rem[k] = -1.0
    return base[0], base[1], base[2]


def _stratified_split(y: np.ndarray, n_classes: int, seed) -> np.ndarray:
    """8:1:1 split stratified by class; classes with ≥3 samples are
    guaranteed one row in each partition, smaller classes are pooled and
    split without stratification (with a warning)."""
    rng = default_rng(seed)
    split = np.full(len(y), TRAIN, dtype=np.int8)
    pooled: list[np.ndarray] = []
    for c in range(n_classes):
        idx = np.flatnonzero(y == c)
        if len(idx) < 3:
            pooled.append(idx)
            continue
        idx = rng.permutation(idx)
        n_val = max(1, int(0.1 * len(idx) + 0.5))
        n_test = max(1, int(0.1 * len(idx) + 0.5))
        split[idx[:n_val]] = VAL
        split[idx[n_val : n_val + n_test]] = TEST
    if pooled:
        warnings.warn(
            "classes with fewer than 3 samples cannot be stratified 8:1:1; "
            "falling back to a pooled non-stratified split for those rows",
            stacklevel=3,
        )
        idx = rng.permutation(np.concatenate(pooled))
        _, n_val, n_test = _allocate_811(len(idx))
        split[idx[:n_val]] = VAL
        split[idx[n_val : n_val + n_test]] = TEST
    return split


def prepare(raw: RawTable, bins: int = 10, split_seed=0) -> Dataset:
    """Turn a RawTable into a prepared Dataset.

    Categorical features are integer-encoded and kept as-is in the
    discretized view; numeric features are min-max scaled to [0, 1]
    (training-partition statistics, val/test clamped) and equal-width
    binned into ``bins`` bins with a right-closed top bin. Labels map to
    0..C-1 in sorted order; the split is stratified 8:1:1.
    """
    if bins < 2:
        raise DataError(f"bins must be >= 2, got {bins}")

    feat_cols = [(name, col) for name, col in zip(raw.names, raw.columns) if name != raw.label_column]
    if not feat_cols:
        raise DataError(f"table has no feature column besides the label {raw.label_column!r}")
    class_names, y = np.unique(raw.label_values().astype(str), return_inverse=True)
    split = _stratified_split(y, len(class_names), split_seed)
    train = split == TRAIN

    n, d = raw.n_rows, len(feat_cols)
    numeric = np.array([col.dtype != object for _, col in feat_cols])
    # feature-major, so that a column's training values are contiguous; a category's value is its code
    values = np.stack([col if num else np.unique(col.astype(str), return_inverse=True)[1]
                       for (_, col), num in zip(feat_cols, numeric)], out=np.empty((d, n)))
    # C order, so that each row is reduced as its own min() would, down to the sign of a zero minimum
    ref = values.compress(train, axis=1) if train.any() else values
    lo, hi = ref.min(axis=1), ref.max(axis=1)
    del ref
    with np.errstate(over="ignore", invalid="ignore"):  # a range past float64 is inf, or nan from inf - inf
        span = hi - lo
        bad = ~np.isfinite(values.max(axis=1) - values.min(axis=1)) | ((span > 0) & (span / bins == 0))
    if bad.any():
        name = feat_cols[np.argmax(bad)][0]
        raise DataError(f"column {name!r} spans a range that float64 cannot scale into {bins} bins")
    # a constant training column leaves X_cont 0, and X_disc too if numeric
    X_cont, X_disc = np.zeros((n, d)), np.zeros((n, d), dtype=np.int64)
    np.copyto(X_disc, values.T, casting="unsafe", where=~numeric)
    binned = numeric & (span > 0)
    np.subtract(values, lo[:, None], out=values)
    with np.errstate(over="ignore"):  # a subnormal span scales held-out values to inf
        np.divide(values.T, span, out=X_cont, where=span > 0)
        np.divide(values, (span / bins)[:, None], out=values, where=binned[:, None])
    np.clip(np.floor(values, out=values), 0, bins - 1, out=values)  # before the cast, which inf would not survive
    np.copyto(X_disc, values.T, casting="unsafe", where=binned)
    np.clip(X_cont, 0.0, 1.0, out=X_cont)
    X_cont += 0.0  # -0.0 to 0.0: clip's sign of a zero depends on numpy's SIMD kernel

    return Dataset(X_cont, X_disc, y, split, [f[0] for f in feat_cols], class_names.tolist(), bins)


def generate_synthetic(spec: SyntheticSpec, bins: int = 10) -> Dataset:
    """Deterministically generate a Dataset from a SyntheticSpec.

    Class labels are balanced; informative features get class-conditional
    means two units apart, redundant features are jittered copies of
    informative ones.
    """
    rng = default_rng(spec.seed)
    n, c = spec.n_rows, spec.n_classes
    y = rng.permutation(np.arange(n) % c)

    informative = y[:, None] * 2.0 + rng.normal(0.0, 1.0, size=(n, spec.n_informative))
    blocks = [informative]
    if spec.n_redundant:
        src = informative[:, np.arange(spec.n_redundant) % spec.n_informative]
        blocks.append(src + rng.normal(0.0, 0.3, size=(n, spec.n_redundant)))
    if spec.n_noise:
        blocks.append(rng.normal(0.0, 1.0, size=(n, spec.n_noise)))

    counts = {"inf": spec.n_informative, "red": spec.n_redundant, "noise": spec.n_noise}
    names = [f"{kind}{i}" for kind, count in counts.items() for i in range(count)]
    columns = [*np.vstack([block.T for block in blocks]), np.array([f"c{v}" for v in y], dtype=object)]
    raw = RawTable(names + ["class"], columns, "class")
    return prepare(raw, bins=bins, split_seed=spec.seed)


def subsample_raw(raw: RawTable, cap: int, seed) -> RawTable:
    """Stratified row subsample keeping exactly ``cap`` rows: per-class
    proportional largest-remainder allocation, at least one row per class."""
    if cap >= raw.n_rows:
        return raw
    rng = default_rng(seed)
    labels = raw.label_values().astype(str)
    classes, counts = np.unique(labels, return_counts=True)
    if cap < len(classes):
        raise DataError(f"subsample cap {cap} is below the class count {len(classes)}")
    targets = cap * counts / raw.n_rows
    take = np.maximum(np.floor(targets).astype(int), 1)
    remainders = targets - np.floor(targets)
    order = np.argsort(-remainders, kind="stable")
    for k in itertools.cycle(order):
        if take.sum() >= cap:
            break
        if take[k] < counts[k]:
            take[k] += 1
    while take.sum() > cap:  # the >=1 floor can overshoot on tiny classes
        excess = np.where(take > 1, take - targets, -np.inf)
        take[int(np.argmax(excess))] -= 1
    keep = [
        rng.permutation(np.flatnonzero(labels == cls))[:n]
        for cls, n in zip(classes, take)
    ]
    sel = np.sort(np.concatenate(keep))
    columns = [col[sel] for col in raw.columns]
    return RawTable(raw.names, columns, raw.label_column)
