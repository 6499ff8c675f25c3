"""Property tests for the stratified row cap and for CSV loading and
preparation."""

import csv
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from chainga import data
from chainga.data import TEST, TRAIN, VAL, DataError, RawTable, load_csv, prepare, subsample_raw
from oracles import columnwise_load_csv, dict_prepare, two_pass_load_csv


@st.composite
def class_tables(draw, min_classes=1):
    """A table whose rows carry a unique id and one of up to six classes,
    each class one to twenty rows, the rows in a drawn order."""
    counts = draw(st.lists(st.integers(1, 20), min_size=min_classes, max_size=6))
    labels = np.repeat([f"c{i}" for i in range(len(counts))], counts)
    labels = labels[draw(st.permutations(range(labels.size)))]
    table = RawTable(
        ["id", "class"],
        [np.arange(labels.size, dtype=float), labels.astype(object)],
        "class",
    )
    return table, len(counts)


@given(class_tables(), st.data(), st.integers(0, 2**32 - 1))
def test_subsample_keeps_exactly_cap_rows_and_every_class(case, data, seed):
    table, n_classes = case
    cap = data.draw(st.integers(n_classes, table.n_rows))
    sub = subsample_raw(table, cap, seed)
    assert sub.n_rows == cap
    assert set(sub.label_values()) == set(table.label_values())
    ids = sub.columns[0].astype(int)
    assert np.all(np.diff(ids) > 0)  # distinct original rows, in table order
    assert np.array_equal(sub.label_values(), table.label_values()[ids])


@given(class_tables(min_classes=2), st.data())
def test_subsample_cap_below_class_count_is_data_error(case, data):
    table, n_classes = case
    cap = data.draw(st.integers(1, n_classes - 1))
    with pytest.raises(DataError):
        subsample_raw(table, cap, seed=0)


# cells of each column kind; every kind may also hold missing tokens
CELLS = {
    "numeric": ["0", "1", "1", "2.5", "-3e2"],
    "constant": ["7"],
    "categorical": ["a", "b", "b", "c"],
    "constant-categorical": ["k"],
}
MISSING = ["", "?", "NA", "n/a", "NaN", "null", " ? "]


@st.composite
def csv_tables(draw):
    """Header, rows (lists of cells) and kinds of a small CSV: two to four
    classes of one to eight rows each, and one to four feature columns."""
    counts = draw(st.lists(st.integers(1, 8), min_size=2, max_size=4))
    labels = draw(st.permutations([f"c{i}" for i, c in enumerate(counts) for _ in range(c)]))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        cells = draw(st.lists(st.sampled_from(CELLS[kind] + MISSING), min_size=len(labels), max_size=len(labels)))
        # one present cell at least: a column of only missing tokens has no type
        cells[draw(st.integers(0, len(labels) - 1))] = draw(st.sampled_from(CELLS[kind]))
        columns.append(cells)
    header = [f"f{j}" for j in range(len(kinds))] + ["class"]
    return header, [list(row) for row in zip(*columns, labels)], kinds


@given(csv_tables(), st.integers(2, 6), st.integers(0, 3))
def test_load_csv_and_prepare_properties(table, bins, split_seed):
    header, rows, kinds = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n", encoding="utf-8")
        raw = load_csv(path, "class")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small-class fallback warns
        ds = prepare(raw, bins=bins, split_seed=split_seed)

    for column in raw.columns:
        assert column.dtype == object or np.isfinite(column).all()
    assert np.isfinite(ds.X_cont).all()
    assert ((ds.X_cont >= 0) & (ds.X_cont <= 1)).all()

    train = ds.split == TRAIN
    for j, kind in enumerate(kinds):
        values = raw.columns[j]
        numeric = values.dtype != object
        assert numeric == (kind in ("numeric", "constant"))
        if numeric:
            assert ds.X_disc[:, j].min() >= 0 and ds.X_disc[:, j].max() <= bins - 1
        # a categorical column keeps its category codes in the discrete view,
        # so only one that is constant over the whole table is all zero there
        constant = len(set(values[train])) == 1 and (numeric or len(set(values)) == 1)
        if constant:
            assert not ds.X_cont[:, j].any() and not ds.X_disc[:, j].any()

    for c in range(ds.n_classes):
        rows = ds.y == c
        if np.count_nonzero(rows) >= 3:
            assert set(ds.split[rows].tolist()) == {TRAIN, VAL, TEST}


# cells for the comparison with the predecessors: mixed-case missing tokens,
# non-ASCII whitespace (no-break, em and ideographic spaces, the line and
# unit separators, NEL), non-finite spellings and an underscore digit group
NUMBERS = ["0", "1", "2.5", "-3e2", "1_000", "-0", "\xa07\u2003", "\u2028 4", "\u30005", "1e999", "inf", "-nan"]
WORDS = ["a", "b", "B", "x y", " a\u3000", "\x85b\x1f", "\xe9", "inf", "1"]
TOKENS = ["", "?", "NA", "nA", "N/a", "NaN", "nAN", "NULL", "Null", " ? ", " na "]
LABELS = {"words": ["p", "q", "r", "P"], "numbers": ["0", "1", "1.0", "2", "-0", "2e0"]}


@st.composite
def predecessor_tables(draw):
    """CSV rows (header first) of two to four columns and five to twenty-five
    rows; each column draws its cells from a small pool, so ties, constant
    columns and missing or non-finite cells are common."""
    n = draw(st.integers(5, 25))
    pools = [NUMBERS, WORDS, NUMBERS[:3], WORDS[:2], ["7"], ["k"]]
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        pool = draw(st.sampled_from(pools))
        pool = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        pool += draw(st.lists(st.sampled_from(TOKENS), max_size=2))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    labels = draw(st.lists(st.sampled_from(LABELS[draw(st.sampled_from(sorted(LABELS)))]), min_size=n, max_size=n))
    header = [f"f{j}" for j in range(len(columns))] + ["class"]
    return [header, *map(list, zip(*columns, labels))]


def _outcome(load, prep, path, bins, split_seed):
    try:
        raw = load(path, "class")
    except DataError as exc:
        return str(exc), None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the small-class fallback warns
        return raw, prep(raw, bins=bins, split_seed=split_seed)


# a tied mode (a and b four times each, two missing) and a column constant on
# the training rows only (its 9 sits on a test row at split seed 0)
TIED = [["f0", "f1", "class"]] + [
    [c, v, y] for c, v, y in zip("ab?ab" * 2, "1111111191", "pqpqpqpqpq")
]
# a numeric label column, mixed-case tokens, "1_000", "-0" and a text "inf"
NUMERIC_LABEL = [["f0", "f1", "class"]] + [
    [x, w, y] for x, w, y in zip(NUMBERS[:6] + TOKENS[1:7], WORDS + TOKENS[:3], LABELS["numbers"] * 2)
]


@example(TIED, 3, 0)
@example(NUMERIC_LABEL, 4, 1)
@example([["f0", "class"], ["1", "p"], ["1e999", "q"], ["?", "p"]], 2, 0)
@example([["f0", "class"], ["-nan", "p"], ["2", "q"], ["NULL", "p"]], 2, 0)
@given(predecessor_tables(), st.integers(2, 6), st.integers(0, 2))
def test_load_csv_and_prepare_match_their_predecessors(rows, bins, split_seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
        raw, ds = _outcome(load_csv, prepare, path, bins, split_seed)
        ref_raw, ref_ds = _outcome(two_pass_load_csv, dict_prepare, path, bins, split_seed)
    if ref_ds is None:
        assert raw == ref_raw  # the same data error
        return
    assert (raw.names, raw.label_column) == (ref_raw.names, ref_raw.label_column)
    for column, ref in zip(raw.columns, ref_raw.columns, strict=True):
        assert column.dtype == ref.dtype and column.tolist() == ref.tolist()
        assert column.dtype == object or column.tobytes() == ref.tobytes()  # -0.0 too
    for view in ("X_cont", "X_disc", "y", "split"):
        a, b = getattr(ds, view), getattr(ref_ds, view)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (ds.feature_names, ds.class_names, ds.bins) == (ref_ds.feature_names, ref_ds.class_names, ref_ds.bins)
    assert ds.digest() == ref_ds.digest()


# cells for the comparison of the block parse with the column-wise loader:
# finite numbers (an underscore group, full-width digits, Unicode whitespace
# around them), spoilers that make a numeric column one the second pass types
# (a text cell, missing tokens, non-finite numbers), and text cells, some
# quoted across a line break or holding characters str.splitlines breaks at
FINITE = ["0", "-0", "2.5", "-3e2", "1_0", "\uff15", "\uff11\uff12", "\u30007\xa0", "\u2028 4", " 8 "]
SPOILERS = ["x", '"p,q"', "nan", "NaN", " ? ", "", "-nan", "inf", "1e999"]
TEXT = ["a", "b", " a\u3000", "inf", '"x,y"', '"x\ny"', '"x\r\ny"', "\x85b\x1d", "c\x0b\x0cd"]
OVERSIZED = "9" * (csv.field_size_limit() + 1)  # a field csv.reader rejects


@st.composite
def blocked_tables(draw):
    """(CSV text, header flag, label column, block size) of a table of one
    to fourteen rows, parsed in blocks of two or three rows. A numeric
    column's spoiler sits in a later block when there is one; a ragged row
    may be followed by a field the CSV parser rejects. Lines end in "\\n",
    "\\r\\n" or "\\r", the last one maybe in nothing."""
    block = draw(st.integers(2, 3))
    n = draw(st.integers(1, 14))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        numeric = draw(st.booleans())
        cells = draw(st.lists(st.sampled_from(FINITE if numeric else TEXT), min_size=n, max_size=n))
        if numeric and draw(st.booleans()):
            cells[draw(st.integers(block if n > block else 0, n - 1))] = draw(st.sampled_from(SPOILERS))
        columns.append(cells)
    columns.append(draw(st.lists(st.sampled_from(["p", "q", "0", "-0", "1"]), min_size=n, max_size=n)))
    rows = [list(row) for row in zip(*columns)]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, n - 1))
        rows[at] = rows[at][:-1] if draw(st.booleans()) else rows[at] + ["extra"]
        if draw(st.booleans()):
            rows[draw(st.integers(at, n - 1))][0] = OVERSIZED
    header = draw(st.booleans())
    names = [f"f{j}" for j in range(len(columns))]  # the same names as without a header
    lines = [",".join(row) for row in ([[f" {name}" for name in names]] if header else []) + rows]
    for _ in range(draw(st.integers(0, 2))):  # empty lines are skipped, and not counted
        lines.insert(draw(st.integers(0, len(lines))), "")
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ("\ufeff" if draw(st.booleans()) else "") + ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return text, header, names[-1], block


def _load_or_error(load, path, label_column, header):
    try:
        return load(path, label_column, header=header)
    except DataError as exc:
        return exc


def _spoiled_late(cell):
    """A numeric column whose fourth block of two rows holds ``cell``."""
    return f"f0,f1\n1,p\n2,q\n3,p\n\uff14,q\n5,p\n6,q\n{cell},p\n", True, "f1", 2


@example(("f0,f1\n1,p\n2,q\n3,p\n4,q\n5\n6,p\n" + OVERSIZED + ",q\n", True, "f1", 2))
@example(("\ufeff1,p\n\n2,q,r\n3,p\n", False, "f1", 2))
# a first-block text column, a first-block missing token and a column a
# later block spoils; and a header-less table whose first row holds text
@example(("f0,f1,f2,f3\nx,?,1,p\ny,2,2,q\nx,3,3,p\n y ,4,nan,q\n", True, "f3", 2))
@example(("a,1,p\nb, 2,q\na,3,p\n", False, "f2", 2))
@example(_spoiled_late(" ? "))
@example(_spoiled_late("nan"))
@example(_spoiled_late("1e999"))
@example(_spoiled_late("x"))
@given(blocked_tables())
def test_load_csv_matches_the_columnwise_loader_across_blocks(case):
    text, header, label_column, block = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode("utf-8"))  # line endings as drawn
        with mock.patch.object(data, "BLOCK_ROWS", block):
            raw = _load_or_error(load_csv, path, label_column, header)
        ref = _load_or_error(columnwise_load_csv, path, label_column, header)
    if isinstance(ref, DataError):
        assert type(raw) is type(ref) and str(raw) == str(ref)
        return
    assert (raw.names, raw.label_column) == (ref.names, ref.label_column)
    for column, ref_column in zip(raw.columns, ref.columns, strict=True):
        assert column.dtype == ref_column.dtype and column.tolist() == ref_column.tolist()
        assert column.dtype == object or column.tobytes() == ref_column.tobytes()  # -0.0 too
