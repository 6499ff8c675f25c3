"""Property tests for the stratified row cap."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from chainga.data import DataError, RawTable, subsample_raw


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
        [True, False],
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
