"""Property tests: the one-bincount-per-column gain-ratio build against
its row-wise predecessor (bit for bit) and the per-pair loop before that
(to a tolerance), and the entropy helpers against the naive Counter
oracles, on tie-heavy and degenerate tables."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from chainga.data import TRAIN, Dataset
from chainga.infotheory import build_omega, entropy, information_gain
from oracles import loop_build_omega, ref_entropy, ref_information_gain, rowwise_build_omega

TOLERANCE = 1e-12


def dataset_of(X_disc, y):
    """A Dataset whose every row is a training row."""
    n, d = X_disc.shape
    return Dataset(
        X_cont=np.zeros((n, d)),
        X_disc=X_disc,
        y=y,
        split=np.full(n, TRAIN),
        feature_names=[f"f{j}" for j in range(d)],
        class_names=[str(c) for c in range(int(y.max()) + 1)],
        bins=10,
    )


@st.composite
def code_tables(draw):
    """Columns that are constant, equal to the label, copies of an earlier
    column, categorical with up to n distinct codes, one code per row
    (spread over a wide range of values), or drawn from 2 to 10 codes, so
    that the columns of one table have different code counts; the label
    has 1 to 4 classes."""
    n = draw(st.integers(2, 40))
    y = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    columns = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("constant", "label", "copy", "categorical", "distinct", "binned")))
        if kind == "constant":
            columns.append(np.full(n, draw(st.integers(0, 9))))
        elif kind == "label":
            columns.append(y.copy())
        elif kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))].copy())
        elif kind == "distinct":
            columns.append(np.array(draw(st.permutations(range(n)))) * draw(st.integers(1, 1000)))
        else:
            high = n - 1 if kind == "categorical" else draw(st.integers(1, 9))
            columns.append(np.array(draw(st.lists(st.integers(0, high), min_size=n, max_size=n))))
    return np.stack(columns, axis=1).astype(np.int64), y


def assert_matches_loop(dataset, rows):
    omega = build_omega(dataset, rows=rows)
    predecessor = rowwise_build_omega(dataset, rows=rows)
    assert np.array_equal(omega.fc, predecessor.fc)
    assert np.array_equal(omega.ff, predecessor.ff)
    reference = loop_build_omega(dataset, rows=rows)
    assert np.max(np.abs(omega.fc - reference.fc)) <= TOLERANCE
    assert np.max(np.abs(omega.ff - reference.ff)) <= TOLERANCE
    assert np.all(omega.ff.diagonal() == 0.0)
    # a column constant over the rows used keeps its exact zeros
    X = dataset.X_disc[rows]
    for i in np.flatnonzero((X == X[0]).all(axis=0)):
        assert omega.fc[i] == 0.0
        assert np.all(omega.ff[i] == 0.0) and np.all(omega.ff[:, i] == 0.0)


@given(code_tables())
def test_omega_matches_loop_predecessor(table):
    X, y = table
    dataset = dataset_of(X, y)
    assert_matches_loop(dataset, dataset.train_idx)


@given(code_tables(), st.data())
def test_omega_matches_loop_predecessor_on_row_subsets(table, data):
    X, y = table
    rows = data.draw(st.lists(st.integers(0, len(y) - 1), min_size=2, max_size=len(y), unique=True))
    assert_matches_loop(dataset_of(X, y), np.array(rows))


@given(code_tables(), st.data())
def test_omega_matches_loop_predecessor_on_two_rows(table, data):
    X, y = table
    rows = data.draw(st.lists(st.integers(0, len(y) - 1), min_size=2, max_size=2, unique=True))
    assert_matches_loop(dataset_of(X, y), np.array(rows))


def symbol_columns(max_symbols):
    return st.integers(1, max_symbols).flatmap(
        lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=60)
    )


@given(symbol_columns(30))
def test_entropy_matches_counter_oracle(values):
    assert abs(entropy(values) - ref_entropy(values)) <= TOLERANCE


@given(st.data())
def test_information_gain_matches_counter_oracle(data):
    target = data.draw(symbol_columns(12))
    n = len(target)
    high = data.draw(st.integers(0, n))
    feature = data.draw(st.lists(st.integers(0, high), min_size=n, max_size=n))
    expected = max(0.0, ref_information_gain(target, feature))
    assert abs(information_gain(target, feature) - expected) <= TOLERANCE
