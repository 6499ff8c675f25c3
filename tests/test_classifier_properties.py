"""Property tests: the partition-based KNN kernel against the stable
argsort it replaced, on tie-heavy inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from chainga.classifier import _nearest, knn_predict
from oracles import argsort_knn_predict


def grid_rows(n, d):
    """n rows of d coordinates from {0, 0.5, 1}: distances tie often."""
    cells = st.lists(st.sampled_from((0.0, 0.5, 1.0)), min_size=n * d, max_size=n * d)
    return cells.map(lambda values: np.array(values).reshape(n, d))


@st.composite
def knn_cases(draw):
    n_train = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    train = draw(grid_rows(n_train, d))
    # duplicate training rows, and queries that equal training rows
    train = np.concatenate([train, train[draw(st.lists(st.integers(0, n_train - 1), max_size=4))]])
    queries = np.concatenate([
        draw(grid_rows(draw(st.integers(0, 4)), d)),
        train[draw(st.lists(st.integers(0, len(train) - 1), min_size=1, max_size=4))],
    ])
    # some classes below the largest label may be absent
    present = sorted(draw(st.sets(st.integers(0, 4), min_size=1)))
    labels = np.array(draw(st.lists(st.sampled_from(present), min_size=len(train), max_size=len(train))))
    k = draw(st.integers(1, len(train) + 2))
    return train, labels, queries, k


@given(knn_cases())
@example((np.array([[0.5, 1.0]]), np.array([3]), np.array([[0.0, 0.5]]), 1))
@example((np.array([[0.0], [1.0], [0.5], [0.5]]), np.array([0, 3, 3, 0]), np.array([[0.5]]), 4))
def test_knn_matches_argsort_predecessor(case):
    train, labels, queries, k = case
    expected = argsort_knn_predict(train, labels, queries, k)
    assert np.array_equal(knn_predict(train, labels, queries, k), expected)


@st.composite
def tie_heavy_distances(draw):
    n_query, n_train = draw(st.integers(1, 6)), draw(st.integers(1, 15))
    values = st.lists(st.integers(0, 3), min_size=n_query * n_train, max_size=n_query * n_train)
    dists = np.array(draw(values), dtype=float).reshape(n_query, n_train)
    return dists, draw(st.integers(1, n_train + 2))


@given(tie_heavy_distances())
def test_nearest_is_the_stable_argsort_prefix(case):
    dists, k = case
    expected = np.argsort(dists, axis=1, kind="stable")[:, :k]
    assert np.array_equal(_nearest(dists, k), expected)
