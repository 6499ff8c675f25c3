"""Property tests: the settled/refined KNN kernel against the Gram-filtered
kernel it replaced, the cdist-plus-partition kernel before that and the
stable argsort before that, on tie-heavy, near-tie and vote-tie inputs, with
float64 and with float32 keys; and the refine's distances against scipy's
cdist, bit for bit."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from chainga import classifier
from chainga.classifier import knn_predict
from oracles import argsort_knn_predict, cdist_knn_predict, gram_knn_predict, gram_nearest


def grid_rows(n, d):
    """n rows of d coordinates from {0, 0.5, 1}: distances tie often."""
    cells = st.lists(st.sampled_from((0.0, 0.5, 1.0)), min_size=n * d, max_size=n * d)
    return cells.map(lambda values: np.array(values).reshape(n, d))


def labels_for(draw, n):
    # some classes below the largest label may be absent
    present = sorted(draw(st.sets(st.integers(0, 4), min_size=1)))
    return np.array(draw(st.lists(st.sampled_from(present), min_size=n, max_size=n)))


def assert_matches_predecessors(train, labels, queries, k):
    expected = argsort_knn_predict(train, labels, queries, k)
    assert np.array_equal(cdist_knn_predict(train, labels, queries, k), expected)
    assert np.array_equal(gram_knn_predict(train, labels, queries, k), expected)
    assert np.array_equal(knn_predict(train, labels, queries, k), expected)


def assert_stable_argsort_prefix(train, queries, k):
    expected = np.argsort(cdist(queries, train), axis=1, kind="stable")[:, :k]
    assert np.array_equal(gram_nearest(queries, train, k), expected)


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
    k = draw(st.integers(1, len(train) + 2))
    return train, labels_for(draw, len(train)), queries, k


@given(knn_cases())
@example((np.array([[0.5, 1.0]]), np.array([3]), np.array([[0.0, 0.5]]), 1))
@example((np.array([[0.0], [1.0], [0.5], [0.5]]), np.array([0, 3, 3, 0]), np.array([[0.5]]), 4))
def test_knn_matches_argsort_predecessor(case):
    assert_matches_predecessors(*case)


@st.composite
def vote_tie_cases(draw):
    """An even k and 3-5 classes, so votes tie often, over training rows
    with duplicates, so a query often has more than k candidates."""
    n_train = draw(st.integers(2, 12))
    d = draw(st.integers(1, 3))
    train = draw(grid_rows(n_train, d))
    train = np.concatenate([train, train[draw(st.lists(st.integers(0, n_train - 1), min_size=1, max_size=6))]])
    n_classes = draw(st.integers(3, 5))
    labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=len(train), max_size=len(train))))
    queries = np.concatenate([
        draw(grid_rows(draw(st.integers(0, 4)), d)),
        train[draw(st.lists(st.integers(0, len(train) - 1), min_size=1, max_size=4))],
    ])
    k = 2 * draw(st.integers(1, len(train) // 2 + 1))
    return train, labels, queries, k


@given(vote_tie_cases())
# every query settled: exactly k candidates and one top-voted class
@example((np.array([[0.0], [1.0], [6.0], [7.0], [20.0]]), np.array([0, 0, 2, 2, 1]), np.array([[0.0], [7.0]]), 2))
# more than k candidates, whose own vote has one top class but the k nearest tie
@example((np.array([[0.0], [1.0], [1.0], [1.0], [9.0]]), np.array([0, 1, 1, 1, 2]), np.array([[0.0]]), 2))
# exactly k candidates whose vote ties: the nearest member's class wins
@example((np.array([[0.0], [1.0], [5.0]]), np.array([1, 0, 2]), np.array([[0.0]]), 2))
def test_knn_vote_ties_match_predecessors(case):
    assert_matches_predecessors(*case)


@st.composite
def tie_heavy_grids(draw):
    n_query, n_train, d = draw(st.integers(1, 6)), draw(st.integers(1, 15)), draw(st.integers(1, 3))
    cells = st.lists(st.integers(0, 3), min_size=(n_query + n_train) * d, max_size=(n_query + n_train) * d)
    points = np.array(draw(cells), dtype=float).reshape(n_query + n_train, d)
    return points[n_query:], points[:n_query], draw(st.integers(1, n_train + 2))


@given(tie_heavy_grids())
def test_nearest_is_the_stable_argsort_prefix(case):
    assert_stable_argsort_prefix(*case)


@st.composite
def near_tie_cases(draw):
    """Training rows that permute one row on the 0.01 grid of kdd41's rate
    columns, so every row has the same norm: a query's distances to them
    differ by a few grid steps, and the all-0.5 query's are equal in exact
    arithmetic. The Gram key rounds differently from cdist, so only the
    slack keeps the true k nearest among the candidates."""
    d = draw(st.integers(2, 40))
    n_train = draw(st.integers(1, 12))
    if draw(st.booleans()):
        base = np.array(draw(st.lists(st.integers(0, 100), min_size=d, max_size=d))) / 100
    else:  # all-zero data: the slack is 0
        base = np.zeros(d)
    train = np.array([base[draw(st.permutations(range(d)))] for _ in range(n_train)])
    n_grid = draw(st.integers(0, 3))
    grid = np.array(draw(st.lists(st.integers(0, 100), min_size=n_grid * d, max_size=n_grid * d)))
    queries = np.concatenate([
        grid.reshape(n_grid, d) / 100,
        np.full((1, d), 0.5) if base.any() else np.zeros((1, d)),
        train[draw(st.lists(st.integers(0, n_train - 1), max_size=3))],
    ])
    k = draw(st.integers(1, n_train + 2))
    return train, labels_for(draw, n_train), queries, k


@given(near_tie_cases())
def test_knn_near_ties_match_predecessors(case):
    train, labels, queries, k = case
    assert_stable_argsort_prefix(train, queries, k)
    assert_matches_predecessors(train, labels, queries, k)


def float32_key_case(seed, n_train, d, k, scale=1.0):
    """Training rows on the 0.01 grid, most of them permutations of one row (equal
    norms: the all-0.5 query ties them exactly, others nearly) and the rest
    duplicates of earlier rows, times ``scale``, with grid, all-0.5 and training-row
    queries. A tiny scale makes float32 products underflow; a huge one pushes S
    past the float32 range."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 101, d) / 100
    train = np.array([base[rng.permutation(d)] for _ in range(n_train)])
    duplicated = rng.random(n_train) < 0.3
    train[duplicated] = train[rng.integers(0, n_train, duplicated.sum())]
    labels = rng.integers(0, rng.integers(2, 5), n_train)
    queries = np.concatenate([rng.integers(0, 101, (6, d)) / 100, np.full((1, d), 0.5)])
    queries = np.concatenate([queries, train[rng.integers(0, n_train, 4)]])
    return train * scale, labels, queries * scale, k


@st.composite
def float32_key_cases(draw):
    """k = 1 to 5, 440-560 training rows and d on either side of 80: calls on both
    sides of the switch to float32 keys (>= 480 training rows, <= 80 features)."""
    k, n_train = draw(st.integers(1, 5)), draw(st.integers(440, 560))
    d = draw(st.one_of(st.integers(1, 8), st.integers(76, 84)))
    scale = draw(st.sampled_from((1.0, 1.0, 1e-19, 1e-20, 1e-22, 1e-30, 1e17, 1e30)))  # 1 drawn twice as often
    return float32_key_case(draw(st.integers(0, 2**32 - 1)), n_train, d, k, scale)


@given(float32_key_cases())
@example(float32_key_case(1, 479, 80, 1))  # one row short of 480: float64 keys
@example(float32_key_case(1, 480, 80, 1))
@example(float32_key_case(2, 479, 80, 5))
@example(float32_key_case(2, 480, 80, 5))
@example(float32_key_case(3, 480, 81, 2))  # one feature past 80: float64 keys
@example(float32_key_case(4, 480, 20, 1, 1e-30))  # every float32 product underflows
@example(float32_key_case(1, 480, 80, 5, 1e-22))  # float32 squares are a few subnormal steps
@example(float32_key_case(6, 480, 20, 1, 1e30))  # S past 2^120: float64 keys
def test_knn_float32_keys_match_predecessors(case):
    assert_matches_predecessors(*case)


@st.composite
def distance_cases(draw):
    """Rows at d = 1, past numpy's 128-wide pairwise-summation block, or
    between; on the 0.01 grid, whose squared differences tie often, or
    uniform. Small blocks split XA's rows into chunks of one row or more."""
    d = draw(st.one_of(st.just(1), st.integers(2, 40), st.integers(129, 300)))
    n_a, n_b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.integers(0, 101, (n_a + n_b, d)) / 100
    else:
        points = rng.uniform(-2.0, 2.0, (n_a + n_b, d))
    block = draw(st.sampled_from((2**20, 1, n_b * d, 2 * n_b * d + 1)))
    return points[:n_a], points[n_a:], block


@given(distance_cases())
@example((np.array([[0.25]]), np.array([[0.75]]), 2**20))
# 1 x 1 at d = 200: a sum over the last axis adds these pairwise, scipy in order
@example((np.arange(200)[None] / 100, np.full((1, 200), 0.37), 2**20))
def test_cdist_is_scipys_cdist_bit_for_bit(case):
    XA, XB, block = case
    with mock.patch.object(classifier, "_BLOCK", block):
        assert np.array_equal(classifier.cdist(XA, XB), cdist(XA, XB))
