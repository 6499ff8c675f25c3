import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from chainga import classifier
from chainga.classifier import (
    FitnessEvaluator,
    combine_fitness,
    evaluate_metrics,
    knn_predict,
    mask_key,
)
from oracles import cdist_knn_predict


def test_knn_zero_distance_k1():
    train = np.array([[0.1, 0.2], [0.9, 0.8], [0.5, 0.5]])
    labels = np.array([0, 1, 2])
    pred = knn_predict(train, labels, train[[1]], k=1)
    assert pred.tolist() == [1]


def test_knn_unanimous_labels():
    rng = np.random.default_rng(0)
    train = rng.random((20, 3))
    labels = np.full(20, 4)
    pred = knn_predict(train, labels, rng.random((7, 3)), k=5)
    assert np.all(pred == 4)


def test_knn_planar_toy_hand_table():
    # class-0 cluster near the origin, class-1 cluster near (5, 5)
    train = np.array([[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]], dtype=float)
    labels = np.array([0, 0, 0, 1, 1, 1])
    queries = np.array([[0.4, 0.4], [5.4, 5.4], [0.0, 0.2], [6.0, 5.5]])
    # k=5 vote: 3 nearest cluster members beat the 2 from the far cluster
    pred = knn_predict(train, labels, queries, k=5)
    assert pred.tolist() == [0, 1, 0, 1]


def test_knn_distance_tie_lower_train_index_wins():
    train = np.array([[0.5, 0.5], [0.5, 0.5]])
    labels = np.array([1, 0])
    pred = knn_predict(train, labels, np.array([[0.5, 0.5]]), k=1)
    assert pred.tolist() == [1]


def test_knn_vote_tie_broken_by_nearest_class():
    # distances from the origin query: A at 1.0 and 3.0, B at 2.0 and 2.5
    train = np.array([[1, 0], [0, 2], [2.5, 0], [0, 3]], dtype=float)
    labels = np.array([0, 1, 1, 0])
    pred = knn_predict(train, labels, np.array([[0.0, 0.0]]), k=4)
    assert pred.tolist() == [0]


@pytest.mark.parametrize(("rows_per_block", "equal_rows"), [(1, False), (3, False), (1, True), (3, True)],
                         ids=["1", "3", "1-all-equal", "3-all-equal"])
def test_knn_query_blocks_match_oracle(monkeypatch, rows_per_block, equal_rows):
    # d=41 rows that permute one point on the 0.01 grid tie or nearly tie;
    # all-equal rows tie exactly, so every query refines over all 30 rows
    rng = np.random.default_rng(7)
    base = rng.integers(0, 101, 41) / 100
    train = np.array([base[rng.permutation(41)] for _ in range(30)])
    if equal_rows:
        train = np.tile(base, (30, 1))
    labels = rng.integers(0, 4, 30)
    queries = np.concatenate([rng.integers(0, 101, (14, 41)) / 100, np.full((1, 41), 0.5), train[[0, 3]]])
    monkeypatch.setattr(classifier, "_BLOCK", rows_per_block * len(train))
    for k in (1, 5, 30, 32):
        assert np.array_equal(knn_predict(train, labels, queries, k), cdist_knn_predict(train, labels, queries, k))


def test_knn_all_tie_refine_memory_stays_within_its_blocks():
    # every query refines over all 100 training rows: unchunked, the refine's
    # (2100, 100, 64) differences alone would take 102.5 MiB
    train, queries = np.full((100, 64), 0.5), np.full((2100, 64), 0.5)
    labels = np.arange(100) % 3
    tracemalloc.start()
    try:
        pred = knn_predict(train, labels, queries, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pred.tolist() == [0] * 2100  # classes 0 and 1 tie 2-2; row 0 ranks first
    assert peak < 32 * 2**20

def test_knn_calls_cdist_once_per_refining_block_with_its_queries(monkeypatch):
    calls = []

    def recording_cdist(XA, XB):
        calls.append((XA, XB))
        return cdist(XA, XB)

    monkeypatch.setattr(classifier, "cdist", recording_cdist)
    # k=1 on well-separated rows: one candidate each, so every query settles
    rng = np.random.default_rng(3)
    train, labels, queries = rng.random((40, 5)), rng.integers(0, 3, 40), rng.random((25, 5))
    assert np.array_equal(knn_predict(train, labels, queries, 1), cdist_knn_predict(train, labels, queries, 1))
    assert calls == []
    # all-equal training rows: every query refines, over every training row
    train, labels, queries = np.full((10, 5), 0.5), labels[:10], queries[:6]
    monkeypatch.setattr(classifier, "_BLOCK", 3 * len(train))  # two blocks of 3 queries
    assert np.array_equal(knn_predict(train, labels, queries, 4), cdist_knn_predict(train, labels, queries, 4))
    assert len(calls) == 2
    for (refined, candidates), block in zip(calls, (queries[:3], queries[3:])):
        assert np.array_equal(refined, block)
        assert np.array_equal(candidates, train)


def key_dtypes(monkeypatch) -> list:
    """The dtype of every key matrix ``knn_predict`` partitions from now on."""
    seen, partition = [], np.partition
    monkeypatch.setattr(np, "partition", lambda a, *args, **kw: seen.append(a.dtype) or partition(a, *args, **kw))
    return seen


def test_knn_kdd41_shape_float32_keys_match_oracle(monkeypatch):
    # 800 x 20 training rows on the 0.01 grid, as a kdd41 call has, each a
    # permutation of one of four rows: equal norms, so distances tie or nearly
    # tie, and float32 keys round them apart
    rng = np.random.default_rng(0)
    bases, labels = rng.integers(0, 101, (4, 20)) / 100, rng.integers(0, 5, 800)
    train = np.array([bases[i % 4][rng.permutation(20)] for i in range(800)])
    queries = np.concatenate([rng.integers(0, 101, (99, 20)) / 100, np.full((1, 20), 0.5)])
    expected = cdist_knn_predict(train, labels, queries, 5)
    seen = key_dtypes(monkeypatch)
    assert np.array_equal(knn_predict(train, labels, queries, 5), expected)
    assert seen == [np.float32]


@pytest.mark.parametrize(("n_train", "d", "scale", "dtype"), [
    (479, 80, 1.0, np.float64),  # one row short of 480
    (480, 80, 1.0, np.float32),
    (480, 81, 1.0, np.float64),  # one feature past 80
    (480, 2, 1e17, np.float32),
    (480, 2, 1e18, np.float64),  # S past 2^120: float32 keys could overflow
])
def test_knn_keys_are_float32_for_many_rows_few_features_and_finite_float32_values(
        monkeypatch, n_train, d, scale, dtype):
    rng = np.random.default_rng(5)
    train, labels, queries = rng.random((n_train, d)) * scale, rng.integers(0, 3, n_train), rng.random((9, d)) * scale
    expected = cdist_knn_predict(train, labels, queries, 2)
    seen = key_dtypes(monkeypatch)
    assert np.array_equal(knn_predict(train, labels, queries, 2), expected)
    assert seen == [dtype]


def test_knn_deterministic():
    rng = np.random.default_rng(1)
    train = rng.random((50, 4))
    labels = rng.integers(0, 3, 50)
    queries = rng.random((20, 4))
    first = knn_predict(train, labels, queries, k=5)
    second = knn_predict(train, labels, queries, k=5)
    assert np.array_equal(first, second)


def test_metrics_perfect_prediction():
    y = np.array([0, 1, 2, 1, 0])
    m = evaluate_metrics(y, y, 3)
    assert m.accuracy == m.precision == m.recall == m.f1 == 1.0


def test_metrics_binary_hand_case():
    m = evaluate_metrics([1, 1, 0, 0], [1, 0, 0, 0], 2)
    # class 0: precision 2/3, recall 1, F1 4/5; class 1: 1, 1/2, 2/3; equal support
    assert m.accuracy == 0.75
    assert m.precision == pytest.approx(5 / 6, abs=1e-12)
    assert m.recall == pytest.approx(3 / 4, abs=1e-12)
    assert m.f1 == pytest.approx(11 / 15, abs=1e-12)


def test_metrics_single_class_predictions_on_balanced_truth():
    m = evaluate_metrics([0, 0, 1, 1], [1, 1, 1, 1], 2)
    assert m.accuracy == 0.5
    assert m.f1 == pytest.approx(1 / 3, abs=1e-12)


def test_metrics_accuracy_equals_mean():
    rng = np.random.default_rng(3)
    y_true = rng.integers(0, 4, 200)
    y_pred = rng.integers(0, 4, 200)
    m = evaluate_metrics(y_true, y_pred, 4)
    assert m.accuracy == np.mean(y_true == y_pred)


def test_metrics_weighted_aggregates_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(50):
        y_true = rng.integers(0, 5, 60)
        y_pred = rng.integers(0, 5, 60)
        m = evaluate_metrics(y_true, y_pred, 5)
        for v in (m.precision, m.recall, m.f1):
            assert 0.0 <= v <= 1.0


def test_combine_fitness_reported_row():
    # accuracy 0.994 with 8 of 41 features kept
    assert combine_fitness(0.994, 8, 41, alpha=0.01) == pytest.approx(0.99211, abs=1e-5)


def test_combine_fitness_full_mask():
    assert combine_fitness(0.9, 41, 41, alpha=0.01) == pytest.approx(0.99 * 0.9, abs=1e-12)


def test_combine_fitness_tiny_subset():
    assert combine_fitness(1.0, 1, 100, alpha=0.01) == pytest.approx(0.9999, abs=1e-12)


def test_fitness_monotonicity_grid():
    accs = np.linspace(0.0, 1.0, 100)
    values = [combine_fitness(a, 10, 40, alpha=0.01) for a in accs]
    assert all(b > a for a, b in zip(values, values[1:]))
    sizes = range(1, 41)
    values = [combine_fitness(0.8, n, 40, alpha=0.01) for n in sizes]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_evaluator_cache_transparency(small_dataset):
    mask = np.zeros(small_dataset.d, dtype=bool)
    mask[[0, 2, 5]] = True
    one = FitnessEvaluator(small_dataset, 0.01, 5, {})
    fresh = one.evaluate(mask)
    cached = one.evaluate(mask)
    other = FitnessEvaluator(small_dataset, 0.01, 5, {}).evaluate(mask)
    assert fresh == cached == other


@pytest.fixture
def knn_calls(monkeypatch) -> list:
    """The feature count of every KNN run, recorded from outside the library."""
    calls = []
    predict = classifier.knn_predict

    def recording(train_X, train_y, query_X, k):
        calls.append(train_X.shape[1])
        return predict(train_X, train_y, query_X, k)

    monkeypatch.setattr(classifier, "knn_predict", recording)
    return calls


def test_evaluator_cache_skips_classifier(small_dataset, knn_calls):
    evaluator = FitnessEvaluator(small_dataset, 0.01, 5, {})
    mask = np.ones(small_dataset.d, dtype=bool)
    first = evaluator.evaluate(mask)
    assert len(knn_calls) == 1
    for _ in range(5):
        assert evaluator.evaluate(mask) == first
    assert len(knn_calls) == 1


@pytest.mark.parametrize("threads", [0, 2])
def test_evaluate_many_runs_each_new_mask_once(small_dataset, knn_calls, threads):
    masks = [np.zeros(small_dataset.d, dtype=bool) for _ in range(4)]
    for mask, features in zip(masks, ([0, 2], [1], [0, 2, 5], [3])):
        mask[features] = True
    evaluator = FitnessEvaluator(small_dataset, 0.01, 5, {})
    evaluator.evaluate(masks[3])  # cached before the batch
    batch = [masks[0], masks[1], masks[0], masks[2], masks[3], masks[1]]
    with ThreadPoolExecutor(threads) if threads else nullcontext() as pool:
        records = evaluator.evaluate_many(batch, pool)
    assert sorted(knn_calls) == [1, 1, 2, 3]  # masks[3] once, then each new mask once
    fresh = FitnessEvaluator(small_dataset, 0.01, 5, {})
    assert records == [fresh.evaluate(m) for m in batch]
    assert len(evaluator.cache) == 4


def test_evaluate_many_pool_stress(small_dataset, knn_calls):
    # more threads than cores and a short switch interval, so the pool's
    # threads interleave inside evaluate: a lost or doubled cache write
    # shows as a wrong cache size or an extra KNN run
    rng = np.random.default_rng(0)
    masks = list({tuple(row): row for row in rng.random((60, small_dataset.d)) < 0.5 if row.any()}.values())
    shuffled = list(rng.permutation(masks * 2))  # every mask twice
    batches = [shuffled[t::4] for t in range(4)]
    evaluator = FitnessEvaluator(small_dataset, 0.01, 5, {})
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            worker = threading.Thread(
                target=lambda: [evaluator.evaluate_many(batch, pool) for batch in batches]
            )
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert len(knn_calls) == len(evaluator.cache) == len(masks)


def test_record_genes_are_a_read_only_copy_of_the_mask(small_dataset):
    evaluator = FitnessEvaluator(small_dataset, 0.01, 5, {})
    bits = np.arange(small_dataset.d) < 3
    mask = bits.copy()
    key = mask_key(mask)
    record = evaluator.evaluate(mask)
    assert np.array_equal(record.genes, bits) and record.genes is not mask
    assert not record.genes.flags.writeable
    with pytest.raises(ValueError):
        record.genes[0] = True
    mask[:] = ~mask  # the caller reuses its mask
    assert np.array_equal(record.genes, bits)
    assert evaluator.cache[key] is record and evaluator.evaluate(bits) is record
    # equal scores make equal records, whatever the genes
    assert replace(record, genes=~record.genes) == record


def test_evaluator_test_metrics_reasonable(small_dataset):
    mask = np.zeros(small_dataset.d, dtype=bool)
    mask[:3] = True  # the informative block
    metrics = FitnessEvaluator(small_dataset, 0.01, 5, {}).test_metrics(mask)
    assert metrics.accuracy > 0.5
