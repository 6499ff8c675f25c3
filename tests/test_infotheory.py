import tracemalloc

import numpy as np
import pytest

from chainga.data import TRAIN, Dataset, RawTable, SyntheticSpec, generate_synthetic, prepare
from chainga.infotheory import build_omega, entropy, information_gain
from oracles import ref_entropy, ref_gain_ratio_tables, ref_information_gain


def test_entropy_constant_column():
    assert entropy(["a", "a", "a", "a"]) == 0.0


def test_entropy_fair_binary():
    assert entropy(["a", "b", "a", "b"]) == pytest.approx(1.0, abs=1e-12)


def test_entropy_three_symbol_golden():
    # -(0.5*log2(0.5) + 2 * 0.25*log2(0.25)) = 1.5
    assert entropy(["a", "a", "b", "c"]) == pytest.approx(1.5, abs=1e-12)


def test_entropy_empty_raises():
    with pytest.raises(ValueError):
        entropy([])


def test_entropy_matches_reference_on_random_columns():
    rng = np.random.default_rng(0)
    for _ in range(50):
        col = rng.integers(0, rng.integers(2, 8), size=rng.integers(1, 60))
        assert entropy(col) == pytest.approx(ref_entropy(col.tolist()), abs=1e-12)


def test_information_gain_perfect_predictor():
    target = [0, 1, 0, 1, 2, 2]
    assert information_gain(target, target) == pytest.approx(entropy(target), abs=1e-12)


def test_information_gain_constant_feature():
    assert information_gain([0, 1, 0, 1], ["x", "x", "x", "x"]) == pytest.approx(0.0, abs=1e-12)


def test_information_gain_two_way_partition_golden():
    # H(T)=1, conditional H = 3/4 * 0.918296 -> IG = 0.311278
    ig = information_gain([0, 0, 1, 1], ["x", "x", "x", "y"])
    assert ig == pytest.approx(0.3113, abs=1e-4)
    assert ig == pytest.approx(0.31127812, abs=1e-6)


def test_information_gain_length_mismatch():
    with pytest.raises(ValueError):
        information_gain([0, 1], [0, 1, 2])


def test_information_gain_symmetry_random_pairs():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        n = rng.integers(2, 40)
        a = rng.integers(0, rng.integers(2, 6), size=n)
        b = rng.integers(0, rng.integers(2, 6), size=n)
        worst = max(worst, abs(information_gain(a, b) - information_gain(b, a)))
    assert worst < 1e-9


def test_information_gain_bounds():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = rng.integers(2, 50)
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 5, size=n)
        ig = information_gain(a, b)
        assert 0.0 <= ig <= min(entropy(a), entropy(b)) + 1e-12


def _table_from_columns(columns, labels):
    names = [f"f{i}" for i in range(len(columns))] + ["y"]
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    cols.append(np.array([str(v) for v in labels], dtype=object))
    return RawTable(names, cols, "y")


def _tiny_dataset(columns, labels, bins=10):
    # few rows: everything lands in the training partition
    return prepare(_table_from_columns(columns, labels), bins=bins, split_seed=0)


def test_omega_feature_identical_to_label():
    with pytest.warns(UserWarning):
        ds = _tiny_dataset([[0, 1, 0, 1], [3, 7, 7, 3]], [0, 1, 0, 1])
    omega = build_omega(ds, rows=np.arange(4))
    assert omega.fc[0] == pytest.approx(1.0, abs=1e-12)


def test_omega_duplicated_feature_pair():
    with pytest.warns(UserWarning):
        ds = _tiny_dataset([[0, 5, 9, 0], [0, 5, 9, 0], [1, 1, 2, 2]], [0, 0, 1, 1])
    omega = build_omega(ds, rows=np.arange(4))
    assert omega.ff[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert omega.ff[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_omega_constant_feature_convention():
    with pytest.warns(UserWarning):
        ds = _tiny_dataset([[7, 7, 7, 7], [0, 1, 2, 3]], [0, 1, 0, 1])
    omega = build_omega(ds, rows=np.arange(4))
    assert omega.fc[0] == 0.0
    assert np.all(omega.ff[0] == 0.0)
    assert omega.ff[1, 0] == 0.0  # no information about a constant column


def test_omega_matches_naive_oracle(small_dataset):
    omega = build_omega(small_dataset)
    rows = small_dataset.train_idx
    columns = [small_dataset.X_disc[rows, j].tolist() for j in range(small_dataset.d)]
    fc_ref, ff_ref = ref_gain_ratio_tables(columns, small_dataset.y[rows].tolist())
    assert np.max(np.abs(omega.fc - np.array(fc_ref))) < 1e-9
    assert np.max(np.abs(omega.ff - np.array(ff_ref))) < 1e-9


def test_omega_row_permutation_invariance(small_dataset):
    rng = np.random.default_rng(5)
    rows = small_dataset.train_idx
    base = build_omega(small_dataset, rows=rows)
    shuffled = build_omega(small_dataset, rows=rng.permutation(rows))
    assert np.array_equal(base.fc, shuffled.fc)
    assert np.array_equal(base.ff, shuffled.ff)


def test_omega_bounds_and_finiteness(small_dataset):
    omega = build_omega(small_dataset)
    assert np.all(np.isfinite(omega.fc)) and np.all(np.isfinite(omega.ff))
    assert np.all((omega.fc >= 0) & (omega.fc <= 1))
    assert np.all((omega.ff >= 0) & (omega.ff <= 1))
    assert np.all(np.diag(omega.ff) == 0.0)


def test_omega_build_peak_allocation_at_a_wide_shape():
    # ten-code columns at n=300, d=1000: ff alone is 7.6 MiB, and the
    # feature-major codes and the cell buffer 2.3 MiB each; the row-wise
    # predecessor, with its n×(d−1−i) joint-code temporaries, peaked at 17.6 MiB
    rng = np.random.default_rng(0)
    n, d = 300, 1000
    ds = Dataset(
        X_cont=np.zeros((n, d)),
        X_disc=rng.integers(0, 10, size=(n, d)),
        y=rng.integers(0, 2, size=n),
        split=np.full(n, TRAIN),
        feature_names=[f"f{j}" for j in range(d)],
        class_names=["0", "1"],
        bins=10,
    )
    tracemalloc.start()
    try:
        build_omega(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_prepare_peak_allocation_at_a_wide_shape():
    # 300 rows × 500 numeric columns: X_cont and X_disc are 1.1 MiB each, and
    # the bound leaves room for one full-size temporary, the feature-major
    # stack of the columns; the column-wise predecessor peaked at 2.3 MiB
    rng = np.random.default_rng(0)
    n, d = 300, 500
    X = rng.normal(size=(d, n))
    labels = np.array(["a", "b"] * (n // 2), dtype=object)
    raw = RawTable([f"f{j}" for j in range(d)] + ["class"], [*X, labels], "class")
    tracemalloc.start()
    try:
        prepare(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_omega_needs_two_rows(small_dataset):
    with pytest.raises(ValueError):
        build_omega(small_dataset, rows=np.array([0]))


def test_omega_redundant_copy_outscores_noise():
    ds = generate_synthetic(
        SyntheticSpec(n_rows=200, n_informative=4, n_redundant=2, n_noise=6, n_classes=2, seed=1)
    )
    omega = build_omega(ds)
    # features 0..3 informative, 4..5 jittered copies of 0..1, 6..11 noise
    for src, copy in ((0, 4), (1, 5)):
        noise_ff = omega.ff[src, 6:]
        assert omega.ff[src, copy] > noise_ff.max()

