import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from chainga import data
from chainga.data import (
    BLOCK_ROWS,
    DataError,
    RawTable,
    TRAIN,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    prepare,
    subsample_raw,
)
from conftest import dataset_path
from oracles import columnwise_load_csv, ref_gain_ratio_tables


def _write(tmp_path, text, name="table.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "a,b,class\n1,x,yes\n2,y,no\n3,x,yes\n4,z,no\n")
    raw = load_csv(path, "class")
    assert raw.n_rows == 4
    assert [n for n in raw.names if n != "class"] == ["a", "b"]
    assert [column.dtype != object for column in raw.columns] == [True, False, False]


def test_load_csv_ragged_row(tmp_path):
    path = _write(tmp_path, "a,b,class\n1,2,yes\n3,no\n")
    with pytest.raises(DataError, match="ragged"):
        load_csv(path, "class")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_csv(tmp_path / "absent.csv", "class")


def test_load_csv_missing_label_column(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n")
    with pytest.raises(DataError, match="label column"):
        load_csv(path, "class")


def test_load_csv_empty_table(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(DataError, match="empty"):
        load_csv(path, "class")
    path = _write(tmp_path, "a,b,class\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(path, "class")


def test_load_csv_single_label_value(tmp_path):
    path = _write(tmp_path, "a,class\n1,same\n2,same\n")
    with pytest.raises(DataError, match="distinct"):
        load_csv(path, "class")


def test_numeric_labels_zero_and_minus_zero_are_one_class(tmp_path):
    labels = ["0", "-0", "1"] * 10
    path = _write(tmp_path, "a,class\n" + "".join(f"{i},{y}\n" for i, y in enumerate(labels)))
    raw = load_csv(path, "class")
    assert np.signbit(raw.columns[1]).sum() == 10  # the column itself is kept as read
    ds = prepare(raw)
    assert ds.class_names == ["0.0", "1.0"]
    assert np.bincount(ds.y).tolist() == [20, 10]
    assert sorted(set(subsample_raw(raw, 3, seed=0).label_values().tolist())) == [0.0, 1.0]
    zeros = _write(tmp_path, "a,class\n1,0\n2,-0\n3,0\n", name="zeros.csv")
    with pytest.raises(DataError, match="distinct"):
        load_csv(zeros, "class")


def test_load_csv_no_header(tmp_path):
    path = _write(tmp_path, "1,0,yes\n2,1,no\n", name="plain.csv")
    raw = load_csv(path, "f2", header=False)
    assert raw.n_rows == 2 and raw.names == ["f0", "f1", "f2"]


def test_load_csv_inf_is_a_category_in_text_columns(tmp_path):
    path = _write(tmp_path, "a,class\nlow,x\ninf,y\nlow,x\n")
    raw = load_csv(path, "class")
    assert [column.dtype for column in raw.columns] == [object, object]


def _parses(monkeypatch) -> list:
    """One entry per parse of CSV text by the loader."""
    parses, rows = [], data._rows
    monkeypatch.setattr(data, "_rows", lambda text: parses.append(1) or rows(text))
    return parses


def _assert_same_table(raw, ref):
    assert (raw.names, raw.label_column) == (ref.names, ref.label_column)
    for column, ref_column in zip(raw.columns, ref.columns, strict=True):
        assert column.dtype == ref_column.dtype and column.tolist() == ref_column.tolist()


def test_load_csv_spoilers_in_later_blocks_match_the_columnwise_loader(tmp_path):
    # three blocks of BLOCK_ROWS rows; each spoiler sits in the last one
    n = 2 * BLOCK_ROWS + 5
    rows = [f"{i},{i % 7},{i / 4},{'xy'[i % 2]}" for i in range(n)]
    rows[n - 2] = rows[n - 2].split(",", 1)[0] + ",?,text," + "xy"[n % 2]
    path = _write(tmp_path, "a,b,c,class\n" + "\n".join(rows) + "\n")
    raw, ref = load_csv(path, "class"), columnwise_load_csv(path, "class")
    assert [column.dtype.kind for column in raw.columns] == ["f", "f", "O", "O"]
    _assert_same_table(raw, ref)


def test_load_csv_parses_once_when_text_columns_are_text_from_row_one(tmp_path, monkeypatch):
    # kdd41-shaped: numeric columns among three categorical ones and a text
    # label, each text from row 1, over three blocks; a "?" in a later block
    n = 2 * BLOCK_ROWS + 5
    rows = [
        f"{i % 5},{('tcp', 'udp', 'icmp')[i % 3]},{('http', 'ftp', 'smtp', 'dns')[i % 4]},"
        f"{('SF', 'S0', 'REJ')[i % 3]},{i * 0.25},{('normal', 'dos', 'probe')[i % 3]}"
        for i in range(n)
    ]
    cells = rows[n - 3].split(",")
    rows[n - 3] = ",".join(cells[:2] + ["?"] + cells[3:])
    path = _write(tmp_path, "duration,protocol_type,service,flag,src_bytes,class\n" + "\n".join(rows) + "\n")
    parses = _parses(monkeypatch)
    raw = load_csv(path, "class")
    assert len(parses) == 1
    ref = columnwise_load_csv(path, "class")
    assert [column.dtype.kind for column in raw.columns] == ["f", "O", "O", "O", "f", "O"]
    _assert_same_table(raw, ref)


def test_load_csv_parses_again_for_a_column_that_turns_text_later(tmp_path, monkeypatch):
    # blocks of two rows: "b" is numeric in the first two blocks and text in the third
    monkeypatch.setattr(data, "BLOCK_ROWS", 2)
    path = _write(tmp_path, "a,b,class\nx,1,p\ny,2,q\nx,3,p\ny,4,q\nx,five,p\ny,6,q\nx,?,p\n")
    parses = _parses(monkeypatch)
    raw = load_csv(path, "class")
    assert len(parses) == 2
    ref = columnwise_load_csv(path, "class")
    assert [column.dtype.kind for column in raw.columns] == ["O", "O", "O"]
    _assert_same_table(raw, ref)


def test_load_csv_imputes_and_reports(tmp_path):
    path = _write(tmp_path, "a,b,class\n1,x,yes\n?,y,no\n3,?,yes\n5,y,no\n")
    raw = load_csv(path, "class")
    assert raw.columns[0].tolist() == [1.0, 3.0, 3.0, 5.0]  # median of {1,3,5}
    assert raw.columns[1].tolist() == ["x", "y", "y", "y"]  # mode


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("class,a\nyes,1\nno,2\n".encode("utf-8-sig"))
    assert load_csv(path, "class").names == ["class", "a"]


@pytest.mark.parametrize("header", ["a,a,class", "class,x,class"])
def test_load_csv_repeated_column_name_is_data_error(tmp_path, header):
    path = _write(tmp_path, f"{header}\n1,?,yes\n?,2,no\n3,4,yes\n")
    with pytest.raises(DataError, match="repeats column name"):
        load_csv(path, "class")


def test_load_csv_sonar_shape():
    path = dataset_path("sonar")
    if path is None:
        pytest.skip("sonar.csv not present under data/ (no network in this sandbox); "
                    "see scripts/fetch_datasets.py")
    raw = load_csv(path, "class", header=True)
    assert raw.n_rows == 208
    assert len([n for n in raw.names if n != "class"]) == 60
    assert len(set(raw.label_values().astype(str))) == 2


def _three_row_table():
    return RawTable(
        names=["v", "class"],
        columns=[np.array([0.0, 5.0, 10.0]), np.array(["a", "b", "a"], dtype=object)],
        label_column="class",
    )


def test_prepare_minmax_and_equal_width_bins():
    with pytest.warns(UserWarning):
        ds = prepare(_three_row_table(), bins=2, split_seed=0)
    assert ds.X_cont[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert ds.X_disc[:, 0].tolist() == [0, 1, 1]  # right-closed top bin


def test_prepare_constant_column():
    table = RawTable(
        names=["v", "class"],
        columns=[np.array([7.0, 7.0, 7.0]), np.array(["a", "b", "a"], dtype=object)],
        label_column="class",
    )
    with pytest.warns(UserWarning):
        ds = prepare(table, bins=4, split_seed=0)
    assert ds.X_cont[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert ds.X_disc[:, 0].tolist() == [0, 0, 0]


def test_prepare_bins_validation():
    with pytest.raises(DataError):
        prepare(_three_row_table(), bins=1)


def test_prepare_rejects_a_column_too_narrow_to_bin():
    # 5e-324 / 10 rounds to 0: both values fell in bin 0 behind a cast warning
    table = RawTable(
        names=["tiny", "class"],
        columns=[np.array([0.0, 5e-324] * 15), np.array(["a", "b", "c"] * 10, dtype=object)],
        label_column="class",
    )
    with pytest.raises(DataError, match="'tiny'"):
        prepare(table, bins=10)


def test_prepare_bins_a_held_out_value_past_a_subnormal_training_span_in_the_top_bin():
    # a span of 1e-310 over 10 bins scales the held-out 1.0 past float64, into the top bin
    column = np.array([0.0, 1e-310] * 20)
    column[4] = 1.0
    table = RawTable(
        names=["tiny", "class"],
        columns=[column, np.array(["a", "b"] * 20, dtype=object)],
        label_column="class",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = prepare(table, bins=10, split_seed=0)
    assert ds.split[4] != TRAIN
    assert ds.X_cont[4, 0] == 1.0
    assert ds.X_disc[4, 0] == 9


# prepare's X_cont for 1000 drawn tables of 0.0, -0.0 and small values, hashed
SIGN_PROBE = """
import hashlib, warnings
import numpy as np
from chainga.data import RawTable, prepare

warnings.simplefilter("ignore", UserWarning)  # the small-class fallback warns
rng = np.random.default_rng(0)
pool = np.array([0.0, -0.0, 1e-3, -1e-3, 0.25, 1.0])
digest, signed = hashlib.sha256(), 0
for _ in range(1000):
    n, d = rng.integers(3, 31), rng.integers(1, 6)
    labels = np.array(["p", "q"], dtype=object)[rng.integers(0, 2, n)]
    raw = RawTable([f"f{j}" for j in range(d)] + ["class"], [*rng.choice(pool, (d, n)), labels], "class")
    X_cont = prepare(raw).X_cont
    digest.update(X_cont.tobytes())
    signed += bool(np.signbit(X_cont).any())
print(digest.hexdigest(), signed)
"""


def test_prepare_x_cont_does_not_depend_on_the_simd_kernel():
    # clip's sign of a zero depends on the kernel numpy dispatches to; X_cont
    # holds no -0.0, so it hashes the same whatever the CPU features allowed
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for disabled in ("", "X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"):
        env = {**os.environ, "PYTHONPATH": str(src), "NPY_DISABLE_CPU_FEATURES": disabled}
        proc = subprocess.run([sys.executable, "-c", SIGN_PROBE], capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        digest, signed = proc.stdout.split()
        assert signed == "0", f"{signed} tables hold -0.0 with {disabled!r} disabled"
        outputs.add(digest)
    assert len(outputs) == 1


def _balanced_table(n=100):
    rng = np.random.default_rng(42)
    return RawTable(
        names=["x", "class"],
        columns=[rng.random(n), np.array(["p"] * (n // 2) + ["q"] * (n // 2), dtype=object)],
        label_column="class",
    )


def test_prepare_stratified_split_sizes():
    ds = prepare(_balanced_table(), bins=5, split_seed=7)
    assert ds.train_idx.size == 80 and ds.val_idx.size == 10 and ds.test_idx.size == 10
    for c in (0, 1):
        counts = [np.sum(ds.y[ds.indices(part)] == c) for part in (0, 1, 2)]
        assert counts == [40, 5, 5]


def test_prepare_row_conservation():
    ds = prepare(_balanced_table(), bins=5, split_seed=1)
    assert ds.train_idx.size + ds.val_idx.size + ds.test_idx.size == ds.n_rows


def test_prepare_deterministic():
    a = prepare(_balanced_table(), bins=6, split_seed=3)
    b = prepare(_balanced_table(), bins=6, split_seed=3)
    assert np.array_equal(a.X_cont, b.X_cont)
    assert np.array_equal(a.X_disc, b.X_disc)
    assert np.array_equal(a.split, b.split)
    assert a.digest() == b.digest()


def test_prepare_rank_order_preserved():
    rng = np.random.default_rng(9)
    values = rng.permutation(np.linspace(-4.0, 9.0, 60))
    table = RawTable(
        names=["x", "class"],
        columns=[values, np.array(["a", "b"] * 30, dtype=object)],
        label_column="class",
    )
    ds = prepare(table, bins=8, split_seed=0)
    assert np.array_equal(np.argsort(values), np.argsort(ds.X_cont[:, 0]))


def test_prepare_equal_values_get_equal_bins():
    rng = np.random.default_rng(10)
    values = rng.integers(0, 5, 80).astype(float)
    table = RawTable(
        names=["x", "class"],
        columns=[values, np.array(["a", "b"] * 40, dtype=object)],
        label_column="class",
    )
    ds = prepare(table, bins=3, split_seed=0)
    for v in np.unique(values):
        assert len(np.unique(ds.X_disc[values == v, 0])) == 1


def test_prepare_small_class_fallback_warns():
    table = RawTable(
        names=["x", "class"],
        columns=[
            np.arange(23, dtype=float),
            np.array(["a"] * 10 + ["b"] * 11 + ["rare"] * 2, dtype=object),
        ],
        label_column="class",
    )
    with pytest.warns(UserWarning, match="fewer than 3"):
        ds = prepare(table, bins=4, split_seed=0)
    assert ds.n_rows == 23
    # stratified classes keep one row in every partition
    for c in (0, 1):
        for part in (0, 1, 2):
            assert np.sum(ds.y[ds.indices(part)] == c) >= 1


def test_synthetic_requires_informative():
    with pytest.raises(DataError):
        SyntheticSpec(n_rows=50, n_informative=0, n_redundant=0, n_noise=5)


def test_synthetic_deterministic():
    spec = SyntheticSpec(n_rows=80, n_informative=2, n_redundant=1, n_noise=3, seed=5)
    a, b = generate_synthetic(spec), generate_synthetic(spec)
    assert np.array_equal(a.X_cont, b.X_cont)
    assert np.array_equal(a.y, b.y)
    assert a.digest() == b.digest()


def test_synthetic_informative_gain_ratio_beats_noise():
    spec = SyntheticSpec(n_rows=200, n_informative=4, n_redundant=2, n_noise=6, n_classes=2, seed=1)
    ds = generate_synthetic(spec)
    rows = ds.train_idx
    columns = [ds.X_disc[rows, j].tolist() for j in range(ds.d)]
    fc, _ = ref_gain_ratio_tables(columns, ds.y[rows].tolist())
    informative = np.mean(fc[:4])
    noise = np.mean(fc[6:])
    assert informative > noise


def test_dataset_views_read_only(small_dataset):
    with pytest.raises(ValueError):
        small_dataset.X_cont[0, 0] = 0.5


def test_subsample_stratified_and_deterministic():
    table = _balanced_table(200)
    sub = subsample_raw(table, 50, seed=4)
    assert sub.n_rows == 50
    labels = sub.label_values().astype(str)
    assert np.sum(labels == "p") == 25 and np.sum(labels == "q") == 25
    again = subsample_raw(table, 50, seed=4)
    assert np.array_equal(sub.columns[0], again.columns[0])
