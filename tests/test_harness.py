import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from chainga import cli, harness
from chainga.harness import (
    ABLATION_ROWS,
    ConfigError,
    ablation_overrides,
    aggregate_rows,
    cmd_ablation,
    cmd_run,
    cmd_sensitivity,
    load_run_config,
)
from conftest import read_table

EVOLUTION = {
    "population_size": 6,
    "subpopulations": 3,
    "elites": 1,
    "generations": 2,
    "mutation_prob": 0.2,
    "alpha": 0.01,
    "knn_k": 3,
}

MANIFEST = {
    "type": "synthetic",
    "rows": 90,
    "informative": 2,
    "redundant": 1,
    "noise": 3,
    "classes": 2,
    "seed": 5,
}


def write_configs(tmp_path, seeds=(1, 2), evolution=None, manifest=None, extra=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    manifest_path = tmp_path / "dataset.yaml"
    manifest_path.write_text(yaml.safe_dump(manifest or MANIFEST), encoding="utf-8")
    config = {
        "dataset": "dataset.yaml",
        "seeds": list(seeds),
        "bins": 6,
        "evolution": dict(evolution or EVOLUTION),
    }
    config.update(extra or {})
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return config_path


def test_cmd_run_writes_tables_with_metric_layout(tmp_path):
    cfg = load_run_config(write_configs(tmp_path))
    out = tmp_path / "out"
    cmd_run(cfg, out)
    for name in ("per_seed.csv", "aggregate.csv", "trace.csv", "timings.csv", "run_manifest.yaml"):
        assert (out / name).exists()
    rows = read_table(out / "per_seed.csv")
    assert len(rows) == 2
    header = list(rows[0])
    assert header[:7] == [
        "seed", "accuracy", "precision", "recall", "f1_score", "feature_ratio", "fitness",
    ]
    for row in rows:
        assert len(row["mask"]) == 6  # one bit per feature
        assert row["mask"].count("1") == int(row["n_selected"])


def test_cmd_run_byte_identical_reruns(tmp_path):
    config_path = write_configs(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cmd_run(load_run_config(config_path), out1)
    cmd_run(load_run_config(config_path), out2)
    for name in ("per_seed.csv", "aggregate.csv", "trace.csv", "run_manifest.yaml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cmd_run_aggregate_recomputable(tmp_path):
    cfg = load_run_config(write_configs(tmp_path, seeds=(1, 2, 3)))
    out = tmp_path / "out"
    cmd_run(cfg, out)
    per_seed = read_table(out / "per_seed.csv")
    parsed = [
        {key: float(row[key]) for key in
         ("accuracy", "precision", "recall", "f1_score", "feature_ratio", "fitness")}
        for row in per_seed
    ]
    expected = aggregate_rows(parsed)
    actual = read_table(out / "aggregate.csv")
    assert len(actual) == 4
    for exp, act in zip(expected, actual):
        assert act["stat"] == exp["stat"]
        for key, value in exp.items():
            if key != "stat":
                assert act[key] == f"{value:.6f}"


def test_tables_round_trip_through_reader(tmp_path):
    cfg = load_run_config(write_configs(tmp_path))
    out = tmp_path / "out"
    cmd_run(cfg, out)
    for name in ("per_seed.csv", "aggregate.csv", "trace.csv"):
        rows = read_table(out / name)
        assert rows and all(None not in row.values() for row in rows)


def test_cli_run_exit_codes(tmp_path):
    config_path = write_configs(tmp_path)
    assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "ok")]) == 0
    bad_evo = dict(EVOLUTION, subpopulations=4, population_size=30)
    bad_path = write_configs(tmp_path / "bad", evolution=bad_evo)
    assert cli.main(["run", "--config", str(bad_path), "--out", str(tmp_path / "bad_out")]) == 1


def test_cli_missing_config_is_config_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 1


def test_cli_missing_csv_is_data_error(tmp_path):
    manifest = {"type": "csv", "path": "absent.csv", "label_column": "class"}
    config_path = write_configs(tmp_path, manifest=manifest)
    assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2


def test_cli_label_only_csv_is_data_error(tmp_path, capsys):
    # with no feature column left, the GA's first repair drew from an empty range
    (tmp_path / "table.csv").write_text("class\n" + "a\nb\n" * 6, encoding="utf-8")
    manifest = {"type": "csv", "path": "table.csv", "label_column": "class"}
    config_path = write_configs(tmp_path, seeds=(1,), manifest=manifest)  # N=6, M=3, S=1, T=2
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "no feature column" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_csv_column_range_past_float64_is_data_error(tmp_path, capsys):
    # 1e308 - (-1e308) is inf: the scaled column held NaN and KNN voted over nothing
    rows = [f"{i},{i % 7},c{i % 2}" for i in range(60)]
    rows[:2] = ["1e308,0,c0", "-1e308,1,c1"]
    (tmp_path / "table.csv").write_text("x,y,class\n" + "\n".join(rows) + "\n", encoding="utf-8")
    manifest = {"type": "csv", "path": "table.csv", "label_column": "class"}
    config_path = write_configs(tmp_path, seeds=(1,), manifest=manifest,
                                evolution=dict(EVOLUTION, generations=3))  # N=6, M=3, S=1, T=3
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "'x'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "ablation"])
def test_cli_data_error_removes_only_the_directories_it_made(tmp_path, capsys, command):
    manifest = {"type": "csv", "path": "absent.csv", "label_column": "class"}
    config_path = write_configs(tmp_path, manifest=manifest)
    out = tmp_path / "new" / "out"
    assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 2
    assert "data error:" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    kept, empty = tmp_path / "kept", tmp_path / "empty"
    kept.mkdir()
    empty.mkdir()
    (kept / "notes.txt").write_text("mine\n")
    for existing in (kept, empty):
        assert cli.main([command, "--config", str(config_path), "--out", str(existing)]) == 2
        assert existing.is_dir()
    assert (kept / "notes.txt").read_text() == "mine\n"


def _unreadable(path, kind):
    path.unlink(missing_ok=True)
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes("dataset: dataset.yaml\n# caf\xe9\n".encode("latin-1"))


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
@pytest.mark.parametrize("target", ["run.yaml", "dataset.yaml"], ids=["config", "manifest"])
def test_cli_unreadable_config_is_config_error(tmp_path, capsys, target, kind):
    config_path = write_configs(tmp_path)
    _unreadable(tmp_path / target, kind)
    assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and target in err and "Traceback" not in err


def test_cli_csv_path_on_a_directory_is_data_error(tmp_path, capsys):
    (tmp_path / "table.csv").mkdir()
    manifest = {"type": "csv", "path": "table.csv", "label_column": "class"}
    config_path = write_configs(tmp_path, manifest=manifest)
    assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "table.csv" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "cell, encoding, error",
    [
        ("5", "utf-8", None),  # the table as written runs
        ("inf", "utf-8", "non-finite"),
        ("-inf", "utf-8", "non-finite"),
        ("1e999", "utf-8", "non-finite"),
        ("-nan", "utf-8", "non-finite"),
        ("caf\xe9", "latin-1", "UTF-8"),
        ("9" * 200_000, "utf-8", "malformed CSV"),
    ],
    ids=["finite", "inf", "minus-inf", "overflow", "minus-nan", "latin-1", "oversized-field"],
)
def test_cli_bad_csv_is_data_error(tmp_path, capsys, cell, encoding, error):
    rows = ["a,b,class"] + [f"{i},{i % 3},{'xy'[i % 2]}" for i in range(12)]
    rows[6] = f"{cell},2,y"
    (tmp_path / "table.csv").write_bytes("\n".join(rows).encode(encoding) + b"\n")
    manifest = {"type": "csv", "path": "table.csv", "label_column": "class"}
    config_path = write_configs(tmp_path, manifest=manifest)
    code = cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    if error is None:
        assert code == 0
    else:
        assert code == 2
        assert error in capsys.readouterr().err


@pytest.mark.parametrize("column", [1, 2], ids=["category", "label"])
def test_cli_nul_in_csv_is_data_error(tmp_path, capsys, column):
    rows = [["a", "b", "class"]] + [[str(i), "uv"[i % 3 > 0], "xy"[i % 2]] for i in range(12)]
    rows[6][column] += "\x00"  # numpy strings drop a trailing NUL
    (tmp_path / "table.csv").write_text("\n".join(map(",".join, rows)) + "\n", encoding="utf-8")
    manifest = {"type": "csv", "path": "table.csv", "label_column": "class"}
    config_path = write_configs(tmp_path, manifest=manifest)
    assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "NUL" in err and "table.csv" in err and "Traceback" not in err


def test_cli_label_column_of_zero_and_minus_zero_is_data_error(tmp_path, capsys):
    rows = ["a,b,class"] + [f"{i},{i % 3},{'-0' if i % 2 else '0'}" for i in range(12)]
    (tmp_path / "table.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    manifest = {"type": "csv", "path": "table.csv", "label_column": "class"}
    config_path = write_configs(tmp_path, manifest=manifest)
    assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "fewer than 2 distinct" in err and "Traceback" not in err


def test_cli_negative_split_seed_on_a_csv_is_config_error(tmp_path, capsys):
    rows = ["a,b,class"] + [f"{i},{i % 3},{'xy'[i % 2]}" for i in range(40)]
    (tmp_path / "table.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    manifest = {"type": "csv", "path": "table.csv", "label_column": "class"}
    config_path = write_configs(tmp_path, manifest=manifest, extra={"split_seed": -1})
    assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "split_seed must be >= 0" in err and "Traceback" not in err


def test_cli_split_seed_on_synthetic_manifest_is_config_error(tmp_path, capsys):
    # a synthetic manifest splits its rows by its own seed, so a split_seed
    # would be recorded in run_manifest.yaml without changing the run
    config_path = write_configs(tmp_path, extra={"split_seed": 7})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "split_seed applies only to csv manifests" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_too_few_rows_for_every_partition_is_data_error(tmp_path, capsys):
    (tmp_path / "table.csv").write_text("a,b,class\n1,2,x\n2,3,y\n4,5,x\n6,7,y\n")
    manifest = {"type": "csv", "path": "table.csv", "label_column": "class"}
    config_path = write_configs(tmp_path, manifest=manifest)
    assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert "data error:" in capsys.readouterr().err


def test_cli_run_out_on_an_existing_file_is_config_error(tmp_path, capsys):
    config_path = write_configs(tmp_path)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and str(out) in err and "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def test_cli_run_out_under_a_file_fails_before_building(tmp_path, capsys, monkeypatch):
    config_path = write_configs(tmp_path)
    out = tmp_path / "run.yaml" / "out"

    def must_not_build(cfg):
        raise AssertionError("the dataset was built before the output path was checked")

    monkeypatch.setattr(harness, "build_dataset", must_not_build)
    assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and str(out) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "extra, flags, error",
    [
        ({}, [], None),  # the config as written runs
        ({"bins": None, "threads": None, "subsample": None}, [], None),  # null counts as absent
        ({"seeds": 5}, [], "seed list"),
        ({"seeds": ["a"]}, [], "seed must be an integer"),
        ({"seeds": [1.5]}, [], "seed must be an integer"),
        ({"seeds": [True]}, [], "seed must be an integer"),
        ({}, ["--seeds", "-1"], "seed must be >= 0"),
        ({"threads": "x"}, [], "threads must be an integer"),
        ({"threads": 0}, [], "threads must be >= 1"),
        ({}, ["--threads", "0"], "threads must be >= 1"),
        ({"bins": "x"}, [], "bins must be an integer"),
        ({"split_seed": [1]}, [], "split_seed must be an integer"),
        ({"subsample": "abc"}, [], "subsample must be an integer"),
        ({"subsample": 0}, [], "subsample must be >= 1"),
        ({"evolution": [1]}, [], "'evolution' must be a mapping"),
        ({"evolution": dict(EVOLUTION, chain_mode="ring")}, [], "chain_mode"),
        ({"evolution": dict(EVOLUTION, multi_pop=False)}, [], "multi_pop"),
        ({"omega_cache": 5}, [], "unknown key(s) 'omega_cache'"),
        ({"omega_cache": "omega.bin"}, [], "unknown key(s) 'omega_cache'"),
        ({"seed": [7]}, [], "unknown key(s) 'seed'"),
        ({"bins": 1}, [], "bins must be >= 2"),
        ({"evolution": dict(EVOLUTION, population_size=30.0)}, [], "population_size must be an integer"),
        ({"evolution": dict(EVOLUTION, generations=2.5)}, [], "generations must be an integer"),
        ({"evolution": dict(EVOLUTION, knn_k=5.0)}, [], "knn_k must be an integer"),
        ({"evolution": dict(EVOLUTION, elites=2.0)}, [], "elites must be an integer"),
        ({"evolution": dict(EVOLUTION, elites=True)}, [], "elites must be an integer"),
        ({"evolution": dict(EVOLUTION, alpha=True)}, [], "alpha must be a real number"),
        ({"evolution": dict(EVOLUTION, diversity_crossover="false")}, [],
         "diversity_crossover must be true or false"),
        ({"seeds": [1, 1]}, [], "seed list repeats a seed"),
        ({}, ["--seeds", "2", "1", "2"], "seed list repeats a seed"),
        ({"subsample": 10}, [], "subsample applies only to csv manifests"),
    ],
    ids=["valid", "nulls-absent", "seeds-int", "seeds-str", "seeds-float", "seeds-bool", "seeds-flag-negative",
         "threads-str", "threads-zero", "threads-flag-zero", "bins-str", "split-seed-list",
         "subsample-str", "subsample-zero", "evolution-list", "evolution-chain-mode", "evolution-multi-pop",
         "omega-cache-int", "omega-cache-path", "seed-misspelt",
         "bins-one", "population-size-float", "generations-float", "knn-k-float",
         "elites-float", "elites-bool", "alpha-bool", "diversity-crossover-str", "seeds-repeated",
         "seeds-flag-repeated", "subsample-synthetic"],
)
def test_cli_invalid_run_config_is_config_error(tmp_path, capsys, extra, flags, error):
    config_path = write_configs(tmp_path, extra=extra)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config_path), "--out", str(out), *flags])
    if error is None:
        assert code == 0
    else:
        assert code == 1
        err = capsys.readouterr().err
        assert "config error:" in err and error in err
        assert not out.exists()


CSV_MANIFEST = {"type": "csv", "path": "table.csv", "label_column": "class", "header": True}


@pytest.mark.parametrize(
    "manifest, error",
    [
        (MANIFEST, None),  # both manifests as written run
        (CSV_MANIFEST, None),
        (dict(MANIFEST, rows="abc"), "manifest rows must be an integer"),
        (dict(MANIFEST, rows=90.7), "manifest rows must be an integer"),
        (dict(MANIFEST, informative=True), "manifest informative must be an integer"),
        (dict(MANIFEST, redundant="1"), "manifest redundant must be an integer"),
        (dict(MANIFEST, noise=[3]), "manifest noise must be an integer"),
        (dict(MANIFEST, classes=2.0), "manifest classes must be an integer"),
        (dict(MANIFEST, seed="5"), "manifest seed must be an integer"),
        (dict(MANIFEST, seed=-1), "manifest seed must be >= 0"),
        (dict(MANIFEST, noise=-3), "manifest noise must be >= 0"),
        ({k: v for k, v in MANIFEST.items() if k != "rows"}, "missing field 'rows'"),
        (dict(CSV_MANIFEST, path=5), "manifest path must be a string"),
        (dict(CSV_MANIFEST, label_column=3), "manifest label_column must be a string"),
        (dict(CSV_MANIFEST, header="no"), "manifest header must be true or false"),
        (dict(CSV_MANIFEST, header=1), "manifest header must be true or false"),
        ({k: v for k, v in CSV_MANIFEST.items() if k != "path"}, "missing field 'path'"),
        (dict(MANIFEST, nosie=3), "synthetic manifest has unknown key(s) 'nosie'"),
        (dict(MANIFEST, bins=6), "synthetic manifest has unknown key(s) 'bins'"),
        (dict(CSV_MANIFEST, headr=False), "csv manifest has unknown key(s) 'headr'"),
        (dict(MANIFEST, type="parquet"), "unknown dataset manifest type 'parquet'"),
        ({"type": "synthetic", "rows": 90, "informative": 0, "noise": 3}, "at least one informative feature"),
        ({"type": "synthetic", "rows": 4, "informative": 2}, "at least 3 rows per class"),
        ({"type": "synthetic", "rows": 90, "informative": 2, "classes": 1}, "invalid synthetic spec"),
    ],
    ids=["synthetic-valid", "csv-valid", "rows-str", "rows-float", "informative-bool",
         "redundant-str", "noise-list", "classes-float", "seed-str", "seed-negative",
         "noise-negative", "rows-missing", "path-int", "label-column-int", "header-str",
         "header-int", "path-missing", "synthetic-misspelt", "synthetic-bins", "csv-misspelt",
         "type-parquet", "informative-zero", "rows-per-class", "classes-one"],
)
def test_cli_invalid_manifest_field_is_config_error(tmp_path, capsys, manifest, error):
    rows = ["a,b,class"] + [f"{i},{i % 3},{'xy'[i % 2]}" for i in range(20)]
    (tmp_path / "table.csv").write_text("\n".join(rows) + "\n")
    config_path = write_configs(tmp_path, manifest=manifest)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config_path), "--out", str(out)])
    if error is None:
        assert code == 0
    else:
        assert code == 1
        err = capsys.readouterr().err
        assert "config error:" in err and error in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["run", "--out", "x"], "--config"),
        (["run", "--config", "run.yaml", "--out", "x", "--seeds", "x"], "--seeds"),
        (["omega-dump", "--config", "run.yaml", "--out", "x", "--omega-cache", "c"], "'omega-dump'"),
        (["run", "--config", "run.yaml", "--out", "x", "--omega-cache", "c"], "--omega-cache"),
        # settings that only the config file sets
        *((["run", "--config", "run.yaml", "--out", "x", flag, value], flag) for flag, value in
          (("--subsample", "10"), ("--bins", "6"), ("--pm", "0.0"), ("--alpha", "0.01"), ("--k", "3"))),
    ],
    ids=["missing-config", "seeds-str", "omega-dump-omega-cache", "run-omega-cache",
         "run-subsample", "run-bins", "run-pm", "run-alpha", "run-k"],
)
def test_cli_usage_error_is_config_error(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "config error:" in err and error in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_cli_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag])
    assert exc.value.code == 0
    assert "chainga" in capsys.readouterr().out


def test_cli_flag_overrides(tmp_path):
    config_path = write_configs(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config_path), "--out", str(out), "--seeds", "7"])
    assert code == 0
    rows = read_table(out / "per_seed.csv")
    assert [row["seed"] for row in rows] == ["7"]


def test_ablation_six_rows_and_all_on_matches_run(tmp_path):
    config_path = write_configs(tmp_path, seeds=(1, 2))
    out_ab = tmp_path / "ablation"
    out_run = tmp_path / "run_out"
    cmd_ablation(load_run_config(config_path), out_ab)
    cmd_run(load_run_config(config_path), out_run)

    rows = read_table(out_ab / "ablation.csv")
    assert len(rows) == 6
    flags = [tuple(row[f] for f in ("m_pop", "e_iter", "d_cro", "d_mut")) for row in rows]
    assert flags[0] == ("×",) * 4
    assert flags[-1] == ("✓",) * 4
    assert flags[1] == ("✓", "×", "×", "×")
    assert flags[2] == ("✓", "✓", "×", "×")
    assert flags[3] == ("✓", "✓", "✓", "×")
    assert flags[4] == ("✓", "✓", "×", "✓")

    median = read_table(out_run / "aggregate.csv")[0]
    assert median["stat"] == "median"
    for metric in ("accuracy", "precision", "recall", "f1_score", "feature_ratio", "fitness"):
        assert rows[-1][metric] == median[metric]


def test_ablation_all_off_equals_flags_off_run(tmp_path):
    config_path = write_configs(tmp_path, seeds=(1, 2))
    out_ab = tmp_path / "ablation"
    cmd_ablation(load_run_config(config_path), out_ab)
    off_path = write_configs(tmp_path / "off", evolution={**EVOLUTION, **ablation_overrides(ABLATION_ROWS[0])})
    out_off = tmp_path / "off_out"
    cmd_run(load_run_config(off_path), out_off)
    all_off = read_table(out_ab / "ablation.csv")[0]
    median = read_table(out_off / "aggregate.csv")[0]
    for metric in ("accuracy", "precision", "recall", "f1_score", "feature_ratio", "fitness"):
        assert all_off[metric] == median[metric]


def test_sensitivity_m_sweep(tmp_path):
    config_path = write_configs(tmp_path, evolution=dict(EVOLUTION, population_size=12))
    out = tmp_path / "sens"
    table = cmd_sensitivity(load_run_config(config_path), "M", [1, 3, 4, 6], out)
    assert len(table) == 4
    rows = read_table(out / "sensitivity.csv")
    assert [row["value"] for row in rows] == ["1", "3", "4", "6"]


def test_sensitivity_rejects_non_divisor(tmp_path):
    config_path = write_configs(tmp_path, evolution=dict(EVOLUTION, population_size=30))
    with pytest.raises(ConfigError, match="divide"):
        cmd_sensitivity(load_run_config(config_path), "M", [1, 3, 4], tmp_path / "x")
    assert not (tmp_path / "x").exists()  # rejected before any set-up
    code = cli.main(
        ["sensitivity", "--config", str(config_path), "--out", str(tmp_path / "y"),
         "--parameter", "M", "--values", "4"]
    )
    assert code == 1


def test_sensitivity_rejects_repeated_values(tmp_path, capsys):
    config_path = write_configs(tmp_path, evolution=dict(EVOLUTION, population_size=12))
    with pytest.raises(ConfigError, match="repeat"):
        cmd_sensitivity(load_run_config(config_path), "M", [3, 1, 3], tmp_path / "x")
    assert not (tmp_path / "x").exists()  # rejected before any set-up
    code = cli.main(
        ["sensitivity", "--config", str(config_path), "--out", str(tmp_path / "y"),
         "--parameter", "M", "--values", "3", "3"]
    )
    assert code == 1
    assert "sensitivity values repeat a value" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()


def test_cli_sensitivity_parameter_is_case_insensitive(tmp_path):
    config_path = write_configs(tmp_path, seeds=(1,), evolution=dict(EVOLUTION, population_size=12))
    out = tmp_path / "sens"
    assert cli.main(["sensitivity", "--config", str(config_path), "--out", str(out),
                     "--parameter", "m", "--values", "1", "3"]) == 0
    assert [row["parameter"] for row in read_table(out / "sensitivity.csv")] == ["M", "M"]
    assert yaml.safe_load((out / "run_manifest.yaml").read_text(encoding="utf-8"))["parameter"] == "M"


def test_cli_sensitivity_unknown_parameter_is_config_error(tmp_path, capsys):
    config_path = write_configs(tmp_path, seeds=(1,))
    out = tmp_path / "sens"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sensitivity", "--config", str(config_path), "--out", str(out),
                  "--parameter", "x", "--values", "1"])
    assert exc.value.code == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [True, 1.9])
def test_sensitivity_value_of_the_wrong_type_is_config_error(tmp_path, value):
    config_path = write_configs(tmp_path, evolution=dict(EVOLUTION, population_size=12, subpopulations=2))
    with pytest.raises(ConfigError, match="elites must be an integer"):
        cmd_sensitivity(load_run_config(config_path), "S", [value, 2], tmp_path / "sens")
    assert not (tmp_path / "sens").exists()


def test_sensitivity_s_sweep(tmp_path):
    config_path = write_configs(
        tmp_path, evolution=dict(EVOLUTION, population_size=12, subpopulations=2)
    )
    rows = cmd_sensitivity(load_run_config(config_path), "S", [2, 3, 5], tmp_path / "sens")
    assert [row["value"] for row in rows] == [2, 3, 5]


def test_sensitivity_single_value_matches_run(tmp_path):
    config_path = write_configs(tmp_path)
    out_run = tmp_path / "run_out"
    cmd_run(load_run_config(config_path), out_run)
    rows = cmd_sensitivity(
        load_run_config(config_path), "M", [EVOLUTION["subpopulations"]], tmp_path / "sens"
    )
    median = read_table(out_run / "aggregate.csv")[0]
    for metric in ("accuracy", "precision", "recall", "f1_score", "feature_ratio", "fitness"):
        assert f"{rows[0][metric]:.6f}" == median[metric]


@pytest.mark.parametrize("command", ["ablation", "sensitivity"])
def test_seed_shared_fitness_cache_leaves_every_file_byte_identical(tmp_path, monkeypatch, command):
    """The oracle gives every row (or swept value) a fresh fitness cache;
    sharing one per seed changes no byte and saves KNN runs."""
    config_path = write_configs(tmp_path, evolution=dict(EVOLUTION, population_size=12))
    run = harness.run

    def outputs(out, fresh):
        evals = []

        def recording(*args, cache=None, **kwargs):
            result = run(*args, cache=None if fresh else cache, **kwargs)
            evals.append(result.n_classifier_evals)
            return result

        monkeypatch.setattr(harness, "run", recording)
        if command == "ablation":
            cmd_ablation(load_run_config(config_path), out)
        else:
            cmd_sensitivity(load_run_config(config_path), "M", [1, 3, 4], out)
        return {path.name: path.read_bytes() for path in out.iterdir()}, evals

    shared, shared_evals = outputs(tmp_path / "shared", fresh=False)
    fresh, fresh_evals = outputs(tmp_path / "fresh", fresh=True)
    assert shared == fresh
    assert sum(shared_evals) < sum(fresh_evals)


def test_bare_manifest_accepted_as_config(tmp_path):
    manifest_path = tmp_path / "dataset.yaml"
    manifest_path.write_text(yaml.safe_dump(MANIFEST), encoding="utf-8")
    cfg = load_run_config(manifest_path)
    assert cfg.manifest == MANIFEST and cfg.evolution == {}
    assert (cfg.seeds, cfg.bins, cfg.split_seed, cfg.threads) == ([1, 2, 3, 4, 5], 10, 0, 1)
    assert harness.build_dataset(cfg).d == 6


def test_bare_manifest_with_an_unknown_key_is_config_error(tmp_path, capsys):
    manifest_path = tmp_path / "dataset.yaml"
    manifest_path.write_text(yaml.safe_dump(dict(MANIFEST, seeds=[1])), encoding="utf-8")
    assert cli.main(["run", "--config", str(manifest_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error: synthetic manifest has unknown key(s) 'seeds'" in err


def test_set_up_builds_omega_through_the_traced_hook(tmp_path, monkeypatch):
    """The benchmark times ``harness.obtain_omega`` as set-up; it must be
    the one path to ``build_omega``, not an alias the tracer wraps instead."""
    calls = []
    obtain, build = harness.obtain_omega, harness.build_omega
    monkeypatch.setattr(harness, "obtain_omega", lambda dataset: calls.append("obtain") or obtain(dataset))
    monkeypatch.setattr(harness, "build_omega", lambda dataset: calls.append("build") or build(dataset))
    cmd_run(load_run_config(write_configs(tmp_path, seeds=(1,))), tmp_path / "out")
    assert calls == ["obtain", "build"]


def test_trace_rows_cover_all_generations(tmp_path):
    cfg = load_run_config(write_configs(tmp_path, seeds=(1,)))
    out = tmp_path / "out"
    cmd_run(cfg, out)
    trace = read_table(out / "trace.csv")
    generations = {row["generation"] for row in trace}
    assert generations == {"1", "2"}
    subpops = {row["subpop"] for row in trace}
    assert subpops == {"0", "1", "2"}
    assert all(row["size"] == "2" for row in trace)


def test_seed_list_must_not_be_empty(tmp_path):
    config_path = write_configs(tmp_path, seeds=())
    with pytest.raises(ConfigError, match="seed list"):
        load_run_config(config_path)


def test_run_and_knn_refine_need_no_scipy(tmp_path):
    # in a child where importing scipy fails: the shipped config runs, and an
    # all-tie KNN call refines every query (8 candidates each for k = 4)
    root = Path(__file__).resolve().parent.parent
    code = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from chainga import cli
        from chainga.classifier import knn_predict
        argv = ["run", "--config", "configs/synthetic.yaml", "--seeds", "1", "--out", {str(tmp_path / "run")!r}]
        assert cli.main(argv) == 0
        assert knn_predict(np.full((8, 3), 0.5), np.arange(8) % 2, np.full((4, 3), 0.5), 4).tolist() == [0] * 4
    """)
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "per_seed.csv").is_file()
