"""Experiment harness: manifests, seed batteries, ablation and sensitivity sweeps.

Result tables are plain CSV with fixed 6-decimal formatting so that equal
configurations produce byte-identical files; wall-clock timings go to a
separate file for that reason. Aggregate statistics are computed from the
rounded per-seed values, which makes them exactly recomputable from the
emitted per-seed table.
"""

from __future__ import annotations

import csv
import logging
import statistics
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import yaml

from . import __version__
from .data import (
    DataError,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    prepare,
    subsample_raw,
)
from .evolution import EvolutionConfig, RunResult, TraceRow, run
from .infotheory import GainRatioMatrix, build_omega

log = logging.getLogger("chainga")

METRIC_FIELDS = ("accuracy", "precision", "recall", "f1_score", "feature_ratio", "fitness")
AGGREGATE_STATS = {"median": statistics.median, "mean": statistics.fmean, "min": min, "max": max}

# ablation column -> EvolutionConfig flag; ABLATION_ROWS give the flags in this order
FLAGS = {
    "m_pop": "multi_pop",
    "e_iter": "elite_interaction",
    "d_cro": "diversity_crossover",
    "d_mut": "diversity_mutation",
}
ABLATION_ROWS = (
    (False, False, False, False),
    (True, False, False, False),
    (True, True, False, False),
    (True, True, True, False),
    (True, True, False, True),
    (True, True, True, True),
)
CHECK, CROSS = "✓", "×"


class ConfigError(Exception):
    """Raised for invalid run configurations or manifests."""


@dataclass
class HarnessConfig:
    manifest: dict
    manifest_dir: Path
    evolution: dict = field(default_factory=dict)
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    bins: int = 10
    subsample: int | None = None
    split_seed: int = 0
    threads: int = 1

    def evolution_config(self, seed: int, **overrides) -> EvolutionConfig:
        kwargs = dict(self.evolution)
        kwargs.update(overrides)
        try:
            return EvolutionConfig(seed=seed, **kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid evolution config: {exc}") from exc


def _load_yaml(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            content = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(content, dict):
        raise ConfigError(f"{path} must contain a mapping")
    return content


def _require_int(name: str, value, minimum: int | None = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


# keys a run config file may set: 'dataset' plus the HarnessConfig fields read from the file
RUN_KEYS = {"dataset"} | {f.name for f in fields(HarnessConfig)} - {"manifest", "manifest_dir"}
CSV_KEYS = {"type", "path", "label_column", "header"}
SYNTHETIC_KEYS = {"type"} | {f.name.removeprefix("n_") for f in fields(SyntheticSpec)}


def _reject_unknown(mapping: dict, known: set, where: str) -> None:
    unknown = sorted(set(mapping) - known, key=str)
    if unknown:
        raise ConfigError(f"{where} has unknown key(s) {', '.join(map(repr, unknown))}; "
                          f"known keys: {', '.join(sorted(known))}")


def load_run_config(path, **overrides) -> HarnessConfig:
    """Read a YAML run config; keyword overrides win over file values.

    A bare dataset manifest (a mapping with a 'type' key) is accepted too
    and paired with default settings. A key the config does not know is an
    error; a null value counts as an absent key. Field types are checked
    after the overrides are applied.
    """
    path = Path(path)
    raw = _load_yaml(path)
    if "dataset" not in raw and "type" in raw:
        raw = {"dataset": raw}
    _reject_unknown(raw, RUN_KEYS, str(path))
    dataset_ref = raw.pop("dataset", None)
    if dataset_ref is None:
        raise ConfigError(f"{path}: missing 'dataset' entry")
    if isinstance(dataset_ref, str):
        manifest_path = (path.parent / dataset_ref).resolve()
        manifest = _load_yaml(manifest_path)
        manifest_dir = manifest_path.parent
    elif isinstance(dataset_ref, dict):
        manifest = dataset_ref
        manifest_dir = path.parent
    else:
        raise ConfigError(f"{path}: 'dataset' must be a path or inline mapping")

    values = {key: value for key, value in raw.items() if value is not None}
    values.update((key, value) for key, value in overrides.items() if value is not None)
    if not isinstance(values.get("evolution", {}), dict):
        raise ConfigError(f"{path}: 'evolution' must be a mapping")
    cfg = HarnessConfig(manifest=manifest, manifest_dir=manifest_dir, **values)
    if not isinstance(cfg.seeds, list) or not cfg.seeds:
        raise ConfigError(f"seed list must be a non-empty list of integers, got {cfg.seeds!r}")
    for seed in cfg.seeds:
        _require_int("seed", seed, minimum=0)
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigError(f"seed list repeats a seed: {cfg.seeds!r}")
    _require_int("threads", cfg.threads, minimum=1)
    _require_int("bins", cfg.bins, minimum=2)
    _require_int("split_seed", cfg.split_seed, minimum=0)
    if "split_seed" in values and manifest.get("type") == "synthetic":
        raise ConfigError("split_seed applies only to csv manifests")
    if cfg.subsample is not None:
        _require_int("subsample", cfg.subsample, minimum=1)
        if manifest.get("type") == "synthetic":
            raise ConfigError("subsample applies only to csv manifests")
    return cfg


def build_dataset(cfg: HarnessConfig) -> Dataset:
    """Materialize the dataset a manifest describes (CSV or synthetic)."""
    manifest = cfg.manifest
    kind = manifest.get("type", "csv")
    if kind == "synthetic":
        _reject_unknown(manifest, SYNTHETIC_KEYS, "synthetic manifest")
        values = {}
        for spec_field in fields(SyntheticSpec):  # manifest keys drop the "n_"
            name = spec_field.name.removeprefix("n_")
            if name in manifest:
                values[spec_field.name] = manifest[name]
                _require_int(f"manifest {name}", manifest[name], minimum=0)
            elif spec_field.default is MISSING:
                raise ConfigError(f"synthetic manifest missing field {name!r}")
        dataset = generate_synthetic(SyntheticSpec(**values), bins=cfg.bins)
    elif kind == "csv":
        _reject_unknown(manifest, CSV_KEYS, "csv manifest")
        for name in ("path", "label_column"):
            if name not in manifest:
                raise ConfigError(f"csv manifest missing field {name!r}")
            if not isinstance(manifest[name], str):
                raise ConfigError(f"manifest {name} must be a string, got {manifest[name]!r}")
        header = manifest.get("header", True)
        if not isinstance(header, bool):
            raise ConfigError(f"manifest header must be true or false, got {header!r}")
        raw = load_csv(cfg.manifest_dir / manifest["path"], manifest["label_column"], header=header)
        if cfg.subsample:
            raw = subsample_raw(raw, cfg.subsample, cfg.split_seed)
        dataset = prepare(raw, bins=cfg.bins, split_seed=cfg.split_seed)
    else:
        raise ConfigError(f"unknown dataset manifest type {kind!r}")
    # fitness needs validation rows and the final report needs test rows
    for part, idx in (("train", dataset.train_idx), ("validation", dataset.val_idx),
                      ("test", dataset.test_idx)):
        if idx.size == 0:
            raise DataError(f"{dataset.n_rows} rows leave the {part} partition empty")
    return dataset


def obtain_omega(dataset: Dataset) -> GainRatioMatrix:
    """The gain-ratio matrix of the dataset's training partition. The
    benchmark's tracer times this call as set-up, so it stays a function
    that looks up ``build_omega`` when called."""
    return build_omega(dataset)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _round6(x: float) -> float:
    return float(_fmt(x))


def result_row(result: RunResult) -> dict:
    return {
        "seed": result.seed,
        "accuracy": _round6(result.metrics.accuracy),
        "precision": _round6(result.metrics.precision),
        "recall": _round6(result.metrics.recall),
        "f1_score": _round6(result.metrics.f1),
        "feature_ratio": _round6(result.feature_ratio),
        "fitness": _round6(result.best.fitness),
        "n_selected": result.best.n_selected,
        "mask": "".join("1" if b else "0" for b in result.best.genes),
    }


def aggregate_rows(rows: list[dict]) -> list[dict]:
    return [
        {"stat": stat, **{metric: _round6(fn([row[metric] for row in rows])) for metric in METRIC_FIELDS}}
        for stat, fn in AGGREGATE_STATS.items()
    ]


def write_table(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) if isinstance(v, float) else v for k, v in row.items()})


def run_battery(
    cfg: HarnessConfig, dataset: Dataset, omega: GainRatioMatrix, variants: list[dict]
) -> list[list[RunResult]]:
    """Run each variant (overrides of flags, M or S) at every seed,
    seed-major. A seed's runs share one fitness cache: fitness depends only
    on the mask, the dataset, alpha and k, which no variant changes. Only
    one seed's cache is alive at a time. Returns each variant's results in
    seed order."""
    results = [[] for _ in variants]
    for seed in cfg.seeds:
        cache = {}
        for overrides, battery in zip(variants, results):
            config = cfg.evolution_config(seed, **overrides)
            battery.append(result := run(dataset, config, omega=omega, threads=cfg.threads, cache=cache))
            log.info("seed %s%s done: fitness=%.6f acc=%.6f selected=%d/%d", seed,
                     "".join(f" {name}={value}" for name, value in overrides.items()),
                     result.best.fitness, result.metrics.accuracy, result.best.n_selected, dataset.d)
    return results


def _write_run_manifest(out_dir: Path, cfg: HarnessConfig, dataset: Dataset, extra: dict) -> None:
    manifest = {
        "tool": {"name": "chainga", "version": __version__},
        "dataset": {
            "manifest": cfg.manifest,
            "digest": dataset.digest(),
            "rows": dataset.n_rows,
            "features": dataset.d,
            "classes": dataset.n_classes,
            "bins": cfg.bins,
            "split_seed": cfg.split_seed,
            "subsample": cfg.subsample,
        },
        "evolution": cfg.evolution,
        "seeds": cfg.seeds,
        "threads": cfg.threads,
    }
    manifest.update(extra)
    with open(out_dir / "run_manifest.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)


PER_SEED_FIELDS = ["seed", *METRIC_FIELDS, "n_selected", "mask"]


def _set_up(cfg: HarnessConfig, out_dir) -> tuple[Path, Dataset, GainRatioMatrix]:
    """Create the output directory, then build the dataset and its
    gain-ratio matrix. Returns (directory, dataset, matrix)."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    dataset = build_dataset(cfg)
    return out_dir, dataset, obtain_omega(dataset)


def _median_rows(
    cfg: HarnessConfig, dataset: Dataset, omega: GainRatioMatrix, variants: list[dict]
) -> list[tuple[dict, list[dict]]]:
    """One battery over the variants: each one's median metrics and per-seed rows."""
    per_seed = [[result_row(r) for r in results] for results in run_battery(cfg, dataset, omega, variants)]
    medians = [aggregate_rows(rows)[0] for rows in per_seed]
    return [({metric: median[metric] for metric in METRIC_FIELDS}, rows) for median, rows in zip(medians, per_seed)]


def cmd_run(cfg: HarnessConfig, out_dir) -> list[RunResult]:
    """One battery with the configured flags; writes per-seed and aggregate
    tables plus the trace and the run manifest."""
    out_dir, dataset, omega = _set_up(cfg, out_dir)
    results = run_battery(cfg, dataset, omega, [{}])[0]
    rows = [result_row(r) for r in results]
    write_table(out_dir / "per_seed.csv", PER_SEED_FIELDS, rows)
    write_table(out_dir / "aggregate.csv", ["stat", *METRIC_FIELDS], aggregate_rows(rows))
    write_table(
        out_dir / "trace.csv",
        ["seed", *(f.name for f in fields(TraceRow))],
        [{"seed": r.seed, **asdict(entry)} for r in results for entry in r.trace],
    )
    write_table(
        out_dir / "timings.csv",
        ["seed", "wall_time_s", "classifier_evals"],
        [{"seed": r.seed, "wall_time_s": f"{r.wall_time_s:.3f}", "classifier_evals": r.n_classifier_evals}
         for r in results],
    )
    _write_run_manifest(out_dir, cfg, dataset, {"command": "run"})
    return results


def cmd_ablation(cfg: HarnessConfig, out_dir) -> list[dict]:
    """Six-row ablation over the operator flags, medians across seeds."""
    out_dir, dataset, omega = _set_up(cfg, out_dir)

    table, detail = [], []
    variants = [dict(zip(FLAGS.values(), flags)) for flags in ABLATION_ROWS]
    for flags, (medians, rows) in zip(ABLATION_ROWS, _median_rows(cfg, dataset, omega, variants)):
        cells = {column: CHECK if on else CROSS for column, on in zip(FLAGS, flags)}
        table.append({**cells, **medians})
        detail += [{**cells, **row} for row in rows]

    write_table(out_dir / "ablation.csv", [*FLAGS, *METRIC_FIELDS], table)
    write_table(out_dir / "ablation_per_seed.csv", [*FLAGS, *PER_SEED_FIELDS], detail)
    _write_run_manifest(out_dir, cfg, dataset, {"command": "ablation"})
    return table


def cmd_sensitivity(cfg: HarnessConfig, parameter: str, values: list[int], out_dir) -> list[dict]:
    """Sweep subpopulation count M or elite count S, one aggregate row per
    value; the non-swept parameter keeps its configured default."""
    parameter = parameter.upper()
    if parameter not in ("M", "S"):
        raise ConfigError(f"sensitivity parameter must be 'M' or 'S', got {parameter!r}")
    if not values:
        raise ConfigError("sensitivity sweep needs at least one value")
    if len(set(values)) != len(values):
        raise ConfigError(f"sensitivity values repeat a value: {list(values)!r}")

    key = "subpopulations" if parameter == "M" else "elites"
    for value in values:  # validate the whole sweep before burning any compute
        cfg.evolution_config(0, **{key: int(value)})

    out_dir, dataset, omega = _set_up(cfg, out_dir)
    variants = [{key: int(value)} for value in values]
    table = [{"parameter": parameter, "value": value, **medians}
             for value, (medians, _) in zip(values, _median_rows(cfg, dataset, omega, variants))]

    write_table(out_dir / "sensitivity.csv", ["parameter", "value", *METRIC_FIELDS], table)
    _write_run_manifest(
        out_dir, cfg, dataset, {"command": "sensitivity", "parameter": parameter, "values": list(values)}
    )
    return table

