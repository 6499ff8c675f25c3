"""Benchmark workloads: deterministic input generators and run configs.

Each workload writes its inputs into a work directory (a config YAML and,
for ``kdd41``, a CSV) and returns the chainga command line that consumes
them; the program only ever sees those files. The tables are fixed per
workload and the workload seed picks the battery of GA seeds: with seed s
and k GA seeds per run, the battery is s*k+1 .. s*k+k. (Measured on 2
cores: with the table drawn from the seed instead, the run time moved by
up to 15% between seeds, because the search cost depends on the table.)

- ``kdd41``: ``run`` with 12 GA seeds on a 12k-row CSV shaped like NSL-KDD
  (41 features, 3 categorical, tie-heavy integer counts, rounded rates,
  5 imbalanced classes), cut to 1000 rows by the config's ``subsample``.
  KNN fitness dominates; CSV parsing dominates set-up.
- ``synth80``: ``ablation`` (6 flag rows x 5 GA seeds) on the shipped
  ``configs/synthetic.yaml`` table, n=250, d=80. Many cheap cached fitness
  lookups, GA bookkeeping and the ablation tables.
- ``wide``: ``run`` with 12 GA seeds on a synthetic n=300, d=500 table. The
  gain-ratio build dominates set-up and the criterion sweeps dominate the
  search.

At ``DEFAULT_SEED`` the ``synth80`` config is ``configs/synthetic.yaml``;
the table digests at that seed are recorded in ``expected.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

DEFAULT_SEED = 0

# the GA protocol shared by every workload (the paper's defaults)
EVOLUTION = {
    "population_size": 30,
    "subpopulations": 3,
    "elites": 2,
    "generations": 30,
    "mutation_prob": 0.1,
    "alpha": 0.01,
    "knn_k": 5,
}

# the fixed tables: kdd41's per-class distribution and its rows, and the
# synthetic dataset seeds (33 is configs/synthetic.yaml's)
KDD_SHAPE_SEED = 41
KDD_TABLE_SEED = 4100
SYNTH80_DATASET_SEED = 33
WIDE_DATASET_SEED = 500

KDD_CLASSES = (("normal", 0.53), ("dos", 0.36), ("probe", 0.09), ("r2l", 0.015), ("u2r", 0.005))
KDD_CATEGORICAL = (("protocol_type", 3), ("service", 70), ("flag", 11))
# integer columns: (name, kind) with kind "count" (small, zero-heavy),
# "bytes" (heavy-tailed), "flag" (0/1) or "const" (always 0, as in NSL-KDD)
KDD_INTEGER = (
    ("duration", "bytes"), ("src_bytes", "bytes"), ("dst_bytes", "bytes"), ("land", "flag"),
    ("wrong_fragment", "count"), ("urgent", "count"), ("hot", "count"),
    ("num_failed_logins", "count"), ("logged_in", "flag"), ("num_compromised", "count"),
    ("root_shell", "flag"), ("su_attempted", "flag"), ("num_root", "count"),
    ("num_file_creations", "count"), ("num_shells", "count"), ("num_access_files", "count"),
    ("num_outbound_cmds", "const"), ("is_host_login", "flag"), ("is_guest_login", "flag"),
    ("count", "count"), ("srv_count", "count"), ("dst_host_count", "count"),
    ("dst_host_srv_count", "count"),
)
KDD_RATES = (
    "serror_rate", "srv_serror_rate", "rerror_rate", "srv_rerror_rate", "same_srv_rate",
    "diff_srv_rate", "srv_diff_host_rate", "dst_host_same_srv_rate", "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate", "dst_host_serror_rate",
    "dst_host_srv_serror_rate", "dst_host_rerror_rate", "dst_host_srv_rerror_rate",
)


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload; ``tiny`` shapes serve the self-test."""

    rows: int
    features: int
    subsample: int | None = None
    ga_seeds: int = 1
    generations: int = 30
    population_size: int = 30


SHAPES = {
    "kdd41": {False: Shape(rows=12000, features=41, subsample=1000, ga_seeds=12),
              True: Shape(rows=600, features=41, subsample=300, generations=3,
                                 population_size=12)},
    "synth80": {False: Shape(rows=250, features=80, ga_seeds=5),
                True: Shape(rows=60, features=12, ga_seeds=2, generations=3, population_size=12)},
    "wide": {False: Shape(rows=300, features=500, ga_seeds=12),
             True: Shape(rows=60, features=40, ga_seeds=2, generations=3, population_size=12)},
}
COMMANDS = {"kdd41": "run", "synth80": "ablation", "wide": "run"}
NAMES = tuple(SHAPES)


def kdd41_table(rows: int) -> str:
    """CSV text of an NSL-KDD-shaped table.

    Every feature depends on the class through per-class parameters, so
    the search has signal to find. The integer columns repeat values
    heavily, which makes KNN distance ties common.
    """
    shape = np.random.default_rng(KDD_SHAPE_SEED)  # the per-class distribution
    rng = np.random.default_rng(KDD_TABLE_SEED)  # the rows drawn from it
    names = [c for c, _ in KDD_CLASSES]
    probs = np.array([p for _, p in KDD_CLASSES])
    y = rng.choice(len(names), size=rows, p=probs / probs.sum())
    n_cls = len(names)

    columns: dict[str, list[str]] = {}
    for name, levels in KDD_CATEGORICAL:
        weights = shape.dirichlet(np.full(levels, 0.3), size=n_cls)
        u = rng.random(rows)
        codes = (u[:, None] > np.cumsum(weights[y], axis=1)).sum(axis=1)
        codes = np.minimum(codes, levels - 1)
        columns[name] = [f"{name[:3]}{c}" for c in codes]
    for name, kind in KDD_INTEGER:
        if kind == "const":
            values = np.zeros(rows, dtype=np.int64)
        elif kind == "flag":
            values = (rng.random(rows) < shape.uniform(0.0, 0.6, n_cls)[y]).astype(np.int64)
        elif kind == "count":
            lam = shape.gamma(1.0, 4.0, n_cls)[y]
            active = rng.random(rows) < shape.uniform(0.2, 0.9, n_cls)[y]
            values = np.where(active, rng.poisson(lam), 0)
        else:  # bytes
            mu = shape.uniform(2.0, 8.0, n_cls)[y]
            active = rng.random(rows) < shape.uniform(0.3, 1.0, n_cls)[y]
            values = np.where(active, np.floor(rng.lognormal(mu, 1.5)), 0).astype(np.int64)
        columns[name] = [str(v) for v in values]
    for name in KDD_RATES:
        a = shape.uniform(0.3, 4.0, n_cls)[y]
        b = shape.uniform(0.3, 4.0, n_cls)[y]
        columns[name] = [f"{v:.2f}" for v in np.round(rng.beta(a, b), 2)]

    header = [name for name, _ in KDD_CATEGORICAL]
    header = ["duration", *header] + [n for n, _ in KDD_INTEGER if n != "duration"] + list(KDD_RATES)
    columns["class"] = [names[c] for c in y]
    header.append("class")
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*(columns[h] for h in header)))
    return "\n".join(lines) + "\n"


def config(workload: str, seed: int, tiny: bool = False) -> dict:
    """The run config (as written to YAML) for ``workload`` at ``seed``."""
    shape = SHAPES[workload][tiny]
    evolution = dict(EVOLUTION, generations=shape.generations, population_size=shape.population_size)
    seeds = [seed * shape.ga_seeds + s for s in range(1, shape.ga_seeds + 1)]
    if workload == "kdd41":
        return {
            "dataset": {"type": "csv", "path": "kdd41.csv", "label_column": "class", "header": True},
            "bins": 10,
            "split_seed": 0,
            "subsample": shape.subsample,
            "seeds": seeds,
            "evolution": evolution,
        }
    if workload == "synth80":
        dataset = {"type": "synthetic", "rows": shape.rows, "informative": 4, "redundant": 2,
                   "noise": shape.features - 6, "classes": 2, "seed": SYNTH80_DATASET_SEED}
        return {"dataset": dataset, "bins": 10, "seeds": seeds, "evolution": evolution}
    if workload == "wide":
        informative, redundant = (20, 10) if not tiny else (4, 2)
        dataset = {"type": "synthetic", "rows": shape.rows, "informative": informative,
                   "redundant": redundant, "noise": shape.features - informative - redundant,
                   "classes": 2, "seed": WIDE_DATASET_SEED}
        return {"dataset": dataset, "bins": 10, "seeds": seeds, "evolution": evolution}
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, work_dir: Path, tiny: bool = False) -> tuple[list[str], int]:
    """Write the workload's inputs into ``work_dir``; return the chainga
    arguments (without ``--out``) and the number of GA runs they make."""
    if seed < 0:
        raise ValueError("workload seed must be non-negative")
    work_dir.mkdir(parents=True, exist_ok=True)
    cfg = config(workload, seed, tiny)
    if workload == "kdd41":
        (work_dir / "kdd41.csv").write_text(kdd41_table(SHAPES[workload][tiny].rows), encoding="utf-8")
    path = work_dir / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
    command = COMMANDS[workload]
    ga_runs = len(cfg["seeds"]) * (6 if command == "ablation" else 1)  # six flag rows
    return [command, "--config", str(path), "--threads", "1"], ga_runs
