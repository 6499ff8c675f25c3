"""Acceptance gate: one test per criterion, each recording a pass/fail line.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion lines are
printed in the terminal summary. The desk-scale benchmark checks need the
real CSVs under data/ (see scripts/fetch_datasets.py) and skip loudly when
they are absent, since this sandbox has no way to obtain them.
"""

import itertools
import time

import numpy as np
import pytest
import yaml

from chainga.classifier import FitnessEvaluator, combine_fitness
from chainga.criterion import score, sweep_crossover, sweep_mutation
from chainga.data import SyntheticSpec, generate_synthetic, load_csv, prepare, subsample_raw
from chainga.evolution import EvolutionConfig, run
from chainga.harness import cmd_ablation, cmd_run, load_run_config
from chainga.infotheory import build_omega, entropy, information_gain
from conftest import dataset_path, read_table, record_criterion
from oracles import (
    oracle_crossover,
    oracle_mutation,
    random_omega,
    ref_gain_ratio_tables,
    ref_subset_merit,
)

SEEDS = (1, 2, 3, 4, 5)


def benchmark_protocol(seed, **overrides):
    kwargs = dict(
        population_size=30,
        subpopulations=3,
        elites=2,
        generations=30,
        mutation_prob=0.1,
        alpha=0.01,
        knn_k=5,
        seed=seed,
    )
    kwargs.update(overrides)
    return EvolutionConfig(**kwargs)


ALL_OFF = dict(
    subpopulations=1,
    elites=0,
    diversity_crossover=False,
    diversity_mutation=False,
)


def test_criterion_1_subset_merit_oracle_equivalence():
    t0 = time.perf_counter()
    ds = generate_synthetic(
        SyntheticSpec(n_rows=150, n_informative=3, n_redundant=3, n_noise=6, n_classes=2, seed=42)
    )
    assert ds.d == 12
    omega = build_omega(ds)
    rows = ds.train_idx
    columns = [ds.X_disc[rows, j].tolist() for j in range(ds.d)]
    fc_ref, ff_ref = ref_gain_ratio_tables(columns, ds.y[rows].tolist())

    worst = 0.0
    for bits in itertools.product([0, 1], repeat=12):
        mask = np.array(bits, dtype=bool)
        selected = [i for i, b in enumerate(bits) if b]
        reference = ref_subset_merit(selected, fc_ref, ff_ref)
        worst = max(worst, abs(score(mask, omega) - reference))
    elapsed = time.perf_counter() - t0

    ok = worst < 1e-9 and elapsed < 10.0
    record_criterion(1, "PASS" if ok else "FAIL",
                     f"4096 subsets, max |J - oracle| = {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_2_guided_operator_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    crossover_mismatch = mutation_mismatch = 0
    for _ in range(1000):
        omega = random_omega(rng, 30)
        a = rng.random(30) < rng.uniform(0.1, 0.9)
        b = rng.random(30) < rng.uniform(0.1, 0.9)
        if sweep_crossover(a, b, omega) != oracle_crossover(a, b, omega)[0]:
            crossover_mismatch += 1
        mask = rng.random(30) < rng.uniform(0.1, 0.9)
        if sweep_mutation(mask, omega) != oracle_mutation(mask, omega)[0]:
            mutation_mismatch += 1
    elapsed = time.perf_counter() - t0

    ok = crossover_mismatch == 0 and mutation_mismatch == 0 and elapsed < 30.0
    record_criterion(
        2, "PASS" if ok else "FAIL",
        f"1000 trials at d=30: {crossover_mismatch} crossover / "
        f"{mutation_mismatch} mutation mismatches, {elapsed:.1f}s",
    )
    assert crossover_mismatch == 0 and mutation_mismatch == 0
    assert elapsed < 30.0


def test_criterion_3_information_theory_golden_values():
    checks = {
        "H(a,b,a,b)": abs(entropy(["a", "b", "a", "b"]) - 1.0),
        "H(a,a,b,c)": abs(entropy(["a", "a", "b", "c"]) - 1.5),
        "IG 3/4 split": abs(information_gain([0, 0, 1, 1], ["x", "x", "x", "y"]) - 0.3113),
    }
    rng = np.random.default_rng(3)
    symmetry = 0.0
    for _ in range(500):
        n = rng.integers(2, 40)
        a = rng.integers(0, rng.integers(2, 6), size=n)
        b = rng.integers(0, rng.integers(2, 6), size=n)
        symmetry = max(symmetry, abs(information_gain(a, b) - information_gain(b, a)))

    ok = all(v < 1e-4 for v in checks.values()) and symmetry < 1e-9
    record_criterion(
        3, "PASS" if ok else "FAIL",
        f"golden values within 1e-4, max |IG(a,b)-IG(b,a)| = {symmetry:.2e} over 500 pairs",
    )
    for name, err in checks.items():
        assert err < 1e-4, name
    assert symmetry < 1e-9


def test_criterion_4_fitness_arithmetic():
    value = combine_fitness(0.994, 8, 41, alpha=0.01)
    err = abs(value - 0.99211)

    accs = np.linspace(0.0, 1.0, 100)
    rising = [combine_fitness(a, 10, 41, alpha=0.01) for a in accs]
    acc_monotone = all(b > a for a, b in zip(rising, rising[1:]))
    falling = [combine_fitness(0.8, n, 100, alpha=0.01) for n in range(1, 101)]
    size_monotone = all(b < a for a, b in zip(falling, falling[1:]))

    ok = err < 1e-5 and acc_monotone and size_monotone
    record_criterion(
        4, "PASS" if ok else "FAIL",
        f"(acc=0.994, 8/41) -> {value:.6f} (|err| = {err:.1e}), monotone on 100-point grids",
    )
    assert err < 1e-5
    assert acc_monotone and size_monotone


def test_criterion_5_structural_invariants(migration_events, monkeypatch):
    evaluated = []  # (mask, fitness) of every evaluation, recorded from outside
    evaluate = FitnessEvaluator.evaluate

    def recording(self, mask):
        record = evaluate(self, mask)
        evaluated.append((np.array(mask, dtype=bool), record.fitness))
        return record

    monkeypatch.setattr(FitnessEvaluator, "evaluate", recording)
    t0 = time.perf_counter()
    ds = generate_synthetic(
        SyntheticSpec(n_rows=120, n_informative=3, n_redundant=3, n_noise=6, n_classes=2, seed=0)
    )
    omega = build_omega(ds)
    failures = []
    for seed in range(1, 21):
        cfg = benchmark_protocol(seed)
        migration_events.clear()
        evaluated.clear()
        serial = run(ds, cfg, omega=omega)

        for gen in range(1, 31):
            sizes = [row.size for row in serial.trace if row.generation == gen]
            if sizes != [10, 10, 10]:
                failures.append(f"seed {seed} gen {gen}: sizes {sizes}")
        top = max(fitness for _, fitness in evaluated)
        if serial.best.fitness != top:
            failures.append(f"seed {seed}: best {serial.best.fitness} is not the maximum {top}")
        if not any(f == top and np.array_equal(mask, serial.best.genes) for mask, f in evaluated):
            failures.append(f"seed {seed}: best mask was never evaluated at the best fitness")
        if len(migration_events) != 30:
            failures.append(f"seed {seed}: {len(migration_events)} migrations recorded, not 30")
        for pre, post in migration_events:
            for i in range(3):
                top = sorted(pre[i], key=lambda t: -t[1])[:2]
                receiver = post[(i + 1) % 3]
                for genes, _ in top:
                    if not any(np.array_equal(genes, g) for g, _ in receiver):
                        failures.append(f"seed {seed}: migrated elite missing")

        threaded = run(ds, cfg, omega=omega, threads=3)
        if (
            serial.trace != threaded.trace
            or not np.array_equal(serial.best.genes, threaded.best.genes)
            or serial.best != threaded.best
            or serial.n_classifier_evals != threaded.n_classifier_evals
        ):
            failures.append(f"seed {seed}: serial and threaded runs differ")
    elapsed = time.perf_counter() - t0

    record_criterion(
        5, "PASS" if not failures else "FAIL",
        f"20 runs (N=30, M=3, s=2, T=30): sizes, best is the maximum evaluated, migration "
        f"containment, thread determinism of results and counters ({elapsed:.0f}s)"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )
    assert not failures, failures[:5]


def _benchmark_battery(stem, label_column="class"):
    path = dataset_path(stem)
    if path is None:
        record_criterion(
            6, "SKIP",
            f"{stem}: data/{stem}.csv not present (no dataset network access in this "
            f"sandbox; run scripts/fetch_datasets.py on a networked machine)",
        )
        pytest.skip(f"data/{stem}.csv not available")
    raw = load_csv(path, label_column, header=True)
    ds = prepare(raw, bins=10, split_seed=0)
    omega = build_omega(ds)
    results = [run(ds, benchmark_protocol(seed), omega=omega) for seed in SEEDS]
    accuracy = float(np.median([r.metrics.accuracy for r in results]))
    ratio = float(np.median([r.feature_ratio for r in results]))
    return accuracy, ratio


@pytest.mark.parametrize(
    "stem,reported",
    [("sonar", 0.810), ("spectf", 0.852), ("soybean", 0.926)],
    ids=["sonar", "spectf", "soybean"],
)
def test_criterion_6_desk_scale_benchmarks(stem, reported):
    t0 = time.perf_counter()
    accuracy, ratio = _benchmark_battery(stem)
    elapsed = time.perf_counter() - t0
    ok = abs(accuracy - reported) <= 0.08 and ratio <= 0.5 and elapsed < 900
    record_criterion(
        6, "PASS" if ok else "FAIL",
        f"{stem}: median accuracy {accuracy:.3f} vs reported {reported:.3f} "
        f"(tol 0.08), median feature ratio {ratio:.1%} (<=50%), {elapsed:.0f}s",
    )
    assert abs(accuracy - reported) <= 0.08
    assert ratio <= 0.5
    assert elapsed < 900


def test_criterion_6_nslkdd_substitute():
    path = dataset_path("nslkdd")
    if path is None:
        record_criterion(
            6, "SKIP",
            "nslkdd: data/nslkdd.csv not present (no dataset network access in this "
            "sandbox; run scripts/fetch_datasets.py on a networked machine)",
        )
        pytest.skip("data/nslkdd.csv not available")
    raw = load_csv(path, "class", header=True)
    raw = subsample_raw(raw, 10_000, seed=0)
    ds = prepare(raw, bins=10, split_seed=0)
    omega = build_omega(ds)
    wins = 0
    for seed in SEEDS:
        on = run(ds, benchmark_protocol(seed), omega=omega)
        off = run(ds, benchmark_protocol(seed, **ALL_OFF), omega=omega)
        wins += on.best.fitness >= off.best.fitness
    ok = wins >= 4
    record_criterion(
        6, "PASS" if ok else "FAIL",
        f"nslkdd 10k subsample: all-on validation fitness >= all-off in {wins}/5 seeds",
    )
    assert wins >= 4


def test_criterion_6_synthetic_directional_analog():
    # stand-in exercised in every environment: many weak/irrelevant features,
    # the regime the guided operators target
    ds = generate_synthetic(
        SyntheticSpec(n_rows=250, n_informative=4, n_redundant=2, n_noise=74, n_classes=2, seed=33)
    )
    omega = build_omega(ds)
    wins = 0
    for seed in SEEDS:
        on = run(ds, benchmark_protocol(seed), omega=omega)
        off = run(ds, benchmark_protocol(seed, **ALL_OFF), omega=omega)
        wins += on.best.fitness >= off.best.fitness
    ok = wins >= 4
    record_criterion(
        6, "PASS" if ok else "FAIL",
        f"synthetic analog (d=80): all-on validation fitness >= all-off in {wins}/5 seeds",
    )
    assert wins >= 4


def test_criterion_7_ablation_harness_fidelity(tmp_path):
    manifest = {
        "type": "synthetic", "rows": 90, "informative": 2, "redundant": 1,
        "noise": 3, "classes": 2, "seed": 5,
    }
    config = {
        "dataset": manifest,
        "seeds": [1, 2],
        "bins": 6,
        "evolution": {
            "population_size": 6, "subpopulations": 3, "elites": 1,
            "generations": 2, "knn_k": 3,
        },
    }
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")

    cmd_ablation(load_run_config(config_path), tmp_path / "ablation")
    cmd_run(load_run_config(config_path), tmp_path / "run")
    rows = read_table(tmp_path / "ablation" / "ablation.csv")
    median = read_table(tmp_path / "run" / "aggregate.csv")[0]

    six_rows = len(rows) == 6
    flag_pattern = [
        tuple(row[f] for f in ("m_pop", "e_iter", "d_cro", "d_mut")) for row in rows
    ] == [
        ("×", "×", "×", "×"),
        ("✓", "×", "×", "×"),
        ("✓", "✓", "×", "×"),
        ("✓", "✓", "✓", "×"),
        ("✓", "✓", "×", "✓"),
        ("✓", "✓", "✓", "✓"),
    ]
    metrics = ("accuracy", "precision", "recall", "f1_score", "feature_ratio", "fitness")
    all_on_matches = all(rows[-1][m] == median[m] for m in metrics)

    ok = six_rows and flag_pattern and all_on_matches
    record_criterion(
        7, "PASS" if ok else "FAIL",
        "ablation table has the six-row flag structure and its all-on row "
        "equals the run command's median row byte for byte",
    )
    assert six_rows and flag_pattern and all_on_matches


def test_criterion_8_omega_build_scales_quadratically_in_d():
    datasets = [
        generate_synthetic(
            SyntheticSpec(n_rows=2000, n_informative=20, n_redundant=20, n_noise=noise, n_classes=3, seed=8)
        )
        for noise in (60, 160)
    ]
    rows = np.arange(2000)
    # the two sizes alternate within each round, so a burst of machine load
    # slows both alike; each keeps its fastest round
    best = [float("inf")] * 2
    for _ in range(3):
        for i, ds in enumerate(datasets):
            t0 = time.perf_counter()
            build_omega(ds, rows=rows)
            best[i] = min(best[i], time.perf_counter() - t0)
    t100, t200 = best
    ratio = t200 / t100
    ok = 3.0 <= ratio <= 6.0
    record_criterion(
        8, "PASS" if ok else "FAIL",
        f"omega build at n=2000: d=200 {t200:.3f}s vs d=100 {t100:.3f}s, ratio {ratio:.2f} in [3, 6]",
    )
    assert 3.0 <= ratio <= 6.0
