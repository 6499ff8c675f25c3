import itertools
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from chainga import classifier, evolution
from chainga.classifier import FitnessEvaluator, FitnessRecord
from chainga.data import SyntheticSpec, generate_synthetic
from chainga.evolution import (
    EvolutionConfig,
    _generation,
    _stream,
    init_population,
    migrate_elites,
    mutation_step,
    run,
)
from chainga.harness import ABLATION_ROWS, ablation_overrides
from chainga.infotheory import GainRatioMatrix, build_omega
from oracles import oracle_crossover, population


def _genes(bits):
    genes = np.array(bits, dtype=bool)
    genes.setflags(write=False)
    return genes


def _chrom(bits, fitness):
    genes = _genes(bits)
    return FitnessRecord(genes, fitness, int(genes.sum()))


def _record(table, genes):
    return _chrom(genes, table[tuple(int(b) for b in genes)])


def _stub_evaluate_many(table, batches=None):
    """Scores each mask from ``table`` (bit tuple -> fitness); an unlisted
    mask is a KeyError. Appends each batch, as bit tuples, to ``batches``."""

    def evaluate_many(masks):
        if batches is not None:
            batches.append([tuple(int(b) for b in m) for m in masks])
        return [_record(table, m) for m in masks]

    return evaluate_many


# one chain of two, crossover only: a generation is step 0, then the closure
_CROSSOVER_ONLY = EvolutionConfig(population_size=2, subpopulations=1, elites=0, mutation_prob=0.0)


@pytest.fixture
def flat_omega():
    return GainRatioMatrix(np.array([0.5, 0.4, 0.3, 0.2]), np.zeros((4, 4)))


def test_config_rejects_non_divisor_subpopulations():
    with pytest.raises(ValueError, match="divide"):
        EvolutionConfig(population_size=30, subpopulations=4)
    for m in (1, 3, 5, 6):  # every divisor used by the sensitivity sweeps
        EvolutionConfig(population_size=30, subpopulations=m, elites=2)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        EvolutionConfig(population_size=30, subpopulations=3, elites=11)
    with pytest.raises(ValueError):
        EvolutionConfig(mutation_prob=1.5)
    with pytest.raises(ValueError):
        EvolutionConfig(generations=0)


def test_init_population_sizes():
    cfg = EvolutionConfig(population_size=30, subpopulations=3, elites=2)
    pop = init_population(12, cfg, _stream(0, 0))
    assert len(pop) == 3
    assert [len(sp) for sp in pop] == [10, 10, 10]
    assert sum(len(sp) for sp in pop) == 30
    assert pop.shape == (3, 10, 12) and pop.dtype == bool


def test_init_population_single_subpop():
    cfg = EvolutionConfig(population_size=8, subpopulations=1, elites=2)
    pop = init_population(5, cfg, _stream(1, 0))
    assert len(pop) == 1 and len(pop[0]) == 8


def test_init_population_deterministic():
    cfg = EvolutionConfig(population_size=12, subpopulations=3, elites=1)
    a = init_population(9, cfg, _stream(7, 0))
    b = init_population(9, cfg, _stream(7, 0))
    for sa, sb in zip(a, b):
        for ga, gb in zip(sa, sb):
            assert np.array_equal(ga, gb)


def test_init_population_repairs_empty_masks():
    cfg = EvolutionConfig(population_size=30, subpopulations=3, elites=2)
    pop = init_population(1, cfg, _stream(3, 0))
    assert all(genes.any() for sp in pop for genes in sp)


def test_chain_crossover_identical_parents_keeps_incumbent(flat_omega):
    table = {(1, 0, 1, 0): 0.5}
    incumbent = _chrom([1, 0, 1, 0], 0.5)
    partner = _chrom([1, 0, 1, 0], 0.5)
    subpops = population([[incumbent, partner]])
    _generation(subpops, 1, flat_omega, _CROSSOVER_ONLY, _stub_evaluate_many(table))
    assert subpops[0][0] is incumbent
    assert subpops[0][1] is partner


def test_chain_crossover_incumbent_dominates(flat_omega):
    # parents differ only at gene 0: the children are exactly the parents,
    # so step 0 offers a child as fit as the incumbent and one less fit
    table = {(1, 0, 0, 1): 0.9, (0, 0, 0, 1): 0.2}
    incumbent = _chrom([1, 0, 0, 1], 0.9)
    partner = _chrom([0, 0, 0, 1], 0.2)
    subpops = population([[incumbent, partner]])
    batches = []
    _generation(subpops, 1, flat_omega, _CROSSOVER_ONLY, _stub_evaluate_many(table, batches))
    assert sorted(batches[0]) == [(0, 0, 0, 1), (1, 0, 0, 1)]
    assert subpops[0][0] is incumbent


def test_chain_crossover_improving_child_replaces(flat_omega):
    # the partner donates gene 0, which lifts the child above the incumbent
    table = {(0, 0, 0, 1): 0.2, (1, 0, 0, 1): 0.9}
    incumbent = _chrom([0, 0, 0, 1], 0.2)
    partner = _chrom([1, 0, 0, 1], 0.9)
    subpops = population([[incumbent, partner]])
    _generation(subpops, 1, flat_omega, _CROSSOVER_ONLY, _stub_evaluate_many(table))
    out = subpops[0][0]
    assert out is not incumbent and out is not partner  # the scored child
    assert np.array_equal(out.genes, partner.genes)
    assert out == _record(table, partner.genes)


def test_chain_crossover_last_position_partners_with_first(flat_omega):
    # J = sum fc / sqrt(|S|) with fc = (.5, .4, .3, .2). Step 0 crosses
    # 1010 with 0111 at cut 1 (J of 1111 is .7), and child 1111 takes
    # slot 0. The closure then crosses 0111 with that updated slot 0:
    # they differ only at gene 0, so its children are 0111 and 1111. With
    # the original slot 0 they would have been 0010 and 1111.
    table = {(1, 1, 1, 1): 0.9, (0, 0, 1, 0): 0.0, (0, 1, 1, 1): 0.2}
    first = _chrom([1, 0, 1, 0], 0.1)
    last = _chrom([0, 1, 1, 1], 0.2)
    subpops = population([[first, last]])
    batches = []
    _generation(subpops, 1, flat_omega, _CROSSOVER_ONLY, _stub_evaluate_many(table, batches))
    assert batches[0] == [(1, 1, 1, 1), (0, 0, 1, 0)]
    assert batches[1] == [(0, 1, 1, 1), (1, 1, 1, 1)]
    assert [ch.genes.tolist() for ch in subpops[0]] == [[True] * 4, [True] * 4]


def test_chain_crossover_never_decreases_fitness(small_dataset):
    omega = build_omega(small_dataset)
    rng = np.random.default_rng(5)
    table = defaultdict(lambda: float(rng.integers(0, 4)) / 4)  # tie-heavy, drawn on first use
    cfg = EvolutionConfig(population_size=6, subpopulations=1, elites=0, seed=5, mutation_prob=0.0)
    evaluate_many = _stub_evaluate_many(table)
    subpops = population([evaluate_many(chain) for chain in init_population(small_dataset.d, cfg, _stream(5, 0))])
    for gen in range(1, 6):
        before = [record.fitness for record in subpops[0]]
        _generation(subpops, gen, omega, cfg, evaluate_many)
        after = [record.fitness for record in subpops[0]]
        assert all(b >= a for a, b in zip(before, after))


def test_mutation_disabled_is_identity(flat_omega):
    cfg = EvolutionConfig(population_size=4, subpopulations=1, elites=0, mutation_prob=0.0)
    assert mutation_step(_genes([1, 0, 1, 0]), flat_omega, cfg, _stream(0, 1)) is None


def test_mutation_returns_none_exactly_when_no_flip_is_drawn(flat_omega):
    cfg = EvolutionConfig(population_size=4, subpopulations=1, elites=0, mutation_prob=0.5,
                          diversity_mutation=False)
    genes = _genes([1, 0, 1, 0])
    outcomes = set()
    for seed in range(20):
        replay = _stream(seed, 1)
        out = mutation_step(genes, flat_omega, cfg, _stream(seed, 1))
        if replay.random() >= 0.5:
            assert out is None
        else:
            r = int(replay.integers(0, 4))
            assert out.tolist() == [bool(b) != (t == r) for t, b in enumerate(genes)]
        outcomes.add(out is None)
    assert outcomes == {True, False}
    assert genes.tolist() == [True, False, True, False]


def test_mutation_guided_flips_best_bit():
    omega = GainRatioMatrix(np.array([0.0, 0.9]), np.zeros((2, 2)))
    cfg = EvolutionConfig(
        population_size=2, subpopulations=1, elites=0, mutation_prob=1.0
    )
    genes = _genes([1, 0])
    out = mutation_step(genes, omega, cfg, _stream(0, 1))
    assert out.tolist() == [True, True]
    assert genes.tolist() == [True, False]  # a new mask, scored by the caller


def test_mutation_random_flip_matches_seeded_draw(flat_omega):
    cfg = EvolutionConfig(
        population_size=2,
        subpopulations=1,
        elites=0,
        mutation_prob=1.0,
        diversity_mutation=False,
    )
    out = mutation_step(_genes([1, 0, 1, 0]), flat_omega, cfg, _stream(42, 1))
    replay = _stream(42, 1)
    assert replay.random() < 1.0
    r = int(replay.integers(0, 4))
    expected = [True, False, True, False]
    expected[r] = not expected[r]
    assert out.tolist() == expected


def test_mutation_repairs_emptied_mask():
    omega = GainRatioMatrix(np.array([0.5]), np.zeros((1, 1)))
    cfg = EvolutionConfig(
        population_size=2,
        subpopulations=1,
        elites=0,
        mutation_prob=1.0,
        diversity_mutation=False,
    )
    out = mutation_step(_genes([1]), omega, cfg, _stream(0, 1))
    assert out.any()


def test_migrate_zero_elites_noop():
    pop = population([[_chrom([1, 0], 0.5)], [_chrom([0, 1], 0.4)]])
    before = pop.tolist()
    migrate_elites(pop, 0)
    assert pop.tolist() == before


def test_migrate_hand_case_two_subpops():
    a, b = _chrom([1, 0, 0, 0], 0.9), _chrom([0, 1, 0, 0], 0.1)
    c, d = _chrom([0, 0, 1, 0], 0.8), _chrom([0, 0, 0, 1], 0.2)
    pop = population([[a, b], [c, d]])
    migrate_elites(pop, 1)
    # P1's worst (b) replaced by P2's elite c; P2's worst (d) by P1's elite a:
    # each receiver's slot holds the sender's record itself
    assert pop[0][0] is a
    assert pop[0][1] is c
    assert pop[1][0] is c
    assert pop[1][1] is a


def test_migrate_senders_keep_their_elites():
    rng = np.random.default_rng(3)
    subpops = []
    for _ in range(3):
        subpops.append([_chrom(rng.random(6) < 0.5, float(rng.random())) for _ in range(5)])
    top_before = [sorted(sp, key=lambda ch: -ch.fitness)[:2][0].genes for sp in subpops]
    pop = population(subpops)
    migrate_elites(pop, 2)
    for i, genes in enumerate(top_before):
        assert any(np.array_equal(ch.genes, genes) for ch in pop[i])


def test_migrate_receivers_contain_top_elites():
    rng = np.random.default_rng(4)
    for trial in range(20):
        m, size, s = 3, 6, 2
        subpops = [
            [_chrom(rng.random(8) < 0.5, float(rng.random())) for _ in range(size)]
            for _ in range(m)
        ]
        elites = [
            [ch.genes for ch in sorted(sp, key=lambda ch: -ch.fitness)[:s]]
            for sp in subpops
        ]
        pop = population(subpops)
        migrate_elites(pop, s)
        for i in range(m):
            receiver = pop[(i + 1) % m]
            for genes in elites[i]:
                assert any(np.array_equal(ch.genes, genes) for ch in receiver)


def test_migrate_reads_the_pre_migration_snapshot():
    a, b, c = _chrom([1, 0], 0.9), _chrom([0, 1], 0.5), _chrom([1, 1], 0.1)
    pop = population([[a], [b], [c]])
    migrate_elites(pop, 1)
    # each subpop receives its predecessor's elite as it was before any move,
    # so the strongest chromosome advances one step instead of cascading
    assert pop[0][0] is c and pop[1][0] is a and pop[2][0] is b
    assert [sp[0].fitness for sp in pop] == [0.1, 0.9, 0.5]


def _tiny_dataset(d_noise=2, seed=2):
    return generate_synthetic(
        SyntheticSpec(n_rows=60, n_informative=1, n_redundant=0, n_noise=d_noise, seed=seed)
    )


def test_run_fixed_point_with_identical_chromosomes():
    ds = _tiny_dataset()
    seed = next(
        s
        for s in range(500)
        if np.array_equal(
            *init_population(
                ds.d,
                EvolutionConfig(
                    population_size=2, subpopulations=1, elites=0,
                    generations=1, mutation_prob=0.0, seed=s,
                ),
                _stream(s, 0),
            )[0]
        )
    )
    cfg = EvolutionConfig(
        population_size=2, subpopulations=1, elites=0, generations=1,
        mutation_prob=0.0, seed=seed,
    )
    result = run(ds, cfg, build_omega(ds))
    pop = init_population(ds.d, cfg, _stream(seed, 0))
    expected = FitnessEvaluator(ds, cfg.alpha, cfg.knn_k, {}).evaluate(pop[0][0])
    assert result.best == expected
    assert np.array_equal(result.best.genes, pop[0][0])


def test_run_population_size_and_monotone_best(small_dataset):
    cfg = EvolutionConfig(population_size=12, subpopulations=3, elites=2, generations=6, seed=9)
    result = run(small_dataset, cfg, build_omega(small_dataset))
    for gen in range(1, 7):
        sizes = [row.size for row in result.trace if row.generation == gen]
        assert sum(sizes) == 12 and sizes == [4, 4, 4]
    # the global best is kept even when mutation later loses it
    assert result.best.fitness >= max(row.best_fitness for row in result.trace)


def test_run_trace_reproducible(small_dataset):
    cfg = EvolutionConfig(population_size=9, subpopulations=3, elites=1, generations=4, seed=11)
    omega = build_omega(small_dataset)
    a = run(small_dataset, cfg, omega)
    b = run(small_dataset, cfg, omega)
    assert a.trace == b.trace
    assert np.array_equal(a.best.genes, b.best.genes)
    assert a.best == b.best
    assert a.metrics.accuracy == b.metrics.accuracy


def test_run_threads_bit_identical(small_dataset):
    cfg = EvolutionConfig(population_size=12, subpopulations=3, elites=2, generations=5, seed=13)
    omega = build_omega(small_dataset)
    serial = run(small_dataset, cfg, omega, threads=1)
    threaded = run(small_dataset, cfg, omega, threads=3)
    assert serial.trace == threaded.trace
    assert np.array_equal(serial.best.genes, threaded.best.genes)
    assert serial.best == threaded.best
    assert serial.n_classifier_evals == threaded.n_classifier_evals


def test_run_on_a_warm_cache_counts_only_its_own_knn_runs(small_dataset, monkeypatch):
    knn_runs = []
    predict = classifier.knn_predict
    monkeypatch.setattr(classifier, "knn_predict", lambda *args: knn_runs.append(1) or predict(*args))
    base = dict(population_size=8, subpopulations=2, elites=1, generations=4, mutation_prob=0.5, seed=3)
    cache, omega = {}, build_omega(small_dataset)
    run(small_dataset, EvolutionConfig(**base), omega, cache=cache)
    known = len(cache)
    knn_runs.clear()
    warm = run(small_dataset, EvolutionConfig(**base, diversity_crossover=False), omega, cache=cache)
    assert warm.n_classifier_evals == len(knn_runs) - 1 == len(cache) - known  # one scores the test split
    cold = run(small_dataset, EvolutionConfig(**base, diversity_crossover=False), omega)
    assert warm.trace == cold.trace and warm.best == cold.best
    assert np.array_equal(warm.best.genes, cold.best.genes)
    assert warm.n_classifier_evals < cold.n_classifier_evals  # the first run's masks were cached


def test_run_shared_cache_counters_do_not_depend_on_threads(small_dataset):
    base = dict(population_size=8, subpopulations=2, elites=1, generations=4, mutation_prob=0.5, seed=5)
    configs = [EvolutionConfig(**{**base, **ablation_overrides(row)}) for row in ABLATION_ROWS]
    omega = build_omega(small_dataset)

    def battery(threads):
        cache = {}
        results = [run(small_dataset, cfg, omega, threads=threads, cache=cache) for cfg in configs]
        return [(r.n_classifier_evals, r.trace, r.best, r.best.genes.tolist()) for r in results], len(cache)

    assert battery(1) == battery(3)


@pytest.fixture
def crossover_events(monkeypatch) -> list:
    """(call, k, parent A, parent B) of every pair in every guided crossover
    sweep, recorded from outside the library; call numbers the sweeps."""
    events = []
    sweep = evolution.sweep_crossover
    calls = itertools.count()

    def recording(a, b, omega):
        ks = sweep(a, b, omega)
        call = next(calls)
        events.extend((call, k, ra.copy(), rb.copy()) for k, ra, rb in zip(ks.tolist(), a, b))
        return ks

    monkeypatch.setattr(evolution, "sweep_crossover", recording)
    return events


def test_run_guided_crossover_points_match_oracle(small_dataset, crossover_events):
    omega = build_omega(small_dataset)
    cfg = EvolutionConfig(population_size=6, subpopulations=2, elites=1, generations=3, seed=19)
    run(small_dataset, cfg, omega=omega)
    # 3 generations x 2 subpops x 3 chain steps, each swept once as one row of a batch
    assert len(crossover_events) == 18
    for _, k, a, b in crossover_events:
        assert k == oracle_crossover(a, b, omega)[0]
    # per generation, one sweep of the inner steps and one of the ring closures
    assert sorted({call for call, *_ in crossover_events}) == list(range(6))
    crossover_events.clear()
    run(small_dataset, replace(cfg, diversity_crossover=False), omega=omega)
    assert crossover_events == []


def test_run_migration_containment(small_dataset, migration_events):
    cfg = EvolutionConfig(population_size=12, subpopulations=3, elites=2, generations=4, seed=23)
    run(small_dataset, cfg, build_omega(small_dataset))
    assert len(migration_events) == 4
    for pre, post in migration_events:
        for i in range(3):
            top = sorted(pre[i], key=lambda t: -t[1])[:2]
            receiver = post[(i + 1) % 3]
            for genes, _ in top:
                assert any(np.array_equal(genes, g) for g, _ in receiver)
