import numpy as np
import pytest

from chainga import evolution
from chainga.classifier import FitnessEvaluator, FitnessRecord, mask_key
from chainga.data import SyntheticSpec, generate_synthetic
from chainga.evolution import (
    Chromosome,
    EvolutionConfig,
    _stream,
    chain_crossover_step,
    init_population,
    migrate_elites,
    mutation_step,
    run,
)
from chainga.infotheory import GainRatioMatrix, build_omega
from oracles import oracle_crossover


def _chrom(bits, fitness=None):
    genes = np.array(bits, dtype=bool)
    if fitness is None:
        return Chromosome(genes)
    return Chromosome(genes, FitnessRecord(fitness, fitness, int(genes.sum()), mask_key(genes)))


def _stub_evaluate(table):
    def evaluate(genes):
        value = table[tuple(int(b) for b in genes)]
        return FitnessRecord(value, value, int(np.sum(genes)), mask_key(genes))

    return evaluate


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


def test_config_multi_pop_off_ignores_divisibility():
    cfg = EvolutionConfig(population_size=30, subpopulations=4, multi_pop=False, elites=2)
    assert cfg.effective_m == 1


def test_init_population_sizes():
    cfg = EvolutionConfig(population_size=30, subpopulations=3, elites=2)
    pop = init_population(12, cfg, _stream(0, 0))
    assert len(pop) == 3
    assert [len(sp) for sp in pop] == [10, 10, 10]
    assert sum(len(sp) for sp in pop) == 30


def test_init_population_single_subpop():
    cfg = EvolutionConfig(population_size=8, subpopulations=1, elites=2)
    pop = init_population(5, cfg, _stream(1, 0))
    assert len(pop) == 1 and len(pop[0]) == 8


def test_init_population_deterministic():
    cfg = EvolutionConfig(population_size=12, subpopulations=3, elites=1)
    a = init_population(9, cfg, _stream(7, 0))
    b = init_population(9, cfg, _stream(7, 0))
    for sa, sb in zip(a, b):
        for ca, cb in zip(sa, sb):
            assert np.array_equal(ca.genes, cb.genes)


def test_init_population_repairs_empty_masks():
    cfg = EvolutionConfig(population_size=30, subpopulations=3, elites=2)
    pop = init_population(1, cfg, _stream(3, 0))
    assert all(ch.genes.any() for sp in pop for ch in sp)


def test_chain_crossover_identical_parents_keeps_incumbent(flat_omega):
    table = {k: 0.5 for k in [(1, 0, 1, 0), (0, 0, 0, 0)]}
    incumbent = _chrom([1, 0, 1, 0], 0.5)
    partner = _chrom([1, 0, 1, 0], 0.5)
    subpop = [incumbent, partner]
    cfg = EvolutionConfig(population_size=4, subpopulations=1, elites=0)
    out = chain_crossover_step(subpop, 0, flat_omega, cfg, _stream(0, 9), _stub_evaluate(table))
    assert out is incumbent


def test_chain_crossover_incumbent_dominates(flat_omega):
    # parents differ only at gene 0: the children are exactly the parents
    table = {(1, 0, 0, 1): 0.9, (0, 0, 0, 1): 0.2}
    incumbent = _chrom([1, 0, 0, 1], 0.9)
    partner = _chrom([0, 0, 0, 1], 0.2)
    subpop = [incumbent, partner]
    cfg = EvolutionConfig(population_size=4, subpopulations=1, elites=0)
    out = chain_crossover_step(subpop, 0, flat_omega, cfg, _stream(0, 9), _stub_evaluate(table))
    assert out is incumbent


def test_chain_crossover_improving_child_replaces():
    # feature 0 is a perfect predictor; the partner donates it to the child
    rng = np.random.default_rng(0)
    n = 40
    y = np.tile([0, 1], n // 2)
    cols = [y.astype(float), rng.random(n), rng.random(n), rng.random(n)]
    from chainga.data import RawTable, prepare

    raw = RawTable(
        ["f0", "f1", "f2", "f3", "class"],
        cols + [np.array([str(v) for v in y], dtype=object)],
        [True] * 4 + [False],
        "class",
    )
    ds = prepare(raw, bins=4, split_seed=0)
    omega = build_omega(ds)
    evaluator = FitnessEvaluator(ds, alpha=0.01, k=1)

    incumbent = Chromosome(np.array([0, 0, 0, 1], dtype=bool))
    partner = Chromosome(np.array([1, 0, 0, 1], dtype=bool))
    incumbent.fitness = evaluator.evaluate(incumbent.genes)
    partner.fitness = evaluator.evaluate(partner.genes)
    expected = sorted(
        [
            evaluator.evaluate(incumbent.genes),
            evaluator.evaluate(partner.genes),
        ],
        key=lambda r: r.fitness,
    )[-1]
    assert partner.fitness.fitness > incumbent.fitness.fitness  # setup sanity

    subpop = [incumbent, partner]
    cfg = EvolutionConfig(population_size=4, subpopulations=1, elites=0, knn_k=1)
    out = chain_crossover_step(subpop, 0, omega, cfg, _stream(0, 9), evaluator.evaluate)
    assert np.array_equal(out.genes, partner.genes)
    assert out.fitness == expected
    assert subpop[0] is out


def test_chain_crossover_last_position_partners_with_first():
    # chain of two: position 1 crosses with position 0 (ring closure)
    omega = GainRatioMatrix(np.array([0.9, 0.1, 0.1, 0.1]), np.zeros((4, 4)))
    table = {(0, 0, 0, 1): 0.1, (1, 0, 0, 1): 0.8}
    first = _chrom([1, 0, 0, 1], 0.8)
    last = _chrom([0, 0, 0, 1], 0.1)
    subpop = [first, last]
    cfg = EvolutionConfig(population_size=4, subpopulations=1, elites=0)
    out = chain_crossover_step(subpop, 1, omega, cfg, _stream(0, 9), _stub_evaluate(table))
    assert np.array_equal(out.genes, first.genes)


def test_chain_crossover_never_decreases_fitness(small_dataset):
    omega = build_omega(small_dataset)
    evaluator = FitnessEvaluator(small_dataset)
    cfg = EvolutionConfig(population_size=6, subpopulations=1, elites=0, seed=5)
    subpop = init_population(small_dataset.d, cfg, _stream(5, 0))[0]
    for ch in subpop:
        ch.fitness = evaluator.evaluate(ch.genes)
    before = [ch.fitness.fitness for ch in subpop]
    rng = _stream(5, 1, 1, 0)
    for j in range(len(subpop)):
        chain_crossover_step(subpop, j, omega, cfg, rng, evaluator.evaluate)
    after = [ch.fitness.fitness for ch in subpop]
    assert all(b >= a for a, b in zip(before, after))


def test_mutation_disabled_is_identity(flat_omega):
    cfg = EvolutionConfig(population_size=4, subpopulations=1, elites=0, mutation_prob=0.0)
    ch = _chrom([1, 0, 1, 0], 0.4)
    out = mutation_step(ch, flat_omega, cfg, _stream(0, 1))
    assert out is ch


def test_mutation_guided_flips_best_bit():
    omega = GainRatioMatrix(np.array([0.0, 0.9]), np.zeros((2, 2)))
    cfg = EvolutionConfig(
        population_size=2, subpopulations=1, elites=0, mutation_prob=1.0
    )
    out = mutation_step(_chrom([1, 0], 0.1), omega, cfg, _stream(0, 1))
    assert out.genes.tolist() == [True, True]
    assert out.fitness is None  # re-evaluated lazily


def test_mutation_random_flip_matches_seeded_draw(flat_omega):
    cfg = EvolutionConfig(
        population_size=2,
        subpopulations=1,
        elites=0,
        mutation_prob=1.0,
        diversity_mutation=False,
    )
    out = mutation_step(_chrom([1, 0, 1, 0], 0.1), flat_omega, cfg, _stream(42, 1))
    replay = _stream(42, 1)
    assert replay.random() < 1.0
    r = int(replay.integers(0, 4))
    expected = [True, False, True, False]
    expected[r] = not expected[r]
    assert out.genes.tolist() == expected


def test_mutation_repairs_emptied_mask():
    omega = GainRatioMatrix(np.array([0.5]), np.zeros((1, 1)))
    cfg = EvolutionConfig(
        population_size=2,
        subpopulations=1,
        elites=0,
        mutation_prob=1.0,
        diversity_mutation=False,
    )
    out = mutation_step(_chrom([1], 0.1), omega, cfg, _stream(0, 1))
    assert out.genes.any()


def test_migrate_zero_elites_noop():
    pop = [[_chrom([1, 0], 0.5)], [_chrom([0, 1], 0.4)]]
    before = [[ch for ch in sp] for sp in pop]
    migrate_elites(pop, 0)
    assert pop == before


def test_migrate_hand_case_two_subpops():
    a, b = _chrom([1, 0, 0, 0], 0.9), _chrom([0, 1, 0, 0], 0.1)
    c, d = _chrom([0, 0, 1, 0], 0.8), _chrom([0, 0, 0, 1], 0.2)
    pop = [[a, b], [c, d]]
    migrate_elites(pop, 1)
    # P1's worst (b) replaced by P2's elite c; P2's worst (d) by P1's elite a
    assert pop[0][0] is a
    assert np.array_equal(pop[0][1].genes, c.genes)
    assert pop[1][0] is c
    assert np.array_equal(pop[1][1].genes, a.genes)


def test_migrate_senders_keep_their_elites():
    rng = np.random.default_rng(3)
    subpops = []
    for _ in range(3):
        subpops.append([_chrom(rng.random(6) < 0.5, float(rng.random())) for _ in range(5)])
    top_before = [
        sorted(sp, key=lambda ch: -ch.fitness.fitness)[:2][0].genes.copy() for sp in subpops
    ]
    pop = [list(sp) for sp in subpops]
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
            [ch.genes.copy() for ch in sorted(sp, key=lambda ch: -ch.fitness.fitness)[:s]]
            for sp in subpops
        ]
        pop = [list(sp) for sp in subpops]
        migrate_elites(pop, s)
        for i in range(m):
            receiver = pop[(i + 1) % m]
            for genes in elites[i]:
                assert any(np.array_equal(ch.genes, genes) for ch in receiver)


def test_migrate_reads_the_pre_migration_snapshot():
    a, b, c = _chrom([1, 0], 0.9), _chrom([0, 1], 0.5), _chrom([1, 1], 0.1)
    pop = [[a], [b], [c]]
    migrate_elites(pop, 1)
    # each subpop receives its predecessor's elite as it was before any move,
    # so the strongest chromosome advances one step instead of cascading
    assert [sp[0].fitness.fitness for sp in pop] == [0.1, 0.9, 0.5]


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
            *[
                ch.genes
                for ch in init_population(
                    ds.d,
                    EvolutionConfig(
                        population_size=2, subpopulations=1, elites=0,
                        generations=1, mutation_prob=0.0, seed=s,
                    ),
                    _stream(s, 0),
                )[0]
            ]
        )
    )
    cfg = EvolutionConfig(
        population_size=2, subpopulations=1, elites=0, generations=1,
        mutation_prob=0.0, seed=seed,
    )
    result = run(ds, cfg)
    pop = init_population(ds.d, cfg, _stream(seed, 0))
    expected = FitnessEvaluator(ds, cfg.alpha, cfg.knn_k).evaluate(pop[0][0].genes)
    assert result.best_fitness == expected
    assert np.array_equal(result.best_mask, pop[0][0].genes)


def test_run_population_size_and_monotone_best(small_dataset):
    cfg = EvolutionConfig(population_size=12, subpopulations=3, elites=2, generations=6, seed=9)
    result = run(small_dataset, cfg)
    for gen in range(1, 7):
        sizes = [row.size for row in result.trace if row.generation == gen]
        assert sum(sizes) == 12 and sizes == [4, 4, 4]
    curve = result.global_best_curve
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert result.best_fitness.fitness == curve[-1]


def test_run_trace_reproducible(small_dataset):
    cfg = EvolutionConfig(population_size=9, subpopulations=3, elites=1, generations=4, seed=11)
    a = run(small_dataset, cfg)
    b = run(small_dataset, cfg)
    assert a.trace == b.trace
    assert np.array_equal(a.best_mask, b.best_mask)
    assert a.best_fitness == b.best_fitness
    assert a.metrics.accuracy == b.metrics.accuracy


def test_run_threads_bit_identical(small_dataset):
    cfg = EvolutionConfig(population_size=12, subpopulations=3, elites=2, generations=5, seed=13)
    serial = run(small_dataset, cfg, threads=1)
    threaded = run(small_dataset, cfg, threads=3)
    assert serial.trace == threaded.trace
    assert np.array_equal(serial.best_mask, threaded.best_mask)
    assert serial.best_fitness == threaded.best_fitness
    assert serial.global_best_curve == threaded.global_best_curve


def test_run_all_flags_off_is_single_population_random_ga(small_dataset):
    base = dict(population_size=12, elites=2, generations=4, seed=17,
                multi_pop=False, elite_interaction=False,
                diversity_crossover=False, diversity_mutation=False)
    plain = run(small_dataset, EvolutionConfig(subpopulations=3, **base))
    explicit = run(small_dataset, EvolutionConfig(subpopulations=1, **base))
    assert all(row.subpop == 0 and row.size == 12 for row in plain.trace)
    assert plain.trace == explicit.trace
    assert np.array_equal(plain.best_mask, explicit.best_mask)


@pytest.fixture
def crossover_events(monkeypatch) -> list:
    """(k, parent A, parent B) of every guided crossover sweep, recorded
    from outside the library."""
    events = []
    sweep = evolution.sweep_crossover

    def recording(a, b, omega):
        k, j_value = sweep(a, b, omega)
        events.append((k, a.copy(), b.copy()))
        return k, j_value

    monkeypatch.setattr(evolution, "sweep_crossover", recording)
    return events


def test_run_guided_crossover_points_match_oracle(small_dataset, crossover_events):
    omega = build_omega(small_dataset)
    cfg = EvolutionConfig(population_size=6, subpopulations=2, elites=1, generations=3, seed=19)
    run(small_dataset, cfg, omega=omega)
    # 3 generations x 2 subpops x 3 chain steps, each sweeping once
    assert len(crossover_events) == 18
    for k, a, b in crossover_events:
        assert k == oracle_crossover(a, b, omega)[0]


def test_run_migration_containment(small_dataset, migration_events):
    cfg = EvolutionConfig(population_size=12, subpopulations=3, elites=2, generations=4, seed=23)
    run(small_dataset, cfg)
    assert len(migration_events) == 4
    for pre, post in migration_events:
        for i in range(3):
            top = sorted(pre[i], key=lambda t: -t[1])[:2]
            receiver = post[(i + 1) % 3]
            for genes, _ in top:
                assert any(np.array_equal(genes, g) for g, _ in receiver)
