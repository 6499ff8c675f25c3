"""Property tests: the batched generation against its serial predecessor, the
array-built crossover phase against its loop predecessor, and the array
migration against its list predecessor. The predecessors hold the
population as lists of lists; ``population`` gives the GA's record array."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from chainga.classifier import FitnessRecord, mask_key
from chainga.evolution import (
    EvolutionConfig,
    _crossover,
    _first_best,
    _generation,
    _stream,
    init_population,
    migrate_elites,
)
from chainga.infotheory import GainRatioMatrix
from oracles import list_migrate_elites, loop_crossover, population, serial_generation


def _tie_heavy_fitness(levels):
    """Fitness from a digest of the mask onto ``levels`` values in [0, 1]:
    few distinct values, so most comparisons are ties. Every mask scored
    must have a set gene: the GA repairs each one it makes."""

    def evaluate(genes):
        assert np.any(genes), "the GA scored an empty mask"
        value = int.from_bytes(mask_key(genes), "little") % levels / max(levels - 1, 1)
        genes = np.array(genes, dtype=bool)
        genes.setflags(write=False)
        return FitnessRecord(genes, value, int(genes.sum()))

    return evaluate


def _random_omega(rng, d):
    ff = rng.choice([0.0, 0.5, 1.0], size=(d, d))
    np.fill_diagonal(ff, 0.0)
    return GainRatioMatrix(rng.choice([0.0, 0.5, 1.0], size=d), ff)


def _copy(subpops):
    return [list(sp) for sp in subpops]


def _state(records):
    """Genes and every record field: record equality ignores the genes."""
    return [(record.genes.tolist(), record) for record in records]


@given(
    d=st.integers(1, 6),
    m=st.integers(1, 3),
    size=st.integers(1, 4),
    elites=st.integers(0, 4),
    flags=st.tuples(st.booleans(), st.booleans()),
    mutation_prob=st.sampled_from([0.0, 0.5, 1.0]),
    levels=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(d=1, m=2, size=2, elites=1, flags=(True,) * 2, mutation_prob=1.0, levels=2, seed=0)
@example(d=3, m=3, size=1, elites=1, flags=(True,) * 2, mutation_prob=0.5, levels=1, seed=1)
@example(d=4, m=2, size=2, elites=0, flags=(False,) * 2, mutation_prob=0.0, levels=3, seed=2)
def test_generation_matches_serial_predecessor(d, m, size, elites, flags, mutation_prob, levels, seed):
    diversity_crossover, diversity_mutation = flags
    cfg = EvolutionConfig(
        population_size=m * size, subpopulations=m, elites=min(elites, size), generations=3,
        mutation_prob=mutation_prob, seed=seed, diversity_crossover=diversity_crossover,
        diversity_mutation=diversity_mutation,
    )
    omega = _random_omega(np.random.default_rng(seed), d)
    evaluate = _tie_heavy_fitness(levels)

    chains = [[evaluate(genes) for genes in chain] for chain in init_population(d, cfg, _stream(seed, 0))]
    batched, serial = population(chains), _copy(chains)
    best = _first_best(batched.flat)
    serial_best = best
    for gen in range(1, cfg.generations + 1):
        new = _generation(batched, gen, omega, cfg, lambda masks: [evaluate(g) for g in masks])
        old = serial_generation(serial, gen, omega, cfg, evaluate)
        assert _state(new) == _state(old)
        # the serial run kept the first record that beat the incumbent outright
        best = _first_best([best, *new])
        for record in old:
            if record.fitness > serial_best.fitness:
                serial_best = record
        assert _state([best]) == _state([serial_best])
        migrate_elites(batched, cfg.elites)
        list_migrate_elites(serial, cfg.elites)
        assert [_state(sp) for sp in batched] == [_state(sp) for sp in serial]


@st.composite
def _chains(draw):
    """1-3 chains of one length, 1-4 masks, over d genes. About half the
    masks carry one set gene, so some children come out empty and get
    repaired."""
    d = draw(st.integers(2, 8))
    sparse = st.integers(0, d - 1).map(lambda g: np.arange(d) == g)
    dense = st.lists(st.booleans(), min_size=d, max_size=d).filter(any).map(np.array)
    m, size = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return d, [[draw(st.one_of(sparse, dense)) for _ in range(size)] for _ in range(m)]


@given(chains=_chains(), guided=st.booleans(), levels=st.integers(1, 3), seed=st.integers(0, 2**16))
@example(chains=(5, [[np.arange(5) == g for g in (4, 0, 3, 1)]]), guided=False, levels=2, seed=0)
@example(chains=(5, [[np.arange(5) == g for g in (4, 0, 3, 1)]]), guided=True, levels=2, seed=0)
@example(chains=(3, [[np.arange(3) == 2], [np.array([True, False, True])]]), guided=False, levels=2, seed=0)
def test_crossover_matches_loop_predecessor(chains, guided, levels, seed):
    """Children, slot winners and each stream's next draw, over both
    phases of a generation (the inner steps, then the ring closures); a
    chain of one has neither."""
    d, genes = chains
    cfg = EvolutionConfig(diversity_crossover=guided)
    omega = _random_omega(np.random.default_rng(seed), d)
    evaluate = _tie_heavy_fitness(levels)
    evaluate_many = lambda masks: [evaluate(g) for g in masks]  # noqa: E731
    looped = [[evaluate(g) for g in chain] for chain in genes]
    built = population(looped)
    m, size = built.shape
    built_rngs, looped_rngs = ([_stream(seed, 1, 1, i) for i in range(m)] for _ in range(2))
    closing = [size - 1] if size > 1 else []  # a chain of one has no partner
    for slots in (np.arange(size - 1), np.array(closing, dtype=int)):
        new = _crossover(built, slots, omega, cfg, built_rngs, evaluate_many)
        old = loop_crossover(looped, [(i, j) for i in range(m) for j in slots.tolist()], omega, cfg,
                             looped_rngs, evaluate_many)
        assert new.shape == (m, len(slots), 2)
        assert [_state(pair) for pair in new.reshape(-1, 2)] == [_state(pair) for pair in old]
        assert [_state(sp) for sp in built] == [_state(sp) for sp in looped]
    assert [rng.integers(2**62) for rng in built_rngs] == [rng.integers(2**62) for rng in looped_rngs]


@st.composite
def _migration_cases(draw):
    """(chains of records, s): 1-4 chains of one length, 1-6, with fitness
    on 1-3 levels, so most comparisons are ties, and s from 0 to the
    length. Every record is its own object, so ``is`` tells which one moved."""
    m, size, levels = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    values = draw(st.lists(st.integers(0, levels - 1), min_size=m * size, max_size=m * size))
    records = [FitnessRecord(np.arange(m * size) == t, v / max(levels - 1, 1), 1) for t, v in enumerate(values)]
    return [records[i * size:(i + 1) * size] for i in range(m)], draw(st.integers(0, size))


@given(_migration_cases())
@example(([[FitnessRecord(np.arange(6) == t, 0.5, 1) for t in range(3 * i, 3 * i + 3)] for i in range(2)], 2))
def test_migration_matches_list_predecessor(case):
    """Slot by slot the same record objects as the list migration, which
    sorts (-fitness, slot) for the elites and (fitness, slot) for the
    slots they take: ties go to the lower slot on both sides."""
    chains, s = case
    pop, lists = population(chains), _copy(chains)
    migrate_elites(pop, s)
    list_migrate_elites(lists, s)
    assert all(a is b for a, b in zip(pop.flat, (record for chain in lists for record in chain), strict=True))
