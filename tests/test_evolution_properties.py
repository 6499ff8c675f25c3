"""Property tests: the batched generation against its serial predecessor."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from chainga.classifier import FitnessRecord, mask_key
from chainga.evolution import (
    EvolutionConfig,
    _first_best,
    _generation,
    _stream,
    init_population,
    migrate_elites,
)
from chainga.infotheory import GainRatioMatrix
from oracles import serial_generation


def _tie_heavy_fitness(levels):
    """Fitness from a digest of the mask onto ``levels`` values in [0, 1]:
    few distinct values, so most comparisons are ties."""

    def evaluate(genes):
        value = int.from_bytes(mask_key(genes), "little") % levels / max(levels - 1, 1)
        genes = np.array(genes, dtype=bool)
        genes.setflags(write=False)
        return FitnessRecord(genes, value, value, int(genes.sum()))

    return evaluate


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
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    mutation_prob=st.sampled_from([0.0, 0.5, 1.0]),
    levels=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(d=1, m=2, size=2, elites=1, flags=(True,) * 4, mutation_prob=1.0, levels=2, seed=0)
@example(d=3, m=3, size=1, elites=1, flags=(True,) * 4, mutation_prob=0.5, levels=1, seed=1)
@example(d=4, m=2, size=2, elites=0, flags=(False,) * 4, mutation_prob=0.0, levels=3, seed=2)
def test_generation_matches_serial_predecessor(d, m, size, elites, flags, mutation_prob, levels, seed):
    multi_pop, elite_interaction, diversity_crossover, diversity_mutation = flags
    cfg = EvolutionConfig(
        population_size=m * size, subpopulations=m, elites=min(elites, size if multi_pop else m * size),
        generations=3, mutation_prob=mutation_prob, seed=seed, multi_pop=multi_pop,
        elite_interaction=elite_interaction, diversity_crossover=diversity_crossover,
        diversity_mutation=diversity_mutation,
    )
    rng = np.random.default_rng(seed)
    ff = rng.choice([0.0, 0.5, 1.0], size=(d, d))
    np.fill_diagonal(ff, 0.0)
    omega = GainRatioMatrix(rng.choice([0.0, 0.5, 1.0], size=d), ff)
    evaluate = _tie_heavy_fitness(levels)

    batched = [[evaluate(genes) for genes in chain] for chain in init_population(d, cfg, _stream(seed, 0))]
    serial = _copy(batched)
    best = _first_best([record for sp in batched for record in sp])
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
        if cfg.elite_interaction:
            migrate_elites(batched, cfg.elites)
            migrate_elites(serial, cfg.elites)
        assert [_state(sp) for sp in batched] == [_state(sp) for sp in serial]
