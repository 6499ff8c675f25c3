"""Chained multi-population GA engine with guided operators and elite migration.

A chromosome is the evaluator's ``FitnessRecord``: a read-only mask and
its cached score. The population is an (M, N/M) object array of them;
each row is a subpopulation's chain: every chromosome crosses over with
its successor (closing the ring), the best of {incumbent, child A, child
B} takes the slot, and a mutation pass follows. After each generation
the top S elites of every row replace the worst of the next row along
the ring; none move when M = 1 or S = 0. The crossover cut and mutation
site are chosen by the gain-ratio subset criterion when the diversity
flags are on, and uniformly at random otherwise.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial
from numbers import Real

import numpy as np

from .classifier import FitnessEvaluator, FitnessRecord, MetricBundle
from .criterion import sweep_crossover, sweep_mutation
from .data import Dataset
from .infotheory import GainRatioMatrix


@dataclass
class EvolutionConfig:
    population_size: int = 30
    subpopulations: int = 3
    elites: int = 2
    generations: int = 30
    mutation_prob: float = 0.1
    alpha: float = 0.01
    knn_k: int = 5
    seed: int = 0
    diversity_crossover: bool = True
    diversity_mutation: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, label = {"int": (int, "an integer"), "float": (Real, "a real number"),
                           "bool": (bool, "true or false")}[f.type]
            # bool subclasses int: it passes only where a flag is due
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise ValueError(f"{f.name} must be {label}, got {value!r}")
        if self.population_size < 1:
            raise ValueError(f"population size must be >= 1, got {self.population_size}")
        if not 1 <= self.subpopulations <= self.population_size:
            raise ValueError(
                f"subpopulation count must be in [1, {self.population_size}], "
                f"got {self.subpopulations}"
            )
        if self.population_size % self.subpopulations:
            raise ValueError(
                f"subpopulation count {self.subpopulations} must divide "
                f"population size {self.population_size}"
            )
        if not 0 <= self.elites <= self.population_size // self.subpopulations:
            raise ValueError(
                f"elite count {self.elites} exceeds subpopulation size "
                f"{self.population_size // self.subpopulations}"
            )
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation probability must be in [0, 1], got {self.mutation_prob}")
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.knn_k < 1:
            raise ValueError(f"knn k must be >= 1, got {self.knn_k}")


@dataclass
class TraceRow:
    generation: int
    subpop: int
    size: int
    best_fitness: float
    mean_fitness: float
    best_n_selected: int


@dataclass
class RunResult:
    best: FitnessRecord
    metrics: MetricBundle
    feature_ratio: float
    trace: list[TraceRow]
    wall_time_s: float
    n_classifier_evals: int
    seed: int


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def _repair(genes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if not genes.any():
        genes[rng.integers(0, genes.size)] = True
    return genes


def init_population(
    d: int, config: EvolutionConfig, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random bit masks dealt into M chains of N/M masks: an (M, N/M, d) bool array."""
    masks = [_repair(rng.integers(0, 2, size=d).astype(bool), rng) for _ in range(config.population_size)]
    return np.array(masks).reshape(config.subpopulations, -1, d)


def mutation_step(
    genes: np.ndarray,
    omega: GainRatioMatrix,
    config: EvolutionConfig,
    rng: np.random.Generator,
) -> np.ndarray | None:
    """With probability p_m flip one gene (guided or uniform) unconditionally
    and return the new mask; return None when no flip is drawn."""
    if rng.random() >= config.mutation_prob:
        return None
    if config.diversity_mutation:
        r = sweep_mutation(genes, omega)
    else:
        r = int(rng.integers(0, genes.size))
    genes = genes.copy()
    genes[r] = not genes[r]
    return _repair(genes, rng)


def _fitness(records: np.ndarray) -> np.ndarray:
    return np.fromiter((record.fitness for record in records.flat), float, records.size).reshape(records.shape)


def migrate_elites(pop: np.ndarray, s: int) -> None:
    """Move each chain's s best records over the next chain's s worst slots
    along the ring, in place; ties go to the lower slot on both sides. Every
    sender and receiver is read before any slot is written."""
    if s == 0 or len(pop) < 2:
        return
    fitness = _fitness(pop)
    top = np.argsort(-fitness, axis=1, kind="stable")[:, :s]
    worst = np.argsort(fitness, axis=1, kind="stable")[:, :s]
    ring = np.arange(len(pop))[:, None]
    pop[ring, worst] = pop[ring - 1, top[ring[:, 0] - 1]]  # chain i takes chain i-1's; read before written


def _first_best(records) -> FitnessRecord:
    """The first record of top fitness: earlier ones win ties."""
    return max(records, key=lambda record: record.fitness)


def _crossover(
    pop: np.ndarray,
    slots: np.ndarray,
    omega: GainRatioMatrix,
    config: EvolutionConfig,
    rngs: list[np.random.Generator],
    evaluate_many,
) -> np.ndarray:
    """One chain phase: in every chain, cross each slot j in ``slots`` with
    slot j+1 (ring closed), score every child in one batch, and keep the
    best of {incumbent, child A, child B} in slot j (ties keep the
    incumbent, then child A). Every slot is read before any is written,
    and one sweep finds every guided cut, drawing nothing from the
    streams. Returns the (M, n, 2) children."""
    (m, size), n, d = pop.shape, len(slots), omega.d
    pairs = pop[:, (slots[:, None] + (0, 1)) % size]  # (M, n, 2): each slot and its successor
    parents = np.array([record.genes for record in pairs.flat]).reshape(m * n, 2, d)
    cuts = sweep_crossover(parents[:, 0], parents[:, 1], omega) if config.diversity_crossover else np.ones(m * n, int)
    # child c is parent c before the cut k and the other parent from k on, so it
    # is empty when parent c's first gene is at or after k and the other's last is before k
    pos = np.arange(d)
    first = np.where(parents, pos, d).min(axis=2).tolist()
    last = np.where(parents, pos, -1).max(axis=2)[:, ::-1].tolist()  # the other parent's
    repairs = []  # flat (child, gene) indices, drawn where and in the order a serial chain draws
    for t in range(m * n):
        rng = rngs[t // n]
        if not config.diversity_crossover:
            cuts[t] = rng.integers(1, d)
        repairs += [(2 * t + c) * d + rng.integers(0, d) for c in (0, 1) if first[t][c] >= cuts[t] > last[t][c]]
    children = np.where(pos < cuts[:, None, None], parents, parents[:, ::-1]).reshape(2 * m * n, d)
    children.flat[repairs] = True
    children = np.fromiter(evaluate_many(children), dtype=object, count=2 * m * n).reshape(m, n, 2)
    rivals = np.concatenate([pairs[:, :, :1], children], axis=2).reshape(m * n, 3)
    pop[:, slots] = rivals[np.arange(m * n), _fitness(rivals).argmax(axis=1)].reshape(m, n)
    return children


def _generation(
    pop: np.ndarray,
    generation: int,
    omega: GainRatioMatrix,
    config: EvolutionConfig,
    evaluate_many,
) -> list[FitnessRecord]:
    """One generation of every chain, in three batches: the chain steps
    0..size-2 (they read only the original slots j and j+1), the ring
    closures (they read step 0's winner), then the mutants. Each chain
    draws from its own stream, keyed by (seed, generation, chain index),
    in the order of a serial walk of the chain; the draws depend on genes
    only, never on fitness. A mutant takes its slot once scored. Returns
    every record evaluated, in serial chain order: per chain, its
    children and then its mutants.
    """
    m, size = pop.shape
    rngs = [_stream(config.seed, 1, generation, i) for i in range(m)]
    evaluated: list[list[FitnessRecord]] = [[] for _ in range(m)]
    if omega.d > 1 and size > 1:  # a cut needs two genes; a chain of one has no partner
        for slots in (np.arange(size - 1), np.array([size - 1])):
            for chain, children in zip(evaluated, _crossover(pop, slots, omega, config, rngs, evaluate_many)):
                chain += children.flat

    drawn = [mutation_step(record.genes, omega, config, rngs[t // size]) for t, record in enumerate(pop.flat)]
    mutants = [t for t, genes in enumerate(drawn) if genes is not None]  # flat slots
    for t, record in zip(mutants, evaluate_many([drawn[t] for t in mutants])):
        pop.flat[t] = record
        evaluated[t // size].append(record)
    return [record for chain in evaluated for record in chain]


def run(
    dataset: Dataset,
    config: EvolutionConfig,
    omega: GainRatioMatrix,
    threads: int = 1,
    cache: dict | None = None,
) -> RunResult:
    """Full evolutionary search: returns the globally best mask, its test
    metrics, and a per-generation trace.

    The global best is the first record of top fitness in serial chain
    order. With ``threads`` > 1 a pool scores each batch's new masks;
    results and counters do not depend on it. A ``cache`` from earlier
    runs on the same dataset, alpha and k is shared; the run counts only
    the masks it adds.
    """
    start = time.perf_counter()
    evaluator = FitnessEvaluator(dataset, config.alpha, config.knn_k, {} if cache is None else cache)
    known = len(evaluator.cache)

    masks = init_population(dataset.d, config, _stream(config.seed, 0))
    m, size, d = masks.shape
    trace: list[TraceRow] = []
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        evaluate_many = partial(evaluator.evaluate_many, pool=pool)
        pop = np.fromiter(evaluate_many(masks.reshape(m * size, d)), dtype=object, count=m * size).reshape(m, size)
        best = _first_best(pop.flat)
        for gen in range(1, config.generations + 1):
            best = _first_best([best, *_generation(pop, gen, omega, config, evaluate_many)])
            migrate_elites(pop, config.elites)
            fitness = _fitness(pop)
            for i, (top, mean) in enumerate(zip(fitness.argmax(axis=1), fitness.mean(axis=1))):
                trace.append(
                    TraceRow(
                        generation=gen,
                        subpop=i,
                        size=size,
                        best_fitness=float(fitness[i, top]),
                        mean_fitness=float(mean),
                        best_n_selected=pop[i, top].n_selected,
                    )
                )

    metrics = evaluator.test_metrics(best.genes)
    return RunResult(
        best=best,
        metrics=metrics,
        feature_ratio=best.n_selected / dataset.d,
        trace=trace,
        wall_time_s=time.perf_counter() - start,
        n_classifier_evals=len(evaluator.cache) - known,
        seed=config.seed,
    )
