"""Chained multi-population GA engine with guided operators and elite migration.

A chromosome is the evaluator's ``FitnessRecord``: a read-only mask and
its cached score. Each subpopulation is an ordered chain: every
chromosome crosses over with its successor (closing the ring), the best
of {incumbent, child A, child B} takes the slot, and a mutation pass
follows. At the end of each generation the top S elites of every
subpopulation replace the worst chromosomes of the next one along the
ring; none move when M = 1 or S = 0. The crossover cut and mutation
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
) -> list[list[np.ndarray]]:
    """Uniform random bit masks dealt into M chains of N/M masks."""
    size = config.population_size // config.subpopulations
    return [[_repair(rng.integers(0, 2, size=d).astype(bool), rng) for _ in range(size)]
            for _ in range(config.subpopulations)]


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


def _top_indices(subpop: list[FitnessRecord], s: int) -> list[int]:
    return sorted(range(len(subpop)), key=lambda i: (-subpop[i].fitness, i))[:s]


def _worst_indices(subpop: list[FitnessRecord], s: int) -> list[int]:
    return sorted(range(len(subpop)), key=lambda i: (subpop[i].fitness, i))[:s]


def migrate_elites(subpops: list[list[FitnessRecord]], s: int) -> None:
    """Move each subpopulation's s best chromosomes over the next
    subpopulation's s worst slots along the ring, in place.

    Every sender and receiver is read before any slot is written, so the
    result does not depend on the order in which the ring is walked.
    """
    m = len(subpops)
    if s == 0 or m < 2:
        return
    moves = []
    for i, subpop in enumerate(subpops):
        elites = [subpop[t] for t in _top_indices(subpop, s)]
        receiver = (i + 1) % m
        slots = _worst_indices(subpops[receiver], s)
        moves.append((receiver, slots, elites))
    for receiver, slots, elites in moves:
        for slot, elite in zip(slots, elites):
            subpops[receiver][slot] = elite


def _first_best(records: list[FitnessRecord]) -> FitnessRecord:
    """The first record of top fitness: earlier ones win ties."""
    return max(records, key=lambda record: record.fitness)


def _crossover(
    subpops: list[list[FitnessRecord]],
    steps: list[tuple[int, int]],
    omega: GainRatioMatrix,
    config: EvolutionConfig,
    rngs: list[np.random.Generator],
    evaluate_many,
) -> list[list[FitnessRecord]]:
    """Chain steps (subpop i, slot j): cross slot j with slot j+1 (ring
    closed), score every child in one batch, then keep the best of
    {incumbent, child A, child B} in slot j; fitness ties keep the
    incumbent, then prefer child A. Every slot is read before any is
    written. One sweep finds every guided cut, drawing nothing from the
    streams; the children are built as one array. Returns each step's
    two children."""
    n, d = len(steps), omega.d
    parents = np.array([(subpops[i][j].genes, subpops[i][(j + 1) % len(subpops[i])].genes)
                        for i, j in steps]).reshape(n, 2, d)
    cuts = sweep_crossover(parents[:, 0], parents[:, 1], omega) if config.diversity_crossover else np.ones(n, int)
    # child c is parent c before the cut k and the other parent from k on, so it
    # is empty when parent c's first gene is at or after k and the other's last is before k
    pos = np.arange(d)
    first = np.where(parents, pos, d).min(axis=2).tolist()
    last = np.where(parents, pos, -1).max(axis=2)[:, ::-1].tolist()  # the other parent's
    repairs = []  # (child, gene), drawn where and in the order a serial chain draws
    for t, (i, _) in enumerate(steps):
        if not config.diversity_crossover:
            cuts[t] = rngs[i].integers(1, d)
        repairs += [(2 * t + c, rngs[i].integers(0, d)) for c in (0, 1) if first[t][c] >= cuts[t] > last[t][c]]
    children = np.where(pos < cuts[:, None, None], parents, parents[:, ::-1]).reshape(2 * n, d)
    rows, genes = np.array(repairs, dtype=int).reshape(-1, 2).T
    children[rows, genes] = True
    children = evaluate_many(children)
    pairs = [children[t : t + 2] for t in range(0, len(children), 2)]
    for (i, j), pair in zip(steps, pairs):
        subpops[i][j] = _first_best([subpops[i][j], *pair])
    return pairs


def _generation(
    subpops: list[list[FitnessRecord]],
    generation: int,
    omega: GainRatioMatrix,
    config: EvolutionConfig,
    evaluate_many,
) -> list[FitnessRecord]:
    """One generation of every subpopulation, in three batches: the chain
    steps 0..size-2 (they read only the original slots j and j+1), the
    ring closures (they read step 0's winner), then the mutants.

    Each subpopulation draws from its own stream, keyed by (seed,
    generation, subpop index), in the order of a serial walk of its
    chain; the draws depend on genes only, never on fitness. A mutant
    takes its slot once scored. Returns every record evaluated, in serial
    chain order: per subpopulation, its children and then its mutants.
    """
    rngs = [_stream(config.seed, 1, generation, i) for i in range(len(subpops))]
    evaluated: list[list[FitnessRecord]] = [[] for _ in subpops]
    if omega.d > 1:  # a cut needs two genes; a chain of one has no partner
        inner = [(i, j) for i, sp in enumerate(subpops) for j in range(len(sp) - 1)]
        closing = [(i, len(sp) - 1) for i, sp in enumerate(subpops) if len(sp) > 1]
        for steps in (inner, closing):
            for (i, _), pair in zip(steps, _crossover(subpops, steps, omega, config, rngs, evaluate_many)):
                evaluated[i] += pair

    mutants = []  # (subpop, slot, mask)
    for i, (subpop, rng) in enumerate(zip(subpops, rngs)):
        for j, record in enumerate(subpop):
            genes = mutation_step(record.genes, omega, config, rng)
            if genes is not None:
                mutants.append((i, j, genes))
    for (i, j, _), record in zip(mutants, evaluate_many([genes for *_, genes in mutants])):
        subpops[i][j] = record
        evaluated[i].append(record)
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
    trace: list[TraceRow] = []
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        evaluate_many = partial(evaluator.evaluate_many, pool=pool)
        population = evaluate_many([genes for chain in masks for genes in chain])
        size = len(masks[0])
        subpops = [population[t : t + size] for t in range(0, len(population), size)]
        best = _first_best(population)
        for gen in range(1, config.generations + 1):
            best = _first_best([best, *_generation(subpops, gen, omega, config, evaluate_many)])
            migrate_elites(subpops, config.elites)
            for i, subpop in enumerate(subpops):
                values = [record.fitness for record in subpop]
                top = int(np.argmax(values))
                trace.append(
                    TraceRow(
                        generation=gen,
                        subpop=i,
                        size=len(subpop),
                        best_fitness=max(values),
                        mean_fitness=float(np.mean(values)),
                        best_n_selected=subpop[top].n_selected,
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
