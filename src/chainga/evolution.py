"""Chained multi-population GA engine with guided operators and elite migration.

Each subpopulation is an ordered chain: every chromosome crosses over with
its successor (closing the ring), the best of {incumbent, child A,
child B} takes the slot, and a mutation pass follows. At the end of each
generation the top elites of every subpopulation replace the worst
chromosomes of the next one along the ring. The crossover cut and mutation
site are chosen by the gain-ratio subset criterion when the diversity
flags are on, and uniformly at random otherwise.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classifier import FitnessEvaluator, FitnessRecord, MetricBundle
from .criterion import sweep_crossover, sweep_mutation
from .data import Dataset
from .infotheory import GainRatioMatrix, build_omega


@dataclass
class Chromosome:
    genes: np.ndarray
    fitness: FitnessRecord | None = None

    def __post_init__(self):
        self.genes = np.asarray(self.genes, dtype=bool)
        self.genes.setflags(write=False)

    @property
    def n_selected(self) -> int:
        return int(self.genes.sum())


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
    multi_pop: bool = True
    elite_interaction: bool = True
    diversity_crossover: bool = True
    diversity_mutation: bool = True

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError(f"population size must be >= 1, got {self.population_size}")
        if not 1 <= self.subpopulations <= self.population_size:
            raise ValueError(
                f"subpopulation count must be in [1, {self.population_size}], "
                f"got {self.subpopulations}"
            )
        if self.multi_pop and self.population_size % self.subpopulations:
            raise ValueError(
                f"subpopulation count {self.subpopulations} must divide "
                f"population size {self.population_size}"
            )
        if not 0 <= self.elites <= self.population_size // self.effective_m:
            raise ValueError(
                f"elite count {self.elites} exceeds subpopulation size "
                f"{self.population_size // self.effective_m}"
            )
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation probability must be in [0, 1], got {self.mutation_prob}")
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.knn_k < 1:
            raise ValueError(f"knn k must be >= 1, got {self.knn_k}")

    @property
    def effective_m(self) -> int:
        return self.subpopulations if self.multi_pop else 1


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
    best_mask: np.ndarray
    best_fitness: FitnessRecord
    metrics: MetricBundle
    feature_ratio: float
    trace: list[TraceRow]
    global_best_curve: list[float]
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
) -> list[list[Chromosome]]:
    """Uniform random bit masks dealt into M chains of N/M chromosomes."""
    m = config.effective_m
    size = config.population_size // m
    subpops = []
    for _ in range(m):
        chain = []
        for _ in range(size):
            genes = rng.integers(0, 2, size=d).astype(bool)
            chain.append(Chromosome(_repair(genes, rng)))
        subpops.append(chain)
    return subpops


def chain_crossover_step(
    subpop: list[Chromosome],
    j: int,
    omega: GainRatioMatrix,
    config: EvolutionConfig,
    rng: np.random.Generator,
    evaluate,
) -> Chromosome:
    """Cross position j with its chain successor and keep the best of three.

    Both children at the chosen cut are formed; fitness ties keep the
    incumbent, then prefer child A. The updated chromosome is written back
    to the chain and returned.
    """
    size = len(subpop)
    d = omega.d
    partner_idx = (j + 1) % size
    if partner_idx == j or d < 2:
        return subpop[j]

    incumbent = subpop[j]
    partner = subpop[partner_idx]
    if config.diversity_crossover:
        k, _ = sweep_crossover(incumbent.genes, partner.genes, omega)
    else:
        k = int(rng.integers(1, d))

    genes_a = _repair(np.concatenate([incumbent.genes[:k], partner.genes[k:]]), rng)
    genes_b = _repair(np.concatenate([partner.genes[:k], incumbent.genes[k:]]), rng)
    child_a = Chromosome(genes_a, evaluate(genes_a))
    child_b = Chromosome(genes_b, evaluate(genes_b))

    best = incumbent
    if child_a.fitness.fitness > best.fitness.fitness:
        best = child_a
    if child_b.fitness.fitness > best.fitness.fitness:
        best = child_b
    subpop[j] = best
    return best


def mutation_step(
    chromosome: Chromosome,
    omega: GainRatioMatrix,
    config: EvolutionConfig,
    rng: np.random.Generator,
) -> Chromosome:
    """With probability p_m flip one gene (guided or uniform) unconditionally.

    The returned chromosome carries no fitness; it is re-evaluated lazily.
    """
    if rng.random() >= config.mutation_prob:
        return chromosome
    d = chromosome.genes.size
    if config.diversity_mutation:
        r, _ = sweep_mutation(chromosome.genes, omega)
    else:
        r = int(rng.integers(0, d))
    genes = chromosome.genes.copy()
    genes[r] = not genes[r]
    return Chromosome(_repair(genes, rng))


def _top_indices(subpop: list[Chromosome], s: int) -> list[int]:
    return sorted(range(len(subpop)), key=lambda i: (-subpop[i].fitness.fitness, i))[:s]


def _worst_indices(subpop: list[Chromosome], s: int) -> list[int]:
    return sorted(range(len(subpop)), key=lambda i: (subpop[i].fitness.fitness, i))[:s]


def migrate_elites(subpops: list[list[Chromosome]], s: int) -> None:
    """Copy each subpopulation's s best chromosomes over the next
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
            subpops[receiver][slot] = Chromosome(elite.genes, elite.fitness)


class _BestTracker:
    """Order-independent archive of the best (record, genes) seen."""

    def __init__(self):
        self.best: Chromosome | None = None

    def offer(self, genes: np.ndarray, record: FitnessRecord) -> None:
        if self.best is None or record.fitness > self.best.fitness.fitness:
            self.best = Chromosome(genes, record)

    def merge(self, other: "_BestTracker") -> None:
        if other.best is not None:
            self.offer(other.best.genes, other.best.fitness)


def _evolve_subpop(
    subpop: list[Chromosome],
    subpop_idx: int,
    generation: int,
    omega: GainRatioMatrix,
    config: EvolutionConfig,
    evaluator: FitnessEvaluator,
) -> _BestTracker:
    """One generation of chain crossover plus mutation for one subpopulation.

    Owns its chromosomes exclusively; the RNG stream is derived from
    (seed, generation, subpop index) so serial and threaded execution agree.
    """
    rng = _stream(config.seed, 1, generation, subpop_idx)
    tracker = _BestTracker()

    def evaluate(genes: np.ndarray) -> FitnessRecord:
        record = evaluator.evaluate(genes)
        tracker.offer(genes, record)
        return record

    for j in range(len(subpop)):
        chain_crossover_step(subpop, j, omega, config, rng, evaluate)
    for j in range(len(subpop)):
        subpop[j] = mutation_step(subpop[j], omega, config, rng)
    for ch in subpop:
        if ch.fitness is None:
            ch.fitness = evaluate(ch.genes)
    return tracker


def run(
    dataset: Dataset,
    config: EvolutionConfig,
    omega: GainRatioMatrix | None = None,
    threads: int = 1,
) -> RunResult:
    """Full evolutionary search: returns the globally best mask, its test
    metrics, and a per-generation trace."""
    start = time.perf_counter()
    if omega is None:
        omega = build_omega(dataset)
    evaluator = FitnessEvaluator(dataset, config.alpha, config.knn_k)

    subpops = init_population(dataset.d, config, _stream(config.seed, 0))
    archive = _BestTracker()
    for subpop in subpops:
        for ch in subpop:
            ch.fitness = evaluator.evaluate(ch.genes)
            archive.offer(ch.genes, ch.fitness)

    trace: list[TraceRow] = []
    curve: list[float] = []
    for gen in range(1, config.generations + 1):
        if threads > 1 and len(subpops) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [
                    pool.submit(_evolve_subpop, sp, i, gen, omega, config, evaluator)
                    for i, sp in enumerate(subpops)
                ]
                trackers = [f.result() for f in futures]
        else:
            trackers = [
                _evolve_subpop(sp, i, gen, omega, config, evaluator)
                for i, sp in enumerate(subpops)
            ]
        for tracker in trackers:  # merge in subpop order: deterministic
            archive.merge(tracker)

        if config.elite_interaction:
            migrate_elites(subpops, config.elites)

        curve.append(archive.best.fitness.fitness)
        for i, subpop in enumerate(subpops):
            values = [ch.fitness.fitness for ch in subpop]
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

    best = archive.best
    metrics = evaluator.test_metrics(best.genes)
    return RunResult(
        best_mask=best.genes,
        best_fitness=best.fitness,
        metrics=metrics,
        feature_ratio=best.n_selected / dataset.d,
        trace=trace,
        global_best_curve=curve,
        wall_time_s=time.perf_counter() - start,
        n_classifier_evals=evaluator.cache.misses,
        seed=config.seed,
    )
