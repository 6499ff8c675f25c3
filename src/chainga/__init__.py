"""Feature selection with a chained multi-population genetic algorithm
whose crossover and mutation operators are steered by an information
gain ratio subset criterion, wrapped around a KNN classifier."""

__version__ = "0.1.0"

from .data import SyntheticSpec, generate_synthetic
from .evolution import EvolutionConfig

__all__ = ["EvolutionConfig", "SyntheticSpec", "generate_synthetic"]
