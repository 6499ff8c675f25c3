"""The traced benchmark (perfbench/tracer.py) rebinds library functions by
name; every name it lists must exist, or a traced run breaks. Its counters
also assume where the library makes its calls."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from chainga import classifier
from chainga.classifier import FitnessEvaluator
from chainga.evolution import EvolutionConfig, run
from chainga.infotheory import build_omega

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for table in (tracer.LAYERS, tracer.BOUNDARIES)
     for layer, names in table.items() for name in names],
)
def test_tracer_hook_resolves(layer, name):
    module = importlib.import_module(f"chainga.{layer}")
    if "." in name:
        cls_name, method = name.split(".")
        assert callable(getattr(module, cls_name).__dict__[method])
    else:
        assert callable(getattr(module, name))


def test_single_thread_fitness_calls_are_where_the_tracer_counts_them(small_dataset, monkeypatch):
    """At threads=1, ``evaluate_many`` calls ``FitnessEvaluator.evaluate``
    once per mask, in order, and every KNN run for fitness is a direct
    child of ``evaluate``. The traced ``classifier.evaluate.calls``,
    ``classifier.evals`` and ``cache_hit_ratio`` count them there."""
    batches, lookups, knn_callers, stack = [], [], [], []

    def recording(name, fn, log):
        def wrapper(*args, **kwargs):
            log(args)
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    for name, log in (
        ("evaluate_many", lambda args: batches.append([m.tolist() for m in args[1]])),
        ("evaluate", lambda args: lookups.append(args[1].tolist())),
        ("test_metrics", lambda args: None),
    ):
        monkeypatch.setattr(FitnessEvaluator, name, recording(name, getattr(FitnessEvaluator, name), log))
    monkeypatch.setattr(
        classifier, "knn_predict",
        recording("knn_predict", classifier.knn_predict, lambda args: knn_callers.append(stack[-1])),
    )

    cfg = EvolutionConfig(population_size=8, subpopulations=2, elites=1, generations=4,
                          mutation_prob=0.5, seed=3)
    result = run(small_dataset, cfg, build_omega(small_dataset), threads=1)
    assert [mask for batch in batches for mask in batch] == lookups
    assert knn_callers.count("evaluate") == result.n_classifier_evals
    assert knn_callers.count("test_metrics") == 1
    assert len(knn_callers) == result.n_classifier_evals + 1
    assert len(lookups) > result.n_classifier_evals  # the run hit the cache
