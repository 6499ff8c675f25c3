"""Spans around chainga's layer boundaries, recorded from outside the library.

``Tracer.install`` rebinds module attributes (and two ``FitnessEvaluator``
methods) to timing wrappers, so the library itself is unchanged. Each span
holds its name, parent span, start and end; spans stay in memory and are
written once, when the traced command has returned. A layer is a chainga
module; a span's self time is its duration minus that of its child spans.

The wrappers keep one call stack, so they assume chainga runs with
``threads=1``, as the benchmark does.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

MODULES = ("chainga", "chainga.data", "chainga.infotheory", "chainga.criterion",
           "chainga.classifier", "chainga.evolution", "chainga.harness", "chainga.cli")

# the public functions wrapped in a traced run, by layer. The per-chain-step
# helpers of evolution are left out on purpose: they run tens of thousands of
# times, and their cost shows as evolution.run's self time (GA bookkeeping)
LAYERS = {
    "data": ("load_csv", "subsample_raw", "prepare", "generate_synthetic"),
    "infotheory": ("build_omega",),
    "criterion": ("sweep_crossover", "sweep_mutation"),
    "classifier": ("FitnessEvaluator.evaluate", "FitnessEvaluator.test_metrics", "knn_predict",
                   "cdist", "evaluate_metrics"),
    "evolution": ("run", "init_population", "migrate_elites"),
    "harness": ("cmd_run", "cmd_ablation", "build_dataset", "obtain_omega", "run_battery",
                "write_table"),
}
# the once-per-command boundaries timed in an untraced run
BOUNDARIES = {"harness": ("build_dataset", "obtain_omega"), "evolution": ("run",)}

# counts taken at a boundary from its arguments and result
COUNTERS = {
    "infotheory.build_omega": ("infotheory.pairs", lambda args, result: result.d * (result.d - 1) // 2),
    "harness.write_table": ("harness.bytes_written", lambda args, result: os.path.getsize(args[0])),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent span or -1, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        self.names.append(name)
        name_idx = len(self.names) - 1
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_idx, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self, layers: dict[str, tuple[str, ...]]) -> None:
        """Rebind every listed function wherever a chainga module holds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, attrs in layers.items():
            home = importlib.import_module(f"chainga.{layer}")
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, method, self.wrap(f"{layer}.{method}", cls.__dict__[method]))
                    continue
                original = getattr(home, attr)
                wrapped = self.wrap(f"{layer}.{attr}", original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapped)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": dict(self.counts)}, fh)


def totals(dump: dict) -> tuple[dict, dict]:
    """Calls, busy seconds (``s``) and self seconds (``self_s``, busy minus
    time in child spans) per span name and per layer. A layer's busy time
    counts only spans not inside another span of the same layer."""
    names, spans = dump["names"], dump["spans"]
    layer_of = [n.split(".")[0] for n in names]
    bit = {layer: 1 << i for i, layer in enumerate(sorted(set(layer_of)))}
    child_s = [0.0] * len(spans)
    inside = [0] * len(spans)  # bitmask of the layers enclosing each span
    for i, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:  # a parent always precedes its children
            child_s[parent] += end - start
            inside[i] = inside[parent] | bit[layer_of[spans[parent][0]]]
    by_name = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    by_layer = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer in bit}
    for i, (name_idx, _, start, end) in enumerate(spans):
        layer = layer_of[name_idx]
        for entry, busy in ((by_name[names[name_idx]], True), (by_layer[layer], not inside[i] & bit[layer])):
            entry["calls"] += 1
            entry["s"] += (end - start) if busy else 0.0
            entry["self_s"] += end - start - child_s[i]
    return by_name, by_layer


def knn_runs_in_search(dump: dict) -> int:
    """KNN runs made for fitness (cache misses), not for final test scoring."""
    names, spans = dump["names"], dump["spans"]
    knn, evaluate = names.index("classifier.knn_predict"), names.index("classifier.evaluate")
    return sum(1 for name_idx, parent, _, _ in spans
               if name_idx == knn and parent >= 0 and spans[parent][0] == evaluate)
