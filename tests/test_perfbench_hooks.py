"""The traced benchmark (perfbench/tracer.py) rebinds library functions by
name; every name it lists must exist, or a traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
