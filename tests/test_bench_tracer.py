"""The benchmark's traced run wraps rejmc functions by (module, attribute)
and swaps the samplers' pool class; an API change that drops one of them
breaks ``bench/run.py --trace 1``. bench/ is not on the test path, so the
tracer is loaded here by file location."""
import concurrent.futures
import importlib
import importlib.util
from pathlib import Path

from rejmc.randomness import RandomStream

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    tracer = load_tracer()
    for module, attr, *_ in tracer._TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for attr, _ in tracer._METHODS:
        assert callable(getattr(RandomStream, attr, None)), attr
    samplers = importlib.import_module("rejmc.samplers")
    assert samplers.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
