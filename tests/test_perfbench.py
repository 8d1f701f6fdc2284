"""The benchmark's tracer patches names of tscls; each must exist."""

import importlib
import importlib.util
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def load_tracer():
    """``perfbench/tracer.py``, loaded by path: it imports only the
    standard library."""
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_under_src():
    # a traced name that the package no longer defines would make
    # ``perfbench/run.py --trace 1`` fail with an AttributeError
    src = os.path.realpath(os.path.join(ROOT, "src"))
    targets = load_tracer().TARGETS
    assert targets
    for module_name, attr, _ in targets:
        module = importlib.import_module(module_name)
        assert os.path.realpath(module.__file__).startswith(src + os.sep), \
            module_name
        assert callable(getattr(module, attr, None)), (module_name, attr)
