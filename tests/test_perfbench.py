"""The benchmark's tracer patches names of tscls; each must exist."""

import importlib
import os

from conftest import ROOT, load_perfbench


def test_every_traced_function_resolves_under_src():
    # a traced name that the package no longer defines would make
    # ``perfbench/run.py --trace 1`` fail with an AttributeError
    src = os.path.realpath(os.path.join(ROOT, "src"))
    targets = load_perfbench("tracer").TARGETS
    assert targets
    for module_name, attr, _ in targets:
        module = importlib.import_module(module_name)
        assert os.path.realpath(module.__file__).startswith(src + os.sep), \
            module_name
        assert callable(getattr(module, attr, None)), (module_name, attr)
