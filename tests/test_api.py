"""Guards on the public surface: the package exports and the names the
benchmark in perfbench/ binds to."""

import ast
import importlib
import os
import sys

import lcftraffic

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def exports():
    """(submodule, name) of every name the package __init__ re-exports."""
    tree = ast.parse(open(lcftraffic.__file__).read())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_export_resolves_to_its_submodule_object():
    names = exports()
    assert names
    for module, name in names:
        sub = importlib.import_module(f"lcftraffic.{module}")
        assert getattr(lcftraffic, name) is getattr(sub, name), name


def test_no_export_aliases_another():
    seen = {}
    for _module, name in exports():
        obj = getattr(lcftraffic, name)
        assert id(obj) not in seen, f"{name} is {seen.get(id(obj))}"
        seen[id(obj)] = name


def test_benchmark_boundaries_exist():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.pop(0)
    harness = importlib.import_module("lcftraffic.harness")
    original = harness.fit_lr_estimator
    with tracer.traced(tracer.Tracer()):
        assert harness.fit_lr_estimator is not original
    assert harness.fit_lr_estimator is original
