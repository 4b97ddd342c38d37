"""The benchmark's tracer patches package names by `owner.__dict__[attr]`, and
its workloads read package names as module attributes, so renaming or removing
one of them breaks benchmark runs; these checks catch that without running the
benchmark."""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_point_names_an_attribute_of_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracing

    points = [(owner, attr) for _, owner, attr, _ in tracing.PATCH_POINTS]
    points += [(owner, attr) for _, owner, attr in tracing.COUNT_POINTS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in points
               if attr not in owner.__dict__]
    assert not missing


def test_every_package_attribute_the_workloads_read_exists():
    """Every `module.name` in perfbench/workloads.py, for each module it
    imports from syncodec, read without importing the workloads."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"syncodec.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "syncodec"
               for alias in node.names}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {"deltrans", "delsub", "edit4", "oracle"} <= set(modules)
    assert ("deltrans", "desk_hash") in read
    missing = sorted(f"{name}.{attr}" for name, attr in read
                     if not hasattr(modules[name], attr))
    assert not missing
