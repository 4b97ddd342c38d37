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


def _syncodec_names_read(path):
    """The package names one perfbench file reads, as (module, attribute)
    pairs: each `module.name` for a module it imports from syncodec, and each
    name a `from syncodec.<module> import ...` brings in."""
    tree = ast.parse(path.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {alias.asname or alias.name: f"syncodec.{alias.name}"
               for node in imports if node.module == "syncodec"
               for alias in node.names}
    read = {(node.module, alias.name) for node in imports
            if (node.module or "").startswith("syncodec.") for alias in node.names}
    read |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    return read


def test_every_package_attribute_the_workloads_read_exists():
    """Every package name a perfbench/*.py file reads, found without
    importing the file, is an attribute of its syncodec module."""
    read = {pair for path in PERFBENCH.glob("*.py") for pair in _syncodec_names_read(path)}
    assert {"syncodec.deltrans", "syncodec.delsub", "syncodec.edit4",
            "syncodec.oracle"} <= {module for module, _ in read}
    assert ("syncodec.deltrans", "desk_hash") in read
    assert ("syncodec.errors", "EmptyListError") in read
    missing = sorted(f"{module}.{attr}" for module, attr in read
                     if not hasattr(importlib.import_module(module), attr))
    assert not missing
