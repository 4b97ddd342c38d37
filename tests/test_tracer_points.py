"""The benchmark's tracer patches package names by `owner.__dict__[attr]`, so
renaming or removing one of them breaks traced benchmark runs; this check
catches that without running the benchmark."""

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
