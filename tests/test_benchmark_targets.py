"""The benchmark's tracer wraps engine functions by name; this checks,
without importing or touching ``perfbench``, that every name it traces
still exists, so a rename shows up in the fast suite."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    for name, module, cls, attr in targets:
        owner = importlib.import_module(f"quasiloop.{module}")
        if cls is not None:
            owner = getattr(owner, cls, None)
            assert owner is not None, f"{name}: quasiloop.{module} has no {cls}"
        assert callable(getattr(owner, attr, None)), f"{name}: {attr} is gone"
