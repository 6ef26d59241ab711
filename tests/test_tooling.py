"""Guards for tooling that reaches into the package by name."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "solverbench" / "spans.py"


def test_traced_names_exist():
    # the traced benchmark run wraps these functions by name; a rename would
    # otherwise surface only when that run crashes
    tree = ast.parse(SPANS.read_text())
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets)
    )
    assert traced
    missing = [
        f"{mod}.{fn}"
        for mod, fns in traced.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"chargeplan.{mod}"), fn, None))
    ]
    assert not missing
