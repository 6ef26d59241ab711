"""Guards for tooling that reaches into the package by name."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from chargeplan.bp import (
    BpLimits,
    Fixings,
    Master,
    branch_and_price,
    column_generation,
    columns_from_deployment,
    cost_coefficients,
)
from chargeplan.evcec import build_evcec
from chargeplan.heuristic import best_greedy
from chargeplan.instance import PRESETS, generate
from chargeplan.milp import solve_mip

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "solverbench" / "spans.py"
PACKAGE = ROOT / "src" / "chargeplan"


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


def test_counters_read_real_results(monkeypatch):
    # the traced benchmark run reads these fields off the traced functions'
    # return values; a renamed field would otherwise surface only there
    spec = importlib.util.spec_from_file_location("solverbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclass looks itself up
    spec.loader.exec_module(spans)
    inst = generate(PRESETS["tiny"], 3)
    em = build_evcec(inst)
    coeffs = cost_coefficients(inst)
    master = Master(inst, coeffs, columns_from_deployment(inst, coeffs, best_greedy(inst)))
    cg = column_generation(master, Fixings(), BpLimits(cg_round_limit=1))
    assert cg.status == "limit"
    counters = dict.fromkeys(spans.COUNTERS, 0)
    for name, out in (("milp.solve_mip", solve_mip(em.model)), ("evcec.build_evcec", em),
                      ("bp.branch_and_price", branch_and_price(inst)),
                      ("bp.column_generation", cg)):
        spans._count(counters, name, out)
    assert all(counters[name] > 0 for name in spans.COUNTERS), counters


def test_no_unused_imports():
    # no linter runs on the package, so an import a refactor leaves behind
    # would otherwise stay; a name counts as used wherever it is read
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused
