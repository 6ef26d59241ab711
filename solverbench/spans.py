"""In-memory span recorder for the traced benchmark run.

Each traced call records a span (name, start, end, parent span).  Spans stay
in memory and are written out once, when the benchmark ends.  A span's self
time is its duration minus the time its direct children cover.

``install`` replaces each traced function by a recording wrapper in every
chargeplan module that binds it, since callers import functions by name
(``bp`` binds ``solve_lp``, ``approximate``, ``greedy``, ...) and patching the
defining module alone would miss those calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

# module -> public functions timed as layers
TRACED = {
    "queueing": ("rho_alpha_table",),
    "instance": ("generate",),
    "milp": ("solve_lp", "solve_mip"),
    "evcec": ("build_evcec", "station_rates", "objective_value", "check_feasible"),
    "approx": ("approximate",),
    "bp": ("branch_and_price", "column_generation", "solve_rmp", "solve_pricing",
           "primal_repair"),
    "heuristic": ("greedy", "best_greedy", "local_search"),
    "report": ("queue_report",),
}
LAYERS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# work counts read from the traced functions' return values
COUNTERS = ("milp.bb_nodes", "evcec.model_vars", "evcec.model_rows", "bp.branch_nodes",
            "bp.cg_rounds", "bp.columns", "bp.cg_columns", "bp.cg_unconverged")


def _count(counters: dict, name: str, out) -> None:
    if name == "milp.solve_mip":
        counters["milp.bb_nodes"] += out.nodes
    elif name == "evcec.build_evcec":
        counters["evcec.model_vars"] += out.model.num_vars
        counters["evcec.model_rows"] += out.model.num_constraints
    elif name == "bp.branch_and_price":
        for key in ("branch_nodes", "cg_rounds", "columns"):
            counters[f"bp.{key}"] += out.stats[key]
    elif name == "bp.column_generation":
        counters["bp.cg_columns"] += len(out.new_columns)
        counters["bp.cg_unconverged"] += out.status != "converged"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


class Recorder:
    """Spans of one process, kept in call order (a parent precedes its children)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()
            _count(self.counters, name, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a chargeplan module binds it."""
        originals = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"chargeplan.{mod}"]
            for fn in fns:
                originals[id(getattr(module, fn))] = f"{mod}.{fn}"
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("chargeplan"):
                continue
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self.wrap(name, value)
                setattr(module, attr, wrappers[name])

    def layer_times(self, first: int = 0, last: int | None = None) -> dict:
        """Per layer over spans[first:last]: calls, total and self seconds."""
        spans = self.spans[first:last]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= first:
                child_time[span.parent - first] += span.end - span.start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in LAYERS}
        for span, covered in zip(spans, child_time):
            row = out[span.name]
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.end - span.start - covered
        return out

    def direct_children(self, parent_name: str, child_name: str,
                        first: int = 0, last: int | None = None) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        return sum(
            1 for span in self.spans[first:last]
            if span.name == child_name and span.parent >= 0
            and self.spans[span.parent].name == parent_name
        )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent] for s in self.spans], fh)
            fh.write("\n")
