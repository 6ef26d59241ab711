#!/usr/bin/env python3
"""Solver benchmark for chargeplan: one workload per process, checked results.

    python3 solverbench/run.py --workload tiny-mip --seed 0 --seconds 55 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` next
to this directory, never from an installed copy.  After the set-up (package
import, instance generation, the instance-file round trip and the threshold
tables), the workload's solves run in rounds until ``--seconds`` have passed;
every round solves every instance once, in an order drawn from ``--seed``.
Between the solves of an untraced run, set-up probes (fresh processes that
repeat the cold set-up and exit) run every ``PROBE_EVERY_S``; ``setup_s`` is
the fastest of them.  Every plan is then checked against the independent
oracle in ``oracle.py``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run
also writes its spans to ``solverbench/out/``.
"""

import os

# one BLAS thread and no benchmark worker pool: every solve runs on one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("EVCEC_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REL_TOL = 1e-6   # solver optimum vs oracle optimum
COST_TOL = 1e-9  # program cost vs independent recomputation
# seconds between set-up probes: on a shared machine slow phases last 2-30 s, so probes
# this close together catch its fast moments, and their fastest is steady between runs
PROBE_EVERY_S = 2.0

# preset, instance seeds, b values and solve kinds per workload; README.md says why
WORKLOADS = {
    "tiny-mip": ("tiny", (3, 5), (0, 1, 2), ("mip", "approx")),
    "tiny-bp": ("tiny", (3, 5), (0, 1, 2), ("bp",)),
}


def _fail(msg: str) -> None:
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "chargeplan" / "__init__.py").is_file():
        _fail(f"no chargeplan sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import chargeplan
    if Path(chargeplan.__file__).resolve().parent != SRC / "chargeplan":
        _fail(f"imported chargeplan from {chargeplan.__file__}, expected {SRC}")
    # every module the workloads call, so that tracing can wrap their bindings
    from chargeplan import approx, bp, evcec, heuristic, instance, milp, queueing, report  # noqa: F401


class Outcome:
    """What one solve returned: the final plan plus the figures the checks need."""

    def __init__(self, plan, status, objective, bound):
        self.plan = plan
        self.status = status
        self.objective = objective
        self.bound = bound
        self.audit = None           # (feasible, objective_value, service_ok)

    def signature(self):
        plan = self.plan
        return (self.status, self.objective, self.bound, self.audit,
                tuple(sorted(plan.open.items())), tuple(sorted(plan.posts.items())))


def _solve(kind: str, inst) -> Outcome:
    """One solve through the public API, followed by the audit ``chargeplan solve`` does."""
    from chargeplan.approx import approximate
    from chargeplan.bp import branch_and_price
    from chargeplan.evcec import build_evcec, check_feasible, decode_deployment, objective_value
    from chargeplan.milp import solve_mip
    from chargeplan.report import queue_report

    if kind == "mip":
        em = build_evcec(inst)
        sol = solve_mip(em.model)
        out = Outcome(decode_deployment(em, sol.values), sol.status, sol.objective, sol.bound)
    elif kind == "approx":
        res = approximate(inst)
        out = Outcome(res.deployment, res.status, res.z_appr, res.lb)
    else:
        res = branch_and_price(inst)
        out = Outcome(res.incumbent, res.status, res.z, res.bound)
    out.audit = (check_feasible(inst, out.plan).feasible, objective_value(inst, out.plan),
                 queue_report(inst, out.plan).service_ok)
    return out


def _setup(workload: str, recorder):
    """Instances of the workload, generated and passed through the file format."""
    if recorder is not None:
        recorder.install()
    from chargeplan.instance import PRESETS, generate, load, rho_table_for, save, with_queue

    preset, seeds, bs, kinds = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    cells = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for seed in seeds:
            base = generate(PRESETS[preset], seed)
            for b in bs:
                path = Path(tmp) / f"{preset}-{seed}-b{b}.json"
                save(with_queue(base, b=b), path)
                inst = load(path)
                rho_table_for(inst)
                cells.append((f"{preset}/seed{seed}/b{b}", inst))
    ops = [(name, inst, kind) for name, inst in cells for kind in kinds]
    return cells, ops


def _setup_probe(workload: str) -> float:
    """One cold set-up in a fresh process: seconds from its spawn to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--setup-only"]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def _run_rounds(workload: str, ops, seed: int, seconds: float, recorder):
    """Whole rounds until ``seconds`` pass; per-op times and outcomes, set-up probes, marks.

    An untraced run starts a set-up probe after any solve that ends ``PROBE_EVERY_S`` or
    more after the last probe, and after its first solve; probe time counts in
    ``seconds``.  A solve that raises leaves ``None`` as its outcome and no time.
    """
    rng = random.Random(seed)
    times = [[] for _ in ops]
    outcomes = [[] for _ in ops]
    failed = 0
    rounds = 0
    setups = []
    last_probe = float("-inf")
    marks = []  # (span count, counters) at each round start, traced runs only
    start = time.perf_counter()
    while True:
        if recorder is not None:
            marks.append((len(recorder.spans), dict(recorder.counters)))
        order = list(range(len(ops)))
        rng.shuffle(order)
        for idx in order:
            name, inst, kind = ops[idx]
            t = time.perf_counter()
            try:
                out = _solve(kind, inst)
                times[idx].append(time.perf_counter() - t)
            except Exception:  # counted in failed and fails the checks; the run goes on
                print(f"{kind} on {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
                out = None
                failed += 1
            outcomes[idx].append(out)
            if recorder is None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                setups.append(_setup_probe(workload))
                last_probe = time.perf_counter()
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    if recorder is not None:
        marks.append((len(recorder.spans), dict(recorder.counters)))
    return times, outcomes, failed, rounds, setups, marks


def _check(ops, outcomes) -> list[str]:
    """Compare every solve's outputs with the oracle; the messages of broken checks."""
    import oracle

    problems = []
    optima = {}
    for idx, (name, inst, kind) in enumerate(ops):
        where = f"{kind} {name}"
        runs = [o for o in outcomes[idx] if o is not None]
        if len(runs) != len(outcomes[idx]):
            problems.append(f"{where}: {len(outcomes[idx]) - len(runs)} rounds raised")
        if not runs:
            continue
        first = runs[0]
        if any(o.signature() != first.signature() for o in runs[1:]):
            problems.append(f"{where}: rounds disagree")
        if first.plan is None:
            problems.append(f"{where}: no plan")
            continue
        for msg in oracle.audit(inst, first.plan):
            problems.append(f"{where}: {msg}")
        feasible, cost, service_ok = first.audit
        ref_cost = oracle.plan_cost(inst, first.plan)
        if not (feasible and service_ok):
            problems.append(f"{where}: program audit rejects its own plan")
        if abs(cost - ref_cost) > COST_TOL * max(1.0, abs(ref_cost)):
            problems.append(f"{where}: objective_value {cost!r} != recomputed {ref_cost!r}")
        if name not in optima:
            optima[name] = oracle.optimum(inst)
        opt = optima[name]
        tol = REL_TOL * abs(opt)
        if first.status != "optimal":
            problems.append(f"{where}: status {first.status}")
        if kind in ("mip", "bp"):
            if abs(first.objective - opt) > tol or abs(cost - opt) > tol:
                problems.append(f"{where}: objective {first.objective} != optimum {opt}")
            if first.bound > first.objective + tol:
                problems.append(f"{where}: bound {first.bound} above objective {first.objective}")
        else:
            if not first.bound <= opt + tol <= cost + 2 * tol:
                problems.append(f"{where}: expected lb {first.bound} <= {opt} <= {cost}")
    return problems


def _fastest_sum(times) -> float:
    return sum(min(t) for t in times if t)


def _plan_cost(outcomes) -> float:
    """Audited objective of each solve's plan, from its first round that did not fail."""
    firsts = (next((o for o in runs if o is not None), None) for runs in outcomes)
    return sum(o.audit[1] for o in firsts if o is not None)


def _layer_metrics(recorder, setup_end: int, marks, times) -> tuple[dict, list[str]]:
    """Per-layer metrics: set-up spans plus the median round; count cross-checks."""
    from spans import COUNTERS, LAYERS

    setup = recorder.layer_times(0, setup_end)
    rounds = [recorder.layer_times(a[0], b[0]) for a, b in zip(marks, marks[1:])]
    counts = [{k: b[1][k] - a[1][k] for k in COUNTERS} for a, b in zip(marks, marks[1:])]
    problems = []
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-round counters differ between rounds")
    metrics = {}
    for layer in LAYERS:
        calls = {r[layer]["calls"] for r in rounds}
        if len(calls) != 1:
            problems.append(f"{layer}: call count differs between rounds")
        metrics[f"{layer}.calls"] = (setup[layer]["calls"] + rounds[0][layer]["calls"], "count")
        for key in ("total_s", "self_s"):
            med = statistics.median(r[layer][key] for r in rounds)
            metrics[f"{layer}.{key}"] = (setup[layer][key] + med, "s")
    c = counts[0]
    first, last = marks[0][0], marks[1][0]
    lp_under_mip = recorder.direct_children("milp.solve_mip", "milp.solve_lp", first, last)
    if c["milp.bb_nodes"] != lp_under_mip:
        problems.append(f"milp.bb_nodes {c['milp.bb_nodes']} != solve_lp under solve_mip "
                        f"{lp_under_mip}")
    r0 = rounds[0]
    if c["bp.cg_unconverged"] == 0:
        if c["bp.cg_rounds"] != r0["bp.solve_rmp"]["calls"]:
            problems.append(f"bp.cg_rounds {c['bp.cg_rounds']} != solve_rmp calls "
                            f"{r0['bp.solve_rmp']['calls']}")
        if c["bp.branch_nodes"] != r0["bp.column_generation"]["calls"]:
            problems.append(f"bp.branch_nodes {c['bp.branch_nodes']} != column_generation "
                            f"calls {r0['bp.column_generation']['calls']}")
    for key in ("milp.bb_nodes", "evcec.model_vars", "evcec.model_rows", "bp.branch_nodes",
                "bp.cg_rounds", "bp.columns"):
        metrics[key] = (c[key], "count")
    pricing = r0["bp.solve_pricing"]["calls"]
    metrics["bp.pricing_yield"] = (c["bp.cg_columns"] / pricing if pricing else 0.0, "cols/call")
    metrics["trace.solve_s"] = (_fastest_sum(times), "s")
    metrics["trace.spans"] = (last - first, "count")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the solves inside each round")
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up, print the monotonic clock at its end and exit "
                             "(the set-up probe)")
    args = parser.parse_args(argv)

    _import_package()
    recorder = None
    if args.trace:
        from spans import Recorder
        recorder = Recorder()
    cells, ops = _setup(args.workload, recorder)
    if args.setup_only:
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    setup_end = len(recorder.spans) if recorder is not None else 0

    times, outcomes, failed, rounds, setups, marks = _run_rounds(
        args.workload, ops, args.seed, args.seconds, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = _check(ops, outcomes)
    if recorder is not None:
        layer, layer_problems = _layer_metrics(recorder, setup_end, marks, times)
        problems += layer_problems
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        recorder.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": min(setups), "unit": "s"},
            "solve_s": {"value": _fastest_sum(times), "unit": "s"},
            "plan_cost": {"value": _plan_cost(outcomes), "unit": "cost"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(cells)} instances, {len(ops)} solves a round, "
          f"{rounds} rounds", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": rounds * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
