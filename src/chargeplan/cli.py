"""Command-line interface: generate instances, solve them, run benchmarks.

Exit codes for ``solve``: 0 feasible result, 3 budget exhausted without an
incumbent, 4 proven infeasible.  Usage errors, flags out of their domain
included, exit 2 via argparse.
``EVCEC_THREADS`` caps benchmark workers (default 1: fully sequential and
deterministic).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

from . import __version__
from .approx import approximate
from .bp import BpLimits, branch_and_price
from .evcec import (
    build_evcec,
    check_feasible,
    decode_deployment,
    objective_value,
    save_solution,
)
from .heuristic import InfeasibleInstanceError, best_greedy, local_search
from .instance import GenParams, PRESETS, generate, load, save, with_queue
from .milp import MipLimits, solve_mip
from .queueing import QueueConfig, QueueDomainError
from .report import compare_metrics, queue_report, render_cg_log, render_tables

ALGOS = ("mip", "approx", "heuristic", "bp")
DEFAULT_TIME_LIMIT = 7200.0
EXIT_OK = 0
EXIT_INFEASIBLE = 4
EXIT_NO_INCUMBENT = 3


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _nonnegative(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargeplan",
        description="Plan multistage EV charging-network expansion with congestion limits.",
    )
    parser.add_argument("--version", action="version", version=f"chargeplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a randomized instance file")
    gen.add_argument("--preset", choices=sorted(PRESETS), help="named size preset")
    gen.add_argument("--zones", type=int, help="number of demand zones")
    gen.add_argument("--locations", type=int, help="number of candidate locations")
    gen.add_argument("--nodes", type=int, help="scenario-tree node count")
    gen.add_argument("--depth", type=int, help="tree depth (levels) for a uniform tree")
    gen.add_argument("--branching", type=int, help="children per node")
    gen.add_argument("--mj", type=int, help="post cap per location")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--alpha", type=float, help="service level (default 0.9)")
    gen.add_argument("--mu", type=float, help="service rate per post per hour")
    gen.add_argument("--b", type=int, help="queue-length threshold")
    gen.add_argument("--out", required=True, help="instance file path")

    sol = sub.add_parser("solve", help="solve an instance file with one algorithm")
    sol.add_argument("--algo", choices=ALGOS, required=True)
    sol.add_argument("--instance", required=True)
    sol.add_argument("--b", type=int, help="override queue-length threshold")
    sol.add_argument("--alpha", type=float, help="override service level")
    sol.add_argument("--mu", type=float, help="override service rate")
    sol.add_argument("--time-limit", type=_positive, default=DEFAULT_TIME_LIMIT,
                     help="seconds (default 7200)")
    sol.add_argument("--gap-tol", type=_nonnegative, default=1e-6)
    sol.add_argument("--root-only", action="store_true",
                     help="bp: column generation and repair at the root only")
    sol.add_argument("--cg-log", help="bp: write the column-generation run log here")
    sol.add_argument("--out", help="solution file path")

    ben = sub.add_parser("benchmark", help="run the algorithm matrix over seeded presets")
    ben.add_argument("--suite", choices=("tiny", "small", "medium"), default="tiny")
    ben.add_argument("--seeds", type=int, default=3, help="instances per suite")
    ben.add_argument("--b-values", type=_int_list, default="0,1,2,3",
                     help="comma-separated queue thresholds")
    ben.add_argument("--algos", default=None,
                     help="comma-separated subset of {mip,approx,heuristic,bp}")
    ben.add_argument("--time-limit", type=_positive, default=300.0,
                     help="per-solve budget in seconds")
    ben.add_argument("--out-dir", required=True)
    return parser


# ---------------------------------------------------------------------------
# generate


def _gen_params(args, parser) -> GenParams:
    explicit = {
        "zones": args.zones,
        "locations": args.locations,
        "nodes": args.nodes,
        "depth": args.depth,
        "branching": args.branching,
    }
    if args.preset:
        if any(v is not None for v in explicit.values()):
            parser.error("--preset conflicts with explicit size flags "
                         "(--zones/--locations/--nodes/--depth/--branching)")
        params = PRESETS[args.preset]
    else:
        if args.zones is None or args.locations is None:
            parser.error("either --preset or both --zones and --locations are required")
        if args.zones < 1 or args.locations < 1:
            parser.error("--zones and --locations must be positive")
        params = dataclasses.replace(
            PRESETS["small"],
            n_zones=args.zones,
            n_locations=args.locations,
            n_nodes=args.nodes,
            tree_depth=args.depth if args.depth is not None else 3,
            branching=args.branching if args.branching is not None else 2,
        )
        if args.nodes is None and args.depth is not None:
            params = dataclasses.replace(params, n_nodes=None)
    if args.mj is not None:
        if args.mj < 1:
            parser.error("--mj must be positive")
        params = dataclasses.replace(params, m_max=args.mj)
    return dataclasses.replace(
        params, **_queue_flags(parser, mu=args.mu, alpha=args.alpha, b=args.b))


def _queue_flags(parser, **flags) -> dict:
    """The queue flags given (not None), each checked against the queue's own
    domain: a value out of it is a usage error, not a traceback."""
    given = {k: v for k, v in flags.items() if v is not None}
    base = GenParams()
    try:
        QueueConfig(**{"mu": base.mu, "alpha": base.alpha, "b": base.b, **given})
    except QueueDomainError as exc:
        parser.error(str(exc))
    return given


def _cmd_generate(args, parser) -> int:
    params = _gen_params(args, parser)
    inst = generate(params, args.seed)
    save(inst, args.out)
    print(f"wrote {args.out}: {inst.n_zones} zones, {inst.n_locations} locations, "
          f"{len(inst.tree)} tree nodes, M={params.m_max}, seed={args.seed}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _run_algo(algo: str, inst, time_limit: float, gap_tol: float, root_only: bool):
    """Returns (deployment | None, row fields dict, proven_infeasible, run stats)."""
    t0 = time.monotonic()
    if algo == "mip":
        em = build_evcec(inst)
        sol = solve_mip(em.model, MipLimits(time_limit_s=time_limit, gap_tol=gap_tol))
        elapsed = time.monotonic() - t0
        if sol.status == "infeasible":
            return None, {"t_s": elapsed}, True, None
        if not sol.values:
            return None, {"t_s": elapsed}, False, None
        dep = decode_deployment(em, sol.values)
        return dep, {"t_s": elapsed, "z": sol.objective, "lb": sol.bound,
                     "gap": sol.gap}, False, None
    if algo == "approx":
        res = approximate(inst, MipLimits(time_limit_s=time_limit, gap_tol=gap_tol))
        elapsed = time.monotonic() - t0
        if res.status == "infeasible":
            return None, {"t_s": elapsed}, True, None
        if res.deployment is None:
            return None, {"t_s": elapsed}, False, None
        return res.deployment, {"t_s": elapsed, "z": res.z_appr, "lb": res.lb,
                                "gap": res.gap_lb}, False, None
    if algo == "heuristic":
        try:
            dep = local_search(inst, best_greedy(inst))
        except InfeasibleInstanceError:
            return None, {"t_s": time.monotonic() - t0}, True, None
        elapsed = time.monotonic() - t0
        return dep, {"t_s": elapsed, "z": objective_value(inst, dep)}, False, None
    if algo == "bp":
        res = branch_and_price(
            inst, BpLimits(time_limit_s=time_limit, gap_tol=gap_tol, root_only=root_only)
        )
        elapsed = time.monotonic() - t0
        if res.status == "infeasible":
            return None, {"t_s": elapsed}, True, res.stats
        if res.incumbent is None:
            return None, {"t_s": elapsed}, False, res.stats
        return res.incumbent, {"t_s": elapsed, "z": res.z, "lb": res.bound,
                               "gap": res.gap}, False, res.stats
    raise AssertionError(algo)


def _cmd_solve(args, parser) -> int:
    overrides = _queue_flags(parser, mu=args.mu, alpha=args.alpha, b=args.b)
    inst = load(args.instance)
    if overrides:
        inst = with_queue(inst, **overrides)
    dep, fields, proven_infeasible, run_stats = _run_algo(
        args.algo, inst, args.time_limit, args.gap_tol, args.root_only
    )
    if args.cg_log and run_stats is not None:
        Path(args.cg_log).write_text(render_cg_log(run_stats))
    if dep is None:
        print(f"{args.algo}: no feasible solution "
              f"({'proven infeasible' if proven_infeasible else 'budget exhausted'})",
              file=sys.stderr)
        return EXIT_INFEASIBLE if proven_infeasible else EXIT_NO_INCUMBENT

    qrep = queue_report(inst, dep)
    row = {
        "instance_id": Path(args.instance).stem,
        "algo": args.algo,
        "M": max(loc.m_max for loc in inst.locations),
        "b": inst.queue.b,
        "alpha": inst.queue.alpha,
        "avg_wait_min": qrep.avg_wait_min,
        "avg_queue_len": qrep.avg_queue_len,
        "service_ok": qrep.service_ok,
    }
    row.update(fields)
    if args.out:
        save_solution(args.out, inst, dep, algorithm=args.algo,
                      extra={"b": inst.queue.b, "alpha": inst.queue.alpha})
    _, csv_text = render_tables([row])
    sys.stdout.write(csv_text)
    if not check_feasible(inst, dep).feasible:
        print("warning: solution failed the feasibility audit", file=sys.stderr)
        return EXIT_NO_INCUMBENT
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark


def _bench_cell(preset: str, seed: int, b: int, algo: str, time_limit: float) -> dict:
    inst = with_queue(generate(PRESETS[preset], seed), b=b)
    dep, fields, _, _ = _run_algo(algo, inst, time_limit, 1e-6, root_only=False)
    row = {
        "instance_id": f"{preset}-{seed}",
        "algo": algo,
        "M": PRESETS[preset].m_max,
        "b": b,
        "alpha": inst.queue.alpha,
    }
    row.update(fields)
    if dep is not None:
        qrep = queue_report(inst, dep)
        row["avg_wait_min"] = qrep.avg_wait_min
        row["avg_queue_len"] = qrep.avg_queue_len
        row["service_ok"] = qrep.service_ok
    return row


def _bench_cell_star(cell) -> dict:
    return _bench_cell(*cell)


def _cmd_benchmark(args, parser) -> int:
    for b in args.b_values:
        _queue_flags(parser, b=b)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.algos:
        algos = tuple(a.strip() for a in args.algos.split(","))
        for a in algos:
            if a not in ALGOS:
                parser.error(f"unknown algorithm {a!r}")
    else:
        # the exact kernel is desk scale: only the tiny suite runs the full matrix
        algos = ALGOS if args.suite == "tiny" else ("heuristic",)

    cells = [
        (args.suite, seed, b, algo, args.time_limit)
        for seed in range(args.seeds)
        for b in args.b_values
        for algo in algos
    ]
    workers = int(os.environ.get("EVCEC_THREADS", "1") or "1")
    rows: list[dict] = []
    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                for row in pool.map(_bench_cell_star, cells):
                    rows.append(row)
        else:
            for cell in cells:
                rows.append(_bench_cell_star(cell))
    except KeyboardInterrupt:
        print("interrupted: flushing partial results", file=sys.stderr)

    # time savings and bound-gap variants against the exact solve of the cell
    star: dict = {}
    for row in rows:
        if row["algo"] == "mip" and "t_s" in row and "z" in row:
            star[row["instance_id"], row["b"]] = row
    notes = []
    for row in rows:
        ref = star.get((row["instance_id"], row["b"]))
        if ref is None or row["algo"] == "mip":
            continue
        if "t_s" in row:
            row["ts_pct"] = (ref["t_s"] - row["t_s"]) / ref["t_s"] * 100.0
        if "lb" in row and "z" in row:
            metrics = compare_metrics(max(ref["t_s"], 1e-9), ref["z"],
                                      max(row["t_s"], 1e-9), row["z"], row["lb"])
            notes.append(
                f"{row['instance_id']} b={row['b']} {row['algo']}: "
                f"gap_lb={metrics['gap_lb'] * 100:.1f}% "
                f"(vs exact optimum: {metrics['gap_lb_star'] * 100:.1f}%)"
            )

    text, csv_text = render_tables(rows)
    if notes:
        text += "\nbound gaps, own-value vs exact-optimum denominator:\n"
        text += "\n".join("  " + line for line in sorted(notes)) + "\n"
    (out_dir / "report.csv").write_text(csv_text)
    (out_dir / "report.txt").write_text(text)
    sys.stdout.write(text)
    print(f"wrote {out_dir / 'report.csv'} and {out_dir / 'report.txt'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args, parser)
    if args.command == "solve":
        return _cmd_solve(args, parser)
    if args.command == "benchmark":
        return _cmd_benchmark(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
