"""Constructive greedy with congestion-aware post sizing, plus local search.

The greedy walks the scenario tree top-down, carrying the parent deployment as
a floor (stations never close, posts never shrink).  At each node it keeps
every zone covered, sizes every open station at once with ``evcec``'s
evaluator (the arrival rates of ``station_rates``, then the fewest posts of
``min_posts``, raised to the parent's count), and opens an extra station
whenever some station's demand cannot be absorbed within its post cap.  Three
different station-opening criteria give three different feasible plans; the
local search then tries closing each non-initial station and repairing.
"""

from __future__ import annotations

import enum

import numpy as np

from .evcec import Deployment, min_posts, objective_value, station_rates
from .instance import Instance, coverage_sets


class InfeasibleInstanceError(RuntimeError):
    """Even the fully built network cannot absorb demand (or a ban makes
    coverage impossible during repair)."""


class Criterion(enum.Enum):
    MOST_ZONES = "most_zones"
    LOWEST_COST = "lowest_cost"
    LOWEST_COST_PER_ZONE = "lowest_cost_per_zone"


ALL_CRITERIA = (Criterion.MOST_ZONES, Criterion.LOWEST_COST, Criterion.LOWEST_COST_PER_ZONE)


def _station_score(inst: Instance, cov, n: int, j: int, criterion: Criterion) -> float:
    """Lower is better; ties are broken by location id at the call site."""
    node = inst.node(n)
    covered = len(cov.zones_near[n][j])
    if criterion is Criterion.MOST_ZONES:
        return -float(covered)
    # "average total cost" proxy: station build+operate plus one post
    station_cost = node.cost_build[j] + node.cost_op_station[j]
    total_cost = station_cost + node.cost_post[j] + node.cost_op_post[j]
    if criterion is Criterion.LOWEST_COST:
        return station_cost
    if covered == 0:
        return float("inf")
    return total_cost / covered


def _pick(inst: Instance, cov, n: int, candidates, criterion: Criterion) -> int | None:
    best = None
    best_score = None
    for j in sorted(candidates):
        score = _station_score(inst, cov, n, j, criterion)
        if best_score is None or score < best_score - 1e-12:
            best, best_score = j, score
    return best


def greedy(inst: Instance, criterion: Criterion, banned=frozenset(),
           base_open: dict | None = None) -> Deployment:
    """Construct a feasible deployment node by node.

    ``banned`` locations are never opened (used by the local search's closing
    moves); ``base_open`` seeds each node's open set (used to repair a partial
    plan, e.g. a rounded master solution).  Raises InfeasibleInstanceError when
    coverage or capacity cannot be restored with the remaining locations.
    """
    cov = coverage_sets(inst)
    nloc = inst.n_locations
    m_max = np.array([loc.m_max for loc in inst.locations])
    for j in banned:
        if inst.locations[j].x0:
            raise InfeasibleInstanceError(f"location {j} has an initial station; it cannot close")

    open_prev = [loc.x0 for loc in inst.locations]
    posts_prev = [loc.y0 for loc in inst.locations]
    open_map: dict = {}
    posts_map: dict = {}

    for n in inst.node_ids():
        open_n = list(open_prev)
        if base_open is not None and n in base_open:
            for j in range(nloc):
                if base_open[n][j] and j not in banned:
                    open_n[j] = True
        while True:
            # keep every zone covered
            for i in range(inst.n_zones):
                near = cov.locs_near[n][i]
                if any(open_n[k] for k in near):
                    continue
                candidates = [k for k in near if k not in banned]
                if not candidates:
                    raise InfeasibleInstanceError(
                        f"zone {i} cannot be covered at node {n} with available locations"
                    )
                open_n[_pick(inst, cov, n, candidates, criterion)] = True
            # size posts against the resulting arrival rates, never below
            # the parent's count
            rates = station_rates(inst, open_n, n)
            posts_n = np.where(open_n, np.maximum(min_posts(inst, rates), posts_prev), 0)
            if (posts_n <= m_max).all():
                break
            spare = [j for j in range(nloc) if not open_n[j] and j not in banned]
            if not spare:
                raise InfeasibleInstanceError(
                    f"demand at node {n} cannot be absorbed even with every location open"
                )
            open_n[_pick(inst, cov, n, spare, criterion)] = True
        open_map[n] = tuple(open_n)
        posts_map[n] = tuple(posts_n.tolist())
        open_prev, posts_prev = open_n, posts_n

    return Deployment(open=open_map, posts=posts_map)


def best_greedy(inst: Instance) -> Deployment:
    """Run the greedy under all three criteria and keep the cheapest feasible plan."""
    best = None
    best_obj = None
    failures = []
    for crit in ALL_CRITERIA:
        try:
            dep = greedy(inst, crit)
        except InfeasibleInstanceError as exc:
            failures.append(str(exc))
            continue
        obj = objective_value(inst, dep)
        if best_obj is None or obj < best_obj - 1e-12:
            best, best_obj = dep, obj
    if best is None:
        raise InfeasibleInstanceError("; ".join(failures))
    return best


def local_search(inst: Instance, start: Deployment) -> Deployment:
    """First-improvement closing moves: force one non-initial station closed at
    every node, rebuild with the greedy, accept if the objective drops.
    Sweeps repeat until a full pass yields no improvement."""
    best = start
    best_obj = objective_value(inst, start)
    improved = True
    while improved:
        improved = False
        ever_open = sorted(
            {
                j
                for n in inst.node_ids()
                for j in range(inst.n_locations)
                if best.open[n][j] and not inst.locations[j].x0
            }
        )
        for j in ever_open:
            try:
                cand = greedy(inst, Criterion.MOST_ZONES, banned=frozenset({j}),
                              base_open=best.open)
            except InfeasibleInstanceError:
                continue
            obj = objective_value(inst, cand)
            if obj < best_obj - 1e-9:
                best, best_obj = cand, obj
                improved = True
    return best
