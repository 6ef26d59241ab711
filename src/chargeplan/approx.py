"""Relax-and-round approximation.

Solve the partial relaxation (binary open flags, continuous post indicators),
then round each station's post profile up to the largest indicator with mass,
and never below the count rounded at the parent node.  The rounded point
stays feasible: capacity can only grow when the one-hot lands on a count at
least as large as every supported one, and taking the parent's count as a
floor keeps posts from shrinking along the tree.  The largest supported count
alone does not: two profiles with equal weighted sums, such as {1: 0.96,
3: 0.04} at a parent and {1: 0.92, 2: 0.08} at its child, round to 3 and 2.
The relaxation optimum is a valid lower bound, reported alongside the
rounded plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evcec import Deployment, build_revcec, objective_value
from .instance import Instance
from .milp import MipLimits, solve_mip

ROUND_EPS = 1e-6  # indicator mass below this is LP noise, not support


@dataclass(frozen=True)
class ApproxResult:
    deployment: Deployment | None
    z_appr: float
    lb: float
    gap_lb: float
    status: str


def round_posts(y_relaxed: dict[int, float]) -> int | None:
    """One-hot selection from a relaxed post profile: the largest k with mass.

    Returns the chosen k, or None when every indicator is below the noise
    threshold (closed station).  Idempotent on integral profiles.
    """
    support = [k for k, v in y_relaxed.items() if v > ROUND_EPS]
    return max(support) if support else None


def approximate(inst: Instance, limits: MipLimits | None = None) -> ApproxResult:
    """Solve the partial relaxation, round, and report plan + bound + gap."""
    em = build_revcec(inst)
    sol = solve_mip(em.model, limits)
    if sol.status == "infeasible":
        return ApproxResult(None, float("inf"), float("inf"), 0.0, "infeasible")
    if not sol.values:
        return ApproxResult(None, float("inf"), sol.bound, 0.0, sol.status)

    open_map = {}
    posts_map = {}
    for n in inst.node_ids():
        open_row = tuple(sol.values[em.x[n, j]] > 0.5 for j in range(inst.n_locations))
        parent = inst.node(n).parent
        floor = posts_map[parent] if parent is not None else (0,) * inst.n_locations
        posts_row = []
        for j in range(inst.n_locations):
            if not open_row[j]:
                posts_row.append(0)
                continue
            profile = {
                k: sol.values[em.y[n, j, k]]
                for k in range(1, inst.locations[j].m_max + 1)
            }
            k = round_posts(profile)
            # the one-hot row guarantees total mass 1 on an open station
            posts_row.append(max(k if k is not None else 1, floor[j]))
        open_map[n] = open_row
        posts_map[n] = tuple(posts_row)
    dep = Deployment(open=open_map, posts=posts_map)

    z_appr = objective_value(inst, dep)
    lb = sol.objective if sol.status == "optimal" else sol.bound
    gap_lb = (z_appr - lb) / z_appr if z_appr > 0 else 0.0
    return ApproxResult(dep, z_appr, lb, gap_lb, sol.status)
