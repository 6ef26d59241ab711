"""Branch-and-price on the scenario-tree decomposition.

The expansion model splits cleanly: the rows linking a node to its parent
(stations never close, posts never shrink) form the master problem, and
everything else is node-local, so each scenario node prices its own columns
(in-scenario feasible open/posts patterns).  The master holds one convexity
row per node and the linking rows; its objective uses telescoped cost
coefficients so that summing chosen column costs minus the initial-state
rebate reproduces the original expected cost exactly.

Pricing is exact and needs no MILP: once a node's open vector is fixed,
arrival rates follow in closed form from the logit shares and each open
station takes its cheapest admissible post count, so ``solve_pricing``
enumerates the node's free open flags in vectorised blocks and returns the
best few columns.  Every complete round therefore gives a valid Lagrangian
bound, and a node's bound is the best of its rounds.

Branching fixes original variables: first open flags (most fractional
aggregate), then aggregated post counts when the open pattern is integral but
post profiles still mix.  Fixings propagate along the tree through the
monotonicity rows and are enforced inside pricing, so the pricing structure
never changes shape.

The tree search is ``milp.best_first``, the same search branch and bound
uses; ``branch_and_price`` only supplies the node expansion.  A node whose
column generation stops at a limit without branching (or a root-only cut)
hands its best Lagrangian bound to the search as the floor of its unsearched
subtree.  Plans come from one source: the greedy plus local search at the
start, and at each node the primal repair of the master and its decoded
aggregate.  Every plan passes ``check_feasible`` before it counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .evcec import Deployment, check_feasible, objective_value
from .heuristic import (
    Criterion,
    InfeasibleInstanceError,
    best_greedy,
    greedy,
    local_search,
)
from .instance import Instance, attraction_matrix, coverage_sets, rho_table_for
from .milp import EQ, GE, Model, best_first, solve_lp

PENALTY_COST = 1e7   # linking-row slack and artificial-column price
RC_TOL = 1e-6        # a column must beat its convexity dual by this much
INT_TOL = 1e-6
PRICING_COLUMNS = 20  # columns a node may add per round, best first
BLOCK_BITS = 12       # free open flags enumerated together: 4096 patterns a block
MAX_FREE_FLAGS = 30   # beyond this, enumerating a node's patterns is out of reach


@dataclass(frozen=True)
class Column:
    """One in-scenario point for one node: open pattern, post counts, and its
    telescoped cost contribution."""

    node: int
    open: tuple[bool, ...]
    posts: tuple[int, ...]
    cost: float
    artificial: bool = False

    def key(self):
        return (self.node, self.open, self.posts)


@dataclass(frozen=True)
class CostCoeffs:
    """Telescoped master cost coefficients c1 (per open flag), c2 (per post),
    and the constant rebate psi for the pre-decision state."""

    c1: dict
    c2: dict
    psi: float


@dataclass
class RmpDuals:
    pi1: dict       # (n, j) -> dual of the open-flag linking row, >= 0
    pi2: dict       # (n, j) -> dual of the post-count linking row, >= 0
    sigma: dict     # n -> convexity dual, free


@dataclass
class RmpSolution:
    value: float
    duals: RmpDuals
    node_columns: dict
    lambdas: dict
    penalty: float

    def aggregates(self, inst: Instance):
        """Lambda-weighted open and post values per (node, location)."""
        xbar = {}
        pbar = {}
        for n in inst.node_ids():
            cols = self.node_columns[n]
            lams = self.lambdas[n]
            xrow = [0.0] * inst.n_locations
            prow = [0.0] * inst.n_locations
            for col, lam in zip(cols, lams):
                if lam <= 0.0:
                    continue
                for j in range(inst.n_locations):
                    if col.open[j]:
                        xrow[j] += lam
                    prow[j] += lam * col.posts[j]
            xbar[n] = tuple(xrow)
            pbar[n] = tuple(prow)
        return xbar, pbar


@dataclass(frozen=True)
class Fixings:
    """Branching state: open flags forced to 0/1 and bounds on post counts,
    both keyed by (node, location)."""

    x_fix: dict = field(default_factory=dict)
    post_lo: dict = field(default_factory=dict)
    post_hi: dict = field(default_factory=dict)

    def compatible(self, col: Column) -> bool:
        n = col.node
        for (m, j), v in self.x_fix.items():
            if m == n and col.open[j] != bool(v):
                return False
        for (m, j), lo in self.post_lo.items():
            if m == n and col.posts[j] < lo:
                return False
        for (m, j), hi in self.post_hi.items():
            if m == n and col.posts[j] > hi:
                return False
        return True

    def consistent(self) -> bool:
        for key, lo in self.post_lo.items():
            if self.post_hi.get(key, math.inf) < lo:
                return False
        for (m, j), v in self.x_fix.items():
            if v == 0 and self.post_lo.get((m, j), 0) >= 1:
                return False
        return True


@dataclass
class BranchNode:
    fixings: Fixings
    parent_bound: float
    depth: int


@dataclass(frozen=True)
class BpLimits:
    time_limit_s: float | None = None
    gap_tol: float = 1e-6
    node_limit: int | None = None
    cg_round_limit: int = 200
    root_only: bool = False


@dataclass
class CgResult:
    status: str                 # converged | limit | infeasible
    lp_value: float
    lagrangian_lb: float        # best bound over the completed rounds
    duals: RmpDuals | None
    rmp: RmpSolution | None
    new_columns: list
    iterations: list


@dataclass
class BpResult:
    status: str                 # optimal | feasible | infeasible | time_limit
    incumbent: Deployment | None
    z: float
    bound: float
    gap: float
    stats: dict


# ---------------------------------------------------------------------------
# Cost coefficients and columns


def cost_coefficients(inst: Instance) -> CostCoeffs:
    """c1[n,j] charges node n's station build+operate and rebates the builds its
    children would otherwise re-pay; c2 does the same per post.  psi rebates
    what the pre-decision state already paid for."""
    c1 = {}
    c2 = {}
    for node in inst.tree:
        kids = inst.children(node.id)
        for j in range(inst.n_locations):
            rebate1 = sum(inst.node(c).prob * inst.node(c).cost_build[j] for c in kids)
            rebate2 = sum(inst.node(c).prob * inst.node(c).cost_post[j] for c in kids)
            c1[node.id, j] = node.prob * (node.cost_build[j] + node.cost_op_station[j]) - rebate1
            c2[node.id, j] = node.prob * (node.cost_post[j] + node.cost_op_post[j]) - rebate2
    root = inst.tree[0]
    psi = root.prob * sum(
        root.cost_build[j] * (1.0 if inst.locations[j].x0 else 0.0)
        + root.cost_post[j] * inst.locations[j].y0
        for j in range(inst.n_locations)
    )
    return CostCoeffs(c1=c1, c2=c2, psi=psi)


def column_cost(coeffs: CostCoeffs, n: int, open_row, posts_row) -> float:
    return sum(
        coeffs.c1[n, j] * (1.0 if open_row[j] else 0.0) + coeffs.c2[n, j] * posts_row[j]
        for j in range(len(open_row))
    )


def make_column(coeffs: CostCoeffs, n: int, open_row, posts_row) -> Column:
    open_t = tuple(bool(v) for v in open_row)
    posts_t = tuple(int(v) for v in posts_row)
    return Column(node=n, open=open_t, posts=posts_t,
                  cost=column_cost(coeffs, n, open_t, posts_t))


def columns_from_deployment(inst: Instance, coeffs: CostCoeffs, dep: Deployment) -> list:
    return [make_column(coeffs, n, dep.open[n], dep.posts[n]) for n in inst.node_ids()]


def _artificial_column(inst: Instance, fixings: Fixings, n: int) -> Column:
    """Fixings-compatible placeholder priced at PENALTY_COST; keeps the
    convexity row feasible when no real column survives the filter."""
    open_row = []
    posts_row = []
    for j in range(inst.n_locations):
        fx = fixings.x_fix.get((n, j))
        is_open = True if fx is None else bool(fx)
        open_row.append(is_open)
        if not is_open:
            posts_row.append(0)
            continue
        lo = max(1, fixings.post_lo.get((n, j), 1))
        hi = min(inst.locations[j].m_max, fixings.post_hi.get((n, j), inst.locations[j].m_max))
        posts_row.append(max(lo, hi))
    return Column(node=n, open=tuple(open_row), posts=tuple(posts_row),
                  cost=PENALTY_COST, artificial=True)


# ---------------------------------------------------------------------------
# Restricted master problem


def build_rmp(inst: Instance, coeffs: CostCoeffs, columns, fixings: Fixings):
    """Master LP over the column pool.  Returns (Model, node_columns, lambda
    var ids, row index maps).  Linking rows carry penalty slacks so the LP is
    always feasible; a node whose pool is emptied by the fixings receives an
    artificial column."""
    node_columns = {n: [] for n in inst.node_ids()}
    for col in columns:
        if fixings.compatible(col):
            node_columns[col.node].append(col)
    for n in inst.node_ids():
        if not node_columns[n]:
            node_columns[n] = [_artificial_column(inst, fixings, n)]

    m = Model("rmp")
    lam_vars = {n: [] for n in inst.node_ids()}
    obj = []
    for n in inst.node_ids():
        for idx, col in enumerate(node_columns[n]):
            vid = m.add_var(lower=0.0, upper=1.0, name=f"lam[{n},{idx}]")
            lam_vars[n].append(vid)
            obj.append((vid, col.cost))

    row_open = {}
    row_posts = {}
    row_conv = {}
    for n in inst.node_ids():
        node = inst.node(n)
        parent = node.parent
        for j in range(inst.n_locations):
            terms = [
                (lam_vars[n][idx], 1.0 if col.open[j] else 0.0)
                for idx, col in enumerate(node_columns[n])
            ]
            if parent is None:
                rhs = 1.0 if inst.locations[j].x0 else 0.0
            else:
                rhs = 0.0
                terms += [
                    (lam_vars[parent][idx], -1.0 if col.open[j] else 0.0)
                    for idx, col in enumerate(node_columns[parent])
                ]
            slack = m.add_var(lower=0.0, name=f"pen_x[{n},{j}]")
            terms.append((slack, 1.0))
            obj.append((slack, PENALTY_COST))
            terms = [(v, c) for v, c in terms if c != 0.0]
            row_open[n, j] = m.add_constraint(terms, GE, rhs, name=f"link_x[{n},{j}]")
        for j in range(inst.n_locations):
            terms = [
                (lam_vars[n][idx], float(col.posts[j]))
                for idx, col in enumerate(node_columns[n])
            ]
            if parent is None:
                rhs = float(inst.locations[j].y0)
            else:
                rhs = 0.0
                terms += [
                    (lam_vars[parent][idx], -float(col.posts[j]))
                    for idx, col in enumerate(node_columns[parent])
                ]
            slack = m.add_var(lower=0.0, name=f"pen_p[{n},{j}]")
            terms.append((slack, 1.0))
            obj.append((slack, PENALTY_COST))
            terms = [(v, c) for v, c in terms if c != 0.0]
            row_posts[n, j] = m.add_constraint(terms, GE, rhs, name=f"link_p[{n},{j}]")
    for n in inst.node_ids():
        row_conv[n] = m.add_constraint(
            [(vid, 1.0) for vid in lam_vars[n]], EQ, 1.0, name=f"conv[{n}]"
        )
    m.set_objective(obj, offset=-coeffs.psi)
    return m, node_columns, lam_vars, (row_open, row_posts, row_conv)


def solve_rmp(inst: Instance, coeffs: CostCoeffs, columns, fixings: Fixings) -> RmpSolution:
    model, node_columns, lam_vars, (row_open, row_posts, row_conv) = build_rmp(
        inst, coeffs, columns, fixings
    )
    sol = solve_lp(model)
    if sol.status != "optimal":
        raise RuntimeError(f"master LP must stay feasible and bounded, got {sol.status}")
    duals = RmpDuals(
        pi1={k: max(0.0, sol.duals[r]) for k, r in row_open.items()},
        pi2={k: max(0.0, sol.duals[r]) for k, r in row_posts.items()},
        sigma={n: sol.duals[r] for n, r in row_conv.items()},
    )
    penalty = sum(
        sol.values[vid]
        for vid in range(model.num_vars)
        if model.vars[vid].name.startswith("pen_") and sol.values[vid] > 1e-9
    )
    lambdas = {n: [sol.values[v] for v in lam_vars[n]] for n in inst.node_ids()}
    return RmpSolution(
        value=sol.objective,
        duals=duals,
        node_columns=node_columns,
        lambdas=lambdas,
        penalty=penalty,
    )


# ---------------------------------------------------------------------------
# Pricing


@dataclass
class PricingOutcome:
    columns: list               # the best columns with rc < -RC_TOL, best first
    reduced_cost: float         # least reduced cost over the node (inf if infeasible)
    status: str                 # optimal | infeasible


def zone_arrays(inst: Instance, n: int):
    """Node n's zones by locations: coverage (0/1) and coverage-masked
    attraction, then the zone weights theta, w and bcoef."""
    cov = coverage_sets(inst)
    node = inst.node(n)
    near = np.array([[j in cov.locs_near[n][i] for j in range(inst.n_locations)]
                     for i in range(inst.n_zones)], dtype=float)
    attr = near * np.array(attraction_matrix(inst))
    return near, attr, np.array(node.theta), np.array(node.w), np.array(node.bcoef)


def pattern_rates(zones, x: np.ndarray):
    """``station_rates`` for each row of the 0/1 matrix x (patterns by
    locations) at the node of ``zones``, and whether the row covers every
    zone (an uncovered row's rates mean nothing)."""
    near, attr, theta, w, bcoef = zones
    open_near = x @ near.T
    denom = x @ attr.T
    covered = (open_near > 0).all(axis=1)
    denom[open_near == 0] = 1.0
    rates = ((theta * (w + bcoef * open_near)) / denom) @ attr * x
    return rates, covered


def solve_pricing(inst: Instance, n: int, coeffs: CostCoeffs, duals: RmpDuals,
                  fixings: Fixings) -> PricingOutcome:
    """Price one node exactly by enumerating its free open flags x.

    For a fixed x the arrival rates are closed form, and each open station
    takes the cheapest post count in [max(1, kmin, fixed lo), min(m_max,
    fixed hi)], kmin as in ``heuristic.min_posts``: the low end when a post's
    reduced cost is >= 0, else the high end.  An empty interval or an
    uncovered zone rules x out.  Blocks of patterns run in bound order (the
    decided open flags at congestion-free cost plus the undecided ones'
    negative parts) until no block can improve the result.  Returns the
    PRICING_COLUMNS best columns with rc < -RC_TOL, ties by pattern index.
    """
    nloc = inst.n_locations
    kids = inst.children(n)
    sigma = duals.sigma[n]
    caps = inst.queue.mu * np.array(rho_table_for(inst).values)
    zones = zone_arrays(inst, n)
    cx = np.array([coeffs.c1[n, j] - duals.pi1[n, j] + sum(duals.pi1[c, j] for c in kids)
                   for j in range(nloc)])
    cy = np.array([coeffs.c2[n, j] - duals.pi2[n, j] + sum(duals.pi2[c, j] for c in kids)
                   for j in range(nloc)])
    lo_fix = np.array([max(1, fixings.post_lo.get((n, j), 1)) for j in range(nloc)])
    hi_fix = np.array([min(loc.m_max, fixings.post_hi.get((n, j), loc.m_max))
                       for j, loc in enumerate(inst.locations)])
    # cheapest cost of an open station with congestion ignored; inf when the
    # post fixings leave it no count
    open_cost = np.where(lo_fix > hi_fix, np.inf,
                         cx + cy * np.where(cy >= 0, lo_fix, hi_fix))
    fixed = [fixings.x_fix.get((n, j), 1 if fixings.post_lo.get((n, j), 0) >= 1 else None)
             for j in range(nloc)]
    # the flags whose cost swings the bound most are decided per block
    free = sorted((j for j in range(nloc) if fixed[j] is None), key=lambda j: abs(open_cost[j]))
    if len(free) > MAX_FREE_FLAGS:
        raise ValueError(f"node {n}: {len(free)} free open flags, pricing takes {MAX_FREE_FLAGS}")
    inner, outer = free[:BLOCK_BITS], free[BLOCK_BITS:]
    size = 1 << len(inner)
    inner_bits = (np.arange(size)[:, None] >> np.arange(len(inner))) & 1
    blocks = np.arange(1 << len(outer))
    base = np.array([v == 1 for v in fixed], dtype=float)
    bounds = np.full(len(blocks), open_cost[base > 0].sum()
                     + np.minimum(open_cost[inner], 0.0).sum())
    for bit, j in enumerate(outer):
        bounds += np.where((blocks >> bit) & 1, open_cost[j], 0.0)

    best_obj = np.empty(0)
    best_idx = np.empty(0, dtype=int)
    best_posts = np.empty((0, nloc), dtype=int)
    for block in np.argsort(bounds, kind="stable"):
        least = best_obj[0] if len(best_obj) else math.inf
        kth = best_obj[-1] if len(best_obj) == PRICING_COLUMNS else math.inf
        if bounds[block] >= max(least, min(kth, sigma - RC_TOL)):
            break
        x = np.tile(base, (size, 1))
        x[:, inner] = inner_bits
        x[:, outer] = (block >> np.arange(len(outer))) & 1
        rates, covered = pattern_rates(zones, x)
        lo = np.maximum(np.searchsorted(caps, rates) + 1, lo_fix)  # first cap >= rate
        is_open = x > 0
        ok = covered & ~(is_open & (lo > hi_fix)).any(axis=1)
        posts = np.where(is_open, np.where(cy >= 0, lo, hi_fix), 0)[ok]
        obj = np.concatenate([best_obj, x[ok] @ cx + posts @ cy])
        idx = np.concatenate([best_idx, block * size + np.flatnonzero(ok)])
        keep = np.lexsort((idx, obj))[:PRICING_COLUMNS]
        best_obj, best_idx = obj[keep], idx[keep]
        best_posts = np.concatenate([best_posts, posts])[keep]
    if not len(best_obj):
        return PricingOutcome([], math.inf, "infeasible")
    rcs = best_obj - sigma
    columns = [make_column(coeffs, n, posts > 0, posts)  # open iff it has posts
               for posts, rc in zip(best_posts, rcs) if rc < -RC_TOL]
    return PricingOutcome(columns, float(rcs[0]), "optimal")


# ---------------------------------------------------------------------------
# Column generation


def column_generation(inst: Instance, coeffs: CostCoeffs, pool: list,
                      fixings: Fixings, limits: BpLimits | None = None,
                      deadline: float | None = None) -> CgResult:
    """Price-and-solve loop for one branch node.

    Pricing is exact, so each round gives a Lagrangian bound and
    ``lagrangian_lb`` is the best of them.  The deadline is checked between
    node pricings; a round it cuts short adds no bound and no column.
    """
    limits = limits or BpLimits()
    iterations = []
    new_columns = []
    seen = {c.key() for c in pool}
    best_lb = -math.inf
    for round_no in range(limits.cg_round_limit):
        rmp = solve_rmp(inst, coeffs, pool, fixings)
        added = []
        node_rcs = {}
        for n in inst.node_ids():
            if deadline is not None and time.monotonic() > deadline:
                return CgResult("limit", rmp.value, best_lb, rmp.duals, rmp,
                                new_columns, iterations)
            outcome = solve_pricing(inst, n, coeffs, rmp.duals, fixings)
            if outcome.status == "infeasible":
                return CgResult("infeasible", math.inf, math.inf,
                                None, None, new_columns, iterations)
            node_rcs[n] = outcome.reduced_cost
            for col in outcome.columns:
                if col.key() not in seen:
                    seen.add(col.key())
                    added.append(col)
        lb_round = rmp.value + sum(min(0.0, rc) for rc in node_rcs.values())
        best_lb = max(best_lb, lb_round)
        iterations.append(
            {
                "round": round_no,
                "rmp_value": rmp.value,
                "lagrangian_lb": lb_round,
                "columns_added": len(added),
                "penalty": rmp.penalty,
                "reduced_costs": node_rcs,
            }
        )
        if not added:
            return CgResult("converged", rmp.value, best_lb,
                            rmp.duals, rmp, new_columns, iterations)
        pool.extend(added)
        new_columns.extend(added)
    rmp = solve_rmp(inst, coeffs, pool, fixings)
    return CgResult("limit", rmp.value, best_lb, rmp.duals, rmp, new_columns, iterations)


# ---------------------------------------------------------------------------
# Primal repair


def primal_repair(inst: Instance, rmp: RmpSolution) -> Deployment | None:
    """Round the lambda-aggregated open pattern (>= 0.5, parents propagated),
    then let the greedy restore coverage and size posts, and polish with the
    local search.  Returns None when even the repair cannot absorb demand."""
    xbar, _ = rmp.aggregates(inst)
    base_open = {}
    prev = [loc.x0 for loc in inst.locations]
    for n in inst.node_ids():
        row = [xbar[n][j] >= 0.5 or prev[j] for j in range(inst.n_locations)]
        base_open[n] = tuple(row)
        prev = row
    try:
        dep = greedy(inst, Criterion.MOST_ZONES, base_open=base_open)
    except InfeasibleInstanceError:
        return None
    return local_search(inst, dep)


# ---------------------------------------------------------------------------
# Branch and price


def _subtree(inst: Instance, n: int):
    out = [n]
    stack = [n]
    while stack:
        cur = stack.pop()
        for c in inst.children(cur):
            out.append(c)
            stack.append(c)
    return out


def _ancestors_and_self(inst: Instance, n: int):
    out = [n]
    cur = inst.node(n).parent
    while cur is not None:
        out.append(cur)
        cur = inst.node(cur).parent
    return out


def _fix_x(fix: Fixings, key, value: int) -> None:
    """Tighten an open-flag fix; a contradiction leaves the node inconsistent
    (post bounds crossed) so it is pruned instead of silently overwritten."""
    old = fix.x_fix.get(key)
    if old is not None and old != value:
        fix.post_lo[key] = 1
        fix.post_hi[key] = 0
        return
    fix.x_fix[key] = value


def _branch_on_x(inst: Instance, fixings: Fixings, n: int, j: int):
    """Two children: station absent at (n, j) (and above), or present (and below)."""
    zero = Fixings(dict(fixings.x_fix), dict(fixings.post_lo), dict(fixings.post_hi))
    for m in _ancestors_and_self(inst, n):
        _fix_x(zero, (m, j), 0)
    one = Fixings(dict(fixings.x_fix), dict(fixings.post_lo), dict(fixings.post_hi))
    for m in _subtree(inst, n):
        _fix_x(one, (m, j), 1)
        one.post_lo[m, j] = max(one.post_lo.get((m, j), 1), 1)
    return zero, one


def _branch_on_posts(inst: Instance, fixings: Fixings, n: int, j: int, split: int):
    """Two children: post count <= split at (n, j) (and above), or >= split+1
    (and below)."""
    low = Fixings(dict(fixings.x_fix), dict(fixings.post_lo), dict(fixings.post_hi))
    for m in _ancestors_and_self(inst, n):
        low.post_hi[m, j] = min(low.post_hi.get((m, j), math.inf), split)
    high = Fixings(dict(fixings.x_fix), dict(fixings.post_lo), dict(fixings.post_hi))
    for m in _subtree(inst, n):
        high.post_lo[m, j] = max(high.post_lo.get((m, j), 0), split + 1)
        _fix_x(high, (m, j), 1)
    return low, high


def _select_branching(inst: Instance, rmp: RmpSolution):
    """(kind, n, j, split): the x closest to one half, else a fractional or
    mixed-support post count; None when the aggregate is a pure column choice."""
    xbar, pbar = rmp.aggregates(inst)
    best = None
    best_score = None
    for n in inst.node_ids():
        for j in range(inst.n_locations):
            v = xbar[n][j]
            if min(v, 1.0 - v) > INT_TOL:
                score = abs(v - 0.5)
                if best_score is None or score < best_score - 1e-12:
                    best, best_score = (n, j), score
    if best is not None:
        return ("x", best[0], best[1], None)
    for n in inst.node_ids():
        for j in range(inst.n_locations):
            p = pbar[n][j]
            if abs(p - round(p)) > INT_TOL:
                return ("posts", n, j, int(math.floor(p)))
    for n in inst.node_ids():
        cols = rmp.node_columns[n]
        lams = rmp.lambdas[n]
        support = [c for c, l in zip(cols, lams) if l > INT_TOL]
        for j in range(inst.n_locations):
            posts = {c.posts[j] for c in support}
            if len(posts) > 1:
                return ("posts", n, j, int(round(pbar[n][j])))
    return None


def _decode_aggregate(inst: Instance, rmp: RmpSolution) -> Deployment:
    xbar, pbar = rmp.aggregates(inst)
    return Deployment(
        open={n: tuple(v > 0.5 for v in xbar[n]) for n in inst.node_ids()},
        posts={n: tuple(int(round(p)) for p in pbar[n]) for n in inst.node_ids()},
    )


def branch_and_price(inst: Instance, limits: BpLimits | None = None) -> BpResult:
    """Best-first branch-and-price: ``milp.best_first`` over branch nodes,
    each expanded by column generation under its fixings (see the module
    docstring for the floors and the plans it hands the search)."""
    limits = limits or BpLimits()
    t0 = time.monotonic()
    deadline = None if limits.time_limit_s is None else t0 + limits.time_limit_s
    coeffs = cost_coefficients(inst)
    stats = {"branch_nodes": 0, "cg_rounds": 0, "columns": 0, "log": []}
    pool: list[Column] = []
    seen = set()

    def audited(dep: Deployment | None) -> list:
        """[(objective, plan)] for a plan that passes the audit, with its
        columns added to the pool; [] otherwise."""
        if dep is None or not check_feasible(inst, dep).feasible:
            return []
        for c in columns_from_deployment(inst, coeffs, dep):
            if c.key() not in seen:
                seen.add(c.key())
                pool.append(c)
                stats["columns"] += 1
        return [(objective_value(inst, dep), dep)]

    def expand(bnode: BranchNode, best: float):
        cg = column_generation(inst, coeffs, pool, bnode.fixings, limits, deadline)
        seen.update(c.key() for c in cg.new_columns)
        stats["columns"] += len(cg.new_columns)
        stats["cg_rounds"] += len(cg.iterations)
        stats["log"].append(
            {"branch_depth": bnode.depth, "fixings": len(bnode.fixings.x_fix),
             "cg": cg.iterations, "status": cg.status}
        )
        if cg.status == "infeasible":
            return [], [], math.inf
        node_lb = max(bnode.parent_bound, cg.lagrangian_lb)
        if cg.status == "converged":
            node_lb = max(node_lb, cg.lp_value)
        if node_lb >= best - 1e-9:
            return [], [], math.inf
        plans = audited(primal_repair(inst, cg.rmp))
        choice = _select_branching(inst, cg.rmp)
        if choice is None:
            # pure per-node column selection: the aggregate IS the node's
            # optimum once column generation has converged
            found = audited(_decode_aggregate(inst, cg.rmp))
            floor = math.inf if cg.status == "converged" and found else node_lb
            return [], plans + found, floor
        if limits.root_only:
            return [], plans, node_lb
        kind, n, j, split = choice
        if kind == "x":
            left, right = _branch_on_x(inst, bnode.fixings, n, j)
        else:
            left, right = _branch_on_posts(inst, bnode.fixings, n, j, split)
        children = [(node_lb, BranchNode(fix, node_lb, bnode.depth + 1))
                    for fix in (left, right) if fix.consistent()]
        return children, plans, math.inf

    try:
        plans = audited(local_search(inst, best_greedy(inst)))
    except InfeasibleInstanceError:
        plans = []
    root = BranchNode(Fixings(), -math.inf, 0)
    res = best_first([(-math.inf, root)], plans, expand, deadline, limits.gap_tol,
                     limits.node_limit)
    stats["branch_nodes"] = res.nodes
    stats["time_s"] = time.monotonic() - t0
    return BpResult(res.status, res.plan, res.objective, res.bound, res.gap, stats)
