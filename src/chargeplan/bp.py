"""Branch-and-price on the scenario-tree decomposition.

The expansion model splits cleanly: the rows linking a node to its parent
(stations never close, posts never shrink) form the master problem, and
everything else is node-local, so each scenario node prices its own columns
(in-scenario feasible open/posts patterns).  The master holds one convexity
row per node and the linking rows; its objective uses telescoped cost
coefficients so that summing chosen column costs minus the initial-state
rebate reproduces the original expected cost exactly.

One master (``Master``) serves the whole search.  It is built once, with its
linking rows and convexity rows, and each round only appends the new lambda
columns; the LP kernel extends its standard form in place.  The lambdas are
its only variables, so it is infeasible until its columns can meet every
row.  Every solve warm-starts from the last basis and its inverse: the
previous round's within a node, the parent's final basis at a new branch node
(inverted again if other nodes were expanded in between).  A new lambda is
boxed in [0, 1], so its negative reduced cost is repaired by a bound flip and
the dual simplex carries on from there.  Branching fixings never rebuild the
master: a column they rule out keeps its lambda at 0 through a bound override.

Pricing is exact and needs no MILP: once a node's open vector is fixed,
arrival rates follow in closed form from the logit shares and each open
station takes its cheapest admissible post count, both from ``evcec``'s
evaluator of an open pattern (``pattern_rates`` and ``min_posts``, which the
greedy uses too), so ``solve_pricing`` enumerates the node's free open flags
in vectorised blocks and returns the best few columns.  A column is a node's
post vector; its open flags are the stations with a post (row 3h).  Every
complete round on a feasible master gives a valid Lagrangian bound, and a
node's bound is the best of its rounds.  An infeasible master returns the
kernel's Farkas ray instead of duals, and the same closed form prices it
with zero column costs (Farkas pricing): the columns that cut the ray go in,
and when no node has one the branch node is infeasible.

Branching splits the post count of one (node, location) into posts <= split
and posts >= split + 1.  A station is open exactly when it has a post (row
3h), so split 0 is the open-flag branch; it is taken first (most fractional
aggregate open flag), then a fractional or mixed-support post count.  The
low side caps the node and its ancestors, the high side raises the node and
its subtree, as the monotonicity rows imply.  The one interval per (node,
location) is enforced inside pricing, so the pricing structure never changes
shape.

The tree search is ``milp.best_first``, the same search branch and bound
uses; ``branch_and_price`` only supplies the node expansion.  A node whose
column generation stops at a limit without branching (or a root-only cut)
hands its best Lagrangian bound to the search as the floor of its unsearched
subtree, or its parent's bound when the limit came before the master was
feasible.  Plans come from one source: the greedy plus local search at the
start, and at each node the primal repair of the master and its decoded
aggregate.  Every plan passes ``check_feasible`` before it counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .evcec import Deployment, check_feasible, min_posts, objective_value, pattern_rates
from .heuristic import (
    Criterion,
    InfeasibleInstanceError,
    best_greedy,
    greedy,
    local_search,
)
from .instance import Instance
from .milp import EQ, GE, LpBasis, Model, best_first, solve_lp

RC_TOL = 1e-6        # a column must beat its convexity dual by this much
INT_TOL = 1e-6
PRICING_COLUMNS = 20  # columns a node may add per round, best first
BLOCK_BITS = 12       # free open flags enumerated together: 4096 patterns a block
MAX_FREE_FLAGS = 30   # beyond this, enumerating a node's patterns is out of reach


@dataclass(frozen=True)
class Column:
    """One in-scenario point for one node: its post counts, and its telescoped
    cost contribution.  A station is open exactly when it has a post (row
    3h), so the counts are the whole pattern."""

    node: int
    posts: tuple[int, ...]
    cost: float

    def key(self):
        return (self.node, self.posts)


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
    node_columns: dict      # n -> the node's columns the fixings allow
    lambdas: dict           # n -> their lambda values (0 while the master is infeasible)
    basis: LpBasis | None = None
    pivots: int = 0

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
                for j, p in enumerate(col.posts):
                    if p > 0:
                        xrow[j] += lam
                    prow[j] += lam * p
            xbar[n] = tuple(xrow)
            pbar[n] = tuple(prow)
        return xbar, pbar


@dataclass(frozen=True)
class Fixings:
    """Branching state: an interval (lo, hi) on the post count per (node,
    location); an absent key is (0, inf).  A station is open exactly when it
    has a post, so hi = 0 means closed and lo >= 1 means open."""

    posts: dict = field(default_factory=dict)

    def compatible(self, col: Column) -> bool:
        return all(lo <= col.posts[j] <= hi
                   for (m, j), (lo, hi) in self.posts.items() if m == col.node)

    def consistent(self) -> bool:
        return all(lo <= hi for lo, hi in self.posts.values())


@dataclass
class BranchNode:
    fixings: Fixings
    parent_bound: float
    depth: int
    basis: LpBasis | None = None   # the parent's final master basis


@dataclass(frozen=True)
class BpLimits:
    time_limit_s: float | None = None
    gap_tol: float = 1e-6
    node_limit: int | None = None
    cg_round_limit: int = 200
    root_only: bool = False

    def __post_init__(self):
        if self.cg_round_limit < 1:
            raise ValueError(f"cg_round_limit must be >= 1, got {self.cg_round_limit}")


@dataclass
class CgResult:
    status: str                 # converged | limit | infeasible
    lagrangian_lb: float        # best bound over the completed rounds
    rmp: RmpSolution | None
    new_columns: list
    iterations: list
    master_s: float = 0.0       # wall time in solve_rmp
    pricing_s: float = 0.0      # wall time in solve_pricing


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


def column_cost(coeffs: CostCoeffs, n: int, posts_row) -> float:
    return sum(
        coeffs.c1[n, j] * (1.0 if p > 0 else 0.0) + coeffs.c2[n, j] * p
        for j, p in enumerate(posts_row)
    )


def make_column(coeffs: CostCoeffs, n: int, posts_row) -> Column:
    posts_t = tuple(int(v) for v in posts_row)
    return Column(node=n, posts=posts_t, cost=column_cost(coeffs, n, posts_t))


def columns_from_deployment(inst: Instance, coeffs: CostCoeffs, dep: Deployment) -> list:
    return [make_column(coeffs, n, dep.posts[n]) for n in inst.node_ids()]


# ---------------------------------------------------------------------------
# Restricted master problem


class Master:
    """The restricted master of one branch-and-price search, built once.

    A >= linking row per (node, location) for the open flags and one for the
    post counts, and an equality convexity row per node; its only variables
    are the lambdas, one in [0, 1] per column.  With too few columns it is
    infeasible, and column generation then prices its Farkas ray.  ``add``
    appends the lambdas of new columns and never rebuilds: existing variable
    ids and any ``LpBasis`` of the master stay valid.
    """

    def __init__(self, inst: Instance, coeffs: CostCoeffs, columns=()):
        self.inst, self.coeffs = inst, coeffs
        self.model = Model("rmp")
        self.columns: list[Column] = []
        self.lam: list[int] = []       # lambda variable id of each column
        self.row_open, self.row_posts, self.row_conv = {}, {}, {}
        self._keys = set()
        for n in inst.node_ids():
            root = inst.node(n).parent is None
            for j, loc in enumerate(inst.locations):
                self.row_open[n, j] = self.model.add_constraint(
                    [], GE, float(loc.x0) if root else 0.0, name=f"link_x[{n},{j}]")
            for j, loc in enumerate(inst.locations):
                self.row_posts[n, j] = self.model.add_constraint(
                    [], GE, float(loc.y0) if root else 0.0, name=f"link_p[{n},{j}]")
        for n in inst.node_ids():
            self.row_conv[n] = self.model.add_constraint([], EQ, 1.0, name=f"conv[{n}]")
        self.model.set_objective([], offset=-coeffs.psi)
        self.add(columns)

    def _entries(self, col: Column) -> list:
        """(row, coeff) of a column's lambda: its node's rows, minus its
        pattern in the linking rows of the node's children."""
        n = col.node
        kids = self.inst.children(n)
        out = [(self.row_conv[n], 1.0)]
        for rows, row in ((self.row_open, [1.0 if p > 0 else 0.0 for p in col.posts]),
                          (self.row_posts, [float(p) for p in col.posts])):
            for j, v in enumerate(row):
                if v:
                    out.append((rows[n, j], v))
                    out += [(rows[c, j], -v) for c in kids]
        return out

    def add(self, columns) -> list:
        """Append the columns not in the master yet; returns them."""
        new = []
        for col in columns:
            if col.key() not in self._keys:
                self._keys.add(col.key())
                new.append(col)
        if new:
            self.lam += self.model.add_columns([c.cost for c in new],
                                               [self._entries(c) for c in new],
                                               0.0, 1.0)
            self.columns += new
        return new


def solve_rmp(master: Master, fixings: Fixings, basis: LpBasis | None = None) -> RmpSolution:
    """Solve the master under the branching fixings, warm-started from
    ``basis``.  A column the fixings rule out keeps its lambda at 0 through a
    bound override, so the model never changes shape for a branch.

    An infeasible master has value inf, and its duals are the kernel's Farkas
    ray: a column cuts the ray when it prices below 0 with zero column costs.
    Either way a lambda can rest at its upper bound 1 with a negative reduced
    cost; that bound is implied by the convexity row, so its dual moves onto
    sigma, and every column the fixings allow prices at >= 0 under the duals
    returned.  The shifted ray stays a certificate of infeasibility for
    lambda >= 0.
    """
    allowed = [fixings.compatible(c) for c in master.columns]
    sol = solve_lp(master.model,
                   {v: (0.0, 0.0) for v, ok in zip(master.lam, allowed) if not ok}, basis)
    y, d = sol.duals, sol.reduced_costs
    node_columns = {n: [] for n in master.inst.node_ids()}
    lambdas = {n: [] for n in master.inst.node_ids()}
    least = dict.fromkeys(master.inst.node_ids(), 0.0)
    for col, vid, ok in zip(master.columns, master.lam, allowed):
        if ok:
            node_columns[col.node].append(col)
            lambdas[col.node].append(sol.values.get(vid, 0.0))
            least[col.node] = min(least[col.node], d[vid])
    duals = RmpDuals(
        pi1={k: max(0.0, y[r]) for k, r in master.row_open.items()},
        pi2={k: max(0.0, y[r]) for k, r in master.row_posts.items()},
        sigma={n: y[r] + least[n] for n, r in master.row_conv.items()},
    )
    return RmpSolution(
        value=sol.objective,
        duals=duals,
        node_columns=node_columns,
        lambdas=lambdas,
        basis=sol.basis,
        pivots=sol.pivots,
    )


# ---------------------------------------------------------------------------
# Pricing


@dataclass
class PricingOutcome:
    columns: list               # the best columns with rc < -RC_TOL, best first
    reduced_cost: float         # least reduced cost over the node (inf if infeasible)
    status: str                 # optimal | infeasible


def solve_pricing(inst: Instance, n: int, coeffs: CostCoeffs, duals: RmpDuals,
                  fixings: Fixings, farkas: bool = False) -> PricingOutcome:
    """Price one node exactly by enumerating its free open flags x.

    For a fixed x the arrival rates are closed form (``evcec.pattern_rates``),
    and each open station takes the cheapest post count in [max(kmin, lo),
    min(m_max, hi)], with (lo, hi) its branching interval and kmin the fewest
    posts that absorb its rate (``evcec.min_posts``): the low end when a
    post's reduced cost is >= 0, else the high end.  The interval closes
    (hi = 0), opens (lo >= 1) or leaves free each flag; an empty interval or
    an uncovered zone rules x out.  Blocks of patterns run in bound order
    (the decided open flags at congestion-free cost plus the undecided ones'
    negative parts) until no block can improve the result.
    Returns the PRICING_COLUMNS best columns with rc < -RC_TOL, ties by
    pattern index.  With ``farkas`` the reduced costs take zero column costs,
    so ``duals`` can be an infeasible master's Farkas ray and the columns
    returned are those that cut it; they still carry their true costs.
    """
    nloc = inst.n_locations
    kids = inst.children(n)
    sigma = duals.sigma[n]
    weight = 0.0 if farkas else 1.0
    cx = np.array([weight * coeffs.c1[n, j] - duals.pi1[n, j]
                   + sum(duals.pi1[c, j] for c in kids) for j in range(nloc)])
    cy = np.array([weight * coeffs.c2[n, j] - duals.pi2[n, j]
                   + sum(duals.pi2[c, j] for c in kids) for j in range(nloc)])
    interval = [fixings.posts.get((n, j), (0, math.inf)) for j in range(nloc)]
    lo_fix = np.array([max(1, lo) for lo, _ in interval])
    hi_fix = np.array([min(loc.m_max, hi) for loc, (_, hi) in zip(inst.locations, interval)])
    # cheapest cost of an open station with congestion ignored; inf when its
    # interval leaves it no count
    open_cost = np.where(lo_fix > hi_fix, np.inf,
                         cx + cy * np.where(cy >= 0, lo_fix, hi_fix))
    fixed = [0 if hi == 0 else 1 if lo >= 1 else None for lo, hi in interval]
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
        rates, covered = pattern_rates(inst, n, x)
        lo = np.maximum(min_posts(inst, rates), lo_fix)
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
    columns = [make_column(coeffs, n, posts) for posts, rc in zip(best_posts, rcs)
               if rc < -RC_TOL]
    return PricingOutcome(columns, float(rcs[0]), "optimal")


# ---------------------------------------------------------------------------
# Column generation


def column_generation(master: Master, fixings: Fixings, limits: BpLimits | None = None,
                      deadline: float | None = None,
                      basis: LpBasis | None = None) -> CgResult:
    """Price-and-solve loop for one branch node on the search's master.

    The first round re-solves the master from ``basis`` (the parent node's
    final basis), each later round from the round before, after appending
    the columns pricing found.  While the master is infeasible, a round is a
    Farkas round: it prices the master's Farkas ray with zero column costs,
    adds the columns that cut it and gives no bound; when no node yields
    one, the node is infeasible.  Once the master is feasible, pricing is
    exact, so each round gives a Lagrangian bound and ``lagrangian_lb`` is
    the best of them.  The deadline is checked between node pricings; a
    round it cuts short adds no bound and no column.  Every round solves the
    master once and is logged.
    """
    inst, coeffs = master.inst, master.coeffs
    limits = limits or BpLimits()
    iterations = []
    new_columns = []
    best_lb = -math.inf
    master_s = pricing_s = 0.0
    status = "limit"
    for round_no in range(limits.cg_round_limit):
        t0 = time.perf_counter()
        rmp = solve_rmp(master, fixings, basis)
        t1 = time.perf_counter()
        basis = rmp.basis
        farkas = rmp.value == math.inf
        node_rcs = {}
        found = []
        stop = None
        for n in inst.node_ids():
            if deadline is not None and time.monotonic() > deadline:
                stop = "limit"
                break
            outcome = solve_pricing(inst, n, coeffs, rmp.duals, fixings, farkas)
            node_rcs[n] = outcome.reduced_cost
            if outcome.status == "infeasible":
                stop = "infeasible"
                break
            found += outcome.columns
        master_s += t1 - t0
        pricing_s += time.perf_counter() - t1
        added = []
        lb_round = -math.inf
        if stop is None:
            added = master.add(found)
            if not farkas:
                lb_round = rmp.value + sum(min(0.0, rc) for rc in node_rcs.values())
                best_lb = max(best_lb, lb_round)
            elif not added:
                stop = "infeasible"   # no column cuts the ray
        iterations.append(
            {
                "round": round_no,
                "rmp_value": rmp.value,
                "lagrangian_lb": lb_round,
                "columns_added": len(added),
                "pivots": rmp.pivots,
                "reduced_costs": node_rcs,
            }
        )
        new_columns += added
        if stop == "infeasible":
            return CgResult("infeasible", math.inf, None, new_columns, iterations,
                            master_s, pricing_s)
        if stop is None and not added:
            status = "converged"
        if stop or not added:
            break
    return CgResult(status, best_lb, rmp, new_columns, iterations, master_s, pricing_s)


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


def _branch(inst: Instance, fixings: Fixings, n: int, j: int, split: int):
    """Two children: posts <= split at (n, j) and its ancestors, or posts >=
    split + 1 at (n, j) and its subtree.  A child whose interval crosses is
    inconsistent and gets pruned."""
    low, high = dict(fixings.posts), dict(fixings.posts)
    for m in _ancestors_and_self(inst, n):
        lo, hi = low.get((m, j), (0, math.inf))
        low[m, j] = (lo, min(hi, split))
    for m in _subtree(inst, n):
        lo, hi = high.get((m, j), (0, math.inf))
        high[m, j] = (max(lo, split + 1), hi)
    return Fixings(low), Fixings(high)


def _select_branching(inst: Instance, rmp: RmpSolution):
    """(n, j, split): split 0 at the open flag closest to one half, else a
    fractional or mixed-support post count split at its floor or rounding;
    None when the aggregate is a pure column choice."""
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
        return (*best, 0)
    for n in inst.node_ids():
        for j in range(inst.n_locations):
            p = pbar[n][j]
            if abs(p - round(p)) > INT_TOL:
                return (n, j, int(math.floor(p)))
    for n in inst.node_ids():
        cols = rmp.node_columns[n]
        lams = rmp.lambdas[n]
        support = [c for c, l in zip(cols, lams) if l > INT_TOL]
        for j in range(inst.n_locations):
            posts = {c.posts[j] for c in support}
            if len(posts) > 1:
                return (n, j, int(round(pbar[n][j])))
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
    stats = {"branch_nodes": 0, "cg_rounds": 0, "columns": 0, "master_s": 0.0,
             "pricing_s": 0.0, "log": []}
    master = Master(inst, coeffs)

    def audited(dep: Deployment | None) -> list:
        """[(objective, plan)] for a plan that passes the audit, with its
        columns added to the master; [] otherwise."""
        if dep is None or not check_feasible(inst, dep).feasible:
            return []
        master.add(columns_from_deployment(inst, coeffs, dep))
        return [(objective_value(inst, dep), dep)]

    latest = []  # the node expanded last and its children

    def expand(bnode: BranchNode, best: float):
        # only this node and the latest children keep a basis inverse
        for other in latest:
            if other is not bnode and other.basis is not None:
                other.basis = other.basis.bare()
        latest[:] = [bnode]
        cg = column_generation(master, bnode.fixings, limits, deadline, bnode.basis)
        stats["cg_rounds"] += len(cg.iterations)
        stats["master_s"] += cg.master_s
        stats["pricing_s"] += cg.pricing_s
        stats["log"].append(
            {"branch_depth": bnode.depth,
             "fixings": sum(hi == 0 or lo >= 1 for lo, hi in bnode.fixings.posts.values()),
             "post_bounds": sum(lo > 0 or hi < inst.locations[j].m_max
                                for (_, j), (lo, hi) in bnode.fixings.posts.items()),
             "cg": cg.iterations, "status": cg.status}
        )
        if cg.status == "infeasible":
            return [], [], math.inf
        node_lb = max(bnode.parent_bound, cg.lagrangian_lb)
        if cg.status == "converged":
            node_lb = max(node_lb, cg.rmp.value)
        if node_lb >= best - 1e-9:
            return [], [], math.inf
        if cg.rmp.value == math.inf:   # a limit stopped the Farkas rounds
            return [], [], node_lb
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
        children = [(node_lb, BranchNode(fix, node_lb, bnode.depth + 1, cg.rmp.basis))
                    for fix in _branch(inst, bnode.fixings, *choice) if fix.consistent()]
        latest.extend(kid for _, kid in children)
        return children, plans, math.inf

    try:
        plans = audited(local_search(inst, best_greedy(inst)))
    except InfeasibleInstanceError:
        plans = []
    root = BranchNode(Fixings(), -math.inf, 0)
    res = best_first([(-math.inf, root)], plans, expand, deadline, limits.gap_tol,
                     limits.node_limit)
    stats["branch_nodes"] = res.nodes
    stats["columns"] = len(master.columns)
    stats["time_s"] = time.monotonic() - t0
    return BpResult(res.status, res.plan, res.objective, res.bound, res.gap, stats)
