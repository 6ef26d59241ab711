"""Branch-and-price on the scenario-tree decomposition.

The expansion model splits cleanly: the rows linking a node to its parent
(stations never close, posts never shrink) form the master problem, and
everything else is node-local, so each scenario node prices its own columns
(in-scenario feasible open/posts patterns).  The master holds one convexity
row per node and the linking rows; its objective uses telescoped cost
coefficients so that summing chosen column costs minus the initial-state
rebate reproduces the original expected cost exactly.

Pricing is solved sequentially down the tree: a node whose parent just priced
a fresh column is restricted to extend that column (open everything the
parent opened, at no fewer posts).  Such guided rounds converge fast but may
overestimate the per-round Lagrangian bound, so bounds used for pruning are
taken only from rounds where no guidance fired; the terminating round (no
column added anywhere) is always guidance-free, which makes the final bound
exact.

Branching fixes original variables: first open flags (most fractional
aggregate), then aggregated post counts when the open pattern is integral but
post profiles still mix.  Fixings propagate along the tree through the
monotonicity rows and are enforced inside pricing, so the pricing structure
never changes shape.

The tree search is ``milp.best_first``, the same search branch and bound
uses; ``branch_and_price`` only supplies the node expansion.  A master bound
holds only while pricing is exact, so a node whose column generation stops at
a limit without branching (or a root-only cut) hands its last certified
bound to the search as the floor of its unsearched subtree.  Plans come from
one source: the greedy plus local search at the start, and at each node the
primal repair of the master and its decoded aggregate.  Every plan passes
``check_feasible`` before it counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .evcec import (
    Deployment,
    _add_scenario_rows,
    _make_scenario_vars,
    check_feasible,
    objective_value,
)
from .heuristic import (
    Criterion,
    InfeasibleInstanceError,
    best_greedy,
    greedy,
    local_search,
)
from .instance import Instance, attraction_matrix, coverage_sets, rho_table_for
from .milp import BINARY, EQ, GE, LE, MipLimits, Model, best_first, solve_lp, solve_mip

PENALTY_COST = 1e7   # linking-row slack and artificial-column price
RC_TOL = 1e-6        # a column must beat its convexity dual by this much
INT_TOL = 1e-6


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
    lagrangian_lb: float
    exact_lb: float             # best bound from guidance-free rounds
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
    column: Column | None
    reduced_cost: float         # incumbent objective minus convexity dual
    rc_bound: float             # valid lower bound on the true reduced cost
    status: str                 # optimal | infeasible | limit


def solve_pricing(inst: Instance, n: int, coeffs: CostCoeffs, duals: RmpDuals,
                  guidance: Column | None, fixings: Fixings,
                  limits: MipLimits | None = None) -> PricingOutcome:
    """Price one node: minimize the reduced-cost objective over the node's
    in-scenario constraints, honoring branch fixings and (optionally) the
    parent's fresh column as a lower-bound guide."""
    cov = coverage_sets(inst)
    attr = attraction_matrix(inst)
    rho = rho_table_for(inst)
    kids = inst.children(n)

    m = Model(f"pricing[{n}]")
    x: dict = {}
    y: dict = {}
    alpha: dict = {}
    z: dict = {}
    _make_scenario_vars(m, inst, cov, n, BINARY, x, y, alpha, z)
    _add_scenario_rows(m, inst, cov, attr, rho, n, x, y, alpha, z)

    for j in range(inst.n_locations):
        fx = fixings.x_fix.get((n, j))
        if fx is not None:
            m.add_constraint([(x[n, j], 1.0)], EQ, float(fx), name=f"fix_x[{j}]")
        lo = fixings.post_lo.get((n, j))
        hi = fixings.post_hi.get((n, j))
        mj = inst.locations[j].m_max
        weight = [(y[n, j, k], float(k)) for k in range(1, mj + 1)]
        if lo is not None and lo >= 1:
            m.add_constraint(weight, GE, float(lo), name=f"fix_plo[{j}]")
        if hi is not None and hi < mj:
            m.add_constraint(weight, LE, float(hi), name=f"fix_phi[{j}]")
        if guidance is not None and guidance.open[j]:
            m.add_constraint([(x[n, j], 1.0)], EQ, 1.0, name=f"guide_x[{j}]")
            if guidance.posts[j] >= 1:
                m.add_constraint(weight, GE, float(guidance.posts[j]), name=f"guide_p[{j}]")

    obj = []
    for j in range(inst.n_locations):
        cx = coeffs.c1[n, j] - duals.pi1[n, j] + sum(duals.pi1[c, j] for c in kids)
        cy = coeffs.c2[n, j] - duals.pi2[n, j] + sum(duals.pi2[c, j] for c in kids)
        obj.append((x[n, j], cx))
        for k in range(1, inst.locations[j].m_max + 1):
            obj.append((y[n, j, k], cy * k))
    m.set_objective(obj)

    sol = solve_mip(m, limits or MipLimits(gap_tol=1e-9))
    sigma = duals.sigma[n]
    if sol.status == "infeasible":
        return PricingOutcome(None, math.inf, math.inf, "infeasible")
    if not sol.values:
        return PricingOutcome(None, math.inf, sol.bound - sigma, "limit")
    open_row = tuple(sol.values[x[n, j]] > 0.5 for j in range(inst.n_locations))
    posts_row = tuple(
        int(round(sum(k * sol.values[y[n, j, k]]
                      for k in range(1, inst.locations[j].m_max + 1))))
        for j in range(inst.n_locations)
    )
    col = make_column(coeffs, n, open_row, posts_row)
    rc = sol.objective - sigma
    rc_bound = sol.bound - sigma
    status = "optimal" if sol.status == "optimal" else "limit"
    return PricingOutcome(col if rc < -RC_TOL else None, rc, rc_bound, status)


# ---------------------------------------------------------------------------
# Column generation


def column_generation(inst: Instance, coeffs: CostCoeffs, pool: list,
                      fixings: Fixings, limits: BpLimits | None = None,
                      deadline: float | None = None) -> CgResult:
    """Price-and-solve loop for one branch node.

    Pricing runs in topological node order; a node receives its parent's
    column from the *same* round as guidance.  The round that adds no column
    anywhere is necessarily guidance-free, so convergence certifies the bound.
    """
    limits = limits or BpLimits()
    parent_of = {node.id: node.parent for node in inst.tree}
    iterations = []
    new_columns = []
    seen = {c.key() for c in pool}
    exact_lb = -math.inf
    rmp = None

    for round_no in range(limits.cg_round_limit):
        rmp = solve_rmp(inst, coeffs, pool, fixings)
        fresh: dict[int, Column] = {}
        added = []
        rc_terms = []
        node_rcs = {}
        guided_round = False
        all_optimal = True
        for n in inst.node_ids():
            guidance = fresh.get(parent_of[n])
            if guidance is not None:
                guided_round = True
            remaining = None
            if deadline is not None:
                remaining = max(0.5, deadline - time.monotonic())
            outcome = solve_pricing(
                inst, n, coeffs, rmp.duals, guidance, fixings,
                MipLimits(gap_tol=1e-9, time_limit_s=remaining),
            )
            if outcome.status == "infeasible":
                if guidance is None:
                    return CgResult("infeasible", math.inf, math.inf, math.inf,
                                    None, None, new_columns, iterations)
                node_rcs[n] = None  # guided restriction infeasible, no information
                all_optimal = False
                continue
            if outcome.status != "optimal":
                all_optimal = False
            node_rcs[n] = outcome.reduced_cost
            rc_terms.append(min(0.0, outcome.rc_bound))
            if outcome.column is not None and outcome.column.key() not in seen:
                seen.add(outcome.column.key())
                added.append(outcome.column)
                fresh[n] = outcome.column
        lb_round = rmp.value + sum(rc_terms) if len(rc_terms) == len(inst.tree) else -math.inf
        exact_round = (not guided_round) and all_optimal and len(rc_terms) == len(inst.tree)
        if exact_round:
            exact_lb = max(exact_lb, lb_round)
        iterations.append(
            {
                "round": round_no,
                "rmp_value": rmp.value,
                "lagrangian_lb": lb_round,
                "exact": exact_round,
                "columns_added": len(added),
                "penalty": rmp.penalty,
                "reduced_costs": node_rcs,
            }
        )
        if not added:
            if all_optimal:
                return CgResult("converged", rmp.value, lb_round, exact_lb,
                                rmp.duals, rmp, new_columns, iterations)
            return CgResult("limit", rmp.value, exact_lb, exact_lb,
                            rmp.duals, rmp, new_columns, iterations)
        pool.extend(added)
        new_columns.extend(added)
        if deadline is not None and time.monotonic() > deadline:
            rmp = solve_rmp(inst, coeffs, pool, fixings)
            return CgResult("limit", rmp.value, exact_lb, exact_lb,
                            rmp.duals, rmp, new_columns, iterations)
    rmp = solve_rmp(inst, coeffs, pool, fixings)
    return CgResult("limit", rmp.value, exact_lb, exact_lb,
                    rmp.duals, rmp, new_columns, iterations)


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
        node_lb = max(bnode.parent_bound, cg.exact_lb)
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
