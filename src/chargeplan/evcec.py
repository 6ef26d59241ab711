"""EVCEC: the EV charging-network expansion model with congestion rows.

Builds the exact MILP from an Instance, its partial relaxation (post-count
indicators relaxed to [0,1]), and evaluates decoded solutions: logit choice
probabilities, the expected-cost objective, and a full feasibility audit.
It is also the one evaluator of an open pattern at a node, which the greedy
and branch-and-price pricing share: ``pattern_rates`` gives the arrival rates
of many patterns at once (``station_rates`` of one), and ``min_posts`` the
fewest posts that absorb each rate.

Constraint families carry the model's row labels (3b..3m):

    3b  congestion: station arrival rate vs. threshold capacity
    3c  coverage of every zone by an open station
    3d  logit selection-probability balance
    3e/3f/3g  product linearization of z = alpha * x
    3h  one-hot post count tied to the open flag
    3i  stations never close across the tree
    3j  post counts never shrink across the tree
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .instance import (
    Instance,
    attraction_matrix,
    coverage_sets,
    instance_hash,
    rho_table_for,
)
from .milp import BINARY, CONTINUOUS, EQ, GE, INF, LE, Model

CAPACITY_TOL = 1e-6   # a rate may exceed its threshold capacity by this much (row 3b)


class CoverageError(ValueError):
    """A zone has no open covering station where one is required."""


@dataclass(frozen=True)
class Deployment:
    """Decoded plan: which locations are open and how many posts they carry,
    per scenario node (keyed by node id)."""

    open: dict
    posts: dict


@dataclass(frozen=True)
class Violation:
    family: str
    node: int
    indices: tuple
    slack: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[Violation, ...]

    def families(self) -> set[str]:
        return {v.family for v in self.violations}


def logit_probabilities(inst: Instance, open_flags, n: int, i: int) -> dict[int, float]:
    """Choice probabilities of zone i's drivers over open stations at node n.

    open_flags is the per-location open vector at node n.  Probabilities are
    proportional to exp(-a_i d(i,j)) over open in-radius stations; zero for
    closed or out-of-radius stations; they sum to one.
    """
    cov = coverage_sets(inst)
    attr = attraction_matrix(inst)
    near = cov.locs_near[n][i]
    denom = sum(attr[i][k] for k in near if open_flags[k])
    if denom <= 0.0:
        raise CoverageError(f"zone {i} has no open covering station at node {n}")
    return {j: (attr[i][j] / denom if open_flags[j] else 0.0) for j in near}


@lru_cache(maxsize=128)
def zone_arrays(inst: Instance, n: int):
    """Node n's zones by locations: coverage (0/1) and coverage-masked
    attraction, then the zone weights theta, w and bcoef.  Read-only: the
    cache hands the same arrays to every caller."""
    cov = coverage_sets(inst)
    node = inst.node(n)
    near = np.array([[j in cov.locs_near[n][i] for j in range(inst.n_locations)]
                     for i in range(inst.n_zones)], dtype=float)
    arrays = (near, near * np.array(attraction_matrix(inst)), np.array(node.theta),
              np.array(node.w), np.array(node.bcoef))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def pattern_rates(inst: Instance, n: int, x: np.ndarray):
    """Station arrival rates at node n for each row of the 0/1 matrix x
    (patterns by locations), and whether the row covers every zone (an
    uncovered row's rates mean nothing).

    lambda[j] accumulates theta_i * (w_i + bcoef_i * open_near_i) * p_ij over
    zones i near j, where p_ij is the logit share and open_near_i the number
    of open stations within zone i's radius.

    A row's rates do not depend on the rows evaluated with it: the sums of
    attractions run location by location and the rates zone by zone, in a
    fixed order, where a matrix product would pick its summation order by
    the number of rows.  (The counts open_near are small integers, exact in
    any order.)  The work runs on patterns as the last axis, so each step is
    one pass over contiguous memory.
    """
    near, attr, theta, w, bcoef = zone_arrays(inst, n)
    xt = np.ascontiguousarray(x.T)
    open_near = near @ xt
    covered = (open_near > 0).all(axis=0)
    denom = attr[:, 0, None] * xt[0]
    for j in range(1, inst.n_locations):
        denom += attr[:, j, None] * xt[j]
    denom[open_near == 0] = 1.0
    coef = (theta[:, None] * (w[:, None] + bcoef[:, None] * open_near)) / denom
    rates = attr[0, :, None] * coef[0]
    for i in range(1, inst.n_zones):
        rates += attr[i, :, None] * coef[i]
    return (rates * xt).T, covered


def station_rates(inst: Instance, open_flags, n: int) -> tuple[float, ...]:
    """All station arrival rates at node n for one open vector (see
    ``pattern_rates``); raises CoverageError when a zone has no open
    covering station."""
    x = np.array([open_flags], dtype=float)
    rates, covered = pattern_rates(inst, n, x)
    if not covered[0]:
        i = int(np.argmin(zone_arrays(inst, n)[0] @ x[0]))
        raise CoverageError(f"zone {i} has no open covering station at node {n}")
    return tuple(rates[0].tolist())


def min_posts(inst: Instance, rates) -> np.ndarray:
    """The fewest posts whose threshold capacity mu * rho_k absorbs each
    rate: the first k with mu * rho_k + CAPACITY_TOL >= rate, the rule the
    audit applies, or one more than the largest tabulated count when none
    does."""
    caps = inst.queue.mu * np.array(rho_table_for(inst).values)
    return np.searchsorted(caps + CAPACITY_TOL, rates) + 1


# ---------------------------------------------------------------------------
# Model construction


@dataclass
class EvcecModel:
    """A built expansion model plus the variable registry needed to decode it."""

    model: Model
    inst: Instance
    x: dict
    y: dict
    alpha: dict
    z: dict


def _add_scenario_rows(m: Model, inst: Instance, cov, attr, rho, n: int,
                       x: dict, y: dict, alpha: dict, z: dict) -> None:
    """Rows 3b-3h for one scenario node."""
    node = inst.node(n)
    mu = inst.queue.mu
    # 3b: congestion
    for j in range(inst.n_locations):
        terms = []
        for i in cov.zones_near[n][j]:
            terms.append((alpha[n, i, j], node.theta[i] * node.w[i]))
            for k in cov.locs_near[n][i]:
                terms.append((z[n, i, j, k], node.theta[i] * node.bcoef[i]))
        for k in range(1, inst.locations[j].m_max + 1):
            terms.append((y[n, j, k], -mu * rho.cap(k)))
        m.add_constraint(terms, LE, 0.0, name=f"3b[{n},{j}]")
    # 3c: coverage
    for i in range(inst.n_zones):
        m.add_constraint(
            [(x[n, k], 1.0) for k in sorted(cov.locs_near[n][i])], GE, 1.0,
            name=f"3c[{n},{i}]",
        )
    # 3d-3g: logit balance and linearization
    for i in range(inst.n_zones):
        near = sorted(cov.locs_near[n][i])
        for j in near:
            m.add_constraint(
                [(z[n, i, j, k], attr[i][k]) for k in near] + [(x[n, j], -attr[i][j])],
                EQ, 0.0, name=f"3d[{n},{i},{j}]",
            )
            for k in near:
                m.add_constraint([(z[n, i, j, k], 1.0), (x[n, k], -1.0)], LE, 0.0,
                                 name=f"3e[{n},{i},{j},{k}]")
                m.add_constraint([(z[n, i, j, k], 1.0), (alpha[n, i, j], -1.0)], LE, 0.0,
                                 name=f"3f[{n},{i},{j},{k}]")
                m.add_constraint(
                    [(z[n, i, j, k], 1.0), (alpha[n, i, j], -1.0), (x[n, k], -1.0)],
                    GE, -1.0, name=f"3g[{n},{i},{j},{k}]",
                )
    # 3h: one-hot post count iff open
    for j in range(inst.n_locations):
        m.add_constraint(
            [(y[n, j, k], 1.0) for k in range(1, inst.locations[j].m_max + 1)]
            + [(x[n, j], -1.0)],
            EQ, 0.0, name=f"3h[{n},{j}]",
        )


def _make_scenario_vars(m: Model, inst: Instance, cov, n: int, y_kind: str,
                        x: dict, y: dict, alpha: dict, z: dict) -> None:
    for j in range(inst.n_locations):
        x[n, j] = m.add_binary(name=f"x[{n},{j}]")
    for j in range(inst.n_locations):
        for k in range(1, inst.locations[j].m_max + 1):
            y[n, j, k] = m.add_var(y_kind, 0.0, 1.0, name=f"y[{n},{j},{k}]")
    for i in range(inst.n_zones):
        near = sorted(cov.locs_near[n][i])
        for j in near:
            alpha[n, i, j] = m.add_var(CONTINUOUS, 0.0, 1.0, name=f"al[{n},{i},{j}]")
        for j in near:
            for k in near:
                z[n, i, j, k] = m.add_var(CONTINUOUS, 0.0, INF, name=f"z[{n},{i},{j},{k}]")


def build_evcec(inst: Instance, relax_y: bool = False) -> EvcecModel:
    """The full multistage model; ``relax_y=True`` builds the partial relaxation
    (continuous post indicators, binary open flags)."""
    cov = coverage_sets(inst)
    attr = attraction_matrix(inst)
    rho = rho_table_for(inst)
    y_kind = CONTINUOUS if relax_y else BINARY
    m = Model("revcec" if relax_y else "evcec")
    x: dict = {}
    y: dict = {}
    alpha: dict = {}
    z: dict = {}
    for n in inst.node_ids():
        _make_scenario_vars(m, inst, cov, n, y_kind, x, y, alpha, z)
    for n in inst.node_ids():
        _add_scenario_rows(m, inst, cov, attr, rho, n, x, y, alpha, z)

    # 3i/3j: monotone growth along the tree; the pre-decision state enters as
    # constants on the root
    for n in inst.node_ids():
        node = inst.node(n)
        for j in range(inst.n_locations):
            mj = inst.locations[j].m_max
            if node.parent is None:
                if inst.locations[j].x0:
                    m.add_constraint([(x[n, j], 1.0)], GE, 1.0, name=f"3i[{n},{j}]")
                if inst.locations[j].y0 > 0:
                    m.add_constraint(
                        [(y[n, j, k], float(k)) for k in range(1, mj + 1)],
                        GE, float(inst.locations[j].y0), name=f"3j[{n},{j}]",
                    )
            else:
                a = node.parent
                m.add_constraint([(x[a, j], 1.0), (x[n, j], -1.0)], LE, 0.0,
                                 name=f"3i[{n},{j}]")
                m.add_constraint(
                    [(y[a, j, k], float(k)) for k in range(1, mj + 1)]
                    + [(y[n, j, k], -float(k)) for k in range(1, mj + 1)],
                    LE, 0.0, name=f"3j[{n},{j}]",
                )

    obj: dict[int, float] = {}
    offset = 0.0
    for n in inst.node_ids():
        node = inst.node(n)
        for j in range(inst.n_locations):
            mj = inst.locations[j].m_max
            obj[x[n, j]] = obj.get(x[n, j], 0.0) + node.prob * (
                node.cost_build[j] + node.cost_op_station[j]
            )
            for k in range(1, mj + 1):
                obj[y[n, j, k]] = obj.get(y[n, j, k], 0.0) + node.prob * k * (
                    node.cost_post[j] + node.cost_op_post[j]
                )
            if node.parent is None:
                if inst.locations[j].x0:
                    offset -= node.prob * node.cost_build[j]
                offset -= node.prob * node.cost_post[j] * inst.locations[j].y0
            else:
                a = node.parent
                obj[x[a, j]] = obj.get(x[a, j], 0.0) - node.prob * node.cost_build[j]
                for k in range(1, mj + 1):
                    obj[y[a, j, k]] = obj.get(y[a, j, k], 0.0) - node.prob * k * node.cost_post[j]
    m.set_objective(list(obj.items()), offset=offset)
    return EvcecModel(model=m, inst=inst, x=x, y=y, alpha=alpha, z=z)


def build_revcec(inst: Instance) -> EvcecModel:
    """Partial relaxation: post indicators continuous, open flags stay binary."""
    return build_evcec(inst, relax_y=True)


def decode_deployment(em: EvcecModel, values: dict) -> Deployment:
    """Deployment from a solved model's variable values (integral in x and y)."""
    inst = em.inst
    open_map = {}
    posts_map = {}
    for n in inst.node_ids():
        open_row = tuple(values[em.x[n, j]] > 0.5 for j in range(inst.n_locations))
        posts_row = []
        for j in range(inst.n_locations):
            mj = inst.locations[j].m_max
            total = sum(k * values[em.y[n, j, k]] for k in range(1, mj + 1))
            posts_row.append(int(round(total)) if open_row[j] else 0)
        open_map[n] = open_row
        posts_map[n] = tuple(posts_row)
    return Deployment(open=open_map, posts=posts_map)


def encode_deployment(em: EvcecModel, dep: Deployment) -> dict:
    """Binary variable assignment reproducing the deployment (x and one-hot y)."""
    values = {}
    inst = em.inst
    for n in inst.node_ids():
        for j in range(inst.n_locations):
            values[em.x[n, j]] = 1.0 if dep.open[n][j] else 0.0
            for k in range(1, inst.locations[j].m_max + 1):
                values[em.y[n, j, k]] = 1.0 if dep.posts[n][j] == k else 0.0
    return values


def objective_value(inst: Instance, dep: Deployment) -> float:
    """Expected total cost of a deployment: build and operate stations and posts,
    with the pre-decision state as the baseline."""
    total = 0.0
    for n in inst.node_ids():
        node = inst.node(n)
        for j in range(inst.n_locations):
            if node.parent is None:
                prev_x = 1.0 if inst.locations[j].x0 else 0.0
                prev_p = float(inst.locations[j].y0)
            else:
                prev_x = 1.0 if dep.open[node.parent][j] else 0.0
                prev_p = float(dep.posts[node.parent][j])
            cur_x = 1.0 if dep.open[n][j] else 0.0
            cur_p = float(dep.posts[n][j])
            total += node.prob * (
                node.cost_build[j] * (cur_x - prev_x)
                + node.cost_post[j] * (cur_p - prev_p)
                + node.cost_op_station[j] * cur_x
                + node.cost_op_post[j] * cur_p
            )
    return total


def check_feasible(inst: Instance, dep: Deployment,
                   tol: float = CAPACITY_TOL) -> FeasibilityReport:
    """Audit a deployment against every constraint family on closed formulas.

    The logit balance and linearization rows (3d-3g) hold identically once
    probabilities are computed from the open pattern; they are re-verified
    numerically as a guard and reported under their family if broken.
    """
    cov = coverage_sets(inst)
    attr = attraction_matrix(inst)
    rho = rho_table_for(inst)
    mu = inst.queue.mu
    violations = []

    for n in inst.node_ids():
        node = inst.node(n)
        open_row = dep.open[n]
        posts_row = dep.posts[n]
        for j in range(inst.n_locations):
            mj = inst.locations[j].m_max
            if open_row[j] != (posts_row[j] >= 1):
                violations.append(Violation("3h", n, (j,), float(posts_row[j])))
            if posts_row[j] > mj:
                violations.append(Violation("3l", n, (j,), float(posts_row[j] - mj)))
            if node.parent is None:
                if inst.locations[j].x0 and not open_row[j]:
                    violations.append(Violation("3i", n, (j,), 1.0))
                if posts_row[j] < inst.locations[j].y0:
                    violations.append(
                        Violation("3j", n, (j,), float(inst.locations[j].y0 - posts_row[j]))
                    )
            else:
                if dep.open[node.parent][j] and not open_row[j]:
                    violations.append(Violation("3i", n, (j,), 1.0))
                if dep.posts[node.parent][j] > posts_row[j]:
                    violations.append(
                        Violation("3j", n, (j,),
                                  float(dep.posts[node.parent][j] - posts_row[j]))
                    )
        covered = True
        for i in range(inst.n_zones):
            if not any(open_row[k] for k in cov.locs_near[n][i]):
                violations.append(Violation("3c", n, (i,), 1.0))
                covered = False
        if not covered:
            continue  # arrival rates are undefined without full coverage
        rates = station_rates(inst, open_row, n)
        for j in range(inst.n_locations):
            cap = mu * rho.cap(min(posts_row[j], len(rho)))
            if rates[j] > cap + tol:
                violations.append(Violation("3b", n, (j,), rates[j] - cap))
        # linearization identities under closed formulas
        for i in range(inst.n_zones):
            shares = logit_probabilities(inst, open_row, n, i)
            near = cov.locs_near[n][i]
            for j in near:
                lhs = sum(attr[i][k] * shares[j] * (1.0 if open_row[k] else 0.0)
                          for k in near)
                rhs = attr[i][j] * (1.0 if open_row[j] else 0.0)
                if abs(lhs - rhs) > 1e-9:
                    violations.append(Violation("3d", n, (i, j), abs(lhs - rhs)))

    return FeasibilityReport(feasible=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Solution files


def save_solution(path, inst: Instance, dep: Deployment, algorithm: str,
                  seed: int | None = None, objective: float | None = None,
                  extra: dict | None = None) -> None:
    doc = {
        "algorithm": algorithm,
        "seed": seed,
        "instance_hash": instance_hash(inst),
        "objective": objective_value(inst, dep) if objective is None else objective,
        "open": {str(n): [1 if v else 0 for v in dep.open[n]] for n in dep.open},
        "posts": {str(n): list(dep.posts[n]) for n in dep.posts},
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_solution(path):
    """Returns (Deployment, metadata dict)."""
    with open(path) as fh:
        doc = json.load(fh)
    open_map = {int(n): tuple(bool(v) for v in row) for n, row in doc["open"].items()}
    posts_map = {int(n): tuple(int(v) for v in row) for n, row in doc["posts"].items()}
    meta = {k: v for k, v in doc.items() if k not in ("open", "posts")}
    return Deployment(open=open_map, posts=posts_map), meta
