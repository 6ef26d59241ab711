"""Independent reference computations for the solver benchmark.

Nothing here calls a chargeplan solver, audit or queueing function: every
number is recomputed from the instance's raw data (zones, locations,
distances, scenario tree, queue parameters).

* ``service_capacity`` inverts the M/M/s service level P(N <= s+b) >= alpha
  by bisection on the offered load, from the textbook state probabilities.
* ``audit`` checks a plan against every model rule: coverage, capacity,
  stations never close, posts never shrink, post caps, and the pre-decision
  state x0/y0.
* ``plan_cost`` recomputes the expected cost of a plan.
* ``optimum`` solves an instance exactly by enumerating every tree-monotone
  open pattern and sizing posts with a per-location dynamic programme over
  the tree.  It is exponential in the number of locations and meant for the
  ``tiny`` preset only.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

_CAP_TOL = 1e-9  # relative slack on the capacity test, far below data noise


def _p_at_most(load: float, servers: int, extra: int) -> float:
    """P(N <= servers + extra) for an M/M/servers queue at offered load < servers."""
    term = 1.0  # load**n / n!, ending at n = servers
    head = 1.0  # sum of load**n / n! over n <= servers
    for n in range(1, servers + 1):
        term *= load / n
        head += term
    util = load / servers
    waiting = term * util * (1.0 - util**extra) / (1.0 - util)  # servers < n <= servers+extra
    total = head - term + term / (1.0 - util)
    return (head + waiting) / total


@lru_cache(maxsize=None)
def service_capacity(servers: int, extra: int, alpha: float) -> float:
    """Largest offered load (arrival rate over service rate) at which a station
    with ``servers`` posts keeps P(N <= servers + extra) >= alpha."""
    lo, hi = 0.0, float(servers)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _p_at_most(mid, servers, extra) >= alpha:
            lo = mid
        else:
            hi = mid
    return lo


def _near(inst, n: int, i: int) -> tuple[int, ...]:
    node = inst.tree[n - 1]
    return tuple(j for j in range(len(inst.locations)) if inst.dist[i][j] <= node.radius[i])


def arrival_rates(inst, n: int, open_row) -> list[float] | None:
    """Logit arrival rate at every location of node n; None if a zone is uncovered."""
    node = inst.tree[n - 1]
    rates = [0.0] * len(inst.locations)
    for i, zone in enumerate(inst.zones):
        served = [j for j in _near(inst, n, i) if open_row[j]]
        if not served:
            return None
        weight = {j: math.exp(-zone.a * inst.dist[i][j]) for j in served}
        total = sum(weight.values())
        for j in served:
            share = weight[j] / total
            rates[j] += node.theta[i] * share * (node.w[i] + node.bcoef[i] * len(served))
    return rates


def _fits(inst, rate: float, posts: int) -> bool:
    q = inst.queue
    cap = q.mu * service_capacity(posts, q.b, q.alpha)
    return rate <= cap * (1.0 + _CAP_TOL)


def _min_posts(inst, rate: float, m_max: int) -> int | None:
    for k in range(1, m_max + 1):
        if _fits(inst, rate, k):
            return k
    return None


def audit(inst, plan) -> list[str]:
    """Every rule the plan breaks, as readable strings; empty when feasible."""
    problems = []
    node_ids = [node.id for node in inst.tree]
    if sorted(plan.open) != node_ids or sorted(plan.posts) != node_ids:
        return [f"plan covers nodes {sorted(plan.open)}, instance has {node_ids}"]
    for node in inst.tree:
        n = node.id
        open_row, posts_row = plan.open[n], plan.posts[n]
        for j, loc in enumerate(inst.locations):
            if bool(open_row[j]) != (posts_row[j] >= 1):
                problems.append(f"node {n} loc {j}: open={open_row[j]} with {posts_row[j]} posts")
            if posts_row[j] > loc.m_max:
                problems.append(f"node {n} loc {j}: {posts_row[j]} posts over cap {loc.m_max}")
            if node.parent is None:
                prev_open, prev_posts = loc.x0, loc.y0
            else:
                prev_open = plan.open[node.parent][j]
                prev_posts = plan.posts[node.parent][j]
            if prev_open and not open_row[j]:
                problems.append(f"node {n} loc {j}: station closes")
            if posts_row[j] < prev_posts:
                problems.append(f"node {n} loc {j}: posts shrink {prev_posts} -> {posts_row[j]}")
        rates = arrival_rates(inst, n, open_row)
        if rates is None:
            problems.append(f"node {n}: a zone has no open station within its radius")
            continue
        for j in range(len(inst.locations)):
            if posts_row[j] >= 1 and not _fits(inst, rates[j], posts_row[j]):
                problems.append(f"node {n} loc {j}: rate {rates[j]:.6g} over {posts_row[j]} posts")
    return problems


def plan_cost(inst, plan) -> float:
    """Expected build and operating cost, with the pre-decision state as baseline."""
    total = 0.0
    for node in inst.tree:
        for j, loc in enumerate(inst.locations):
            if node.parent is None:
                prev_open, prev_posts = float(loc.x0), float(loc.y0)
            else:
                prev_open = float(plan.open[node.parent][j])
                prev_posts = float(plan.posts[node.parent][j])
            cur_open, cur_posts = float(plan.open[node.id][j]), float(plan.posts[node.id][j])
            total += node.prob * (
                node.cost_build[j] * (cur_open - prev_open)
                + node.cost_post[j] * (cur_posts - prev_posts)
                + node.cost_op_station[j] * cur_open
                + node.cost_op_post[j] * cur_posts
            )
    return total


def _open_patterns(inst):
    """Every assignment node -> open set that never closes a station."""
    nloc = len(inst.locations)
    initial = frozenset(j for j, loc in enumerate(inst.locations) if loc.x0)

    def supersets(base):
        free = [j for j in range(nloc) if j not in base]
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                yield base | frozenset(extra)

    def extend(idx, chosen):
        if idx == len(inst.tree):
            yield dict(chosen)
            return
        node = inst.tree[idx]
        base = initial if node.parent is None else chosen[node.parent]
        for s in supersets(base):
            chosen[node.id] = s
            yield from extend(idx + 1, chosen)
        chosen.pop(node.id, None)

    yield from extend(0, {})


def _post_cost(inst, j: int, lo: dict, children: dict) -> float:
    """Cheapest non-shrinking post profile for location j given per-node floors
    (0 where closed, None where no post count absorbs the demand)."""
    loc = inst.locations[j]

    def choices(n):
        return [0] if lo[n] == 0 else range(lo[n], loc.m_max + 1)

    best: dict = {}
    for node in reversed(inst.tree):
        n = node.id
        table = {}
        for p in choices(n):
            cost = node.prob * (node.cost_post[j] + node.cost_op_post[j]) * p
            for c in children[n]:
                child = inst.tree[c - 1]
                tail = [v for q, v in best[c].items() if q >= p]
                if not tail:
                    cost = math.inf
                    break
                cost += min(tail) - child.prob * child.cost_post[j] * p
            table[p] = cost
        best[n] = table
    root = inst.tree[0]
    tail = [v for q, v in best[root.id].items() if q >= loc.y0]
    if not tail:
        return math.inf
    return min(tail) - root.prob * root.cost_post[j] * loc.y0


def optimum(inst) -> float:
    """Exact optimal expected cost by enumeration; inf when no plan is feasible."""
    children = {node.id: [] for node in inst.tree}
    for node in inst.tree:
        if node.parent is not None:
            children[node.parent].append(node.id)
    floors: dict = {}  # (node, open set) -> per-location post floor, or None

    def floor_of(n, open_set):
        key = (n, open_set)
        if key not in floors:
            open_row = [j in open_set for j in range(len(inst.locations))]
            rates = arrival_rates(inst, n, open_row)
            if rates is None:
                floors[key] = None
            else:
                row = []
                for j, loc in enumerate(inst.locations):
                    k = _min_posts(inst, rates[j], loc.m_max) if open_row[j] else 0
                    if k is None:
                        row = None
                        break
                    row.append(k)
                floors[key] = row
        return floors[key]

    best = math.inf
    for pattern in _open_patterns(inst):
        rows = {n: floor_of(n, s) for n, s in pattern.items()}
        if any(r is None for r in rows.values()):
            continue
        cost = 0.0
        for node in inst.tree:
            for j, loc in enumerate(inst.locations):
                cur = float(j in pattern[node.id])
                prev = float(loc.x0) if node.parent is None else float(j in pattern[node.parent])
                cost += node.prob * (node.cost_build[j] * (cur - prev)
                                     + node.cost_op_station[j] * cur)
        for j in range(len(inst.locations)):
            cost += _post_cost(inst, j, {n: rows[n][j] for n in rows}, children)
            if cost >= best:
                break
        best = min(best, cost)
    return best
