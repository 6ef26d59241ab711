"""Problem data model: zones, candidate locations, scenario tree, and file I/O.

An Instance is immutable and hashable, so derived structures (coverage sets,
attraction matrix) are cached per instance.  The canonical file format is a
single JSON document, described in the README; ``load`` validates every model
invariant and reports all violations at once.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache

from .queueing import QueueConfig, QueueDomainError, rho_alpha_table


class InstanceError(ValueError):
    """Instance data violates a model invariant; carries one message per problem."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class InstanceFormatError(ValueError):
    """Instance file is structurally malformed (missing/ill-typed fields)."""


@dataclass(frozen=True)
class Zone:
    id: int
    a: float  # distance-decay coefficient of the attraction exp(-a*d)


@dataclass(frozen=True)
class Location:
    id: int
    m_max: int          # hard cap on posts at this location
    x0: bool            # station already present before the first decision
    y0: int             # posts already installed


@dataclass(frozen=True)
class ScenarioNode:
    """One uncertainty node; ids are 1-based, the root is 1 and its parent is the
    virtual initial state 0 (stored as None)."""

    id: int
    parent: int | None
    prob: float
    w: tuple[float, ...]        # per zone: base charging demand rate
    bcoef: tuple[float, ...]    # per zone: open-facility influence coefficient
    theta: tuple[float, ...]    # per zone: coverage target weight
    radius: tuple[float, ...]   # per zone: coverage radius
    cost_build: tuple[float, ...]       # per location
    cost_post: tuple[float, ...]
    cost_op_station: tuple[float, ...]
    cost_op_post: tuple[float, ...]


@dataclass(frozen=True)
class Instance:
    zones: tuple[Zone, ...]
    locations: tuple[Location, ...]
    dist: tuple[tuple[float, ...], ...]   # zones x locations
    tree: tuple[ScenarioNode, ...]
    queue: QueueConfig

    @property
    def n_zones(self) -> int:
        return len(self.zones)

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    def node(self, node_id: int) -> ScenarioNode:
        return self.tree[node_id - 1]

    def node_ids(self) -> tuple[int, ...]:
        """Topological order; parents precede children by the id convention."""
        return tuple(n.id for n in self.tree)

    def children(self, node_id: int) -> tuple[int, ...]:
        return _children_map(self)[node_id]

    def max_posts(self) -> int:
        return max(loc.m_max for loc in self.locations)

    def __hash__(self) -> int:
        # every field is deeply immutable, so hash once per object: the
        # lru_cache'd helpers below are looked up with the instance as key
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.zones, self.locations, self.dist, self.tree, self.queue))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        # a hash is only valid in the process that computed it (hash(None),
        # the root's parent, is not fixed across processes before Python 3.12)
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class CoverageSets:
    """zones_near[n][j] = zones whose radius reaches location j at node n;
    locs_near[n][i] = locations within zone i's radius at node n."""

    zones_near: dict
    locs_near: dict


@lru_cache(maxsize=128)
def _children_map(inst: Instance) -> dict:
    kids = {n.id: [] for n in inst.tree}
    for n in inst.tree:
        if n.parent is not None:
            kids[n.parent].append(n.id)
    return {k: tuple(v) for k, v in kids.items()}


@lru_cache(maxsize=128)
def coverage_sets(inst: Instance) -> CoverageSets:
    """Coverage membership by the inclusive rule d(i,j) <= radius(n,i)."""
    zones_near = {}
    locs_near = {}
    for node in inst.tree:
        zn = {j: set() for j in range(inst.n_locations)}
        ln = {i: set() for i in range(inst.n_zones)}
        for i in range(inst.n_zones):
            r = node.radius[i]
            for j in range(inst.n_locations):
                if inst.dist[i][j] <= r:
                    zn[j].add(i)
                    ln[i].add(j)
        zones_near[node.id] = {j: frozenset(s) for j, s in zn.items()}
        locs_near[node.id] = {i: frozenset(s) for i, s in ln.items()}
    return CoverageSets(zones_near=zones_near, locs_near=locs_near)


def attraction(inst: Instance, i: int, j: int) -> float:
    """exp(-a_i * d(i,j)), in (0, 1]."""
    return math.exp(-inst.zones[i].a * inst.dist[i][j])


@lru_cache(maxsize=128)
def attraction_matrix(inst: Instance) -> tuple[tuple[float, ...], ...]:
    return tuple(
        tuple(attraction(inst, i, j) for j in range(inst.n_locations))
        for i in range(inst.n_zones)
    )


@lru_cache(maxsize=128)
def rho_table_for(inst: Instance):
    """Utilisation thresholds up to the largest post cap in the instance."""
    return rho_alpha_table(inst.max_posts(), inst.queue.b, inst.queue.alpha)


def validate(inst: Instance) -> None:
    """Raise InstanceError listing every violated invariant."""
    problems = []
    for z in inst.zones:
        if z.a <= 0:
            problems.append(f"zone {z.id}: decay coefficient a must be positive, got {z.a}")
    for loc in inst.locations:
        if loc.m_max < 1:
            problems.append(f"location {loc.id}: m_max must be >= 1, got {loc.m_max}")
        if not 0 <= loc.y0 <= loc.m_max:
            problems.append(f"location {loc.id}: y0={loc.y0} outside [0, m_max={loc.m_max}]")
        if loc.y0 > 0 and not loc.x0:
            problems.append(f"location {loc.id}: has initial posts but no initial station")
    if [z.id for z in inst.zones] != list(range(inst.n_zones)):
        problems.append("zone ids must be contiguous from 0")
    if [l.id for l in inst.locations] != list(range(inst.n_locations)):
        problems.append("location ids must be contiguous from 0")
    if len(inst.dist) != inst.n_zones or any(len(row) != inst.n_locations for row in inst.dist):
        problems.append("dist must be a zones x locations matrix")
    else:
        for i, row in enumerate(inst.dist):
            for j, d in enumerate(row):
                if d < 0:
                    problems.append(f"dist[{i}][{j}] is negative")

    if not inst.tree:
        problems.append("scenario tree is empty")
        raise InstanceError(problems)
    if [n.id for n in inst.tree] != list(range(1, len(inst.tree) + 1)):
        problems.append("node ids must be contiguous from 1 in topological order")
        raise InstanceError(problems)
    if inst.tree[0].parent is not None:
        problems.append("node 1 must be the root (parent is the initial state)")
    for n in inst.tree[1:]:
        if n.parent is None:
            problems.append(f"node {n.id}: only node 1 may be the root")
        elif not 1 <= n.parent < n.id:
            problems.append(f"node {n.id}: parent {n.parent} must be an earlier node id")
    if abs(inst.tree[0].prob - 1.0) > 1e-9:
        problems.append(f"root probability must be 1, got {inst.tree[0].prob}")
    kids = {n.id: [] for n in inst.tree}
    for n in inst.tree[1:]:
        if n.parent in kids:
            kids[n.parent].append(n)
    for n in inst.tree:
        if not 0 < n.prob <= 1.0 + 1e-12:
            problems.append(f"node {n.id}: probability {n.prob} outside (0, 1]")
        if kids[n.id]:
            mass = sum(c.prob for c in kids[n.id])
            if abs(mass - n.prob) > 1e-9:
                problems.append(
                    f"node {n.id}: children probabilities sum to {mass}, expected {n.prob}"
                )
        for name, arr in (("w", n.w), ("bcoef", n.bcoef), ("theta", n.theta), ("radius", n.radius)):
            if len(arr) != inst.n_zones:
                problems.append(f"node {n.id}: {name} must have one entry per zone")
        for name, arr in (
            ("cost_build", n.cost_build),
            ("cost_post", n.cost_post),
            ("cost_op_station", n.cost_op_station),
            ("cost_op_post", n.cost_op_post),
        ):
            if len(arr) != inst.n_locations:
                problems.append(f"node {n.id}: {name} must have one entry per location")
            elif any(c < 0 for c in arr):
                problems.append(f"node {n.id}: {name} entries must be nonnegative")
        if len(n.w) == inst.n_zones:
            for i in range(inst.n_zones):
                if n.w[i] < 0:
                    problems.append(f"node {n.id}: w[{i}] negative")
                if n.bcoef[i] < 0:
                    problems.append(f"node {n.id}: bcoef[{i}] negative")
                if not 0 <= n.theta[i] <= 1:
                    problems.append(f"node {n.id}: theta[{i}] outside [0,1]")
                if n.radius[i] <= 0:
                    problems.append(f"node {n.id}: radius[{i}] must be positive")

    if not problems:
        cov = coverage_sets(inst)
        for node in inst.tree:
            for i in range(inst.n_zones):
                if not cov.locs_near[node.id][i]:
                    problems.append(
                        f"zone {i} has no candidate location within radius at node "
                        f"{node.id}: the coverage constraint (family 3c) is infeasible"
                    )
    if problems:
        raise InstanceError(problems)


# ---------------------------------------------------------------------------
# Randomized generator


@dataclass(frozen=True)
class GenParams:
    """Knobs for the randomized instance generator.  ``n_nodes`` wins over the
    (tree_depth, branching) pair when both are given; with only depth/branching
    the tree is uniform with (branching**depth - 1) / (branching - 1) nodes."""

    n_zones: int = 10
    n_locations: int = 15
    n_nodes: int | None = 8
    tree_depth: int = 3
    branching: int = 2
    m_max: int = 10
    area: float = 10.0
    init_station_frac: float = 0.15
    w_range: tuple[float, float] = (2.0, 6.0)
    growth_range: tuple[float, float] = (1.0, 1.35)
    bcoef_range: tuple[float, float] = (0.05, 0.30)
    theta_range: tuple[float, float] = (0.6, 1.0)
    radius_range: tuple[float, float] = (3.0, 5.0)
    cost_build_range: tuple[float, float] = (800.0, 1600.0)
    cost_post_range: tuple[float, float] = (80.0, 200.0)
    cost_op_station_range: tuple[float, float] = (60.0, 140.0)
    cost_op_post_range: tuple[float, float] = (8.0, 20.0)
    target_load: float = 0.9   # peak all-open station load as a fraction of capacity
    mu: float = 4.0
    alpha: float = 0.9
    b: int = 0


PRESETS = {
    # benchmark-scale trees
    "small": GenParams(n_zones=10, n_locations=15, n_nodes=8),
    "medium": GenParams(n_zones=10, n_locations=25, n_nodes=16),
    # desk-scale tree for exact-oracle comparisons
    "tiny": GenParams(
        n_zones=4,
        n_locations=4,
        n_nodes=3,
        m_max=3,
        area=8.0,
        radius_range=(3.5, 5.0),
        w_range=(1.0, 3.0),
        mu=2.0,
    ),
}


def _build_tree_shape(params: GenParams) -> list[int | None]:
    """Parent list (index = node id - 1) filled level by level."""
    if params.n_nodes is not None:
        count = params.n_nodes
    else:
        bf, d = params.branching, params.tree_depth
        count = d if bf == 1 else (bf**d - 1) // (bf - 1)
    if count < 1:
        raise InstanceError(["tree must have at least one node"])
    parents: list[int | None] = [None]
    frontier = [1]
    next_id = 2
    while next_id <= count:
        new_frontier = []
        for p in frontier:
            for _ in range(params.branching):
                if next_id > count:
                    break
                parents.append(p)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier or frontier
    return parents


def generate(params: GenParams, seed: int) -> Instance:
    """Deterministic randomized instance; same (params, seed) gives identical data.

    Post-processing guarantees feasibility: zone radii are enlarged to reach at
    least one candidate location, and demand is rescaled so that the fully
    built network absorbs the peak station load with a margin.
    """
    if params.n_zones < 1 or params.n_locations < 1:
        raise InstanceError(["need at least one zone and one location"])
    rng = random.Random(seed)

    zpos = [(rng.uniform(0, params.area), rng.uniform(0, params.area))
            for _ in range(params.n_zones)]
    lpos = [(rng.uniform(0, params.area), rng.uniform(0, params.area))
            for _ in range(params.n_locations)]
    zones = tuple(Zone(id=i, a=rng.uniform(0.1, 0.3)) for i in range(params.n_zones))

    n_init = int(round(params.init_station_frac * params.n_locations))
    init_ids = set(rng.sample(range(params.n_locations), n_init)) if n_init else set()
    locations = tuple(
        Location(id=j, m_max=params.m_max, x0=j in init_ids, y0=1 if j in init_ids else 0)
        for j in range(params.n_locations)
    )
    dist = tuple(
        tuple(math.dist(zpos[i], lpos[j]) for j in range(params.n_locations))
        for i in range(params.n_zones)
    )

    parents = _build_tree_shape(params)
    count = len(parents)
    kids: dict[int, list[int]] = {nid: [] for nid in range(1, count + 1)}
    for nid in range(2, count + 1):
        kids[parents[nid - 1]].append(nid)
    probs = {1: 1.0}
    for nid in range(1, count + 1):
        for c in kids[nid]:
            probs[c] = probs[nid] / len(kids[nid])

    nodes = []
    w_by_node: dict[int, list[float]] = {}
    for nid in range(1, count + 1):
        par = parents[nid - 1]
        if par is None:
            w = [rng.uniform(*params.w_range) for _ in range(params.n_zones)]
        else:
            w = [base * rng.uniform(*params.growth_range) for base in w_by_node[par]]
        w_by_node[nid] = w
        radius = []
        for i in range(params.n_zones):
            r = rng.uniform(*params.radius_range)
            nearest = min(dist[i])
            if r < nearest:
                r = nearest * 1.001  # guarantee at least one covering candidate
            radius.append(r)
        nodes.append(
            ScenarioNode(
                id=nid,
                parent=par,
                prob=probs[nid],
                w=tuple(w),
                bcoef=tuple(rng.uniform(*params.bcoef_range) for _ in range(params.n_zones)),
                theta=tuple(rng.uniform(*params.theta_range) for _ in range(params.n_zones)),
                radius=tuple(radius),
                cost_build=tuple(rng.uniform(*params.cost_build_range)
                                 for _ in range(params.n_locations)),
                cost_post=tuple(rng.uniform(*params.cost_post_range)
                                for _ in range(params.n_locations)),
                cost_op_station=tuple(rng.uniform(*params.cost_op_station_range)
                                      for _ in range(params.n_locations)),
                cost_op_post=tuple(rng.uniform(*params.cost_op_post_range)
                                   for _ in range(params.n_locations)),
            )
        )

    inst = Instance(
        zones=zones,
        locations=locations,
        dist=dist,
        tree=tuple(nodes),
        queue=QueueConfig(mu=params.mu, alpha=params.alpha, b=params.b),
    )
    inst = _rescale_demand(inst, params.target_load)
    validate(inst)
    return inst


def _all_open_peak_ratio(inst: Instance) -> float:
    """Max over stations of (arrival rate with every location open) / capacity."""
    cov = coverage_sets(inst)
    attr = attraction_matrix(inst)
    table = rho_table_for(inst)
    worst = 0.0
    for node in inst.tree:
        for j in range(inst.n_locations):
            lam = 0.0
            for i in cov.zones_near[node.id][j]:
                near = cov.locs_near[node.id][i]
                denom = sum(attr[i][k] for k in near)
                share = attr[i][j] / denom
                lam += node.theta[i] * (node.w[i] * share + node.bcoef[i] * share * len(near))
            cap = inst.queue.mu * table.cap(inst.locations[j].m_max)
            worst = max(worst, lam / cap)
    return worst


def _rescale_demand(inst: Instance, target_load: float) -> Instance:
    ratio = _all_open_peak_ratio(inst)
    if ratio <= 0:
        return inst
    scale = target_load / ratio
    new_nodes = tuple(
        replace(
            n,
            w=tuple(v * scale for v in n.w),
            bcoef=tuple(v * scale for v in n.bcoef),
        )
        for n in inst.tree
    )
    return replace(inst, tree=new_nodes)


def with_queue(inst: Instance, mu: float | None = None, alpha: float | None = None,
               b: int | None = None) -> Instance:
    """Copy of the instance with selected queue parameters replaced."""
    cfg = inst.queue
    return replace(
        inst,
        queue=QueueConfig(
            mu=cfg.mu if mu is None else mu,
            alpha=cfg.alpha if alpha is None else alpha,
            b=cfg.b if b is None else b,
        ),
    )


# ---------------------------------------------------------------------------
# Canonical file format


def _to_dict(inst: Instance) -> dict:
    return {
        "zones": [{"id": z.id, "a": z.a} for z in inst.zones],
        "locations": [
            {"id": l.id, "m_max": l.m_max, "x0": l.x0, "y0": l.y0} for l in inst.locations
        ],
        "dist": [list(row) for row in inst.dist],
        "tree": [
            {
                "id": n.id,
                "parent": 0 if n.parent is None else n.parent,
                "prob": n.prob,
                "w": list(n.w),
                "bcoef": list(n.bcoef),
                "theta": list(n.theta),
                "radius": list(n.radius),
                "cost_build": list(n.cost_build),
                "cost_post": list(n.cost_post),
                "cost_op_station": list(n.cost_op_station),
                "cost_op_post": list(n.cost_op_post),
            }
            for n in inst.tree
        ],
        "queue": {"mu": inst.queue.mu, "alpha": inst.queue.alpha, "b": inst.queue.b},
    }


def save(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(_to_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _require(mapping, key, kind, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise InstanceFormatError(f"missing field '{where}.{key}'" if where else
                                  f"missing field '{key}'")
    val = mapping[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise InstanceFormatError(f"field '{where}.{key}' must be a number")
        return float(val)
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise InstanceFormatError(f"field '{where}.{key}' must be an integer")
        return val
    if kind is bool:
        if not isinstance(val, bool):
            raise InstanceFormatError(f"field '{where}.{key}' must be a boolean")
        return val
    if kind is list:
        if not isinstance(val, list):
            raise InstanceFormatError(f"field '{where}.{key}' must be a list")
        return val
    raise AssertionError(kind)


def _float_list(mapping, key, where):
    raw = _require(mapping, key, list, where)
    out = []
    for idx, v in enumerate(raw):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InstanceFormatError(f"field '{where}.{key}[{idx}]' must be a number")
        out.append(float(v))
    return tuple(out)


def load(path) -> Instance:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be an object")

    zones = tuple(
        Zone(id=_require(z, "id", int, f"zones[{idx}]"),
             a=_require(z, "a", float, f"zones[{idx}]"))
        for idx, z in enumerate(_require(doc, "zones", list, ""))
    )
    locations = tuple(
        Location(
            id=_require(l, "id", int, f"locations[{idx}]"),
            m_max=_require(l, "m_max", int, f"locations[{idx}]"),
            x0=_require(l, "x0", bool, f"locations[{idx}]"),
            y0=_require(l, "y0", int, f"locations[{idx}]"),
        )
        for idx, l in enumerate(_require(doc, "locations", list, ""))
    )
    dist_raw = _require(doc, "dist", list, "")
    dist = tuple(
        tuple(
            float(v) if isinstance(v, (int, float)) and not isinstance(v, bool)
            else _bad_dist(i, jdx)
            for jdx, v in enumerate(row)
        )
        for i, row in enumerate(dist_raw)
    )
    nodes = []
    for idx, nd in enumerate(_require(doc, "tree", list, "")):
        where = f"tree[{idx}]"
        parent = _require(nd, "parent", int, where)
        nodes.append(
            ScenarioNode(
                id=_require(nd, "id", int, where),
                parent=None if parent == 0 else parent,
                prob=_require(nd, "prob", float, where),
                w=_float_list(nd, "w", where),
                bcoef=_float_list(nd, "bcoef", where),
                theta=_float_list(nd, "theta", where),
                radius=_float_list(nd, "radius", where),
                cost_build=_float_list(nd, "cost_build", where),
                cost_post=_float_list(nd, "cost_post", where),
                cost_op_station=_float_list(nd, "cost_op_station", where),
                cost_op_post=_float_list(nd, "cost_op_post", where),
            )
        )
    queue_raw = doc.get("queue")
    if not isinstance(queue_raw, dict):
        raise InstanceFormatError("missing field 'queue'")
    try:
        queue = QueueConfig(
            mu=_require(queue_raw, "mu", float, "queue"),
            alpha=_require(queue_raw, "alpha", float, "queue"),
            b=_require(queue_raw, "b", int, "queue"),
        )
    except QueueDomainError as exc:
        raise InstanceError([f"queue: {exc}"]) from exc
    inst = Instance(zones=zones, locations=locations, dist=dist, tree=tuple(nodes), queue=queue)
    validate(inst)
    return inst


def _bad_dist(i, j):
    raise InstanceFormatError(f"field 'dist[{i}][{j}]' must be a number")


def instance_hash(inst: Instance) -> str:
    """Stable content hash used as solution-file provenance."""
    import hashlib  # loads OpenSSL (about 3.5 MB resident): only solution files need it

    blob = json.dumps(_to_dict(inst), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
