import dataclasses
import itertools
import math
import random
import time

import pytest

from chargeplan import bp, milp
from chargeplan.bp import (
    PRICING_COLUMNS,
    RC_TOL,
    BpLimits,
    Column,
    CostCoeffs,
    Fixings,
    Master,
    RmpDuals,
    RmpSolution,
    branch_and_price,
    column_cost,
    column_generation,
    columns_from_deployment,
    cost_coefficients,
    make_column,
    primal_repair,
    solve_pricing,
    solve_rmp,
)
from chargeplan.evcec import (
    Deployment,
    _add_scenario_rows,
    _make_scenario_vars,
    build_evcec,
    check_feasible,
    decode_deployment,
    objective_value,
    station_rates,
)
from chargeplan.heuristic import best_greedy, local_search
from chargeplan.instance import (
    Instance,
    Location,
    PRESETS,
    ScenarioNode,
    Zone,
    attraction_matrix,
    coverage_sets,
    generate,
    rho_table_for,
    with_queue,
)
from chargeplan.milp import BINARY, GE, LE, MipLimits, Model, solve_mip
from chargeplan.queueing import QueueConfig
from chargeplan.report import render_cg_log

from test_evcec import hand_instance
from test_heuristic import posts_by_loop
from test_milp import record_runs


def chain_instance(costs=1.0, n_locations=1, w=0.5, m_max=1):
    """Two-node path with unit probabilities and uniform costs."""
    nodes = []
    for nid in (1, 2):
        nodes.append(
            ScenarioNode(
                id=nid, parent=None if nid == 1 else 1, prob=1.0,
                w=(w,), bcoef=(0.1,), theta=(1.0,), radius=(10.0,),
                cost_build=(costs,) * n_locations,
                cost_post=(costs,) * n_locations,
                cost_op_station=(costs,) * n_locations,
                cost_op_post=(costs,) * n_locations,
            )
        )
    return Instance(
        zones=(Zone(id=0, a=1.0),),
        locations=tuple(
            Location(id=j, m_max=m_max, x0=False, y0=0) for j in range(n_locations)
        ),
        dist=(tuple(0.5 for _ in range(n_locations)),),
        tree=tuple(nodes),
        queue=QueueConfig(mu=4.0, alpha=0.9, b=0),
    )


def linking_infeasible_chain():
    """Two nodes that each have plans, joined infeasibly: the root's zone is
    covered only by the one-post location, which must stay open at the
    child, where its share of the child's larger demand overflows it."""
    def node(nid, parent, radius, w):
        return ScenarioNode(id=nid, parent=parent, prob=1.0, w=(w,), bcoef=(0.2,), theta=(1.0,),
                            radius=(radius,), cost_build=(10.0, 10.0), cost_post=(1.0, 1.0),
                            cost_op_station=(1.0, 1.0), cost_op_post=(1.0, 1.0))

    return Instance(
        zones=(Zone(id=0, a=0.5),),
        locations=(Location(id=0, m_max=1, x0=False, y0=0),
                   Location(id=1, m_max=6, x0=False, y0=0)),
        dist=((1.0, 3.0),),
        tree=(node(1, None, 2.0, 0.5), node(2, 1, 4.0, 3.0)),
        queue=QueueConfig(mu=4.0, alpha=0.9, b=0),
    )


def random_monotone_deployment(inst, rng):
    open_prev = [loc.x0 for loc in inst.locations]
    posts_prev = [loc.y0 for loc in inst.locations]
    open_map, posts_map = {}, {}
    for n in inst.node_ids():
        open_n = [open_prev[j] or rng.random() < 0.45 for j in range(inst.n_locations)]
        posts_n = [
            0 if not open_n[j]
            else rng.randint(max(1, posts_prev[j]), inst.locations[j].m_max)
            for j in range(inst.n_locations)
        ]
        open_map[n] = tuple(open_n)
        posts_map[n] = tuple(posts_n)
        open_prev, posts_prev = open_n, posts_n
    return Deployment(open=open_map, posts=posts_map)


def enumerate_scenario_points(inst, n):
    """Brute-force oracle: every in-scenario feasible (open, posts) pair."""
    cov = coverage_sets(inst)
    nloc = inst.n_locations
    points = []
    for mask in itertools.product((False, True), repeat=nloc):
        covered = all(
            any(mask[k] for k in cov.locs_near[n][i]) for i in range(inst.n_zones)
        )
        if not covered:
            continue
        rates = station_rates(inst, mask, n)
        ranges = []
        feasible = True
        for j in range(nloc):
            if not mask[j]:
                ranges.append((0,))
                continue
            mj = inst.locations[j].m_max
            kmin = posts_by_loop(inst, rates[j], mj, 0)
            if kmin is None:
                feasible = False
                break
            ranges.append(tuple(range(kmin, mj + 1)))
        if not feasible:
            continue
        for posts in itertools.product(*ranges):
            points.append((mask, posts))
    return points


def pricing_costs(inst, n, coeffs, duals):
    """Reduced cost per open flag and per post at node n."""
    kids = inst.children(n)
    cx = [coeffs.c1[n, j] - duals.pi1[n, j] + sum(duals.pi1[c, j] for c in kids)
          for j in range(inst.n_locations)]
    cy = [coeffs.c2[n, j] - duals.pi2[n, j] + sum(duals.pi2[c, j] for c in kids)
          for j in range(inst.n_locations)]
    return cx, cy


def pricing_mip(inst, n, coeffs, duals, fixings):
    """MILP oracle: the single-node reduced-cost model under the fixings.  Only
    the post count is bounded: row 3h ties the open flag to it."""
    cov = coverage_sets(inst)
    m = Model(f"pricing[{n}]")
    x, y, alpha, z = {}, {}, {}, {}
    _make_scenario_vars(m, inst, cov, n, BINARY, x, y, alpha, z)
    _add_scenario_rows(m, inst, cov, attraction_matrix(inst), rho_table_for(inst), n,
                       x, y, alpha, z)
    cx, cy = pricing_costs(inst, n, coeffs, duals)
    obj = []
    for j, loc in enumerate(inst.locations):
        weight = [(y[n, j, k], float(k)) for k in range(1, loc.m_max + 1)]
        lo, hi = fixings.posts.get((n, j), (0, math.inf))
        if lo > 0:
            m.add_constraint(weight, GE, float(lo))
        if hi < math.inf:
            m.add_constraint(weight, LE, float(hi))
        obj.append((x[n, j], cx[j]))
        obj += [(v, cy[j] * c) for v, c in weight]
    m.set_objective(obj)
    return solve_mip(m, MipLimits(gap_tol=1e-9))


def random_duals(inst, coeffs, rng):
    scale = max(abs(v) for v in list(coeffs.c1.values()) + list(coeffs.c2.values()))
    keys = [(n, j) for n in inst.node_ids() for j in range(inst.n_locations)]
    return RmpDuals(
        pi1={k: rng.uniform(0.0, scale) for k in keys},
        pi2={k: rng.uniform(0.0, 0.2 * scale) for k in keys},
        sigma={n: rng.uniform(-2.0 * scale, 6.0 * scale) for n in inst.node_ids()},
    )


def random_fixings(inst, n, rng):
    """Fixings at node n of the kinds branching makes: closed, open with a
    post floor, or a post ceiling."""
    posts = {}
    for j, loc in enumerate(inst.locations):
        r = rng.random()
        if r < 0.1:
            posts[n, j] = (0, 0)
        elif r < 0.25:
            posts[n, j] = (rng.randint(1, loc.m_max), math.inf)
        elif r < 0.35:
            posts[n, j] = (0, rng.randint(1, loc.m_max))
    fixings = Fixings(posts)
    assert fixings.consistent()
    return fixings


def slice_violations(inst, n, col):
    """Rows 3b/3c/3h (and the post cap) the column breaks as node n's slice,
    audited with no tolerance."""
    dep = Deployment(open=dict.fromkeys(inst.node_ids(), tuple(p > 0 for p in col.posts)),
                     posts=dict.fromkeys(inst.node_ids(), col.posts))
    return [v for v in check_feasible(inst, dep, tol=0.0).violations
            if v.node == n and v.family in ("3b", "3c", "3h", "3l")]


def check_pricing_against_oracles(inst, n, coeffs, duals, fixings, points=None):
    """solve_pricing against the MILP oracle and, given the node's scenario
    points, the brute-force one; every column must pass the slice audit."""
    out = solve_pricing(inst, n, coeffs, duals, fixings)
    sigma = duals.sigma[n]
    mip = pricing_mip(inst, n, coeffs, duals, fixings)
    if mip.status == "infeasible":
        assert out.status == "infeasible" and not out.columns
        return out
    assert mip.status == "optimal"
    assert out.status == "optimal"
    assert out.reduced_cost == pytest.approx(mip.objective - sigma, rel=1e-9, abs=1e-6)
    cx, cy = pricing_costs(inst, n, coeffs, duals)

    def rc(posts):
        return sum(cx[j] * (posts[j] > 0) + cy[j] * posts[j] for j in range(len(posts))) - sigma

    if points is not None:
        best = {}
        for mask, posts in points:
            if fixings.compatible(make_column(coeffs, n, posts)):
                best[mask] = min(best.get(mask, math.inf), rc(posts))
        ranked = sorted(best.values())
        assert out.reduced_cost == pytest.approx(ranked[0], rel=1e-9, abs=1e-6)
        wanted = [v for v in ranked if v < -RC_TOL][:PRICING_COLUMNS]
        got = [rc(c.posts) for c in out.columns]
        assert got == pytest.approx(wanted, rel=1e-9, abs=1e-6)
    assert len(out.columns) <= PRICING_COLUMNS
    # one column per open pattern: the cheapest post vector of each
    assert len({tuple(p > 0 for p in c.posts) for c in out.columns}) == len(out.columns)
    for col in out.columns:
        assert col.node == n and fixings.compatible(col)
        assert rc(col.posts) < -RC_TOL
        assert not slice_violations(inst, n, col)
    return out


class TestCostCoeffs:
    def test_leaf_node_no_rebate(self):
        inst = generate(PRESETS["tiny"], 0)
        coeffs = cost_coefficients(inst)
        leaf = max(inst.node_ids())
        assert not inst.children(leaf)
        node = inst.node(leaf)
        for j in range(inst.n_locations):
            expect = node.prob * (node.cost_build[j] + node.cost_op_station[j])
            assert coeffs.c1[leaf, j] == pytest.approx(expect, rel=1e-12)

    def test_psi_zero_without_initial_state(self):
        inst = chain_instance()
        assert cost_coefficients(inst).psi == 0.0

    def test_two_node_chain_unit_costs(self):
        # c1[root] = 1*(1+1) - 1*1 = 1 with unit costs and probabilities
        inst = chain_instance(costs=1.0)
        coeffs = cost_coefficients(inst)
        assert coeffs.c1[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert coeffs.c2[1, 0] == pytest.approx(1.0, abs=1e-12)
        # leaf pays full freight
        assert coeffs.c1[2, 0] == pytest.approx(2.0, abs=1e-12)

    def test_telescoping_identity_many_deployments(self):
        rng = random.Random(77)
        for seed in (0, 3, 8):
            inst = generate(PRESETS["tiny"], seed)
            coeffs = cost_coefficients(inst)
            for _ in range(17):
                dep = random_monotone_deployment(inst, rng)
                total = sum(c.cost for c in columns_from_deployment(inst, coeffs, dep))
                assert total - coeffs.psi == pytest.approx(
                    objective_value(inst, dep), rel=1e-9, abs=1e-6
                )


class TestRmp:
    def test_single_node_picks_cheaper_column(self):
        inst = hand_instance(m_max=2)
        coeffs = cost_coefficients(inst)
        cheap = make_column(coeffs, 1, (1,))
        dear = make_column(coeffs, 1, (2,))
        rmp = solve_rmp(Master(inst, coeffs, [dear, cheap]), Fixings())
        assert rmp.value == pytest.approx(cheap.cost - coeffs.psi, rel=1e-9)

    def test_columns_violating_fixings_filtered(self):
        inst = hand_instance(n_locations=2, dist=((0.5, 0.6),), m_max=2)
        coeffs = cost_coefficients(inst)
        col_a = make_column(coeffs, 1, (1, 0))
        col_b = make_column(coeffs, 1, (0, 1))
        fixings = Fixings({(1, 0): (0, 0)})
        master = Master(inst, coeffs, [col_a, col_b])
        rmp = solve_rmp(master, fixings)
        assert rmp.node_columns[1] == [col_b] and rmp.lambdas[1] == [pytest.approx(1.0)]
        # the column is held at 0 by a bound, not dropped from the master
        assert master.columns == [col_a, col_b]
        assert solve_rmp(master, Fixings()).node_columns[1] == [col_a, col_b]

    def test_emptied_pool_gives_a_farkas_ray(self):
        # fixings that rule out every column of a node leave the master
        # infeasible; its ray certifies that, and column generation either
        # restores feasibility with the columns that cut the ray (a second
        # location remains) or proves the node infeasible (none does)
        for n_locations, dist, status in ((2, ((0.5, 0.6),), "converged"),
                                          (1, None, "infeasible")):
            inst = hand_instance(n_locations=n_locations, dist=dist, m_max=1)
            coeffs = cost_coefficients(inst)
            posts = (1,) + (0,) * (n_locations - 1)
            master = Master(inst, coeffs, [make_column(coeffs, 1, posts)])
            fixings = Fixings({(1, 0): (0, 0)})
            rmp = solve_rmp(master, fixings)
            assert rmp.node_columns[1] == [] and rmp.value == math.inf
            assert_ray_certifies(master, fixings, rmp)
            cg = column_generation(master, fixings)
            assert cg.status == status
            assert cg.iterations[0]["rmp_value"] == math.inf
            assert cg.iterations[0]["lagrangian_lb"] == -math.inf
            if status == "converged":
                assert all(fixings.compatible(c) for c in cg.new_columns)
                assert cg.rmp.value < math.inf and cg.lagrangian_lb > -math.inf
            assert master.model.num_vars == len(master.columns)

    def test_value_nonincreasing_as_columns_arrive(self):
        inst = generate(PRESETS["tiny"], 9)
        coeffs = cost_coefficients(inst)
        dep = best_greedy(inst)
        pool = columns_from_deployment(inst, coeffs, dep)
        master = Master(inst, coeffs, pool)
        first = solve_rmp(master, Fixings())
        better = local_search(inst, dep)
        master.add(columns_from_deployment(inst, coeffs, better))
        v1, v2 = first.value, solve_rmp(master, Fixings(), first.basis).value
        assert v2 <= v1 + 1e-7

    def test_linking_duals_nonnegative(self):
        inst = generate(PRESETS["tiny"], 4)
        coeffs = cost_coefficients(inst)
        pool = columns_from_deployment(inst, coeffs, best_greedy(inst))
        rmp = solve_rmp(Master(inst, coeffs, pool), Fixings())
        assert all(v >= 0.0 for v in rmp.duals.pi1.values())
        assert all(v >= 0.0 for v in rmp.duals.pi2.values())


def reduced_cost(inst, col, duals, cost=None):
    """A column's reduced cost under master duals, from its pattern alone;
    ``cost`` replaces the column's own cost (0 prices a Farkas ray)."""
    n = col.node
    rc = (col.cost if cost is None else cost) - duals.sigma[n]
    for j, p in enumerate(col.posts):
        rc -= duals.pi1[n, j] * (p > 0) + duals.pi2[n, j] * p
        for c in inst.children(n):
            rc += duals.pi1[c, j] * (p > 0) + duals.pi2[c, j] * p
    return rc


def assert_ray_certifies(master, fixings, rmp):
    """An infeasible master's duals are a Farkas ray y for lambda >= 0: y.b
    is clearly positive (at least 0.5 on these integral rows) and no column
    the fixings allow prices below 0 with zero column costs, so no lambda >=
    0 meets the rows."""
    inst, duals = master.inst, rmp.duals
    yb = sum(duals.sigma.values()) + sum(
        duals.pi1[root, j] * loc.x0 + duals.pi2[root, j] * loc.y0
        for root in inst.node_ids() if inst.node(root).parent is None
        for j, loc in enumerate(inst.locations))
    assert yb >= 0.5
    for col in master.columns:
        if fixings.compatible(col):
            assert reduced_cost(inst, col, duals, cost=0.0) >= -1e-12


class TestPersistentMaster:
    def test_matches_cold_master_every_round_and_branch(self, monkeypatch):
        # the one master, grown round by round and re-solved warm under
        # bound-override fixings, against a master built cold from the same
        # compatible columns, through column generation along random
        # branching sequences that start from the parent's final basis; a
        # branch often leaves the master infeasible, and then both rays must
        # certify it
        solve = bp.solve_rmp
        checked = branched = infeasible = 0

        def differential(master, fixings, basis=None):
            nonlocal checked, branched, infeasible
            rmp = solve(master, fixings, basis)
            allowed = [c for c in master.columns if fixings.compatible(c)]
            cold_master = Master(master.inst, master.coeffs, allowed)
            cold = solve(cold_master, fixings)
            assert [c.key() for cols in rmp.node_columns.values() for c in cols] == \
                [c.key() for n in master.inst.node_ids() for c in allowed if c.node == n]
            if rmp.value == math.inf:
                # an infeasible master: both rays certify it
                assert cold.value == math.inf
                assert_ray_certifies(master, fixings, rmp)
                assert_ray_certifies(cold_master, fixings, cold)
                infeasible += 1
            else:
                assert rmp.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
                for col in allowed:
                    assert reduced_cost(master.inst, col, rmp.duals) >= -1e-6
            checked += 1
            branched += bool(fixings.posts)
            return rmp

        monkeypatch.setattr(bp, "solve_rmp", differential)
        rng = random.Random(11)
        for seed, b in ((3, 0), (10, 1), (5, 2), (9, 2), (0, 1), (13, 0), (46, 0), (7, 2),
                        (1, 1), (2, 0), (4, 2), (6, 1)):
            inst = with_queue(generate(PRESETS["tiny"], seed), b=b)
            coeffs = cost_coefficients(inst)
            master = Master(inst, coeffs, columns_from_deployment(
                inst, coeffs, local_search(inst, best_greedy(inst))))
            fixings, basis = Fixings(), None
            for _depth in range(6):
                cg = column_generation(master, fixings, basis=basis)
                if cg.status == "infeasible":
                    break
                n, j = rng.choice(inst.node_ids()), rng.randrange(inst.n_locations)
                # split 0 is the open-flag branch
                split = 0 if rng.random() < 0.5 else rng.randint(0, inst.locations[j].m_max - 1)
                kids = [k for k in bp._branch(inst, fixings, n, j, split) if k.consistent()]
                if not kids:
                    break
                fixings, basis = rng.choice(kids), cg.rmp.basis
        assert checked >= 50 and branched >= 30 and infeasible >= 10

    def test_real_stalls_keep_the_root_master(self, monkeypatch):
        # with a stall threshold of one degenerate pivot, the detector fires
        # in the master LPs of root column generations on a wider tree (7
        # locations, 7 nodes); the 30 tiny roots no longer stall since warm
        # starts carry the basis inverse.  Every root still converges to the
        # same LP value.
        def root_value(inst):
            coeffs = cost_coefficients(inst)
            master = Master(inst, coeffs, columns_from_deployment(inst, coeffs, best_greedy(inst)))
            return column_generation(master, Fixings()).rmp.value

        wider = dataclasses.replace(PRESETS["tiny"], n_zones=6, n_locations=7, n_nodes=7)
        insts = [with_queue(generate(PRESETS["tiny"], seed), b=b)
                 for seed in range(10) for b in range(3)]
        insts += [with_queue(generate(wider, seed), b=b) for seed in range(4) for b in range(3)]
        expected = [root_value(inst) for inst in insts]
        monkeypatch.setattr(milp, "_STALL_PIVOTS", 1)
        statuses = record_runs(monkeypatch)
        stalled = []
        for inst, ref in zip(insts, expected):
            statuses.clear()
            assert root_value(inst) == pytest.approx(ref, rel=1e-9)
            stalled.append("stalled" in statuses)
        assert sum(stalled[30:]) >= 6

    def test_call_counts_match_stats(self, monkeypatch):
        # the traced benchmark wraps bp.solve_rmp and bp.column_generation by
        # name and checks their calls against these two counters
        calls = dict.fromkeys(("solve_rmp", "column_generation"), 0)
        for name in calls:
            def counted(*args, _fn=getattr(bp, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(bp, name, counted)
        for seed, b, limits in ((3, 0, BpLimits()), (10, 1, BpLimits()),
                                (0, 2, BpLimits(cg_round_limit=1))):
            calls.update(dict.fromkeys(calls, 0))
            res = branch_and_price(with_queue(generate(PRESETS["tiny"], seed), b=b), limits)
            assert calls["solve_rmp"] == res.stats["cg_rounds"], (seed, b)
            assert calls["column_generation"] == res.stats["branch_nodes"], (seed, b)
            assert res.stats["cg_rounds"] == sum(len(e["cg"]) for e in res.stats["log"])
        assert res.stats["branch_nodes"] >= 1

    def test_round_cut_by_the_deadline_is_logged_without_bound(self):
        inst = generate(PRESETS["tiny"], 4)
        coeffs = cost_coefficients(inst)
        master = Master(inst, coeffs, columns_from_deployment(inst, coeffs, best_greedy(inst)))
        before = len(master.columns)
        res = column_generation(master, Fixings(), deadline=time.monotonic() - 1.0)
        assert res.status == "limit" and res.lagrangian_lb == -math.inf
        assert len(res.iterations) == 1 and res.iterations[0]["lagrangian_lb"] == -math.inf
        assert not res.new_columns and len(master.columns) == before

    def test_round_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="cg_round_limit"):
            BpLimits(cg_round_limit=0)

    def test_log_carries_pivots_and_layer_times(self):
        inst = generate(PRESETS["tiny"], 3)
        res = branch_and_price(inst)
        rounds = [rec for entry in res.stats["log"] for rec in entry["cg"]]
        assert all(isinstance(rec["pivots"], int) and rec["pivots"] >= 0 for rec in rounds)
        assert any(rec["pivots"] > 0 for rec in rounds)
        assert 0.0 < res.stats["master_s"] and 0.0 < res.stats["pricing_s"]
        assert res.stats["master_s"] + res.stats["pricing_s"] <= res.stats["time_s"]
        again = branch_and_price(inst)
        assert render_cg_log(again.stats) == render_cg_log(res.stats)


def monotone_assignments(inst, j):
    """Every post count per node at location j that never shrinks from a node
    to its children, as dicts node -> posts."""
    out = [{}]
    for n in inst.node_ids():
        parent = inst.node(n).parent
        out = [{**a, n: k} for a in out
               for k in range(0 if parent is None else a[parent], inst.locations[j].m_max + 1)]
    return out


def allows(fixings, j, assignment):
    return all(lo <= k <= hi for n, k in assignment.items()
               for lo, hi in [fixings.posts.get((n, j), (0, math.inf))])


class TestBranching:
    def test_children_split_the_plan_space(self):
        # at consistent fixings reached by random branching, every split of
        # every (node, location): each never-shrinking post assignment the
        # parent allows is allowed by exactly one child, no child loosens a
        # parent bound, and other locations are left alone
        rng = random.Random(5)
        checked = 0
        for seed in range(4):
            inst = generate(PRESETS["tiny"], seed)
            plans = {j: monotone_assignments(inst, j) for j in range(inst.n_locations)}
            fixings = Fixings()
            for _depth in range(8):
                assert fixings.consistent()
                for n, j in itertools.product(inst.node_ids(), range(inst.n_locations)):
                    for split in range(inst.locations[j].m_max):
                        kids = bp._branch(inst, fixings, n, j, split)
                        assert len(kids) == 2
                        for kid in kids:
                            for key, (lo, hi) in fixings.posts.items():
                                assert lo <= kid.posts[key][0] and kid.posts[key][1] <= hi
                            assert {k: v for k, v in kid.posts.items() if k[1] != j} == \
                                {k: v for k, v in fixings.posts.items() if k[1] != j}
                        for plan in plans[j]:
                            if allows(fixings, j, plan):
                                assert sum(allows(kid, j, plan) for kid in kids) == 1
                                checked += 1
                n, j = rng.choice(inst.node_ids()), rng.randrange(inst.n_locations)
                kids = [kid for kid in bp._branch(inst, fixings, n, j,
                                                   rng.randrange(inst.locations[j].m_max))
                        if kid.consistent()]
                if not kids:
                    break
                fixings = rng.choice(kids)
        assert checked >= 10000


class TestPricing:
    def test_zero_duals_returns_cheapest_feasible_point(self):
        inst = hand_instance(n_locations=2, dist=((0.5, 0.7),), w=(1.0,), bcoef=(0.1,),
                             m_max=2)
        coeffs = cost_coefficients(inst)
        points = enumerate_scenario_points(inst, 1)
        assert points, "oracle found no feasible point"
        best_cost = min(column_cost(coeffs, 1, posts) for _, posts in points)
        duals = RmpDuals(
            pi1={(1, j): 0.0 for j in range(2)},
            pi2={(1, j): 0.0 for j in range(2)},
            sigma={1: 1e6},  # large convexity dual forces a column out
        )
        out = solve_pricing(inst, 1, coeffs, duals, Fixings())
        assert out.status == "optimal"
        assert out.columns
        assert out.columns[0].cost == pytest.approx(best_cost, rel=1e-9)
        assert out.reduced_cost == pytest.approx(best_cost - 1e6, rel=1e-9)

    def test_fixing_only_cover_closed_is_infeasible(self):
        inst = hand_instance(m_max=1)
        coeffs = cost_coefficients(inst)
        duals = RmpDuals(pi1={(1, 0): 0.0}, pi2={(1, 0): 0.0}, sigma={1: 0.0})
        out = solve_pricing(inst, 1, coeffs, duals, Fixings({(1, 0): (0, 0)}))
        assert out.status == "infeasible"
        assert not out.columns

    def test_too_many_free_flags_raises(self):
        # 2**31 patterns are out of reach: refuse before allocating anything
        inst = chain_instance(n_locations=31)
        coeffs = cost_coefficients(inst)
        zero = RmpDuals(pi1=dict.fromkeys(coeffs.c1, 0.0), pi2=dict.fromkeys(coeffs.c2, 0.0),
                        sigma={1: 0.0, 2: 0.0})
        with pytest.raises(ValueError, match="31 free open flags"):
            solve_pricing(inst, 2, coeffs, zero, Fixings())
        fixed = Fixings({(2, 0): (0, 0)})
        assert solve_pricing(inst, 2, coeffs, zero, fixed).status == "optimal"

    def test_zero_dual_pricing_no_dearer_than_optimal_slice(self):
        # at zero linking duals each node prices a column no dearer than its
        # slice of an optimal plan
        inst = generate(PRESETS["tiny"], 2)
        coeffs = cost_coefficients(inst)
        mip = solve_mip(build_evcec(inst).model)
        dep = decode_deployment(build_evcec(inst), mip.values)
        cols = {c.node: c for c in columns_from_deployment(inst, coeffs, dep)}
        zero = RmpDuals(
            pi1={(n, j): 0.0 for n in inst.node_ids() for j in range(inst.n_locations)},
            pi2={(n, j): 0.0 for n in inst.node_ids() for j in range(inst.n_locations)},
            sigma={n: 1e9 for n in inst.node_ids()},
        )
        for n in inst.node_ids():
            out = solve_pricing(inst, n, coeffs, zero, Fixings())
            assert out.status == "optimal"
            assert out.columns[0].cost <= cols[n].cost + 1e-6


    @pytest.mark.parametrize("block_bits", [None, 1])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration_and_mip_oracles(self, seed, block_bits, monkeypatch):
        # block_bits=1 splits a tiny node's patterns into blocks of two, so
        # the block bound and the early stop are exercised too
        if block_bits is not None:
            monkeypatch.setattr(bp, "BLOCK_BITS", block_bits)
        rng = random.Random(100 + seed)
        inst = generate(PRESETS["tiny"], seed)
        coeffs = cost_coefficients(inst)
        for n in inst.node_ids():
            points = enumerate_scenario_points(inst, n)
            for fixings in (Fixings(), random_fixings(inst, n, rng),
                            random_fixings(inst, n, rng)):
                duals = random_duals(inst, coeffs, rng)
                check_pricing_against_oracles(inst, n, coeffs, duals, fixings, points)

    @pytest.mark.parametrize("block_bits,seed,trials", [(2, 5, (10, 21, 24)), (1, 9, (12, 38))])
    def test_block_bound_keeps_undecided_negative_costs(self, block_bits, seed, trials,
                                                         monkeypatch):
        # a block's bound counts the negative congestion-free cost of every
        # flag it leaves undecided; without that part it overstates the block
        # and the early stop skips blocks holding the best patterns.  These
        # seeded duals are ones where the skip shows: a least reduced cost too
        # high (seed 5, trial 21) or a column missing from the best list.
        monkeypatch.setattr(bp, "BLOCK_BITS", block_bits)
        rng = random.Random(1000 + seed)
        inst = generate(PRESETS["tiny"], seed)
        coeffs = cost_coefficients(inst)
        points = {n: enumerate_scenario_points(inst, n) for n in inst.node_ids()}
        for trial in range(max(trials) + 1):
            duals = random_duals(inst, coeffs, rng)
            if trial in trials:
                for n in inst.node_ids():
                    check_pricing_against_oracles(inst, n, coeffs, duals, Fixings(), points[n])

    def test_small_node_matches_mip_oracle(self):
        # node 1 of small seed 1 (b=1) under the master over the greedy plus
        # local-search columns; too many post profiles to list every point
        inst = with_queue(generate(PRESETS["small"], 1), b=1)
        coeffs = cost_coefficients(inst)
        pool = columns_from_deployment(inst, coeffs, local_search(inst, best_greedy(inst)))
        duals = solve_rmp(Master(inst, coeffs, pool), Fixings()).duals
        out = check_pricing_against_oracles(inst, 1, coeffs, duals, Fixings())
        assert len(out.columns) == PRICING_COLUMNS


class TestColumnGeneration:
    def test_single_node_full_pool_one_round(self):
        inst = hand_instance(n_locations=2, dist=((0.5, 0.7),), w=(1.0,), bcoef=(0.1,),
                             m_max=2)
        coeffs = cost_coefficients(inst)
        pool = [make_column(coeffs, 1, posts) for _, posts in enumerate_scenario_points(inst, 1)]
        best_cost = min(c.cost for c in pool)
        res = column_generation(Master(inst, coeffs, pool), Fixings())
        assert res.status == "converged"
        assert len(res.iterations) == 1
        assert not res.new_columns
        assert res.rmp.value == pytest.approx(best_cost - coeffs.psi, rel=1e-9)

    def test_single_node_matches_mip_restricted_to_scenario(self):
        inst = hand_instance(n_locations=2, dist=((0.5, 0.7),), w=(1.0,), bcoef=(0.1,),
                             m_max=2)
        coeffs = cost_coefficients(inst)
        dep = best_greedy(inst)
        res = column_generation(Master(inst, coeffs, columns_from_deployment(inst, coeffs, dep)),
                                Fixings())
        mip = solve_mip(build_evcec(inst).model)
        assert res.status == "converged"
        assert res.rmp.value == pytest.approx(mip.objective, rel=1e-9)

    def test_bound_below_value_each_round_and_tight_at_end(self):
        for seed in (1, 6):
            inst = generate(PRESETS["tiny"], seed)
            coeffs = cost_coefficients(inst)
            pool = columns_from_deployment(inst, coeffs, best_greedy(inst))
            res = column_generation(Master(inst, coeffs, pool), Fixings())
            assert res.status == "converged"
            for rec in res.iterations:
                if rec["lagrangian_lb"] > -math.inf:
                    assert rec["lagrangian_lb"] <= rec["rmp_value"] + 1e-7
            scale = max(1.0, abs(res.rmp.value))
            assert abs(res.rmp.value - res.lagrangian_lb) <= 1e-4 * scale

    def test_rmp_value_never_increases(self):
        inst = generate(PRESETS["tiny"], 3)
        coeffs = cost_coefficients(inst)
        pool = columns_from_deployment(inst, coeffs, best_greedy(inst))
        res = column_generation(Master(inst, coeffs, pool), Fixings())
        values = [rec["rmp_value"] for rec in res.iterations]
        assert all(values[i + 1] <= values[i] + 1e-7 for i in range(len(values) - 1))


class TestPrimalRepair:
    def test_integral_single_column_reproduced(self):
        inst = generate(PRESETS["tiny"], 5)
        coeffs = cost_coefficients(inst)
        dep = local_search(inst, best_greedy(inst))
        pool = columns_from_deployment(inst, coeffs, dep)
        rmp = solve_rmp(Master(inst, coeffs, pool), Fixings())
        repaired = primal_repair(inst, rmp)
        assert repaired == dep

    def test_half_half_identical_open_patterns(self):
        inst = hand_instance(m_max=2)
        coeffs = cost_coefficients(inst)
        col_lo = make_column(coeffs, 1, (1,))
        col_hi = make_column(coeffs, 1, (2,))
        rmp = RmpSolution(
            value=0.0,
            duals=RmpDuals({}, {}, {}),
            node_columns={1: [col_lo, col_hi]},
            lambdas={1: [0.5, 0.5]},
        )
        repaired = primal_repair(inst, rmp)
        assert repaired is not None
        assert repaired.open[1] == (True,)
        assert check_feasible(inst, repaired).feasible


class TestBranchAndPrice:
    def test_matches_oracle_on_seeds(self):
        for seed in (1, 3, 4):
            inst = generate(PRESETS["tiny"], seed)
            mip = solve_mip(build_evcec(inst).model)
            res = branch_and_price(inst)
            assert res.status == "optimal", f"seed {seed}"
            rel = abs(res.z - mip.objective) / max(abs(mip.objective), 1e-9)
            assert rel <= 1e-6, f"seed {seed}: bp={res.z} mip={mip.objective}"
            assert res.bound <= res.z + 1e-9
            assert check_feasible(inst, res.incumbent).feasible

    def test_forced_instance_solved_at_root(self):
        inst = hand_instance()
        res = branch_and_price(inst)
        assert res.status == "optimal"
        assert res.stats["branch_nodes"] == 1
        assert res.z == pytest.approx(116.0, abs=1e-6)
        assert res.gap == 0.0

    def test_root_only_mode_bounds_honestly(self):
        inst = generate(PRESETS["tiny"], 7)
        full = branch_and_price(inst)
        root = branch_and_price(inst, BpLimits(root_only=True))
        assert root.incumbent is not None
        assert root.z >= full.z - 1e-6
        if root.status != "optimal":
            assert root.bound <= full.z + 1e-6
            assert root.gap >= 0.0

    def test_incumbent_never_worse_than_heuristic_seed(self):
        inst = generate(PRESETS["tiny"], 8)
        heur = objective_value(inst, local_search(inst, best_greedy(inst)))
        res = branch_and_price(inst)
        assert res.z <= heur + 1e-9

    def test_bound_honest_when_column_generation_is_cut(self):
        # a short round limit leaves the root unconverged and unbranched; its
        # bound must be finite (every round is exact) and stay below the
        # true optimum
        for seed, b, rounds in ((0, 2, 1), (2, 2, 1), (8, 2, 1), (8, 2, 2), (0, 1, 1)):
            cell = f"seed {seed}, b={b}, cg_round_limit={rounds}"
            inst = with_queue(generate(PRESETS["tiny"], seed), b=b)
            opt = solve_mip(build_evcec(inst).model).objective
            res = branch_and_price(inst, BpLimits(cg_round_limit=rounds))
            assert -math.inf < res.bound <= opt + 1e-6 * abs(opt), cell
            assert res.status == "feasible" and res.gap > 0.0, cell
            assert check_feasible(inst, res.incumbent).feasible, cell

    def test_linking_infeasible_chain_is_proven_infeasible(self):
        # every node prices a column on its own, so only the linking rows
        # make the instance infeasible; Farkas rounds prove it at the root
        inst = linking_infeasible_chain()
        coeffs = cost_coefficients(inst)
        zero = RmpDuals(pi1=dict.fromkeys(coeffs.c1, 0.0), pi2=dict.fromkeys(coeffs.c2, 0.0),
                        sigma={1: 1e6, 2: 1e6})
        for n in inst.node_ids():
            assert solve_pricing(inst, n, coeffs, zero, Fixings()).status == "optimal"
        assert solve_mip(build_evcec(inst).model).status == "infeasible"
        res = branch_and_price(inst)
        assert (res.status, res.incumbent, res.z, res.bound) == \
            ("infeasible", None, math.inf, math.inf)
        assert [entry["status"] for entry in res.stats["log"]] == ["infeasible"]
        rounds = res.stats["log"][0]["cg"]
        assert all(rec["rmp_value"] == math.inf for rec in rounds)
        assert rounds[-1]["columns_added"] == 0
        assert "rmp=infeasible  lb=-" in render_cg_log(res.stats)

    def test_threshold_at_capacity_matches_mip(self):
        # tiny seed 0 at target load 1.0: with every station open at node 2,
        # station 0 takes a rate 4.4e-16 above mu * rho_3, which the audit
        # accepts with 3 posts; sizing by the same rule keeps the greedy and
        # pricing from calling the instance infeasible
        inst = generate(dataclasses.replace(PRESETS["tiny"], target_load=1.0), 0)
        mip = solve_mip(build_evcec(inst).model)
        assert mip.status == "optimal"
        assert mip.objective == pytest.approx(6700.999641631323, rel=1e-9)
        res = branch_and_price(inst)
        assert res.status == "optimal"
        assert res.z == pytest.approx(mip.objective, rel=1e-9)
        assert check_feasible(inst, res.incumbent).feasible
        assert check_feasible(inst, local_search(inst, best_greedy(inst))).feasible

    def test_master_holds_only_lambdas(self, monkeypatch):
        masters = []

        def recorded(*args):
            masters.append(Master(*args))
            return masters[-1]

        monkeypatch.setattr(bp, "Master", recorded)
        for inst in (generate(PRESETS["tiny"], 2), linking_infeasible_chain()):
            branch_and_price(inst)
            master = masters[-1]
            assert master.model.num_vars == len(master.columns) == len(master.lam)

    def test_determinism(self):
        inst = generate(PRESETS["tiny"], 6)
        a = branch_and_price(inst)
        b = branch_and_price(inst)
        assert a.z == b.z
        assert a.stats["branch_nodes"] == b.stats["branch_nodes"]
        assert a.incumbent == b.incumbent
