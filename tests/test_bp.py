import itertools
import math
import random

import pytest

from chargeplan.bp import (
    BpLimits,
    Column,
    CostCoeffs,
    Fixings,
    RmpDuals,
    RmpSolution,
    branch_and_price,
    build_rmp,
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
    build_evcec,
    check_feasible,
    objective_value,
    station_rates,
)
from chargeplan.heuristic import best_greedy, local_search, min_posts
from chargeplan.instance import (
    Instance,
    Location,
    PRESETS,
    ScenarioNode,
    Zone,
    coverage_sets,
    generate,
    rho_table_for,
    with_queue,
)
from chargeplan.milp import solve_mip
from chargeplan.queueing import QueueConfig

from test_evcec import hand_instance


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
    rho = rho_table_for(inst)
    mu = inst.queue.mu
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
            kmin = min_posts(rates[j], mu, rho, mj, 0)
            if kmin is None:
                feasible = False
                break
            ranges.append(tuple(range(kmin, mj + 1)))
        if not feasible:
            continue
        for posts in itertools.product(*ranges):
            points.append((mask, posts))
    return points


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
        cheap = make_column(coeffs, 1, (True,), (1,))
        dear = make_column(coeffs, 1, (True,), (2,))
        rmp = solve_rmp(inst, coeffs, [dear, cheap], Fixings())
        assert rmp.value == pytest.approx(cheap.cost - coeffs.psi, rel=1e-9)
        assert rmp.penalty == pytest.approx(0.0, abs=1e-9)

    def test_columns_violating_fixings_filtered(self):
        inst = hand_instance(n_locations=2, dist=((0.5, 0.6),), m_max=2)
        coeffs = cost_coefficients(inst)
        col_a = make_column(coeffs, 1, (True, False), (1, 0))
        col_b = make_column(coeffs, 1, (False, True), (0, 1))
        fixings = Fixings(x_fix={(1, 0): 0})
        model, node_columns, _, _ = build_rmp(inst, coeffs, [col_a, col_b], fixings)
        kept = node_columns[1]
        assert col_b in kept and col_a not in kept

    def test_artificial_injected_when_pool_emptied(self):
        inst = hand_instance(m_max=1)
        coeffs = cost_coefficients(inst)
        col = make_column(coeffs, 1, (True,), (1,))
        fixings = Fixings(x_fix={(1, 0): 0})
        _, node_columns, _, _ = build_rmp(inst, coeffs, [col], fixings)
        assert node_columns[1][0].artificial

    def test_value_nonincreasing_as_columns_arrive(self):
        inst = generate(PRESETS["tiny"], 9)
        coeffs = cost_coefficients(inst)
        dep = best_greedy(inst)
        pool = columns_from_deployment(inst, coeffs, dep)
        v1 = solve_rmp(inst, coeffs, pool, Fixings()).value
        better = local_search(inst, dep)
        pool = pool + columns_from_deployment(inst, coeffs, better)
        v2 = solve_rmp(inst, coeffs, pool, Fixings()).value
        assert v2 <= v1 + 1e-7

    def test_linking_duals_nonnegative(self):
        inst = generate(PRESETS["tiny"], 4)
        coeffs = cost_coefficients(inst)
        pool = columns_from_deployment(inst, coeffs, best_greedy(inst))
        rmp = solve_rmp(inst, coeffs, pool, Fixings())
        assert all(v >= 0.0 for v in rmp.duals.pi1.values())
        assert all(v >= 0.0 for v in rmp.duals.pi2.values())


class TestPricing:
    def test_zero_duals_returns_cheapest_feasible_point(self):
        inst = hand_instance(n_locations=2, dist=((0.5, 0.7),), w=(1.0,), bcoef=(0.1,),
                             m_max=2)
        coeffs = cost_coefficients(inst)
        points = enumerate_scenario_points(inst, 1)
        assert points, "oracle found no feasible point"
        best_cost = min(column_cost(coeffs, 1, mask, posts) for mask, posts in points)
        duals = RmpDuals(
            pi1={(1, j): 0.0 for j in range(2)},
            pi2={(1, j): 0.0 for j in range(2)},
            sigma={1: 1e6},  # large convexity dual forces a column out
        )
        out = solve_pricing(inst, 1, coeffs, duals, None, Fixings())
        assert out.status == "optimal"
        assert out.column is not None
        assert out.column.cost == pytest.approx(best_cost, rel=1e-9)
        assert out.reduced_cost == pytest.approx(best_cost - 1e6, rel=1e-9)

    def test_fixing_only_cover_closed_is_infeasible(self):
        inst = hand_instance(m_max=1)
        coeffs = cost_coefficients(inst)
        duals = RmpDuals(pi1={(1, 0): 0.0}, pi2={(1, 0): 0.0}, sigma={1: 0.0})
        out = solve_pricing(inst, 1, coeffs, duals, None, Fixings(x_fix={(1, 0): 0}))
        assert out.status == "infeasible"
        assert out.column is None

    def test_guided_pricing_accepts_oracle_optimum(self):
        # each node's slice of an optimal plan stays feasible when guided by
        # its parent's slice
        inst = generate(PRESETS["tiny"], 2)
        coeffs = cost_coefficients(inst)
        mip = solve_mip(build_evcec(inst).model)
        from chargeplan.evcec import decode_deployment

        dep = decode_deployment(build_evcec(inst), mip.values)
        cols = {c.node: c for c in columns_from_deployment(inst, coeffs, dep)}
        zero = RmpDuals(
            pi1={(n, j): 0.0 for n in inst.node_ids() for j in range(inst.n_locations)},
            pi2={(n, j): 0.0 for n in inst.node_ids() for j in range(inst.n_locations)},
            sigma={n: 1e9 for n in inst.node_ids()},
        )
        for node in inst.tree:
            if node.parent is None:
                continue
            out = solve_pricing(inst, node.id, coeffs, zero, cols[node.parent], Fixings())
            assert out.status == "optimal"
            guided_cost = out.column.cost
            own_cost = cols[node.id].cost
            assert guided_cost <= own_cost + 1e-6


class TestColumnGeneration:
    def test_single_node_full_pool_one_round(self):
        inst = hand_instance(n_locations=2, dist=((0.5, 0.7),), w=(1.0,), bcoef=(0.1,),
                             m_max=2)
        coeffs = cost_coefficients(inst)
        pool = [make_column(coeffs, 1, mask, posts)
                for mask, posts in enumerate_scenario_points(inst, 1)]
        best_cost = min(c.cost for c in pool)
        res = column_generation(inst, coeffs, list(pool), Fixings())
        assert res.status == "converged"
        assert len(res.iterations) == 1
        assert not res.new_columns
        assert res.lp_value == pytest.approx(best_cost - coeffs.psi, rel=1e-9)

    def test_single_node_matches_mip_restricted_to_scenario(self):
        inst = hand_instance(n_locations=2, dist=((0.5, 0.7),), w=(1.0,), bcoef=(0.1,),
                             m_max=2)
        coeffs = cost_coefficients(inst)
        dep = best_greedy(inst)
        res = column_generation(inst, coeffs,
                                columns_from_deployment(inst, coeffs, dep), Fixings())
        mip = solve_mip(build_evcec(inst).model)
        assert res.status == "converged"
        assert res.lp_value == pytest.approx(mip.objective, rel=1e-9)

    def test_bound_below_value_each_round_and_tight_at_end(self):
        for seed in (1, 6):
            inst = generate(PRESETS["tiny"], seed)
            coeffs = cost_coefficients(inst)
            pool = columns_from_deployment(inst, coeffs, best_greedy(inst))
            res = column_generation(inst, coeffs, pool, Fixings())
            assert res.status == "converged"
            for rec in res.iterations:
                if rec["lagrangian_lb"] > -math.inf:
                    assert rec["lagrangian_lb"] <= rec["rmp_value"] + 1e-7
            scale = max(1.0, abs(res.lp_value))
            assert abs(res.lp_value - res.lagrangian_lb) <= 1e-4 * scale

    def test_rmp_value_never_increases(self):
        inst = generate(PRESETS["tiny"], 3)
        coeffs = cost_coefficients(inst)
        pool = columns_from_deployment(inst, coeffs, best_greedy(inst))
        res = column_generation(inst, coeffs, pool, Fixings())
        values = [rec["rmp_value"] for rec in res.iterations]
        assert all(values[i + 1] <= values[i] + 1e-7 for i in range(len(values) - 1))


class TestPrimalRepair:
    def test_integral_single_column_reproduced(self):
        inst = generate(PRESETS["tiny"], 5)
        coeffs = cost_coefficients(inst)
        dep = local_search(inst, best_greedy(inst))
        pool = columns_from_deployment(inst, coeffs, dep)
        rmp = solve_rmp(inst, coeffs, pool, Fixings())
        repaired = primal_repair(inst, rmp)
        assert repaired == dep

    def test_half_half_identical_open_patterns(self):
        inst = hand_instance(m_max=2)
        coeffs = cost_coefficients(inst)
        col_lo = make_column(coeffs, 1, (True,), (1,))
        col_hi = make_column(coeffs, 1, (True,), (2,))
        rmp = RmpSolution(
            value=0.0,
            duals=RmpDuals({}, {}, {}),
            node_columns={1: [col_lo, col_hi]},
            lambdas={1: [0.5, 0.5]},
            penalty=0.0,
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
        # one pricing round leaves each root unconverged and unbranched, so
        # its bound must stay below the true optimum
        for seed in (0, 2, 8):
            inst = with_queue(generate(PRESETS["tiny"], seed), b=2)
            opt = solve_mip(build_evcec(inst).model).objective
            res = branch_and_price(inst, BpLimits(cg_round_limit=1))
            assert res.bound <= opt + 1e-6 * abs(opt), f"seed {seed}"
            assert res.status == "feasible" and res.gap > 0.0, f"seed {seed}"
            assert check_feasible(inst, res.incumbent).feasible

    def test_determinism(self):
        inst = generate(PRESETS["tiny"], 6)
        a = branch_and_price(inst)
        b = branch_and_price(inst)
        assert a.z == b.z
        assert a.stats["branch_nodes"] == b.stats["branch_nodes"]
        assert a.incumbent == b.incumbent
