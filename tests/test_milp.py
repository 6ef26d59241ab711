import dataclasses
import heapq
import itertools
import math
import random
import time
import types
import weakref

import numpy as np
import pytest

from chargeplan import bp, milp
from chargeplan.evcec import build_evcec
from chargeplan.instance import PRESETS, generate, with_queue
from chargeplan.milp import (
    BINARY,
    EQ,
    GE,
    INF,
    LE,
    KernelError,
    LpBasis,
    MipLimits,
    Model,
    ModelError,
    best_first,
    solve_lp,
    solve_mip,
)


def lp_vertex_oracle(c, rows, n):
    """Minimum of c.x over {x in [0,1]^n : rows} by enumerating vertices.

    A vertex makes n constraints active among the rows (as equalities) and the
    2n bound facets. Independent of the simplex implementation.
    """
    facets = []
    for coeffs, sense, rhs in rows:
        facets.append((np.asarray(coeffs, dtype=float), float(rhs)))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        facets.append((e.copy(), 0.0))
        facets.append((e.copy(), 1.0))
    best = math.inf
    best_x = None
    for combo in itertools.combinations(range(len(facets)), n):
        A = np.array([facets[k][0] for k in combo])
        b = np.array([facets[k][1] for k in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9) or np.any(x > 1 + 1e-9):
            continue
        ok = True
        for coeffs, sense, rhs in rows:
            lhs = float(np.dot(coeffs, x))
            if sense == LE and lhs > rhs + 1e-9:
                ok = False
            elif sense == GE and lhs < rhs - 1e-9:
                ok = False
            elif sense == EQ and abs(lhs - rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if ok:
            val = float(np.dot(c, x))
            if val < best - 1e-12:
                best = val
                best_x = x
    return best, best_x


def binary_enumeration_oracle(model):
    """Exhaustive minimum over all assignments of the binary variables,
    assuming the model has no continuous variables."""
    bids = model.binary_ids
    assert len(bids) == model.num_vars
    best = math.inf
    best_x = None
    for bits in itertools.product((0.0, 1.0), repeat=len(bids)):
        x = dict(zip(bids, bits))
        ok = True
        for con in model.cons:
            lhs = sum(coef * x[vid] for vid, coef in con.terms)
            if con.sense == LE and lhs > con.rhs + 1e-9:
                ok = False
            elif con.sense == GE and lhs < con.rhs - 1e-9:
                ok = False
            elif con.sense == EQ and abs(lhs - con.rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if ok:
            val = sum(model.obj.get(vid, 0.0) * x[vid] for vid in bids) + model.obj_offset
            if val < best - 1e-12:
                best = val
                best_x = x
    return best, best_x


class TestModelContainer:
    def test_duplicate_var_in_row_rejected(self):
        m = Model()
        x = m.add_var()
        with pytest.raises(ModelError):
            m.add_constraint([(x, 1.0), (x, 2.0)], LE, 1.0)

    def test_binary_bounds_enforced(self):
        m = Model()
        with pytest.raises(ModelError):
            m.add_var(BINARY, lower=-0.5, upper=1.0)


class TestSolveLp:
    def test_min_x_above_three(self):
        m = Model()
        x = m.add_var(lower=0.0, upper=INF, name="x")
        ge = m.add_constraint([(x, 1.0)], GE, 3.0)
        m.add_constraint([(x, 1.0)], LE, 10.0)
        m.set_objective([(x, 1.0)])
        sol = solve_lp(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.values[x] == pytest.approx(3.0, abs=1e-9)
        assert sol.duals[ge] == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_box_corner(self):
        m = Model()
        x = m.add_var(upper=1.0)
        y = m.add_var(upper=1.0)
        m.add_constraint([(x, 1.0), (y, 1.0)], LE, 1.0)
        m.set_objective([(x, -1.0), (y, -1.0)])
        sol = solve_lp(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)

    def test_infeasible(self):
        m = Model()
        x = m.add_var(upper=1.0)
        m.add_constraint([(x, 1.0)], GE, 2.0)
        m.set_objective([(x, 1.0)])
        assert solve_lp(m).status == "infeasible"

    def test_unbounded(self):
        m = Model()
        x = m.add_var()
        m.set_objective([(x, -1.0)])
        assert solve_lp(m).status == "unbounded"

    def test_equality_rows_and_offset(self):
        m = Model()
        x = m.add_var()
        y = m.add_var()
        m.add_constraint([(x, 1.0), (y, 1.0)], EQ, 2.0)
        m.set_objective([(x, 2.0), (y, 1.0)], offset=5.0)
        sol = solve_lp(m)
        assert sol.objective == pytest.approx(7.0, abs=1e-9)  # all mass on y
        assert sol.values[y] == pytest.approx(2.0, abs=1e-9)

    def test_random_lps_match_vertex_enumeration(self):
        rng = random.Random(1234)
        for trial in range(12):
            n = 6
            rows = []
            for _ in range(2):
                coeffs = [rng.uniform(-1, 1) for _ in range(n)]
                rhs = sum(c * 0.5 for c in coeffs) + rng.uniform(0.2, 0.8)
                rows.append((coeffs, LE, rhs))
            for _ in range(2):
                coeffs = [rng.uniform(-1, 1) for _ in range(n)]
                rhs = sum(c * 0.5 for c in coeffs) - rng.uniform(0.2, 0.8)
                rows.append((coeffs, GE, rhs))
            c = [rng.uniform(-2, 2) for _ in range(n)]

            m = Model()
            xs = [m.add_var(lower=0.0, upper=1.0) for _ in range(n)]
            for coeffs, sense, rhs in rows:
                m.add_constraint(list(zip(xs, coeffs)), sense, rhs)
            m.set_objective(list(zip(xs, c)))
            sol = solve_lp(m)
            assert sol.status == "optimal"
            expect, _ = lp_vertex_oracle(np.array(c), rows, n)
            assert sol.objective == pytest.approx(expect, abs=1e-6), f"trial {trial}"

    def test_primal_feasibility_and_complementary_slackness(self):
        rng = random.Random(99)
        for _ in range(8):
            n = 5
            m = Model()
            xs = [m.add_var(lower=0.0, upper=2.0) for _ in range(n)]
            rows = []
            for _ in range(4):
                coeffs = [rng.uniform(-1, 1) for _ in range(n)]
                rhs = sum(coeffs) * 0.7 + rng.uniform(0.1, 1.0)
                rows.append(m.add_constraint(list(zip(xs, coeffs)), LE, rhs))
            rows.append(m.add_constraint([(x, 1.0) for x in xs], GE, 1.0))
            m.set_objective([(x, rng.uniform(0.1, 2.0)) for x in xs])
            sol = solve_lp(m)
            assert sol.status == "optimal"
            for idx in rows:
                con = m.cons[idx]
                lhs = sum(coef * sol.values[vid] for vid, coef in con.terms)
                if con.sense == LE:
                    assert lhs <= con.rhs + 1e-7
                    assert sol.duals[idx] <= 1e-7
                else:
                    assert lhs >= con.rhs - 1e-7
                    assert sol.duals[idx] >= -1e-7
                # complementary slackness
                assert abs(sol.duals[idx] * (lhs - con.rhs)) <= 1e-6

    def test_duality_gap_zero_without_upper_bounds(self):
        rng = random.Random(7)
        for _ in range(8):
            n = 5
            m = Model()
            xs = [m.add_var(lower=0.0, upper=INF) for _ in range(n)]
            bs = []
            for _ in range(3):
                coeffs = [rng.uniform(0.1, 1.0) for _ in range(n)]
                rhs = rng.uniform(1.0, 3.0)
                m.add_constraint(list(zip(xs, coeffs)), GE, rhs)
                bs.append(rhs)
            m.set_objective([(x, rng.uniform(0.5, 2.0)) for x in xs])
            sol = solve_lp(m)
            assert sol.status == "optimal"
            dual_obj = sum(sol.duals[i] * bs[i] for i in range(3))
            assert dual_obj == pytest.approx(sol.objective, abs=1e-6)

    def test_determinism(self):
        rng = random.Random(5)
        n = 6
        m = Model()
        xs = [m.add_var(lower=0.0, upper=1.0) for _ in range(n)]
        for _ in range(4):
            coeffs = [rng.uniform(-1, 1) for _ in range(n)]
            m.add_constraint(list(zip(xs, coeffs)), LE, sum(coeffs) * 0.5 + 0.4)
        m.set_objective([(x, rng.uniform(-1, 1)) for x in xs])
        a = solve_lp(m)
        b = solve_lp(m)
        assert a.objective == b.objective
        assert a.values == b.values
        assert a.duals == b.duals


class TestSolveMip:
    def test_knapsack_matches_enumeration(self):
        # max 5 x1 + 4 x2  s.t. 3 x1 + 2 x2 <= 4, binaries (negated to min)
        m = Model()
        x1 = m.add_binary("x1")
        x2 = m.add_binary("x2")
        m.add_constraint([(x1, 3.0), (x2, 2.0)], LE, 4.0)
        m.set_objective([(x1, -5.0), (x2, -4.0)])
        expect, expect_x = binary_enumeration_oracle(m)
        sol = solve_mip(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(expect, abs=1e-9)
        assert {v: sol.values[v] for v in (x1, x2)} == expect_x

    def test_integral_relaxation_solved_at_root(self):
        m = Model()
        x = m.add_binary()
        m.add_constraint([(x, 1.0)], GE, 1.0)
        m.set_objective([(x, 2.0)])
        sol = solve_mip(m)
        assert sol.status == "optimal"
        assert sol.nodes == 1
        assert sol.objective == pytest.approx(2.0)

    def test_infeasible_binary_model(self):
        m = Model()
        x1 = m.add_binary()
        x2 = m.add_binary()
        m.add_constraint([(x1, 1.0), (x2, 1.0)], GE, 3.0)
        m.set_objective([(x1, 1.0), (x2, 1.0)])
        assert solve_mip(m).status == "infeasible"

    def test_random_binary_models_bound_sandwich(self):
        rng = random.Random(2024)
        for trial in range(10):
            nb = rng.randint(4, 9)
            m = Model()
            xs = [m.add_binary() for _ in range(nb)]
            for _ in range(rng.randint(2, 4)):
                coeffs = [rng.uniform(-2, 3) for _ in range(nb)]
                sense = rng.choice([LE, GE])
                pivot = sum(coeffs) * rng.uniform(0.2, 0.7)
                m.add_constraint(list(zip(xs, coeffs)), sense, pivot)
            m.set_objective([(x, rng.uniform(-3, 3)) for x in xs])
            expect, _ = binary_enumeration_oracle(m)
            sol = solve_mip(m)
            if expect == math.inf:
                assert sol.status == "infeasible", f"trial {trial}"
            else:
                assert sol.status == "optimal", f"trial {trial}"
                assert sol.objective == pytest.approx(expect, abs=1e-6), f"trial {trial}"
                assert sol.bound <= sol.objective + 1e-6
                assert sol.gap <= 1e-6

    def test_mixed_integer_continuous(self):
        # open/close with a continuous flow: min 3 y + x, x >= 1.4, x <= 2 y
        m = Model()
        y = m.add_binary()
        x = m.add_var(upper=2.0)
        m.add_constraint([(x, 1.0)], GE, 1.4)
        m.add_constraint([(x, 1.0), (y, -2.0)], LE, 0.0)
        m.set_objective([(y, 3.0), (x, 1.0)])
        sol = solve_mip(m)
        assert sol.status == "optimal"
        assert sol.values[y] == 1.0
        assert sol.objective == pytest.approx(4.4, abs=1e-8)

    def test_node_limit_reports_honestly(self):
        # best first reaches no integral LP on this knapsack within three
        # expansions: no incumbent, and the bound stays below the optimum
        rng = random.Random(3)
        nb = 14
        m = Model()
        xs = [m.add_binary() for _ in range(nb)]
        weights = [rng.uniform(1, 5) for _ in range(nb)]
        m.add_constraint(list(zip(xs, weights)), LE, sum(weights) * 0.4)
        m.set_objective([(x, -rng.uniform(1, 4)) for x in xs])
        sol = solve_mip(m, MipLimits(node_limit=3))
        assert sol.status == "time_limit" and not sol.values
        assert sol.bound <= solve_mip(m).objective
        # two knapsack rows: four expansions find an incumbent but no proof
        rng = random.Random(22)
        m = Model()
        xs = [m.add_binary() for _ in range(10)]
        for _ in range(2):
            weights = [rng.uniform(1, 5) for _ in xs]
            m.add_constraint(list(zip(xs, weights)), LE, sum(weights) * 0.5)
        m.set_objective([(x, -rng.uniform(1, 4)) for x in xs])
        sol = solve_mip(m, MipLimits(node_limit=4))
        assert sol.status == "feasible"
        assert sol.bound <= sol.objective and sol.gap > 1e-6
        assert sol.bound <= solve_mip(m).objective

    def test_determinism(self):
        rng = random.Random(8)
        nb = 8
        m = Model()
        xs = [m.add_binary() for _ in range(nb)]
        for _ in range(3):
            coeffs = [rng.uniform(-1, 2) for _ in range(nb)]
            m.add_constraint(list(zip(xs, coeffs)), LE, sum(coeffs) * 0.5)
        m.set_objective([(x, rng.uniform(-2, 2)) for x in xs])
        a = solve_mip(m)
        b = solve_mip(m)
        assert a.objective == b.objective and a.values == b.values and a.nodes == b.nodes


def tree_expand(tree):
    """An ``expand`` that reads (children, plans, floor) from a dict and
    records the order in which nodes are expanded."""
    order = []

    def expand(node, _objective):
        order.append(node)
        return tree[node]

    return expand, order


class TestBestFirst:
    def test_floor_below_incumbent_bounds_the_search(self):
        # "a" finds a plan at 5 but leaves part of its subtree above 3
        # unsearched; "c" cannot beat the plan and is never expanded
        expand, order = tree_expand({
            "root": ([(1.0, "a"), (2.0, "b"), (6.0, "c")], [], INF),
            "a": ([], [(5.0, "plan")], 3.0),
            "b": ([], [], INF),
        })
        res = best_first([(0.0, "root")], [], expand)
        assert order == ["root", "a", "b"]
        assert (res.status, res.plan, res.objective, res.bound) == ("feasible", "plan", 5.0, 3.0)
        assert res.gap == pytest.approx(0.4) and res.nodes == 3

    def test_gap_stop(self):
        expand, order = tree_expand({"root": ([(9.0, "a"), (9.5, "b")], [(10.0, "p")], INF)})
        res = best_first([(0.0, "root")], [], expand, gap_tol=0.1)
        assert order == ["root"]
        assert (res.status, res.objective, res.bound) == ("optimal", 10.0, 9.0)

    def test_node_limit_cut_keeps_open_bounds(self):
        # equal bounds pop in push order: "a" before "b"
        expand, order = tree_expand({
            "root": ([(1.0, "a"), (1.0, "b")], [(10.0, "p")], INF),
            "a": ([(2.0, "c")], [], INF),
        })
        res = best_first([(0.0, "root")], [], expand, node_limit=2)
        assert order == ["root", "a"]
        assert (res.status, res.bound, res.nodes) == ("feasible", 1.0, 2)
        res = best_first([(0.0, "root")], [], expand, deadline=time.monotonic() - 1.0)
        assert (res.status, res.plan, res.bound, res.nodes) == ("time_limit", None, 0.0, 0)

    def test_exhausted_without_plan_is_infeasible(self):
        expand, order = tree_expand({"root": ([(1.0, "a")], [], INF), "a": ([], [], INF)})
        res = best_first([(0.0, "root")], [], expand)
        assert order == ["root", "a"]
        assert (res.status, res.plan, res.bound, res.nodes) == ("infeasible", None, INF, 2)


def random_lp(rng, n, m):
    """A random LP with nonzero lower bounds, finite, infinite and free
    bounds, all three senses and right-hand sides of either sign.  Most rows
    hold at a point inside the bounds; some are pushed past it, so a share of
    the LPs is infeasible, and negative costs on unbounded variables make a
    share unbounded."""
    model = Model()
    point = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            lo, up = -INF, INF
        elif kind < 0.2:
            lo, up = -INF, rng.uniform(-3, 3)
        else:
            lo = rng.choice([0.0, rng.uniform(-3, 3)])
            up = rng.choice([INF, lo + rng.uniform(0.5, 4)])
        model.add_var(lower=lo, upper=up)
        anchor = lo if lo > -INF else (up if up < INF else 0.0)
        point.append(anchor + (0.4 if up - anchor > 0 else -0.4) * rng.random())
    for _ in range(m):
        coeffs = [rng.uniform(-2, 2) if rng.random() < 0.7 else 0.0 for _ in range(n)]
        activity = sum(c * v for c, v in zip(coeffs, point))
        sense = rng.choice([LE, GE, EQ])
        slack = rng.uniform(0, 1) if rng.random() < 0.85 else -rng.uniform(0.5, 3)
        rhs = {LE: activity + slack, GE: activity - slack, EQ: activity}[sense]
        model.add_constraint([(j, c) for j, c in enumerate(coeffs)], sense, rhs)
    model.set_objective([(j, rng.uniform(-1, 2)) for j in range(n)], offset=rng.uniform(-5, 5))
    return model


def random_mip(rng):
    """A small bounded model mixing binaries and boxed continuous variables."""
    model = Model()
    nb, nc = rng.randint(3, 7), rng.randint(1, 3)
    xs = [model.add_binary() for _ in range(nb)]
    xs += [model.add_var(lower=rng.uniform(-1, 0), upper=rng.uniform(1, 3)) for _ in range(nc)]
    for _ in range(rng.randint(2, 5)):
        coeffs = [rng.uniform(-2, 3) for _ in xs]
        sense = rng.choice([LE, GE, EQ]) if rng.random() < 0.3 else rng.choice([LE, GE])
        model.add_constraint(list(zip(xs, coeffs)), sense, sum(coeffs) * rng.uniform(0.2, 0.7))
    model.set_objective([(x, rng.uniform(-3, 3)) for x in xs])
    return model


def dense_rows(model):
    """(A, lower, upper) row activity limits of a model, for scipy."""
    A = np.zeros((model.num_constraints, model.num_vars))
    lo = np.full(model.num_constraints, -np.inf)
    up = np.full(model.num_constraints, np.inf)
    for i, con in enumerate(model.cons):
        for vid, coeff in con.terms:
            A[i, vid] = coeff
        if con.sense in (GE, EQ):
            lo[i] = con.rhs
        if con.sense in (LE, EQ):
            up[i] = con.rhs
    return A, lo, up


def cost_vector(model):
    c = np.zeros(model.num_vars)
    for vid, coeff in model.obj.items():
        c[vid] = coeff
    return c


def farkas_gap(model, sol):
    """The best value of y.(A x - r) over x within the variable bounds and r
    within the row activities the senses allow, for the ray y an infeasible
    solve returns: below 0 when y proves that no x meets the rows.  A
    coefficient below 1e-9, the rounding left on basic columns, counts as 0.
    Also checks that the reduced costs are the zero-cost ones, -y.A_j."""
    A, lo, up = dense_rows(model)
    y = np.array([sol.duals[i] for i in range(model.num_constraints)])
    g = y @ A
    assert [sol.reduced_costs[j] for j in range(model.num_vars)] == pytest.approx(-g, abs=1e-9)
    g[np.abs(g) <= 1e-9] = 0.0
    best = 0.0
    for coeff, low, high in zip(np.concatenate([g, -y]),
                                [v.lower for v in model.vars] + list(lo),
                                [v.upper for v in model.vars] + list(up)):
        if coeff:
            best += coeff * (high if coeff > 0 else low)
    return best


def record_runs(monkeypatch):
    """The statuses of every dual simplex run from here on, in order."""
    run, statuses = milp._DualSimplex.run, []

    def recorded(sim, stall_pivots=None):
        statuses.append(run(sim, stall_pivots))
        return statuses[-1]

    monkeypatch.setattr(milp._DualSimplex, "run", recorded)
    return statuses


class TestKernelFailures:
    def test_duplicated_and_redundant_equality_rows(self):
        m = Model()
        xs = [m.add_var() for _ in range(3)]
        total = [(x, 1.0) for x in xs]
        rows = [
            m.add_constraint(total, EQ, 3.0),
            m.add_constraint(total, EQ, 3.0),                      # duplicate
            m.add_constraint([(x, 2.0) for x in xs], EQ, 6.0),     # scaled copy
            m.add_constraint([(xs[0], 1.0), (xs[1], -1.0)], EQ, 1.0),
            m.add_constraint([(xs[1], 1.0), (xs[2], 1.0)], GE, 1.0),
        ]
        m.set_objective([(xs[0], 1.0), (xs[1], 2.0), (xs[2], 3.0)], offset=1.5)
        sol = solve_lp(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(5.5, abs=1e-9)
        assert [sol.values[x] for x in xs] == pytest.approx([2.0, 1.0, 0.0], abs=1e-9)
        for idx in rows:
            con = m.cons[idx]
            lhs = sum(coef * sol.values[vid] for vid, coef in con.terms)
            assert abs(sol.duals[idx] * (lhs - con.rhs)) <= 1e-9
        assert sol.duals[rows[4]] >= -1e-9
        for x in xs:  # every variable is [0, inf): reduced costs >= 0, zero when positive
            assert sol.reduced_costs[x] >= -1e-9
            assert abs(sol.reduced_costs[x] * sol.values[x]) <= 1e-9
        dual_obj = sum(sol.duals[idx] * m.cons[idx].rhs for idx in rows) + 1.5
        assert dual_obj == pytest.approx(sol.objective, abs=1e-9)

    def test_singular_warm_basis_raises(self):
        m = Model()
        x, y = m.add_var(), m.add_var()
        m.add_constraint([(x, 1.0), (y, 1.0)], LE, 4.0)
        m.add_constraint([(x, 2.0), (y, 2.0)], LE, 8.0)
        m.set_objective([(x, -1.0), (y, -1.0)])
        basis = LpBasis(head=np.array([x, y]), at_upper=np.array([], dtype=int), n=2)
        with pytest.raises(KernelError):
            solve_lp(m, basis=basis)

    def test_stalled_run_restarts_on_perturbed_costs(self, monkeypatch):
        # every solve below reports a stall on its first run, so it restarts
        # on perturbed costs and goes back to the true costs afterwards; it
        # must still end at the optimum found without the detour
        rng = random.Random(808)
        models = [random_lp(rng, rng.randint(2, 8), rng.randint(1, 6)) for _ in range(60)]
        models += [random_mip(rng) for _ in range(30)]
        expected = [solve_lp(m) for m in models]
        run, stalled, perturbed = milp._DualSimplex.run, set(), []

        def stall_once(sim, stall_pivots=None):
            if stall_pivots is not None and id(sim.std) not in stalled:
                stalled.add(id(sim.std))
                return "stalled"
            return run(sim, stall_pivots)

        def recorded(cost, sim, seed):
            perturbed.append(seed)
            return perturb(cost, sim, seed)

        perturb = milp._perturbed
        monkeypatch.setattr(milp._DualSimplex, "run", stall_once)
        monkeypatch.setattr(milp, "_perturbed", recorded)
        for trial, (m, ref) in enumerate(zip(models, expected)):
            sol = solve_lp(m)
            assert sol.status == ref.status, f"trial {trial}"
            if ref.status == "optimal":
                assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-7)
        assert len(perturbed) == len(models)

    @pytest.mark.parametrize("costs,threshold,stalls",
                             [((0.0, 0.0, 0.0), 1, True), ((1.0, 2.0, 3.0), 0, False)])
    def test_stall_detector_counts_dual_degenerate_pivots(self, costs, threshold, stalls,
                                                          monkeypatch):
        # three rows x_i >= 1, each fixed by one pivot: with zero costs each
        # pivot's dual step is 0, so the second one already passes a
        # threshold of 1; with distinct positive costs every step is at least
        # 1, so not even a threshold of 0 is passed
        m = Model()
        xs = [m.add_var() for _ in costs]
        for x in xs:
            m.add_constraint([(x, 1.0)], GE, 1.0)
        m.set_objective(zip(xs, costs))
        monkeypatch.setattr(milp, "_STALL_PIVOTS", threshold)
        statuses = record_runs(monkeypatch)
        sol = solve_lp(m)
        assert sol.status == "optimal" and sol.objective == pytest.approx(sum(costs))
        assert [sol.values[x] for x in xs] == pytest.approx([1.0, 1.0, 1.0])
        assert ("stalled" in statuses) == stalls

    def test_real_stalls_keep_the_optimum(self, monkeypatch):
        # a threshold of one degenerate pivot makes the detector itself fire
        # on some of these LPs and MIP relaxations (and on branched children
        # of the MIPs); every solve still ends at the optimum found without it
        rng = random.Random(808)
        models = [random_lp(rng, rng.randint(2, 8), rng.randint(1, 6)) for _ in range(60)]
        models += [random_mip(rng) for _ in range(30)]
        cases = [(m, {}) for m in models]
        cases += [(m, {vid: (fix, fix)}) for m in models[60:] for vid in m.binary_ids[:2]
                  for fix in (0.0, 1.0)]
        expected = [solve_lp(m, over) for m, over in cases]
        monkeypatch.setattr(milp, "_STALL_PIVOTS", 1)
        statuses = record_runs(monkeypatch)
        for trial, ((m, over), ref) in enumerate(zip(cases, expected)):
            m._std = None
            sol = solve_lp(m, over)
            assert sol.status == ref.status, f"trial {trial}"
            if ref.status == "optimal":
                assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-7)
        assert statuses.count("stalled") >= 3

    @pytest.mark.parametrize("cost_y,ends", [(1000.0, True), (1001.0, False)])
    def test_repeated_flip_without_gain_ends_the_solve(self, cost_y, ends, monkeypatch):
        # y is reported wrong-signed whenever it is nonbasic, as noisy reduced
        # costs can; once a flip came back and flipping again could not gain
        # a relative 1e-9 of the objective, the solve ends at that basis.  A
        # flip that would gain keeps the restarts going, up to their limit.
        m = Model()
        x, y = m.add_var(upper=1.0), m.add_var(upper=1.0)
        m.add_constraint([(x, 1.0), (y, 1.0)], GE, 1.0)
        m.set_objective([(x, 1000.0), (y, cost_y)])
        wrong_sign = milp._DualSimplex.wrong_sign

        def noisy(sim):
            bad = wrong_sign(sim)
            bad[y] |= sim.pos[y] < 0
            return bad

        monkeypatch.setattr(milp._DualSimplex, "wrong_sign", noisy)
        if ends:
            sol = solve_lp(m)
            assert sol.status == "optimal" and sol.objective == pytest.approx(1000.0)
        else:
            with pytest.raises(KernelError, match="did not settle"):
                solve_lp(m)

    def test_iteration_guard_raises(self, monkeypatch):
        monkeypatch.setattr(milp, "_MAX_PIVOTS_PER_COLUMN", 0)
        m = Model()
        x = m.add_var()
        m.add_constraint([(x, 1.0)], GE, 3.0)
        m.set_objective([(x, 1.0)])
        with pytest.raises(KernelError):
            solve_lp(m)


class TestAgainstHighs:
    def test_random_lps_match_linprog(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(4242)
        statuses = {0: "optimal", 2: "infeasible", 3: "unbounded"}
        seen = set()
        rays = 0
        for trial in range(120):
            m = random_lp(rng, rng.randint(2, 8), rng.randint(1, 6))
            A, lo, up = dense_rows(m)
            le, ge, eq = np.isinf(lo), np.isinf(up), lo == up
            res = optimize.linprog(
                cost_vector(m),
                A_ub=np.vstack([A[le], -A[ge]]), b_ub=np.concatenate([up[le], -lo[ge]]),
                A_eq=A[eq] if eq.any() else None, b_eq=lo[eq] if eq.any() else None,
                bounds=[(None if v.lower == -INF else v.lower, None if v.upper == INF else v.upper)
                        for v in m.vars],
                method="highs",
            )
            sol = solve_lp(m)
            assert sol.status == statuses[res.status], f"trial {trial}"
            seen.add(sol.status)
            if sol.status == "infeasible":
                # the returned Farkas ray certifies the verdict
                assert farkas_gap(m, sol) < -1e-7, f"trial {trial}"
                rays += 1
            if sol.status == "optimal":
                assert sol.objective == pytest.approx(res.fun + m.obj_offset, rel=1e-7, abs=1e-7)
                x = np.array([sol.values[j] for j in range(m.num_vars)])
                act = A @ x
                assert np.all(act >= lo - 1e-7) and np.all(act <= up + 1e-7), f"trial {trial}"
        assert seen == {"optimal", "infeasible", "unbounded"}
        assert rays >= 10

    def test_random_mips_match_milp(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(777)
        for trial in range(40):
            m = random_mip(rng)
            A, lo, up = dense_rows(m)
            res = optimize.milp(
                cost_vector(m),
                integrality=[1 if v.kind == BINARY else 0 for v in m.vars],
                bounds=optimize.Bounds([v.lower for v in m.vars], [v.upper for v in m.vars]),
                constraints=optimize.LinearConstraint(A, lo, up),
            )
            sol = solve_mip(m)
            if res.status == 2:
                assert sol.status == "infeasible", f"trial {trial}"
                continue
            assert res.status == 0
            assert sol.status == "optimal", f"trial {trial}"
            # HiGHS accepts integrality violations up to 1e-6
            assert sol.objective == pytest.approx(res.fun, rel=1e-6, abs=1e-5), f"trial {trial}"


class TestWarmStart:
    def test_children_from_parent_basis_match_cold_solves(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(15):
            m = random_mip(rng)
            root = solve_lp(m)
            if root.status != "optimal":
                continue
            level = [({}, root)]
            for _depth in range(2):
                below = []
                for overrides, parent in level:
                    for vid in m.binary_ids:
                        if vid in overrides:
                            continue
                        for fix in (0.0, 1.0):
                            child = {**overrides, vid: (fix, fix)}
                            warm = solve_lp(m, child, basis=parent.basis)
                            cold = solve_lp(m, child)
                            assert warm.status == cold.status
                            checked += 1
                            if warm.status == "optimal":
                                assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
                                below.append((child, warm))
                level = below[:6]
        assert checked > 100


class TestAddColumns:
    def test_container_checks(self):
        m = Model()
        x = m.add_var()
        m.add_constraint([(x, 1.0)], GE, 1.0)
        with pytest.raises(ModelError):
            m.add_columns([1.0], [[(1, 1.0)]])
        with pytest.raises(ModelError):
            m.add_columns([1.0], [[(0, 1.0), (0, 2.0)]])
        with pytest.raises(ModelError):
            m.add_columns([1.0, 2.0], [[(0, 1.0)]])
        with pytest.raises(ModelError):
            m.add_columns([1.0], [[(0, 1.0)]], lower=1.0, upper=0.0)
        assert m.num_vars == 1
        assert m.add_columns([2.0, 0.0], [[(0, 3.0)], [(0, 0.0)]], 0.0, 1.0) == [1, 2]
        assert m.cons[0].terms == ((x, 1.0), (1, 3.0))
        assert m.obj == {1: 2.0}
        assert [(v.lower, v.upper) for v in m.vars[1:]] == [(0.0, 1.0), (0.0, 1.0)]

    def test_warm_start_after_append_matches_cold_rebuild(self):
        # columns appended to a solved model extend its standard form in
        # place; the old basis warm-starts the grown model, whose optimum
        # matches the same model built in one go and solved cold
        rng = random.Random(47)
        solved = 0
        for trial in range(60):
            n, m, k = rng.randint(2, 6), rng.randint(2, 6), rng.randint(1, 5)
            grown = random_lp(rng, n, m)
            first = solve_lp(grown)
            std = grown._std
            costs = [rng.uniform(-2, 2) for _ in range(k)]
            entries = [[(i, rng.uniform(-2, 2)) for i in range(m) if rng.random() < 0.6]
                       for _ in range(k)]
            grown.add_columns(costs, entries, 0.0, rng.choice([1.0, 3.0, INF]))
            assert grown._std is std and std.n == n + k
            fresh = Model()
            for v in grown.vars:
                fresh.add_var(v.kind, v.lower, v.upper)
            for con in grown.cons:
                fresh.add_constraint(con.terms, con.sense, con.rhs)
            fresh.set_objective(grown.obj.items(), grown.obj_offset)
            cold = solve_lp(fresh)
            warm = solve_lp(grown, basis=first.basis)
            assert warm.status == cold.status, f"trial {trial}"
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-7)
                assert warm.basis.n == n + k
                solved += 1
        assert solved >= 20

    def test_pivots_counted(self):
        m = Model()
        x = m.add_var()
        m.add_constraint([(x, 1.0)], GE, 3.0)
        m.set_objective([(x, 1.0)])
        cold = solve_lp(m)
        assert cold.pivots == 1
        assert solve_lp(m, basis=cold.basis).pivots == 0


def multi_knapsack(seed, n=14, rows=3):
    """Binaries packed under random <= rows at half their total weight: the
    search keeps many open nodes."""
    rng = random.Random(seed)
    model = Model()
    xs = [model.add_binary() for _ in range(n)]
    for _ in range(rows):
        w = [rng.randint(5, 30) for _ in xs]
        model.add_constraint(list(zip(xs, w)), LE, sum(w) // 2)
    model.set_objective([(x, -rng.randint(10, 40)) for x in xs])
    return model


def count_live_inverses(monkeypatch, module):
    """Watch a search: returns a dict updated on every solve_lp call through
    ``module`` with the most bases alive with an inverse at any call (the
    returned one included) and the most nodes on the search heap."""
    seen = {"inverses": 0, "heap": 0}
    refs = []

    def push(heap, item):
        heapq.heappush(heap, item)
        seen["heap"] = max(seen["heap"], len(heap))

    def live():
        return sum(1 for r in refs if r() is not None and r().inverse is not None)

    solve = module.solve_lp

    def watched(*args, **kwargs):
        seen["inverses"] = max(seen["inverses"], live())
        sol = solve(*args, **kwargs)
        if sol.basis is not None:
            refs.append(weakref.ref(sol.basis))
        seen["inverses"] = max(seen["inverses"], live())
        return sol

    monkeypatch.setattr(milp, "heapq", types.SimpleNamespace(heappush=push,
                                                             heappop=heapq.heappop))
    monkeypatch.setattr(module, "solve_lp", watched)
    return seen


class TestCarriedInverse:
    """Warm starts carry the basis inverse; a solve re-inverts only when an
    accuracy check fails or the updates built up."""

    def test_residual_tolerance_is_tighter_than_feasibility(self):
        assert min(milp._FEAS_TOL, milp._OPT_TOL) / milp._RESIDUAL_TOL >= 100 - 1e-9

    def test_warm_chains_match_cold_solves(self):
        # random LPs re-solved under random boxes on two variables near their
        # last value, each solve warm-started from the last optimal one, so an
        # inverse and its update count carry along the chain
        rng = random.Random(2024)
        checked = optimal = pivoted = 0
        for _ in range(100):
            m = random_lp(rng, rng.randint(3, 8), rng.randint(2, 6))
            last = solve_lp(m)
            if last.status != "optimal":
                continue
            for _step in range(8):
                overrides = {}
                for vid in rng.sample(range(m.num_vars), 2):
                    mid = last.values[vid] + rng.uniform(-1.0, 1.0)
                    overrides[vid] = (mid - 0.5, mid + 0.5)
                warm = solve_lp(m, overrides, basis=last.basis)
                cold = solve_lp(m, overrides)
                assert warm.status == cold.status
                checked += 1
                if warm.status == "optimal":
                    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
                    optimal += 1
                    pivoted += warm.pivots > 0 and warm.refactors == 0
                    last = warm
        assert checked >= 400 and optimal >= 150 and pivoted >= 50

    def test_branch_and_bound_dives_match_cold_solves(self):
        # dives that fix the most fractional binary, each child warm from its
        # parent, on random MIPs and a tiny exact model
        rng = random.Random(5)
        models = [random_mip(rng) for _ in range(30)] + [multi_knapsack(s) for s in range(3)]
        models.append(build_evcec(generate(PRESETS["tiny"], 3)).model)
        checked = 0
        for m in models:
            parent, overrides = solve_lp(m), {}
            while parent.status == "optimal":
                branch = milp._branch_variable(m._std, parent.values)
                if branch is None:
                    break
                kids = []
                for fix in (0.0, 1.0):
                    child = {**overrides, branch: (fix, fix)}
                    warm = solve_lp(m, child, basis=parent.basis)
                    cold = solve_lp(m, child)
                    assert warm.status == cold.status
                    checked += 1
                    if warm.status == "optimal":
                        assert warm.objective == pytest.approx(cold.objective,
                                                               rel=1e-9, abs=1e-9)
                        kids.append((child, warm))
                if not kids:
                    break
                overrides, parent = rng.choice(kids)
        assert checked >= 100

    def test_appended_columns_keep_the_inverse(self):
        # columns appended round after round, each round warm from the last:
        # the grown model matches a cold rebuild, and an append alone costs
        # no inversion
        rng = random.Random(91)
        solved = kept = 0
        for _ in range(30):
            n, m = rng.randint(2, 5), rng.randint(2, 5)
            grown = random_lp(rng, n, m)
            last = solve_lp(grown)
            for _round in range(5):
                if last.status != "optimal":
                    break
                k = rng.randint(1, 4)
                grown.add_columns([rng.uniform(-2, 2) for _ in range(k)],
                                  [[(i, rng.uniform(-2, 2)) for i in range(m)
                                    if rng.random() < 0.6] for _ in range(k)],
                                  0.0, rng.choice([1.0, 3.0]))
                fresh = Model()
                for v in grown.vars:
                    fresh.add_var(v.kind, v.lower, v.upper)
                for con in grown.cons:
                    fresh.add_constraint(con.terms, con.sense, con.rhs)
                fresh.set_objective(grown.obj.items(), grown.obj_offset)
                warm, cold = solve_lp(grown, basis=last.basis), solve_lp(fresh)
                assert warm.status == cold.status
                if cold.status == "optimal":
                    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
                    solved += 1
                    kept += warm.refactors == 0
                last = warm
        assert solved >= 60 and kept >= solved // 2

    @pytest.mark.parametrize("noise", [1e-6, 1e-3])
    def test_corrupted_inverse_is_inverted_again(self, noise):
        # noise on a carried inverse fails the residual check, so the solve
        # inverts the basis afresh and ends at the cold optimum, whether it
        # needs pivots (children) or none (the same LP again)
        rng = random.Random(13)
        noisy = np.random.default_rng(13)
        checked = 0
        for trial in range(40):
            m = random_mip(rng)
            root = solve_lp(m)
            if root.status != "optimal":
                continue
            basis = root.basis
            bad = LpBasis(basis.head, basis.at_upper, basis.n,
                          basis.inverse + noise * noisy.standard_normal(basis.inverse.shape),
                          basis.updates)
            cases = [{}] + [{vid: (fix, fix)} for vid in m.binary_ids[:2] for fix in (0.0, 1.0)]
            for over in cases:
                cold = solve_lp(m, over)
                warm = solve_lp(m, over, basis=bad)
                assert warm.status == cold.status, f"trial {trial}"
                if cold.status == "optimal":
                    assert warm.refactors >= 1
                    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
                    checked += 1
        assert checked >= 50

    def test_updates_counted_across_warm_starts(self, monkeypatch):
        # with an inversion due every 3 updates, no carried inverse holds 3
        # or more, and solves that pivot fewer than 3 times still re-invert
        # once the updates carried in reach the limit
        monkeypatch.setattr(milp, "_REFACTOR_EVERY", 3)
        rng = random.Random(8)
        carried_over = 0
        for _ in range(20):
            m = random_mip(rng)
            last = solve_lp(m)
            for vid in m.binary_ids:
                if last.status != "optimal":
                    break
                sol = solve_lp(m, {vid: (1.0, 1.0)}, basis=last.basis)
                if sol.status == "optimal":
                    assert sol.basis.updates < 3
                    carried_over += (sol.refactors >= 1 and sol.pivots < 3
                                     and last.basis.updates + sol.pivots >= 3)
                    last = sol
        assert carried_over >= 10

    def test_warm_children_of_a_tiny_mip_rarely_invert(self, monkeypatch):
        solve, calls = milp.solve_lp, []

        def recorded(model, overrides=None, basis=None):
            calls.append((basis, solve(model, overrides, basis)))
            return calls[-1][1]

        monkeypatch.setattr(milp, "solve_lp", recorded)
        sol = solve_mip(build_evcec(with_queue(generate(PRESETS["tiny"], 3), b=0)).model)
        assert sol.status == "optimal"
        root = [s for basis, s in calls if basis is None]
        warm = [s for basis, s in calls if basis is not None and basis.inverse is not None]
        assert len(root) == 1 and root[0].refactors >= 1
        assert len(warm) >= 10
        assert sum(s.refactors == 0 for s in warm) > 0.8 * len(warm)
        # an older node is inverted before its children are solved
        assert all(basis is None or basis.inverse is not None for basis, _ in calls)

    def test_children_of_an_older_node_share_one_inversion(self, monkeypatch):
        # a node popped after its inverse was dropped is inverted once, when
        # it is expanded, and both children start from that inverse
        solve, invert = milp.solve_lp, milp._invert
        calls, in_solve, expanded = [], [], []

        def recorded(model, overrides=None, basis=None):
            in_solve.append(True)
            try:
                calls.append((basis, solve(model, overrides, basis)))
            finally:
                in_solve.pop()
            return calls[-1][1]

        def counted(std, head):
            inverse = invert(std, head)
            if not in_solve:
                expanded.append(inverse)
            return inverse

        monkeypatch.setattr(milp, "solve_lp", recorded)
        monkeypatch.setattr(milp, "_invert", counted)
        sol = solve_mip(build_evcec(with_queue(generate(PRESETS["tiny"], 3), b=0)).model)
        assert sol.status == "optimal"
        assert len(expanded) >= 2
        for inverse in expanded:
            children = [s for basis, s in calls
                        if basis is not None and basis.inverse is inverse]
            assert len(children) == 2
            assert sum(s.refactors for s in children) == 0

    def test_branch_and_bound_keeps_few_inverses(self, monkeypatch):
        seen = count_live_inverses(monkeypatch, milp)
        sol = solve_mip(multi_knapsack(0))
        assert sol.status == "optimal"
        assert seen["heap"] >= 20 and seen["inverses"] <= 3

    def test_branch_and_price_keeps_few_inverses(self, monkeypatch):
        wider = dataclasses.replace(PRESETS["tiny"], n_zones=6, n_locations=7, n_nodes=7)
        seen = count_live_inverses(monkeypatch, bp)
        res = bp.branch_and_price(with_queue(generate(wider, 2), b=1))
        assert res.status == "optimal"
        assert seen["heap"] >= 8 and seen["inverses"] <= 3
