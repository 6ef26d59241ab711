import dataclasses
import itertools
import math

import numpy as np
import pytest

from chargeplan import evcec
from chargeplan.evcec import (
    CoverageError,
    Deployment,
    build_evcec,
    build_revcec,
    check_feasible,
    decode_deployment,
    encode_deployment,
    load_solution,
    logit_probabilities,
    objective_value,
    pattern_rates,
    save_solution,
    station_rates,
)
from chargeplan.instance import (
    Instance,
    Location,
    PRESETS,
    ScenarioNode,
    Zone,
    coverage_sets,
    generate,
)
from chargeplan.milp import BINARY, solve_mip
from chargeplan.queueing import QueueConfig


def hand_instance(n_zones=1, n_locations=1, w=(0.5,), bcoef=(0.25,), theta=(1.0,),
                  dist=None, m_max=1, x0=None, y0=None, costs=(100.0, 10.0, 5.0, 1.0),
                  mu=4.0, b=0):
    """Single-node instance with explicit numbers for hand evaluation."""
    dist = dist or tuple((0.5,) * n_locations for _ in range(n_zones))
    x0 = x0 or (False,) * n_locations
    y0 = y0 or (0,) * n_locations
    node = ScenarioNode(
        id=1, parent=None, prob=1.0,
        w=tuple(w), bcoef=tuple(bcoef), theta=tuple(theta),
        radius=(10.0,) * n_zones,
        cost_build=(costs[0],) * n_locations,
        cost_post=(costs[1],) * n_locations,
        cost_op_station=(costs[2],) * n_locations,
        cost_op_post=(costs[3],) * n_locations,
    )
    return Instance(
        zones=tuple(Zone(id=i, a=1.0) for i in range(n_zones)),
        locations=tuple(
            Location(id=j, m_max=m_max, x0=x0[j], y0=y0[j]) for j in range(n_locations)
        ),
        dist=dist,
        tree=(node,),
        queue=QueueConfig(mu=mu, alpha=0.9, b=b),
    )


class TestLogit:
    def test_single_open_station(self):
        inst = hand_instance()
        probs = logit_probabilities(inst, (True,), 1, 0)
        assert probs == {0: 1.0}

    def test_two_equal_stations(self):
        inst = hand_instance(n_locations=2, dist=((1.0, 1.0),))
        probs = logit_probabilities(inst, (True, True), 1, 0)
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)

    def test_two_to_one_attraction_ratio(self):
        # e0 = 2 * e1  <=>  d1 - d0 = ln 2 with a = 1
        inst = hand_instance(n_locations=2, dist=((1.0, 1.0 + math.log(2.0)),))
        probs = logit_probabilities(inst, (True, True), 1, 0)
        assert probs[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert probs[1] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_closed_station_gets_zero(self):
        inst = hand_instance(n_locations=2, dist=((1.0, 1.0),))
        probs = logit_probabilities(inst, (True, False), 1, 0)
        assert probs == {0: 1.0, 1: 0.0}

    def test_no_coverage_raises(self):
        inst = hand_instance()
        with pytest.raises(CoverageError):
            logit_probabilities(inst, (False,), 1, 0)

    def test_normalization_on_generated(self):
        inst = generate(PRESETS["tiny"], 3)
        all_open = (True,) * inst.n_locations
        for n in inst.node_ids():
            for i in range(inst.n_zones):
                probs = logit_probabilities(inst, all_open, n, i)
                assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


class TestDemandRate:
    def test_single_station_direct_substitution(self):
        # theta=1, w=4, bcoef=1, one open station: lam = 4*1 + 1*1 = 5
        inst = hand_instance(w=(4.0,), bcoef=(1.0,), mu=8.0)
        dep = Deployment(open={1: (True,)}, posts={1: (1,)})
        assert station_rates(inst, dep.open[1], 1)[0] == pytest.approx(5.0)

    def test_closed_station_zero(self):
        inst = hand_instance(n_locations=2, dist=((0.5, 0.5),), w=(4.0,), bcoef=(1.0,))
        dep = Deployment(open={1: (True, False)}, posts={1: (2, 0)})
        assert station_rates(inst, dep.open[1], 1)[1] == 0.0

    def test_symmetric_split(self):
        # two identical stations, w=4, bcoef=0 -> each receives 2
        inst = hand_instance(n_locations=2, dist=((0.5, 0.5),), w=(4.0,), bcoef=(0.0,))
        dep = Deployment(open={1: (True, True)}, posts={1: (1, 1)})
        assert station_rates(inst, dep.open[1], 1)[0] == pytest.approx(2.0)
        assert station_rates(inst, dep.open[1], 1)[1] == pytest.approx(2.0)

    def test_pattern_rates_match_logit_reference(self):
        # every open pattern of tiny seeds 0-5 against the formula built
        # from logit_probabilities: sum_i theta_i (w_i + b_i open_near_i) p_ij
        for seed in range(6):
            inst = generate(PRESETS["tiny"], seed)
            cov = coverage_sets(inst)
            masks = list(itertools.product((False, True), repeat=inst.n_locations))
            for n in inst.node_ids():
                node = inst.node(n)
                near = [cov.locs_near[n][i] for i in range(inst.n_zones)]
                rates, covered = pattern_rates(inst, n, np.array(masks, dtype=float))
                for mask, row, ok in zip(masks, rates, covered):
                    if not all(any(mask[k] for k in ks) for ks in near):
                        assert not ok
                        with pytest.raises(CoverageError):
                            station_rates(inst, mask, n)
                        continue
                    assert ok
                    want = [0.0] * inst.n_locations
                    for i, ks in enumerate(near):
                        load = node.theta[i] * (node.w[i] + node.bcoef[i]
                                                * sum(mask[k] for k in ks))
                        for j, p in logit_probabilities(inst, mask, n, i).items():
                            want[j] += load * p
                    assert list(row) == pytest.approx(want, rel=1e-12, abs=0.0)
                    assert station_rates(inst, mask, n) == pytest.approx(want, rel=1e-12,
                                                                         abs=0.0)


class TestBuildSizes:
    @pytest.mark.parametrize("mj,expect", [(8, 1080), (10, 1320)])
    def test_small_preset_binary_counts(self, mj, expect):
        params = dataclasses.replace(PRESETS["small"], m_max=mj)
        inst = generate(params, 7)
        em = build_evcec(inst)
        assert em.model.num_binaries == expect  # |N| * |J| * (1 + M)

    def test_relaxation_differs_only_in_y_kind(self):
        inst = generate(PRESETS["tiny"], 5)
        full = build_evcec(inst)
        relaxed = build_revcec(inst)
        assert full.model.num_constraints == relaxed.model.num_constraints
        assert full.model.num_vars == relaxed.model.num_vars
        for vid in range(full.model.num_vars):
            vf, vr = full.model.vars[vid], relaxed.model.vars[vid]
            if vf.name.startswith("y["):
                assert vf.kind == BINARY and vr.kind == "continuous"
            else:
                assert vf.kind == vr.kind
        assert full.model.obj == relaxed.model.obj


class TestTinySolve:
    def test_forced_single_station_objective(self):
        inst = hand_instance()
        em = build_evcec(inst)
        sol = solve_mip(em.model)
        assert sol.status == "optimal"
        # unique feasible point opens the station with one post:
        # cost = prob * (c_build + c_op_station + c_post + c_op_post) = 116
        assert sol.objective == pytest.approx(116.0, abs=1e-7)
        dep = decode_deployment(em, sol.values)
        assert dep.open[1] == (True,)
        assert dep.posts[1] == (1,)
        assert objective_value(inst, dep) == pytest.approx(sol.objective, abs=1e-6)

    def test_relaxation_bounds_full_model(self):
        inst = generate(PRESETS["tiny"], 11)
        full = solve_mip(build_evcec(inst).model)
        relaxed = solve_mip(build_revcec(inst).model)
        assert full.status == "optimal" and relaxed.status == "optimal"
        assert relaxed.objective <= full.objective + 1e-7

    def test_decode_encode_round_trip(self):
        inst = generate(PRESETS["tiny"], 2)
        em = build_evcec(inst)
        sol = solve_mip(em.model)
        assert sol.status == "optimal"
        dep = decode_deployment(em, sol.values)
        binvals = encode_deployment(em, dep)
        for vid, val in binvals.items():
            assert sol.values[vid] == pytest.approx(val, abs=1e-6)

    def test_objective_matches_solver_on_seeds(self):
        for seed in (1, 4, 9):
            inst = generate(PRESETS["tiny"], seed)
            em = build_evcec(inst)
            sol = solve_mip(em.model)
            assert sol.status == "optimal"
            dep = decode_deployment(em, sol.values)
            assert objective_value(inst, dep) == pytest.approx(
                sol.objective, rel=1e-6, abs=1e-6
            )
            assert check_feasible(inst, dep).feasible

    def test_linearization_identity_at_optimum(self):
        inst = generate(PRESETS["tiny"], 6)
        em = build_evcec(inst)
        sol = solve_mip(em.model)
        dep = decode_deployment(em, sol.values)
        for (n, i, j, k), vid in em.z.items():
            alpha_val = sol.values[em.alpha[n, i, j]]
            x_val = sol.values[em.x[n, k]]
            assert sol.values[vid] == pytest.approx(alpha_val * x_val, abs=1e-5)


class TestObjectiveValue:
    def test_initial_state_everywhere_costs_nothing(self):
        inst = hand_instance(x0=(True,), y0=(1,), costs=(100.0, 10.0, 0.0, 0.0))
        dep = Deployment(open={1: (True,)}, posts={1: (1,)})
        assert objective_value(inst, dep) == pytest.approx(0.0)

    def test_linear_in_costs(self):
        inst = generate(PRESETS["tiny"], 13)
        em = build_evcec(inst)
        sol = solve_mip(em.model)
        dep = decode_deployment(em, sol.values)
        base = objective_value(inst, dep)
        doubled_nodes = tuple(
            dataclasses.replace(
                node,
                cost_build=tuple(2 * c for c in node.cost_build),
                cost_post=tuple(2 * c for c in node.cost_post),
                cost_op_station=tuple(2 * c for c in node.cost_op_station),
                cost_op_post=tuple(2 * c for c in node.cost_op_post),
            )
            for node in inst.tree
        )
        doubled = dataclasses.replace(inst, tree=doubled_nodes)
        assert objective_value(doubled, dep) == pytest.approx(2 * base, rel=1e-12)


class TestCheckFeasible:
    def test_closing_parents_station_flagged(self):
        inst = generate(PRESETS["tiny"], 1)
        em = build_evcec(inst)
        sol = solve_mip(em.model)
        dep = decode_deployment(em, sol.values)
        # close at a child what the root keeps open
        child = inst.tree[1].id
        target = next(j for j in range(inst.n_locations) if dep.open[1][j])
        new_open = dict(dep.open)
        new_posts = dict(dep.posts)
        row = list(new_open[child])
        row[target] = False
        prow = list(new_posts[child])
        prow[target] = 0
        new_open[child] = tuple(row)
        new_posts[child] = tuple(prow)
        bad = Deployment(open=new_open, posts=new_posts)
        report = check_feasible(inst, bad)
        assert not report.feasible
        assert "3i" in report.families()

    def test_undersized_station_slack_arithmetic(self):
        # lam = 5, mu = 4, one post with threshold 0.3162...: slack = 5 - 4*rho1
        from chargeplan.queueing import rho_alpha

        inst = hand_instance(w=(4.0,), bcoef=(1.0,), m_max=2, mu=4.0)
        dep = Deployment(open={1: (True,)}, posts={1: (1,)})
        report = check_feasible(inst, dep)
        assert not report.feasible
        v = next(v for v in report.violations if v.family == "3b")
        expect = 5.0 - 4.0 * rho_alpha(1, 0, 0.9)
        assert v.slack == pytest.approx(expect, abs=1e-6)

    def test_posts_above_cap_flagged(self):
        inst = hand_instance(m_max=1, w=(0.1,), bcoef=(0.0,))
        dep = Deployment(open={1: (True,)}, posts={1: (2,)})
        report = check_feasible(inst, dep)
        assert "3l" in report.families()

    def test_uncovered_zone_flagged(self):
        inst = hand_instance(n_locations=2, dist=((0.5, 0.7),), w=(0.5,))
        dep = Deployment(open={1: (False, False)}, posts={1: (0, 0)})
        report = check_feasible(inst, dep)
        assert "3c" in report.families()


class TestSolutionFiles:
    def test_round_trip_with_provenance(self, tmp_path):
        inst = generate(PRESETS["tiny"], 21)
        em = build_evcec(inst)
        sol = solve_mip(em.model)
        dep = decode_deployment(em, sol.values)
        path = tmp_path / "sol.json"
        save_solution(path, inst, dep, algorithm="mip", seed=21)
        again, meta = load_solution(path)
        assert again == dep
        assert meta["algorithm"] == "mip"
        assert meta["seed"] == 21
        assert meta["objective"] == pytest.approx(objective_value(inst, dep))
        from chargeplan.instance import instance_hash

        assert meta["instance_hash"] == instance_hash(inst)
