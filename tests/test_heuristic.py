import dataclasses
import random
import time

import pytest

from chargeplan.evcec import (
    CAPACITY_TOL,
    check_feasible,
    min_posts,
    objective_value,
    station_rates,
)
from chargeplan.heuristic import (
    ALL_CRITERIA,
    Criterion,
    InfeasibleInstanceError,
    best_greedy,
    greedy,
    local_search,
)
from chargeplan.instance import (
    Instance,
    Location,
    PRESETS,
    ScenarioNode,
    Zone,
    generate,
    rho_table_for,
)
from chargeplan.queueing import QueueConfig


def make_instance(n_locations, w, bcoef, m_max=2, mu=4.0, costs=None, dist_row=None):
    """One zone, one node, configurable locations."""
    nloc = n_locations
    costs = costs or [(100.0, 10.0, 5.0, 1.0)] * nloc
    node = ScenarioNode(
        id=1, parent=None, prob=1.0,
        w=(w,), bcoef=(bcoef,), theta=(1.0,), radius=(10.0,),
        cost_build=tuple(c[0] for c in costs),
        cost_post=tuple(c[1] for c in costs),
        cost_op_station=tuple(c[2] for c in costs),
        cost_op_post=tuple(c[3] for c in costs),
    )
    return Instance(
        zones=(Zone(id=0, a=1.0),),
        locations=tuple(Location(id=j, m_max=m_max, x0=False, y0=0) for j in range(nloc)),
        dist=(tuple(dist_row or [0.5] * nloc),),
        tree=(node,),
        queue=QueueConfig(mu=mu, alpha=0.9, b=0),
    )


def posts_by_loop(inst, rate, m_max, floor):
    """Reference post sizing: the first k in [max(1, floor), m_max] with
    mu * rho_k + CAPACITY_TOL >= rate, the audit's rule, None when no count
    fits."""
    rho = rho_table_for(inst)
    for k in range(max(1, floor), m_max + 1):
        if inst.queue.mu * rho.cap(k) + CAPACITY_TOL >= rate:
            return k
    return None


class TestMinPosts:
    def test_first_threshold_suffices(self):
        # 4 * 0.316228 = 1.2649 >= 1.2
        assert min_posts(make_instance(1, w=1.0, bcoef=0.0), [1.2]).tolist() == [1]

    def test_zero_demand_still_one_post(self):
        assert min_posts(make_instance(1, w=1.0, bcoef=0.0), [0.0]).tolist() == [1]

    def test_capacity_exhausted(self):
        # no count up to the largest (2) fits: one past it
        assert min_posts(make_instance(1, w=1.0, bcoef=0.0), [100.0]).tolist() == [3]

    def test_rate_within_the_audit_tolerance_fits(self):
        # one capacity rule: k posts absorb a rate up to CAPACITY_TOL above
        # mu * rho_k, as the audit accepts.  Tiny seed 0 at target load 1.0
        # has such a rate at node 2, station 0, with every station open.
        inst = generate(dataclasses.replace(PRESETS["tiny"], target_load=1.0), 0)
        rate = station_rates(inst, (True,) * inst.n_locations, 2)[0]
        cap = inst.queue.mu * rho_table_for(inst).cap(3)
        assert 0.0 < rate - cap < CAPACITY_TOL
        assert min_posts(inst, [rate, cap + CAPACITY_TOL, cap + 2 * CAPACITY_TOL]).tolist() \
            == [3, 3, 4]

    def test_floor_respected(self):
        # one post absorbs the demand, but the initial station keeps its 3
        inst = dataclasses.replace(make_instance(1, w=0.1, bcoef=0.0, m_max=4),
                                   locations=(Location(id=0, m_max=4, x0=True, y0=3),))
        assert min_posts(inst, [0.1]).tolist() == [1]
        assert greedy(inst, Criterion.MOST_ZONES).posts[1] == (3,)

    def test_greedy_sizing_matches_plain_loop(self):
        # the greedy's rule, min_posts raised to the parent's count and
        # rejected above the location's cap, against a loop over k
        rng = random.Random(17)
        raised = no_fit = 0
        for _ in range(300):
            inst = make_instance(1, w=1.0, bcoef=0.0, m_max=rng.randint(1, 5),
                                 mu=rng.uniform(0.5, 5.0))
            caps = [inst.queue.mu * v for v in rho_table_for(inst).values]
            rates = [rng.uniform(0.0, 1.2 * caps[-1]), rng.choice(caps)]
            for rate, k in zip(rates, min_posts(inst, rates).tolist()):
                m_max = rng.randint(1, len(caps))
                floor = rng.randint(0, m_max)
                want = posts_by_loop(inst, rate, m_max, floor)
                got = max(k, floor)
                assert (got if got <= m_max else None) == want
                raised += want is not None and want > k
                no_fit += want is None
        assert raised >= 50 and no_fit >= 50


class TestGreedy:
    def test_one_station_suffices(self):
        # lam = w + bcoef = 1.1 fits a single post (cap 4*0.3162 = 1.2649)
        inst = make_instance(2, w=1.0, bcoef=0.1)
        dep = greedy(inst, Criterion.MOST_ZONES)
        assert sum(dep.open[1]) == 1
        j = dep.open[1].index(True)
        lam = station_rates(inst, dep.open[1], 1)[j]
        assert dep.posts[1][j] == posts_by_loop(inst, lam, 2, 0) == 1
        assert check_feasible(inst, dep).feasible

    def test_spillover_opens_second_station(self):
        # single open: lam = 2.0 + 0.05 = 2.05 > 4*rho_1; M=1 forces a second
        # station, after which each holds 0.5*2 + 0.05*1*2*0.5 = 1.05 <= 1.2649
        inst = make_instance(2, w=2.0, bcoef=0.05, m_max=1)
        dep = greedy(inst, Criterion.MOST_ZONES)
        assert sum(dep.open[1]) == 2
        assert check_feasible(inst, dep).feasible

    def test_infeasible_when_saturated(self):
        inst = make_instance(2, w=50.0, bcoef=0.0, m_max=1)
        with pytest.raises(InfeasibleInstanceError):
            greedy(inst, Criterion.MOST_ZONES)

    @pytest.mark.parametrize("criterion", ALL_CRITERIA)
    def test_each_criterion_feasible_on_seeds(self, criterion):
        for seed in range(15):
            inst = generate(PRESETS["tiny"], seed)
            dep = greedy(inst, criterion)
            assert check_feasible(inst, dep).feasible, f"seed {seed}"

    def test_monotone_across_tree(self):
        for seed in (0, 5, 9):
            inst = generate(PRESETS["small"], seed)
            dep = greedy(inst, Criterion.MOST_ZONES)
            for node in inst.tree:
                if node.parent is None:
                    continue
                for j in range(inst.n_locations):
                    assert dep.posts[node.parent][j] <= dep.posts[node.id][j]
                    assert (not dep.open[node.parent][j]) or dep.open[node.id][j]

    def test_deterministic(self):
        inst = generate(PRESETS["small"], 4)
        assert greedy(inst, Criterion.LOWEST_COST) == greedy(inst, Criterion.LOWEST_COST)


class TestBestGreedy:
    def test_returns_cheapest_of_three(self):
        inst = generate(PRESETS["tiny"], 8)
        deps = {}
        for crit in ALL_CRITERIA:
            deps[crit] = greedy(inst, crit)
        best = best_greedy(inst)
        assert objective_value(inst, best) == pytest.approx(
            min(objective_value(inst, d) for d in deps.values())
        )

    def test_feasible_on_presets(self):
        for preset in ("tiny", "small"):
            for seed in range(10):
                inst = generate(PRESETS[preset], seed)
                dep = best_greedy(inst)
                assert check_feasible(inst, dep).feasible


class TestLocalSearch:
    def test_closes_redundant_expensive_station(self):
        cheap = (100.0, 10.0, 5.0, 1.0)
        expensive = (5000.0, 10.0, 500.0, 1.0)
        inst = make_instance(2, w=1.0, bcoef=0.1, costs=[cheap, expensive])
        start = greedy(inst, Criterion.MOST_ZONES, base_open={1: (True, True)})
        assert sum(start.open[1]) == 2
        improved = local_search(inst, start)
        assert improved.open[1] == (True, False)
        assert objective_value(inst, improved) < objective_value(inst, start) - 1.0
        assert check_feasible(inst, improved).feasible

    def test_fixed_point_returned_unchanged(self):
        inst = make_instance(2, w=1.0, bcoef=0.1)
        start = greedy(inst, Criterion.MOST_ZONES)  # already single cheap station
        assert local_search(inst, start) == start

    def test_never_worse_and_always_feasible(self):
        for seed in range(8):
            inst = generate(PRESETS["tiny"], seed)
            start = best_greedy(inst)
            out = local_search(inst, start)
            assert objective_value(inst, out) <= objective_value(inst, start) + 1e-9
            assert check_feasible(inst, out).feasible

    def test_initial_stations_never_closed(self):
        for seed in range(20):
            inst = generate(PRESETS["small"], seed)
            fixed = [j for j in range(inst.n_locations) if inst.locations[j].x0]
            if not fixed:
                continue
            out = local_search(inst, best_greedy(inst))
            for n in inst.node_ids():
                for j in fixed:
                    assert out.open[n][j]
            break


class TestRuntime:
    def test_medium_preset_under_budget(self):
        inst = generate(PRESETS["medium"], 0)
        t0 = time.monotonic()
        dep = best_greedy(inst)
        elapsed = time.monotonic() - t0
        assert check_feasible(inst, dep).feasible
        assert elapsed < 5.0
