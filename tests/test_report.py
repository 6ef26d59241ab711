import math

import pytest

from chargeplan.bp import branch_and_price
from chargeplan.evcec import Deployment, build_evcec, decode_deployment, station_rates
from chargeplan.instance import PRESETS, generate, with_queue
from chargeplan.milp import solve_mip
from chargeplan.queueing import mms_measures
from chargeplan.report import (
    CSV_COLUMNS,
    compare_metrics,
    parse_csv,
    queue_report,
    render_cg_log,
    render_tables,
)

from test_evcec import hand_instance


def solved_tiny(seed=1, b=0):
    inst = with_queue(generate(PRESETS["tiny"], seed), b=b)
    em = build_evcec(inst)
    sol = solve_mip(em.model)
    assert sol.status == "optimal"
    return inst, decode_deployment(em, sol.values)


class TestQueueReport:
    def test_congestion_optimum_meets_service_level(self):
        inst, dep = solved_tiny(seed=1)
        rep = queue_report(inst, dep)
        assert rep.service_ok
        for row in rep.rows:
            assert row.measures.p_le_b >= inst.queue.alpha - 1e-6
            assert row.measures.stable

    def test_rows_match_direct_evaluation(self):
        inst, dep = solved_tiny(seed=4)
        rep = queue_report(inst, dep)
        for row in rep.rows:
            lam = station_rates(inst, dep.open[row.node], row.node)[row.location]
            direct = mms_measures(lam, inst.queue.mu, row.posts, inst.queue.b)
            assert row.measures.wq == pytest.approx(direct.wq, rel=1e-12)

    def test_closed_stations_excluded(self):
        inst, dep = solved_tiny(seed=2)
        rep = queue_report(inst, dep)
        reported = {(r.node, r.location) for r in rep.rows}
        for n in inst.node_ids():
            for j in range(inst.n_locations):
                assert ((n, j) in reported) == dep.open[n][j]

    def test_capacity_blind_plan_flags_service(self):
        # a single post facing lam = 5 with mu = 4: overloaded -> unstable
        inst = hand_instance(w=(4.0,), bcoef=(1.0,), m_max=2, mu=4.0)
        dep = Deployment(open={1: (True,)}, posts={1: (1,)})
        rep = queue_report(inst, dep)
        assert not rep.service_ok
        assert rep.unstable == ((1, 0),)

    def test_weighted_average_hand_check(self):
        inst, dep = solved_tiny(seed=3)
        rep = queue_report(inst, dep)
        wsum = acc = 0.0
        for row in rep.rows:
            prob = inst.node(row.node).prob
            wsum += prob
            acc += prob * row.measures.wq * 60.0
        assert rep.avg_wait_min == pytest.approx(acc / wsum, rel=1e-12)


class TestCompareMetrics:
    def test_time_savings_prints_like_the_benchmark(self):
        out = compare_metrics(t_star=194.0, z_star=45353.0, t_alg=62.0, z_alg=51506.0)
        assert f"{out['ts']:.1f}%" == "68.0%"

    def test_negative_gap_when_heuristic_beats_incumbent(self):
        out = compare_metrics(t_star=7201.0, z_star=68841.0, t_alg=0.07, z_alg=68159.0)
        assert f"{out['gap'] * 100:.1f}%" == "-1.0%"

    def test_zero_gap_at_equality(self):
        out = compare_metrics(1.0, 100.0, 1.0, 100.0, lb_alg=90.0)
        assert out["gap"] == 0.0
        assert out["gap_lb"] == pytest.approx(0.1)

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError):
            compare_metrics(0.0, 1.0, 1.0, 1.0)


class TestRenderTables:
    def test_empty_is_header_only(self):
        text, csv_text = render_tables([])
        assert csv_text.splitlines() == [",".join(CSV_COLUMNS)]
        assert text.splitlines()[0].split() == CSV_COLUMNS

    def test_round_trip(self):
        rows = [
            {"instance_id": "tiny-1", "algo": "mip", "M": 3, "b": 0, "alpha": 0.9,
             "t_s": 1.25, "z": 4588.42, "lb": 4588.42, "gap": 0.0,
             "avg_wait_min": 0.05, "avg_queue_len": 0.01, "service_ok": True},
            {"instance_id": "tiny-1", "algo": "heuristic", "M": 3, "b": 0, "alpha": 0.9,
             "t_s": 0.01, "z": 5000.0, "service_ok": False},
        ]
        _, csv_text = render_tables(rows)
        parsed = parse_csv(csv_text)
        assert len(parsed) == 2
        assert parsed[0]["algo"] == "heuristic"  # ordered by algo within a cell
        assert parsed[1]["z"] == "4588.42"
        assert parsed[0]["lb"] == ""  # missing -> empty cell
        assert parsed[0]["service_ok"] == "no"

    def test_deterministic_ordering(self):
        rows = [
            {"instance_id": "b", "algo": "mip", "M": 3, "b": 1},
            {"instance_id": "a", "algo": "mip", "M": 3, "b": 2},
            {"instance_id": "a", "algo": "mip", "M": 3, "b": 0},
        ]
        _, csv_text = render_tables(rows)
        ids = [r["instance_id"] + r["b"] for r in parse_csv(csv_text)]
        assert ids == ["a0", "a2", "b1"]

    def test_infinities_render_empty(self):
        rows = [{"instance_id": "x", "algo": "bp", "M": 1, "b": 0, "gap": math.inf}]
        _, csv_text = render_tables(rows)
        assert parse_csv(csv_text)[0]["gap"] == ""


class TestRenderCgLog:
    def test_text(self):
        stats = {"log": [{"branch_depth": 1, "fixings": 2, "post_bounds": 3,
                          "status": "converged",
                          "cg": [{"round": 0, "rmp_value": 1234.5, "lagrangian_lb": -math.inf,
                                  "pivots": 7, "columns_added": 2,
                                  "reduced_costs": {2: -1.5, 1: 0.0}}]}]}
        assert render_cg_log(stats) == (
            "branch node depth=1 fixed_flags=2 post_bounds=3 -> converged\n"
            "  round   0  rmp=1234.5  lb=-  piv=7  cols+2  rc[1:0 2:-1.5]\n")

    def test_post_count_branch_shows_in_the_header(self):
        # tiny seed 13 (b=0) branches at the root on a post count: the child
        # decides no open flag, but narrows one post interval
        res = branch_and_price(with_queue(generate(PRESETS["tiny"], 13), b=0))
        headers = [line.rsplit(" -> ", 1)[0] for line in render_cg_log(res.stats).splitlines()
                   if line.startswith("branch node")]
        assert headers == ["branch node depth=0 fixed_flags=0 post_bounds=0",
                           "branch node depth=1 fixed_flags=0 post_bounds=1"]
