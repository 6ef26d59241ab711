"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expensive solves (the
exact-oracle sweeps) are computed once in module-scoped fixtures and shared by
the criteria that audit them.
"""

import math
import random
import time

import pytest

from chargeplan import queueing as q
from chargeplan.approx import approximate
from chargeplan.bp import (
    Fixings,
    Master,
    branch_and_price,
    column_generation,
    columns_from_deployment,
    cost_coefficients,
)
from chargeplan.evcec import (
    build_evcec,
    check_feasible,
    decode_deployment,
    objective_value,
    station_rates,
)
from chargeplan.heuristic import best_greedy
from chargeplan.instance import PRESETS, generate, with_queue
from chargeplan.milp import solve_mip
from chargeplan.report import compare_metrics

from conftest import oracle_p_le_b
from test_bp import random_monotone_deployment

N_ORACLE_SEEDS = 10
ORACLE_B_VALUES = (0, 1, 2)
SWEEP_SEEDS = (0, 1, 2, 3, 4)
SWEEP_B_VALUES = (0, 1, 2, 3)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def oracle_solutions():
    """Exact optima and branch-and-price results on the tiny oracle suite."""
    out = []
    for seed in range(N_ORACLE_SEEDS):
        base = generate(PRESETS["tiny"], seed)
        for b in ORACLE_B_VALUES:
            inst = with_queue(base, b=b)
            em = build_evcec(inst)
            mip = solve_mip(em.model)
            assert mip.status == "optimal", (seed, b, mip.status)
            dep = decode_deployment(em, mip.values)
            bp = branch_and_price(inst)
            out.append({"seed": seed, "b": b, "inst": inst, "dep": dep,
                        "z": mip.objective, "bp": bp})
    return out


@pytest.fixture(scope="module")
def sweep_solutions():
    """Exact optima across the full b range on five tiny instances."""
    out = {}
    for seed in SWEEP_SEEDS:
        base = generate(PRESETS["tiny"], seed)
        for b in SWEEP_B_VALUES:
            inst = with_queue(base, b=b)
            em = build_evcec(inst)
            mip = solve_mip(em.model)
            assert mip.status == "optimal", (seed, b, mip.status)
            out[seed, b] = (inst, decode_deployment(em, mip.values), mip.objective)
    return out


def test_criterion_1_threshold_closed_forms():
    t0 = time.monotonic()
    assert abs(q.rho_alpha(1, 0, 0.9) - math.sqrt(0.1)) <= 1e-8
    assert abs(q.rho_alpha(1, 1, 0.9) - 0.1 ** (1.0 / 3.0)) <= 1e-8
    checked = 0
    for m in range(1, 11):
        for b in range(0, 6):
            for alpha in (0.5, 0.9, 0.95):
                rho = q.rho_alpha(m, b, alpha)
                target = 1.0 / (1.0 - alpha)
                assert abs(q.service_level_lhs(m, b, rho) - target) <= 1e-8 * target
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, True, f"closed forms within 1e-8; {checked} roots verified in {elapsed:.2f}s")


def test_criterion_2_surrogate_equivalence():
    t0 = time.monotonic()
    mu = 4.0
    checked = 0
    for s in range(1, 7):
        for b in range(0, 4):
            for alpha in (0.8, 0.9):
                lam = mu * q.rho_alpha(s, b, alpha)
                at = q.mms_measures(lam, mu, s, b)
                assert at.p_le_b >= alpha - 1e-6, (s, b, alpha)
                above = q.mms_measures(lam * 1.01, mu, s, b)
                assert above.p_le_b < alpha, (s, b, alpha)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(2, True, f"{checked} threshold loads hit the level exactly in {elapsed:.2f}s")


def test_criterion_3_model_size_arithmetic():
    import dataclasses

    t0 = time.monotonic()
    sizes = {}
    for mj, expect in ((8, 1080), (10, 1320)):
        params = dataclasses.replace(PRESETS["small"], m_max=mj)
        inst = generate(params, 0)
        em = build_evcec(inst)
        sizes[mj] = em.model.num_binaries
        assert sizes[mj] == expect, f"M={mj}: {sizes[mj]} binaries, expected {expect}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(3, True, f"binary counts {sizes} in {elapsed:.2f}s")


def test_criterion_4_relax_and_round_feasibility():
    t0 = time.monotonic()
    worst_gap = 0.0
    for seed in range(100):
        inst = generate(PRESETS["tiny"], seed)
        res = approximate(inst)
        assert res.status == "optimal", f"seed {seed}: {res.status}"
        rep = check_feasible(inst, res.deployment)
        assert rep.feasible, f"seed {seed}: {rep.violations[:3]}"
        assert res.z_appr >= res.lb - 1e-9, f"seed {seed}"
        assert 0.0 <= res.gap_lb < 1.0, f"seed {seed}: gap {res.gap_lb}"
        worst_gap = max(worst_gap, res.gap_lb)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    report(4, True, f"100 roundings feasible, max gap_lb {worst_gap:.3f}, {elapsed:.0f}s")


def test_criterion_5_branch_and_price_oracle_equality(oracle_solutions):
    t0 = time.monotonic()
    worst = 0.0
    for rec in oracle_solutions:
        bp = rec["bp"]
        assert bp.status == "optimal", (rec["seed"], rec["b"], bp.status)
        rel = abs(bp.z - rec["z"]) / max(abs(rec["z"]), 1e-9)
        assert rel <= 1e-6, (rec["seed"], rec["b"], bp.z, rec["z"])
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    assert elapsed < 1200.0, f"took {elapsed:.1f}s"
    report(5, True,
           f"{len(oracle_solutions)} instance/b pairs equal within 1e-6 "
           f"(worst {worst:.2e})")


def test_criterion_6_objective_monotone_in_b(sweep_solutions):
    strict_anywhere = False
    for seed in SWEEP_SEEDS:
        zs = [sweep_solutions[seed, b][2] for b in SWEEP_B_VALUES]
        for lo, hi in zip(zs, zs[1:]):
            assert hi <= lo + 1e-6, f"seed {seed}: {zs}"
            if hi < lo - 1e-6:
                strict_anywhere = True
    assert strict_anywhere, "no strict decrease anywhere in the sweep"
    report(6, True, f"objectives nonincreasing over b on {len(SWEEP_SEEDS)} instances, "
                    f"with strict decreases")


def test_criterion_7_heuristic_feasible_fast_never_beats_oracle(oracle_solutions):
    t0 = time.monotonic()
    for preset in ("tiny", "small", "medium"):
        for seed in range(100):
            inst = generate(PRESETS[preset], seed)
            dep = best_greedy(inst)
            assert check_feasible(inst, dep).feasible, (preset, seed)
    feas_elapsed = time.monotonic() - t0
    for rec in oracle_solutions:
        z_heur = objective_value(rec["inst"], best_greedy(rec["inst"]))
        assert z_heur >= rec["z"] - 1e-6, (rec["seed"], rec["b"], z_heur, rec["z"])
    inst = generate(PRESETS["medium"], 0)
    t1 = time.monotonic()
    best_greedy(inst)
    timed = time.monotonic() - t1
    assert timed < 5.0, f"medium preset took {timed:.2f}s"
    report(7, True, f"300 greedy runs feasible ({feas_elapsed:.0f}s); "
                    f"never beats the oracle; medium run {timed:.2f}s")


def test_criterion_8_metric_formulas_reproduce_benchmarks():
    ts = compare_metrics(t_star=194.0, z_star=1.0, t_alg=62.0, z_alg=1.0)["ts"]
    assert f"{ts:.1f}%" == "68.0%"
    gap = compare_metrics(t_star=1.0, z_star=68841.0, t_alg=1.0, z_alg=68159.0)["gap"]
    assert f"{gap * 100:.1f}%" == "-1.0%"
    report(8, True, "time-saving and gap formulas print 68.0% and -1.0%")


def test_criterion_9_decomposition_identities():
    rng = random.Random(20240)
    checked = 0
    for seed in (0, 2, 5):
        inst = generate(PRESETS["tiny"], seed)
        coeffs = cost_coefficients(inst)
        for _ in range(17):
            dep = random_monotone_deployment(inst, rng)
            total = sum(c.cost for c in columns_from_deployment(inst, coeffs, dep))
            direct = objective_value(inst, dep)
            assert abs(total - coeffs.psi - direct) <= 1e-6 * max(1.0, abs(direct))
            checked += 1
    assert checked >= 50
    for seed in (1, 4):
        inst = generate(PRESETS["tiny"], seed)
        coeffs = cost_coefficients(inst)
        pool = columns_from_deployment(inst, coeffs, best_greedy(inst))
        res = column_generation(Master(inst, coeffs, pool), Fixings())
        assert res.status == "converged"
        values = [rec["rmp_value"] for rec in res.iterations]
        assert all(b <= a + 1e-7 for a, b in zip(values, values[1:]))
        for rec in res.iterations:
            if rec["lagrangian_lb"] > -math.inf:
                assert rec["lagrangian_lb"] <= rec["rmp_value"] + 1e-7
    report(9, True, f"telescoping holds on {checked} deployments; "
                    f"bounds sandwich every iteration")


def test_criterion_10_service_level_audit(oracle_solutions, sweep_solutions):
    audited = 0
    solved = [(rec["inst"], rec["dep"]) for rec in oracle_solutions]
    solved += [(inst, dep) for (inst, dep, _) in sweep_solutions.values()]
    for inst, dep in solved:
        alpha = inst.queue.alpha
        for n in inst.node_ids():
            rates = station_rates(inst, dep.open[n], n)
            for j in range(inst.n_locations):
                if not dep.open[n][j]:
                    continue
                p = oracle_p_le_b(rates[j], inst.queue.mu, dep.posts[n][j], inst.queue.b)
                assert p >= alpha - 1e-6, (n, j, p)
                audited += 1
    report(10, True, f"{audited} open stations meet the service level "
                     f"(independent birth-death evaluation)")
