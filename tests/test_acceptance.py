"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The heavy shared tables (outer bound and protocol
boundaries over the named cases plus 500 random gain triples) are computed
once per session.
"""

import math

import numpy as np
import pytest

from twrc import (
    analytic_rb_bound,
    analytic_weighted_bound,
    cap,
    capacity_thresholds,
    comabc_boundary,
    db_to_linear,
    dual_of,
    dual_point_feasible,
    hausdorff_distance,
    hbc_boundary,
    mabc_boundary,
    max_radial_gap,
    outer_ratio_bound,
    outer_weighted_bound,
    preset_scenario,
    protocol_evaluator,
    run_compare,
    six_state_boundary,
    solve_lp,
    sweep_region,
    symmetric_rate,
    validate_gains,
)
from twrc.achievable import df_evaluator
from conftest import random_gains, weighted_ray_bound
from test_lp import random_feasible_bounded_lp

K_VALUES = (0.25, 0.5, 1.0, 2.0, 4.0)
N_RANDOM = 500
SEED = 20260811

# acceptance-scale resolution for the power-split search: any grid point is a
# valid protocol operating point, so safety/nesting checks hold at any size
DF_ALPHA_GRID = 3


def report(criterion, ok, detail=""):
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="session")
def named_cases(case_a, case_b, case_c, low_snr):
    return {"case-a": case_a, "case-b": case_b, "case-c": case_c, "low-snr": low_snr}


@pytest.fixture(scope="session")
def gain_set(named_cases):
    rng = np.random.default_rng(SEED)
    return list(named_cases.values()) + random_gains(rng, N_RANDOM)


@pytest.fixture(scope="session")
def outer_table(gain_set):
    return {(i, k): outer_ratio_bound(k, g).rb
            for i, g in enumerate(gain_set) for k in K_VALUES}


@pytest.fixture(scope="session")
def protocol_table(gain_set):
    # per protocol, gains -> (k -> point); DF states its channel once for
    # the five rays, as a sweep does (bit for bit a lone call's points)
    evaluators = {
        "mabc": lambda g: lambda k: mabc_boundary(k, g),
        "tdbc": lambda g: lambda k: hbc_boundary(k, g, tdbc_only=True),
        "hbc": lambda g: lambda k: hbc_boundary(k, g),
        "six-state": lambda g: lambda k: six_state_boundary(k, g),
        "six-state-df": lambda g: df_evaluator(g, alpha_grid=DF_ALPHA_GRID, refine=False),
        "comabc": lambda g: lambda k: comabc_boundary(k, g),
    }
    return {name: {(i, k): point(k).rb for i, g in enumerate(gain_set)
                   for point in [make(g)] for k in K_VALUES}
            for name, make in evaluators.items()}


def test_criterion_1_symmetric_capacity_anchor(case_b):
    closed_form = cap(100.0) / 2.0
    analytic = analytic_rb_bound(1.0, case_b)
    lp = outer_ratio_bound(1.0, case_b).rb
    ok = (abs(analytic - closed_form) <= 1e-12 and abs(lp - closed_form) <= 1e-3)
    report(1, ok, f"analytic={analytic:.10f} lp={lp:.10f} C(100)/2={closed_form:.10f}")


def test_criterion_2_at_most_four_states(named_cases):
    violations = 0
    checked = 0
    for name in ("case-a", "case-b", "case-c"):
        reg = sweep_region(protocol_evaluator("outer", named_cases[name]),
                           named_cases[name], 181)
        for p in reg.points:
            checked += 1
            if len(p.active_states) > 4:
                violations += 1
    report(2, violations == 0, f"{checked} vertices checked, {violations} violations")


def test_criterion_3_safety_containment(gain_set, outer_table, protocol_table):
    worst = -math.inf
    for name, table in protocol_table.items():
        for key, rb in table.items():
            worst = max(worst, rb - outer_table[key])
    ok = worst <= 1e-6
    report(3, ok, f"max protocol-minus-outer over {len(gain_set)} gains x "
                  f"{len(K_VALUES)} rays x {len(protocol_table)} protocols: {worst:.2e}")


def test_criterion_4_nesting(protocol_table):
    # each protocol is a feasible restriction of its superset protocol:
    # MABC and TDBC inside HBC, HBC inside the six-state protocol
    worst = -math.inf
    for small, large in (("mabc", "hbc"), ("tdbc", "hbc"), ("hbc", "six-state")):
        for key, rb in protocol_table[small].items():
            worst = max(worst, rb - protocol_table[large][key])
    ok = worst <= 1e-9
    report(4, ok, f"max nesting violation: {worst:.2e}")


def test_criterion_5_weak_duality(gain_set, outer_table):
    worst_ratio = math.inf
    worst_weighted = math.inf
    worst_slack = math.inf
    for i, g in enumerate(gain_set):
        for k in K_VALUES:
            worst_ratio = min(worst_ratio, analytic_rb_bound(k, g) - outer_table[(i, k)])
            lp_w = outer_weighted_bound(k, 1.0, g).value
            worst_weighted = min(worst_weighted, analytic_weighted_bound(k, g) - lp_w)
            if k >= 1.0:
                _, slack = dual_point_feasible(k, g)
                worst_slack = min(worst_slack, slack)
    ok = (worst_ratio >= -1e-9 and worst_weighted >= -1e-9 and worst_slack >= -1e-9)
    report(5, ok, f"margins: ratio={worst_ratio:.2e} weighted={worst_weighted:.2e} "
                  f"dual_slack={worst_slack:.2e}")


def test_criterion_6_two_hop_reduction():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        g2 = db_to_linear(rng.uniform(-10.0, 35.0))
        g1 = g2 * db_to_linear(-rng.uniform(0.0, 10.0))
        g = validate_gains(g1, g2, 0.0)
        lp = outer_ratio_bound(0.0, g).rb
        closed = cap(g1) * cap(g2) / (cap(g1) + cap(g2))
        worst = max(worst, abs(lp - closed))
    report(6, worst <= 1e-6, f"max |LP(0) - two-hop closed form| = {worst:.2e}")


def test_criterion_7_formulation_equivalence(named_cases):
    worst = 0.0
    for name in ("case-a", "case-b", "case-c"):
        g = named_cases[name]
        base = sweep_region(protocol_evaluator("outer", g), g, 181)
        alt = sweep_region(lambda k: weighted_ray_bound(k, g),
                           g, 181)
        worst = max(worst, hausdorff_distance(base, alt))
    report(7, worst <= 1e-6, f"max Hausdorff distance over cases A/B/C: {worst:.2e}")


def test_criterion_8_threshold_solver():
    from scipy.optimize import brentq

    gamma = db_to_linear(20.0)
    th = capacity_thresholds(validate_gains(gamma, gamma, 0.0))
    root = math.sqrt(gamma)

    def f(x):
        return cap(x) + cap((root + math.sqrt(x)) ** 2)

    oracle = brentq(lambda x: f(x) - 2.0 * cap(gamma), 1e-12, gamma,
                    xtol=1e-13, rtol=8.9e-16)
    rel_err = abs(th.gamma30 - oracle) / oracle
    residual = abs(f(th.gamma30) - 2.0 * cap(gamma))

    monotone = True
    for c in (1.0, 0.5, 0.1):
        prev = -math.inf
        for db in np.arange(0.0, 40.0 + 1e-9, 2.0):
            g2 = db_to_linear(db)
            t = capacity_thresholds(validate_gains(c * g2, g2, 0.0)).operative
            if t < prev - 1e-9:
                monotone = False
            prev = t
    ok = rel_err <= 1e-6 and residual <= 1e-8 and monotone
    report(8, ok, f"gamma30={th.gamma30:.6f} (oracle {oracle:.6f}, rel err "
                  f"{rel_err:.2e}), residual={residual:.2e}, curves monotone={monotone}")


def test_criterion_9_figure_reproductions(named_cases):
    # (a) high SNR: CoMABC nearly meets the outer bound at the symmetric point
    # while the six-state protocol wins on the asymmetric ray k = 4
    g = named_cases["case-c"]
    outer_sym = outer_ratio_bound(1.0, g).rb
    comabc_sym = comabc_boundary(1.0, g).rb
    rel_gap_c = (outer_sym - comabc_sym) / outer_sym
    six_beats_comabc_at_4 = (six_state_boundary(4.0, g).rb
                             > comabc_boundary(4.0, g).rb)

    # (b) low SNR: the six-state protocol beats CoMABC at the symmetric point
    low = named_cases["low-snr"]
    six_low = six_state_boundary(1.0, low).rb
    comabc_low = comabc_boundary(1.0, low).rb

    # (c) the six-state protocol tracks the outer bound more closely at the
    # higher-SNR case A than at the low-SNR case (gaps normalized by the
    # outer symmetric rate)
    norm_gaps = {}
    for name in ("case-a", "low-snr"):
        gg = named_cases[name]
        out = sweep_region(protocol_evaluator("outer", gg), gg, 181)
        six = sweep_region(protocol_evaluator("six-state", gg), gg, 181)
        gap, _ = max_radial_gap(out, six)
        norm_gaps[name] = gap / symmetric_rate(out)

    ok_a = rel_gap_c <= 0.02 and six_beats_comabc_at_4
    ok_b = six_low > comabc_low
    ok_c = norm_gaps["case-a"] < norm_gaps["low-snr"]
    report(9, ok_a and ok_b and ok_c,
           f"(a) case-c comabc gap {rel_gap_c:.4%}, six>comabc@k=4 "
           f"{six_beats_comabc_at_4}; (b) low-snr six {six_low:.4f} > comabc "
           f"{comabc_low:.4f}; (c) norm gaps {norm_gaps['case-a']:.4f} < "
           f"{norm_gaps['low-snr']:.4f}")


def test_criterion_10_lp_engine_and_cli_determinism(tmp_path):
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(100):
        lp = random_feasible_bounded_lp(rng)
        s = solve_lp(lp)
        d = solve_lp(dual_of(lp))
        assert s.status == "optimal" and d.status == "optimal"
        worst = max(worst, abs(s.value - d.value))

    sc = preset_scenario("case-a", theta_points=9, alpha_grid=3,
                         protocols=("mabc", "six-state", "comabc"))
    runs = []
    for sub in ("r1", "r2"):
        paths = run_compare(sc, out_dir=tmp_path / sub)
        runs.append([p.read_bytes() for p in sorted(paths)])
    identical = runs[0] == runs[1]
    ok = worst <= 1e-8 and identical
    report(10, ok, f"strong-duality worst gap {worst:.2e}; CLI byte-identical "
                   f"across runs: {identical}")
