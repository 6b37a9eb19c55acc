import math

import numpy as np
import pytest

from twrc import (
    SolverError,
    ValidationError,
    analytic_rb_bound,
    analytic_weighted_bound,
    cap,
    capacity_thresholds,
    dual_of,
    dual_point_feasible,
    link_capacities,
    one_way_bound,
    one_way_bound_ab,
    outer_ratio_bound,
    outer_weighted_bound,
    ratio_bound_lp,
    rb_dual_point,
    solve_lp,
    validate_gains,
    weighted_bound_lp,
)
import twrc.achievable
import twrc.outer
from conftest import highs_ray_rate, random_gains, weighted_ray_bound, wide_channels

# closed form C(100)/2 for the symmetric case-B ray
CASE_B_SYMMETRIC = 3.3291057413758973
# closed form (C(g3) + C((sqrt(g) + sqrt(g3))^2)) / 4 at case B
CASE_B_MIXED_TERM = 2.5423571145059247


# channels of wide_channels(default_rng(2026), 300) on which the simplex
# breaks down at k = 1e6
LARGE_K_BREAKDOWNS = (165, 290)
# the exact optimum Ra of the cut-set program at k = 1e6 on channel 27 of
# wide_channels(default_rng(2026), 60)
LARGE_K_EXACT_RA = 2.1054738223345672e-05


def check_large_k_against_highs(g):
    c = link_capacities(g)
    A = np.zeros((5, 8))
    A[:2, 0] = A[2:4, 1] = 1.0
    A[:4, 2:] = -np.array([[c.c13, 0, c.c1, 0, c.c3, 0], [c.c3, 0, 0, c.c2, c.c23_coh, 0],
                           [0, c.c23, c.c2, 0, 0, c.c3], [0, c.c3, 0, c.c1, 0, c.c13_coh]])
    A[4, 2:] = 1.0
    ref, scale = highs_ray_rate(A, ("<=",) * 5, (0, 0, 0, 0, 1), 1e6)
    rb = outer_ratio_bound(1e6, g).rb
    assert abs(rb - ref) <= 1e-6 * max(ref, 1e-9 * scale), (g, rb, ref)


class TestRatioBound:
    def test_case_b_symmetric_anchor(self, case_b):
        p = outer_ratio_bound(1.0, case_b)
        assert p.rb == pytest.approx(CASE_B_SYMMETRIC, abs=1e-3)
        # ... and in fact the LP meets the closed form to solver precision
        assert p.rb == pytest.approx(CASE_B_SYMMETRIC, abs=1e-9)
        assert p.ra == pytest.approx(p.rb)

    def test_k_zero_equals_one_way(self, case_a, case_b, case_c, low_snr):
        for g in (case_a, case_b, case_c, low_snr):
            assert outer_ratio_bound(0.0, g).rb == pytest.approx(one_way_bound(g), abs=1e-6)

    def test_zero_gains(self):
        p = outer_ratio_bound(1.0, validate_gains(0.0, 0.0, 0.0))
        assert p.rb == 0.0
        assert p.ra == 0.0

    def test_rejects_bad_k(self, case_a):
        with pytest.raises(ValidationError):
            outer_ratio_bound(-1.0, case_a)
        with pytest.raises(ValidationError):
            outer_ratio_bound(math.nan, case_a)

    def test_at_most_four_active_states(self, case_a):
        rng = np.random.default_rng(1)
        for g in random_gains(rng, 20) + [case_a]:
            for k in (0.0, 0.3, 1.0, 2.5, math.inf):
                p = outer_ratio_bound(k, g)
                assert len(p.active_states) <= 4

    def test_formulations_agree(self, case_a):
        for k in (0.0, 0.5, 1.0, 3.0):
            a = outer_ratio_bound(k, case_a)
            b = weighted_ray_bound(k, case_a)
            assert a.rb == pytest.approx(b.rb, abs=1e-9)

    def test_ra_axis_mode(self, case_a):
        p = outer_ratio_bound(math.inf, case_a)
        assert p.rb == 0.0
        assert p.ra == pytest.approx(one_way_bound_ab(case_a), abs=1e-9)

    def test_tied_program_is_the_printed_one(self, case_a, low_snr, monkeypatch):
        # for k <= 1 the ray substituted into the cut-set system is the
        # per-ray program as the paper prints it, bit for bit
        solved = []
        real = twrc.achievable.solve_lp
        monkeypatch.setattr(twrc.achievable, "solve_lp",
                            lambda lp, basis=(): solved.append(lp) or real(lp, basis))
        for g in (case_a, low_snr, validate_gains(0.0, 0.0, 0.0)):
            for k in (0.0, 0.3, 1.0):
                solved.clear()
                outer_ratio_bound(k, g)
                (lp,), paper = solved, ratio_bound_lp(k, g)
                for field in ("objective", "matrix", "rhs"):
                    got, want = getattr(lp, field), getattr(paper, field)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, field)
                assert (lp.relations, lp.bounds, lp.sense) == (
                    paper.relations, paper.bounds, paper.sense)

    def test_large_k_matches_highs(self):
        # k = 1e6 over the whole SNR range, against HiGHS
        for i, g in enumerate(wide_channels(np.random.default_rng(2026), 300)):
            if i not in LARGE_K_BREAKDOWNS:
                check_large_k_against_highs(g)

    @pytest.mark.xfail(raises=SolverError, strict=False,
                       reason="degenerate pivot on 3e-9 leaves the time shares summing to 1 + 1e-8")
    @pytest.mark.parametrize("index", LARGE_K_BREAKDOWNS)
    def test_large_k_breakdown_channels(self, index):
        check_large_k_against_highs(wide_channels(np.random.default_rng(2026), 300)[index])

    @pytest.mark.xfail(strict=True, reason="the cold basis keeps a slack at -2.1e-11, "
                                           "so Ra is 1.3e-7 above the exact optimum")
    def test_large_k_cold_solve_is_exact(self):
        # channel 27 of wide_channels(default_rng(2026), 60) at k = 1e6: the
        # exact optimum, found by checking every basis of the ray program in
        # fractions, against a lone (cold) solve
        g = wide_channels(np.random.default_rng(2026), 60)[27]
        assert outer_ratio_bound(1e6, g).ra == pytest.approx(LARGE_K_EXACT_RA, rel=1e-12, abs=0.0)

    def test_monotone_in_each_gain(self):
        rng = np.random.default_rng(9)
        for g in random_gains(rng, 10):
            grown = (
                validate_gains(g.gamma1, g.gamma2 * 1.5, g.gamma3),
                validate_gains(min(g.gamma1 * 1.2, g.gamma2), g.gamma2, g.gamma3),
                validate_gains(g.gamma1, g.gamma2, min(g.gamma1, g.gamma3 * 1.5)),
            )
            for k in (0.5, 1.0, 2.0):
                base = outer_ratio_bound(k, g).rb
                for bigger in grown:
                    assert outer_ratio_bound(k, bigger).rb >= base - 1e-9

    def test_symmetric_gains_mirror(self):
        g = validate_gains(50.0, 50.0, 5.0)
        for k in (0.25, 0.8, 2.0, 4.0):
            p = outer_ratio_bound(k, g)
            q = outer_ratio_bound(1.0 / k, g)
            assert q.rb == pytest.approx(p.ra, abs=1e-8)


class TestWeightedBound:
    def test_one_way_weight(self):
        g = validate_gains(1.0, 3.0, 0.0)
        w = outer_weighted_bound(1.0, 0.0, g)
        # two-hop a -> b value C(1)C(3)/(C(1)+C(3)) = 2/3
        assert w.value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_sum_rate_unit_gains(self):
        g = validate_gains(1.0, 1.0, 0.0)
        w = outer_weighted_bound(1.0, 1.0, g)
        assert w.value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_zero_weights(self, case_a):
        with pytest.raises(ValidationError):
            outer_weighted_bound(0.0, 0.0, case_a)

    def test_reported_point_attains_value(self, case_a):
        w = outer_weighted_bound(2.0, 1.0, case_a)
        assert 2.0 * w.ra + w.rb == pytest.approx(w.value, abs=1e-9)


class TestAnalyticRbBound:
    def test_case_b_terms(self, case_b):
        assert analytic_rb_bound(1.0, case_b) == pytest.approx(CASE_B_SYMMETRIC, abs=1e-12)
        caps = link_capacities(case_b)
        mixed = 0.25 * (caps.c3 + caps.c13_coh)
        assert mixed == pytest.approx(CASE_B_MIXED_TERM, abs=1e-12)

    def test_zero_gains(self):
        assert analytic_rb_bound(1.0, validate_gains(0.0, 0.0, 0.0)) == 0.0

    def test_rejects_nonpositive_k(self, case_a):
        with pytest.raises(ValidationError):
            analytic_rb_bound(0.0, case_a)

    def test_weak_duality_vs_lp(self, case_a, case_b, case_c, low_snr):
        rng = np.random.default_rng(17)
        gains = [case_a, case_b, case_c, low_snr] + random_gains(rng, 30)
        for g in gains:
            for k in (0.25, 0.5, 1.0, 2.0, 4.0):
                assert analytic_rb_bound(k, g) >= outer_ratio_bound(k, g).rb - 1e-9

    def test_k1_delivery_cut_term_dominates(self):
        # at k = 1 state 6's row (b-side delivery cut) is at least state 1's
        # (a-side broadcast cut), in both terminal orientations
        for g in wide_channels(np.random.default_rng(5), 2000):
            for caps in (link_capacities(g), link_capacities(g).swapped()):
                rows = twrc.outer._state_rows(caps, twrc.outer._rb_multipliers(1.0, caps))
                assert rows[0] <= rows[5] + 1e-12, (g, rows)

    def test_small_k_mirror_consistency(self):
        g = validate_gains(40.0, 40.0, 2.0)
        for k in (0.2, 0.5):
            assert analytic_rb_bound(k, g) == pytest.approx(
                analytic_rb_bound(1.0 / k, g) / k, rel=1e-12)


class TestDualPoint:
    def test_case_a_feasible(self, case_a):
        ok, slack = dual_point_feasible(1.0, case_a)
        assert ok
        assert slack >= -1e-9

    def test_random_gains_feasible(self):
        rng = np.random.default_rng(23)
        for g in random_gains(rng, 100):
            ok, slack = dual_point_feasible(2.0, g)
            assert ok, (g, slack)

    def test_normalization_exact_at_k1(self, case_a):
        p = rb_dual_point(1.0, case_a)
        assert p.y1 + p.y2 + p.y3 + p.y4 == pytest.approx(1.0, abs=1e-12)

    def test_objective_matches_analytic_bound(self, case_a, case_c):
        # the bound is its own certificate's objective, bit for bit
        rng = np.random.default_rng(29)
        for g in [case_a, case_c] + wide_channels(rng, 5000):
            for k in (1.0, 1.7, float(10.0 ** rng.uniform(0.0, 3.0))):
                assert rb_dual_point(k, g).y5 == analytic_rb_bound(k, g), (g, k)

    def test_rejects_k_below_one(self, case_a):
        with pytest.raises(ValidationError):
            rb_dual_point(0.5, case_a)


class TestMechanicalDual:
    def test_ratio_dual_matches_printed_rows(self, case_a):
        k = 1.5
        d = dual_of(ratio_bound_lp(k, case_a))
        caps = link_capacities(case_a)
        assert d.sense == "min"
        # minimize the budget-row multiplier
        assert d.objective.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        # first dual row: the rate column, k(y1 + y2) + y3 + y4 >= 1
        assert d.matrix[0].tolist() == [k, k, 1.0, 1.0, 0.0]
        assert d.rhs[0] == 1.0
        # per-state rows: y5 >= (capacity-weighted multipliers)
        expected = [
            [-caps.c13, -caps.c3, 0.0, 0.0, 1.0],
            [0.0, 0.0, -caps.c23, -caps.c3, 1.0],
            [-caps.c1, 0.0, -caps.c2, 0.0, 1.0],
            [0.0, -caps.c2, 0.0, -caps.c1, 1.0],
            [-caps.c3, -caps.c23_coh, 0.0, 0.0, 1.0],
            [0.0, 0.0, -caps.c3, -caps.c13_coh, 1.0],
        ]
        assert np.allclose(d.matrix[1:], expected)
        assert all(r == ">=" for r in d.relations)
        assert np.allclose(d.rhs[1:], 0.0)

    def test_strong_duality_of_ratio_program(self, case_a):
        lp = ratio_bound_lp(2.0, case_a)
        primal = solve_lp(lp)
        dual = solve_lp(dual_of(lp))
        assert primal.value == pytest.approx(dual.value, abs=1e-8)

    def test_random_normalized_multipliers_upper_bound_lp(self, case_a):
        # any y >= 0 on the normalization plane, completed with y5 = max of
        # the state rows, is dual feasible and dominates the primal optimum
        rng = np.random.default_rng(4)
        caps = link_capacities(case_a)
        for k in (1.0, 2.0):
            rb = outer_ratio_bound(k, case_a).rb
            for _ in range(25):
                y = rng.uniform(0.1, 1.0, size=4)
                y /= k * (y[0] + y[1]) + y[2] + y[3]
                rows = (
                    y[0] * caps.c13 + y[1] * caps.c3,
                    y[2] * caps.c23 + y[3] * caps.c3,
                    y[0] * caps.c1 + y[2] * caps.c2,
                    y[1] * caps.c2 + y[3] * caps.c1,
                    y[0] * caps.c3 + y[1] * caps.c23_coh,
                    y[2] * caps.c3 + y[3] * caps.c13_coh,
                )
                assert max(rows) >= rb - 1e-9


class TestOneWayBound:
    def test_two_hop_reduction(self):
        g = validate_gains(1.0, 3.0, 0.0)
        assert one_way_bound(g) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_gains(self):
        assert one_way_bound(validate_gains(0.0, 0.0, 0.0)) == 0.0

    def test_dominates_k_zero_lp(self, case_a):
        assert one_way_bound(case_a) >= outer_ratio_bound(0.0, case_a).rb - 1e-6

    def test_mirror_direction(self, case_a):
        caps = link_capacities(case_a)
        v = one_way_bound_ab(case_a)
        den = caps.c13 + caps.c23_coh - 2.0 * caps.c3
        assert v == pytest.approx((caps.c13 * caps.c23_coh - caps.c3 ** 2) / den)


class TestAnalyticWeightedBound:
    def test_unit_gains_no_direct_link(self):
        g = validate_gains(1.0, 1.0, 0.0)
        assert analytic_weighted_bound(1.0, g) == pytest.approx(1.0, abs=1e-12)

    def test_k_zero_reduces_to_one_way(self, case_a, case_c):
        for g in (case_a, case_c):
            assert analytic_weighted_bound(0.0, g) == pytest.approx(
                one_way_bound(g), abs=1e-12)

    def test_bound_is_the_dual_objective_at_its_multipliers(self, case_a, case_b, low_snr):
        # y1..y4 from the two one-way balances, y5 = the bound: a feasible point
        # of the weighted program's dual whose objective is the bound
        for g in [case_a, case_b, low_snr] + wide_channels(np.random.default_rng(37), 300):
            c = link_capacities(g)
            den_a = c.c13 + c.c23_coh - 2.0 * c.c3
            den_b = c.c23 + c.c13_coh - 2.0 * c.c3
            for k in (0.0, 0.3, 1.0, 2.5, 1e3):
                bound = analytic_weighted_bound(k, g)
                y = np.array([k * (c.c23_coh - c.c3) / den_a, k * (c.c13 - c.c3) / den_a,
                              (c.c13_coh - c.c3) / den_b, (c.c23 - c.c3) / den_b, bound])
                d = dual_of(weighted_bound_lp(k, 1.0, g))
                assert all(r == ">=" for r in d.relations) and np.all(y >= 0.0)
                tol = 1e-12 * max(1.0, k) * max(1.0, c.c13_coh, c.c23_coh)
                assert np.all(d.matrix @ y >= d.rhs - tol), (g, k, d.matrix @ y - d.rhs)
                assert d.objective @ y == bound

    def test_weak_duality_vs_weighted_lp(self, case_a, case_b, low_snr):
        rng = np.random.default_rng(31)
        gains = [case_a, case_b, low_snr] + random_gains(rng, 30)
        for g in gains:
            for k in (0.0, 0.25, 1.0, 2.0, 4.0):
                lp_value = outer_weighted_bound(k, 1.0, g).value
                assert analytic_weighted_bound(k, g) >= lp_value - 1e-9


class TestThresholds:
    def test_symmetric_anchor_against_root_oracle(self):
        g = validate_gains(100.0, 100.0, 0.0)
        th = capacity_thresholds(g)
        from scipy.optimize import brentq

        def f(x):
            return cap(x) + cap((10.0 + math.sqrt(x)) ** 2) - 2.0 * cap(100.0)

        oracle = brentq(f, 1e-12, 100.0, xtol=1e-13, rtol=1e-15)
        assert th.gamma30 == pytest.approx(oracle, rel=1e-6)
        assert th.gamma30 == pytest.approx(37.92249123798683, rel=1e-9)
        assert th.operative == th.gamma30

    def test_small_roots_against_root_oracle(self):
        # roots below 1 must still meet the relative tolerance
        from scipy.optimize import brentq

        roots = []
        for g in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.6):
            th = capacity_thresholds(validate_gains(g, g, 0.0))

            def f(x, g=g):
                return cap(x) + cap((math.sqrt(g) + math.sqrt(x)) ** 2) - 2.0 * cap(g)

            oracle = brentq(f, 0.0, 1.0, xtol=1e-300, rtol=1e-14, maxiter=500)
            assert th.gamma30 == pytest.approx(oracle, rel=1e-8)
            roots.append(th.gamma30)
        assert min(roots) < 2e-6 and max(roots) > 1e-1

    def test_small_asymmetric_roots_against_root_oracle(self):
        from scipy.optimize import brentq

        for g1, g2 in ((1e-5, 1e-4), (1e-3, 1e-1), (1e-2, 0.5)):
            th = capacity_thresholds(validate_gains(g1, g2, 0.0))
            c1, c2 = cap(g1), cap(g2)
            for got, own, other, root in ((th.gamma31, c2, c1, math.sqrt(g2)),
                                          (th.gamma32, c1, c2, math.sqrt(g1))):
                def f(x):
                    return own * cap(x) + other * cap((root + math.sqrt(x)) ** 2) - 2 * c1 * c2

                oracle = brentq(f, 0.0, 1.0, xtol=1e-300, rtol=1e-14, maxiter=500)
                assert got == pytest.approx(oracle, rel=1e-8)

    def test_defining_equation_residual(self):
        for g2 in (10.0, 100.0, 1000.0):
            g = validate_gains(g2, g2, 0.0)
            th = capacity_thresholds(g)
            f = cap(th.gamma30) + cap((math.sqrt(g2) + math.sqrt(th.gamma30)) ** 2)
            assert f == pytest.approx(2.0 * cap(g2), abs=1e-8)

    def test_asymmetric_equations(self):
        g = validate_gains(10.0, 100.0, 0.0)
        th = capacity_thresholds(g)
        c1, c2 = cap(10.0), cap(100.0)
        f1 = c2 * cap(th.gamma31) + c1 * cap((10.0 + math.sqrt(th.gamma31)) ** 2)
        f2 = c1 * cap(th.gamma32) + c2 * cap((math.sqrt(10.0) + math.sqrt(th.gamma32)) ** 2)
        assert f1 == pytest.approx(2.0 * c1 * c2, abs=1e-8)
        assert f2 == pytest.approx(2.0 * c1 * c2, abs=1e-8)
        assert th.operative == min(th.gamma31, th.gamma32)

    def test_increasing_threshold_functions(self):
        # unique roots: the defining functions increase strictly in gamma3
        g1, g2 = 10.0, 100.0
        c1, c2 = cap(g1), cap(g2)
        xs = np.linspace(0.0, 50.0, 200)
        f1 = [c2 * cap(x) + c1 * cap((math.sqrt(g2) + math.sqrt(x)) ** 2) for x in xs]
        f2 = [c1 * cap(x) + c2 * cap((math.sqrt(g1) + math.sqrt(x)) ** 2) for x in xs]
        assert all(b > a for a, b in zip(f1, f1[1:]))
        assert all(b > a for a, b in zip(f2, f2[1:]))

    def test_rejects_zero_relay_links(self):
        with pytest.raises(ValidationError):
            capacity_thresholds(validate_gains(0.0, 1.0, 0.0))

    def test_asymmetric_path_coincides_at_nearly_equal_links(self):
        # at gamma1 = gamma2 both mixed equations collapse onto the
        # symmetric one, so min(gamma31, gamma32) tends to gamma30
        sym = capacity_thresholds(validate_gains(100.0, 100.0, 0.0))
        near = capacity_thresholds(validate_gains(100.0 * (1 - 1e-11), 100.0, 0.0))
        assert near.gamma31 == pytest.approx(sym.gamma30, rel=1e-8)
        assert near.gamma32 == pytest.approx(sym.gamma30, rel=1e-8)
        assert near.operative == pytest.approx(sym.operative, rel=1e-8)
