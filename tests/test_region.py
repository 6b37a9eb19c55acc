import math

import numpy as np
import pytest

from twrc import (
    PRESETS,
    BoundaryPoint,
    GainsMismatchError,
    ValidationError,
    ZERO_SHARES,
    contains,
    convex_hull,
    db_to_linear,
    hausdorff_distance,
    max_radial_gap,
    outer_ratio_bound,
    preset_scenario,
    protocol_evaluator,
    ray_grid,
    six_state_df_boundary,
    support_along_ray,
    sweep_region,
    symmetric_rate,
    validate_gains,
)
from twrc.cli import PROTOCOL_IDS
from twrc.region import SweepError, supports_along_rays
from conftest import weighted_ray_bound

# closed-form anchors reused from the bound/protocol tests
CASE_B_SYMMETRIC = 3.3291057413758973
MABC_UNIT_SYMMETRIC = 0.4421141086977403


def unit_square_evaluator(k):
    """Ray intersection with the square [0,1]^2 (synthetic boundary)."""
    if isinstance(k, float) and math.isinf(k):
        return BoundaryPoint(1.0, 0.0, ZERO_SHARES)
    rb = min(1.0, 1.0 / k) if k > 0 else 1.0
    return BoundaryPoint(k * rb, rb, ZERO_SHARES)


class TestSweep:
    def test_synthetic_square(self):
        g = validate_gains(1.0, 1.0, 0.0)
        reg = sweep_region(unit_square_evaluator, g, 21)
        assert set(reg.hull) == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}

    def test_rejects_tiny_grid(self, case_a):
        with pytest.raises(ValidationError):
            sweep_region(unit_square_evaluator, case_a, 2)

    @pytest.mark.parametrize("value", [3.5, 4.0, "5"])
    def test_grid_size_must_be_an_integer(self, value):
        with pytest.raises(ValidationError, match="theta_points must be an integer"):
            ray_grid(value)

    def test_grid_size_takes_numpy_integers(self):
        assert ray_grid(np.int64(5)) == ray_grid(5)

    def test_evaluator_failure_reports_angle(self, case_a):
        def broken(k):
            if k > 1.0:
                raise RuntimeError("boom")
            return BoundaryPoint(0.0, 1.0, ZERO_SHARES)

        with pytest.raises(SweepError, match="theta"):
            sweep_region(broken, case_a, 11)

    def test_points_ordered_by_angle(self, case_b):
        reg = sweep_region(protocol_evaluator("outer", case_b), case_b, 31)
        assert list(reg.thetas_deg) == sorted(reg.thetas_deg)
        assert len(set(reg.thetas_deg)) == len(reg.thetas_deg)

    def test_case_b_symmetry(self, case_b):
        reg = sweep_region(protocol_evaluator("outer", case_b), case_b, 61)
        for theta in (10.0, 30.0, 45.0, 60.0):
            a = support_along_ray(reg.hull, theta)
            b = support_along_ray(reg.hull, 90.0 - theta)
            assert a == pytest.approx(b, abs=1e-6)


class TestSymmetricRate:
    def test_outer_case_b(self, case_b):
        reg = sweep_region(protocol_evaluator("outer", case_b), case_b, 31)
        assert symmetric_rate(reg) == pytest.approx(CASE_B_SYMMETRIC, abs=1e-9)

    def test_mabc_unit_gains(self):
        g = validate_gains(1.0, 1.0, 0.0)
        reg = sweep_region(protocol_evaluator("mabc", g), g, 31)
        assert symmetric_rate(reg) == pytest.approx(MABC_UNIT_SYMMETRIC, abs=1e-9)

    def test_zero_gains(self):
        g = validate_gains(0.0, 0.0, 0.0)
        reg = sweep_region(protocol_evaluator("outer", g), g, 11)
        assert symmetric_rate(reg) == 0.0

    def test_matches_on_grid_evaluation(self, case_a):
        reg = sweep_region(protocol_evaluator("outer", case_a), case_a, 31)
        direct = outer_ratio_bound(1.0, case_a).rb
        assert symmetric_rate(reg) == pytest.approx(direct, abs=1e-12)

    def test_interpolates_off_grid(self, case_a):
        # an even interior count skips the 45-degree ray
        reg = sweep_region(protocol_evaluator("outer", case_a), case_a, 30)
        assert 45.0 not in reg.thetas_deg
        direct = outer_ratio_bound(1.0, case_a).rb
        assert symmetric_rate(reg) == pytest.approx(direct, rel=1e-3)


class TestContains:
    def test_outer_contains_six_state(self, case_a):
        out = sweep_region(protocol_evaluator("outer", case_a), case_a, 31)
        six = sweep_region(protocol_evaluator("six-state", case_a), case_a, 31)
        assert contains(out, six, 1e-6)

    def test_mabc_does_not_contain_hbc(self, case_a):
        mabc = sweep_region(protocol_evaluator("mabc", case_a), case_a, 31)
        hbc = sweep_region(protocol_evaluator("hbc", case_a), case_a, 31)
        assert not contains(mabc, hbc, 1e-6)
        assert contains(hbc, mabc, 1e-9)

    def test_reflexive_at_zero_tolerance(self, case_a):
        reg = sweep_region(protocol_evaluator("outer", case_a), case_a, 31)
        assert contains(reg, reg, 0.0)

    def test_transitive_on_nested_sweeps(self, case_a):
        out = sweep_region(protocol_evaluator("outer", case_a), case_a, 31)
        six = sweep_region(protocol_evaluator("six-state", case_a), case_a, 31)
        mabc = sweep_region(protocol_evaluator("mabc", case_a), case_a, 31)
        assert contains(out, six, 0.0) and contains(six, mabc, 0.0)
        assert contains(out, mabc, 0.0)

    def test_rejects_mismatched_gains(self, case_a, case_b):
        ra = sweep_region(protocol_evaluator("outer", case_a), case_a, 11)
        rb = sweep_region(protocol_evaluator("outer", case_b), case_b, 11)
        with pytest.raises(GainsMismatchError):
            contains(ra, rb, 1e-6)


class TestRadialGap:
    def test_zero_gap_to_self(self, case_a):
        reg = sweep_region(protocol_evaluator("outer", case_a), case_a, 31)
        gap, _ = max_radial_gap(reg, reg)
        assert gap == 0.0

    def test_nested_gap_nonpositive(self, case_a):
        mabc = sweep_region(protocol_evaluator("mabc", case_a), case_a, 31)
        hbc = sweep_region(protocol_evaluator("hbc", case_a), case_a, 31)
        gap, _ = max_radial_gap(mabc, hbc)
        assert gap <= 1e-12

    def test_outer_minus_protocol_positive(self, case_a):
        out = sweep_region(protocol_evaluator("outer", case_a), case_a, 31)
        six = sweep_region(protocol_evaluator("six-state", case_a), case_a, 31)
        gap, theta = max_radial_gap(out, six)
        assert gap > 0.0
        assert 0.0 <= theta <= 90.0


# the presets, and low-snr moved down by 40, 50 and 60 dB, where the rates
# are near 1e-5 .. 1e-7 bit
HULL_CHANNELS = {p: preset_scenario(p).gains() for p in sorted(PRESETS)}
HULL_CHANNELS.update({f"low-snr{off}": validate_gains(
    *(db_to_linear(x + off) for x in (0.0, 5.0, -7.0))) for off in (-40, -50, -60)})


class TestHullGeometry:
    @pytest.mark.parametrize("name", sorted(HULL_CHANNELS))
    def test_hull_keeps_every_swept_point(self, name):
        # a real vertex lost to the hull leaves its swept point outside it;
        # DF, the costly family, on a coarser sweep without refinement
        g = HULL_CHANNELS[name]
        sweeps = {pid: (protocol_evaluator(pid, g), 91)
                  for pid in ("outer", "mabc", "tdbc", "hbc", "six-state", "comabc")}
        sweeps["six-state-df"] = (
            lambda k: six_state_df_boundary(k, g, alpha_grid=2, refine=False), 31)
        for pid, (evaluate, theta_points) in sweeps.items():
            reg = sweep_region(evaluate, g, theta_points)
            for p, theta in zip(reg.points, reg.thetas_deg):
                assert math.hypot(p.ra, p.rb) <= reg.supports[theta] * (1.0 + 1e-12), (pid, theta)

    def test_hull_keeps_corners_at_any_scale(self):
        # the top corner of a vertical edge whose middle point lies 1 ulp out,
        # and a square whose turns are far below any absolute tolerance
        up = math.nextafter(1.0, 2.0)
        hull = convex_hull([(0.0, 0.0), (1.0, 0.0), (up, 0.5), (1.0, 1.0), (0.0, 1.0)])
        assert hull == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        s = 1e-7
        square = [(0.0, 0.0), (s, 0.0), (s, s), (0.0, s)]
        assert convex_hull(square + [(s / 2, s / 2), (s, s / 3)]) == square

    def test_hull_idempotent(self, case_a):
        reg = sweep_region(protocol_evaluator("outer", case_a), case_a, 61)
        again = convex_hull(list(reg.hull) + [(0.0, 0.0)])
        assert set(again) == set(reg.hull)

    def test_refinement_grows_support(self, case_a):
        # nested doubling: every coarse angle stays on the fine grid
        coarse = sweep_region(protocol_evaluator("outer", case_a), case_a, 31)
        fine = sweep_region(protocol_evaluator("outer", case_a), case_a, 61)
        assert set(coarse.thetas_deg) <= set(fine.thetas_deg)
        for theta in coarse.thetas_deg:
            assert (support_along_ray(fine.hull, theta)
                    >= support_along_ray(coarse.hull, theta) - 1e-9)

    def test_hausdorff_formulation_equivalence(self, case_a):
        base = sweep_region(protocol_evaluator("outer", case_a), case_a, 31)
        alt = sweep_region(
            lambda k: weighted_ray_bound(k, case_a),
            case_a, 31)
        assert hausdorff_distance(base, alt) <= 1e-6

    def test_support_of_segment_hull(self):
        # a region that is a pure Rb-axis segment still reports its extent
        hull = ((0.0, 0.0), (0.0, 2.0))
        assert support_along_ray(hull, 0.0) == pytest.approx(2.0)
        assert support_along_ray(hull, 45.0) == 0.0


def loop_support(hull, theta_deg):
    """``support_along_ray`` as a walk over every vertex and edge of the hull,
    in Python floats: the reference for the one-pass form."""
    t = math.radians(theta_deg)
    d = (math.sin(t), math.cos(t))
    best = 0.0
    n = len(hull)
    for idx in range(n):
        px, py = hull[idx]
        proj = px * d[0] + py * d[1]
        off = px * d[1] - py * d[0]
        if proj > 0.0 and abs(off) <= 1e-9 * max(1.0, proj):
            best = max(best, math.hypot(px, py))
        if n < 2:
            continue
        qx, qy = hull[(idx + 1) % n]
        ex, ey = qx - px, qy - py
        denom = d[0] * ey - d[1] * ex
        if abs(denom) < 1e-12:
            continue
        s = (px * ey - py * ex) / denom
        u = (px * d[1] - py * d[0]) / denom
        if s > 0.0 and -1e-9 <= u <= 1.0 + 1e-9:
            best = max(best, s)
    return best


def assert_supports_match_the_loop(hull, thetas):
    want = np.array([loop_support(hull, t) for t in thetas])
    assert np.array(supports_along_rays(hull, thetas)).tobytes() == want.tobytes()
    assert [support_along_ray(hull, t) for t in thetas[:5]] == want[:5].tolist()


class TestSupports:
    @pytest.mark.parametrize("name", sorted(HULL_CHANNELS))
    def test_region_supports_match_the_loop_bit_for_bit(self, name):
        # every protocol id's hull at 91 angles (DF at grid 2, no refinement)
        g = HULL_CHANNELS[name]
        for pid in PROTOCOL_IDS:
            evaluate = protocol_evaluator(pid, g)
            if pid == "six-state-df":
                evaluate = lambda k: six_state_df_boundary(k, g, alpha_grid=2, refine=False)
            reg = sweep_region(evaluate, g, 91)
            want = np.array([loop_support(reg.hull, t) for t in reg.thetas_deg])
            assert np.array(list(reg.supports.values())).tobytes() == want.tobytes(), pid

    def test_supports_match_the_loop_on_odd_hulls(self):
        # random hulls at every scale, a point, a segment, collinear points
        # and the axis angles
        rng = np.random.default_rng(8)
        thetas = [0.0, 45.0, 90.0] + rng.uniform(0.0, 90.0, 40).tolist()
        hulls = [(), ((1.0, 2.0),), ((0.0, 0.0), (0.0, 2.0)), ((0.0, 0.0), (3.0, 0.0)),
                 tuple(convex_hull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]))]
        for scale in (1e-7, 1.0, 1e3):
            for n in (3, 8, 40):
                pts = [(0.0, 0.0)] + (rng.uniform(0.0, scale, (n, 2))).tolist()
                hulls.append(tuple(convex_hull(pts)))
        for hull in hulls:
            assert_supports_match_the_loop(hull, thetas)
