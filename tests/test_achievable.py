import collections
import math
from fractions import Fraction

import numpy as np
import pytest

from twrc import (
    PRESETS,
    SolverError,
    ValidationError,
    cap,
    comabc_boundary,
    db_to_linear,
    hbc_boundary,
    link_capacities,
    mabc_boundary,
    outer_ratio_bound,
    preset_scenario,
    protocol_evaluator,
    ray_grid,
    six_state_boundary,
    six_state_df_boundary,
    solve_lp,
    sweep_region,
    validate_gains,
)
from twrc import LinearProgram, OuterPoint, achievable, outer
from twrc import lp as lp_module
from twrc.achievable import BoundaryPoint, _df_point, lp_optimum, lp_shares
from twrc.core import ACTIVE_STATE_TOL, ray_rates, tie_ray
from conftest import band_channels, exact_basis, highs_ray_rate, random_gains, wide_channels

# closed form C(1)C(2)/(2C(1) + C(2)) for unit gains at k = 1
MABC_UNIT_SYMMETRIC = 0.4421141086977403
# closed form R*/(1 + R*) with R* = log2(1.5) for unit gains at k = 1
COMABC_UNIT_SYMMETRIC = 0.3690702464285426


def mabc_grid_oracle(k, gains, step=0.002):
    """Brute-force sweep of the two-phase time split."""
    caps = link_capacities(gains)
    best = 0.0
    for lam3 in np.arange(0.0, 1.0 + step / 2, step):
        lam4 = 1.0 - lam3
        limits = [lam3 * caps.c2, lam4 * caps.c1, lam3 * caps.c12 / (1.0 + k)]
        if k > 0:
            limits += [lam3 * caps.c1 / k, lam4 * caps.c2 / k]
        best = max(best, min(limits))
    return best


def hbc_grid_oracle(k, gains, step=0.02):
    """Vectorized sweep over the four-phase simplex."""
    caps = link_capacities(gains)
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    l1, l2, l3 = np.meshgrid(ticks, ticks, ticks, indexing="ij")
    keep = l1 + l2 + l3 <= 1.0 + 1e-12
    l1, l2, l3 = l1[keep], l2[keep], l3[keep]
    l4 = 1.0 - l1 - l2 - l3
    limits = [
        (l2 + l3) * caps.c2,
        l2 * caps.c3 + l4 * caps.c1,
        (l1 * caps.c1 + l2 * caps.c2 + l3 * caps.c12) / (1.0 + k),
    ]
    if k > 0:
        limits += [
            (l1 + l3) * caps.c1 / k,
            (l1 * caps.c3 + l4 * caps.c2) / k,
        ]
    return float(np.min(limits, axis=0).max())


class TestMabc:
    def test_unit_gains_symmetric(self):
        g = validate_gains(1.0, 1.0, 0.5)  # gamma3 unused by the protocol
        p = mabc_boundary(1.0, g)
        assert p.rb == pytest.approx(MABC_UNIT_SYMMETRIC, abs=1e-9)
        assert p.ra == pytest.approx(p.rb)
        assert p.rb >= mabc_grid_oracle(1.0, g) - 1e-9

    def test_two_hop_at_k_zero(self):
        g = validate_gains(1.0, 3.0, 0.0)
        assert mabc_boundary(0.0, g).rb == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_zero_gains(self):
        p = mabc_boundary(1.0, validate_gains(0.0, 0.0, 0.0))
        assert (p.ra, p.rb) == (0.0, 0.0)

    def test_only_states_3_and_4(self, case_a):
        p = mabc_boundary(1.0, case_a)
        assert p.shares.active_states() <= {3, 4}

    def test_grid_oracle_case_a(self, case_a):
        p = mabc_boundary(1.0, case_a)
        oracle = mabc_grid_oracle(1.0, case_a)
        assert p.rb >= oracle - 1e-9
        assert p.rb <= oracle + 0.01  # grid underestimates by at most L * step


class TestHbc:
    def test_contains_mabc(self, case_a):
        rng = np.random.default_rng(2)
        for g in random_gains(rng, 15) + [case_a]:
            for k in (0.25, 1.0, 4.0):
                assert hbc_boundary(k, g).rb >= mabc_boundary(k, g).rb - 1e-9

    def test_reduces_to_mabc_without_direct_link(self):
        g = validate_gains(1.0, 1.0, 0.0)
        assert hbc_boundary(1.0, g).rb == pytest.approx(MABC_UNIT_SYMMETRIC, abs=1e-9)

    def test_tdbc_restriction_is_smaller(self, case_a):
        rng = np.random.default_rng(8)
        for g in random_gains(rng, 15) + [case_a]:
            for k in (0.5, 1.0, 2.0):
                full = hbc_boundary(k, g).rb
                tdbc = hbc_boundary(k, g, tdbc_only=True).rb
                assert tdbc <= full + 1e-9

    def test_tdbc_uses_no_state_3(self, case_a):
        p = hbc_boundary(1.0, case_a, tdbc_only=True)
        assert p.shares.lambda3 == 0.0

    def test_grid_oracle_case_a(self, case_a):
        p = hbc_boundary(1.0, case_a)
        oracle = hbc_grid_oracle(1.0, case_a)
        assert p.rb >= oracle - 1e-9
        assert p.rb <= oracle + 0.25  # coarse grid, Lipschitz slack


class TestSixStateDf:
    def test_unit_gains_no_direct_link(self):
        g = validate_gains(1.0, 1.0, 0.0)
        p = six_state_df_boundary(1.0, g, alpha_grid=5)
        assert p.rb == pytest.approx(MABC_UNIT_SYMMETRIC, abs=1e-9)

    def test_zero_gains(self):
        p = six_state_df_boundary(1.0, validate_gains(0.0, 0.0, 0.0), alpha_grid=3)
        assert (p.ra, p.rb) == (0.0, 0.0)

    def test_flow_conservation_at_optimum(self, case_a):
        p = six_state_df_boundary(1.0, case_a, alpha_grid=5, refine=False)
        z = p.flows
        up_a = z[("a", "r", 1)] + z[("a", "r", 3)]
        down_b = z[("r", "b", 5)] + z[("r", "b", 4)]
        up_b = z[("b", "r", 2)] + z[("b", "r", 3)]
        down_a = z[("r", "a", 6)] + z[("r", "a", 4)]
        assert up_a == pytest.approx(down_b, abs=1e-9)
        assert up_b == pytest.approx(down_a, abs=1e-9)

    def test_rate_composition(self, case_a):
        p = six_state_df_boundary(1.0, case_a, alpha_grid=3, refine=False)
        z = p.flows
        ra = z[("a", "r", 1)] + z[("a", "b", 1)] + z[("a", "b", 5)] + z[("a", "r", 3)]
        rb = z[("b", "r", 2)] + z[("b", "a", 2)] + z[("b", "a", 6)] + z[("b", "r", 3)]
        assert ra == pytest.approx(p.ra, abs=1e-9)
        assert rb == pytest.approx(p.rb, abs=1e-9)

    def test_grid_includes_full_power_corner(self, case_a):
        best = six_state_df_boundary(1.0, case_a, alpha_grid=3, refine=False)
        corner = _df_point(1.0, case_a, 1.0, 1.0)
        assert best.rb >= corner.rb - 1e-12

    def test_near_tied_splits_keep_the_lowest_grid_index(self, case_c):
        # case-c at theta = 74.67 deg (ray 25 of a 31-ray sweep): the nine
        # grid-3 splits reach the same rate to within a few ulps, so the
        # winner must not depend on round-off
        theta, k = ray_grid(31)[26]
        assert round(theta, 2) == 74.67
        rates = [_df_point(k, case_c, a1, a2).ra for a1 in (0.0, 0.5, 1.0) for a2 in (0.0, 0.5, 1.0)]
        assert max(rates) - min(rates) <= 1e-12 * max(rates)
        p = six_state_df_boundary(k, case_c, alpha_grid=3, refine=False)
        assert (p.power_split.alpha1, p.power_split.alpha2) == (0.0, 0.0)

    def test_refinement_never_hurts(self, case_a):
        coarse = six_state_df_boundary(1.0, case_a, alpha_grid=5, refine=False)
        refined = six_state_df_boundary(1.0, case_a, alpha_grid=5, refine=True)
        assert refined.rb >= coarse.rb - 1e-12


def df_point_by_point(k, gains, alpha_grid=33, refine=True):
    """The DF grid search one LP at a time, in grid order (the stacked
    search must reproduce it exactly).  Each stage keeps the first point whose
    rate is within 1e-12 relative of the stage's largest; the refinement
    replaces it only with a rate larger by more than that."""
    if gains.gamma3 == 0.0:
        return _df_point(k, gains, 1.0, 1.0)

    def rate(p):  # the rate the ray-tied program maximizes
        return p.rb if k <= 1.0 else p.ra

    def stage(axis1, axis2):
        points = [_df_point(k, gains, float(a1), float(a2)) for a1 in axis1 for a2 in axis2]
        top = max(rate(p) for p in points)
        return next(p for p in points if top - rate(p) <= 1e-12 * top)

    axis = np.linspace(0.0, 1.0, alpha_grid)
    best = stage(axis, axis)
    if refine:
        radius = 1.0 / (alpha_grid - 1)
        b1, b2 = best.power_split.alpha1, best.power_split.alpha2
        fine = stage(np.linspace(max(0.0, b1 - radius), min(1.0, b1 + radius), 9),
                     np.linspace(max(0.0, b2 - radius), min(1.0, b2 + radius), 9))
        if rate(fine) - rate(best) > 1e-12 * rate(best):
            best = fine
    return best


def df_outcome(fn, *args, **kwargs):
    """A DF result as exact bits, or the exception's type and message."""
    try:
        p = fn(*args, **kwargs)
    except Exception as exc:  # the two searches must fail alike
        return type(exc), str(exc)
    return (p.ra.hex(), p.rb.hex(), tuple(v.hex() for v in p.shares.as_tuple()),
            tuple((name, v.hex()) for name, v in p.flows.items()),
            p.power_split.alpha1.hex(), p.power_split.alpha2.hex())


def df_highs_search(k, gains, alpha_grid):
    """The DF grid search (grid, then refinement, with the near-tie rule) on
    HiGHS's optimum of ``paper_df_system`` at each split; returns the rate
    the ray program maximizes (Rb for k <= 1, else Ra)."""
    def rate(a1, a2):
        A, rel, rhs = paper_df_system(gains, a1, a2)
        c = np.abs(A[:-1, 2:8]).max()  # capacities in units of the largest, as in df_off_highs
        scaled = A.copy()
        scaled[:-1, 2:8] /= c
        rb = highs_ray_rate(scaled, rel, rhs, k)[0] * c
        return rb if k <= 1.0 else k * rb

    def stage(axis1, axis2):
        points = [(rate(a1, a2), a1, a2) for a1 in map(float, axis1) for a2 in map(float, axis2)]
        top = max(p[0] for p in points)
        return next(p for p in points if top - p[0] <= 1e-12 * top)

    best = stage(np.linspace(0.0, 1.0, alpha_grid), np.linspace(0.0, 1.0, alpha_grid))
    radius = 1.0 / (alpha_grid - 1)
    fine = stage(*(np.linspace(max(0.0, a - radius), min(1.0, a + radius), 9) for a in best[1:]))
    return (fine if fine[0] - best[0] > 1e-12 * best[0] else best)[0]


class TestSixStateDfStacked:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_match_point_by_point(self, preset):
        gains = preset_scenario(preset).gains()
        for k in (*(k for _, k in ray_grid(3)), 0.3):
            assert (df_outcome(six_state_df_boundary, k, gains, alpha_grid=9)
                    == df_outcome(df_point_by_point, k, gains, alpha_grid=9))

    @pytest.mark.parametrize("preset, solves",
                             [("case-a", 16), ("case-b", 21), ("case-c", 22), ("low-snr", 10)])
    def test_preset_cold_solves(self, monkeypatch, preset, solves):
        # the cold solves over ray_grid(3) at grid 9, which repeat exactly
        gains = preset_scenario(preset).gains()
        stages = df_stage_events(monkeypatch, [(k, gains, dict(alpha_grid=9))
                                               for _, k in ray_grid(3)])
        assert sum(events.count("solve") for events in stages) == solves

    def test_grid_33_matches_point_by_point(self, case_c):
        # case-c's symmetric ray takes the most certificate rounds at grid 33
        assert (df_outcome(six_state_df_boundary, 1.0, case_c, alpha_grid=33)
                == df_outcome(df_point_by_point, 1.0, case_c, alpha_grid=33))

    def test_random_channels_match_point_by_point(self):
        # bit for bit, except where the point-by-point search raises or is
        # farther from HiGHS's search than the stacked one, which is within
        # 1e-9 of it: four of the 100 calls, all at gamma3 = 1e-12*gamma1
        rng = np.random.default_rng(2026)
        ks = (0.0, 1.0, math.inf, 1e6)
        changed = []
        for i in range(50):
            g2 = db_to_linear(rng.uniform(-50.0, 70.0))
            g1 = g2 * db_to_linear(-rng.uniform(0.0, 20.0))
            k = ks[i % 4] if i % 5 else float(rng.uniform(0.0, 5.0))
            for g3 in (0.0, 1e-12 * g1):
                gains = validate_gains(g1, g2, g3)
                got = df_outcome(six_state_df_boundary, k, gains, alpha_grid=3)
                want = df_outcome(df_point_by_point, k, gains, alpha_grid=3)
                if got == want:
                    continue
                ref = df_highs_search(k, gains, 3)
                rate = float.fromhex(got[0] if k > 1.0 else got[1])
                assert abs(rate - ref) <= 1e-9 * ref, (i, k, rate, ref)
                if want[0] is not SolverError:
                    old = float.fromhex(want[0] if k > 1.0 else want[1])
                    assert abs(old - ref) > abs(rate - ref), (i, k, old, rate, ref)
                changed.append((i, k))
        assert changed == [(3, 1e6), (19, 1e6), (33, 1.0), (47, 1e6)]

    def test_a_sweep_returns_what_lone_calls_return(self, monkeypatch):
        # one df_evaluator swept over the rays returns each point (or error)
        # bit for bit as a fresh evaluator per ray does: on the presets along
        # ray_grid(31) at grids 9 and 33, and on wide channels (gamma3 = 0
        # and 1e-12*gamma1 among them) at grid 3 without refinement
        rays = [k for _, k in ray_grid(31)]
        cases = [(preset_scenario(p).gains(), dict(alpha_grid=grid), rays)
                 for p in sorted(PRESETS) for grid in (9, 33)]
        cases += [(g, dict(alpha_grid=3, refine=False), WIDE_KS)
                  for g in wide_channels(np.random.default_rng(2026), 40)[:20]]
        make = achievable._df_grid
        grids = []
        monkeypatch.setattr(achievable, "_df_grid", lambda *args: grids.append(1) or make(*args))
        for g, kwargs, ks in cases:
            evaluate = achievable.df_evaluator(g, **kwargs)
            grids.clear()
            swept = [df_outcome(evaluate, k) for k in ks]
            # a refinement grid is built once per coarse pick, not once per ray
            assert len(grids) < len(ks) or not kwargs.get("refine", True)
            assert swept == [df_outcome(lambda k: achievable.df_evaluator(g, **kwargs)(k), k)
                             for k in ks], (g, kwargs)

    def test_grid_spanning_several_chunks(self, case_b):
        assert (df_outcome(six_state_df_boundary, 0.7, case_b, alpha_grid=17, refine=False)
                == df_outcome(df_point_by_point, 0.7, case_b, alpha_grid=17, refine=False))


def exact_df_bound(lp, y):
    """The weak-duality bound of the dual ``y`` on the ray-tied DF program
    ``lp`` in exact arithmetic: with y clipped to y >= 0 on the <= rows and
    d = c - A^T y, the budget row's y plus the largest, over the states s, of
    d_lam_s + sum over the state's flows f of (d_f^+, plus d_R^+ if f makes up
    the rate row whose R entry is 1) times f's smallest cap in its <= rows."""
    A, m, n = lp.matrix, lp.n_rows, lp.n_vars
    names = achievable._DF_COLUMNS[1:]  # column 0 is R, then lam1..lam6 and the flows
    y = [Fraction(max(v, 0.0) if rel == "<=" else v) for v, rel in zip(y, lp.relations)]
    d = [Fraction(lp.objective[j]) - sum(Fraction(A[i, j]) * y[i] for i in range(m))
         for j in range(n)]
    source = 0 if A[0, 0] == 1.0 else 1
    term = {s: d[s] for s in range(1, 7)}
    for f in range(7, n):
        s = int(names[f][-1])
        caps = [-Fraction(A[i, s]) for i in range(m) if lp.relations[i] == "<=" and A[i, f] == 1.0]
        weight = max(d[f], 0) + (max(d[0], 0) if A[source, f] == -1.0 else 0)
        term[s] += weight * min(caps)
    return y[m - 1] + max(term.values())


def recorded_bounds(monkeypatch, calls):
    """Run six_state_df_boundary on each (k, gains, kwargs) of ``calls``;
    per call, every bound the search computes: (template, splits, the
    stage's bound function, the duals, the bounds)."""
    seen = []
    make = achievable._df_bounds

    def bounds_of(template, grid):
        fn = make(template, grid)

        def record(duals):
            out = fn(duals)
            seen[-1].append((template, grid.splits, fn, list(duals), out))
            return out
        return record

    monkeypatch.setattr(achievable, "_df_bounds", bounds_of)
    for k, gains, kwargs in calls:
        seen.append([])
        try:
            six_state_df_boundary(k, gains, **kwargs)
        except SolverError:
            pass
    return seen


def df_stage_events(monkeypatch, calls):
    """Run six_state_df_boundary on each (k, gains, kwargs) of ``calls``; per
    grid stage (one ``_df_best`` call), its events in order: "bounds" for
    each bound evaluation, ("certify", split, basis) for each basis read on
    a split (the split as its program's matrix bytes) and "solve" for each
    cold solve."""
    stages = []
    best, make = achievable._df_best, achievable._df_bounds
    read, solve = achievable.certify, achievable._solve_split

    def stage(*args):
        stages.append([])
        return best(*args)

    def bounds_of(template, grid):
        fn = make(template, grid)

        def record(duals):
            stages[-1].append("bounds")
            return fn(duals)
        return record

    def certify(lp, basis):
        stages[-1].append(("certify", lp.matrix.tobytes(), basis))
        return read(lp, basis)

    def solve_split(*args):
        stages[-1].append("solve")
        return solve(*args)

    for name, fn in (("_df_best", stage), ("_df_bounds", bounds_of), ("certify", certify),
                     ("_solve_split", solve_split)):
        monkeypatch.setattr(achievable, name, fn)
    for k, gains, kwargs in calls:
        six_state_df_boundary(k, gains, **kwargs)
    return stages


class TestSixStateDfBounds:
    def test_float_bound_is_safe_in_exact_arithmetic(self, monkeypatch):
        # every float bound is at least the exact bound of its dual, on 1,200
        # (dual, split) pairs the search meets on the presets and on wide
        # channels; on the presets it is above it by a few ulps only
        calls = [(k, preset_scenario(name).gains(), dict(alpha_grid=9))
                 for name in sorted(PRESETS) for _, k in ray_grid(3)]
        calls += [(k, g, dict(alpha_grid=3, refine=False))
                  for g in wide_channels(np.random.default_rng(2026), 60) for k in (0.3, 1.0, 1e6)]
        pairs = [(c < 20, template, splits, fn, y)
                 for c, seen in enumerate(recorded_bounds(monkeypatch, calls))
                 for template, splits, fn, duals, _ in seen for y in duals]
        rng = np.random.default_rng(15)
        short, slack = [], []
        for p in rng.choice(len(pairs), 1200):
            preset, template, splits, fn, y = pairs[p]
            i = int(rng.integers(len(splits)))
            lp = achievable._split_program(template, splits[i])
            got, want = fn([y])[i], exact_df_bound(lp, y)
            if not got >= want:
                short.append((p, i, got, float(want)))
            elif preset:
                slack.append((Fraction(got) - want) / want)
        assert short == []
        assert len(slack) > 200 and max(slack) < 1e-14

    def test_no_cold_rate_exceeds_a_bound(self, monkeypatch):
        # on the presets at grids 9 and 33, no split's cold rate is above a
        # bound computed on it by more than the _DF_READ_RTOL the search
        # allows for a cold solve's round-off (some are up to 2.3e-14 above)
        calls = [(k, preset_scenario(name).gains(), dict(alpha_grid=grid))
                 for name in sorted(PRESETS) for grid in (9, 33) for _, k in ray_grid(3)]
        cold = {}
        over = []
        for template, splits, _, _, out in sum(recorded_bounds(monkeypatch, calls), []):
            key = id(splits)
            if key not in cold:
                cold[key] = np.array([solve_lp(achievable._split_program(template, split)).x[0]
                                      for split in splits])
            if (cold[key] > out * (1.0 + achievable._DF_READ_RTOL)).any():
                over.append((template.matrix[0, 0], np.nonzero(cold[key] > out)[0]))
        assert over == []

    def test_dual_that_is_not_finite_prunes_nothing(self, case_a):
        template = achievable.ray_programs(achievable._df_matrix(case_a))(1.0)
        axis = np.linspace(0.0, 1.0, 9)
        grid = achievable._df_grid(template.matrix, case_a, axis, axis)
        bounds = achievable._df_bounds(template, grid)
        y = solve_lp(achievable._split_program(template, grid.splits[40])).duals
        assert np.isfinite(bounds([y])).all()
        for bad in (math.nan, math.inf, -math.inf):
            for row in (3, len(y) - 1):
                z = y.copy()
                z[row] = bad
                assert (bounds([z]) == math.inf).all()
                assert np.array_equal(bounds([z, y]), bounds([y]))
        assert (bounds([]) == math.inf).all()

    @pytest.mark.parametrize("preset", ["case-b", "low-snr"])
    def test_bound_below_a_rate_never_lowers_it(self, monkeypatch, preset):
        # with every bound halved, so that a rated split's rate lies above a
        # bound on it, the search still keeps the point-by-point split
        make = achievable._df_bounds
        monkeypatch.setattr(achievable, "_df_bounds",
                            lambda *args: (lambda duals: 0.5 * make(*args)(duals)))
        gains = preset_scenario(preset).gains()
        for _, k in ray_grid(3):
            assert (df_outcome(six_state_df_boundary, k, gains, alpha_grid=9)
                    == df_outcome(df_point_by_point, k, gains, alpha_grid=9))

    def test_refinement_that_cannot_beat_the_coarse_pick_rates_nothing(self, monkeypatch,
                                                                       case_a):
        # on case-a at grid 9, the bounds the coarse stage leaves prove on three
        # of ray_grid(3)'s five rays that no refinement split beats its pick,
        # so the refinement neither reads a basis nor solves a split there
        stages = []  # per grid stage, its certificate reads and cold solves

        def counted(name, fn):
            def call(*args):
                stages[-1][name] += 1
                return fn(*args)
            monkeypatch.setattr(achievable, name, call)

        def stage(*args):
            stages.append(collections.Counter())
            return best(*args)

        best = achievable._df_best
        counted("certify", achievable.certify)
        counted("_solve_split", achievable._solve_split)
        monkeypatch.setattr(achievable, "_df_best", stage)
        idle = []
        for _, k in ray_grid(3):
            stages.clear()
            six_state_df_boundary(k, case_a, alpha_grid=9)
            coarse, fine = stages
            assert coarse["_solve_split"] > 0
            if not fine:
                idle.append(k)
        assert idle == [1.0, ray_grid(3)[3][1], math.inf]
        assert round(idle[1], 1) == 114.6

    def test_batch_cold_solves_one_split_and_reads_each_basis_once(self, monkeypatch):
        # on the presets at grids 9 and 33, a stage reads each held basis on
        # a split at most once, a split that returns to a batch only on the
        # bases added since, and a stage that trusts its bounds cold-solves
        # at most one split between two bound evaluations
        calls = [(k, preset_scenario(name).gains(), dict(alpha_grid=grid))
                 for name in sorted(PRESETS) for grid in (9, 33) for _, k in ray_grid(3)]
        twice, crowded, returned, between = [], [], 0, 0
        for s, events in enumerate(df_stage_events(monkeypatch, calls)):
            reads = [e for e in events if isinstance(e, tuple)]
            twice += [(s, e[2]) for e, n in collections.Counter(reads).items() if n > 1]
            segments = [[]]
            for e in events:
                if e == "bounds":
                    segments.append([])
                else:
                    segments[-1].append(e)
            crowded += [s for seg in segments[1:-1] if seg.count("solve") > 1]
            between += sum(seg.count("solve") for seg in segments[1:-1])
            batches = collections.Counter(split for seg in segments
                                          for split in {e[1] for e in seg if isinstance(e, tuple)})
            returned += sum(n > 1 for n in batches.values())
        assert twice == [] and crowded == []
        assert returned > 0 and between > 0  # splits do return; solves do fall between

    @pytest.mark.parametrize("grid", [3.0, 2.5, math.nan, "9", None])
    def test_alpha_grid_must_be_an_integer(self, case_a, grid):
        with pytest.raises(ValidationError, match="alpha_grid must be an integer"):
            six_state_df_boundary(1.0, case_a, alpha_grid=grid)

    def test_alpha_grid_takes_numpy_integers(self, case_a):
        assert (df_outcome(six_state_df_boundary, 1.0, case_a, alpha_grid=np.int64(3))
                == df_outcome(six_state_df_boundary, 1.0, case_a, alpha_grid=3))


class TestSixState:
    def test_contains_hbc(self, case_a):
        rng = np.random.default_rng(14)
        for g in random_gains(rng, 15) + [case_a]:
            for k in (0.25, 1.0, 4.0):
                assert six_state_boundary(k, g).rb >= hbc_boundary(k, g).rb - 1e-9

    def test_between_hbc_and_outer(self, case_a):
        v = six_state_boundary(1.0, case_a).rb
        assert hbc_boundary(1.0, case_a).rb - 1e-9 <= v
        assert v <= outer_ratio_bound(1.0, case_a).rb + 1e-6

    def test_zero_gains(self):
        p = six_state_boundary(1.0, validate_gains(0.0, 0.0, 0.0))
        assert (p.ra, p.rb) == (0.0, 0.0)


class TestComabc:
    def test_unit_gains_symmetric(self):
        g = validate_gains(1.0, 1.0, 0.0)
        p = comabc_boundary(1.0, g)
        assert p.rb == pytest.approx(COMABC_UNIT_SYMMETRIC, abs=1e-9)

    def test_clipped_uplink_rate_blocks_a(self):
        # gamma1/(gamma1+gamma2) + gamma1 < 1 clips R*_ar to zero
        g = validate_gains(0.2, 2.0, 0.1)
        p = comabc_boundary(1.0, g)
        assert p.ra == pytest.approx(0.0, abs=1e-12)

    def test_worse_than_six_state_at_low_snr(self):
        g = validate_gains(1.0, 10 ** 0.5, 10 ** -0.7)
        assert comabc_boundary(1.0, g).rb < six_state_boundary(1.0, g).rb

    def test_uses_states_3_4_6(self, case_c):
        p = comabc_boundary(1.0, case_c)
        assert p.shares.active_states() <= {3, 4, 6}


def lattice_rate(own, other):
    """The clipped lattice uplink rate [log2(own / (own + other) + own)]^+."""
    return max(0.0, math.log2(own / (own + other) + own)) if own > 0.0 else 0.0


def paper_system(name, gains):
    """The MABC, TDBC, HBC, six-state or CoMABC system over (Ra, Rb,
    lam1..lam6), written out from the protocol definitions: rate rows, one row
    per unused state, budget."""
    c = link_capacities(gains)
    if name == "six-state":
        cuts = [[1, 0, c.c1, 0, c.c1, 0, c.c3, 0], [1, 0, c.c3, 0, 0, c.c2, c.c23, 0],
                [0, 1, 0, c.c2, c.c2, 0, 0, c.c3], [0, 1, 0, c.c3, 0, c.c1, 0, c.c13],
                [1, 1, c.c1, c.c2, c.c12, 0, c.c3, c.c3]]
        unused = ()
    elif name == "mabc":  # uplinks to the relay in state 3, its broadcast in state 4
        cuts = [[1, 0, 0, 0, c.c1, 0, 0, 0], [1, 0, 0, 0, 0, c.c2, 0, 0],
                [0, 1, 0, 0, c.c2, 0, 0, 0], [0, 1, 0, 0, 0, c.c1, 0, 0],
                [1, 1, 0, 0, c.c12, 0, 0, 0]]
        unused = (1, 2, 5, 6)
    elif name == "comabc":  # the relay decodes a lattice sum in state 3: no sum-rate cut
        g1, g2, _ = gains.as_tuple()
        cuts = [[1, 0, 0, 0, lattice_rate(g1, g2), 0, 0, 0], [1, 0, 0, 0, 0, c.c2, 0, 0],
                [0, 1, 0, 0, lattice_rate(g2, g1), 0, 0, c.c3], [0, 1, 0, 0, 0, c.c1, 0, c.c13]]
        unused = (1, 2, 5)
    else:
        cuts = [[1, 0, c.c1, 0, c.c1, 0, 0, 0], [1, 0, c.c3, 0, 0, c.c2, 0, 0],
                [0, 1, 0, c.c2, c.c2, 0, 0, 0], [0, 1, 0, c.c3, 0, c.c1, 0, 0],
                [1, 1, c.c1, c.c2, c.c12, 0, 0, 0]]
        unused = (3, 5, 6) if name == "tdbc" else (5, 6)
    A = np.array(cuts, dtype=float)
    A[:, 2:] *= -1.0
    A = np.vstack([A] + [np.eye(8)[1 + s] for s in unused] + [[0, 0] + [1.0] * 6])
    budget = "<=" if name in ("mabc", "comabc") else "="
    rel = ("<=",) * len(cuts) + ("=",) * len(unused) + (budget,)
    return A, rel, np.array([0.0] * (len(cuts) + len(unused)) + [1.0])


# the DF flows (source, destination, state), grouped by source
DF_FLOWS = (("a", "r", 1), ("a", "r", 3), ("a", "b", 1), ("a", "b", 5),
            ("b", "r", 2), ("b", "r", 3), ("b", "a", 2), ("b", "a", 6),
            ("r", "a", 4), ("r", "a", 6), ("r", "b", 4), ("r", "b", 5))


def paper_df_system(gains, alpha1, alpha2):
    """The six-state DF program at the power split (alpha1, alpha2) over
    (Ra, Rb, lam1..lam6, the flows of DF_FLOWS), written out from the protocol:
    rate compositions, per-state flow limits, relay conservation, budget."""
    c = link_capacities(gains)
    g1, g2, g3 = gains.as_tuple()
    # a broadcasting terminal spends power share alpha on the relay-bound
    # message; the other terminal decodes the direct one under it as noise
    relay1, direct1 = cap(alpha1 * g1), cap((1.0 - alpha1) * g3 / (1.0 + alpha1 * g3))
    relay2, direct2 = cap(alpha2 * g2), cap((1.0 - alpha2) * g3 / (1.0 + alpha2 * g3))
    limits = [  # (state, flows, capacity): the flows fit in lam_state * capacity
        (1, ["ar1"], relay1), (1, ["ab1"], direct1), (2, ["br2"], relay2), (2, ["ba2"], direct2),
        (3, ["ar3"], c.c1), (3, ["br3"], c.c2), (3, ["ar3", "br3"], c.c12),
        (4, ["ra4"], c.c1), (4, ["rb4"], c.c2),
        (5, ["rb5"], c.c2), (5, ["ab5"], c.c3), (5, ["rb5", "ab5"], c.c23),
        (6, ["ra6"], c.c1), (6, ["ba6"], c.c3), (6, ["ra6", "ba6"], c.c13),
    ]
    col = {f"{s}{d}{state}": 8 + i for i, (s, d, state) in enumerate(DF_FLOWS)}
    rows, rel = [], []
    for rate, source in ((0, "a"), (1, "b")):  # a rate is all its source sends
        row = np.zeros(8 + len(DF_FLOWS))
        row[rate] = 1.0
        row[[col[f] for f in col if f[0] == source]] = -1.0
        rows.append(row)
        rel.append("=")
    for state, flows, capacity in limits:
        row = np.zeros(8 + len(DF_FLOWS))
        row[[col[f] for f in flows]] = 1.0
        row[1 + state] = -capacity
        rows.append(row)
        rel.append("<=")
    for source, sink in (("a", "b"), ("b", "a")):  # the relay forwards what it decodes
        row = np.zeros(8 + len(DF_FLOWS))
        row[[col[f] for f in col if f[:2] == source + "r"]] = 1.0
        row[[col[f] for f in col if f[:2] == "r" + sink]] = -1.0
        rows.append(row)
        rel.append("=")
    rows.append(np.r_[[0.0, 0.0], np.ones(6), np.zeros(len(DF_FLOWS))])
    rel.append("=")
    return np.array(rows), tuple(rel), np.r_[np.zeros(len(rows) - 1), 1.0]


# power splits (alpha1, alpha2) at which _df_point is checked
DF_SPLITS = ((1.0, 1.0), (0.0, 0.5), (0.7, 0.2), (0.5, 0.0))


def df_off_highs(g, splits, ks):
    """The (split, k) at which _df_point's rate is off HiGHS's on
    ``paper_df_system`` by more than 1e-6 relative, or its point breaks a row
    by more than 1e-7 of the row's size."""
    off = []
    for a1, a2 in splits:
        A, rel, rhs = paper_df_system(g, a1, a2)
        # capacities in units of the largest, for HiGHS's absolute
        # tolerances; rates and flows in that unit, shares in 1
        c = np.abs(A[:-1, 2:8]).max()
        scaled = A.copy()
        scaled[:-1, 2:8] /= c
        unit = np.r_[[c, c], np.ones(6), [c] * len(DF_FLOWS)]
        for k in ks:
            ref = highs_ray_rate(scaled, rel, rhs, k)[0] * c
            p = _df_point(k, g, a1, a2)
            x = np.array([p.ra, p.rb, *p.shares.as_tuple(), *(p.flows[f] for f in DF_FLOWS)])
            resid = A @ x - rhs
            eq = np.array(rel) == "="
            resid[eq] = np.abs(resid[eq])
            if (abs(p.rb - ref) > 1e-6 * max(ref, 1e-9 * c)
                    or (resid > 1e-7 * (np.abs(A) @ unit + rhs)).any()):
                off.append((g, a1, a2, k, p.rb, ref))
    return off


class TestPaperSystems:
    def test_protocol_systems_equal_the_paper_systems(self):
        # each system's rate rows, budget row and TDBC's lam3 row are
        # paper_system's on the columns of its states, in value: paper_system
        # writes -0.0 where a protocol system may hold 0.0
        channels = wide_channels(np.random.default_rng(2026), 300) + [validate_gains(0, 0, 0)]
        off = []
        for g in channels:
            for name in ("mabc", "tdbc", "hbc", "six-state", "comabc"):
                A, rel, rhs, states = LP_SYSTEMS[name](g)
                P, prel, prhs = paper_system(name, g)
                cuts = int((P[:, :2] != 0.0).any(axis=1).sum())  # the rate rows come first
                rows = list(range(cuts)) + [len(P) - 1] + ([cuts] if name == "tdbc" else [])
                cols = [0, 1] + [1 + s for s in states]
                if not (np.array_equal(A, P[np.ix_(rows, cols)]) and np.array_equal(rhs, prhs[rows])
                        and rel == tuple(prel[r] for r in rows)):
                    off.append((name, g))
        assert off == []


class TestAgainstHighs:
    # where the ray substitution first went wrong: k = 1e6 across 0..70 dB
    # and k = 1 across -50..-30 dB, 20 channels per 10-dB band of gamma2
    @pytest.mark.parametrize("k, lo_db, hi_db", [(1e6, 0, 70), (1.0, -50, -30)])
    def test_hbc_family_matches_highs(self, k, lo_db, hi_db):
        rng = np.random.default_rng(7)
        off = []
        for band in range(lo_db, hi_db, 10):
            for g in band_channels(rng, band, band + 10, 20):
                for name in ("mabc", "tdbc", "hbc", "six-state", "comabc"):
                    A, rel, rhs = paper_system(name, g)
                    ref, scale = highs_ray_rate(A, rel, rhs, k)
                    p = protocol_evaluator(name, g)(k)
                    # each row's residual relative to its size, rates counted in
                    # units of the largest share coefficient, shares in units of 1
                    x = np.array([p.ra, p.rb, *p.shares.as_tuple()])
                    unit = np.array([np.abs(A[:, 2:]).max()] * 2 + [1.0] * 6)
                    resid = A @ x - rhs
                    eq = np.array(rel) == "="
                    resid[eq] = np.abs(resid[eq])
                    if (abs(p.rb - ref) > 1e-6 * max(ref, 1e-9 * scale)
                            or (resid > 1e-7 * (np.abs(A) @ unit + rhs)).any()):
                        off.append((name, g, p.rb, ref))
        assert off == []

    def test_df_point_matches_highs(self):
        # _df_point at fixed splits, gamma2 over -20..70 dB; gamma3 = 1e-12*gamma1
        # is left out, where the simplex breaks down (see CHANGES.md)
        rng = np.random.default_rng(11)
        off = [case for band in range(-20, 70, 20) for g in band_channels(rng, band, band + 20, 3)
               for case in df_off_highs(g, DF_SPLITS, (0.0, 0.3, 1.0, 2.5))]
        assert off == []

    @pytest.mark.xfail(strict=True, reason="the simplex overfills state 6's cap by 3e-6 relative")
    def test_df_point_below_minus_20_db(self):
        # (-37.4, -27.4, -55.5) dB at k = 0: 2.5e-6 above HiGHS (see CHANGES.md)
        g = validate_gains(1.8137803002960304e-4, 1.807758472087659e-3, 2.8450480643995714e-6)
        assert df_off_highs(g, [(1.0, 1.0)], [0.0]) == []


class TestCrossProtocolProperties:
    def test_safety_under_outer_bound(self):
        rng = np.random.default_rng(77)
        for g in random_gains(rng, 20):
            for k in (0.5, 1.0, 2.0):
                outer_rb = outer_ratio_bound(k, g).rb
                assert mabc_boundary(k, g).rb <= outer_rb + 1e-6
                assert hbc_boundary(k, g).rb <= outer_rb + 1e-6
                assert six_state_boundary(k, g).rb <= outer_rb + 1e-6
                assert comabc_boundary(k, g).rb <= outer_rb + 1e-6

    def test_symmetry_for_equal_relay_links(self):
        g = validate_gains(20.0, 20.0, 3.0)
        for k in (0.25, 0.5, 2.0, 4.0):
            for fn in (mabc_boundary, hbc_boundary, six_state_boundary):
                p, q = fn(k, g), fn(1.0 / k, g)
                assert q.rb == pytest.approx(p.ra, abs=1e-8)
            pdf = six_state_df_boundary(k, g, alpha_grid=3, refine=False)
            qdf = six_state_df_boundary(1.0 / k, g, alpha_grid=3, refine=False)
            assert qdf.rb == pytest.approx(pdf.ra, abs=1e-8)

    def test_monotone_in_gains(self):
        g = validate_gains(5.0, 10.0, 1.0)
        bigger = validate_gains(5.0, 15.0, 1.0)
        for fn in (mabc_boundary, hbc_boundary, six_state_boundary):
            assert fn(1.0, bigger).rb >= fn(1.0, g).rb - 1e-9

    def test_every_point_lies_exactly_on_its_ray(self):
        # Ra = k*Rb for k <= 1 and Rb = Ra/k for k > 1, bit for bit, for every
        # LP-backed id over the whole SNR range (DF, the costly one, without
        # refinement on three channels in ten: gamma3 = 0, regular, 1e-12*gamma1)
        ids = ("outer", "mabc", "tdbc", "hbc", "six-state", "comabc")
        returned = raised = 0
        for i, g in enumerate(wide_channels(np.random.default_rng(2026), 200)):
            evaluators = [(name, protocol_evaluator(name, g)) for name in ids]
            if i % 10 in (0, 2, 5):
                evaluators.append(("six-state-df", lambda k, g=g: six_state_df_boundary(
                    k, g, alpha_grid=3, refine=False)))
            for name, evaluate in evaluators:
                for k in (0.0, 0.3, 1.0, 2.5, 1e6, math.inf):
                    try:
                        p = evaluate(k)
                    except SolverError:
                        raised += 1  # numerical breakdown: no point to check
                        continue
                    returned += 1
                    if k <= 1.0:
                        assert p.ra == k * p.rb, (name, i, k)
                    else:
                        assert p.rb == p.ra / k, (name, i, k)
        assert raised <= 0.01 * (returned + raised)

    def test_ra_axis_mode(self, case_a):
        for fn in (mabc_boundary, hbc_boundary, six_state_boundary, comabc_boundary):
            p = fn(math.inf, case_a)
            assert p.rb == 0.0
            assert p.ra > 0.0


# LP id -> channel -> its ray system (matrix, relations, rhs, states), as the
# evaluators state it
LP_SYSTEMS = {
    "outer": outer.cut_set_system,
    "mabc": achievable.mabc_system,
    "tdbc": lambda g: achievable.hbc_system(g, tdbc_only=True),
    "hbc": achievable.hbc_system,
    "six-state": achievable.six_state_system,
    "comabc": achievable.comabc_system,
}


def fresh_point(name, system, k, basis=()):
    """(x, point) of the ray program built from scratch, as each ray once did,
    solved from ``basis``."""
    A, rel, rhs, states = system
    tied = tie_ray(A, k)
    obj = np.zeros(tied.shape[1])
    obj[0] = 1.0
    x = lp_optimum(solve_lp(LinearProgram(objective=obj, matrix=tied, relations=rel, rhs=rhs),
                            basis))
    lam = [0.0] * 6
    for state, share in zip(states, x[1:]):
        lam[state - 1] = share
    shares, (ra, rb) = lp_shares(lam), ray_rates(x[0], k)
    if name == "outer":
        return x, OuterPoint(float(k), ra, rb, shares, shares.active_states(ACTIVE_STATE_TOL))
    return x, BoundaryPoint(ra, rb, shares)


class TestPerChannelPrograms:
    def test_a_sweep_builds_its_program_once(self, monkeypatch, case_a):
        counts = collections.Counter()

        def counted(name, fn):  # a plain function, as a tracer puts in its place
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        for mod in (achievable, outer):
            monkeypatch.setattr(mod, "LinearProgram", counted("build", mod.LinearProgram))
            monkeypatch.setattr(mod, "link_capacities",
                                counted("caps", mod.link_capacities))
        for name in LP_SYSTEMS:
            counts.clear()
            reg = sweep_region(protocol_evaluator(name, case_a), case_a, 91)
            assert len(reg.points) == 93
            assert counts == {"build": 1, "caps": 1}, name

    def test_evaluators_equal_programs_built_from_scratch(self, monkeypatch):
        # x, shares and any SolverError text, bit for bit, with one evaluator
        # serving every ray of its channel; the fresh program is solved from
        # the basis the evaluator passed for that ray
        solved = []

        def solve(lp, basis=()):
            solved.append(basis)
            sol = solve_lp(lp, basis)
            solved.append(sol)
            return sol

        monkeypatch.setattr(achievable, "solve_lp", solve)
        monkeypatch.setattr(outer, "solve_lp", solve)
        cases = [(preset_scenario(p).gains(), [k for _, k in ray_grid(91)]) for p in PRESETS]
        cases += [(g, [0.0, 0.3, 1.0, 2.5, 1e6, math.inf])
                  for g in wide_channels(np.random.default_rng(2026), 60)]
        points = raised = 0
        for g, ks in cases:
            for name, system in LP_SYSTEMS.items():
                evaluate = protocol_evaluator(name, g)
                for k in ks:
                    solved.clear()
                    try:
                        got = evaluate(k)
                    except SolverError as exc:
                        got = exc
                    try:
                        want_x, want = fresh_point(name, system(g), k, solved[0])
                    except SolverError as exc:
                        assert isinstance(got, SolverError), (name, g, k)
                        assert str(got) == str(exc), (name, g, k)
                        raised += 1
                        continue
                    assert solved[-1].x.tobytes() == want_x.tobytes(), (name, g, k)
                    assert type(got) is type(want) and got == want, (name, g, k)
                    assert (np.array(got.shares.as_tuple()).tobytes()
                            == np.array(want.shares.as_tuple()).tobytes()), (name, g, k)
                    points += 1
        assert points + raised == 6 * (4 * 93 + 60 * 6) and raised <= 0.01 * points


WIDE_KS = (0.0, 0.3, 1.0, 2.5, 1e6, math.inf)


def sweep_solves(cases):
    """Every (case name, lp, basis passed, solution) of the LP families'
    evaluators over ``cases`` ((name, gains, ks)), and how many solves
    pivoted, per case name."""
    solves, cold = [], collections.Counter()
    real_solve = lp_module._solve
    with pytest.MonkeyPatch.context() as mp:
        def record(lp, basis=()):
            sol = solve_lp(lp, basis)
            solves.append((case, lp, basis, sol))
            return sol

        def cold_solve(lp):
            cold[case] += 1
            return real_solve(lp)

        mp.setattr(achievable, "solve_lp", record)
        mp.setattr(lp_module, "_solve", cold_solve)
        for case, g, ks in cases:
            for name in LP_SYSTEMS:
                evaluate = protocol_evaluator(name, g)
                for k in ks:
                    try:
                        evaluate(k)
                    except SolverError:
                        pass
    return solves, cold


def active(x, tol=ACTIVE_STATE_TOL):
    """The active shares of a ray program's point (column 0 is the rate)."""
    return {i for i, v in enumerate(x[1:7]) if v > tol}


class TestReusedBasis:
    """A sweep hands each ray the previous ray's optimal basis; ``solve_lp``
    reads the point from it when it certifies it, else solves cold."""

    @pytest.fixture(scope="class")
    def solves(self):
        cases = [(p, preset_scenario(p).gains(), [k for _, k in ray_grid(91)])
                 for p in sorted(PRESETS)]
        cases += [("wide", g, WIDE_KS) for g in wide_channels(np.random.default_rng(2026), 60)]
        return sweep_solves(cases)

    def test_most_preset_rays_skip_the_simplex(self, solves):
        records, cold = solves
        rays = sum(1 for case, *_ in records if case != "wide")
        pivoted = sum(n for case, n in cold.items() if case != "wide")
        assert rays == 4 * 6 * 93
        assert rays - pivoted >= 2_100, pivoted

    def test_sweep_rays_match_cold_solves(self, solves):
        # each ray's rate within 1e-12 of its program's cold solve, with the
        # same active states; where not, the reused basis is exactly optimal
        # and the ray's rate within 1e-12 of the exact optimum
        exceptions = []
        for case, lp, basis, got in solves[0]:
            try:
                want = solve_lp(lp)
            except SolverError:
                want = None
            if (want is not None and active(got.x) == active(want.x)
                    and abs(got.x[0] - want.x[0]) <= 1e-12 * abs(want.x[0])):
                continue
            exceptions.append(case)
            value, optimal = exact_basis(lp, got.basis)
            assert optimal, (case, lp.matrix)
            assert abs(got.x[0] - float(value)) <= 1e-12 * float(value), (case, lp.matrix)
        # 38 wide rays, 37 of them at k = 1e6, where the cold solve is off by
        # up to 1.3e-7 (FOUND in CHANGES.md)
        assert set(exceptions) <= {"wide"}
        assert len(exceptions) <= 50

    def test_infeasible_neighbour_basis_goes_cold(self):
        # -49.8 dB, gamma3 = 0: at k = 1 the k = 0.3 basis leaves a slack at
        # -8e-11, 2.6e-6 of its row; an absolute tolerance (1e-9) let it
        # through, and the rate came out 2.6e-6 above the optimum
        g = wide_channels(np.random.default_rng(2026), 60)[20]
        program = achievable.ray_programs(achievable.mabc_system(g))
        near = solve_lp(program(0.3)).basis
        assert lp_module._reused(program(1.0), near) is None
        evaluate = protocol_evaluator("mabc", g)
        evaluate(0.3)
        value, optimal = exact_basis(program(1.0), solve_lp(program(1.0)).basis)
        assert optimal
        assert evaluate(1.0).rb == pytest.approx(float(value), rel=1e-12, abs=0.0)
