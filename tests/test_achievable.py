import collections
import math

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


def df_outcome(fn, *args, **kwargs):
    """A DF result as exact bits, or the exception's type and message."""
    try:
        p = fn(*args, **kwargs)
    except Exception as exc:  # the two searches must fail alike
        return type(exc), str(exc)
    return (p.ra.hex(), p.rb.hex(), tuple(v.hex() for v in p.shares.as_tuple()),
            tuple((name, v.hex()) for name, v in p.flows.items()),
            p.power_split.alpha1.hex(), p.power_split.alpha2.hex())


def df_highs_rate(k, gains, alpha1, alpha2):
    """HiGHS's optimum of ``paper_df_system`` at the split (alpha1, alpha2):
    the rate the ray program maximizes (Rb for k <= 1, else Ra).  The
    capacities are in units of the largest, as in df_off_highs; the Ra axis
    (k = inf) is the Rb axis (k = 0) with the two rates' columns swapped."""
    A, rel, rhs = paper_df_system(gains, alpha1, alpha2)
    c = np.abs(A[:-1, 2:8]).max()
    scaled = A.copy()
    scaled[:-1, 2:8] /= c
    if math.isinf(k):
        return highs_ray_rate(scaled[:, [1, 0, *range(2, A.shape[1])]], rel, rhs, 0.0)[0] * c
    rb = highs_ray_rate(scaled, rel, rhs, k)[0] * c
    return rb if k <= 1.0 else k * rb


def df_highs_search(k, gains, alpha_grid):
    """The DF grid search (grid, then a 9x9 refinement one spacing around its
    pick, with a near-tie rule) on HiGHS's optimum of ``paper_df_system`` at
    each split; returns the rate the ray program maximizes."""
    def stage(axis1, axis2):
        points = [(df_highs_rate(k, gains, a1, a2), a1, a2)
                  for a1 in map(float, axis1) for a2 in map(float, axis2)]
        top = max(p[0] for p in points)
        return next(p for p in points if top - p[0] <= 1e-12 * top)

    best = stage(np.linspace(0.0, 1.0, alpha_grid), np.linspace(0.0, 1.0, alpha_grid))
    radius = 1.0 / (alpha_grid - 1)
    fine = stage(*(np.linspace(max(0.0, a - radius), min(1.0, a + radius), 9) for a in best[1:]))
    return (fine if fine[0] - best[0] > 1e-12 * best[0] else best)[0]


def df_rate(k, p):
    """The rate a DF point's ray program maximizes."""
    return p.rb if k <= 1.0 else p.ra


def df_off_its_split(k, gains, p):
    """(k, rate, HiGHS's rate) if the DF point ``p`` is off HiGHS's optimum
    at its own power split by more than 1e-9 relative, else None."""
    ref = df_highs_rate(k, gains, p.power_split.alpha1, p.power_split.alpha2)
    rate = df_rate(k, p)
    return None if abs(rate - ref) <= 1e-9 * ref else (k, rate, ref)


# the channel on which the grid search raised on 18 of a 31-point sweep's 33
# rays at grids 3 and 33: gamma3 = 1e-12*gamma1 at high SNR
TIED_SHARES_DB = (40.1, 49.1, -79.9)


class TestSixStateDfColumnGeneration:
    @pytest.mark.parametrize("grid", [3, 9, 33])
    def test_presets_match_highs_at_their_split(self, grid):
        off = []
        for name in sorted(PRESETS):
            gains = preset_scenario(name).gains()
            evaluate = achievable.df_evaluator(gains, grid)
            off += [(name, case) for _, k in ray_grid(31)
                    if (case := df_off_its_split(k, gains, evaluate(k))) is not None]
        assert off == []

    def test_wide_channels_match_highs_at_their_split(self):
        # gamma3 = 0 and 1e-12*gamma1 among them.  Channel 3, (-33.5, -14.2,
        # -61.1) dB, is 7.6e-7 and 5.9e-7 above HiGHS at k = 0 and 0.3: its
        # split's program solved alone is off alike, as the simplex stops on
        # a basis that is not exactly optimal (ROADMAP item 2)
        channels = [(i, g) for i, g in enumerate(wide_channels(np.random.default_rng(2026), 40))
                    if g.gamma2 >= db_to_linear(-20.0)][:20]
        assert len(channels) == 20
        off, simplex = [], []
        for i, g in channels:
            evaluate = achievable.df_evaluator(g)
            for k in WIDE_KS:
                p = evaluate(k)
                case = df_off_its_split(k, g, p)
                if case is None:
                    continue
                alone = _df_point(k, g, p.power_split.alpha1, p.power_split.alpha2)
                if df_off_its_split(k, g, alone) is not None:
                    simplex.append((i, k))
                else:
                    off.append((i, case))
        assert off == []
        assert simplex == [(3, 0.0), (3, 0.3)]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_no_rate_below_the_highs_grid_search(self, preset):
        # the master holds every grid-9 split and pricing finds splits off
        # the grid, so no ray falls short of the grid-9 search on HiGHS
        gains = preset_scenario(preset).gains()
        short = []
        for _, k in ray_grid(3):
            rate = df_rate(k, six_state_df_boundary(k, gains, alpha_grid=9))
            ref = df_highs_search(k, gains, 9)
            if rate < ref * (1.0 - 1e-9):
                short.append((k, rate, ref))
        assert short == []

    @pytest.mark.parametrize("grid", [3, 33])
    def test_tied_shares_channel_returns_every_ray(self, grid):
        gains = validate_gains(*(db_to_linear(v) for v in TIED_SHARES_DB))
        evaluate = achievable.df_evaluator(gains, grid)
        off = [case for _, k in ray_grid(31)
               if (case := df_off_its_split(k, gains, evaluate(k))) is not None]
        assert off == []


class TestSixStateDfStacked:
    def test_a_sweep_returns_what_lone_calls_return(self):
        # one df_evaluator swept over the rays returns each point (or error)
        # bit for bit as a fresh evaluator per ray does: on the presets along
        # ray_grid(31) at grids 9 and 33, and on wide channels (gamma3 = 0
        # and 1e-12*gamma1 among them) at grid 3 without refinement
        rays = [k for _, k in ray_grid(31)]
        cases = [(preset_scenario(p).gains(), dict(alpha_grid=grid), rays)
                 for p in sorted(PRESETS) for grid in (9, 33)]
        cases += [(g, dict(alpha_grid=3, refine=False), WIDE_KS)
                  for g in wide_channels(np.random.default_rng(2026), 40)[:20]]
        for g, kwargs, ks in cases:
            evaluate = achievable.df_evaluator(g, **kwargs)
            swept = [df_outcome(evaluate, k) for k in ks]
            assert swept == [df_outcome(lambda k: achievable.df_evaluator(g, **kwargs)(k), k)
                             for k in ks], (g, kwargs)


def df_masters(gains, grid, ks):
    """Every master ``df_evaluator(gains, grid)`` resumes over the rays
    ``ks``, as (master, solution, whether it fell back to a cold solve), and
    the simplex pivots of the whole sweep."""
    masters, cold, pivots = [], [], [0]
    solve, pivot, resume = lp_module._solve, lp_module._pivot, lp_module.resume_lp

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    def record(lp, basis):
        cold.clear()
        sol = resume(lp, basis)
        masters.append((lp, sol, bool(cold)))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_solve", lambda lp: cold.append(lp) or solve(lp))
        mp.setattr(lp_module, "_pivot", counted)
        mp.setattr(achievable, "resume_lp", record)
        evaluate = achievable.df_evaluator(gains, grid)
        for k in ks:
            evaluate(k)
    return masters, pivots[0]


class TestResumedMasters:
    """Each column-generation master after a ray's first starts phase 2 from
    the last master's optimal basis (``lp.resume_lp``)."""

    @pytest.mark.parametrize("grid", [9, 33])
    def test_resumed_masters_match_cold_solves(self, grid):
        resumed = 0
        for name in sorted(PRESETS):
            masters, _ = df_masters(preset_scenario(name).gains(), grid,
                                    [k for _, k in ray_grid(31)])
            for lp, sol, _ in masters:
                cold = solve_lp(lp)
                assert abs(sol.value - cold.value) <= 1e-12 * abs(cold.value), (name, grid)
            resumed += len(masters)
        assert resumed >= 150

    def test_grid_9_pivots_and_resumed_masters(self):
        # (pivots, masters resumed, of them solved cold) on ray_grid(31); the
        # same sweeps took 1977, 1732, 2934 and 558 pivots with every master
        # solved cold.  case-c's one cold master is a vertex whose row test
        # fails by round-off: a basic variable its row pins to 0 is 9e-16
        counts = {}
        for name in sorted(PRESETS):
            masters, pivots = df_masters(preset_scenario(name).gains(), 9,
                                         [k for _, k in ray_grid(31)])
            counts[name] = (pivots, len(masters), sum(fell for *_, fell in masters))
        assert counts == {"case-a": (797, 51, 0), "case-b": (772, 40, 0),
                          "case-c": (889, 93, 1), "low-snr": (558, 0, 0)}


class TestSixStateDfBounds:
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
