import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from twrc import (
    ChannelGains,
    PowerSplit,
    Scenario,
    TimeShares,
    ValidationError,
    analytic_rb_bound,
    analytic_weighted_bound,
    cap,
    db_to_linear,
    dual_point_feasible,
    linear_to_db,
    link_capacities,
    mabc_boundary,
    outer_ratio_bound,
    outer_weighted_bound,
    ratio_bound_lp,
    rb_dual_point,
    six_state_df_boundary,
    validate_gains,
)
from twrc.core import is_ra_axis, ray_rates, tie_ray

snr = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


def test_cap_anchor_values():
    assert cap(0.0) == 0.0
    assert cap(1.0) == 1.0
    assert cap(3.0) == 2.0


@pytest.mark.parametrize("bad", [-1.0, -1e-9, math.inf, math.nan])
def test_cap_rejects_bad_input(bad):
    with pytest.raises(ValidationError):
        cap(bad)


@given(snr, snr)
@example(999999999999.998, 1e12)  # neighbouring floats with one rounded log2
def test_cap_monotone(x, y):
    lo, hi = sorted((x, y))
    assert cap(lo) <= cap(hi)
    a, b = 1.0 + lo, 1.0 + hi
    # log2(b/a) >= (b - a)/b, so past four ulps of log2(b) two results within
    # an ulp of exact are strictly ordered (1 + lo < 1 + hi alone is not
    # enough: near 1e12 neighbouring floats share a rounded log2)
    if (b - a) / b > 4.0 * math.ulp(math.log2(b)):
        assert cap(lo) < cap(hi)


@given(snr, snr)
def test_cap_subadditive(a, b):
    assert cap(a + b) <= cap(a) + cap(b) + 1e-12


def test_db_anchor_values():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    # independently: 10 ** 0.3
    assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-12)


def test_db_rejects_nonfinite():
    with pytest.raises(ValidationError):
        db_to_linear(math.inf)
    with pytest.raises(ValidationError):
        linear_to_db(0.0)
    # a finite dB value whose linear SNR overflows a float
    assert math.isfinite(db_to_linear(3080.0))
    for db in (3090.0, 4000.0, 1e300):
        with pytest.raises(ValidationError, match="overflows"):
            db_to_linear(db)


@given(st.floats(min_value=-300.0, max_value=300.0, allow_nan=False))
def test_db_roundtrip(db):
    x = db_to_linear(db)
    assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)


def test_validate_gains_accepts_ordered():
    g = validate_gains(10.0, 31.6, 2.0)
    assert g.as_tuple() == (10.0, 31.6, 2.0)
    assert not g.swapped


def test_validate_gains_auto_swap():
    g = validate_gains(31.6, 10.0, 2.0, auto_swap=True)
    assert g.as_tuple() == (10.0, 31.6, 2.0)
    assert g.swapped


def test_validate_gains_rejects_unordered_without_swap():
    with pytest.raises(ValidationError, match="gamma1 > gamma2"):
        validate_gains(31.6, 10.0, 2.0)


def test_validate_gains_rejects_strong_direct_link():
    with pytest.raises(ValidationError, match="gamma3 > gamma1"):
        validate_gains(1.0, 2.0, 5.0)
    # auto_swap cannot repair a dominant direct link either
    with pytest.raises(ValidationError):
        validate_gains(2.0, 1.0, 5.0, auto_swap=True)


@given(snr, snr, snr)
def test_validate_gains_idempotent(a, b, c):
    vals = sorted((a, b, c))
    g = validate_gains(vals[1], vals[2], vals[0])
    again = validate_gains(g.gamma1, g.gamma2, g.gamma3)
    assert again.as_tuple() == g.as_tuple()


def test_gamma3_zero_allowed():
    g = validate_gains(1.0, 2.0, 0.0)
    assert link_capacities(g).c3 == 0.0


def test_link_capacities_values(case_a):
    caps = link_capacities(case_a)
    g1, g2, g3 = case_a.as_tuple()
    assert caps.c12 == cap(g1 + g2)
    assert caps.c13_coh == cap((math.sqrt(g1) + math.sqrt(g3)) ** 2)
    assert caps.c23_coh == cap((math.sqrt(g2) + math.sqrt(g3)) ** 2)
    sw = caps.swapped()
    assert (sw.c1, sw.c2, sw.c13, sw.c23) == (caps.c2, caps.c1, caps.c23, caps.c13)
    assert (sw.c13_coh, sw.c23_coh) == (caps.c23_coh, caps.c13_coh)


def test_time_shares_validation():
    ts = TimeShares(0.2, 0.0, 0.3, 0.5, 0.0, 0.0)
    assert ts.active_states() == {1, 3, 4}
    assert ts.as_tuple()[0] == 0.2
    assert TimeShares(np.float32(0.5), 0.5, 0, 0, 0, 0).as_tuple() == (0.5, 0.5, 0, 0, 0, 0)
    with pytest.raises(ValidationError):
        TimeShares(0.5, 0.5, 0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        TimeShares(1.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        TimeShares.from_sequence([0.1, 0.2])


def test_time_shares_clamps_lp_roundoff():
    ts = TimeShares(-1e-12, 0.0, 1.0 + 1e-12, 0.0, 0.0, 0.0)
    assert ts.lambda1 == 0.0
    assert ts.lambda3 == 1.0


def old_share_check(values):
    """The per-field check ``TimeShares`` made before its one-pass form, with
    a numpy real scalar read as the float it stands for: (stored values,
    None) or (None, the error text)."""
    total, out = 0.0, []
    for i, v in enumerate(values, start=1):
        if isinstance(v, (np.integer, np.floating)):
            v = float(v)
        if not (isinstance(v, (int, float)) and math.isfinite(v)) or v < -1e-9 or v > 1.0 + 1e-9:
            return None, f"lambda{i} must lie in [0, 1], got {v!r}"
        v = max(float(v), 0.0)
        total += v
        out.append(min(v, 1.0))
    if total > 1.0 + 1e-9:
        return None, f"time shares sum to {total}, above 1"
    return out, None


def test_time_shares_keep_their_values_and_error_texts():
    # the stored bytes and every error text of the per-field check, over
    # floats near each bound, other number types and non-numbers
    rng = np.random.default_rng(3)
    odd = [-0.0, 1e-9, -1e-9, -2e-9, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 5e-10, 1, True, 0,
           np.float64(0.25), np.float32(0.25), np.int64(0), math.nan, math.inf, -math.inf,
           "0.5", None, 0.5 + 0j]
    cases = [tuple(odd[j] if j < len(odd) else 0.0 for j in idx)
             for idx in rng.integers(0, len(odd) + 6, size=(600, 6))]
    cases += [tuple(v) for v in rng.dirichlet(np.ones(6), 300) * rng.uniform(0.99, 1.01, (300, 1))]
    outcomes = set()
    for vals in cases:
        want, error = old_share_check(vals)
        if error is None:
            got = TimeShares(*vals).as_tuple()
            assert np.array(got).tobytes() == np.array(want).tobytes(), vals
            assert all(type(v) is float for v in got)
        else:
            with pytest.raises(ValidationError) as exc:
                TimeShares(*vals)
            assert str(exc.value) == error, vals
        outcomes.add(error.split(" ")[0] if error else "ok")
    assert outcomes == {"ok", "time", "lambda1", "lambda2", "lambda3", "lambda4", "lambda5",
                        "lambda6"}


def test_channel_gains_validates_on_construction():
    with pytest.raises(ValidationError):
        ChannelGains(2.0, 1.0, 0.5)


def test_tie_ray_merges_the_rate_columns_into_the_larger_rate():
    A = np.array([[1.0, 0.0, -2.0], [0.0, 1.0, -3.0], [1.0, 1.0, -4.0]])
    assert tie_ray(A, 0.0).tolist() == [[0.0, -2.0], [1.0, -3.0], [1.0, -4.0]]
    assert tie_ray(A, 0.5).tolist() == [[0.5, -2.0], [1.0, -3.0], [1.5, -4.0]]
    assert tie_ray(A, 4.0).tolist() == [[1.0, -2.0], [0.25, -3.0], [1.25, -4.0]]
    assert tie_ray(A, math.inf).tolist() == [[1.0, -2.0], [0.0, -3.0], [1.0, -4.0]]
    stack = np.stack([A, 2.0 * A])
    for k in (0.3, 7.0):
        tied = tie_ray(stack, k)
        assert tied.shape == (2, 3, 2)
        assert tied.tobytes() == np.stack([tie_ray(A, k), tie_ray(2.0 * A, k)]).tobytes()


@pytest.mark.parametrize("bad", [-1.0, -math.inf, math.nan])
def test_tie_ray_rejects_bad_ray_ratios(bad):
    with pytest.raises(ValidationError):
        tie_ray(np.eye(3), bad)


def test_ray_rates_lie_on_the_ray():
    assert ray_rates(2.0, 0.0) == (0.0, 2.0)
    assert ray_rates(2.0, 0.25) == (0.5, 2.0)
    assert ray_rates(2.0, 1.0) == (2.0, 2.0)
    assert ray_rates(2.0, 8.0) == (2.0, 0.25)
    assert ray_rates(2.0, math.inf) == (2.0, 0.0)
    assert all(type(v) is float for v in ray_rates(np.float64(3.0), 0.5))


def exact_bits(value):
    """``value`` with every number as its type and exact bits, dataclasses
    and containers taken apart, for a bit-for-bit comparison."""
    if dataclasses.is_dataclass(value):
        return type(value), exact_bits(dataclasses.astuple(value))
    if isinstance(value, dict):
        return tuple((key, exact_bits(v)) for key, v in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(map(exact_bits, value))
    return type(value), value.hex() if isinstance(value, float) else value


def outcome_bits(fn, value):
    """``fn(value)`` as ``exact_bits``, or the ValidationError's text."""
    try:
        return exact_bits(fn(value))
    except ValidationError as exc:
        return "ValidationError", str(exc)


_GAINS = validate_gains(10.0, 31.6, 2.0)
_SCALAR_ENTRY_POINTS = {
    "validate_gains g1": lambda v: validate_gains(v, 4.0, 0.1),
    "validate_gains g3": lambda v: validate_gains(5.0, 6.0, v),
    "validate_gains swapped": lambda v: validate_gains(9.0, v, 0.1, auto_swap=True),
    "cap": cap,
    "db_to_linear": db_to_linear,
    "linear_to_db": linear_to_db,
    "PowerSplit": lambda v: PowerSplit(v, 1.0),
    "Scenario": lambda v: Scenario("x", v, 15.0, 3.0),
    "Scenario gains": lambda v: Scenario("x", 10.0, 15.0, v).gains(),
    "is_ra_axis": is_ra_axis,
    "mabc_boundary": lambda k: mabc_boundary(k, _GAINS),
    "analytic_rb_bound": lambda k: analytic_rb_bound(k, _GAINS),
    "outer_ratio_bound": lambda k: outer_ratio_bound(k, _GAINS),
    "ratio_bound_lp": lambda k: ratio_bound_lp(k, _GAINS).matrix.tolist(),
    "outer_weighted_bound": lambda w: outer_weighted_bound(w, 1.0, _GAINS),
    "analytic_weighted_bound": lambda k: analytic_weighted_bound(k, _GAINS),
    "rb_dual_point": lambda k: rb_dual_point(k, _GAINS),
    "dual_point_feasible": lambda k: dual_point_feasible(k, _GAINS),
    "six_state_df_boundary": lambda k: six_state_df_boundary(k, _GAINS, alpha_grid=3),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("value", [np.float32(0.75), np.float16(0.3), np.int64(1),
                                   np.float32(2.5), np.int64(3), np.float32("inf")],
                         ids=repr)
def test_numpy_scalars_act_as_their_python_float(name, value):
    # a numpy real scalar gives, bit for bit, what float(value) gives: the
    # same result, of the same types, or the same ValidationError
    fn = _SCALAR_ENTRY_POINTS[name]
    want = outcome_bits(fn, float(value))
    assert outcome_bits(fn, value) == want
    if value == 1:
        assert want[0] != "ValidationError"  # every entry point takes 1
