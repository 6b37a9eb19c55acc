"""Capacity-region outer bounds for the half-duplex two-way relay channel.

Per-ray and weighted-sum cut-set LPs over the six network states (one table,
``_STATE_CUTS``), closed-form bounds that are the LP's dual objective at fixed
multipliers, the one-way relaying bound, and the direct-link thresholds below
which the symmetric-rate bound collapses to the relay-only value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .achievable import System, lp_optimum, lp_shares, ray_evaluator
from .core import (
    ACTIVE_STATE_TOL,
    ChannelGains,
    LinkCaps,
    TimeShares,
    ValidationError,
    as_real,
    cap,
    link_capacities,
)
from .lp import LinearProgram, SolverError, solve_lp

_DUAL_SLACK_TOL = 1e-9
_THRESHOLD_REL_TOL = 1e-9  # bisection stops when the bracket is this narrow, relative


@dataclass(frozen=True)
class OuterPoint:
    """A point of the outer-bound boundary on the ray Ra = k * Rb.

    ``active_states`` lists the states whose time share exceeds the reporting
    threshold; a vertex solution uses at most four of the six states.
    """

    k: float
    ra: float
    rb: float
    shares: TimeShares
    active_states: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.active_states) > 4:
            raise SolverError(
                f"outer-bound vertex reports {len(self.active_states)} active "
                f"states; a basic solution cannot use more than four"
            )


class WeightedBound(NamedTuple):
    value: float
    ra: float
    rb: float
    shares: TimeShares


@dataclass(frozen=True)
class DualPoint:
    """A feasible point (y1..y5) of the dual of the per-ray cut-set program."""

    y1: float
    y2: float
    y3: float
    y4: float
    y5: float


@dataclass(frozen=True)
class Thresholds:
    """Direct-link SNR thresholds for the symmetric-rate capacity statement.

    ``gamma30`` is set for equal relay links, ``gamma31``/``gamma32`` for
    unequal ones; ``operative`` is the binding value.
    """

    gamma30: float | None = None
    gamma31: float | None = None
    gamma32: float | None = None

    @property
    def operative(self) -> float:
        if self.gamma30 is not None:
            return self.gamma30
        assert self.gamma31 is not None and self.gamma32 is not None
        return min(self.gamma31, self.gamma32)


# The cut-set bound: for each of states 1..6, its two (cut row, capacity) entries.
# Rows 0 and 1 are the a-side broadcast and delivery cuts (on Ra), rows 2 and 3
# the b-side ones (on Rb).  Both LPs, the dual rows and both closed forms read it.
_STATE_CUTS = (
    ((0, "c13"), (1, "c3")),
    ((2, "c23"), (3, "c3")),
    ((0, "c1"), (2, "c2")),
    ((1, "c2"), (3, "c1")),
    ((0, "c3"), (1, "c23_coh")),
    ((2, "c3"), (3, "c13_coh")),
)


def _state_rows(caps: LinkCaps, y) -> tuple[float, ...]:
    """The six state rows of the dual program at cut multipliers y = (y1..y4):
    the rate state i carries under y, which the budget multiplier y5 must cover."""
    return tuple(y[i] * getattr(caps, a) + y[j] * getattr(caps, b)
                 for (i, a), (j, b) in _STATE_CUTS)


def cut_set_system(gains: ChannelGains) -> System:
    """The cut-set system over (Ra, Rb, lam1..lam6): the four cut rows of
    ``_STATE_CUTS`` (a state's share enters a cut it is not in as -0.0), then
    the time-share budget; every row is ``<=``."""
    caps = link_capacities(gains)
    A = np.zeros((5, 8))
    A[:2, 0] = A[2:4, 1] = A[4, 2:] = 1.0
    A[:4, 2:] = -0.0
    for state, cuts in enumerate(_STATE_CUTS, start=2):
        for row, name in cuts:
            A[row, state] = -getattr(caps, name)
    return A, ("<=",) * 5, (0.0,) * 4 + (1.0,), (1, 2, 3, 4, 5, 6)


def ratio_bound_lp(k: float, gains: ChannelGains) -> LinearProgram:
    """The per-ray program: maximize Rb over (Rb, lam1..lam6) with Ra = k*Rb inlined.

    It is ``cut_set_system`` with k times the Ra column added into the Rb column.
    """
    k = as_real(k)
    if not (math.isfinite(k) and k >= 0.0):
        raise ValidationError(f"ray ratio k must be finite and >= 0, got {k!r}")
    A, relations, rhs, _ = cut_set_system(gains)
    A[:, 1] += k * A[:, 0]
    return LinearProgram(objective=np.array([1.0, 0, 0, 0, 0, 0, 0]), matrix=A[:, 1:],
                         relations=relations, rhs=rhs)


def weighted_bound_lp(wa: float, wb: float, gains: ChannelGains) -> LinearProgram:
    """The weighted-sum program: maximize wa*Ra + wb*Rb over (Ra, Rb, lam1..lam6)."""
    wa, wb = as_real(wa), as_real(wb)
    for name, w in (("wa", wa), ("wb", wb)):
        if not (math.isfinite(w) and w >= 0.0):
            raise ValidationError(f"{name} must be finite and >= 0, got {w!r}")
    if wa == 0.0 and wb == 0.0:
        raise ValidationError("at least one of the weights must be positive")
    A, relations, rhs, _ = cut_set_system(gains)
    return LinearProgram(objective=np.array([wa, wb, 0, 0, 0, 0, 0, 0], dtype=float), matrix=A,
                         relations=relations, rhs=rhs)


def outer_evaluator(gains: ChannelGains) -> Callable[[float], OuterPoint]:
    """k -> the outer-bound point on the ray Ra = k*Rb (k = inf: the Ra axis):
    ``ray_evaluator`` over ``cut_set_system``, with the active states."""
    evaluate = ray_evaluator(cut_set_system(gains))

    def point(k: float) -> OuterPoint:
        p = evaluate(k)
        return OuterPoint(float(k), p.ra, p.rb, p.shares, p.shares.active_states(ACTIVE_STATE_TOL))

    return point


def outer_ratio_bound(k: float, gains: ChannelGains) -> OuterPoint:
    """The outer-bound point on the ray Ra = k*Rb (``outer_evaluator``)."""
    return outer_evaluator(gains)(k)


def outer_weighted_bound(wa: float, wb: float, gains: ChannelGains) -> WeightedBound:
    """Largest wa*Ra + wb*Rb compatible with the cut-set constraints."""
    sol = solve_lp(weighted_bound_lp(wa, wb, gains))
    x = lp_optimum(sol)
    return WeightedBound(value=float(sol.value), ra=float(x[0]), rb=float(x[1]),
                         shares=lp_shares(x[2:8]))


def _rb_multipliers(k: float, caps: LinkCaps) -> tuple[float, float, float, float]:
    """The fixed cut multipliers (y1..y4) behind ``analytic_rb_bound`` for k >= 1;
    they lie on the normalization plane k*(y1 + y2) + y3 + y4 = 1."""
    s = caps.c1 + caps.c2
    if s <= 0.0:
        # degenerate channel: any normalized multipliers certify Rb = 0
        return (0.5 / k, 0.5 / k, 0.5, 0.5)
    u, v = (2.0 * k - 1.0) / (2.0 * k * k), 1.0 / (2.0 * k)
    return (u * caps.c2 / s, u * caps.c1 / s, v * caps.c1 / s, v * caps.c2 / s)


def analytic_rb_bound(k: float, gains: ChannelGains) -> float:
    """Closed-form upper bound on Rb for Ra = k*Rb, valid for any k > 0.

    For k >= 1 it is the dual objective of the per-ray cut-set program at the
    fixed multipliers ``_rb_multipliers``: the largest of the six state rows,
    so it equals ``rb_dual_point(k, gains).y5``.  For k < 1 the same
    construction is applied to the mirrored problem (terminals relabeled,
    ratio 1/k) and mapped back through Rb = Ra / k.
    """
    k = as_real(k)
    if not (math.isfinite(k) and k > 0.0):
        raise ValidationError(f"ray ratio k must be finite and > 0, got {k!r}")
    caps = link_capacities(gains)
    if k >= 1.0:
        return max(_state_rows(caps, _rb_multipliers(k, caps)))
    mirrored = caps.swapped()
    return max(_state_rows(mirrored, _rb_multipliers(1.0 / k, mirrored))) / k


def rb_dual_point(k: float, gains: ChannelGains) -> DualPoint:
    """The fixed dual-feasible point behind ``analytic_rb_bound`` for k >= 1:
    the multipliers ``_rb_multipliers`` and y5 = the largest state row."""
    k = as_real(k)
    if not (math.isfinite(k) and k >= 1.0):
        raise ValidationError(f"the dual point is defined for k >= 1, got {k!r}")
    caps = link_capacities(gains)
    y = _rb_multipliers(k, caps)
    return DualPoint(*y, max(_state_rows(caps, y)))


def dual_point_feasible(k: float, gains: ChannelGains) -> tuple[bool, float]:
    """Check the closed-form dual point against all seven dual constraints.

    Returns (feasible, min_slack): the six state rows must not exceed y5 and
    the normalization row k*(y1+y2) + y3 + y4 >= 1 must hold.
    """
    k = as_real(k)
    p = rb_dual_point(k, gains)
    rows = _state_rows(link_capacities(gains), (p.y1, p.y2, p.y3, p.y4))
    slacks = [p.y5 - r for r in rows]
    slacks.append(k * (p.y1 + p.y2) + p.y3 + p.y4 - 1.0)
    min_slack = min(slacks)
    return (min_slack >= -_DUAL_SLACK_TOL, min_slack)


def _two_phase_value(c_src: float, c_dst: float, c_direct: float) -> float:
    """Rate of a source phase balanced against a delivery phase.

    Both phases also carry the direct link at capacity ``c_direct``; the
    optimum splits time so the two cut values meet.
    """
    den = c_src + c_dst - 2.0 * c_direct
    if den <= 0.0:
        return 0.0
    return (c_src * c_dst - c_direct * c_direct) / den


def one_way_bound(gains: ChannelGains) -> float:
    """Upper bound on Rb for one-way relaying b -> a (the Ra = 0 end of the region).

    Balances the b-side broadcast cut C(gamma2 + gamma3) against the b-side
    delivery cut C((sqrt(gamma1) + sqrt(gamma3))^2); with no direct link it
    reduces to the two-hop value C(g1)C(g2) / (C(g1) + C(g2)).
    """
    caps = link_capacities(gains)
    return _two_phase_value(caps.c23, caps.c13_coh, caps.c3)


def one_way_bound_ab(gains: ChannelGains) -> float:
    """Mirror of ``one_way_bound``: upper bound on Ra for one-way relaying a -> b."""
    caps = link_capacities(gains)
    return _two_phase_value(caps.c13, caps.c23_coh, caps.c3)


def analytic_weighted_bound(k: float, gains: ChannelGains) -> float:
    """Closed-form upper bound on k*Ra + Rb, valid for any k >= 0.

    It is the dual objective of the weighted cut-set program (weights k, 1) at
    fixed cut multipliers built from the two one-way balances, which meet the
    rate rows y1 + y2 = k and y3 + y4 = 1: the largest of the six state rows.
    """
    k = as_real(k)
    if not (math.isfinite(k) and k >= 0.0):
        raise ValidationError(f"weight k must be finite and >= 0, got {k!r}")
    caps = link_capacities(gains)
    den_a = caps.c13 + caps.c23_coh - 2.0 * caps.c3
    den_b = caps.c23 + caps.c13_coh - 2.0 * caps.c3
    if den_a <= 0.0 or den_b <= 0.0:
        return 0.0
    y = (k * (caps.c23_coh - caps.c3) / den_a, k * (caps.c13 - caps.c3) / den_a,
         (caps.c13_coh - caps.c3) / den_b, (caps.c23 - caps.c3) / den_b)
    return max(_state_rows(caps, y))


def capacity_thresholds(gains: ChannelGains) -> Thresholds:
    """Largest direct-link SNRs for which the symmetric-rate bound is relay-limited.

    For gamma1 = gamma2 = g the threshold gamma30 solves
    C(x) + C((sqrt(g) + sqrt(x))^2) = 2 C(g); otherwise gamma31 and gamma32
    solve the two mixed equations with target 2 C(g1) C(g2).  All three
    left-hand sides increase strictly with x, so bisection finds the unique
    roots.
    """
    g1, g2 = gains.gamma1, gains.gamma2
    if g1 <= 0.0 or g2 <= 0.0:
        raise ValidationError("thresholds require positive relay-link SNRs")
    if g1 == g2:
        c = cap(g1)
        root = math.sqrt(g1)

        def f(x: float) -> float:
            return cap(x) + cap((root + math.sqrt(x)) ** 2)

        return Thresholds(gamma30=_solve_increasing(f, 2.0 * c, g2))

    c1, c2 = cap(g1), cap(g2)
    target = 2.0 * c1 * c2
    r1, r2 = math.sqrt(g1), math.sqrt(g2)

    def f1(x: float) -> float:
        return c2 * cap(x) + c1 * cap((r2 + math.sqrt(x)) ** 2)

    def f2(x: float) -> float:
        return c1 * cap(x) + c2 * cap((r1 + math.sqrt(x)) ** 2)

    return Thresholds(
        gamma31=_solve_increasing(f1, target, g2),
        gamma32=_solve_increasing(f2, target, g2),
    )


def _solve_increasing(f: Callable[[float], float], target: float, hi: float) -> float:
    """Root of f(x) = target for increasing f, by bracket expansion + bisection."""
    if f(0.0) >= target:
        return 0.0
    hi = max(hi, 1.0)
    for _ in range(200):
        if f(hi) >= target:
            break
        hi *= 2.0
    else:
        raise SolverError("could not bracket the threshold root")
    lo = 0.0
    while hi - lo > _THRESHOLD_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats: the bracket cannot shrink further
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
