"""Achievable rate regions of the relaying protocols, one LP system per channel each.

Covers the two-phase multiple-access/broadcast protocol (MABC), the four-phase
hybrid protocol (HBC) and its three-phase time-division restriction (TDBC),
the six-state decode-and-forward protocol with per-state power splits, the
six-state protocol that also sends fresh data on the direct link, and the
three-phase lattice-forwarding CoMABC protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ChannelGains,
    TimeShares,
    ValidationError,
    cap,
    link_capacities,
    ray_rates,
    tie_ray,
)
from .lp import (
    STACK_CHUNK,
    LinearProgram,
    LpSolution,
    SolverError,
    solve_lp,
    solve_lp_stack,
)

# per-protocol information flows: (source, destination, state) -> rate
FlowVars = dict[tuple[str, str, int], float]


@dataclass(frozen=True)
class PowerSplit:
    """Fractions of transmit power spent on the relay-bound message in the
    two broadcast states (the remainder rides on the direct link)."""

    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v!r}")


@dataclass(frozen=True)
class BoundaryPoint:
    """A protocol boundary point on the ray Ra = k * Rb."""

    ra: float
    rb: float
    shares: TimeShares
    flows: FlowVars | None = None
    power_split: PowerSplit | None = None


# A protocol's per-channel system: (matrix, relations, rhs, states) over the
# columns (Ra, Rb, then one time share per entry of ``states``).
System = tuple[np.ndarray, tuple[str, ...], tuple[float, ...], tuple[int, ...]]


def ray_programs(matrix: np.ndarray, relations, rhs) -> Callable[[float], LinearProgram]:
    """k -> the ray-tied program of a system whose columns 0 and 1 are Ra and Rb:
    ``tie_ray`` merges them into column 0, the rate that is maximized.

    The program is built and validated once; each ray only ties the system
    and derives its program from that template (``LinearProgram.with_matrix``).
    """
    obj = np.zeros(matrix.shape[1] - 1)
    obj[0] = 1.0
    template = LinearProgram(objective=obj, matrix=matrix[:, 1:], relations=relations, rhs=rhs)
    return lambda k: template.with_matrix(tie_ray(matrix, k))


def ray_evaluator(system: System) -> Callable[[float], BoundaryPoint]:
    """k -> the boundary point of a protocol system on the ray Ra = k*Rb; every
    state not in the system's ``states`` gets share 0."""
    matrix, relations, rhs, states = system
    program = ray_programs(matrix, relations, rhs)

    def point(k: float) -> BoundaryPoint:
        x = lp_optimum(solve_lp(program(k)))
        lam = [0.0] * 6
        for state, share in zip(states, x[1:]):
            lam[state - 1] = share
        return BoundaryPoint(*ray_rates(x[0], k), lp_shares(lam))

    return point


def lp_optimum(sol: LpSolution | SolverError) -> np.ndarray:
    """The optimal point of an LP solution, or the failure it records."""
    if isinstance(sol, SolverError):
        raise sol
    if not sol.is_optimal:
        raise SolverError(f"rate LP unexpectedly {sol.status}")
    return sol.x


def lp_shares(values) -> TimeShares:
    """The time shares of an LP solution; shares ``TimeShares`` rejects are
    simplex round-off, not bad input, so they raise ``SolverError``."""
    try:
        return TimeShares.from_sequence(values)
    except ValidationError as exc:
        raise SolverError(f"LP solution has invalid time shares: {exc}") from exc


def mabc_system(gains: ChannelGains) -> System:
    """Two-phase protocol: simultaneous uplinks (state 3), relay broadcast (state 4)."""
    caps = link_capacities(gains)
    # columns: Ra, Rb, lam3, lam4
    A = np.array([
        [1.0, 0.0, -caps.c1, 0.0],
        [1.0, 0.0, 0.0, -caps.c2],
        [0.0, 1.0, -caps.c2, 0.0],
        [0.0, 1.0, 0.0, -caps.c1],
        [1.0, 1.0, -caps.c12, 0.0],
        [0.0, 0.0, 1.0, 1.0],
    ])
    return A, ("<=",) * 6, (0.0,) * 5 + (1.0,), (3, 4)


def hbc_system(gains: ChannelGains, tdbc_only: bool = False) -> System:
    """Four-phase protocol over states 1-4; ``tdbc_only`` drops the joint
    uplink state 3 (the three-phase time-division restriction)."""
    caps = link_capacities(gains)
    # columns: Ra, Rb, lam1, lam2, lam3, lam4
    A = np.array([
        [1.0, 0.0, -caps.c1, 0.0, -caps.c1, 0.0],
        [1.0, 0.0, -caps.c3, 0.0, 0.0, -caps.c2],
        [0.0, 1.0, 0.0, -caps.c2, -caps.c2, 0.0],
        [0.0, 1.0, 0.0, -caps.c3, 0.0, -caps.c1],
        [1.0, 1.0, -caps.c1, -caps.c2, -caps.c12, 0.0],
        [0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
    ])
    rel = ("<=",) * 5 + ("=",)
    rhs = (0.0,) * 5 + (1.0,)
    if tdbc_only:
        A = np.vstack([A, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]])
        rel += ("=",)
        rhs += (0.0,)
    return A, rel, rhs, (1, 2, 3, 4)


def six_state_system(gains: ChannelGains) -> System:
    """Six-state protocol with side information: states 5 and 6 forward relayed
    data coherently with fresh direct-link transmissions.

    The direct-link flows are fixed at their region-maximizing values
    (state-5: Z_ab = lam5*C(g3) with the pair summing to lam5*C(g2+g3), and
    the mirror in state 6), which folds the flow variables into the shares.
    """
    caps = link_capacities(gains)
    # columns: Ra, Rb, lam1..lam6
    A = np.array([
        [1.0, 0.0, -caps.c1, 0.0, -caps.c1, 0.0, -caps.c3, 0.0],
        [1.0, 0.0, -caps.c3, 0.0, 0.0, -caps.c2, -caps.c23, 0.0],
        [0.0, 1.0, 0.0, -caps.c2, -caps.c2, 0.0, 0.0, -caps.c3],
        [0.0, 1.0, 0.0, -caps.c3, 0.0, -caps.c1, 0.0, -caps.c13],
        [1.0, 1.0, -caps.c1, -caps.c2, -caps.c12, 0.0, -caps.c3, -caps.c3],
        [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    ])
    return A, ("<=",) * 5 + ("=",), (0.0,) * 5 + (1.0,), (1, 2, 3, 4, 5, 6)


def comabc_system(gains: ChannelGains) -> System:
    """Three-phase lattice-forwarding protocol over states 3, 4 and 6.

    The relay decodes a lattice combination, so the uplink rates are capped by
    the clipped single-user expressions R*_ar, R*_br rather than the MAC region.
    """
    caps = link_capacities(gains)
    r_ar = _lattice_uplink_rate(gains.gamma1, gains.gamma2)
    r_br = _lattice_uplink_rate(gains.gamma2, gains.gamma1)
    # columns: Ra, Rb, lam3, lam4, lam6
    A = np.array([
        [1.0, 0.0, -r_ar, 0.0, 0.0],
        [1.0, 0.0, 0.0, -caps.c2, 0.0],
        [0.0, 1.0, -r_br, 0.0, -caps.c3],
        [0.0, 1.0, 0.0, -caps.c1, -caps.c13],
        [0.0, 0.0, 1.0, 1.0, 1.0],
    ])
    return A, ("<=",) * 5, (0.0,) * 4 + (1.0,), (3, 4, 6)


def mabc_boundary(k: float, gains: ChannelGains) -> BoundaryPoint:
    """The MABC boundary point on the ray Ra = k*Rb (``mabc_system``)."""
    return ray_evaluator(mabc_system(gains))(k)


def hbc_boundary(k: float, gains: ChannelGains, tdbc_only: bool = False) -> BoundaryPoint:
    """The HBC (TDBC with ``tdbc_only``) boundary point on the ray Ra = k*Rb
    (``hbc_system``)."""
    return ray_evaluator(hbc_system(gains, tdbc_only))(k)


def six_state_boundary(k: float, gains: ChannelGains) -> BoundaryPoint:
    """The six-state boundary point on the ray Ra = k*Rb (``six_state_system``)."""
    return ray_evaluator(six_state_system(gains))(k)


def comabc_boundary(k: float, gains: ChannelGains) -> BoundaryPoint:
    """The CoMABC boundary point on the ray Ra = k*Rb (``comabc_system``)."""
    return ray_evaluator(comabc_system(gains))(k)


def _lattice_uplink_rate(g_own: float, g_other: float) -> float:
    """Clipped uplink rate [log2(g_own / (g_own + g_other) + g_own)]^+ ."""
    total = g_own + g_other
    if total <= 0.0:
        return 0.0
    arg = g_own / total + g_own
    if arg <= 1.0:
        return 0.0
    return math.log2(arg)


# flow variables of the six-state DF protocol, in LP column order
_DF_FLOWS: tuple[tuple[str, str, int], ...] = (
    ("a", "r", 1), ("a", "b", 1),
    ("b", "r", 2), ("b", "a", 2),
    ("a", "r", 3), ("b", "r", 3),
    ("r", "a", 4), ("r", "b", 4),
    ("r", "b", 5), ("a", "b", 5),
    ("r", "a", 6), ("b", "a", 6),
)


def _df_matrix(gains: ChannelGains, alpha1: float, alpha2: float):
    """Constraint system of the six-state DF protocol at a fixed power split.

    Columns: Ra, Rb, lam1..lam6, then the twelve flow variables in
    ``_DF_FLOWS`` order.  Rows: the two rate compositions, per-state flow
    caps, the two relay conservation equalities, and the time budget.
    """
    caps = link_capacities(gains)
    bc1_relay, bc1_direct = _df_split_caps(gains.gamma1, gains.gamma3, alpha1)
    bc2_relay, bc2_direct = _df_split_caps(gains.gamma2, gains.gamma3, alpha2)

    col = {name: 8 + i for i, name in enumerate(_DF_FLOWS)}
    n = 8 + len(_DF_FLOWS)
    rows, rel, rhs = [], [], []

    def add(vals: dict, relation: str, b: float = 0.0) -> None:
        r = np.zeros(n)
        for j, v in vals.items():
            r[j] = v
        rows.append(r)
        rel.append(relation)
        rhs.append(b)

    zar1, zab1 = col[("a", "r", 1)], col[("a", "b", 1)]
    zbr2, zba2 = col[("b", "r", 2)], col[("b", "a", 2)]
    zar3, zbr3 = col[("a", "r", 3)], col[("b", "r", 3)]
    zra4, zrb4 = col[("r", "a", 4)], col[("r", "b", 4)]
    zrb5, zab5 = col[("r", "b", 5)], col[("a", "b", 5)]
    zra6, zba6 = col[("r", "a", 6)], col[("b", "a", 6)]

    add({0: 1.0, zar1: -1.0, zab1: -1.0, zab5: -1.0, zar3: -1.0}, "=")
    add({1: 1.0, zbr2: -1.0, zba2: -1.0, zba6: -1.0, zbr3: -1.0}, "=")
    add({zar1: 1.0, 2: -bc1_relay}, "<=")
    add({zab1: 1.0, 2: -bc1_direct}, "<=")
    add({zbr2: 1.0, 3: -bc2_relay}, "<=")
    add({zba2: 1.0, 3: -bc2_direct}, "<=")
    add({zar3: 1.0, 4: -caps.c1}, "<=")
    add({zbr3: 1.0, 4: -caps.c2}, "<=")
    add({zar3: 1.0, zbr3: 1.0, 4: -caps.c12}, "<=")
    add({zra4: 1.0, 5: -caps.c1}, "<=")
    add({zrb4: 1.0, 5: -caps.c2}, "<=")
    add({zrb5: 1.0, 6: -caps.c2}, "<=")
    add({zab5: 1.0, 6: -caps.c3}, "<=")
    add({zrb5: 1.0, zab5: 1.0, 6: -caps.c23}, "<=")
    add({zra6: 1.0, 7: -caps.c1}, "<=")
    add({zba6: 1.0, 7: -caps.c3}, "<=")
    add({zra6: 1.0, zba6: 1.0, 7: -caps.c13}, "<=")
    add({zar1: 1.0, zar3: 1.0, zrb5: -1.0, zrb4: -1.0}, "=")
    add({zbr2: 1.0, zbr3: 1.0, zra6: -1.0, zra4: -1.0}, "=")
    add({j: 1.0 for j in range(2, 8)}, "=", 1.0)

    return np.array(rows), tuple(rel), rhs


# (row, column) of the entries of the ray-tied _df_matrix system that the
# power split sets: minus the _df_split_caps pairs of states 1 and 2
_DF_SPLIT_ENTRIES = ((2, 1), (3, 1), (4, 2), (5, 2))
# split rates within this relative distance of a grid stage's best are tied
_DF_TIE_RTOL = 1e-12


def _df_split_caps(g_relay: float, g3: float, alpha: float) -> tuple[float, float]:
    """Relay-bound and direct-link capacities of a broadcast state (1 or 2)
    whose sender puts power share ``alpha`` on the relay-bound message."""
    return cap(alpha * g_relay), cap((1.0 - alpha) * g3 / (1.0 + alpha * g3))


def _df_point(k: float, gains: ChannelGains, alpha1: float, alpha2: float) -> BoundaryPoint:
    A, rel, rhs = _df_matrix(gains, alpha1, alpha2)
    x = lp_optimum(solve_lp(ray_programs(A, rel, rhs)(k)))
    return _df_boundary_point(k, x, lp_shares(x[1:7]), alpha1, alpha2)


def _df_boundary_point(k: float, x: np.ndarray, shares: TimeShares,
                       alpha1: float, alpha2: float) -> BoundaryPoint:
    flows = {name: float(x[7 + i]) for i, name in enumerate(_DF_FLOWS)}
    return BoundaryPoint(*ray_rates(x[0], k), shares, flows=flows,
                         power_split=PowerSplit(alpha1, alpha2))


def six_state_df_boundary(k: float, gains: ChannelGains, alpha_grid: int = 33,
                          refine: bool = True) -> BoundaryPoint:
    """Six-state decode-and-forward protocol without side information.

    All six states carry flow variables; the two broadcast states split power
    between the relay-bound and direct-link messages.  The power splits are
    optimized over an ``alpha_grid`` x ``alpha_grid`` grid with one local
    refinement pass (a 9x9 sub-grid one base spacing wide around the best
    point).  A stage keeps its first point, in grid order, within
    ``_DF_TIE_RTOL`` of its best rate; the refinement must beat that by more.
    Each grid stage is solved as one stack of programs (``solve_lp_stack``).
    """
    if alpha_grid < 2:
        raise ValidationError(f"alpha_grid must be >= 2, got {alpha_grid}")
    if gains.gamma3 == 0.0:
        # the direct link carries nothing: every split gives the same LP
        return _df_point(k, gains, 1.0, 1.0)

    axis = np.linspace(0.0, 1.0, alpha_grid)
    A, rel, rhs = _df_matrix(gains, 0.0, 0.0)  # the split entries are set per point
    template = ray_programs(A, rel, rhs)(k)
    best = _df_best(template, gains, axis, axis)

    if refine:
        radius = 1.0 / (alpha_grid - 1)
        b1, b2 = best[2], best[3]
        sub1 = np.linspace(max(0.0, b1 - radius), min(1.0, b1 + radius), 9)
        sub2 = np.linspace(max(0.0, b2 - radius), min(1.0, b2 + radius), 9)
        fine = _df_best(template, gains, sub1, sub2)
        if fine[0][0] - best[0][0] > _DF_TIE_RTOL * best[0][0]:
            best = fine
    return _df_boundary_point(k, *best)


def _df_best(template: LinearProgram, gains: ChannelGains, axis1, axis2):
    """The best split of ``axis1`` x ``axis2`` as (x, shares, alpha1, alpha2);
    x[0] is the rate the ray program maximizes.

    The first failing point, in grid order, raises what a point-by-point
    solve of the grid would raise.
    """
    # state 1's entries depend on alpha1 only and state 2's on alpha2 only
    g1, g2, g3 = gains.as_tuple()
    ent1 = [(a, [-c for c in _df_split_caps(g1, g3, a)]) for a in map(float, axis1)]
    ent2 = [(a, [-c for c in _df_split_caps(g2, g3, a)]) for a in map(float, axis2)]
    splits = [(a1, a2, e1 + e2) for a1, e1 in ent1 for a2, e2 in ent2]
    rows, cols = zip(*_DF_SPLIT_ENTRIES)
    points = []
    for start in range(0, len(splits), STACK_CHUNK):
        chunk = splits[start:start + STACK_CHUNK]
        mats = np.repeat(template.matrix[None], len(chunk), axis=0)
        mats[:, rows, cols] = [entries for _, _, entries in chunk]
        for (a1, a2, _), sol in zip(chunk, solve_lp_stack(template, mats)):
            x = lp_optimum(sol)
            points.append((x, lp_shares(x[1:7]), a1, a2))
    top = max(p[0][0] for p in points)
    return next(p for p in points if top - p[0][0] <= _DF_TIE_RTOL * top)
