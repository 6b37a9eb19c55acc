"""Achievable rate regions of the relaying protocols, one LP system per channel each.

Covers the two-phase multiple-access/broadcast protocol (MABC), the four-phase
hybrid protocol (HBC) and its three-phase time-division restriction (TDBC),
the six-state decode-and-forward protocol with per-state power splits, the
six-state protocol that also sends fresh data on the direct link, and the
three-phase lattice-forwarding CoMABC protocol.  MABC, TDBC, HBC and CoMABC
are the six-state system over their states.
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
    as_integer,
    as_real,
    cap,
    link_capacities,
    ray_rates,
    tie_ray,
)
from .lp import LinearProgram, LpSolution, SolverError, resume_lp, solve_lp

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
            v = as_real(getattr(self, name))
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class BoundaryPoint:
    """A protocol boundary point on the ray Ra = k * Rb."""

    ra: float
    rb: float
    shares: TimeShares
    flows: FlowVars | None = None
    power_split: PowerSplit | None = None


# A protocol's per-channel system: (matrix, relations, rhs, states) over the
# columns (Ra, Rb, one time share per entry of ``states``, then any others).
System = tuple[np.ndarray, tuple[str, ...], tuple[float, ...], tuple[int, ...]]


def ray_programs(system: System) -> Callable[[float], LinearProgram]:
    """k -> the ray-tied program of a system: ``tie_ray`` merges its Ra and Rb
    columns into column 0, the rate that is maximized.

    The program is built and validated once; each ray only ties the system
    and derives its program from that template (``LinearProgram.with_matrix``).
    """
    matrix, relations, rhs, _ = system
    obj = np.zeros(matrix.shape[1] - 1)
    obj[0] = 1.0
    template = LinearProgram(objective=obj, matrix=matrix[:, 1:], relations=relations, rhs=rhs)
    return lambda k: template.with_matrix(tie_ray(matrix, k))


def ray_evaluator(system: System) -> Callable[[float], BoundaryPoint]:
    """k -> the boundary point of a protocol system on the ray Ra = k*Rb; every
    state not in the system's ``states`` gets share 0.

    Each ray hands the previous ray's optimal basis to ``solve_lp``: along a
    sweep the basis changes only at the region's few vertices, so most rays
    are read from it without pivoting.
    """
    program, states = ray_programs(system), system[3]
    last: tuple[int, ...] = ()

    def point(k: float) -> BoundaryPoint:
        nonlocal last
        sol = solve_lp(program(k), basis=last)
        x = lp_optimum(sol)
        last = sol.basis
        lam = [0.0] * 6
        for state, share in zip(states, x[1:]):
            lam[state - 1] = share
        return BoundaryPoint(*ray_rates(x[0], k), lp_shares(lam))

    return point


def lp_optimum(sol: LpSolution) -> np.ndarray:
    """The optimal point of an LP solution; any other status raises ``SolverError``."""
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


def _over_states(gains: ChannelGains, states: tuple[int, ...], budget: str) -> System:
    """A protocol that uses only ``states``: the six-state system's Ra, Rb and
    share columns of those states, with its budget row related by ``budget``."""
    A, rel, rhs, _ = six_state_system(gains)
    return A.take([0, 1] + [1 + s for s in states], axis=1), rel[:-1] + (budget,), rhs, states


def mabc_system(gains: ChannelGains) -> System:
    """Two-phase protocol: simultaneous uplinks (state 3), relay broadcast (state 4)."""
    return _over_states(gains, (3, 4), "<=")


def hbc_system(gains: ChannelGains, tdbc_only: bool = False) -> System:
    """Four-phase protocol over states 1-4; ``tdbc_only`` drops the joint
    uplink state 3 (the three-phase time-division restriction)."""
    A, rel, rhs, states = _over_states(gains, (1, 2, 3, 4), "=")
    if tdbc_only:
        A = np.vstack([A, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]])
        rel += ("=",)
        rhs += (0.0,)
    return A, rel, rhs, states


def comabc_system(gains: ChannelGains) -> System:
    """Three-phase lattice-forwarding protocol over states 3, 4 and 6.

    The relay decodes a lattice combination, so the uplink rates are capped by
    the clipped single-user expressions R*_ar, R*_br rather than the MAC region.
    """
    A, rel, rhs, states = _over_states(gains, (3, 4, 6), "<=")
    # state 3's uplinks are capped by the lattice rates, with no sum-rate row
    A[0, 2] = -_lattice_uplink_rate(gains.gamma1, gains.gamma2)
    A[2, 2] = -_lattice_uplink_rate(gains.gamma2, gains.gamma1)
    return A.take([0, 1, 2, 3, 5], axis=0), rel[:4] + rel[5:], rhs[:4] + rhs[5:], states


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


# flow variables of the six-state DF protocol, in LP column order: "ar1" is the
# flow from a to the relay r in state 1
_DF_FLOWS = ("ar1", "ab1", "br2", "ba2", "ar3", "br3", "ra4", "rb4", "rb5", "ab5", "ra6", "ba6")
_DF_COLUMNS = ("Ra", "Rb", "lam1", "lam2", "lam3", "lam4", "lam5", "lam6") + _DF_FLOWS
# the power split's capacities: relay-bound, then direct-link, of states 1 and 2
_DF_SPLIT_CAPS = ("relay1", "direct1", "relay2", "direct2")

# The six-state DF system, one row each as ({column: coefficient}, relation);
# the last row, the time budget, has rhs 1 and every other row 0.  A share's
# coefficient names a capacity, entered negated: a ``LinkCaps`` field, or one
# of ``_DF_SPLIT_CAPS``, which the power split sets.
_DF_ROWS = (
    # rate compositions: a rate is all its source sends, via the relay or not
    ({"Ra": 1, "ar1": -1, "ab1": -1, "ab5": -1, "ar3": -1}, "="),
    ({"Rb": 1, "br2": -1, "ba2": -1, "ba6": -1, "br3": -1}, "="),
    # per-state caps: flows within a state's share times a capacity
    ({"ar1": 1, "lam1": "relay1"}, "<="), ({"ab1": 1, "lam1": "direct1"}, "<="),
    ({"br2": 1, "lam2": "relay2"}, "<="), ({"ba2": 1, "lam2": "direct2"}, "<="),
    ({"ar3": 1, "lam3": "c1"}, "<="), ({"br3": 1, "lam3": "c2"}, "<="),
    ({"ar3": 1, "br3": 1, "lam3": "c12"}, "<="),
    ({"ra4": 1, "lam4": "c1"}, "<="), ({"rb4": 1, "lam4": "c2"}, "<="),
    ({"rb5": 1, "lam5": "c2"}, "<="), ({"ab5": 1, "lam5": "c3"}, "<="),
    ({"rb5": 1, "ab5": 1, "lam5": "c23"}, "<="),
    ({"ra6": 1, "lam6": "c1"}, "<="), ({"ba6": 1, "lam6": "c3"}, "<="),
    ({"ra6": 1, "ba6": 1, "lam6": "c13"}, "<="),
    # relay conservation: it forwards what it decodes
    ({"ar1": 1, "ar3": 1, "rb5": -1, "rb4": -1}, "="),
    ({"br2": 1, "br3": 1, "ra6": -1, "ra4": -1}, "="),
    ({"lam1": 1, "lam2": 1, "lam3": 1, "lam4": 1, "lam5": 1, "lam6": 1}, "="),
)
# (row, column) of each of ``_DF_SPLIT_CAPS`` in the ray-tied system, whose
# column 0 merges Ra and Rb
_DF_SPLIT_ENTRIES = tuple((row, _DF_COLUMNS.index(col) - 1) for name in _DF_SPLIT_CAPS
                          for row, (terms, _) in enumerate(_DF_ROWS)
                          for col, v in terms.items() if v == name)
_DF_SPLIT_ROWS, _DF_SPLIT_COLS = np.array(_DF_SPLIT_ENTRIES).T
# the master's columns taken from the ray-tied system: all but lam1 and lam2,
# whose place the broadcast states' share columns take, one per alpha
_DF_MASTER_BASE = np.array([0] + list(range(3, len(_DF_COLUMNS) - 1)))
# pricing adds a broadcast state's best column only if its reduced cost is
# above this share of the master's rate; at most this many masters a ray
_CG_TOL = 1e-10
_CG_MAX = 60


def _df_matrix(gains: ChannelGains) -> System:
    """The six-state DF system (``_DF_ROWS`` over ``_DF_COLUMNS``), with the
    power-split entries 0 until a split sets them (``_split_program``)."""
    caps = link_capacities(gains)
    A = np.zeros((len(_DF_ROWS), len(_DF_COLUMNS)))
    for row, (terms, _) in enumerate(_DF_ROWS):
        for col, v in terms.items():
            if v not in _DF_SPLIT_CAPS:
                A[row, _DF_COLUMNS.index(col)] = -getattr(caps, v) if isinstance(v, str) else v
    return (A, tuple(rel for _, rel in _DF_ROWS), (0.0,) * (len(_DF_ROWS) - 1) + (1.0,),
            (1, 2, 3, 4, 5, 6))


def _df_caps(gain: float, gamma3: float, alpha: float) -> tuple[float, float]:
    """A broadcast state's relay-bound and direct-link capacities: its sender
    puts power share ``alpha`` on the relay-bound message (link gain
    ``gain``), and the direct-link receiver decodes its own message under it
    as noise."""
    return cap(alpha * gain), cap((1.0 - alpha) * gamma3 / (1.0 + alpha * gamma3))


def _split_program(template: LinearProgram, gains: ChannelGains, alpha1: float,
                   alpha2: float) -> LinearProgram:
    """The ray-tied DF program ``template`` at the power split (alpha1, alpha2)."""
    A = template.matrix.copy()
    A[_DF_SPLIT_ROWS, _DF_SPLIT_COLS] = [
        -c for gain, a in ((gains.gamma1, alpha1), (gains.gamma2, alpha2))
        for c in _df_caps(gain, gains.gamma3, a)]
    return template.with_matrix(A)


def _df_point(k: float, gains: ChannelGains, alpha1: float, alpha2: float) -> BoundaryPoint:
    template = ray_programs(_df_matrix(gains))(k)
    x = lp_optimum(solve_lp(_split_program(template, gains, alpha1, alpha2)))
    return _df_boundary_point(k, x, alpha1, alpha2)


def _df_boundary_point(k: float, x: np.ndarray, alpha1: float, alpha2: float) -> BoundaryPoint:
    flows = {(f[0], f[1], int(f[2])): float(x[7 + i]) for i, f in enumerate(_DF_FLOWS)}
    return BoundaryPoint(*ray_rates(x[0], k), lp_shares(x[1:7]), flows=flows,
                         power_split=PowerSplit(alpha1, alpha2))


def six_state_df_boundary(k: float, gains: ChannelGains, alpha_grid: int = 33,
                          refine: bool = True) -> BoundaryPoint:
    """Six-state decode-and-forward protocol without side information.

    All six states carry flow variables; the two broadcast states split power
    between the relay-bound and direct-link messages.  The split is chosen by
    column generation (``df_evaluator``): a master LP gives each broadcast
    state one share column per power split alpha, seeded with the
    ``alpha_grid`` points of ``linspace(0, 1, alpha_grid)``, so it rates at
    least every split of that grid.  With ``refine`` the master is priced:
    each state's best alpha is found in closed form and added as a column
    until none improves the rate by more than ``_CG_TOL`` of it, at most
    ``_CG_MAX`` masters; without it the seeded master is solved once.
    Where each state's share lies on one alpha column at most, the point is
    the master's own optimum, which is that split's optimum; a state with no
    share reports its first column's alpha.  Where a state spreads its share
    over several columns, every combination of the alphas that carry share is
    solved alone and the best is kept, the first in column order on ties.
    ``alpha_grid`` must be an integer (a numpy one too) of at least 2.
    A sweep states the channel once (``df_evaluator``); this is one ray of it.
    """
    return df_evaluator(gains, alpha_grid, refine)(k)


def df_evaluator(gains: ChannelGains, alpha_grid: int = 33,
                 refine: bool = True) -> Callable[[float], BoundaryPoint]:
    """k -> the six-state DF boundary point on the ray Ra = k*Rb
    (``six_state_df_boundary``), for one channel.

    The channel's DF program and its seed columns are built once.  The
    master's columns are the ray-tied program's, lam1 and lam2 replaced by
    one share column per alpha in each broadcast state: -c_r(alpha) and
    -c_d(alpha) in the state's relay-bound and direct-link cap rows and 1 in
    the budget row.  With duals y, a column's reduced cost is
    y_r c_r(alpha) + y_d c_d(alpha) - y_b, and as c_d(alpha) = cap(gamma3) -
    log2(1 + alpha gamma3) its one stationary point is alpha* = (y_r gamma -
    y_d gamma3) / (gamma gamma3 (y_d - y_r)), so pricing takes the best of
    0, 1 and alpha* when that lies in (0, 1).  A new column leaves the last
    master's optimal basis feasible, so each master after a ray's first
    resumes phase 2 from it (``resume_lp``).  Each ray starts from the seed
    columns and holds nothing of another ray, so a swept ray returns what a
    lone call returns, bit for bit.
    """
    alpha_grid = as_integer("alpha_grid", alpha_grid)
    if alpha_grid < 2:
        raise ValidationError(f"alpha_grid must be >= 2, got {alpha_grid}")
    if gains.gamma3 == 0.0:
        # every direct-link cap is 0 and each relay-bound cap grows with its
        # alpha, so the split (1, 1) reaches the best rate
        return lambda k: _df_point(k, gains, 1.0, 1.0)

    program = ray_programs(_df_matrix(gains))
    g3, budget = gains.gamma3, len(_DF_ROWS) - 1
    states = ((gains.gamma1, _DF_SPLIT_ROWS[:2]), (gains.gamma2, _DF_SPLIT_ROWS[2:]))

    def column(state: int, alpha: float) -> np.ndarray:
        gain, rows = states[state]
        col = np.zeros(len(_DF_ROWS))
        col[rows] = [-c for c in _df_caps(gain, g3, alpha)]
        col[budget] = 1.0
        return col

    seeds = [float(a) for a in np.linspace(0.0, 1.0, alpha_grid)]
    seeded = [np.column_stack([column(s, a) for a in seeds]) for s in (0, 1)]

    def price(state: int, y: np.ndarray) -> tuple[float, float]:
        """(reduced cost, alpha) of the state's best column under the duals y."""
        gain, rows = states[state]
        y_r, y_d = map(float, y[rows])
        den = gain * g3 * (y_d - y_r)
        star = (y_r * gain - y_d * g3) / den if den else math.nan

        def reduced(alpha: float) -> float:
            c_r, c_d = _df_caps(gain, g3, alpha)
            return y_r * c_r + y_d * c_d - float(y[budget])

        best = max((0.0, 1.0, star) if 0.0 < star < 1.0 else (0.0, 1.0), key=reduced)
        return reduced(best), best

    def point(k: float) -> BoundaryPoint:
        template = program(k)
        base = template.matrix.take(_DF_MASTER_BASE, axis=1)
        m = base.shape[1]
        alphas, blocks = [list(seeds), list(seeds)], list(seeded)
        basis = ()
        for n in range(1, _CG_MAX + 1):
            matrix = np.hstack([base] + blocks)
            objective = np.zeros(matrix.shape[1])
            objective[0] = 1.0
            master = LinearProgram(objective=objective, matrix=matrix,
                                   relations=template.relations, rhs=template.rhs)
            sol = resume_lp(master, basis) if basis else solve_lp(master)
            x = lp_optimum(sol)
            if not refine or n == _CG_MAX:
                break
            basis, added = sol.basis, False
            for s in (0, 1):
                reduced, alpha = price(s, sol.duals)
                if reduced > _CG_TOL * x[0] and alpha not in alphas[s]:
                    # the column goes after the state's last: the columns
                    # after it, and the slacks, shift right in the basis
                    at = m + len(alphas[0]) + s * len(alphas[1])
                    basis = tuple(j + (j >= at) for j in basis)
                    alphas[s].append(alpha)
                    blocks[s] = np.column_stack([blocks[s], column(s, alpha)])
                    added = True
            if not added:
                break
        n1 = len(alphas[0])
        shares = x[m:m + n1], x[m + n1:]
        carry = [[a for a, v in zip(alphas[s], shares[s]) if v > 0.0] or alphas[s][:1]
                 for s in (0, 1)]
        if len(carry[0]) == len(carry[1]) == 1:
            full = np.concatenate([x[:1], [shares[0].sum(), shares[1].sum()], x[1:m]])
            return _df_boundary_point(k, full, carry[0][0], carry[1][0])
        # a time-share of alphas within a state: rate each combination alone
        x, a1, a2 = max(((lp_optimum(solve_lp(_split_program(template, gains, a1, a2))), a1, a2)
                         for a1 in carry[0] for a2 in carry[1]), key=lambda t: t[0][0])
        return _df_boundary_point(k, x, a1, a2)

    return point
