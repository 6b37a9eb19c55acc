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
from .lp import LinearProgram, LpSolution, SolverError, certify, solve_lp

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
# per column of the ray-tied system (column 0 merges Ra and Rb), the rows that
# may hold a nonzero entry, padded with the index one past the last row
_DF_NONZERO = tuple(
    (rows + [len(_DF_ROWS)] * 4)[:4] for rows in (
        [r for r, (terms, _) in enumerate(_DF_ROWS)
         if any(max(_DF_COLUMNS.index(col) - 1, 0) == j for col in terms)]
        for j in range(len(_DF_COLUMNS) - 1)))
# per flow, in column order: the column of its state's share, and the two
# ``<=`` rows that cap it by that share (one row twice if it has one)
_DF_FLOW_SHARE = np.array([_DF_COLUMNS.index(f"lam{f[2]}") - 1 for f in _DF_FLOWS])
_DF_CAP_ROWS = np.array([(rows * 2)[-2:] for rows in (
    [r for r, (terms, rel) in enumerate(_DF_ROWS) if rel == "<=" and f in terms]
    for f in _DF_FLOWS)])
# per rate row (Ra's, Rb's), which flows make up that rate
_DF_SOURCE = np.array([[terms.get(f) == -1 for f in _DF_FLOWS] for terms, _ in _DF_ROWS[:2]])
# split rates within this relative distance of a grid stage's best are tied
_DF_TIE_RTOL = 1e-12
# a split's rate read from a basis is taken to lie within this relative
# distance of its cold solve's (at most 2.5e-14 on the presets)
_DF_READ_RTOL = 1e-13


def _df_matrix(gains: ChannelGains) -> System:
    """The six-state DF system (``_DF_ROWS`` over ``_DF_COLUMNS``), with the
    power-split entries 0 until a split sets them (``_with_splits``)."""
    caps = link_capacities(gains)
    A = np.zeros((len(_DF_ROWS), len(_DF_COLUMNS)))
    for row, (terms, _) in enumerate(_DF_ROWS):
        for col, v in terms.items():
            if v not in _DF_SPLIT_CAPS:
                A[row, _DF_COLUMNS.index(col)] = -getattr(caps, v) if isinstance(v, str) else v
    return (A, tuple(rel for _, rel in _DF_ROWS), (0.0,) * (len(_DF_ROWS) - 1) + (1.0,),
            (1, 2, 3, 4, 5, 6))


def _df_splits(gains: ChannelGains, axis1, axis2) -> list[tuple[float, float, list[float]]]:
    """The splits of ``axis1`` x ``axis2`` in grid order, as (alpha1, alpha2,
    the values at ``_DF_SPLIT_ENTRIES``): state 1's depend on alpha1 only and
    state 2's on alpha2 only.  A broadcast state's sender puts power share
    alpha on the relay-bound message; the direct-link receiver decodes its
    own message under it as noise."""
    g3 = gains.gamma3
    ent1, ent2 = ([(a, [-cap(a * g), -cap((1.0 - a) * g3 / (1.0 + a * g3))])
                   for a in map(float, axis)]
                  for g, axis in ((gains.gamma1, axis1), (gains.gamma2, axis2)))
    return [(a1, a2, e1 + e2) for a1, e1 in ent1 for a2, e2 in ent2]


def _with_splits(template: LinearProgram, splits) -> np.ndarray:
    """The ray-tied DF program's matrix once per split, with its entries set."""
    rows, cols = zip(*_DF_SPLIT_ENTRIES)
    mats = np.repeat(template.matrix[None], len(splits), axis=0)
    mats[:, rows, cols] = [entries for _, _, entries in splits]
    return mats


def _solve_split(template: LinearProgram, split) -> LpSolution:
    """The cold solve of the ray-tied DF program at one split of ``_df_splits``."""
    (A,) = _with_splits(template, [split])
    return solve_lp(template.with_matrix(A))


def _df_point(k: float, gains: ChannelGains, alpha1: float, alpha2: float) -> BoundaryPoint:
    template = ray_programs(_df_matrix(gains))(k)
    (split,) = _df_splits(gains, [alpha1], [alpha2])
    return _df_boundary_point(k, *_df_solved(_solve_split(template, split)), alpha1, alpha2)


def _df_boundary_point(k: float, x: np.ndarray, shares: TimeShares,
                       alpha1: float, alpha2: float) -> BoundaryPoint:
    flows = {(f[0], f[1], int(f[2])): float(x[7 + i]) for i, f in enumerate(_DF_FLOWS)}
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
    The refinement starts from the coarse pick's rate (its incumbent): it
    rates no split its bounds put surely below that rate, and none at all
    where they prove that no refinement split beats it by more; the coarse
    pick then stands.
    Each grid stage bounds every split's rate by weak duality from the duals
    of the splits it has rated and rates only the splits those bounds leave
    in contention, most of them from the optimal bases of a few solved
    splits and the rest by ``solve_lp``; while a stage trusts its bounds, a
    batch of splits cold-solves only its first split that no held basis
    rates and leaves the rest to the refreshed bounds and the new basis
    (``_df_best``).  The refinement starts from the bases and duals the
    coarse grid found.
    The point returned is the chosen split's own solve, the one a
    point-by-point search returns wherever each rate read from a basis lies
    within ``_DF_READ_RTOL`` of the split's cold rate and no cold rate
    exceeds a bound by more (every preset does; where a cold solve is itself
    off, the choice can differ).  Only if a solve breaks down is every split
    of the stage solved, in grid order, which raises the ``SolverError`` of
    the first failing split.
    ``alpha_grid`` must be an integer (a numpy one too) of at least 2.
    """
    alpha_grid = as_integer("alpha_grid", alpha_grid)
    if alpha_grid < 2:
        raise ValidationError(f"alpha_grid must be >= 2, got {alpha_grid}")
    if gains.gamma3 == 0.0:
        # every direct-link cap is 0 and each relay-bound cap grows with its
        # alpha, so the split (1, 1) reaches the stage's best rate
        return _df_point(k, gains, 1.0, 1.0)

    axis = np.linspace(0.0, 1.0, alpha_grid)
    template = ray_programs(_df_matrix(gains))(k)
    bases: list[tuple[int, ...]] = []
    duals: list[np.ndarray] = []
    best, trusted = _df_best(template, gains, axis, axis, bases, duals, True)

    if refine:
        radius = 1.0 / (alpha_grid - 1)
        b1, b2 = best[2], best[3]
        sub1 = np.linspace(max(0.0, b1 - radius), min(1.0, b1 + radius), 9)
        sub2 = np.linspace(max(0.0, b2 - radius), min(1.0, b2 + radius), 9)
        fine, _ = _df_best(template, gains, sub1, sub2, bases, duals, trusted, best[0][0])
        if fine is not None and fine[0][0] - best[0][0] > _DF_TIE_RTOL * best[0][0]:
            best = fine
    return _df_boundary_point(k, *best)


def _df_best(template: LinearProgram, gains: ChannelGains, axis1, axis2,
             bases: list[tuple[int, ...]], duals: list[np.ndarray], trusted: bool,
             incumbent: float = -math.inf):
    """The best split of ``axis1`` x ``axis2`` as ((x, shares, alpha1,
    alpha2), trusted); x[0] is the rate the ray program maximizes.  With an
    ``incumbent`` rate, the result is (None, trusted) unless some split may
    beat it by more than ``_DF_TIE_RTOL``.

    A branch-and-bound over the grid.  Every dual the search holds
    (``duals``: the multipliers of each split rated so far, in this stage
    and the one before) bounds every split's rate by weak duality
    (``_df_bounds``), and a split is rated only while the bounds leave it
    open: not surely below the best rate by more than ``_DF_TIE_RTOL``, and
    not surely within that of the current pick's rate (the pick is the first
    such split in grid order; a later split within it cannot displace it).
    A split is rated from the first held basis (``bases``, in order) that
    ``certify`` finds optimal on its program (its cold simplex would stop
    there), and otherwise by a cold solve (``solve_lp``), whose basis joins
    ``bases``.  Splits are rated in batches, the pick first and then the
    highest bounds: a batch starts at one split, doubles while the new
    bounds prune fewer open splits than were just rated and drops back to
    one when they prune more, so a flat grid, where the bounds prune little,
    is rated in large batches.  A batch first reads each of its splits on
    the held bases not yet read on it (within a stage ``bases`` only grows
    and a read depends only on the split and the basis, so a split that
    returns to a batch is read only on the bases added since).  Then it
    cold-solves the first split, in batch order, that no basis rated, and
    leaves its other unrated splits open: the new duals may prune them and
    the new basis may rate them.  A stage that no longer trusts its bounds
    cold-solves every split its reads leave, as its bounds prune nothing.

    The split kept is the one a point-by-point search keeps: the first, in
    grid order, whose cold rate is within ``_DF_TIE_RTOL`` of the best cold
    rate.  A rate read from a basis is taken to be its cold rate to
    ``_DF_READ_RTOL``, and a bound to be at least the cold rate less that
    much.  A rated split's own rate outranks any bound on it.  Once a rate
    lies above a bound on it by more than that, the cold simplex overshoots
    the program's optimum (as at k = 1e6), so the bounds prune nothing more,
    in this stage or the next (``trusted`` turns False), and each batch takes
    every split still open, as a search without bounds would.  The splits
    whose place these margins leave open are rated or solved until every
    split is surely in or out, so the kept split is solved and its x and
    shares come from its own solve.  If any solve fails, every split of the
    stage is solved, which raises what a point-by-point search of the grid
    raises.

    The incumbent (the coarse pick's cold rate, for the refinement) is a
    rate the stage must beat.  If every bound, widened by ``_DF_READ_RTOL``,
    lies within ``_DF_TIE_RTOL`` of the incumbent (a stage that does not
    trust its bounds starts with none finite), no split can beat it and the
    stage returns None before it rates any.  Otherwise the incumbent is a floor under the best rate: a
    split surely below it is out, and a stage with no split left live
    returns None.  Where the stage's best rate beats the incumbent by more
    than ``_DF_TIE_RTOL``, every split within that of the best lies above
    the incumbent, so the floor keeps each split a point-by-point search
    could keep.
    """
    splits = _df_splits(gains, axis1, axis2)
    bounds_of = _df_bounds(template, splits, len(axis2))
    bound = bounds_of(duals if trusted else [])
    rates = np.zeros(len(splits))
    solved: dict[int, tuple[np.ndarray, TimeShares, tuple[int, ...]]] = {}
    rated = np.zeros(len(splits), dtype=bool)
    cold = np.zeros(len(splits), dtype=bool)
    met = np.zeros(len(splits), dtype=int)  # per split, the bases read on it so far
    if (bound * (1.0 + _DF_READ_RTOL) - incumbent <= _DF_TIE_RTOL * incumbent).all():
        return None, trusted  # no split can beat the incumbent

    def solve(at) -> None:  # cold-solves the splits at ``at``, in that order
        for i in at:
            sol = _solve_split(template, splits[i])
            x, shares = _df_solved(sol)
            solved[i] = x, shares, sol.basis
            rates[i] = x[0]
            duals.append(sol.duals)
            if sol.basis not in bases:
                bases.append(sol.basis)
        rated[at] = cold[at] = True

    def rate(at) -> None:  # rates the splits at ``at`` from the bases each has not met, else cold
        left = []
        for i in at:
            lp = template.with_matrix(_with_splits(template, [splits[i]])[0])
            for basis in bases[met[i]:]:
                cert = certify(lp, basis)
                if cert is not None and cert.optimal():
                    rates[i] = cert.x[0]
                    rated[i] = True
                    duals.append(cert.duals)
                    break
            else:
                left.append(i)
            met[i] = len(bases)
        solve(left[:1] if trusted else left)  # trusted bounds may prune the rest

    def state():  # the pick (None if none is live), and the live splits that may displace it
        nonlocal trusted
        cap = bound * (1.0 + _DF_READ_RTOL)  # a bound on the cold rate, with its round-off
        trusted = trusted and not (rated & (rates > cap)).any()
        slack = np.where(cold, 0.0, _DF_READ_RTOL * rates)
        lo = np.where(rated, rates - slack, -np.inf)
        hi = np.where(rated, rates + slack, cap if trusted else np.inf)
        top = max(lo.max(), incumbent)
        live = top - hi <= _DF_TIE_RTOL * top  # not surely out
        if not live.any():
            return None, live
        pick = int(np.argmax(live))
        return pick, live & (~(hi - lo[pick] <= _DF_TIE_RTOL * hi) | (hi == np.inf))

    size, held = 1, len(duals)
    try:
        pick, beyond = state()
        while pick is not None:
            todo = np.nonzero(beyond & ~rated)[0]
            if todo.size:
                # the pick first (unless none is rated: then it is just the
                # first corner), then the best bounds, ties from the middle
                todo = np.concatenate([todo[todo.size // 2:], todo[:todo.size // 2]])
                first = (todo == pick) & rated.any()
                todo = todo[np.argsort(np.where(first, -np.inf, -bound[todo]), kind="stable")]
                at = todo[:size if trusted else todo.size]
                rate(at)
                if trusted:
                    bound = np.minimum(bound, bounds_of(duals[held:]))
                held = len(duals)
                pick, after = state()
                pruned = (beyond & ~after & ~rated).sum()
                size = size * 2 if pruned < len(at) else 1
                beyond = after
            elif not cold[pick]:
                solve([pick])
                pick, beyond = state()
            elif (beyond & rated & ~cold).any():
                solve(np.nonzero(beyond & rated & ~cold)[0])
                pick, beyond = state()
            else:
                break
    except SolverError:
        solve(np.arange(len(splits)))  # raises the first failing split in grid order
        raise
    if pick is None:
        return None, trusted
    x, shares, basis = solved[pick]
    bases.remove(basis)
    bases.insert(0, basis)
    return (x, shares, *splits[pick][:2]), trusted


def _df_bounds(template: LinearProgram, splits, n2: int) -> Callable[[list], np.ndarray]:
    """duals -> an upper bound on each split's rate: the least, over the
    duals, of the weak-duality bound of each; +inf where no dual gives a
    finite one.  ``splits`` is a grid in ``_df_splits``' order with ``n2``
    splits to a row.

    With y a dual clipped to y >= 0 on the ``<=`` rows and d = c - A^T y the
    reduced costs, every feasible x has rate c x <= y b + d x.  y b is the
    budget row's y.  Each flow f of a state s is at most lam_s times its
    smallest capacity in the state's cap rows, the rate R is the sum of its
    source's flows (the rate row whose R entry is 1) and the shares sum to
    1, so d x is at most the largest, over the six states, of d_lam_s plus
    the sum over the state's flows of (d_f^+ + d_R^+ if f is R's source's)
    times its capacity.  State 1's term depends on alpha1 only and state 2's
    on alpha2 only, so a dual bounds the whole grid from the n1 + n2
    matrices of its two axes.  Each float operation steps one float outward
    (``np.nextafter``), so the bound is at least the exact bound of that y.
    """
    n1 = len(splits) // n2
    mats = _with_splits(template, [splits[i * n2] for i in range(n1)] + list(splits[:n2]))
    mats = np.concatenate([mats, np.zeros((len(mats), 1, mats.shape[2]))], axis=1)  # + a 0 row
    # The column sums to bound: each column of the first matrix, then state
    # 1's share column in each of the first n1 matrices (axis 1) and state
    # 2's in each of the last n2 (axis 2), as (matrix, rows, column).
    nz = np.array(_DF_NONZERO)
    cols = np.concatenate([np.arange(len(nz)), np.repeat([1, 2], [n1, n2])])
    at = np.concatenate([np.zeros(len(nz), dtype=int), np.arange(n1 + n2)])
    rows = nz[cols]
    entries = mats[at[:, None], rows, cols[:, None]]
    rows = rows % len(_DF_ROWS)  # the pad reads y's row 0 against its 0 entry
    # The terms: states 3-6, then state 1 at each alpha1 and state 2 at each
    # alpha2, each its share column's sum (an index of those sums) and its
    # state's two flows (``_DF_FLOWS`` lists them two to a state).
    share = np.concatenate([[3, 4, 5, 6], len(nz) + np.arange(n1 + n2)])
    state = np.concatenate([[2, 3, 4, 5], np.repeat([0, 1], [n1, n2])])  # 0-based
    flows = 2 * state[:, None] + [0, 1]
    caps = -np.maximum(mats[at[share][:, None], _DF_CAP_ROWS[flows, 0], _DF_FLOW_SHARE[flows]],
                       mats[at[share][:, None], _DF_CAP_ROWS[flows, 1], _DF_FLOW_SHARE[flows]])
    source = _DF_SOURCE[int(np.nonzero(template.matrix[:2, 0] == 1.0)[0][0])]
    floor = np.where([rel == "<=" for _, rel in _DF_ROWS], 0.0, -np.inf)
    up, down = (lambda v: np.nextafter(v, np.inf)), (lambda v: np.nextafter(v, -np.inf))

    def bounds(duals) -> np.ndarray:
        y = np.array(duals, dtype=float).reshape(-1, len(_DF_ROWS))
        y = np.maximum(y[np.isfinite(y).all(axis=1)], floor)  # y >= 0 on the <= rows
        if not len(y):
            return np.full(len(splits), np.inf)
        terms = down(y[:, rows] * entries)
        lower = terms[..., 0]  # at most each column's sum of y_i A_ij
        for t in range(1, terms.shape[-1]):
            lower = down(lower + terms[..., t])
        # reduced costs c - A^T y, rounded up (c is 1 at column 0 only), and
        # each flow's weight: d_f^+, plus d_R^+ on R's source's flows
        d_rate = np.maximum(up(1.0 - lower[:, 0]), 0.0)
        w = up(np.maximum(-lower[:, 7:len(nz)], 0.0) + source * d_rate[:, None])
        flow = up(w[:, flows] * caps)
        term = up(up(flow[..., 0] - lower[:, share]) + flow[..., 1])
        best = np.maximum(np.maximum(term[:, 4:4 + n1, None], term[:, None, 4 + n1:]),
                          term[:, :4].max(axis=1)[:, None, None])
        out = up(y[:, -1, None, None] + best).reshape(len(y), -1).min(axis=0)
        return np.where(np.isfinite(out), out, np.inf)

    return bounds


def _df_solved(sol: LpSolution) -> tuple[np.ndarray, TimeShares]:
    """A solved split's x and time shares; a split that is not optimal raises
    ``SolverError``."""
    x = lp_optimum(sol)
    return x, lp_shares(x[1:7])
