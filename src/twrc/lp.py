"""Dense linear programming: a deterministic two-phase simplex and mechanical duals.

Sized for the small programs (a few dozen variables) generated by the
rate-region computations.  Determinism, vertex (basic) solutions and explicit
dual multipliers matter more here than speed, so the solver is a plain
tableau simplex: Bland's lowest-index entering rule, Harris's two-pass ratio
test (the largest pivot among the rows whose step leaves no basic variable
more than ``_HARRIS_TOL`` below zero, ties on the lowest basic index), and a
hard pivot budget against cycling.  Each variable is
non-negative, non-positive or free (no box bounds), so the rewrite to
non-negative variables only negates and splits columns and every program
keeps its own rhs.

The cold solve, ``_solve``, runs phase 1 on a program's own (m, w) tableau
and purges the artificial variables left at zero from the basis (dropping
the rows that turn out redundant); ``_phase2`` then runs phase 2 and reads
the point, the duals and the sorted basis from the final tableau.
``_pivot`` is the one pivot step of the simplex and the purge.

A known basis is read, resumed from, or set aside for a cold solve;
``_inverse`` inverts its basis matrix B for the first two, and refuses a
basis it cannot use.
- Read: ``solve_lp(lp, basis)`` takes an earlier solution's basis (in a
  sweep, the previous ray's, which stays optimal everywhere but at the
  region's few vertices) only where ``_reused`` finds it the unique optimum.
  ``certify`` is that read: the vertex, the duals, the reduced costs and
  whether the vertex is feasible.  An accepted basis gives the point, value
  and duals without pivoting; they match the cold solve to round-off,
  within 1e-12 relative on every preset ray, but not bit for bit.
- Resume: ``resume_lp(lp, basis)`` starts phase 2 from a basis whose vertex
  is feasible, from the tableau B^-1 [A | b].  Column generation resumes
  each master from the last master's optimal basis, which a new column
  leaves feasible (``achievable.df_evaluator``).
- Otherwise the program is solved cold, exactly as without a basis.

Programs that differ only in their matrix share the rest of their set-up.
``LinearProgram.with_matrix`` derives such a program from a validated one,
checking only the new matrix, so a sweep builds one program per channel and
derives one per ray.
The part of the phase-1 start that the matrix does not touch (the slack,
artificial and rhs entries, the phase-1 cost and the feasibility limit) is
built once per (bounds, relations, rhs) and cached (``_start``): a solve
copies it, fills in the matrix columns and builds its phase-2 cost.  What a
basis read takes beyond that (the basis as an index array, the phase-2 cost,
c_B, b, |b| and the duals' sign) is built once per program fields and basis
and cached as well (``_held``): along a sweep, one entry per distinct basis.
A resumed master builds it uncached, as no master's basis is read twice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ValidationError

FEASIBILITY_TOL = 1e-9
PIVOT_TOL = 1e-12
_RATIO_ELIG_TOL = 1e-9  # pivots smaller than this amplify round-off too much
_HARRIS_TOL = 1e-12  # how far below zero a ratio-test step may push a basic variable
_COST_TOL = 1e-10
# a reused basis's vertex must meet each standardized row to this share of the
# row's size, |B x_B - b| <= _REUSE_TOL * (|B| x_B + |b|) (the vertex is zero
# off the basis B): an absolute limit lets an infeasible basis through on
# programs whose entries are all tiny
_REUSE_TOL = 1e-11
_EPS = np.finfo(float).eps
_MAX_PIVOTS = 20_000

_RELATIONS = ("<=", "=", ">=")
_INF = math.inf
# the variable signs a program may declare, as ``bounds`` entries
_NONNEG = (0.0, _INF)
_NONPOS = (-_INF, 0.0)
_FREE = (-_INF, _INF)


class SolverError(RuntimeError):
    """The simplex could not make progress (numerical breakdown)."""


@dataclass(frozen=True)
class LinearProgram:
    """A dense LP: optimize ``objective @ x`` subject to ``matrix @ x (<=|=|>=) rhs``.

    ``bounds`` gives each variable's sign as one of (0, inf), (-inf, 0) and
    (-inf, inf): non-negative, non-positive or free; any other entry is
    rejected.  Variables default to x >= 0.  ``sense`` is "max" (default) or
    "min".
    """

    objective: np.ndarray
    matrix: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    bounds: tuple[tuple[float, float], ...] = ()
    sense: str = "max"

    def __post_init__(self) -> None:
        obj = np.atleast_1d(np.asarray(self.objective, dtype=float))
        rel = tuple(self.relations)
        mat = np.asarray(self.matrix, dtype=float)
        if mat.size == 0:
            mat = np.zeros((len(rel), obj.size))
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        mat = _checked(np.atleast_2d(mat), (len(rel), obj.size))
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "relations", rel)

        if self.sense not in ("max", "min"):
            raise ValidationError(f"sense must be 'max' or 'min', got {self.sense!r}")
        if rhs.size != len(rel):
            raise ValidationError(f"rhs length {rhs.size} != {len(rel)} relations")
        for r in rel:
            if r not in _RELATIONS:
                raise ValidationError(f"unknown relation {r!r}")
        if not (np.isfinite(obj).all() and np.isfinite(rhs).all()):
            raise ValidationError("objective and rhs must be finite")

        bounds = tuple(self.bounds)
        if bounds:  # the empty default, all non-negative, is valid by construction
            if len(bounds) != obj.size:
                raise ValidationError(f"bounds length {len(bounds)} != {obj.size} variables")
            bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
            for j, bound in enumerate(bounds):
                if bound not in (_NONNEG, _NONPOS, _FREE):
                    raise ValidationError(
                        f"variable {j} must be non-negative (0, inf), non-positive "
                        f"(-inf, 0) or free (-inf, inf), got bounds {bound}")
        object.__setattr__(self, "bounds", bounds or (_NONNEG,) * obj.size)

    def with_matrix(self, matrix) -> LinearProgram:
        """This program with ``matrix`` as its constraint matrix: a derived program.

        Only the new matrix is checked, for this program's shape and finite
        entries; every other field is this program's, validated once and
        shared.  It solves bit for bit as a freshly built equal program.  A
        sweep derives each ray's program this way, and six-state DF the
        program of a power split it solves alone.
        """
        lp = object.__new__(LinearProgram)
        lp.__dict__.update(self.__dict__, matrix=_checked(matrix, self.matrix.shape))
        return lp

    @property
    def n_vars(self) -> int:
        return int(self.objective.size)

    @property
    def n_rows(self) -> int:
        return len(self.relations)


@dataclass(frozen=True)
class LpSolution:
    """Result of ``solve_lp``.

    ``x`` is the primal point in the original variables; ``basis`` lists the
    standardized-form columns that are basic at the returned vertex; ``duals``
    holds one multiplier per input row, so that value = objective @ x =
    duals @ rhs at an optimum.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float
    x: np.ndarray
    basis: tuple[int, ...]
    duals: np.ndarray

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(lp: LinearProgram, basis: tuple[int, ...] = ()) -> LpSolution:
    """Solve a dense LP with the deterministic two-phase primal simplex.

    Returns a vertex optimum with its basis and per-row dual multipliers.
    The pivot rule is fixed, so identical inputs give bit-identical output.
    A numerical breakdown raises ``SolverError``.

    ``basis`` may be an earlier solution's ``LpSolution.basis``, such as the
    neighbouring ray's.  If ``_reused`` certifies it as this program's unique
    optimal basis, the solution is read from it without pivoting; otherwise
    the program is solved cold (``_solve``), as without it.
    """
    if basis:
        sol = _reused(lp, basis)
        if sol is not None:
            return sol
    return _solve(lp)


def _checked(matrix, shape: tuple[int, int]) -> np.ndarray:
    """``matrix`` as floats; rejected unless its shape is ``shape`` (rows x
    variables) and every entry is finite."""
    mat = np.asarray(matrix, dtype=float)
    if mat.shape != shape:
        raise ValidationError(f"matrix shape {mat.shape} does not match the program's {shape}")
    if not np.isfinite(mat).all():
        raise ValidationError("matrix must be finite")
    return mat


def _solve(lp: LinearProgram) -> LpSolution:
    """The two-phase simplex on ``lp``, from the slack and artificial basis."""
    start = _start(lp.bounds, lp.relations, lp.rhs.tobytes())
    var, _, scale, *_, ident_col, artificial, block, cost1, limit, _ = start
    # the start tableau: the cached block, then the matrix columns of the rewrite
    table = block.copy()
    np.multiply(lp.matrix.take(var, axis=1), scale, out=table[:, :var.size])
    basis = ident_col.copy()

    # Phase 1: drive the artificial variables to zero.
    if artificial.any():
        if _simplex(table, basis, cost1, np.ones(artificial.size, dtype=bool)) != "optimal":
            raise SolverError("phase-1 subproblem reported unbounded")
        if -(cost1[basis][None] @ table[:, -1:])[0, 0] > limit:
            return _no_optimum(lp, "infeasible")
        keep = _purge(table, basis, artificial)
        table, basis = table[keep], basis[keep]
    return _phase2(lp, start, table, basis)


def _phase2(lp: LinearProgram, start: tuple, table: np.ndarray, basis: np.ndarray) -> LpSolution:
    """Phase 2 on ``lp``'s tableau ``table`` (``start`` is its ``_start``) from
    the feasible ``basis``, then the read-out: the point, the duals and the
    sorted basis.  The cold solve (``_solve``) and a resumed one
    (``resume_lp``) both end here."""
    var, sign, _, s_j, s_k, s_sign, f_j, f_k, row_sign, ident_col, artificial = start[:11]
    cost2 = _phase2_cost(lp.objective, lp.sense, var, sign, artificial.size)
    # the original objective, artificial columns barred from entering
    status = _simplex(table, basis, cost2, ~artificial)
    if status != "optimal":
        return _no_optimum(lp, status)
    u = np.zeros(artificial.size)
    u[basis] = table[:, -1]
    x = _points(lp, u, s_j, s_k, s_sign, f_j, f_k)
    # Duals: each row's identity column (its slack or artificial) holds that
    # row's component of the basis inverse, so y_i = c_B @ column.  This stays
    # valid for rows dropped as redundant.  ``np.take`` lays the columns out
    # n_rows apart, so each product is a strided BLAS dot (a unit-stride dot
    # sums in another order and changes the last bits).
    cols = np.take(table, ident_col, axis=1).T[:, :, None]
    duals = row_sign * (cost2[basis][None, None, :] @ cols)[:, 0, 0]
    if lp.sense == "min":
        duals = -duals
    return LpSolution("optimal", float(lp.objective @ x), x, tuple(sorted(basis.tolist())), duals)


def _phase2_cost(objective: np.ndarray, sense: str, var: np.ndarray, sign: np.ndarray,
                 ncols: int) -> np.ndarray:
    """A program's objective over the first ``ncols`` columns of its rewrite,
    as a maximization."""
    cost = np.zeros(ncols)
    cost[:var.size] = sign * ((1.0 if sense == "max" else -1.0) * objective[var])
    return cost


def _points(lp: LinearProgram, u: np.ndarray, s_j, s_k, s_sign, f_j, f_k) -> np.ndarray:
    """The original variables of the rewrite's point ``u`` (``_start``)."""
    single = 0.0 + s_sign * u[s_k]  # 0.0 + turns a -0.0 into 0.0
    if not f_j.size:  # no free variable: s_j is every variable, in order
        return single
    x = np.zeros(lp.n_vars)
    x[s_j] = single
    x[f_j] = u[f_k] - u[f_k + 1]
    return x


def _reused(lp: LinearProgram, basis: tuple[int, ...]) -> LpSolution | None:
    """``lp``'s solution on ``basis``, read without pivoting, if that basis is
    certified as its unique optimum; otherwise None.

    ``certify``'s read: the vertex must be feasible and every non-basic,
    non-artificial reduced cost below ``-_COST_TOL``, so that no other vertex
    ties it.
    """
    cert = certify(lp, basis)
    if cert is None or not (cert.feasible and (cert.reduced < -_COST_TOL).all()):
        return None
    return LpSolution("optimal", float(lp.objective @ cert.x), cert.x, tuple(sorted(basis)),
                      cert.duals)


class Certificate(NamedTuple):
    """One basis read on one program (``certify``).

    ``x`` is the vertex in the original variables and ``duals`` its
    multipliers, one per input row, as in ``LpSolution``.  ``reduced`` holds
    the reduced costs of the standardized columns before the artificial
    ones, -inf on the basic columns.  The basis is the program's unique
    optimum when it is ``feasible`` and every reduced cost is below
    ``-_COST_TOL`` (``_reused``).
    """

    x: np.ndarray
    duals: np.ndarray
    reduced: np.ndarray
    feasible: bool


def certify(lp: LinearProgram, basis: tuple[int, ...]) -> Certificate | None:
    """``basis`` read on ``lp`` without pivoting; None if it is unusable.

    This is ``_reused``'s read of a held basis, such as the previous ray's
    in a sweep.  ``_inverse`` inverts the basis matrix B once and gives the
    vertex x_B = B^-1 b, whether it is feasible, or None for a basis it
    cannot use; the multipliers are y = c_B B^-1.
    """
    held = _held(lp.bounds, lp.relations, lp.rhs.tobytes(), lp.objective.tobytes(), lp.sense,
                 tuple(basis))  # a list basis, as read back from JSON, too
    read = _inverse(lp, held)
    if read is None:
        return None
    A, inv, xb, feasible = read
    _, _, s_j, s_k, s_sign, f_j, f_k, start, idx, cost, c_b, _, _, dual_sign = held
    y = c_b @ inv  # a row
    reduced = cost - (y @ A[:, :cost.size])[0]
    reduced[idx] = -_INF
    u = np.zeros(start.shape[1])
    u[idx] = xb[:, 0]
    # each row's identity column is e_i, so y_i is its dual
    return Certificate(_points(lp, u, s_j, s_k, s_sign, f_j, f_k), dual_sign * y[0], reduced,
                       feasible)


def resume_lp(lp: LinearProgram, basis: tuple[int, ...]) -> LpSolution:
    """``lp`` solved by phase 2 from ``basis``, or cold where that basis is
    unusable.

    Column generation adds a column to its master LP each round, which
    leaves the last master's optimal basis (mapped onto the new columns)
    primal feasible: ``df_evaluator`` resumes each master from it.  The
    basis must pass ``_inverse``'s checks and its vertex be feasible; then
    phase 2 runs from the tableau B^-1 [A | b] and the solution is read as
    a cold solve's (``_phase2``).  Otherwise the program is solved cold
    (``_solve``), bit for bit.
    """
    held = _held.__wrapped__(lp.bounds, lp.relations, lp.rhs.tobytes(), lp.objective.tobytes(),
                             lp.sense, tuple(basis))  # one master's basis is never read again
    read = _inverse(lp, held)
    if read is None or not read[-1]:  # unusable, or its vertex infeasible
        return _solve(lp)
    A, inv, xb, _ = read
    idx = held[8]  # the basis as an array
    table = np.empty((len(idx), A.shape[1] + 1))
    np.matmul(inv, A, out=table[:, :-1])
    table[:, idx] = np.eye(len(idx))  # the basic columns exactly, as a pivot leaves them
    table[:, -1] = xb[:, 0]
    return _phase2(lp, _start(lp.bounds, lp.relations, lp.rhs.tobytes()), table, idx.copy())


def _inverse(lp: LinearProgram, held: tuple | None) -> tuple | None:
    """The basis matrix B of ``held`` (``_held``) on ``lp``, inverted: (A,
    B^-1, x_B, feasible), or None if the basis is unusable.

    A is the standardized program, the cold solve's start (``_start``) with
    the matrix columns filled in and without the rhs.  The basis must be full
    size and hold no artificial column (else ``held`` is None), and B must
    be regular with a finite inverse.  x_B = B^-1 b is clipped at 0, and so
    is an entry below ``_EPS`` (2^-52) times its largest: the round-off of a
    basic variable at a degenerate 0, which would fail a row of its own, such
    as TDBC's lam3 = 0.  The vertex is feasible if it meets every row to
    within ``_REUSE_TOL`` of that row's size, |B x_B - b| <= ``_REUSE_TOL``
    (|B| x_B + |b|): the row test on the whole standardized matrix, as the
    vertex is zero off the basis.  B is inverted here only, for ``certify``
    and ``resume_lp`` alike.
    """
    if held is None:
        return None
    var, scale, *_, start, idx, _, _, b, abs_b, _ = held
    A = start.copy()
    np.multiply(lp.matrix.take(var, axis=1), scale, out=A[:, :var.size])
    B = A.take(idx, axis=1)
    try:
        inv = np.linalg.inv(B)
    except np.linalg.LinAlgError:  # singular, such as a DF split's all-zero row
        return None
    if not np.isfinite(inv).all():  # overflowed
        return None
    xb = inv @ b
    xb = np.where(xb > _EPS * np.abs(xb).max(), xb, 0.0)
    feasible = bool((np.abs(B @ xb - b) <= _REUSE_TOL * (np.abs(B) @ xb + abs_b)).all())
    return A, inv, xb, feasible


def _no_optimum(lp: LinearProgram, status: str) -> LpSolution:
    if status == "infeasible":
        value = math.nan
    else:
        value = math.inf if lp.sense == "max" else -math.inf
    return LpSolution(status, value, np.full(lp.n_vars, math.nan), (), np.zeros(lp.n_rows))


@functools.lru_cache(maxsize=256)
def _start(bounds: tuple, relations: tuple, rhs: bytes) -> tuple:
    """The phase-1 start of the programs with these fields (``rhs`` as float64
    bytes), built once and cached as read-only arrays.

    The program is rewritten over non-negative variables u in maximization
    form: a non-negative variable keeps its column, a non-positive one is
    x = -u and a free one is split into x = u+ - u-.  Rows are flipped to a
    non-negative rhs, then get one slack per inequality and one artificial
    per row that has no +1 slack, the artificials last.  Returns (var, sign,
    scale, s_j, s_k, s_sign, f_j, f_k, row_sign, ident_col, artificial,
    block, phase-1 cost, feasibility limit, first artificial column): block
    is the (m, w) start tableau with zero matrix columns, which a solve
    copies and then fills in; the start basis is each row's identity column.
    """
    var, sign = [], []       # column k of the rewrite is sign[k] * x[var[k]]
    single, split = [], []   # (j, k): x_j = sign[k] * u_k; (j, k): x_j = u_k - u_k+1
    for j, (lo, hi) in enumerate(bounds):
        (split if (lo, hi) == _FREE else single).append((j, len(var)))
        if hi == _INF:
            var.append(j)
            sign.append(1.0)
        if lo == -_INF:
            var.append(j)
            sign.append(-1.0)
    b = np.frombuffer(rhs)
    swap = {"<=": ">=", ">=": "<=", "=": "="}
    rel = [swap[r] if f else r for r, f in zip(relations, b < 0.0)]
    slack = [i for i, r in enumerate(rel) if r != "="]
    art = [i for i, r in enumerate(rel) if r != "<="]  # rows with no +1 slack
    first_art = len(var) + len(slack)  # the first artificial column
    cols = np.arange(len(var), first_art + len(art))
    ident_col = np.empty(len(rel), dtype=int)  # column whose tableau entries are B^-1 e_i
    ident_col[slack] = cols[:len(slack)]
    ident_col[art] = cols[len(slack):]  # a >= row's is its artificial, not its -1 slack
    sign = np.array(sign)
    s_j, s_k = np.array(single, dtype=int).reshape(-1, 2).T
    f_j, f_k = np.array(split, dtype=int).reshape(-1, 2).T
    row_sign = np.where(b < 0.0, -1.0, 1.0)
    artificial = np.arange(first_art + len(art)) >= first_art
    block = np.zeros((len(rel), artificial.size + 1))
    block[np.array(slack + art, dtype=int), cols] = (
        [1.0 if rel[i] == "<=" else -1.0 for i in slack] + [1.0] * len(art))
    block[:, -1] = b * row_sign
    start = (np.array(var, dtype=int), sign, row_sign[:, None] * sign, s_j, s_k, sign[s_k],
             f_j, f_k, row_sign, ident_col, artificial, block, np.where(artificial, -1.0, 0.0))
    for a in start:
        a.flags.writeable = False
    return start + (FEASIBILITY_TOL * max(1.0, float(np.abs(b).max(initial=0.0))), first_art)


@functools.lru_cache(maxsize=256)
def _held(bounds: tuple, relations: tuple, rhs: bytes, objective: bytes, sense: str,
          basis: tuple[int, ...]) -> tuple | None:
    """What a read of ``basis`` (``certify``) on the programs with these
    fields (``rhs`` and ``objective`` as float64 bytes) needs that their
    matrix does not change, built once and cached as read-only arrays; None
    if ``basis`` is no basis of them: not full size, or holding an
    artificial column (the artificials come last).

    Returns (var, scale, s_j, s_k, s_sign, f_j, f_k, start, idx, cost, c_B,
    b, |b|, duals' sign): ``_start``'s column maps, its block without the
    rhs, the basis as an array, the phase-2 cost of the columns before the
    artificials and its basic entries (a row), the standardized rhs (a
    column) and its size, and each row's flip, negated for a "min" program.
    """
    (var, sign, scale, s_j, s_k, s_sign, f_j, f_k, row_sign, _, _,
     block, _, _, first_art) = _start(bounds, relations, rhs)
    if len(basis) != len(block) or max(basis) >= first_art:
        return None
    idx = np.array(basis)
    cost = _phase2_cost(np.frombuffer(objective), sense, var, sign, first_art)
    b = block[:, -1:]
    consts = (idx, cost, cost[idx][None, :], b, np.abs(b),
              -row_sign if sense == "min" else row_sign)
    for a in consts:
        a.flags.writeable = False
    return (var, scale, s_j, s_k, s_sign, f_j, f_k, block[:, :-1]) + consts


def _simplex(table: np.ndarray, basis: np.ndarray, cost: np.ndarray, allowed: np.ndarray) -> str:
    """Run primal simplex iterations in place; the start basis must be feasible.

    Returns "optimal" or "unbounded"; a numerical breakdown raises ``SolverError``.
    """
    w = table.shape[1]
    A, rhs, c = table[:, :w - 1], table[:, -1], cost[:w - 1]
    cand = np.nonzero(allowed)[0].tolist()
    bas = basis.tolist()
    for _ in range(_MAX_PIVOTS):
        reduced = (c - cost[basis] @ A).tolist()
        for j in cand:  # Bland: the lowest-index improving column
            if reduced[j] > _COST_TOL and j not in bas:
                break
        else:
            return "optimal"

        col, b = table[:, j].tolist(), rhs.tolist()
        rows, step = [], _INF  # the eligible rows and the least of their Harris steps
        for r, v in enumerate(col):
            if v > _RATIO_ELIG_TOL:
                rows.append(r)
                s = (b[r] + _HARRIS_TOL) / v
                if s < step:
                    step = s
        if not rows:
            if any(v > PIVOT_TOL for v in col):
                raise SolverError("only near-singular pivots available")
            return "unbounded"
        ties = [r for r in rows if b[r] / col[r] <= step]
        if len(ties) == 1:
            i = ties[0]
        else:
            # stability first: the largest pivot among the rows a step of at
            # most ``step`` may take; deterministic tie-break on the
            # basic-variable index
            least = max([col[r] for r in ties]) * (1.0 - 1e-9)
            i = min([r for r in ties if col[r] >= least], key=bas.__getitem__)

        _pivot(table, basis, i, j)  # col[i] > _RATIO_ELIG_TOL > PIVOT_TOL
        bas[i] = j
        np.maximum(rhs, 0.0, out=rhs)
    raise SolverError("simplex exceeded the pivot budget (numerical breakdown)")


def _pivot(table: np.ndarray, basis: np.ndarray, i: int, j: int) -> None:
    """Pivot ``table`` in place on row ``i``, column ``j``, which enters ``basis``."""
    row = table[i] / table[i, j]
    table -= table[:, j, None] * row
    table[i] = row
    basis[i] = j


def _purge(table: np.ndarray, basis: np.ndarray, artificial: np.ndarray) -> np.ndarray:
    """Pivot the zero-level artificials out of ``basis``, in place.

    An artificial row pivots on its lowest non-artificial, non-basic column
    with an entry above ``FEASIBILITY_TOL``; a row with none is redundant.
    Returns the mask of the rows to keep.
    """
    keep = np.ones(len(basis), dtype=bool)
    # a purge pivot leaves the other rows' basic variables as they are, so
    # the rows to visit are those that start with an artificial one
    for pos in np.nonzero(artificial[basis])[0]:
        eligible = ~artificial
        eligible[basis] = False  # a column can be basic in one row only
        cand = np.nonzero((np.abs(table[pos, :-1]) > FEASIBILITY_TOL) & eligible)[0]
        if cand.size:
            _pivot(table, basis, pos, cand[0])
        else:
            keep[pos] = False
    return keep


def dual_of(lp: LinearProgram) -> LinearProgram:
    """Construct the standard dual program.

    Follows the textbook correspondence: constraint relations map to dual
    variable signs and variable signs map to dual constraint relations, so
    ``dual_of(dual_of(lp))`` is equivalent to ``lp`` and a feasible, bounded
    pair has equal optimal values.
    """
    # A max program's <= rows take multipliers y >= 0 and its variables x >= 0
    # give >= rows; a min program's <= rows take y <= 0 and its x >= 0 give <= rows.
    le_sign, ge_sign = (_NONNEG, _NONPOS) if lp.sense == "max" else (_NONPOS, _NONNEG)
    return LinearProgram(
        objective=lp.rhs.copy(),
        matrix=lp.matrix.T.copy(),
        relations=tuple({_FREE: "=", le_sign: ">=", ge_sign: "<="}[b] for b in lp.bounds),
        rhs=lp.objective.copy(),
        bounds=tuple({"=": _FREE, "<=": le_sign, ">=": ge_sign}[r] for r in lp.relations),
        sense="min" if lp.sense == "max" else "max",
    )
