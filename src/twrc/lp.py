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

One solve routine, ``_solve_chunk``, serves every program.
``solve_lp_stack`` solves a stack of programs that differ only in their
constraint matrices (such as one program per point of a parameter grid) as
one (B, m, w) tableau, in chunks of ``STACK_CHUNK``; ``solve_lp`` is the same
routine on a stack of one.  It runs both phases, the artificial purge, point
recovery and duals for the whole stack; its one size-dependent step is the
pivot loop.  A stack pivots in lockstep in ``_simplex_stack``, with
finished programs set aside; a lone program pivots in ``_simplex``, whose
ratio test runs on Python floats.  Per pivot, over 4,450 one-program loops of
the outer-bound and protocol programs (14,601 pivots, 2-vCPU host), that
costs about 18 us against 88 us for a lockstep stack of one.  Both loops
apply the same rules, so each result equals the program solved alone, bit
for bit; the stack only saves interpreter overhead.  That pays off where DF
stages cold-solve most of their splits: on 200 wide channels x 5 ratios at
grids 3 and 9, pivoting each program alone took 28.3-29.5 s against
20.3-20.8 s in lockstep (2-vCPU host).

A known basis can stand in for the simplex.  ``certify_stack`` reads one
basis on a stack of programs that differ only in their matrices: it
inverts each basis matrix once (LAPACK on the whole stack) and returns each
program's vertex, duals, reduced costs and whether the vertex meets every
row relative to the row's size.  A program with a singular basis matrix is
refused on its own, without failing the rest of the stack.  Each program's
numbers are bit for bit the ones it gets alone.  Two rules read the
certificate: the cold simplex's own stopping rule (no reduced cost above
``_COST_TOL``: the basis is optimal), which the six-state DF search uses to
rate the power splits that its weak-duality bounds (from the duals of the
splits rated so far) leave in contention, and the stricter unique-optimum
rule (every reduced cost below ``-_COST_TOL``).  ``solve_lp(lp, basis)``
takes an earlier solution's basis (in a sweep, the previous ray's, which stays
optimal everywhere but at the region's few vertices); ``_reused``, the
certificate on that one program, accepts it only as a unique optimum.  An
accepted basis gives the point, value and duals without pivoting; they
match the cold solve to round-off, within 1e-12 relative on every preset
ray, but not bit for bit.  Otherwise the program is solved cold, exactly
as without a basis.

Programs that differ only in their matrix share the rest of their set-up.
``LinearProgram.with_matrix`` derives such a program from a validated one,
checking only the new matrix (the check ``solve_lp_stack`` applies to its
stack), so a sweep builds one program per channel and derives one per ray.
The part of the phase-1 start that the matrix does not touch (the slack,
artificial and rhs entries, the phase-1 cost and the feasibility limit) is
built once per (bounds, relations, rhs) and cached (``_start``): a solve
copies it, fills in the matrix columns and builds its phase-2 cost.
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
# row's size, |A u - b| <= _REUSE_TOL * (|A| u + |b|): an absolute limit lets
# an infeasible basis through on programs whose entries are all tiny
_REUSE_TOL = 1e-11
_EPS = np.finfo(float).eps
_MAX_PIVOTS = 20_000
STACK_CHUNK = 256  # programs per lockstep tableau in solve_lp_stack

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
        mat = _checked(np.atleast_2d(mat), (len(rel), obj.size), False)
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
        shared.  It solves bit for bit as a freshly built equal program.
        """
        lp = object.__new__(LinearProgram)
        lp.__dict__.update(self.__dict__, matrix=_checked(matrix, self.matrix.shape, False))
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
    This is ``solve_lp_stack``'s solve routine on a stack of one program,
    pivoting in ``_simplex``; a numerical breakdown raises its ``SolverError``.

    ``basis`` may be an earlier solution's ``LpSolution.basis``, such as the
    neighbouring ray's.  If ``_reused`` certifies it as this program's unique
    optimal basis, the solution is read from it without pivoting; otherwise
    the program is solved cold, as without it.
    """
    if basis:
        sol = _reused(lp, basis)
        if sol is not None:
            return sol
    sol = _solve_chunk(lp, lp.matrix[None])[0]
    if isinstance(sol, SolverError):
        raise sol
    return sol


def solve_lp_stack(template: LinearProgram, matrices) -> list[LpSolution | SolverError]:
    """Solve programs that differ from ``template`` only in their constraint matrix.

    ``matrices`` is a (B, m, n) stack; each program shares the template's
    objective, relations, rhs, bounds and sense.  The stack runs through the
    two-phase simplex in lockstep (``_simplex_stack``), in chunks of at most
    ``STACK_CHUNK`` programs: every program takes the pivots it would take
    alone, so entry ``b`` of the result equals ``solve_lp`` on program ``b``
    bit for bit.  A numerical breakdown fails only its own program, whose
    entry is then the ``SolverError`` that ``solve_lp`` raises for it.
    """
    mats = _checked(matrices, template.matrix.shape, True)
    out = []
    for start in range(0, len(mats), STACK_CHUNK):
        out += _solve_chunk(template, mats[start:start + STACK_CHUNK])
    return out


def _checked(matrices, shape: tuple[int, int], stacked: bool) -> np.ndarray:
    """``matrices`` as floats, one (m, n) matrix or, if ``stacked``, a (B, m, n)
    stack; rejected unless (m, n) is ``shape`` (rows x variables) and every
    entry is finite."""
    mats = np.asarray(matrices, dtype=float)
    what = "matrix stack" if stacked else "matrix"
    if mats.ndim != 2 + stacked or mats.shape[-2:] != shape:
        raise ValidationError(f"{what} shape {mats.shape} does not match the program's {shape}")
    if not np.isfinite(mats).all():
        raise ValidationError(f"{what} must be finite")
    return mats


def _solve_chunk(lp: LinearProgram, mats: np.ndarray) -> list[LpSolution | SolverError]:
    """The two-phase simplex on a (B, m, n) stack of ``lp``'s programs."""
    (var, sign, scale, s_j, s_k, s_sign, f_j, f_k, row_sign, ident_col, artificial,
     block, cost1, limit, _) = _start(lp.bounds, lp.relations, lp.rhs.tobytes())
    cost2 = _phase2_cost(lp, var, sign, artificial.size)
    # the start tableau: the cached block, then the matrix columns of the rewrite
    table = np.empty(mats.shape[:-1] + block.shape[-1:])
    table[...] = block
    np.multiply(mats.take(var, axis=2), scale, out=table[..., :var.size])
    basis = ident_col[None].repeat(len(mats), 0)
    ncols = artificial.size
    out: list = [None] * len(mats)
    members = np.arange(len(mats))
    drop = np.zeros(basis.shape, dtype=bool)

    # Phase 1: drive the artificial variables to zero.
    if artificial.any():
        members, status = _run_simplex(table, basis, cost1, np.ones(ncols, dtype=bool))
        infeas = -(cost1[basis][:, None, :] @ table[:, :, -1:])[:, 0, 0]
        for r, st, inf in zip(members, status, infeas):
            if isinstance(st, SolverError):
                out[r] = st
            elif st != "optimal":
                out[r] = SolverError("phase-1 subproblem reported unbounded")
            elif inf > limit:
                out[r] = _no_optimum(lp, "infeasible")
        feasible = [out[r] is None for r in members]
        if not any(feasible):
            return out
        if not all(feasible):
            table, basis, members = table[feasible], basis[feasible], members[feasible]
        drop = _purge_stack(table, basis, artificial)

    # Phase 2: original objective, artificial columns barred from entering.
    # Programs that dropped different redundant rows no longer share a shape;
    # each drop pattern continues as its own stack with its rows deleted (a
    # kept zero row would change BLAS's summation order).
    stacks = [(members, table, basis)]
    if drop.any():
        stacks = []
        for pattern in np.unique(drop, axis=0):
            sel = np.nonzero((drop == pattern).all(axis=1))[0]
            rows = np.ix_(sel, ~pattern)
            stacks.append((members[sel], table[rows], basis[rows]))
    for progs, T, bas in stacks:
        order, status = _run_simplex(T, bas, cost2, ~artificial)
        progs = progs[order]
        U = np.zeros((len(T), ncols))
        U[np.arange(len(T))[:, None], bas] = T[:, :, -1]
        X = _points(lp, U, s_j, s_k, s_sign, f_j, f_k)
        # Duals: each row's identity column (its slack or artificial) holds
        # that row's component of the basis inverse, so y_i = c_B @ column.
        # This stays valid for rows whose tableau row was dropped as redundant.
        # ``np.take`` lays the columns out n_rows apart, so each product is
        # the strided BLAS dot that ``c_B @ column`` takes on one tableau (a
        # unit-stride dot sums in another order and changes the last bits).
        cols = np.take(T, ident_col, axis=2).transpose(0, 2, 1)[..., None]
        duals = row_sign * (cost2[bas][:, None, None, :] @ cols)[..., 0, 0]
        if lp.sense == "min":
            duals = -duals
        for s, (r, st) in enumerate(zip(progs, status)):
            if st == "optimal":
                out[r] = LpSolution("optimal", float(lp.objective @ X[s]), X[s],
                                    tuple(sorted(bas[s].tolist())), duals[s])
            else:
                out[r] = st if isinstance(st, SolverError) else _no_optimum(lp, st)
    return out


def _phase2_cost(lp: LinearProgram, var: np.ndarray, sign: np.ndarray, ncols: int) -> np.ndarray:
    """``lp``'s objective over the ``ncols`` columns of its rewrite, as a maximization."""
    cost = np.zeros(ncols)
    cost[:var.size] = sign * ((1.0 if lp.sense == "max" else -1.0) * lp.objective[var])
    return cost


def _points(lp: LinearProgram, U: np.ndarray, s_j, s_k, s_sign, f_j, f_k) -> np.ndarray:
    """The original variables of each point of the rewrite (``_start``) along
    the last axis of ``U``."""
    X = np.zeros(U.shape[:-1] + (lp.n_vars,))
    X[..., s_j] = 0.0 + s_sign * U.take(s_k, axis=-1)  # 0.0 + turns a -0.0 into 0.0
    if f_j.size:
        X[..., f_j] = U[..., f_k] - U[..., f_k + 1]
    return X


def _reused(lp: LinearProgram, basis: tuple[int, ...]) -> LpSolution | None:
    """``lp``'s solution on ``basis``, read without pivoting, if that basis is
    certified as its unique optimum; otherwise None.

    ``certify_stack`` on ``lp``'s own matrix: the vertex must be feasible and
    every non-basic, non-artificial reduced cost below ``-_COST_TOL``, so
    that no other vertex ties it.
    """
    cert = certify_stack(lp, lp.matrix, basis)
    if cert is None or not (cert.feasible and (cert.reduced < -_COST_TOL).all()):
        return None
    return LpSolution("optimal", float(lp.objective @ cert.x), cert.x, tuple(sorted(basis)),
                      cert.duals)


class Certificate(NamedTuple):
    """One basis read on each program of a stack (``certify_stack``), indexed
    by the stack's leading axes.

    ``x`` is each program's vertex in the original variables and ``duals``
    its multipliers, one per input row, as in ``LpSolution``.  ``reduced``
    holds the reduced costs of the standardized columns before the
    artificial ones, -inf on the basic columns.  A program is optimal on the
    basis when it is ``feasible`` and none of its reduced costs exceeds
    ``_COST_TOL`` (the cold simplex's own stopping rule), and the basis is
    its unique optimum when every one is below ``-_COST_TOL``.
    """

    x: np.ndarray
    duals: np.ndarray
    reduced: np.ndarray
    feasible: np.ndarray

    def optimal(self) -> np.ndarray:
        """Which programs the cold simplex would stop at this basis."""
        return self.feasible & (self.reduced <= _COST_TOL).all(axis=-1)


def certify_stack(lp: LinearProgram, mats: np.ndarray,
                  basis: tuple[int, ...]) -> Certificate | None:
    """``basis`` read, without pivoting, on ``lp`` with each (m, n) matrix of
    the (..., m, n) stack ``mats``; None if it is no basis of these programs.

    The standardized programs are the cold solve's start (``_start``) with
    the matrix columns filled in.  The basis must be full size and hold no
    artificial column.  Each B is inverted once, giving the vertex
    x_B = B^-1 b and the multipliers y = c_B B^-1.  x_B is clipped at 0, and
    so is an entry below ``_EPS`` (2^-52) times its largest: the round-off of
    a basic variable at a degenerate 0, which would fail a row of its own,
    such as TDBC's lam3 = 0.  A vertex is feasible if it meets every row to
    within ``_REUSE_TOL`` of that row's size.  A program whose B is singular
    is refused on its own: infeasible, read with B^-1 = 0.  Each program's
    numbers are the ones it gets alone, bit for bit.
    """
    (var, sign, scale, s_j, s_k, s_sign, f_j, f_k, row_sign, _, artificial,
     block, _, _, first_art) = _start(lp.bounds, lp.relations, lp.rhs.tobytes())
    if len(basis) != len(block) or max(basis) >= first_art:  # the artificials come last
        return None
    idx = np.array(basis)
    A = np.empty(mats.shape[:-1] + (artificial.size,))
    A[...] = block[:, :-1]
    np.multiply(mats.take(var, axis=-1), scale, out=A[..., :var.size])
    b = block[:, -1:]  # as a column
    B = A[..., idx]
    # One singular member fails the whole stack's inversion.  A stack first
    # inverts its members with an all-zero row (DF's zeroed capacities) as
    # the identity, which saves the six-state DF search 7-26% a preset ray
    # against a failed inversion and determinants; a lone program skips that
    # screen, which would cost each reused sweep ray a few percent.  Any other
    # singular member is found by its determinant once the inversion raises.
    # All of them are refused, as are members whose inverse overflows.
    usable = True  # a lone program's, until it is refused
    if B.ndim > 2:
        usable = (B != 0.0).any(axis=-1).all(axis=-1)
        B = np.where(usable[..., None, None], B, np.eye(len(idx)))
    try:
        inv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        usable = usable & (np.linalg.slogdet(B)[0] != 0.0)
        inv = np.linalg.inv(np.where(usable[..., None, None], B, np.eye(len(idx))))
    if not np.isfinite(inv).all():
        usable = usable & np.isfinite(inv).all(axis=(-2, -1))
    if usable is not True:
        inv = np.where(usable[..., None, None], inv, 0.0)
    xb = inv @ b
    u = np.zeros(A.shape[:-2] + (artificial.size, 1))
    u[..., idx, :] = np.where(xb > _EPS * np.abs(xb).max(axis=-2, keepdims=True), xb, 0.0)
    feasible = usable & (np.abs(A @ u - b)
                         <= _REUSE_TOL * (np.abs(A) @ u + np.abs(b))).all(axis=(-2, -1))
    cost = _phase2_cost(lp, var, sign, artificial.size)
    y = cost[idx] @ inv
    reduced = cost[:first_art] - (y[..., None, :] @ A[..., :first_art])[..., 0, :]
    reduced[..., idx] = -_INF
    duals = row_sign * y  # each row's identity column is e_i, so y_i is its dual
    if lp.sense == "min":
        duals = -duals
    x = _points(lp, u[..., 0], s_j, s_k, s_sign, f_j, f_k)
    return Certificate(x, duals, reduced, feasible)


def _run_simplex(table: np.ndarray, basis: np.ndarray, cost: np.ndarray, allowed: np.ndarray):
    """The simplex on a (B, m, w) stack, returning ``_simplex_stack``'s (order, outcome).

    The only size-dependent step of a solve: a lone program takes ``_simplex``,
    whose pivot costs about 18 us against 88 us for ``_simplex_stack`` at B = 1.
    """
    if len(table) > 1:
        return _simplex_stack(table, basis, cost, allowed)
    return np.zeros(1, dtype=int), [_simplex(table[0], basis[0], cost, allowed)]


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


def _simplex(table: np.ndarray, basis: np.ndarray, cost: np.ndarray,
             allowed: np.ndarray) -> str | SolverError:
    """Run primal simplex iterations in place; the start basis must be feasible.

    Returns "optimal", "unbounded", or the ``SolverError`` of a breakdown.
    """
    m, w = table.shape
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

        # the ratio test on Python floats: the IEEE ops of _simplex_stack's arrays
        col, b = table[:, j].tolist(), rhs.tolist()
        rows = [r for r in range(m) if col[r] > _RATIO_ELIG_TOL]
        if not rows:
            if any(v > PIVOT_TOL for v in col):
                return SolverError("only near-singular pivots available")
            return "unbounded"
        step = min([(b[r] + _HARRIS_TOL) / col[r] for r in rows])
        ties = [r for r in rows if b[r] / col[r] <= step]
        # stability first: the largest pivot among the rows a step of at most
        # ``step`` may take; deterministic tie-break on the basic-variable index
        least = max([col[r] for r in ties]) * (1.0 - 1e-9)
        i = min([r for r in ties if col[r] >= least], key=bas.__getitem__)

        row = table[i] / table[i, j]  # col[i] > _RATIO_ELIG_TOL > PIVOT_TOL
        table -= table[:, j, None] * row
        table[i] = row
        basis[i] = bas[i] = j
        np.maximum(rhs, 0.0, out=rhs)
    return SolverError("simplex exceeded the pivot budget (numerical breakdown)")


def _simplex_stack(table: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                   allowed: np.ndarray):
    """``_simplex`` on every program of a (B, m, w) stack, in lockstep.

    Each program gets ``_simplex``'s entering rule, ratio test and rhs clip.
    A program that finishes is swapped behind those still pivoting, so the
    stack ends permuted: returns (order, outcome), where slot ``s`` of
    ``table`` and ``basis`` holds the final state of program ``order[s]`` and
    ``outcome[s]`` is what ``_simplex`` returns for it.
    """
    ncols = table.shape[2] - 1
    order = np.arange(len(table))
    outcome: list = [None] * len(table)  # by program
    n = len(table)  # slots [0, n) still pivoting
    scratch = np.empty_like(table)
    for _ in range(_MAX_PIVOTS):
        T, bas = table[:n], basis[:n]
        at = np.arange(n)
        reduced = cost[:ncols] - (cost[bas][:, None, :] @ T[:, :, :ncols])[:, 0, :]
        reduced[:, ~allowed] = -1.0
        reduced[at[:, None], bas] = -1.0
        improving = reduced > _COST_TOL
        j = improving.argmax(axis=1)  # Bland: lowest-index improving column
        col = T[at, :, j]
        elig = col > _RATIO_ELIG_TOL

        going = improving.any(axis=1) & elig.any(axis=1)
        if not going.all():
            for r in np.nonzero(~going)[0]:
                if not improving[r].any():
                    outcome[order[r]] = "optimal"
                elif (col[r] > PIVOT_TOL).any():
                    outcome[order[r]] = SolverError("only near-singular pivots available")
                else:
                    outcome[order[r]] = "unbounded"
            n, moved = _partition(table, basis, order, going)
            if n == 0:
                return order, [outcome[r] for r in order]
            T, bas, at = table[:n], basis[:n], at[:n]
            j, col, elig = j[moved], col[moved], elig[moved]

        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(elig, T[:, :, -1] / col, _INF)
            step = np.where(elig, (T[:, :, -1] + _HARRIS_TOL) / col, _INF).min(axis=1)
        ties = elig & (ratios <= step[:, None])
        mag = np.where(ties, col, -_INF).max(axis=1)
        big = ties & (col >= (mag * (1.0 - 1e-9))[:, None])
        i = np.where(big, bas, ncols).argmin(axis=1)

        # every eligible pivot exceeds _RATIO_ELIG_TOL > PIVOT_TOL
        _pivot_stack(T, bas, i, j, scratch)
        rhs = T[:, :, -1]
        np.clip(rhs, 0.0, None, out=rhs)
    for r in order[:n]:
        outcome[r] = SolverError("simplex exceeded the pivot budget (numerical breakdown)")
    return order, [outcome[r] for r in order]


def _partition(table, basis, order, going):
    """Swap the slots of ``table[:len(going)]`` not ``going`` behind those that are.

    Swaps ``basis`` and ``order`` alike.  Returns the number of going slots and,
    for each of them in its new place, the slot it came from.
    """
    n = int(going.sum())
    moved = np.arange(len(going))
    for p, q in zip(np.nonzero(~going[:n])[0], np.nonzero(going[n:])[0] + n):
        for a in (table, basis, order):
            a[[p, q]] = a[[q, p]]
        moved[p], moved[q] = q, p
    return n, moved[:n]


def _pivot_stack(T: np.ndarray, bas: np.ndarray, i: np.ndarray, j: np.ndarray,
                 scratch: np.ndarray) -> None:
    """``_simplex``'s pivot on row ``i[r]``, column ``j[r]`` of every program ``r``.

    ``scratch`` is at least as long as ``T``; reusing it across pivots saves
    allocating (and page-faulting) a tableau-sized update each time.
    """
    at = np.arange(len(T))
    row = T[at, i, :] / T[at, i, j][:, None]
    colv = T[at, :, j]
    T -= np.multiply(colv[:, :, None], row[:, None, :], out=scratch[:len(T)])
    T[at, i, :] = row
    bas[at, i] = j


def _purge_stack(T: np.ndarray, bas: np.ndarray, artificial: np.ndarray) -> np.ndarray:
    """Pivot each program's zero-level artificials out of its basis, in place.

    An artificial row pivots on its lowest non-artificial, non-basic column
    with an entry above ``FEASIBILITY_TOL``; a row with none is redundant.
    Returns the (B, m) mask of the rows each program drops as redundant.
    """
    at = np.arange(len(T))
    art_rows = artificial[bas]
    drop = np.zeros(bas.shape, dtype=bool)
    # a purge pivot leaves the other rows' basic variables as they are, so
    # the rows to visit are those that start with an artificial one
    for pos in np.nonzero(art_rows.any(axis=0))[0]:
        art = art_rows[:, pos]
        eligible = np.tile(~artificial, (len(T), 1))
        eligible[at[:, None], bas] = False  # a column can be basic in one row only
        cand = (np.abs(T[:, pos, :-1]) > FEASIBILITY_TOL) & eligible
        has = cand.any(axis=1)
        drop[:, pos] = art & ~has
        sel = np.nonzero(art & has)[0]
        if sel.size == len(T):  # every program: pivot in place, without a copy
            _pivot_stack(T, bas, np.full(sel.size, pos), cand.argmax(axis=1), np.empty_like(T))
        elif sel.size:
            sub, sub_bas = T[sel], bas[sel]
            _pivot_stack(sub, sub_bas, np.full(sel.size, pos), cand[sel].argmax(axis=1),
                         np.empty_like(sub))
            T[sel], bas[sel] = sub, sub_bas
    return drop


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
