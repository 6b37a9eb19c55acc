import math
from fractions import Fraction

import numpy as np
import pytest

from twrc import (
    LinearProgram,
    OuterPoint,
    TimeShares,
    db_to_linear,
    solve_lp,
    validate_gains,
    weighted_bound_lp,
)
from twrc import lp as lp_module
from twrc.outer import ACTIVE_STATE_TOL


@pytest.fixture(scope="session")
def case_a():
    return validate_gains(db_to_linear(10), db_to_linear(15), db_to_linear(3))


@pytest.fixture(scope="session")
def case_b():
    return validate_gains(db_to_linear(20), db_to_linear(20), db_to_linear(8))


@pytest.fixture(scope="session")
def case_c():
    return validate_gains(db_to_linear(30), db_to_linear(35), db_to_linear(13))


@pytest.fixture(scope="session")
def low_snr():
    return validate_gains(db_to_linear(0), db_to_linear(5), db_to_linear(-7))


def random_gains(rng, n):
    """n random valid gain triples spanning low to high SNR."""
    out = []
    for _ in range(n):
        g2 = db_to_linear(rng.uniform(-10.0, 35.0))
        g1 = g2 * db_to_linear(-rng.uniform(0.0, 10.0))
        g3 = g1 * db_to_linear(-rng.uniform(0.0, 15.0))
        out.append(validate_gains(g1, g2, g3))
    return out


def wide_channels(rng, n):
    """n valid gain triples over the whole SNR range people try: gamma2 in
    -50..70 dB, gamma1 up to 20 dB below it (equal on every seventh) and
    gamma3 up to 30 dB below gamma1, with gamma3 = 0 on every tenth channel
    and 1e-12*gamma1 on every tenth (offset 5)."""
    out = []
    for i in range(n):
        g2_db = rng.uniform(-50.0, 70.0)
        g1_db = g2_db if i % 7 == 6 else g2_db - rng.uniform(0.0, 20.0)
        g3_db = g1_db - rng.uniform(0.0, 30.0)
        g1 = db_to_linear(g1_db)
        g3 = {0: 0.0, 5: 1e-12 * g1}.get(i % 10, db_to_linear(g3_db))
        out.append(validate_gains(g1, db_to_linear(g2_db), g3))
    return out


def band_channels(rng, lo_db, hi_db, n):
    """n valid gain triples with gamma2 in lo_db..hi_db dB, gamma1 up to
    20 dB below it and gamma3 up to 30 dB below gamma1."""
    out = []
    for _ in range(n):
        g2_db = rng.uniform(lo_db, hi_db)
        g1_db = g2_db - rng.uniform(0.0, 20.0)
        g3_db = g1_db - rng.uniform(0.0, 30.0)
        out.append(validate_gains(*(db_to_linear(x) for x in (g1_db, g2_db, g3_db))))
    return out


def highs_ray_rate(matrix, relations, rhs, k):
    """HiGHS optimum of Rb on the finite ray Ra = k*Rb over a system whose
    columns are (Ra, Rb, time shares...).  The share coefficients of the
    rows that hold a rate are divided by the largest of them, so HiGHS's
    absolute tolerances act relatively; the ray is an equality row.  Returns
    (Rb, that scale)."""
    from scipy.optimize import linprog

    A, rhs = np.array(matrix, dtype=float), np.asarray(rhs, dtype=float)
    rate = (A[:, :2] != 0.0).any(axis=1)
    scale = float(np.abs(A[rate, 2:]).max()) or 1.0
    A[rate, 2:] /= scale
    ub = np.array([r == "<=" for r in relations])
    tie = np.zeros(A.shape[1])
    tie[0], tie[1] = 1.0 / max(1.0, k), -k / max(1.0, k)
    obj = np.zeros(A.shape[1])
    obj[1] = -1.0
    res = linprog(obj, A_ub=A[ub], b_ub=rhs[ub], A_eq=np.vstack([A[~ub], tie]),
                  b_eq=np.append(rhs[~ub], 0.0), bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10, "presolve": False})
    assert res.status == 0, res.message
    return -res.fun * scale, scale


def weighted_ray_bound(k, gains):
    """Outer-bound point on the ray Ra = k*Rb from the weighted-sum cut-set
    program, with (Ra, Rb) kept as separate variables and the ray tied by an
    equality row: an independent layout of the program ``outer_ratio_bound``
    solves."""
    lp = weighted_bound_lp(1.0, 1.0, gains)
    ray = np.zeros(lp.n_vars)
    obj = np.zeros(lp.n_vars)
    if math.isinf(k):  # the Ra axis: Rb = 0, maximize Ra
        ray[1] = obj[0] = 1.0
    else:  # Ra - k*Rb = 0, maximize Rb
        ray[0], ray[1] = 1.0, -k
        obj[1] = 1.0
    sol = solve_lp(LinearProgram(objective=obj, matrix=np.vstack([lp.matrix, ray]),
                                 relations=lp.relations + ("=",), rhs=np.append(lp.rhs, 0.0)))
    assert sol.is_optimal, sol.status
    shares = TimeShares.from_sequence(sol.x[2:8])
    rb = float(sol.x[1])
    ra = float(sol.x[0]) if math.isinf(k) else k * rb
    return OuterPoint(float(k), ra, rb, shares, shares.active_states(ACTIVE_STATE_TOL))


def _exact_solve(rows, rhs):
    """x with rows @ x = rhs, by Gauss-Jordan elimination in fractions."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(len(aug)):
        p = next(r for r in range(c, len(aug)) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(len(aug)):
            if r != c and aug[r][c] != 0:
                aug[r] = [a - aug[r][c] * b for a, b in zip(aug[r], aug[c])]
    return [r[-1] for r in aug]


def exact_basis(lp, basis):
    """(value, optimal) of ``lp`` at a basis of its standardized form, in exact
    arithmetic (every float entry is a fraction exactly).

    Solves B x_B = b and B^T y = c_B in fractions; the basis is optimal when
    x_B >= 0 and every non-basic, non-artificial reduced cost is <= 0.  The
    value is the maximization form's c_B x_B (a "max" program's optimum).
    """
    start = lp_module._start(lp.bounds, lp.relations, lp.rhs.tobytes())
    (var, sign, scale), (artificial, block) = start[:3], start[10:12]
    A = block[:, :-1].copy()
    A[:, :var.size] = lp.matrix[:, var] * scale  # scale is +-1: exact
    cost = lp_module._phase2_cost(lp, var, sign, artificial.size)
    A, b, c = ([[Fraction(v) for v in r] for r in A], [Fraction(v) for v in block[:, -1]],
               [Fraction(v) for v in cost])
    idx = list(basis)
    B = [[row[j] for j in idx] for row in A]
    xb = _exact_solve(B, b)
    y = _exact_solve([list(col) for col in zip(*B)], [c[j] for j in idx])
    reduced = [c[j] - sum(yi * row[j] for yi, row in zip(y, A))
               for j in range(len(c)) if j not in idx and not artificial[j]]
    optimal = len(idx) == len(A) and min(xb) >= 0 and max(reduced, default=0) <= 0
    return sum(c[j] * x for j, x in zip(idx, xb)), optimal
