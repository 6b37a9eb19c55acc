import math

import numpy as np
import pytest

from twrc import OuterPoint, TimeShares, db_to_linear, solve_lp, validate_gains, weighted_bound_lp
from twrc.achievable import _ray_lp
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


def weighted_ray_bound(k, gains):
    """Outer-bound point on the ray Ra = k*Rb from the weighted-sum cut-set
    program, with (Ra, Rb) kept as separate variables and the ray tied by an
    equality row: an independent layout of the program ``outer_ratio_bound``
    solves."""
    lp = weighted_bound_lp(1.0, 1.0, gains)
    sol = solve_lp(_ray_lp(lp.matrix, lp.relations, lp.rhs, k))
    assert sol.is_optimal, sol.status
    shares = TimeShares.from_sequence(sol.x[2:8])
    rb = float(sol.x[1])
    ra = float(sol.x[0]) if math.isinf(k) else k * rb
    return OuterPoint(float(k), ra, rb, shares, shares.active_states(ACTIVE_STATE_TOL))
