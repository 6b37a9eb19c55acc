"""Independent correctness reference for the benchmark.

Every LP family of the package is rebuilt here from the channel model alone
(``link_capacities`` / ``cap`` for the numbers, nothing from the package's LP
builders) and re-solved with HiGHS through ``scipy.optimize.linprog``.  A
returned point is checked three ways:

* value: its objective (Rb on a finite ray, Ra on the Ra axis) agrees with
  the HiGHS optimum to ``VALUE_RTOL`` relative;
* feasibility: its rates, shares (and DF flows) satisfy every row of the
  rebuilt system to ``VIOLATION_TOL``, each row's residual taken relative to
  the magnitude of the row's terms;
* safety: protocol <= outer, tdbc <= hbc <= six-state on the same ray,
  closed-form bounds >= the LP bound.

Runs outside the timed section only; scipy is imported lazily.
"""

from __future__ import annotations

import math

import numpy as np

VALUE_RTOL = 1e-6
VIOLATION_TOL = 1e-7
# values far below the channel's capacity scale are compared at this floor
SCALE_FLOOR = 1e-9

_RA, _RB = 0, 1
_LAM = 2  # columns 2..7 hold lambda1..lambda6
_N_BASE = 8

# DF flow columns, in the order the package reports them
DF_FLOWS = (
    ("a", "r", 1), ("a", "b", 1),
    ("b", "r", 2), ("b", "a", 2),
    ("a", "r", 3), ("b", "r", 3),
    ("r", "a", 4), ("r", "b", 4),
    ("r", "b", 5), ("a", "b", 5),
    ("r", "a", 6), ("b", "a", 6),
)


class System:
    """Rows ``A x (<=|=) b`` over (Ra, Rb, lambda1..6[, DF flows]), x >= 0."""

    def __init__(self, n: int):
        self.n = n
        self.rows: list[np.ndarray] = []
        self.rel: list[str] = []
        self.rhs: list[float] = []

    def add(self, coefs: dict, rel: str = "<=", b: float = 0.0) -> None:
        r = np.zeros(self.n)
        for j, v in coefs.items():
            r[j] += v
        self.rows.append(r)
        self.rel.append(rel)
        self.rhs.append(b)

    def rate_cut(self, rates: dict, shares: dict) -> None:
        """sum(rates) <= sum(cap_s * lambda_s)."""
        coefs = dict(rates)
        for s, c in shares.items():
            coefs[_LAM + s - 1] = coefs.get(_LAM + s - 1, 0.0) - c
        self.add(coefs)

    def budget(self, rel: str) -> None:
        self.add({_LAM + s: 1.0 for s in range(6)}, rel, 1.0)

    def unused(self, *states: int) -> None:
        for s in states:
            self.add({_LAM + s - 1: 1.0}, "=", 0.0)

    def scale(self) -> float:
        """Largest capacity coefficient: the unit the rates are measured in."""
        return max((abs(v) for r in self.rows for v in r[_LAM:_N_BASE]), default=1.0) or 1.0


def outer_system(twrc, gains) -> System:
    c = twrc.link_capacities(gains)
    s = System(_N_BASE)
    s.rate_cut({_RA: 1.0}, {1: c.c13, 3: c.c1, 5: c.c3})
    s.rate_cut({_RA: 1.0}, {1: c.c3, 4: c.c2, 5: c.c23_coh})
    s.rate_cut({_RB: 1.0}, {2: c.c23, 3: c.c2, 6: c.c3})
    s.rate_cut({_RB: 1.0}, {2: c.c3, 4: c.c1, 6: c.c13_coh})
    s.budget("<=")
    return s


def mabc_system(twrc, gains) -> System:
    c = twrc.link_capacities(gains)
    s = System(_N_BASE)
    s.rate_cut({_RA: 1.0}, {3: c.c1})
    s.rate_cut({_RA: 1.0}, {4: c.c2})
    s.rate_cut({_RB: 1.0}, {3: c.c2})
    s.rate_cut({_RB: 1.0}, {4: c.c1})
    s.rate_cut({_RA: 1.0, _RB: 1.0}, {3: c.c12})
    s.unused(1, 2, 5, 6)
    s.budget("<=")
    return s


def hbc_system(twrc, gains, tdbc: bool = False) -> System:
    c = twrc.link_capacities(gains)
    s = System(_N_BASE)
    s.rate_cut({_RA: 1.0}, {1: c.c1, 3: c.c1})
    s.rate_cut({_RA: 1.0}, {1: c.c3, 4: c.c2})
    s.rate_cut({_RB: 1.0}, {2: c.c2, 3: c.c2})
    s.rate_cut({_RB: 1.0}, {2: c.c3, 4: c.c1})
    s.rate_cut({_RA: 1.0, _RB: 1.0}, {1: c.c1, 2: c.c2, 3: c.c12})
    s.unused(5, 6, *((3,) if tdbc else ()))
    s.budget("=")
    return s


def six_state_system(twrc, gains) -> System:
    c = twrc.link_capacities(gains)
    s = System(_N_BASE)
    s.rate_cut({_RA: 1.0}, {1: c.c1, 3: c.c1, 5: c.c3})
    s.rate_cut({_RA: 1.0}, {1: c.c3, 4: c.c2, 5: c.c23})
    s.rate_cut({_RB: 1.0}, {2: c.c2, 3: c.c2, 6: c.c3})
    s.rate_cut({_RB: 1.0}, {2: c.c3, 4: c.c1, 6: c.c13})
    s.rate_cut({_RA: 1.0, _RB: 1.0}, {1: c.c1, 2: c.c2, 3: c.c12, 5: c.c3, 6: c.c3})
    s.budget("=")
    return s


def lattice_rate(g_own: float, g_other: float) -> float:
    """[log2(g_own / (g_own + g_other) + g_own)]^+, the CoMABC uplink rate."""
    total = g_own + g_other
    if total <= 0.0:
        return 0.0
    return max(0.0, math.log2(g_own / total + g_own))


def comabc_system(twrc, gains) -> System:
    c = twrc.link_capacities(gains)
    r_ar = lattice_rate(gains.gamma1, gains.gamma2)
    r_br = lattice_rate(gains.gamma2, gains.gamma1)
    s = System(_N_BASE)
    s.rate_cut({_RA: 1.0}, {3: r_ar})
    s.rate_cut({_RA: 1.0}, {4: c.c2})
    s.rate_cut({_RB: 1.0}, {3: r_br, 6: c.c3})
    s.rate_cut({_RB: 1.0}, {4: c.c1, 6: c.c13})
    s.unused(1, 2, 5)
    s.budget("<=")
    return s


def df_system(twrc, gains, alpha1: float, alpha2: float) -> System:
    """Six-state DF at a fixed power split; flows ride in columns 8..19."""
    c = twrc.link_capacities(gains)
    g1, g2, g3 = gains.gamma1, gains.gamma2, gains.gamma3
    bc1_relay = twrc.cap(alpha1 * g1)
    bc1_direct = twrc.cap((1.0 - alpha1) * g3 / (1.0 + alpha1 * g3))
    bc2_relay = twrc.cap(alpha2 * g2)
    bc2_direct = twrc.cap((1.0 - alpha2) * g3 / (1.0 + alpha2 * g3))
    z = {f: _N_BASE + i for i, f in enumerate(DF_FLOWS)}
    zar1, zab1 = z[("a", "r", 1)], z[("a", "b", 1)]
    zbr2, zba2 = z[("b", "r", 2)], z[("b", "a", 2)]
    zar3, zbr3 = z[("a", "r", 3)], z[("b", "r", 3)]
    zra4, zrb4 = z[("r", "a", 4)], z[("r", "b", 4)]
    zrb5, zab5 = z[("r", "b", 5)], z[("a", "b", 5)]
    zra6, zba6 = z[("r", "a", 6)], z[("b", "a", 6)]
    s = System(_N_BASE + len(DF_FLOWS))
    s.add({_RA: 1.0, zar1: -1.0, zab1: -1.0, zab5: -1.0, zar3: -1.0}, "=")
    s.add({_RB: 1.0, zbr2: -1.0, zba2: -1.0, zba6: -1.0, zbr3: -1.0}, "=")
    s.rate_cut({zar1: 1.0}, {1: bc1_relay})
    s.rate_cut({zab1: 1.0}, {1: bc1_direct})
    s.rate_cut({zbr2: 1.0}, {2: bc2_relay})
    s.rate_cut({zba2: 1.0}, {2: bc2_direct})
    s.rate_cut({zar3: 1.0}, {3: c.c1})
    s.rate_cut({zbr3: 1.0}, {3: c.c2})
    s.rate_cut({zar3: 1.0, zbr3: 1.0}, {3: c.c12})
    s.rate_cut({zra4: 1.0}, {4: c.c1})
    s.rate_cut({zrb4: 1.0}, {4: c.c2})
    s.rate_cut({zrb5: 1.0}, {5: c.c2})
    s.rate_cut({zab5: 1.0}, {5: c.c3})
    s.rate_cut({zrb5: 1.0, zab5: 1.0}, {5: c.c23})
    s.rate_cut({zra6: 1.0}, {6: c.c1})
    s.rate_cut({zba6: 1.0}, {6: c.c3})
    s.rate_cut({zra6: 1.0, zba6: 1.0}, {6: c.c13})
    s.add({zar1: 1.0, zar3: 1.0, zrb5: -1.0, zrb4: -1.0}, "=")
    s.add({zbr2: 1.0, zbr3: 1.0, zra6: -1.0, zra4: -1.0}, "=")
    s.budget("=")
    return s


def _ray_lp(system: System, k: float):
    """Tie the rates to the ray and return (c, A_ub, b_ub, A_eq, b_eq, scale).

    Rate rows (rhs 0) are divided through by the capacity scale, so HiGHS
    works on O(1) coefficients and its absolute tolerances become relative.
    """
    s = system.scale()
    A = np.array(system.rows)
    b = np.array(system.rhs)
    rate_rows = b == 0.0
    A[rate_rows, _LAM:_N_BASE] /= s
    rel = list(system.rel)
    tie = np.zeros(system.n)
    c = np.zeros(system.n)
    if math.isinf(k):
        tie[_RB] = 1.0
        c[_RA] = -1.0
    else:
        tie[_RA], tie[_RB] = 1.0 / max(1.0, k), -k / max(1.0, k)
        c[_RB] = -1.0
    A = np.vstack([A, tie])
    b = np.append(b, 0.0)
    rel.append("=")
    ub = np.array([r == "<=" for r in rel])
    return c, A[ub], b[ub], A[~ub], b[~ub], s


_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10,
                  "presolve": False}
# Tried in turn: at extreme gains (a weighted bound at k = 1e6) the dual
# simplex at these tolerances can stop with a numerical-difficulty status
# where the interior-point method with crossover, or either with the default
# tolerances, reaches the same optimum.
_HIGHS_ATTEMPTS = (("highs", _HIGHS_OPTIONS), ("highs-ipm", _HIGHS_OPTIONS),
                   ("highs-ds", {}), ("highs-ipm", {}))


def _highs_min(c, **constraints) -> float:
    """Minimum of c @ x over x >= 0 and the constraints, by the first attempt that solves."""
    from scipy.optimize import linprog

    messages = []
    for method, options in _HIGHS_ATTEMPTS:
        res = linprog(c, bounds=(0, None), method=method, options=options, **constraints)
        if res.status == 0:
            return float(res.fun)
        messages.append(f"{method}: {res.message}")
    raise RuntimeError("HiGHS reference failed: " + "; ".join(messages))


def highs_optimum(system: System, k: float) -> float:
    """HiGHS optimum of the ray LP (Rb on a finite ray, Ra on the Ra axis)."""
    c, A_ub, b_ub, A_eq, b_eq, s = _ray_lp(system, k)
    return -_highs_min(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq) * s


def weighted_optimum(twrc, gains, wa: float, wb: float) -> float:
    """HiGHS optimum of max wa*Ra + wb*Rb over the cut-set region."""
    system = outer_system(twrc, gains)
    s = system.scale()
    A = np.array(system.rows)
    A[:4, _LAM:_N_BASE] /= s
    c = np.zeros(system.n)
    c[_RA], c[_RB] = -wa, -wb
    return -_highs_min(c, A_ub=A, b_ub=np.array(system.rhs)) * s


def values_agree(value: float, ref: float, scale: float) -> bool:
    return abs(value - ref) <= VALUE_RTOL * max(abs(ref), SCALE_FLOOR * scale)


def not_above(value: float, bound: float, scale: float) -> bool:
    """value <= bound up to the value tolerance."""
    return value <= bound + VALUE_RTOL * max(abs(bound), SCALE_FLOOR * scale)


def max_violation(system: System, x: np.ndarray, k: float | None) -> float:
    """Largest row residual of x in the system plus the ray tie (none for k=None).

    Each residual is taken relative to the row's natural size: the sum of
    |coefficient| x unit over its entries plus |rhs|, where rates and flows
    count in units of the capacity scale and shares in units of 1.
    """
    s = system.scale()
    unit = np.full(system.n, s)
    unit[_LAM:_N_BASE] = 1.0
    worst = float(np.max(-x / unit, initial=0.0))
    rows = list(zip(system.rows, system.rel, system.rhs))
    if k is not None:
        tie = np.zeros(system.n)
        if math.isinf(k):
            tie[_RB] = 1.0
        else:
            tie[_RA], tie[_RB] = 1.0, -k
        rows.append((tie, "=", 0.0))
    for a, rel, b in rows:
        resid = float(a @ x) - b
        size = float(np.abs(a) @ unit) + abs(b)
        worst = max(worst, (resid if rel == "<=" else abs(resid)) / size)
    return worst


def point_vector(system: System, point) -> np.ndarray:
    """(Ra, Rb, lambda1..6[, flows]) of a returned boundary point."""
    x = np.zeros(system.n)
    x[_RA], x[_RB] = point.ra, point.rb
    x[_LAM:_N_BASE] = point.shares.as_tuple()
    flows = getattr(point, "flows", None)
    if flows is not None:
        for i, f in enumerate(DF_FLOWS):
            x[_N_BASE + i] = flows[f]
    return x


def _cap(x: float) -> float:
    """log2(1 + x) without the round-off of forming 1 + x at low SNR."""
    return math.log1p(x) / math.log(2.0)


def threshold_residual_ok(g1: float, g2: float, gamma: float) -> bool:
    """The threshold solves its defining equation (root found with brentq)."""
    from scipy.optimize import brentq

    if g1 == g2:
        fs = [lambda x: _cap(x) + _cap((math.sqrt(g1) + math.sqrt(x)) ** 2) - 2.0 * _cap(g1)]
    else:
        c1, c2 = _cap(g1), _cap(g2)
        t = 2.0 * c1 * c2
        fs = [lambda x: c2 * _cap(x) + c1 * _cap((math.sqrt(g2) + math.sqrt(x)) ** 2) - t,
              lambda x: c1 * _cap(x) + c2 * _cap((math.sqrt(g1) + math.sqrt(x)) ** 2) - t]
    roots = []
    for f in fs:
        if f(0.0) >= 0.0:
            roots.append(0.0)
            continue
        hi = max(g2, 1.0)
        while f(hi) < 0.0:
            hi *= 2.0
        roots.append(brentq(f, 0.0, hi, xtol=1e-300, rtol=1e-12, maxiter=500))
    want = min(roots)
    return abs(gamma - want) <= VALUE_RTOL * max(want, SCALE_FLOOR * max(g2, 1.0))


class Verdict:
    """Outcome of checking one pass's calls against the reference."""

    def __init__(self) -> None:
        self.checked = 0
        self.bad: set[int] = set()  # indices of calls whose result disagreed
        self.reasons: dict[str, int] = {}
        self.reference_errors = 0

    def flag(self, i: int, reason: str) -> None:
        self.bad.add(i)
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


_RAY_SYSTEMS = {
    "outer": outer_system,
    "mabc": mabc_system,
    "tdbc": lambda twrc, g: hbc_system(twrc, g, tdbc=True),
    "hbc": hbc_system,
    "six-state": six_state_system,
    "comabc": comabc_system,
}
# smaller protocol first: each is a restriction of the next
_NESTING = (("tdbc", "hbc"), ("mabc", "hbc"), ("hbc", "six-state"))


def check_calls(twrc, calls) -> Verdict:
    """Check every returned result of one pass; raised calls are not checked."""
    v = Verdict()
    outer_ref: dict = {}
    weighted_ref: dict = {}
    returned: dict = {}

    def outer_opt(g, k):
        key = (g.as_tuple(), k)
        if key not in outer_ref:
            system = outer_system(twrc, g)
            outer_ref[key] = (highs_optimum(system, k), system.scale())
        return outer_ref[key]

    def weighted_opt(g, wa, wb):
        key = (g.as_tuple(), wa, wb)
        if key not in weighted_ref:
            weighted_ref[key] = (weighted_optimum(twrc, g, wa, wb),
                                 outer_system(twrc, g).scale())
        return weighted_ref[key]

    for i, c in enumerate(calls):
        if c.raised:
            continue
        v.checked += 1
        g, k, r = c.gains, c.k, c.result
        try:
            _check_one(twrc, v, i, c.family, g, k, r, c.weights, outer_opt, weighted_opt)
        except RuntimeError:
            v.reference_errors += 1
            continue
        if c.family in _RAY_SYSTEMS or c.family == "df":
            returned[(g.as_tuple(), k, c.family)] = (i, r.ra if math.isinf(k) else r.rb)

    for (gt, k, fam), (i, val) in returned.items():
        for small, large in _NESTING:
            other = returned.get((gt, k, large)) if fam == small else None
            if other is not None and not not_above(val, other[1], abs(other[1])):
                v.flag(i, f"{small}>{large}")
    return v


def _check_one(twrc, v, i, fam, g, k, r, weights, outer_opt, weighted_opt) -> None:
    if fam in _RAY_SYSTEMS or fam == "df":
        if fam == "df":
            system = df_system(twrc, g, r.power_split.alpha1, r.power_split.alpha2)
        else:
            system = _RAY_SYSTEMS[fam](twrc, g)
        bound, bound_scale = outer_opt(g, k)
        ref = bound if fam == "outer" else highs_optimum(system, k)
        val = r.ra if math.isinf(k) else r.rb
        if not values_agree(val, ref, system.scale()):
            v.flag(i, f"{fam}:value")
        if max_violation(system, point_vector(system, r), k) > VIOLATION_TOL:
            v.flag(i, f"{fam}:infeasible")
        if fam != "outer" and not not_above(val, bound, bound_scale):
            v.flag(i, f"{fam}>outer")
    elif fam in ("outer-analytic", "analytic"):
        val = r if isinstance(r, float) else (r.ra if math.isinf(k) else r.rb)
        bound, bound_scale = outer_opt(g, k)
        if not not_above(bound, val, bound_scale):
            v.flag(i, "analytic<lp")
    elif fam == "outer-weighted":
        ref, scale = weighted_opt(g, *weights)
        if not values_agree(r.value, ref, scale):
            v.flag(i, "outer-weighted:value")
        system = outer_system(twrc, g)
        if max_violation(system, point_vector(system, r), None) > VIOLATION_TOL:
            v.flag(i, "outer-weighted:infeasible")
    elif fam == "analytic-weighted":
        ref, scale = weighted_opt(g, *weights)
        if not not_above(ref, r, scale):
            v.flag(i, "analytic-weighted<lp")
    elif fam == "thresholds":
        if not threshold_residual_ok(g.gamma1, g.gamma2, r.operative):
            v.flag(i, "thresholds:root")
    else:
        raise ValueError(f"no reference for call family {fam!r}")
