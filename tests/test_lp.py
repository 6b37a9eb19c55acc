import dataclasses
import math

import numpy as np
import pytest

from twrc import (
    PRESETS,
    LinearProgram,
    SolverError,
    ValidationError,
    dual_of,
    preset_scenario,
    ray_grid,
    solve_lp,
)
from twrc import achievable, outer
from twrc import lp as lp_module

from conftest import random_gains


def random_feasible_bounded_lp(rng, max_vars=10):
    """Random LP guaranteed feasible (a known point) and bounded (a sum cap)."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, 9))
    A = rng.uniform(-5.0, 5.0, size=(m, n))
    x0 = rng.uniform(0.0, 3.0, size=n)
    rel = [str(rng.choice(["<=", "=", ">="])) for _ in range(m)]
    b = A @ x0
    for i, r in enumerate(rel):
        if r == "<=":
            b[i] += rng.uniform(0.0, 2.0)
        elif r == ">=":
            b[i] -= rng.uniform(0.0, 2.0)
    A = np.vstack([A, np.ones(n)])
    b = np.append(b, x0.sum() + 10.0)
    rel.append("<=")
    c = rng.uniform(-5.0, 5.0, size=n)
    return LinearProgram(c, A, tuple(rel), b)


def test_single_variable_maximum():
    sol = solve_lp(LinearProgram([1.0], [[1.0]], ("<=",), [5.0]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(5.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(5.0)
    assert sol.duals[0] == pytest.approx(1.0)


def test_two_variable_vertex():
    sol = solve_lp(LinearProgram([1.0, 1.0], [[1.0, 1.0]], ("<=",), [1.0]))
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    # vertex solution: at most one structural variable away from zero
    assert int((np.abs(sol.x) > 1e-9).sum()) <= 1


def test_infeasible():
    sol = solve_lp(LinearProgram([1.0], [[1.0]], ("<=",), [-1.0]))
    assert sol.status == "infeasible"


def test_unbounded():
    sol = solve_lp(LinearProgram([1.0], [[-1.0]], ("<=",), [1.0]))
    assert sol.status == "unbounded"


def test_min_sense():
    sol = solve_lp(LinearProgram([1.0], [[1.0]], (">=",), [2.0], sense="min"))
    assert sol.value == pytest.approx(2.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(1.0)


def test_equality_row_with_free_variable():
    lp = LinearProgram([0.0, 1.0], [[1.0, 1.0]], ("=",), [1.0],
                       bounds=((0.0, math.inf), (-math.inf, math.inf)))
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_variable_box_bounds():
    # box bounds are not a variable sign: each is refused at construction
    for box in ((0.0, 2.5), (-4.0, 2.5), (1.0, math.inf), (-math.inf, -1.0), (0.0, 0.0)):
        with pytest.raises(ValidationError):
            LinearProgram([1.0], [[1.0]], ("<=",), [5.0], bounds=(box,))
    for sign in ((0, math.inf), (-math.inf, 0), (-math.inf, math.inf)):
        assert LinearProgram([1.0], [[1.0]], ("<=",), [5.0], bounds=(sign,)).bounds == (sign,)


def test_nonpositive_variable():
    lp = LinearProgram([1.0], [[1.0]], (">=",), [-3.0], bounds=((-math.inf, 0.0),))
    sol = solve_lp(lp)
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_shape_validation():
    with pytest.raises(ValidationError):
        LinearProgram([1.0], [[1.0, 2.0]], ("<=",), [1.0])
    with pytest.raises(ValidationError):
        LinearProgram([1.0], [[1.0]], ("<",), [1.0])
    with pytest.raises(ValidationError):
        LinearProgram([math.nan], [[1.0]], ("<=",), [1.0])
    with pytest.raises(ValidationError):
        LinearProgram([1.0], [[1.0]], ("<=",), [1.0], bounds=((2.0, 1.0),))


def test_textbook_dual_pair():
    lp = LinearProgram([1.0], [[1.0]], ("<=",), [5.0])
    d = dual_of(lp)
    assert d.sense == "min"
    assert d.objective.tolist() == [5.0]
    assert d.matrix.tolist() == [[1.0]]
    assert d.relations == (">=",)
    assert d.rhs.tolist() == [1.0]
    assert d.bounds == ((0.0, math.inf),)


def test_dual_of_dual_recovers_program():
    lp = LinearProgram([1.0, -2.0], [[1.0, 1.0], [2.0, -1.0]], ("<=", ">="), [4.0, -1.0])
    dd = dual_of(dual_of(lp))
    assert dd.sense == "max"
    assert np.allclose(dd.objective, lp.objective)
    assert np.allclose(dd.matrix, lp.matrix)
    assert dd.relations == lp.relations
    assert np.allclose(dd.rhs, lp.rhs)


def test_dual_of_rejects_box_bounds():
    # a box-bounded program never reaches dual_of: neither building one nor
    # swapping box bounds into a valid program succeeds
    with pytest.raises(ValidationError):
        dual_of(LinearProgram([1.0], [[1.0]], ("<=",), [5.0], bounds=((0.0, 2.0),)))
    lp = LinearProgram([1.0], [[1.0]], ("<=",), [5.0])
    with pytest.raises(ValidationError):
        dual_of(dataclasses.replace(lp, bounds=((0.0, 2.0),)))
    # each variable sign maps to a dual row and back, in both senses
    for sense in ("max", "min"):
        for sign in ((0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)):
            signed = LinearProgram([1.0], [[1.0]], ("<=",), [5.0], bounds=(sign,), sense=sense)
            assert dual_of(dual_of(signed)).bounds == (sign,)


def test_strong_duality_on_random_lps():
    rng = np.random.default_rng(42)
    for _ in range(100):
        lp = random_feasible_bounded_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        dsol = solve_lp(dual_of(lp))
        assert dsol.status == "optimal"
        assert abs(sol.value - dsol.value) < 1e-8


def test_solution_certificates_on_random_lps():
    rng = np.random.default_rng(11)
    for _ in range(60):
        lp = random_feasible_bounded_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        ax = lp.matrix @ sol.x
        for i, r in enumerate(lp.relations):
            if r == "<=":
                assert ax[i] <= lp.rhs[i] + 1e-9
            elif r == ">=":
                assert ax[i] >= lp.rhs[i] - 1e-9
            else:
                assert abs(ax[i] - lp.rhs[i]) <= 1e-8
        assert (sol.x >= -1e-9).all()
        # complementary slackness and the duality identity
        slack = lp.rhs - ax
        assert float(np.max(np.abs(sol.duals * slack))) <= 1e-7
        assert abs(float(sol.duals @ lp.rhs) - sol.value) <= 1e-7
        # vertex property: positive entries never exceed basis size
        assert int((np.abs(sol.x) > 1e-9).sum()) <= len(sol.basis)


def test_weak_duality_at_solved_dual_point():
    # the dual optimum is itself a dual-feasible point; its objective must
    # cover the primal value
    rng = np.random.default_rng(5)
    for _ in range(40):
        lp = random_feasible_bounded_lp(rng)
        sol = solve_lp(lp)
        dual = dual_of(lp)
        dsol = solve_lp(dual)
        y = dsol.x
        rows = dual.matrix @ y
        for i, r in enumerate(dual.relations):
            if r == ">=":
                assert rows[i] >= dual.rhs[i] - 1e-8
            elif r == "<=":
                assert rows[i] <= dual.rhs[i] + 1e-8
            else:
                assert abs(rows[i] - dual.rhs[i]) <= 1e-8
        assert float(dual.objective @ y) >= sol.value - 1e-9


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    lp = random_feasible_bounded_lp(rng)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.duals.tobytes() == b.duals.tobytes()
    assert a.value == b.value
    assert a.basis == b.basis


def solve_or_error(lp):
    try:
        return solve_lp(lp)
    except SolverError as exc:
        return exc


def assert_same_solution(got, want):
    """Bit-for-bit equality of two solve results (or of the breakdowns)."""
    if isinstance(want, SolverError):
        assert type(got) is SolverError and str(got) == str(want)
        return
    assert got.status == want.status
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert got.x.tobytes() == want.x.tobytes()
    assert got.basis == want.basis
    assert got.duals.tobytes() == want.duals.tobytes()


def assert_stack_matches_scalar(template, mats):
    """Solve each matrix of the (B, m, n) stack ``mats`` as a program derived
    from ``template``, one after another; each result must be the freshly
    built program's, bit for bit.  Returns the results (or breakdowns)."""
    wants = []
    for mat in mats:
        want = solve_or_error(LinearProgram(template.objective, mat, template.relations,
                                            template.rhs, template.bounds, template.sense))
        assert_same_solution(solve_or_error(template.with_matrix(mat)), want)
        wants.append(want)
    return wants


def test_stack_matches_scalar_on_random_lps():
    rng = np.random.default_rng(8)
    statuses = set()
    for _ in range(40):
        t = random_feasible_bounded_lp(rng)
        m, n = t.matrix.shape
        mats = np.repeat(t.matrix[None], 12, axis=0)
        mats[1:] += rng.uniform(-1.0, 1.0, size=(11, m, n)) * (rng.random((11, m, n)) < 0.4)
        mats[-2, :-1] = 0.0  # every row but the sum cap empty: infeasible if an = or >= row has b > 0
        mats[-3, -1] = -1.0  # no sum cap: may be unbounded
        for sense in ("max", "min"):
            tt = LinearProgram(t.objective, t.matrix, t.relations, t.rhs, sense=sense)
            wants = assert_stack_matches_scalar(tt, mats)
            statuses |= {getattr(w, "status", "error") for w in wants}
    assert {"optimal", "infeasible", "unbounded"} <= statuses


def test_stack_matches_scalar_with_nonpositive_and_free_variables():
    # x -> -x on some columns keeps each random program feasible and bounded;
    # free columns may make it unbounded
    rng = np.random.default_rng(12)
    statuses = set()
    for _ in range(30):
        t = random_feasible_bounded_lp(rng)
        m, n = t.matrix.shape
        kind = rng.integers(0, 3, n)  # 0 non-negative, 1 non-positive, 2 free
        kind[0] = 1
        mats = np.repeat(t.matrix[None], 8, axis=0)
        mats[1:] += rng.uniform(-1.0, 1.0, size=(7, m, n)) * (rng.random((7, m, n)) < 0.4)
        mats[:, :, kind == 1] *= -1.0
        bounds = tuple(((0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf))[j]
                       for j in kind)
        for sense in ("max", "min"):
            tt = LinearProgram(t.objective, mats[0], t.relations, t.rhs, bounds, sense)
            wants = assert_stack_matches_scalar(tt, mats)
            for w in wants:
                statuses.add(getattr(w, "status", "error"))
                if getattr(w, "status", None) == "optimal":
                    assert (w.x[kind == 1] <= 0.0).all() and (w.x[kind == 0] >= 0.0).all()
                    assert abs(float(w.duals @ tt.rhs) - w.value) <= 1e-7 * (1.0 + abs(w.value))
    assert {"optimal", "unbounded"} <= statuses


def test_stack_matches_scalar_on_special_members():
    # max x1 + x2 over rows (<= 4, = 2, = 4, >= 1), x1 >= 0 and x2 free
    template = LinearProgram([1.0, 1.0], np.zeros((4, 2)), ("<=", "=", "=", ">="),
                             [4.0, 2.0, 4.0, 1.0],
                             bounds=((0.0, math.inf), (-math.inf, math.inf)))
    mats = np.array([
        [[1.0, 1.0], [1.0, -1.0], [2.0, 0.0], [1.0, 0.0]],    # optimal
        [[1.0, 1.0], [0.0, 0.0], [2.0, 0.0], [1.0, 0.0]],     # 0 = 2: infeasible
        [[-1.0, 0.0], [1.0, -1.0], [2.0, -2.0], [1.0, 0.0]],  # unbounded along x1 - x2 = 2
        [[1.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 1.0]],     # row 2 = 2 * row 1: redundant
    ])
    wants = assert_stack_matches_scalar(template, mats)
    assert [w.status for w in wants] == ["optimal", "infeasible", "unbounded", "optimal"]
    assert len(wants[3].basis) < len(wants[0].basis)  # the redundant row was dropped


def test_stack_breakdown_fails_only_its_own_program():
    template = LinearProgram([1.0], [[1.0]], ("<=",), [1.0])
    mats = np.array([[[1.0]], [[1e-10]], [[2.0]]])  # 1e-10: only a near-singular pivot
    wants = assert_stack_matches_scalar(template, mats)
    assert isinstance(wants[1], SolverError)
    assert [w.status for w in (wants[0], wants[2])] == ["optimal", "optimal"]


def test_mixed_drop_patterns():
    # programs of one template, every other one with a redundant row, solved
    # one after another: those drop the row, and the rest keep all three (the
    # last is infeasible)
    rng = np.random.default_rng(4)
    template = LinearProgram(rng.uniform(-1, 1, 4), np.zeros((3, 4)), ("=", "=", "<="),
                             [1.0, 2.0, 5.0])
    mats = rng.uniform(0.0, 2.0, size=(10, 3, 4))
    mats[::2, 1] = 2.0 * mats[::2, 0]  # every other program has a redundant row
    wants = assert_stack_matches_scalar(template, mats)
    assert [len(w.basis) for w in wants] == [2, 3] * 4 + [2, 0]


def test_derived_program_equals_a_fresh_one():
    # every field and every solve byte of a derived program is a freshly built
    # equal program's, over mixed relations, variable signs and both senses
    rng = np.random.default_rng(12)
    signs = ((0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf))
    statuses = set()
    for i in range(300):
        base = random_feasible_bounded_lp(rng)
        bounds = () if i % 3 == 0 else tuple(signs[j] for j in rng.integers(0, 3, base.n_vars))
        template = dataclasses.replace(base, bounds=bounds, sense=("max", "min")[i % 2])
        mat = rng.uniform(-5.0, 5.0, template.matrix.shape)
        derived = template.with_matrix(mat)
        fresh = LinearProgram(template.objective, mat, template.relations, template.rhs,
                              template.bounds, template.sense)
        for field in dataclasses.fields(LinearProgram):
            got, want = getattr(derived, field.name), getattr(fresh, field.name)
            if isinstance(want, np.ndarray):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), field.name
            else:
                assert got == want, field.name
        want = solve_or_error(fresh)
        assert_same_solution(solve_or_error(derived), want)
        statuses.add(type(want).__name__ if isinstance(want, SolverError) else want.status)
    assert {"optimal", "infeasible", "unbounded"} <= statuses


def test_a_reused_basis_reads_the_cold_optimum():
    # a program's own optimal basis handed back: the point, value and duals
    # are the cold solve's to round-off, over mixed relations, variable signs
    # and both senses; a basis of the wrong size or with a column the
    # program lacks is refused, and the program is solved cold, bit for bit
    rng = np.random.default_rng(21)
    signs = ((0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf))
    reused = 0
    for i in range(300):
        base = random_feasible_bounded_lp(rng)
        bounds = () if i % 3 == 0 else tuple(signs[j] for j in rng.integers(0, 3, base.n_vars))
        lp = dataclasses.replace(base, bounds=bounds, sense=("max", "min")[i % 2])
        cold = solve_or_error(lp)
        if isinstance(cold, SolverError) or not cold.is_optimal:
            continue
        for bad in (cold.basis[:-1], cold.basis[:-1] + (10**6,)):
            assert_same_solution(solve_lp(lp, bad), cold)
        warm = solve_lp(lp, cold.basis)
        reused += lp_module._reused(lp, cold.basis) is not None
        assert warm.status == "optimal" and warm.basis == cold.basis
        scale = 1.0 + np.abs(cold.x).max()
        assert np.allclose(warm.x, cold.x, rtol=0.0, atol=1e-9 * scale)
        assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9 * scale)
        assert np.allclose(warm.duals, cold.duals, rtol=1e-9, atol=1e-9)
    assert reused >= 80  # 105 of 159 optimal programs here


def test_a_resumed_solve_reaches_the_cold_optimum(monkeypatch):
    # the optimal basis of the same rows under another objective is a
    # feasible start, used exactly where certify finds its vertex feasible:
    # phase 2 from it ends at the cold optimum's value, with duals that price
    # it, over mixed relations, variable signs and both senses; the
    # program's own optimal basis resumes at the cold optimum's basis
    solve, went_cold = lp_module._solve, []
    monkeypatch.setattr(lp_module, "_solve",
                        lambda program: went_cold.append(program) or solve(program))
    rng = np.random.default_rng(24)
    signs = ((0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf))
    resumed = 0
    for i in range(300):
        base = random_feasible_bounded_lp(rng)
        bounds = () if i % 3 == 0 else tuple(signs[j] for j in rng.integers(0, 3, base.n_vars))
        lp = dataclasses.replace(base, bounds=bounds, sense=("max", "min")[i % 2])
        other = dataclasses.replace(lp, objective=rng.uniform(-5.0, 5.0, lp.n_vars))
        cold, start = solve_or_error(lp), solve_or_error(other)
        if any(isinstance(s, SolverError) or not s.is_optimal for s in (cold, start)):
            continue
        cert = lp_module.certify(lp, start.basis)
        resumed += cert is not None and cert.feasible
        went_cold.clear()
        got = lp_module.resume_lp(lp, start.basis)
        assert bool(went_cold) != (cert is not None and cert.feasible)
        scale = 1.0 + np.abs(cold.x).max()
        assert got.status == "optimal"
        assert got.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9 * scale)
        assert got.duals @ lp.rhs == pytest.approx(got.value, rel=1e-9, abs=1e-9 * scale)
        own = lp_module.resume_lp(lp, cold.basis)
        assert own.basis == cold.basis and np.allclose(own.x, cold.x, rtol=0.0, atol=1e-9 * scale)
    assert resumed >= 120  # 143 of 150 pairs here


def test_an_unusable_basis_resumes_as_the_cold_solve(monkeypatch):
    # a basis of the wrong size, one holding an artificial column, one whose
    # B is singular and one whose vertex is infeasible: phase 2 cannot start
    # from it, so the program is solved cold, bit for bit
    lp = LinearProgram([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], ("<=", "<="), [4.0, 6.0])
    eq = LinearProgram([1.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], ("=", "<="), [1.0, 2.0])
    twin = LinearProgram([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], ("<=", "<="), [1.0, 2.0])
    assert lp_module._start(eq.bounds, eq.relations, eq.rhs.tobytes())[-1] == 3
    assert lp_module.certify(twin, (0, 1)) is None
    assert not lp_module.certify(lp, (0, 3)).feasible  # x1 = 4 leaves row 2's slack at -6
    cold = []
    solve = lp_module._solve
    monkeypatch.setattr(lp_module, "_solve", lambda program: cold.append(program) or solve(program))
    for program, basis in ((lp, (0,)), (eq, (0, 3)), (twin, (0, 1)), (lp, (0, 3))):
        cold.clear()
        got = lp_module.resume_lp(program, basis)
        assert cold == [program]
        assert_same_solution(got, solve(program))


def test_a_list_basis_reads_as_its_tuple():
    # a basis read back from JSON is a list: it gives the tuple's solution,
    # bit for bit, whether the basis is reused or refused
    rng = np.random.default_rng(21)
    reused = 0
    for _ in range(60):
        lp = random_feasible_bounded_lp(rng)
        cold = solve_or_error(lp)
        if isinstance(cold, SolverError) or not cold.is_optimal:
            continue
        for basis in (cold.basis, cold.basis[:-1]):
            assert_same_solution(solve_lp(lp, list(basis)), solve_lp(lp, basis))
        reused += lp_module._reused(lp, list(cold.basis)) is not None
    assert reused > 0


def test_one_cached_start_serves_every_objective(case_a):
    # the phase-1 start is keyed on bounds, relations and rhs only, so a new
    # objective on the same channel (a weighted-sum bound) reuses it
    lp_module._start.cache_clear()
    outer.outer_weighted_bound(1.0, 1.0, case_a)
    outer.outer_weighted_bound(1.0, 0.3, case_a)
    info = lp_module._start.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def held_read(lp, basis):
    """The certificate of ``basis`` on ``lp`` and ``_reused``'s verdict, as bytes."""
    cert = lp_module.certify(lp, basis)
    return (cert.x.tobytes(), cert.duals.tobytes(), cert.reduced.tobytes(), cert.feasible,
            reused_decision(lp, basis))


def test_held_basis_constants_are_keyed_on_objective_and_sense():
    # one basis on programs that differ only in objective, then only in
    # sense: each gets the read it gets with nothing cached, though the
    # first program's constants are cached when the second is read
    lp = LinearProgram([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], ("<=", "<="), [4.0, 6.0])
    basis = solve_lp(lp).basis  # the vertex (1.6, 1.2)
    for other in (dataclasses.replace(lp, objective=[1.0, 0.0]),
                  dataclasses.replace(lp, sense="min")):
        alone = []
        for program in (lp, other):
            lp_module._held.cache_clear()
            alone.append(held_read(program, basis))
        lp_module._held.cache_clear()
        assert [held_read(program, basis) for program in (lp, other)] == alone
        assert lp_module._held.cache_info().currsize == 2
        # the basis is the unique optimum of the first program only
        assert alone[0][-1] is not None and alone[1][-1] is None


def test_held_basis_constants_are_cached_per_basis_not_per_channel(monkeypatch):
    # every channel of one protocol family shares the program fields, so a
    # sweep over many channels caches one entry per distinct basis it reads
    held = []
    reused = lp_module._reused

    def record(lp, basis):
        held.append(basis)
        return reused(lp, basis)

    monkeypatch.setattr(lp_module, "_reused", record)
    lp_module._held.cache_clear()
    channels = random_gains(np.random.default_rng(8), 40)
    rays = [k for _, k in ray_grid(15)]
    for gains in channels:
        point = achievable.ray_evaluator(achievable.hbc_system(gains))
        for k in rays:
            point(k)
    assert len(held) == len(channels) * (len(rays) - 1)
    assert lp_module._held.cache_info().currsize == len(set(held)) < len(channels)


def test_lone_reads_refuse_artificial_and_overflowing_bases():
    # a basis holding an artificial column, and one whose B^-1 overflows to
    # inf: no held read, and the program is solved cold, bit for bit
    eq = LinearProgram([1.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], ("=", "<="), [1.0, 2.0])
    tiny = LinearProgram([0.0, 1.0], [[1e-310, 0.0], [0.0, 1.0]], ("<=", "<="), [1.0, 1.0])
    first_art = lp_module._start(eq.bounds, eq.relations, eq.rhs.tobytes())[-1]
    assert first_art == 3  # x1, x2, the slack of row 2, then row 1's artificial
    assert not np.isfinite(np.linalg.inv(tiny.matrix)).all()
    for lp, basis in ((eq, (0, first_art)), (tiny, (0, 1))):
        cold = solve_lp(lp)
        assert cold.is_optimal and cold.basis != basis
        assert lp_module._reused(lp, basis) is None
        assert_same_solution(solve_lp(lp, basis), cold)
        assert lp_module.certify(lp, basis) is None


def test_derived_program_rejects_a_bad_matrix():
    t = LinearProgram([1.0, 1.0], [[1.0, 1.0]], ("<=",), [1.0])
    for bad in (np.ones((1, 3)), np.ones((2, 2)), np.ones((1, 1, 2)),
                [[1.0, math.nan]], [[math.inf, 1.0]]):
        with pytest.raises(ValidationError):
            t.with_matrix(bad)
    assert t.matrix.tolist() == [[1.0, 1.0]]


def reused_decision(lp, basis):
    """``_reused``'s verdict on one program, with its point and duals."""
    sol = lp_module._reused(lp, basis)
    return None if sol is None else (sol.x.tobytes(), sol.duals.tobytes())


def df_split_programs(gains, k, axis):
    """((alpha1, alpha2), program) of the ray-tied DF program at each split
    of ``axis`` x ``axis``, in grid order."""
    template = achievable.ray_programs(achievable._df_matrix(gains))(k)
    return [((a1, a2), achievable._split_program(template, gains, a1, a2))
            for a1 in map(float, axis) for a2 in map(float, axis)]


def stops_there(cert):
    """Whether the cold simplex would stop at a certificate's basis: it is
    feasible and no reduced cost exceeds ``_COST_TOL``."""
    return cert.feasible and bool((cert.reduced <= lp_module._COST_TOL).all())


def certificate_reads(case_a, case_c, low_snr):
    """(program, basis) pairs: protocol programs along a ray grid under one
    ray's optimal basis, and the programs of a DF grid under one split's."""
    rays = [k for _, k in ray_grid(15)]
    for gains in (case_a, case_c, low_snr):
        for system in (achievable.hbc_system(gains), achievable.six_state_system(gains),
                       achievable.comabc_system(gains), outer.cut_set_system(gains)):
            program = achievable.ray_programs(system)
            for k in (0.0, 1.0, 3.0):
                basis = solve_lp(program(k)).basis
                yield from ((program(ray), basis) for ray in rays)
        programs = [lp for _, lp in df_split_programs(gains, 0.3, np.linspace(0.0, 1.0, 9))]
        for i in (0, 40, 80):
            basis = solve_lp(programs[i]).basis
            yield from ((lp, basis) for lp in programs)


def test_certificate_decides_as_a_reuse(case_a, case_c, low_snr):
    # each read gets _reused's verdict, point and duals bit for bit, and a
    # basis it finds optimal (the cold simplex's stopping rule) holds the
    # cold optimum's value
    accepted = optimal = reads = 0
    for lp, basis in certificate_reads(case_a, case_c, low_snr):
        cert = lp_module.certify(lp, basis)
        unique = cert is not None and cert.feasible and bool(
            (cert.reduced < -lp_module._COST_TOL).all())
        want = reused_decision(lp, basis)
        assert unique == (want is not None)
        if unique:
            assert (cert.x.tobytes(), cert.duals.tobytes()) == want
        if cert is not None and stops_there(cert):
            assert lp.objective @ cert.x == pytest.approx(solve_lp(lp).value, rel=1e-9, abs=1e-12)
            optimal += 1
        accepted += unique
        reads += 1
    assert 0 < accepted < optimal < reads


def standardized_basis_matrix(lp, basis):
    """The program's basis matrix B in the standardized form, built by hand."""
    start = lp_module._start(lp.bounds, lp.relations, lp.rhs.tobytes())
    (var, scale), block = (start[0], start[2]), start[11]
    A = block[:, :-1].copy()
    A[:, :var.size] = lp.matrix[:, var] * scale
    return A[:, list(basis)]


def test_certificate_refuses_singular_members_alone(case_a):
    # DF splits at alpha in {0, 1} zero a capacity, which leaves some splits
    # a basis matrix with an all-zero row: they get no certificate, and
    # solve_lp on that basis is the cold solve, bit for bit
    splits, programs = zip(*df_split_programs(case_a, 1.0, np.linspace(0.0, 1.0, 9)))
    basis = solve_lp(programs[40]).basis
    zero_row = [not standardized_basis_matrix(lp, basis).any(axis=1).all() for lp in programs]
    assert 0 < sum(zero_row) < len(programs)
    assert all({a1, a2} & {0.0, 1.0} for (a1, a2), z in zip(splits, zero_row) if z)
    certs = [lp_module.certify(lp, basis) for lp in programs]
    assert all(cert is None for cert, z in zip(certs, zero_row) if z)
    assert sum(stops_there(cert) for cert in certs if cert is not None) > 0
    for lp in (lp for lp, z in zip(programs, zero_row) if z):
        assert_same_solution(solve_lp(lp, basis), solve_lp(lp))

    # max x1 + x2 over x1 + x2 <= 1 and x1 + x2 <= 2 on basis (0, 1): two
    # equal basic columns and no zero row; on a regular matrix it is read
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], ("<=", "<="), [1.0, 2.0])
    assert lp_module.certify(lp, (0, 1)) is None
    assert lp_module._reused(lp, (0, 1)) is None
    assert_same_solution(solve_lp(lp, (0, 1)), solve_lp(lp))
    assert lp_module.certify(lp.with_matrix(np.eye(2)), (0, 1)).x.tolist() == [1.0, 2.0]
