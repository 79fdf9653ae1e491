"""Exact LP solver: examples, duality, and determinism."""

import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple

import pytest

from upperset import duality, simplex
from upperset.corpus import HALFLINE_1D, ORTHANT_2D, fixture_by_id
from upperset.duality import DualityError, fundamental_duality
from upperset.geometry import Cone, Polyhedron, dual_cone
from upperset.linalg import NEG_INF, ONE, POS_INF, ZERO, dot, vec
from upperset.scalarize import DirectionBase
from upperset.simplex import LPStatus, solve_lp

from test_duality import admissible_bivariate


def F(x):
    return Fraction(x)


def dual_program(objective, cons, sense):
    """The dual of ``opt c.z  s.t.  n_i.z >= b_i`` over free z, as the
    arguments of ``solve_lp``: for a max primal ``min b.lam  s.t.
    N^T lam = c, lam <= 0``, for a min primal ``max b.lam  s.t.
    N^T lam = c, lam >= 0``; each equality is a pair of rows, then one sign
    row per multiplier."""
    c_obj = vec(objective)
    cons = [(vec(n), Fraction(b)) for n, b in cons]
    m = len(cons)
    rows = []
    for j in range(len(c_obj)):
        col = vec([cons[i][0][j] for i in range(m)])
        rows.append((col, c_obj[j]))
        rows.append((vec([-x for x in col]), -c_obj[j]))
    for i in range(m):
        sign_row = [ZERO] * m
        sign_row[i] = -ONE if sense == "max" else ONE
        rows.append((tuple(sign_row), ZERO))
    return vec([b for _, b in cons]), rows, ("min" if sense == "max" else "max")


def solve_dual(objective, cons, sense, value):
    """The dual program solved; strong duality makes it optimal with the
    primal's optimal value, and its point holds the multipliers lam with
    sum lam_i n_i = c and sum lam_i b_i = value."""
    res = solve_lp(*dual_program(objective, cons, sense))
    assert res.status is LPStatus.OPTIMAL and res.value == value, "strong duality violated"
    return res


class TestSolveLP:
    def test_bounded_box(self):
        # maximize z1 over {0 <= z1 <= 1}
        res = solve_lp(
            vec([1]), [(vec([1]), F(0)), (vec([-1]), F(-1))], sense="max"
        )
        assert res.status is LPStatus.OPTIMAL
        assert res.value == 1
        assert res.point == (F(1),)

    def test_unbounded(self):
        res = solve_lp(vec([1]), [(vec([1]), F(0))], sense="max")
        assert res.status is LPStatus.UNBOUNDED
        assert res.ray is not None
        # The ray improves the objective and stays feasible.
        assert dot(vec([1]), res.ray) > 0

    def test_infeasible(self):
        res = solve_lp(
            vec([1]), [(vec([1]), F(1)), (vec([-1]), F(0))], sense="max"
        )
        assert res.status is LPStatus.INFEASIBLE

    def test_min_sense(self):
        res = solve_lp(
            vec([1, 1]),
            [(vec([1, 0]), F(2)), (vec([0, 1]), F(-1))],
            sense="min",
        )
        assert res.status is LPStatus.OPTIMAL
        assert res.value == 1
        assert res.point == (F(2), F(-1))

    def test_exact_fractions(self):
        # maximize z over {3z <= 1} = {-3z >= -1}
        res = solve_lp(vec([1]), [(vec([-3]), F(-1))], sense="max")
        assert res.value == Fraction(1, 3)

    def test_no_constraints(self):
        res = solve_lp(vec([0, 0]), [], sense="max")
        assert res.status is LPStatus.OPTIMAL and res.value == 0
        # With no rows the dual has no multipliers.
        assert solve_dual(vec([0, 0]), [], "max", res.value).point == ()
        res = solve_lp(vec([1, 0]), [], sense="min")
        assert res.status is LPStatus.UNBOUNDED

    def test_degenerate_does_not_cycle(self):
        # Classic degenerate vertex: many constraints active at the origin.
        cons = [
            (vec([1, 0]), F(0)),
            (vec([0, 1]), F(0)),
            (vec([1, 1]), F(0)),
            (vec([2, 1]), F(0)),
            (vec([-1, -1]), F(-1)),
        ]
        res = solve_lp(vec([-1, -2]), cons, sense="max")
        assert res.status is LPStatus.OPTIMAL
        assert res.value == 0


class TestDuality:
    def test_dual_certificate_max(self):
        cons = [
            (vec([-1, 0]), F(-4)),
            (vec([0, -1]), F(-3)),
            (vec([-1, -2]), F(-8)),
            (vec([1, 0]), F(0)),
            (vec([0, 1]), F(0)),
        ]
        c = vec([3, 5])
        res = solve_lp(c, cons, sense="max")
        assert res.status is LPStatus.OPTIMAL
        lam = solve_dual(c, cons, "max", res.value).point
        assert lam is not None
        assert all(li <= 0 for li in lam)
        for j in range(2):
            assert sum(lam[i] * cons[i][0][j] for i in range(len(cons))) == c[j]
        assert sum(lam[i] * cons[i][1] for i in range(len(cons))) == res.value

    def test_primal_dual_match_random(self):
        rng = random.Random(20240517)
        for _ in range(40):
            dim = rng.choice([1, 2, 3])
            m = rng.randint(dim, dim + 4)
            cons = []
            for _ in range(m):
                n = vec([rng.randint(-4, 4) for _ in range(dim)])
                cons.append((n, F(rng.randint(-5, 2))))
            # Keep instances bounded by boxing the feasible set.
            for j in range(dim):
                e = [0] * dim
                e[j] = 1
                cons.append((vec(e), F(-10)))
                e[j] = -1
                cons.append((vec(e), F(-10)))
            c = vec([rng.randint(-3, 3) for _ in range(dim)])
            sense = rng.choice(["max", "min"])
            res = solve_lp(c, cons, sense=sense)
            if res.status is not LPStatus.OPTIMAL:
                assert res.status is LPStatus.INFEASIBLE
                continue
            lam = solve_dual(c, cons, sense, res.value).point
            assert lam is not None
            for j in range(dim):
                assert sum(lam[i] * cons[i][0][j] for i in range(len(cons))) == c[j]
            assert sum(lam[i] * cons[i][1] for i in range(len(cons))) == res.value

    def test_determinism(self):
        cons = [
            (vec([1, 1]), F(1)),
            (vec([1, -1]), F(-3)),
            (vec([-1, 0]), F(-5)),
            (vec([0, 1]), F(-5)),
        ]
        first = solve_lp(vec([2, 1]), cons, sense="max")
        for _ in range(5):
            again = solve_lp(vec([2, 1]), cons, sense="max")
            assert again == first


class TestSupport:
    """Support values of the programs ``max d.z s.t. rows``, which
    ``Polyhedron.support`` answers from its V-form without an LP."""

    def test_support_empty(self):
        assert Polyhedron(1, [(vec([1]), F(1)), (vec([-1]), F(0))]).support(vec([1])) == NEG_INF

    def test_support_unbounded(self):
        assert Polyhedron(1, [(vec([1]), F(0))]).support(vec([1])) == POS_INF

    def test_support_bounded(self):
        p = Polyhedron(2, [(vec([-1, 0]), F(-7)), (vec([0, 1]), F(0))])
        assert p.support(vec([1, 0])) == 7


# -- reference oracle: the dense Bland tableau ------------------------------------
#
# The solver's kernel pivots sparsely and carries the reduced-cost row through
# each pivot.  The functions below are the dense kernel it replaced: every row
# rebuilt on each pivot and the reduced costs recomputed before every step.
# Exact arithmetic makes both kernels choose the same pivots, so solve_lp must
# give an identical LPResult on either one.


def _dense_pivot(tableau, basis, row, col, log):
    log.append((row, col))
    pr = tableau[row]
    pv = pr[col]
    tableau[row] = [x / pv for x in pr]
    pr = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [x - f * y for x, y in zip(r, pr)]
    basis[row] = col


def _dense_reduced_costs(tableau, basis, c, ncols):
    red = list(c)
    for i, bi in enumerate(basis):
        cb = c[bi]
        if cb != 0:
            row = tableau[i]
            for j in range(ncols):
                if row[j] != 0:
                    red[j] -= cb * row[j]
    return red


def _dense_bland_step(tableau, basis, c, ncols, log):
    reduced = _dense_reduced_costs(tableau, basis, c, ncols)
    enter = next((j for j in range(ncols) if reduced[j] < 0), None)
    if enter is None:
        raise StopIteration
    leave = None
    best = None
    for i, r in enumerate(tableau):
        a = r[enter]
        if a > 0:
            ratio = r[-1] / a
            if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                best = ratio
                leave = i
    if leave is None:
        return enter
    _dense_pivot(tableau, basis, leave, enter, log)
    return None


def _dense_simplex_standard(c, a, b, log):
    m = len(a)
    n = len(c)
    rows = []
    for i in range(m):
        r = list(a[i])
        rhs = b[i]
        if rhs < 0:
            r = [-x for x in r]
            rhs = -rhs
        rows.append(r + [ZERO] * m + [rhs])
    for i in range(m):
        rows[i][n + i] = ONE
    basis = [n + i for i in range(m)]
    phase1 = [ZERO] * n + [ONE] * m
    while True:
        try:
            if _dense_bland_step(rows, basis, phase1, n + m, log) is not None:
                raise AssertionError("phase-1 objective is bounded below by zero")
        except StopIteration:
            break
    if sum((phase1[basis[i]] * rows[i][-1] for i in range(m)), ZERO) > 0:
        return LPStatus.INFEASIBLE, None
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if rows[i][j] != 0), None)
            if pivot_col is not None:
                _dense_pivot(rows, basis, i, pivot_col, log)
    keep = [i for i in range(m) if basis[i] < n]
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    while True:
        try:
            enter = _dense_bland_step(rows, basis, c, n, log)
        except StopIteration:
            break
        if enter is not None:
            ray = [ZERO] * n
            ray[enter] = ONE
            for i, bi in enumerate(basis):
                ray[bi] = -rows[i][enter]
            return LPStatus.UNBOUNDED, ray
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = rows[i][-1]
    return LPStatus.OPTIMAL, x


class Solved(NamedTuple):
    """A primal's LPResult and, when requested and the primal is optimal,
    its dual program's."""

    primal: simplex.LPResult
    dual: simplex.LPResult | None


def _solve(objective, constraints, sense, want_dual) -> Solved:
    primal = solve_lp(objective, constraints, sense=sense)
    if not want_dual or primal.status is not LPStatus.OPTIMAL:
        return Solved(primal, None)
    return Solved(primal, solve_dual(objective, constraints, sense, primal.value))


def _solve_both(monkeypatch, objective, constraints, sense, want_dual):
    """solve_lp on the sparse kernel and on the dense reference, with the
    (row, column) of every pivot each one made, the dual program's solve
    included.  Every entry of the sparse tableau is a reduced pair of ints
    (n, d), with d > 0 and gcd(n, d) = 1, after each pivot."""
    sparse_log, dense_log = [], []
    sparse_pivot = simplex._pivot

    def logged_pivot(tableau, basis, row, col):
        sparse_log.append((row, col))
        sparse_pivot(tableau, basis, row, col)
        assert all(
            type(x) is tuple and len(x) == 2 and type(x[0]) is int and type(x[1]) is int
            and x[1] > 0 and gcd(*x) == 1
            for r in tableau
            for x in r
        )

    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_pivot", logged_pivot)
        sparse = _solve(objective, constraints, sense, want_dual)
    with monkeypatch.context() as mp:
        mp.setattr(
            simplex,
            "_simplex_standard",
            lambda c, a, b: _dense_simplex_standard(c, a, b, dense_log),
        )
        dense = _solve(objective, constraints, sense, want_dual)
    return sparse, dense, sparse_log, dense_log


def _tall_instances():
    """Separation LPs of the shape certification used to solve: 2
    variables, one row -d.y >= 0 per direction of a light()-sized fan, and
    the box |y_i| <= 1."""
    for gens, want_dual in (([[1, 0], [0, 1]], False), ([[2, 1], [-1, 3]], True)):
        cone = Cone.from_generators(gens)
        rows = [(tuple(-c for c in d), ZERO) for d in DirectionBase.default(cone, 8, 10).directions]
        for i in range(2):
            for s in (1, -1):
                e = [ZERO, ZERO]
                e[i] = Fraction(s)
                rows.append((tuple(e), -ONE))
        yield dual_cone(cone).generators[0], rows, "max", want_dual


def _small_instances():
    """Random programs in 2 and 3 variables: feasible, infeasible and
    unbounded ones, with duals requested on about half of them."""
    rng = random.Random(20261018)
    for _ in range(80):
        dim = rng.choice([2, 3])
        cons = []
        for _ in range(rng.randint(1, dim + 4)):
            n = vec([rng.randint(-3, 3) for _ in range(dim)])
            b = Fraction(0) if rng.random() < 0.4 else Fraction(rng.randint(-4, 3), rng.randint(1, 3))
            cons.append((n, b))
        if rng.random() < 0.5:
            for j in range(dim):
                for s in (1, -1):
                    e = [0] * dim
                    e[j] = s
                    cons.append((vec(e), Fraction(-6)))
        c = vec([rng.randint(-3, 3) for _ in range(dim)])
        yield c, cons, rng.choice(["max", "min"]), rng.random() < 0.5


def _duality_instances(monkeypatch):
    """Every program ``duality._attained_dual_vector`` solves, a dual
    program, on the three duality fixtures at 0 (abs-pair-2d on a
    2-direction base, as its pinned report) and on 30 seeded random
    bivariate maps at x0 in {-1, 0, 1}.
    Points outside dom f, refusals and failed attainments still leave the
    programs solved before them."""
    calls = []

    def recording(objective, constraints, sense="max"):
        calls.append((objective, constraints, sense))
        return solve_lp(objective, constraints, sense=sense)

    cases = []
    for fixture_id in ("abs-bivariate", "pl-profile", "abs-pair-2d"):
        f = fixture_by_id(fixture_id).map
        cases.append((f, (ZERO,), DirectionBase.default(f.cone, 2) if fixture_id == "abs-pair-2d" else None))
    rng = random.Random(1315)
    for k in range(30):
        f = admissible_bivariate(rng, ORTHANT_2D if k % 4 == 0 else HALFLINE_1D)
        cases += [(f, vec([x]), None) for x in (-1, 0, 1)]
    with monkeypatch.context() as mp:
        mp.setattr(duality, "solve_lp", recording)
        for f, x0, base in cases:
            try:
                fundamental_duality(f, x0, base)
            except DualityError:
                pass
    return calls


class TestDenseReference:
    def test_duality_traffic_matches(self, monkeypatch):
        calls = _duality_instances(monkeypatch)
        assert len(calls) >= 40 and max(len(rows) for _, rows, _ in calls) >= 30
        optimal = 0
        for objective, rows, sense in calls:
            sparse, dense, sparse_log, dense_log = _solve_both(
                monkeypatch, objective, rows, sense, False
            )
            assert sparse == dense
            assert sparse_log == dense_log
            optimal += sparse.primal.status is LPStatus.OPTIMAL
        assert optimal >= 30

    def test_tall_degenerate_instances_match(self, monkeypatch):
        for objective, rows, sense, want_dual in _tall_instances():
            assert len(rows) >= 30 and sum(b == 0 for _, b in rows) >= 26
            sparse, dense, sparse_log, dense_log = _solve_both(
                monkeypatch, objective, rows, sense, want_dual
            )
            assert sparse == dense
            assert sparse_log == dense_log
            assert sparse.primal.status is LPStatus.OPTIMAL
            assert (sparse.dual is not None) == want_dual

    def test_small_instances_match(self, monkeypatch):
        seen = set()
        for objective, cons, sense, want_dual in _small_instances():
            sparse, dense, sparse_log, dense_log = _solve_both(
                monkeypatch, objective, cons, sense, want_dual
            )
            assert sparse == dense
            assert sparse_log == dense_log
            seen.add((len(objective), sparse.primal.status, sparse.dual is not None))
        for dim in (2, 3):
            for status in LPStatus:
                assert (dim, status, False) in seen
            assert (dim, LPStatus.OPTIMAL, True) in seen

    @pytest.mark.parametrize(
        "cons, sense, status",
        [
            ([(vec([1, 0]), Fraction(1)), (vec([-1, 0]), Fraction(0))], "max", LPStatus.INFEASIBLE),
            ([(vec([1, 1]), Fraction(0)), (vec([0, 1]), Fraction(0))], "max", LPStatus.UNBOUNDED),
            ([(vec([1, 1]), Fraction(0)), (vec([0, 1]), Fraction(0))], "min", LPStatus.OPTIMAL),
        ],
    )
    def test_status_cases_match(self, monkeypatch, cons, sense, status):
        sparse, dense, sparse_log, dense_log = _solve_both(monkeypatch, vec([1, 2]), cons, sense, True)
        assert sparse.primal.status is status
        assert sparse == dense and sparse_log == dense_log
