"""Cones, polyhedra, dual cones, support values: exact geometry layer."""

import itertools
import random
from fractions import Fraction

import pytest

from upperset import geometry
from upperset.geometry import (
    Cone,
    DimensionMismatch,
    DualPair,
    OrderConeError,
    Polyhedron,
    Region,
    VForm,
    _affine_point,
    _cone_rays,
    _double_description,
    _idot,
    _integer_row,
    _kernel,
    _primitive,
    dual_cone,
    project_out,
    rank,
    require_dual_direction,
)
from upperset.linalg import (
    NEG_INF,
    POS_INF,
    HashedVec,
    dot,
    is_zero,
    norm2_sq,
    scale_to_canonical,
    vec,
    zeros,
)
from upperset.sets import UpperSet, minkowski_sum, upper_closure
from upperset.simplex import LPStatus, solve_lp

from linalg_oracle import _row_reduce, nullspace, solve_affine
from test_linalg import matrix_rank, vsub


def F(x):
    return Fraction(x)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(t, a):
    return tuple(t * x for x in a)


ORTHANT_2D = Cone.from_generators([[1, 0], [0, 1]])
RAY_CONE = Cone.from_halfspaces([[1, 0], [-1, 0], [0, 1]])  # {z1 = 0, z2 >= 0}


def cones_equal(a, b):
    """Representation equivalence: mutual halfspace containment of generators."""
    if a.dim != b.dim:
        return False
    return all(b.contains(g) for g in a.generators) and all(
        a.contains(g) for g in b.generators
    )


def recession_rays(p):
    """Generators of p's recession cone {d : n_i . d >= 0} by ``_cone_rays``,
    independent of p's V-form; [] when p is empty."""
    return [] if p.is_empty else _cone_rays([n for n, _ in p.rows], p.dim)[0]


def brute_force_dual_membership(cone, zstar):
    # z* is in C^- exactly when z*.g <= 0 for every generator of C.
    return all(dot(vec(zstar), g) <= 0 for g in cone.generators)


class TestDualCone:
    def test_orthant_dual_is_negative_orthant(self):
        dual = dual_cone(ORTHANT_2D)
        assert dual.contains([-1, -1])
        assert dual.contains([0, -2])
        assert not dual.contains([1, 0])
        assert not dual.contains([-1, Fraction(1, 10)])

    def test_ray_cone_dual_is_halfplane(self):
        # Oracle: brute-force sign check over a grid of candidate directions.
        dual = dual_cone(RAY_CONE)
        grid = range(-3, 4)
        for a in grid:
            for b in grid:
                expected = brute_force_dual_membership(RAY_CONE, [a, b])
                assert dual.contains([a, b]) == expected, (a, b)
        # The halfplane {z*2 <= 0} in particular.
        assert dual.contains([5, -1]) and dual.contains([-5, 0])
        assert not dual.contains([0, 1])

    def test_skewed_cone_dual(self):
        cone = Cone.from_generators([[1, 0], [1, 1]])
        dual = dual_cone(cone)
        for a in range(-3, 4):
            for b in range(-3, 4):
                expected = brute_force_dual_membership(cone, [a, b])
                assert dual.contains([a, b]) == expected, (a, b)

    def test_involution(self):
        for cone in (ORTHANT_2D, RAY_CONE, Cone.from_generators([[1, 0], [1, 1]])):
            assert cones_equal(dual_cone(dual_cone(cone)), cone)

    def test_flags(self):
        assert ORTHANT_2D.pointed and ORTHANT_2D.has_interior
        assert RAY_CONE.pointed and not RAY_CONE.has_interior
        halfplane = Cone.from_halfspaces([[0, 1]])
        assert not halfplane.pointed and halfplane.has_interior

    def test_full_space_rejected_as_ordering_cone(self):
        with pytest.raises(OrderConeError):
            Cone.from_generators([[1], [-1]])

    def test_three_dimensional_dual(self):
        cone = Cone.from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        dual = dual_cone(cone)
        for pt in itertools.product(range(-2, 3), repeat=3):
            expected = brute_force_dual_membership(cone, pt)
            assert dual.contains(pt) == expected


class TestConeContains:
    def test_origin(self):
        assert ORTHANT_2D.contains([0, 0])

    def test_ray_cone_member(self):
        assert RAY_CONE.contains([0, 3])

    def test_ray_cone_nonmember(self):
        assert not RAY_CONE.contains([1, 0])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ORTHANT_2D.contains([1, 2, 3])


class TestConeRecord:
    def test_equal_cones_compare_and_hash_equal(self):
        a, b = Cone.from_generators([[1, 0], [0, 1]]), Cone.from_generators([[1, 0], [0, 1]])
        twin = Cone(a.dim, a.generators, a.halfspaces)
        for c in (b, twin):
            assert c is not a and c == a and hash(c) == hash(a)
        assert {a: "orthant"}[twin] == "orthant"
        assert a != dual_cone(a) and a != RAY_CONE

    def test_inconsistent_representations_are_rejected(self):
        # z = (1/3, 1) against n = (1, -1/2): n.z = -1/6 < 0, a sign that
        # the integer rows (1, 3) and (2, -1) keep.
        with pytest.raises(ValueError, match="inconsistent"):
            Cone._build(2, ((Fraction(1, 3), F(1)),), ((F(1), Fraction(-1, 2)),), True)
        with pytest.raises(ValueError, match="inconsistent"):
            Cone._build(2, ((F(1), F(0)),), ((F(-1), F(0)),), False)
        # n = (1, -1/4) leaves n.z = 1/12 >= 0.
        cone = Cone._build(2, ((Fraction(1, 3), F(1)),), ((F(1), Fraction(-1, 4)),), True)
        assert cone.contains([1, 3])


class TestSupportValue:
    def test_orthant(self):
        p = Polyhedron(2, [([1, 0], 0), ([0, 1], 0)])
        assert p.support([-1, -1]) == 0

    def test_shifted_halfplane(self):
        p = Polyhedron(2, [([1, 1], 2)])
        # Oracle: brute-force max of z*.z over a grid window of the set.
        best = max(
            -a - b
            for a in range(0, 9)
            for b in range(0, 9)
            if a + b >= 2
        )
        assert best == -2
        assert p.support([-1, -1]) == -2

    def test_empty(self):
        assert Polyhedron.empty(2).support([1, 0]) == NEG_INF

    def test_unbounded(self):
        p = Polyhedron(2, [([1, 0], 0), ([0, 1], 0)])
        assert p.support([1, 0]) == POS_INF

    def test_sublinearity_random(self):
        rng = random.Random(7)
        p = Polyhedron(2, [([1, 0], -1), ([0, 1], -2), ([1, 1], 0)])
        for _ in range(60):
            u = vec([rng.randint(-3, 0), rng.randint(-3, 0)])
            v = vec([rng.randint(-3, 0), rng.randint(-3, 0)])
            su, sv = p.support(u), p.support(v)
            ssum = p.support(tuple(a + b for a, b in zip(u, v)))
            if su != POS_INF and sv != POS_INF:
                assert ssum <= su + sv
            lam = F(rng.randint(0, 5))
            sl = p.support(tuple(lam * x for x in u))
            if su != POS_INF:
                assert sl == lam * su or (lam == 0 and sl == 0)


class TestLpSolve:
    def test_optimal(self):
        p = Polyhedron(1, [([1], 0), ([-1], -1)])
        res = solve_lp(vec([1]), list(p.rows))
        assert res.status is LPStatus.OPTIMAL
        assert res.value == 1 and res.point == (F(1),)

    def test_unbounded(self):
        res = solve_lp(vec([1]), list(Polyhedron(1, [([1], 0)]).rows))
        assert res.status is LPStatus.UNBOUNDED

    def test_infeasible(self):
        res = solve_lp(vec([1]), list(Polyhedron(1, [([1], 1), ([-1], 0)]).rows))
        assert res.status is LPStatus.INFEASIBLE


class TestPolyhedron:
    def test_contains_and_empty(self):
        p = Polyhedron(2, [([1, 0], 0), ([0, 1], 0)])
        assert p.contains([0, 0]) and not p.contains([-1, 0])
        assert not p.is_empty
        assert Polyhedron.empty(2).is_empty

    def test_vertices_of_box(self):
        box = Polyhedron.box([(0, 1), (0, 2)])
        vs = set(box.minimal_face_points)
        assert vs == {
            (F(0), F(0)),
            (F(0), F(2)),
            (F(1), F(0)),
            (F(1), F(2)),
        }

    def test_minimal_faces_with_lineality(self):
        strip = Polyhedron(2, [([1, 0], 0), ([-1, 0], -1)])
        pts = strip.minimal_face_points
        assert len(pts) == 2
        assert strip.vform.lin
        assert {p[0] for p in pts} == {F(0), F(1)}

    def test_dist_sq_exact(self):
        p = Polyhedron(2, [([1, 0], 0), ([0, 1], 0)])
        assert p.dist_sq([2, 3]) == 0
        assert p.dist_sq([-3, 4]) == 9
        assert p.dist_sq([-1, -1]) == 2
        # Distance to a tilted halfplane: projection is rational, square exact.
        h = Polyhedron(2, [([1, 2], 5)])
        assert h.dist_sq([0, 0]) == Fraction(25, 5)

    def test_dist_sq_empty(self):
        assert Polyhedron.empty(2).dist_sq([0, 0]) == POS_INF

    def test_containment(self):
        inner = Polyhedron(2, [([1, 0], 1), ([0, 1], 1)])
        outer = Polyhedron(2, [([1, 0], 0), ([0, 1], 0)])
        assert inner.contained_in(outer)
        assert not outer.contained_in(inner)

    def test_strict_point(self):
        def strict_point(dim, rows, strict):
            return Region(Polyhedron(dim, rows), tuple(strict)).point()

        rows = [([1, 0], 0), ([0, 1], 0), ([-1, -1], -1)]
        w = strict_point(2, rows, [True, True, False])
        assert w is not None and 0 < min(w) and sum(w) <= 1
        # The triangle's rows all strict, then one edge of it made strict
        # from the outside: a point of the open triangle, then none.
        assert strict_point(2, rows, [True] * 3) is not None
        assert strict_point(2, rows + [([1, 1], 1)], [False] * 3 + [True]) is None
        assert strict_point(2, rows + [([1, 1], 1)], [False] * 4) is not None
        # A zero row holds strictly only with a negative offset.
        assert strict_point(1, [([0], 0)], [True]) is None
        assert strict_point(1, [([0], -1)], [True]) == (0,)

    def test_translate_scale(self):
        p = Polyhedron(2, [([1, 0], 0), ([0, 1], 0)])
        t = p.translate([1, -1])
        assert t.contains([1, -1]) and not t.contains([0, 0])
        s = t.scale(2)
        assert s.contains([2, -2]) and not s.contains([1, -1])

    def test_affine_dim(self):
        line = Polyhedron(2, [([1, 0], 1), ([-1, 0], -1)])
        assert line.affine_dim == 1
        assert Polyhedron.full(2).affine_dim == 2
        assert Polyhedron.empty(2).affine_dim == -1

    def test_interior_point(self):
        p = Polyhedron(2, [([1, 0], 0), ([0, 1], 0), ([-1, -1], -4)])
        ip = p.interior_point()
        assert ip is not None
        assert all(dot(n, ip) > b for n, b in p.rows)
        line = Polyhedron(2, [([1, 0], 1), ([-1, 0], -1)])
        assert line.interior_point() is None


def fourier_motzkin(rows, eliminate):
    """Eliminate one variable from ``{v : n.v >= b}`` by Fourier-Motzkin.

    Input rows are (normal, offset) over d variables; output rows are over
    d-1 variables (the eliminated coordinate removed).  Exact; output is
    deduplicated but not fully irredundant.
    """
    pos, neg, zero = [], [], []
    for n, b in rows:
        c = n[eliminate]
        if c > 0:
            pos.append((n, b))
        elif c < 0:
            neg.append((n, b))
        else:
            zero.append((n, b))

    def drop(n):
        return n[:eliminate] + n[eliminate + 1 :]

    out = [(drop(n), b) for n, b in zero]
    for np_, bp in pos:
        cp = np_[eliminate]
        for nn, bn in neg:
            cn = -nn[eliminate]
            comb_n = tuple(cn * a + cp * c for a, c in zip(np_, nn))
            out.append((drop(comb_n), cn * bp + cp * bn))
    seen, dedup = set(), []
    for n, b in out:
        # Normalize scale so duplicates collapse.
        m = max((abs(x) for x in n), default=F(0))
        if m == 0:
            if b > 0:
                # 0 >= b with b > 0: the projection is empty.
                return [(zeros(len(n)), F(1))]
            continue
        key = (tuple(x / m for x in n), b / m)
        if key not in seen:
            seen.add(key)
            dedup.append(key)
    return dedup


def fm_project_out(p, coords):
    """``project_out`` by Fourier-Motzkin, one coordinate at a time."""
    rows, dim = list(p.rows), p.dim
    for c in sorted(coords, reverse=True):
        rows = fourier_motzkin(rows, c)
        dim -= 1
    return Polyhedron(dim, rows)


class TestProjection:
    def test_eliminate_variable(self):
        # {(x, z): z >= x, z >= -x, z <= 5} projected to x gives [-5, 5].
        rows = [
            (vec([-1, 1]), F(0)),
            (vec([1, 1]), F(0)),
            (vec([0, -1]), F(-5)),
        ]
        for p in (project_out(Polyhedron(2, rows), [1]), Polyhedron(1, fourier_motzkin(rows, 1))):
            assert p.contains([5]) and p.contains([-5])
            assert not p.contains([F("51/10")])

    def test_project_out_infeasible(self):
        rows = [
            (vec([0, 1]), F(1)),
            (vec([0, -1]), F(0)),
        ]
        p = project_out(Polyhedron(2, rows), [1])
        assert p.is_empty

    def test_projection_matches_lp_image(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = []
            for _ in range(rng.randint(2, 5)):
                n = vec([rng.randint(-3, 3), rng.randint(-3, 3)])
                rows.append((n, F(rng.randint(-4, 1))))
            poly = Polyhedron(2, rows)
            proj = project_out(poly, [1])
            for x in range(-6, 7):
                section = poly.intersect(
                    Polyhedron(2, [([1, 0], x), ([-1, 0], -x)])
                )
                assert proj.contains([x]) == (not section.is_empty)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_fourier_motzkin(self, seed):
        # The V-form projection and the eliminated rows give the same set,
        # in dimensions 2-5 with 1-3 coordinates eliminated.
        rng = random.Random(300 + seed)
        seen = {"empty": 0, "unbounded": 0, "lineality": 0, "rows dropped": 0}
        for _ in range(150):
            dim = rng.randint(2, 5)
            p = Polyhedron(dim, random_rows(rng, dim, den=1 + seed))
            coords = rng.sample(range(dim), rng.randint(1, min(3, dim - 1)))
            got, want = project_out(p, coords), fm_project_out(p, coords)
            assert got.dim == want.dim == dim - len(coords)
            assert got.contained_in(want) and want.contained_in(got), (p.rows, coords)
            seen["empty"] += got.is_empty
            seen["unbounded"] += bool(recession_rays(got))
            seen["lineality"] += bool(got.vform.lin)
            seen["rows dropped"] += len(got.rows) < len(want.rows)
        assert min(seen.values()) >= 10, seen


class TestDualPair:
    def test_validation(self):
        require_dual_direction(ORTHANT_2D, DualPair.of([1], [-1, -1]).zstar)
        with pytest.raises(ValueError):
            require_dual_direction(ORTHANT_2D, DualPair.of([1], [0, 0]).zstar)
        with pytest.raises(ValueError):
            require_dual_direction(ORTHANT_2D, DualPair.of([1], [1, 0]).zstar)


# -- reference oracles: the subset enumeration and the LPs the V-form replaced --


def enumerated_minimal_face_points(p):
    """Solutions of every full-rank subset of rank(N) rows, in
    ``itertools.combinations`` order, kept when they lie in P and are new;
    for a nonempty P."""
    normals = [n for n, _ in p.rows]
    target = matrix_rank(normals) if normals else 0
    if target == 0:
        return [zeros(p.dim)]
    found, seen = [], set()
    for subset in itertools.combinations(range(len(p.rows)), target):
        sub_n = [p.rows[i][0] for i in subset]
        sub_b = [p.rows[i][1] for i in subset]
        if matrix_rank(sub_n) != target:
            continue
        sol, _ = solve_affine(sub_n, sub_b)
        if sol is None or sol in seen:
            continue
        if p.contains(sol):
            seen.add(sol)
            found.append(sol)
    return found


def lp_support(p, d):
    res = solve_lp(d, list(p.rows), sense="max")
    if res.status is LPStatus.INFEASIBLE:
        return NEG_INF
    if res.status is LPStatus.UNBOUNDED:
        return POS_INF
    return res.value


def lp_contained_in(p, q):
    """min n.z over a nonempty p is >= b for every row (n, b) of q."""
    for n, b in q.rows:
        res = solve_lp(n, list(p.rows), sense="min")
        if res.status is LPStatus.UNBOUNDED or res.value < b:
            return False
    return True


def rational(rng, lo, hi, den):
    """An integer in [lo, hi] over a denominator drawn from 1..den; with
    den = 1 it draws the integer alone, as the integer seeds always did."""
    x = rng.randint(lo, hi)
    return Fraction(x, rng.randint(1, den)) if den > 1 else F(x)


def random_vec(rng, dim, lo, hi, den=1):
    return tuple(rational(rng, lo, hi, den) for _ in range(dim))


def random_rows(rng, dim, den=1):
    """Rows with duplicates, opposite-row equalities and zero rows mixed in;
    small entries, so empty, unbounded and lineality cases are common."""
    rows = []
    for _ in range(rng.randint(0, dim + 2)):
        n = random_vec(rng, dim, -2, 2, den)
        b = rational(rng, -3, 2, den)
        rows.append((n, b))
        kind = rng.random()
        if kind < 0.15:
            rows.append((tuple(-x for x in n), -b))
        elif kind < 0.25:
            rows.append((n, b))
        elif kind < 0.3:
            rows.append((zeros(dim), rational(rng, -1, 1, den)))
    rng.shuffle(rows)
    return rows


def fraction_contains(p, z):
    return all(dot(n, z) >= b for n, b in p.rows)


class TestVFormOracle:
    """The V-form answers exactly as the enumeration and the LPs did."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_enumeration_and_lps(self, seed):
        self.check(random.Random(seed), den=1)

    @pytest.mark.parametrize("seed", range(4, 6))
    def test_rational_inputs(self, seed):
        # Rows, directions and offsets over denominators 1-4 exercise the
        # per-row and per-direction scaling to integers.
        self.check(random.Random(seed), den=4)

    @staticmethod
    def check(rng, den):
        seen = {"empty": 0, "unbounded": 0, "lineality": 0, "contained": 0, "not contained": 0}
        for k in range(500):
            dim = rng.randint(1, 5)
            p = Polyhedron(dim, random_rows(rng, dim, den))
            for _ in range(2):
                d = random_vec(rng, dim, -2, 2, den)
                s = lp_support(p, d)
                assert p.support(d) == s, (p.rows, d)
                assert p.contains(d) == fraction_contains(p, d), (p.rows, d)
                seen["unbounded"] += s == POS_INF
            empty = s == NEG_INF
            assert p.is_empty == empty
            expected = [] if empty else enumerated_minimal_face_points(p)
            assert p.minimal_face_points == expected
            # Every other q relaxes p (a subset of its rows with lowered
            # offsets, so it contains p); the rest are random.
            if k % 2:
                q = Polyhedron(dim, random_rows(rng, dim, den))
            else:
                kept = [(n, b - rng.randint(0, 2)) for n, b in p.rows if rng.random() < 0.6]
                q = Polyhedron(dim, kept)
            contained = p.contained_in(q)
            assert contained == (empty or lp_contained_in(p, q)), (p.rows, q.rows)
            seen["contained" if contained else "not contained"] += 1
            seen["empty"] += p.is_empty
            seen["lineality"] += bool(p.vform.lin)
        assert min(seen.values()) >= 40, seen


def lp_margin(p):
    """The largest l1-weighted margin s on P's rows over the box |z_i| <= 10^6,
    by the LP; None unless it is positive and attained."""
    rows = []
    for n, b in p.rows:
        w = sum(abs(c) for c in n)
        if w == 0:
            if b > 0:
                return None
            continue
        rows.append((n + (-w,), b))
    for i in range(p.dim):
        for sign in (1, -1):
            e = [F(0)] * (p.dim + 1)
            e[i] = F(sign)
            rows.append((tuple(e), F(-(10**6))))
    res = solve_lp((F(0),) * p.dim + (F(1),), rows, sense="max")
    if res.status is not LPStatus.OPTIMAL or res.value <= 0:
        return None
    return res.value


def support_rank_affine_dim(p):
    """dim less the rank of the rows tight on all of P (support n = b); -1
    for the empty set."""
    if p.is_empty:
        return -1
    implicit = [n for n, b in p.rows if p.support(n) == b]
    return p.dim - (matrix_rank(implicit) if implicit else 0)


class TestPointReadersOracle:
    """Points read off the V-form answer as the LPs did: ``lowest_point``,
    the feasible point ``lowest_point(0)``, ``interior_point`` and a point
    of p strictly outside a row of q (``Region.point``); and ``affine_dim``
    as the support-per-row rank."""

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_lps(self, seed):
        rng = random.Random(200 + seed)
        seen = {"empty": 0, "unbounded": 0, "lineality": 0, "lower-dimensional": 0,
                "interior": 0, "not contained": 0}
        for k in range(250):
            dim = rng.randint(1, 4)
            p = Polyhedron(dim, random_rows(rng, dim, den=4))
            feasible = solve_lp(zeros(dim), list(p.rows))
            low = p.lowest_point(zeros(dim))
            assert (low is None) == (feasible.status is LPStatus.INFEASIBLE), p.rows
            assert low is None or p.contains(low)
            d = random_vec(rng, dim, -2, 2, den=4)
            res = solve_lp(d, list(p.rows), sense="min")
            low = p.lowest_point(d)
            if res.status is LPStatus.OPTIMAL:
                assert p.contains(low) and dot(d, low) == res.value, (p.rows, d)
            else:
                assert low is None, (p.rows, d)
                seen["unbounded"] += res.status is LPStatus.UNBOUNDED
            margin = lp_margin(p)
            ip = p.interior_point()
            assert (ip is None) == (margin is None), p.rows
            if ip is not None:
                weighted = [(n, b, sum(abs(c) for c in n)) for n, b in p.rows if any(n)]
                assert min((dot(n, ip) - b) / w for n, b, w in weighted) == margin, p.rows
                seen["interior"] += 1
            if k % 2:
                q = Polyhedron(dim, random_rows(rng, dim, den=4))
            else:
                kept = [(n, b - rng.randint(0, 2)) for n, b in p.rows if rng.random() < 0.6]
                q = Polyhedron(dim, kept)
            contained = feasible.status is LPStatus.INFEASIBLE or lp_contained_in(p, q)
            assert p.contained_in(q) == contained
            cuts = (Region(Polyhedron(dim, [(tuple(-x for x in n), -b)]), (True,)) for n, b in q.rows)
            witness = next(filter(None, (Region.closed(p).intersect(cut).point() for cut in cuts)), None)
            assert (witness is None) == contained, (p.rows, q.rows)
            if witness is not None:
                assert p.contains(witness) and not q.contains(witness)
                seen["not contained"] += 1
            assert p.affine_dim == support_rank_affine_dim(p), p.rows
            seen["empty"] += p.is_empty
            seen["lineality"] += bool(p.vform.lin)
            seen["lower-dimensional"] += 0 <= p.affine_dim < dim
        assert min(seen.values()) >= 25, seen


def enumerated_cone_rays(normals, dim):
    """Lineality pairs, then every ray spanning the nullspace of dim - 1 rows
    that satisfies all rows, in ``itertools.combinations`` order of the row
    subsets; the rows are the nonzero normals plus +- a lineality basis."""
    rows = [n for n in normals if not is_zero(n)]
    lin = nullspace(rows, dim)
    work = list(rows)
    for l in lin:
        work += [l, tuple(-x for x in l)]
    rays, seen = [], set()
    for subset in itertools.combinations(work, dim - 1):
        ns = nullspace(list(subset), dim)
        if len(ns) != 1:
            continue
        for cand in (ns[0], tuple(-x for x in ns[0])):
            canon = scale_to_canonical(cand)
            if canon not in seen and all(dot(n, cand) >= 0 for n in work):
                seen.add(canon)
                rays.append(canon)
    return [scale_to_canonical(c) for l in lin for c in (l, tuple(-x for x in l))] + rays


class TestConeRaysOracle:
    """The double-description rays equal the subset enumeration's, in order."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_subset_enumeration(self, seed):
        rng = random.Random(100 + seed)
        seen = {"lineality": 0, "zero cone": 0, "several rays": 0, "repeated rows": 0}
        for _ in range(500):
            dim = rng.randint(1, 4)
            normals = [n for n, _ in random_rows(rng, dim)]
            expected = enumerated_cone_rays(normals, dim)
            assert _cone_rays(normals, dim)[0] == expected, (normals, dim)
            lin = len(nullspace([n for n in normals if not is_zero(n)], dim))
            seen["lineality"] += lin > 0
            seen["zero cone"] += not expected
            seen["several rays"] += len(expected) - 2 * lin >= 2
            seen["repeated rows"] += len(set(map(scale_to_canonical, normals))) < len(normals)
        assert min(seen.values()) >= 40, seen


class TestEliminationOracle:
    """The integer elimination's rank, kernel basis and face point equal the
    Fraction Gauss-Jordan oracle's, exactly and in the same order."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_gauss_jordan(self, seed):
        rng = random.Random(300 + seed)
        seen = {"zero row": 0, "repeated row": 0, "dependent": 0, "inconsistent": 0}
        for _ in range(300):
            dim = rng.randint(1, 5)
            rows = []
            for _ in range(rng.randint(0, 6)):
                kind = rng.random()
                if rows and kind < 0.15:
                    rows.append(rng.choice(rows))
                elif len(rows) >= 2 and kind < 0.35:
                    # A combination of two rows, its offset moved off it at times.
                    (n1, b1), (n2, b2) = rng.sample(rows, 2)
                    s, t = rational(rng, -2, 2, 3), rational(rng, -2, 2, 3)
                    n = vadd(vscale(s, n1), vscale(t, n2))
                    rows.append((n, s * b1 + t * b2 + rng.choice((0, 0, 1))))
                elif kind < 0.42:
                    rows.append((zeros(dim), rng.choice((F(0), F(1)))))
                else:
                    rows.append((random_vec(rng, dim, -2, 2, 3), rational(rng, -3, 3, 3)))
            normals = [n for n, _ in rows]
            pivots = _row_reduce([list(n) for n in normals])[1]
            assert rank(normals) == len(pivots), rows
            kernel = _kernel([_integer_row(n) for n in normals], dim)
            assert [scale_to_canonical(vec(k)) for k in kernel] == [
                scale_to_canonical(k) for k in nullspace(normals, dim)
            ], rows
            expected = solve_affine(normals, [b for _, b in rows])[0] if rows else zeros(dim)
            assert _affine_point([_integer_row(n + (b,)) for n, b in rows], dim) == expected, rows
            seen["zero row"] += any(is_zero(n) for n in normals)
            seen["repeated row"] += len(set(rows)) < len(rows)
            seen["dependent"] += len(pivots) < len(rows)
            seen["inconsistent"] += expected is None
        assert min(seen.values()) >= 40, seen


def project_onto_affine(z, a, b):
    """Euclidean projection of z onto ``{x : A x = b}``, exactly; None when
    that set is empty.  Dependent rows are reduced away first."""
    if not a:
        return z
    n = len(z)
    rows, pivots = _row_reduce([list(ai) + [bi] for ai, bi in zip(a, b)])
    if n in pivots:
        return None
    indep = [tuple(r[:n]) for r in rows[: len(pivots)]]
    rhs = [r[n] for r in rows[: len(pivots)]]
    if not indep:
        return z
    gram = [tuple(dot(u, w) for w in indep) for u in indep]
    lam, _ = solve_affine(gram, [dot(u, z) - c for u, c in zip(indep, rhs)])
    correction = zeros(n)
    for x, u in zip(lam, indep):
        correction = vadd(correction, vscale(x, u))
    return vsub(z, correction)


def test_projection_onto_line():
    # Project (2, 0) onto {x + y = 0}: expect (1, -1).
    assert project_onto_affine(vec([2, 0]), [vec([1, 1])], [F(0)]) == (F(1), F(-1))


def test_projection_redundant_rows():
    p = project_onto_affine(vec([2, 0]), [vec([1, 1]), vec([2, 2])], [F(0), F(0)])
    assert p == (F(1), F(-1))


def test_projection_empty_affine_set():
    assert project_onto_affine(vec([0, 0]), [vec([1, 1]), vec([1, 1])], [F(0), F(1)]) is None


def enumerated_dist_sq(p, z):
    """The least squared distance from z to a projection onto the hyperplanes
    of at most dim rows that lies in P: the true projection is the affine
    projection onto its face's hull.  0 inside P, +inf for an empty P."""
    v = vec(z)
    if p.is_empty:
        return POS_INF
    if p.contains(v):
        return 0
    best = POS_INF
    for size in range(1, min(p.dim, len(p.rows)) + 1):
        for subset in itertools.combinations(p.rows, size):
            q = project_onto_affine(v, [n for n, _ in subset], [b for _, b in subset])
            if q is not None and p.contains(q):
                best = min(best, norm2_sq(vsub(v, q)))
    return best


class TestDistSqOracle:
    """The first certified active set gives the enumeration's distance."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_enumeration(self, seed):
        self.check(random.Random(200 + seed), den=1)

    @pytest.mark.parametrize("seed", range(4, 6))
    def test_rational_inputs(self, seed):
        self.check(random.Random(200 + seed), den=4)

    @staticmethod
    def check(rng, den):
        seen = {"empty": 0, "inside or boundary": 0, "lower-dimensional": 0,
                "lineality": 0, "zero row": 0, "duplicate rows": 0}
        for _ in range(250):
            dim = rng.randint(1, 4)
            # At most four rows keep the enumeration cheap.
            p = Polyhedron(dim, random_rows(rng, dim, den)[:4])
            faces = p.minimal_face_points
            points = [random_vec(rng, dim, -4, 4, den) for _ in range(2)]
            if faces and rng.random() < 0.4:
                points[1] = rng.choice(faces)
            for z in points:
                assert p.contains(z) == fraction_contains(p, z), (p.rows, z)
                d = p.dist_sq(z)
                assert d == enumerated_dist_sq(p, z), (p.rows, z)
                seen["inside or boundary"] += d == 0
            for kind, holds in (
                ("empty", p.is_empty),
                ("lower-dimensional", 0 <= p.affine_dim < dim),
                ("lineality", bool(p.vform.lin)),
                ("zero row", any(is_zero(n) for n, _ in p.rows)),
                ("duplicate rows", len(set(p.rows)) < len(p.rows)),
            ):
                seen[kind] += 2 * holds
        assert min(seen.values()) >= 40, seen

    def test_degenerate_apex(self):
        # A square pyramid: four facets meet at the apex 0, so its four
        # active rows are dependent.  No pair of them certifies (-1, 2, -7);
        # the independent triples {0, 1, 2} and {1, 2, 3} do.
        p = Polyhedron(3, [([-1, 0, 1], 0), ([1, 0, 1], 0), ([0, -1, 1], 0),
                           ([0, 1, 1], 0), ([0, 0, -1], -5)])
        assert p.dist_sq([-1, 2, -7]) == 54 == enumerated_dist_sq(p, [-1, 2, -7])


def reference_double_description(rows, dim):
    """The double-description pass as it stood before its inner loops were
    tightened; the shipped kernel must return the same ``VForm``, order
    included."""
    hom = [(0,) * dim + (1,)] + [r[:-1] + (-r[-1],) for r in rows]
    lin = [(0,) * i + (1,) + (0,) * (dim - i) for i in range(dim + 1)]
    rays, tight = [], []
    for i, a in enumerate(hom):
        bit = 1 << i
        k = next((j for j, l in enumerate(lin) if _idot(a, l)), None)
        if k is not None:
            r0 = lin.pop(k)
            v0 = _idot(a, r0)
            if v0 < 0:
                r0, v0 = tuple(-x for x in r0), -v0

            def shift(v):
                c = _idot(a, v)
                return _primitive([v0 * x - c * y for x, y in zip(v, r0)]) if c else v

            lin = [shift(l) for l in lin]
            rays = [shift(r) for r in rays] + [r0]
            tight = [m | bit for m in tight] + [bit - 1]
            continue
        vals = [_idot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            tight = [m | bit if v == 0 else m for m, v in zip(tight, vals)]
            continue
        need = dim - 1 - len(lin)
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_tight = [m | bit if v == 0 else m for m, v in zip(tight, vals) if v >= 0]
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q, vq in enumerate(vals):
                if vq >= 0:
                    continue
                common = tight[p] & tight[q]
                if common.bit_count() < need or any(
                    m & common == common for j, m in enumerate(tight) if j != p and j != q
                ):
                    continue
                new_rays.append(_primitive([vp * y - vq * x for x, y in zip(rays[p], rays[q])]))
                new_tight.append(common | bit)
        rays, tight = new_rays, new_tight
        if all(r[-1] == 0 for r in rays):
            return VForm([], [], [])
    return VForm(rays, tight, lin)


def fresh_int_rows(p):
    return [_integer_row(n + (b,)) for n, b in p.rows]


def random_derived(rng, dim):
    """A seeded Minkowski sum, projection or intersection in ``dim``."""
    p = Polyhedron(dim, random_rows(rng, dim, den=3))
    q = Polyhedron(dim, random_rows(rng, dim, den=3))
    kind = rng.choice(["sum", "projection", "intersection"])
    if kind == "sum":
        return kind, p + q
    if kind == "intersection":
        return kind, p.intersect(q)
    lifted = Polyhedron(dim + 1, random_rows(rng, dim + 1, den=3))
    return kind, project_out(lifted, [rng.randrange(dim + 1)])


class TestInheritedIntegerRows:
    """A derived polyhedron's seeded integer rows are the ones its Fraction
    rows give."""

    @pytest.mark.parametrize("seed", range(2))
    def test_equal_to_fresh_rows(self, seed):
        rng = random.Random(400 + seed)
        seen = {"sum": 0, "projection": 0, "intersection": 0, "empty": 0, "lineality": 0}
        for _ in range(150):
            kind, p = random_derived(rng, rng.randint(1, 4))
            # ``_hull`` returns ``Polyhedron.empty`` without a pass.
            assert "_int_rows" in p.__dict__ or p == Polyhedron.empty(p.dim), kind
            assert p._int_rows == fresh_int_rows(p), (kind, p.rows)
            seen[kind] += 1
            seen["empty"] += p.is_empty
            seen["lineality"] += bool(p.vform.lin)
        assert min(seen.values()) >= 10, seen


class TestKernelOracle:
    """The shipped double-description kernel returns the reference pass's
    ``VForm``, order included."""

    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_row_sets(self, seed):
        rng = random.Random(500 + seed)
        seen = {"empty": 0, "lineality": 0, "lower-dimensional": 0, "duplicate rows": 0}
        for _ in range(400):
            dim = rng.randint(1, 5)
            raw = random_rows(rng, dim, den=3)
            rows = [_integer_row(n + (b,)) for n, b in raw]
            vf = _double_description(rows, dim)
            assert vf == reference_double_description(rows, dim), (rows, dim)
            p = Polyhedron(dim, raw)
            seen["empty"] += not vf.gens
            seen["lineality"] += bool(vf.gens and vf.lin)
            seen["lower-dimensional"] += 0 <= p.affine_dim < dim
            seen["duplicate rows"] += len(set(raw)) < len(raw)
        assert min(seen.values()) >= 25, seen

    def test_every_pass_of_lattice_operations(self, monkeypatch):
        # Every pass that closures, sums, projections and their queries run
        # in m = 1-4, the V->H passes of ``_hull`` among them.
        checked = []

        def compared(rows, dim):
            got = _double_description(rows, dim)
            assert got == reference_double_description(rows, dim), (rows, dim)
            checked.append(dim)
            return got

        monkeypatch.setattr(geometry, "_double_description", compared)
        rng = random.Random(600)
        for _ in range(60):
            dim = rng.randint(1, 4)
            _, p = random_derived(rng, dim)
            cone = Cone.from_generators(
                [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
            )
            closed = upper_closure(p, cone).pieces
            if closed:
                closed[0].support(random_vec(rng, dim, -2, 0))
        assert len(checked) >= 200 and set(checked) == {1, 2, 3, 4, 5}


def test_cone_constructions_solve_no_lp(lp_calls):
    orthant = Cone.from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    wedge = Cone.from_halfspaces([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
    ray = Cone.from_halfspaces([[1, 0], [-1, 0], [0, 1]])
    flat = Cone.from_generators([[1, 0], [-1, 0], [1, 1]])
    duals = [dual_cone(c) for c in (orthant, wedge, ray, flat)]
    assert lp_calls == []
    assert [c.has_interior for c in (orthant, wedge, ray, flat)] == [True, True, False, True]
    assert [c.has_interior for c in duals] == [True, True, True, False]
    assert [c.pointed for c in (orthant, wedge, ray, flat)] == [True, True, True, False]


def test_lattice_operations_solve_no_lp(lp_calls):
    # A box around a centre cut by three halfspaces, twice, under the orthant
    # in m = 3: the shape of the lattice benchmark's pairs.
    cone = Cone.from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    box = [([1, 0, 0], -2), ([-1, 0, 0], -2), ([0, 1, 0], -1), ([0, -1, 0], -3),
           ([0, 0, 1], -3), ([0, 0, -1], -1)]
    p = Polyhedron(3, box + [([1, 1, 0], -1), ([0, -1, 2], -2), ([-2, 1, 1], -3)])
    q = Polyhedron(3, box + [([-1, 0, 1], -1), ([2, 2, -1], -4), ([1, -2, 0], -2)]).translate(
        [1, -2, 1]
    )
    lp_calls.clear()
    a, b = upper_closure(p, cone), upper_closure(q, cone)
    total = minkowski_sum(a, b)
    directions = [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [-1, -1, -1], [-2, -1, 0],
                  [0, -3, -1], [-1, 0, -2]]
    supports = [(a.support(u), b.support(u), total.support(u)) for u in directions]
    assert lp_calls == []
    # sigma_P and sigma_Q from their vertices, and their sum.
    half = Fraction(1, 2)
    assert supports == [(2, 1, 3), (1, 3, 4), (3 * half, 2, 7 * half), (5 * half, 6, 17 * half),
                        (3, 5, 8), (9 * half, 11, 31 * half), (3, 5, 8)]


def boxed_random(rng, dim):
    """Seeded rows, cut by a box half the time so that pointed polyhedra
    are common too, and by the hyperplane z1 = 1 a third of the time."""
    rows = random_rows(rng, dim, den=3)
    if rng.random() < 0.5:
        rows += Polyhedron.box([(-2, 2)] * dim).rows
    if rng.random() < 1 / 3:
        e = (1,) + (0,) * (dim - 1)
        rows += [(e, 1), (vscale(-1, e), -1)]
    return Polyhedron(dim, rows)


class TestHullHandsOverItsVForm:
    """``_hull`` hands over the V-form of a pointed, full-dimensional output,
    equal to the one a fresh pass on its rows gives, and leaves the others
    to their own pass."""

    @pytest.mark.parametrize("seed", range(2))
    def test_equal_to_a_fresh_pass(self, seed):
        rng = random.Random(700 + seed)
        seen = {"handed over": 0, "lineality": 0, "lower-dimensional": 0, "sum": 0, "projection": 0}
        for _ in range(300):
            dim = rng.randint(1, 4)
            if rng.random() < 0.5:
                kind = "sum"
                p = boxed_random(rng, dim) + boxed_random(rng, dim)
            else:
                kind = "projection"
                p = project_out(boxed_random(rng, dim + 1), [rng.randrange(dim + 1)])
            handed = p.__dict__.get("vform")
            if p == Polyhedron.empty(dim):
                continue
            fresh = _double_description(p._int_rows, dim)
            # A handed-over V-form lists its generators in input order.
            if handed is not None:
                assert set(zip(handed.gens, handed.tight)) == set(zip(fresh.gens, fresh.tight)), p.rows
                assert len(handed.gens) == len(fresh.gens) and handed.lin == fresh.lin
                seen["handed over"] += 1
                seen[kind] += 1
            else:
                # Only lineality, on either side of the pass, keeps it back.
                assert fresh.lin or p.affine_dim < dim, p.rows
                seen["lineality" if fresh.lin else "lower-dimensional"] += 1
        assert min(seen.values()) >= 25, seen


# {z1 + z2 + z3 >= 1, z1 <= 4, z2 <= 2, z3 <= 3}, with vertices (4, 2, -5),
# (-4, 2, 3) and (4, -6, 3).
CUT_SIMPLEX = [((1, 1, 1), 1), ((-1, 0, 0), -4), ((0, -1, 0), -2), ((0, 0, -1), -3)]


class TestHullPassCounts:
    """A polyhedron that ``_hull`` returns reads its V-form without a second
    pass; cones are built here, so no earlier test has warmed them."""

    def test_closure_and_one_support_read(self, dd_passes):
        cone = Cone.from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        a = upper_closure(Polyhedron.box([(0, 1), (1, 3), (-1, 2)]), cone)
        assert a.support((-1, -1, -2)) == 1
        # The cone's generators and polyhedron, the box, then the hull.
        assert [caller for caller, _, _ in dd_passes] == ["_cone_rays", "vform", "vform", "_hull"]
        dd_passes.clear()
        b = upper_closure(Polyhedron(3, CUT_SIMPLEX), cone)
        assert b.support((-1, 0, 0)) == 4
        assert [caller for caller, _, _ in dd_passes] == ["vform", "_hull"]

    def test_sum_of_two_closures_and_one_support_read(self, dd_passes):
        cone = Cone.from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        a = upper_closure(Polyhedron.box([(0, 1), (1, 3), (-1, 2)]), cone)
        b = upper_closure(Polyhedron(3, CUT_SIMPLEX), cone)
        dd_passes.clear()
        assert minkowski_sum(a, b).support((-2, -1, -1)) == 3
        assert [caller for caller, _, _ in dd_passes] == ["_hull"]

    def test_projection_emptiness_and_one_support_read(self, dd_passes):
        lifted = Polyhedron(3, [((1, 0, 0), 0), ((0, 1, -1), -1), ((-1, -1, -1), -5), ((0, 0, 1), -2)])
        q = project_out(lifted, [2])
        # {z1 >= 0, z2 >= -3, z1 + z2 <= 7}
        assert not q.is_empty and q.support((1, 1)) == 7
        assert [caller for caller, _, _ in dd_passes] == ["vform", "_hull"]


def support_contained_in(p, q):
    """p <= q read off p's support on every row of q, as before rows were
    matched."""
    return p.is_empty or all(-p.support(tuple(-x for x in n)) >= b for n, b in q.rows)


class TestContainmentSkipsHeldRows:
    """``contained_in`` answers as the all-rows support test does, and reads
    no support for a row that self carries."""

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_the_support_test(self, seed, monkeypatch):
        rng = random.Random(800 + seed)
        reads = []
        real = Polyhedron.support

        def counting(self, direction):
            reads.append(direction)
            return real(self, direction)

        seen = {"intersection": 0, "identical": 0, "scaled": 0, "translated": 0, "unrelated": 0,
                "contained": 0, "not contained": 0}
        for _ in range(150):
            dim = rng.randint(1, 4)
            a = Polyhedron(dim, random_rows(rng, dim, den=3))
            b = Polyhedron(dim, random_rows(rng, dim, den=3))
            doubled = Polyhedron(dim, [(vscale(2, n), 2 * c) for n, c in a.rows])
            pairs = [
                ("intersection", a.intersect(b), a),
                ("intersection", a.intersect(b), b),
                ("identical", a, a),
                ("scaled", a, doubled),
                ("scaled", doubled, a),
                # The same normals with other offsets share no row.
                ("translated", a, a.translate(random_vec(rng, dim, -1, 1, den=2))),
                ("translated", a.translate(random_vec(rng, dim, -1, 1, den=2)), a),
                ("unrelated", a, b),
            ]
            for kind, p, q in pairs:
                expected = support_contained_in(p, q)
                monkeypatch.setattr(Polyhedron, "support", counting)
                reads.clear()
                got = p.contained_in(q)
                monkeypatch.setattr(Polyhedron, "support", real)
                assert got == expected, (kind, p.rows, q.rows)
                if kind == "identical" or (kind == "intersection" and q is a):
                    assert reads == [], kind
                seen[kind] += 1
                seen["contained" if got else "not contained"] += 1
        assert min(seen.values()) >= 150, seen


def _orthant(m):
    return Cone.from_generators([[int(i == j) for j in range(m)] for i in range(m)])


class TestHashedDirectionSupport:
    """A ``HashedVec`` direction reads the support that its plain tuple
    reads, from ``Polyhedron.support`` and ``UpperSet.support``, and its
    integer form is computed on its first read only."""

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_the_plain_tuple(self, seed, monkeypatch):
        rng = random.Random(900 + seed)
        real = geometry._scaled
        seen = {"-inf": 0, "+inf": 0, "finite": 0, "lineality": 0, "pointed": 0, "union": 0}
        for m in (1, 2, 3):
            polys = [Polyhedron(m, random_rows(rng, m, den=3)) for _ in range(40)]
            # The V-form pass scales the rows; run it before counting.
            for p in polys:
                if not p.is_empty:
                    seen["lineality" if p.vform.lin else "pointed"] += 1
            values = [UpperSet(_orthant(m), pieces=polys[i : i + 1 + i % 3]) for i in range(0, 40, 4)]
            seen["union"] += sum(len(v.pieces) > 1 for v in values)
            directions = [random_vec(rng, m, -3, 3, den=4) for _ in range(12)]
            plain = [
                ([p.support(d) for p in polys], [v.support(d) for v in values]) for d in directions
            ]
            hashed = [HashedVec(d) for d in directions]
            scaled = []
            monkeypatch.setattr(geometry, "_scaled", lambda a: scaled.append(a) or real(a))
            for _ in range(2):
                for h, want in zip(hashed, plain):
                    assert ([p.support(h) for p in polys], [v.support(h) for v in values]) == want
            monkeypatch.setattr(geometry, "_scaled", real)
            # Each direction is scaled at its first read, then read off its form.
            assert len(scaled) == len(hashed), m
            for got, _ in plain:
                for s in got:
                    seen["finite" if type(s) is Fraction else "+inf" if s > 0 else "-inf"] += 1
        assert min(seen.values()) >= 10, seen

    def test_a_wrong_dimension_still_raises(self):
        d = HashedVec((F(-1), F(-2)))
        pointed = Polyhedron(2, [((1, 0), 0), ((0, 1), 1)])
        assert pointed.support(d) == -2 and "_support_form" in d.__dict__
        for p in (Polyhedron.full(3), Polyhedron.empty(3), Polyhedron.full(1)):
            with pytest.raises(DimensionMismatch):
                p.support(d)
        with pytest.raises(DimensionMismatch):
            UpperSet(_orthant(3), pieces=[Polyhedron.full(3)]).support(d)
        with pytest.raises(DimensionMismatch):
            pointed.support(HashedVec((F(1), F(0), F(0))))
        assert pointed.support(d) == -2


class TestConePassHandOver:
    """A pointed cone built from rows -- by ``from_halfspaces``, or a dual
    cone -- keeps its construction pass as its polyhedron's V-form: the pass
    ran on the same integer rows."""

    def test_wedge_runs_one_pass(self, dd_passes):
        wedge = Cone.from_halfspaces([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        assert wedge.pointed and wedge.contains((1, 1, 2)) and not wedge.contains((0, 0, 1))
        assert [caller for caller, _, _ in dd_passes] == ["_cone_rays"]
        assert wedge.generators == ((0, 0, -1), (0, 1, 1), (1, 0, 1))
        assert wedge.halfspaces == ((1, 0, 0), (0, 1, 0), (1, 1, -1))

    def test_wedge_interior_runs_one_pass(self, dd_passes):
        # The dual's pass on the rows -g also serves as its polyhedron's.
        wedge = Cone.from_halfspaces([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        dd_passes.clear()
        assert wedge.has_interior
        assert [caller for caller, _, _ in dd_passes] == ["_cone_rays"]
        assert dual_cone(wedge).generators == ((-1, 0, 0), (0, -1, 0), (-1, -1, 1))

    @pytest.mark.parametrize("seed", range(2))
    def test_equal_to_a_fresh_pass(self, seed):
        # Cones from both constructors and their duals; a cone from
        # generators builds its own polyhedron when it is first read.
        rng = random.Random(1300 + seed)
        seen = {"pointed": 0, "lineality": 0, "from generators": 0}
        for _ in range(200):
            dim = rng.randint(1, 4)
            normals = [n for n, _ in random_rows(rng, dim)]
            cases = []
            for from_rows in (True, False) if normals else (True,):
                try:
                    cone = Cone.from_halfspaces(normals, dim) if from_rows else Cone.from_generators(normals)
                except OrderConeError:
                    continue
                cases += [(cone, from_rows), (dual_cone(cone), True)]
            for cone, from_rows in cases:
                handed = "polyhedron" in cone.__dict__
                fresh = Polyhedron(dim, [(n, 0) for n in cone.halfspaces])
                assert handed == (from_rows and not fresh.vform.lin)
                assert cone.pointed == (not fresh.vform.lin)
                assert cone.polyhedron.vform == fresh.vform and cone.polyhedron._int_rows == fresh._int_rows
                seen["from generators" if not from_rows else "pointed" if handed else "lineality"] += 1
        assert min(seen.values()) >= 30, seen


def lp_nonempty(dim, rows, strict) -> bool:
    """Whether some z has n.z >= b on every row, > on the strict ones, by the
    LP: the largest margin s <= 1 on the strict rows is positive."""
    lifted = [(tuple(n) + (F(-1) if st else F(0),), b) for (n, b), st in zip(rows, strict)]
    lifted.append(((F(0),) * dim + (F(-1),), F(-1)))
    res = solve_lp((F(0),) * dim + (F(1),), lifted, sense="max")
    return res.status is LPStatus.OPTIMAL and res.value > 0


def in_rows(rows, strict, z) -> bool:
    """The row-by-row definition of a region."""
    return all(dot(n, z) > b if st else dot(n, z) >= b for (n, b), st in zip(rows, strict))


class TestRegion:
    """``Region`` against its row-by-row definition on seeded regions in
    dimensions 1 to 3."""

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_its_rows(self, seed):
        rng = random.Random(1400 + seed)
        halves = [Fraction(k, 2) for k in range(-4, 5)]
        seen = {"empty": 0, "empty by strictness": 0, "nonempty": 0, "on a strict boundary": 0}
        for _ in range(100):
            dim = rng.randint(1, 3)
            regions = []
            for _ in range(2):
                rows = random_rows(rng, dim, den=2)
                strict = tuple(rng.random() < 0.5 for _ in rows)
                regions.append((rows, strict, Region(Polyhedron(dim, rows), strict)))
            (rows, strict, region), (rows2, strict2, other) = regions
            both = region.intersect(other)
            assert both.closure.rows == region.closure.rows + other.closure.rows
            assert both.strict == strict + strict2
            for rows, strict, region in [*regions, (rows + rows2, strict + strict2, both)]:
                assert region.closure.rows == Polyhedron(dim, rows).rows
                w = region.point()
                assert (w is None) == region.is_empty == (not lp_nonempty(dim, rows, strict)), rows
                assert w is None or in_rows(rows, strict, w)
                assert region.closure.is_empty == (not lp_nonempty(dim, rows, (False,) * len(rows)))
                for z in itertools.product(halves if dim < 3 else halves[::2], repeat=dim):
                    assert region.contains(z) == in_rows(rows, strict, z)
                    assert region.closure.contains(z) == in_rows(rows, (False,) * len(rows), z)
                    seen["on a strict boundary"] += region.closure.contains(z) and not region.contains(z)
                seen["empty" if region.is_empty else "nonempty"] += 1
                seen["empty by strictness"] += region.is_empty and not region.closure.is_empty
        assert min(seen.values()) >= 20, seen

    def test_empty_only_through_strictness(self):
        region = Region(Polyhedron(1, [((1,), 0), ((-1,), 0)]), (False, True))
        assert region.is_empty and region.point() is None and not region.contains((0,))
        assert not region.closure.is_empty and region.closure.contains((0,))
        closed = Region.closed(region.closure)
        assert closed.strict == (False, False) and closed.point() == (0,)
