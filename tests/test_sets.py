"""Lattice of upper closed sets: closure, order, inf/sup, Minkowski algebra."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upperset.geometry import Cone, Polyhedron
from upperset.linalg import NEG_INF, POS_INF
from upperset.sets import (
    CallableOracle,
    UpperSet,
    check_upper_closed,
    directed_hausdorff_sq,
    embed_point,
    hausdorff_sq_window,
    lattice_inf,
    lattice_sup,
    member,
    minkowski_sum,
    scale,
    set_order_leq,
    sets_equal,
    upper_closure,
)

ORTHANT = Cone.from_generators([[1, 0], [0, 1]])
RAY = Cone.from_halfspaces([[1, 0], [-1, 0], [0, 1]])


def F(x):
    return Fraction(x)


def translate_of_cone(p, cone=ORTHANT):
    return embed_point(p, cone)


class TestUpperClosure:
    def test_point_gives_cone(self):
        u = upper_closure(Polyhedron.from_point([0, 0]), ORTHANT)
        assert member(u, [0, 0]) and member(u, [3, 5]) and not member(u, [-1, 0])

    def test_translate(self):
        u = upper_closure(Polyhedron.from_point([1, -1]), ORTHANT)
        assert member(u, [1, -1]) and member(u, [2, 0])
        assert not member(u, [0, -1]) and not member(u, [1, -2])

    def test_segment_under_ray_cone(self):
        # Brute-force oracle: z is in P + C iff z - c is in P for some cone
        # sample c; for this cone, c = (0, t) with t >= 0.
        seg = Polyhedron(2, [([1, 0], 0), ([-1, 0], -1), ([0, 1], 0), ([0, -1], 0)])
        u = upper_closure(seg, RAY)
        grid = [F(k) / 2 for k in range(-4, 7)]
        for z1 in grid:
            for z2 in grid:
                expected = 0 <= z1 <= 1 and z2 >= 0
                assert member(u, [z1, z2]) == expected, (z1, z2)

    def test_idempotent(self):
        seg = Polyhedron(2, [([1, 0], 0), ([-1, 0], -1), ([0, 1], 0), ([0, -1], 0)])
        once = upper_closure(seg, RAY)
        twice = upper_closure(once.pieces[0], RAY)
        assert sets_equal(once, twice)

    def test_empty(self):
        assert upper_closure(Polyhedron.empty(2), ORTHANT).is_empty


class TestOrder:
    def test_translate_inside_cone(self):
        a = translate_of_cone([0, 0])
        b = translate_of_cone([1, 1])
        assert set_order_leq(a, b)
        assert not set_order_leq(b, a)

    def test_union_contains_member(self):
        a = translate_of_cone([0, 0])
        b = translate_of_cone([2, -1])
        u = lattice_inf([a, b])
        assert set_order_leq(u, a) and set_order_leq(u, b)

    def test_mixed_cone_rejected(self):
        with pytest.raises(ValueError):
            set_order_leq(translate_of_cone([0, 0]), embed_point([0, 0], RAY))

    def test_empty_is_greatest(self):
        a = translate_of_cone([0, 0])
        assert set_order_leq(a, UpperSet.empty(ORTHANT))
        assert not set_order_leq(UpperSet.empty(ORTHANT), a)

    def test_universal_is_least(self):
        a = translate_of_cone([5, 5])
        assert set_order_leq(UpperSet.universal(ORTHANT), a)


class TestLattice:
    def test_inf_singleton(self):
        a = translate_of_cone([1, 2])
        assert sets_equal(lattice_inf([a]), a)

    def test_inf_with_empty(self):
        a = translate_of_cone([1, 2])
        assert sets_equal(lattice_inf([UpperSet.empty(ORTHANT), a]), a)

    def test_inf_membership_grid(self):
        a = translate_of_cone([0, 0])
        b = translate_of_cone([2, -1])
        u = lattice_inf([a, b])
        assert member(u, [2, -1]) and member(u, [0, 0])
        assert not member(u, [-1, 0])

    def test_sup_singleton(self):
        a = translate_of_cone([1, 2])
        assert sets_equal(lattice_sup([a]), a)

    def test_sup_with_universal(self):
        a = translate_of_cone([1, 2])
        assert sets_equal(lattice_sup([UpperSet.universal(ORTHANT), a]), a)

    def test_sup_of_translates_is_componentwise_max(self):
        u = lattice_sup([translate_of_cone([0, 0]), translate_of_cone([2, -1])])
        # Oracle: membership brute force over a grid.
        for z1 in range(-3, 5):
            for z2 in range(-3, 5):
                expected = z1 >= 2 and z2 >= 0
                assert member(u, [z1, z2]) == expected

    def test_lattice_laws_random_translates(self):
        rng = random.Random(2024)
        for _ in range(15):
            pts = [
                (F(rng.randint(-6, 6)) / 2, F(rng.randint(-6, 6)) / 2)
                for _ in range(rng.randint(2, 4))
            ]
            family = [translate_of_cone(p) for p in pts]
            inf_set = lattice_inf(family)
            sup_set = lattice_sup(family)
            for a in family:
                assert set_order_leq(inf_set, a)
                assert set_order_leq(a, sup_set)
            # Any shared lower translate bound is below the infimum.
            low = (min(p[0] for p in pts), min(p[1] for p in pts))
            assert set_order_leq(translate_of_cone(low), inf_set)
            # The componentwise max is exactly the supremum.
            high = (max(p[0] for p in pts), max(p[1] for p in pts))
            assert sets_equal(translate_of_cone(high), sup_set)


class TestHausdorff:
    WINDOW = Polyhedron.box([(-4, 4)] * 2)

    def test_convex_operands(self):
        a = translate_of_cone([0, 0])
        b = translate_of_cone([2, -1])
        assert directed_hausdorff_sq(a, b, self.WINDOW) == 4
        assert directed_hausdorff_sq(b, a, self.WINDOW) == 1
        assert hausdorff_sq_window(a, b, self.WINDOW) == 4

    def test_union_target_rejected(self):
        # The distance to a union can peak inside a piece, so vertices alone
        # do not give the sup.
        a = translate_of_cone([0, 0])
        union = lattice_inf([translate_of_cone([2, 0]), translate_of_cone([0, 2])])
        assert len(union.pieces) == 2
        with pytest.raises(ValueError):
            directed_hausdorff_sq(a, union, self.WINDOW)
        with pytest.raises(ValueError):
            hausdorff_sq_window(union, a, self.WINDOW)
        assert directed_hausdorff_sq(union, a, self.WINDOW) == 0


class TestMember:
    def test_trivial(self):
        assert member(translate_of_cone([0, 0]), [0, 0])
        assert not member(UpperSet.empty(ORTHANT), [0, 0])

    def test_oracle_outer_semantics(self):
        # Oracle for the orthant itself: support 0 on C^-, +inf elsewhere.
        def sup_fn(u):
            if all(c <= 0 for c in u):
                return Fraction(0)
            return POS_INF

        a = UpperSet.from_oracle(ORTHANT, CallableOracle(sup_fn))
        assert member(a, [0, 0])
        assert not member(a, [0, Fraction(-1, 10)])


class TestMinkowskiScale:
    def test_translates_add(self):
        a = translate_of_cone([1, 0])
        b = translate_of_cone([0, 2])
        assert sets_equal(minkowski_sum(a, b), translate_of_cone([1, 2]))

    def test_empty_absorbs(self):
        assert minkowski_sum(translate_of_cone([1, 0]), UpperSet.empty(ORTHANT)).is_empty

    def test_support_additivity(self):
        a = upper_closure(Polyhedron.box([(0, 1), (0, 1)]), ORTHANT)
        b = translate_of_cone([2, -1])
        s = minkowski_sum(a, b)
        for u in [(-1, 0), (0, -1), (-1, -1), (-2, -3)]:
            assert s.support(u) == a.support(u) + b.support(u)

    def test_scale_identity_and_convention(self):
        a = translate_of_cone([1, 1])
        assert sets_equal(scale(a, 1), a)
        # 0 . A = C by convention.
        assert sets_equal(scale(a, 0), translate_of_cone([0, 0]))
        assert sets_equal(scale(a, 2), translate_of_cone([2, 2]))

    def test_scale_negative_rejected(self):
        with pytest.raises(ValueError):
            scale(translate_of_cone([1, 1]), -1)

    def test_member_of_sum_property(self):
        rng = random.Random(99)
        for _ in range(10):
            p = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
            q = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
            a, b = translate_of_cone(p), translate_of_cone(q)
            assert member(a, p) and member(b, q)
            assert member(minkowski_sum(a, b), (p[0] + q[0], p[1] + q[1]))


class TestEmbedding:
    def test_zero_gives_cone(self):
        assert sets_equal(embed_point([0, 0], ORTHANT), translate_of_cone([0, 0]))

    @given(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    @settings(max_examples=40, deadline=None)
    def test_order_embedding(self, z1, z2):
        cone_le = ORTHANT.contains((F(z2[0] - z1[0]), F(z2[1] - z1[1])))
        lattice_le = bool(set_order_leq(embed_point(z1, ORTHANT), embed_point(z2, ORTHANT)))
        assert cone_le == lattice_le

    def test_counterexample_pair(self):
        assert not ORTHANT.contains([1, -1])
        assert not set_order_leq(embed_point([0, 0], ORTHANT), embed_point([1, -1], ORTHANT))


class TestInvariants:
    def test_upper_closedness_of_constructions(self):
        seg = Polyhedron(2, [([1, 0], 0), ([-1, 0], -1), ([0, 1], 0), ([0, -1], 0)])
        for s in (
            upper_closure(seg, RAY),
            embed_point([3, -2], ORTHANT),
            minkowski_sum(translate_of_cone([1, 0]), translate_of_cone([0, 1])),
        ):
            assert check_upper_closed(s)


# -- exactness of closures and sums against a brute-force V-form ---------------


def _gauss(a, b, n):
    """Solve ``a x = b`` over Fractions by Gauss-Jordan: (one solution or
    None, a basis of the kernel of a)."""
    rows = [[F(x) for x in r] + [F(y)] for r, y in zip(a, b)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    sol = None
    if not any(row[n] for row in rows[len(pivots):]):
        sol = [F(0)] * n
        for i, c in enumerate(pivots):
            sol[c] = rows[i][n]
    kernel = []
    for free in (c for c in range(n) if c not in pivots):
        d = [F(0)] * n
        d[free] = F(1)
        for i, c in enumerate(pivots):
            d[c] = -rows[i][free]
        kernel.append(d)
    return sol, kernel


def _dot(a, b):
    return sum(F(x) * y for x, y in zip(a, b))


def brute_vform(rows, n):
    """(points, rays, lineality) of {z : a.z >= b} by enumerating row subsets.

    The lineality space is the kernel of the normals; on its orthogonal
    complement the set is pointed, so every vertex solves n independent rows
    and every extreme ray spans the kernel of n - 1 rows.
    """
    _, lin = _gauss([a for a, _ in rows], [0] * len(rows), n)
    work = list(rows) + [(l, 0) for l in lin] + [([-x for x in l], 0) for l in lin]

    def feasible(z, homogeneous):
        return all(_dot(a, z) >= (0 if homogeneous else b) for a, b in work)

    points, rays = [], []
    for subset in itertools.combinations(work, n):
        z, kernel = _gauss([a for a, _ in subset], [b for _, b in subset], n)
        if z is not None and not kernel and feasible(z, False):
            points.append(z)
    for subset in itertools.combinations(work, n - 1):
        _, kernel = _gauss([a for a, _ in subset], [0] * (n - 1), n)
        if len(kernel) == 1:
            rays += [d for d in (kernel[0], [-x for x in kernel[0]]) if feasible(d, True)]
    return points, rays, lin


def brute_support(vform, u):
    points, rays, lin = vform
    if not points:
        return NEG_INF
    if any(_dot(u, d) for d in lin) or any(_dot(u, d) > 0 for d in rays):
        return POS_INF
    return max(_dot(u, z) for z in points)


def _box_cut(rng, m, cuts):
    """Rows of a box around a random centre cut by ``cuts`` random halfspaces
    through points near it."""
    centre = [rng.randint(-3, 3) for _ in range(m)]
    rows = []
    for i in range(m):
        e = [0] * m
        e[i] = 1
        rows.append((tuple(e), centre[i] - rng.randint(1, 3)))
        rows.append((tuple(-x for x in e), -centre[i] - rng.randint(1, 3)))
    for _ in range(cuts):
        a = [rng.randint(-2, 2) for _ in range(m)]
        if any(a):
            rows.append((tuple(a), _dot(a, centre) - rng.randint(1, 3)))
    return rows


def _exactness_inputs(rng, m):
    """Seeded polytopes, an unbounded piece (the rows with a negative entry
    in the first two coordinates dropped), and a piece with lineality along
    the last axis."""
    pieces = [_box_cut(rng, m, m) for _ in range(4)]
    unbounded = [(a, b) for a, b in _box_cut(rng, m, m) if not any(x < 0 for x in a[:2])]
    flat = [(a + (0,), b) for a, b in _box_cut(rng, m - 1, m)]
    return pieces + [unbounded, flat]


# The orthant and a cone whose canonical generators are fractional.
EXACTNESS_CONES = {
    "orthant": lambda m: [[1 if i == j else 0 for j in range(m)] for i in range(m)],
    "skew": lambda m: [[1, Fraction(1, 2)] + [0] * (m - 2)]
    + [[1 if i == j else 0 for j in range(m)] for i in range(1, m)],
}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("cone_name", sorted(EXACTNESS_CONES))
def test_closure_and_sum_supports_are_exact(cone_name, m, seed):
    """sigma_cl(P+C) = sigma_P and sigma_(A+B) = sigma_A + sigma_B on C^-,
    against supports of the operands' brute-force vertices and rays."""
    rng = random.Random(f"{cone_name}-{m}-{seed}")
    gens = EXACTNESS_CONES[cone_name](m)
    cone = Cone.from_generators(gens)
    directions = []
    while len(directions) < 16:
        u = [rng.randint(-3, 2) for _ in range(m)]
        if any(u) and all(_dot(u, g) <= 0 for g in gens):
            directions.append(u)
    inputs = _exactness_inputs(rng, m)
    vforms = [brute_vform(rows, m) for rows in inputs]
    refs = [[brute_support(vf, u) for u in directions] for vf in vforms]
    closures = [upper_closure(Polyhedron(m, rows), cone) for rows in inputs]
    for ref, a in zip(refs, closures):
        assert check_upper_closed(a)
        assert [a.support(u) for u in directions] == ref
    for (ra, a), (rb, b) in itertools.combinations(zip(refs, closures), 2):
        s = minkowski_sum(a, b)
        assert check_upper_closed(s)
        for u, sa, sb in zip(directions, ra, rb):
            assert s.support(u) == (POS_INF if POS_INF in (sa, sb) else sa + sb), u
