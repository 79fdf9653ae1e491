"""Lattice of upper closed sets: closure, order, inf/sup, Minkowski algebra."""

import itertools
import random
from fractions import Fraction
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upperset import sets
from upperset.geometry import Cone, Polyhedron, dual_cone
from test_geometry import recession_rays
from upperset.linalg import NEG_INF, POS_INF, ZERO, Ext, Vec, vec
from upperset.sets import (
    SupportOracle,
    UpperSet,
    directed_hausdorff_sq,
    embed_point,
    hausdorff_sq_window,
    lattice_inf,
    lattice_sup,
    member,
    minkowski_sum,
    scale,
    set_order_leq,
    upper_closure,
)

ORTHANT = Cone.from_generators([[1, 0], [0, 1]])
RAY = Cone.from_halfspaces([[1, 0], [-1, 0], [0, 1]])


def F(x):
    return Fraction(x)


def translate_of_cone(p, cone=ORTHANT):
    return embed_point(p, cone)


# -- reference routes: the package's answers are checked against these ----------


def sets_equal(a: UpperSet, b: UpperSet) -> bool:
    """Mutual containment, exact on polyhedral representations."""
    lhs = set_order_leq(a, b)
    rhs = set_order_leq(b, a)
    return bool(lhs) and bool(rhs) and lhs.exact and rhs.exact


def check_upper_closed(a: UpperSet) -> bool:
    """Every stored row normal n has n.g >= 0 on C, that is, -n lies in C^-."""
    if a.pieces is None:
        return True
    dual = dual_cone(a.cone)
    return all(dual.contains(tuple(-c for c in n)) for p in a.pieces for n, _ in p.rows)


def point_polyhedron(p) -> Polyhedron:
    """The single point p as a polyhedron: z_i >= p_i and -z_i >= -p_i."""
    pv = vec(p)
    dim = len(pv)
    rows = []
    for i in range(dim):
        e = [ZERO] * dim
        e[i] = Fraction(1)
        rows.append((tuple(e), pv[i]))
        e[i] = Fraction(-1)
        rows.append((tuple(e), -pv[i]))
    return Polyhedron(dim, rows)


class CallableOracle(SupportOracle):
    """A support oracle from a support callable and an exact membership
    callable."""

    def __init__(self, fn: Callable[[Vec], Ext], member_fn: Callable[[Vec], bool]):
        self._fn = fn
        self._member = member_fn

    def support(self, u: Vec) -> Ext:
        return self._fn(u)

    def member(self, z: Vec) -> bool:
        return self._member(z)


def orthant_oracle(cone: Cone) -> UpperSet:
    """The orthant C itself as an oracle value: support 0 on C^-, +inf
    elsewhere."""
    return UpperSet.from_oracle(
        cone, CallableOracle(lambda u: ZERO if all(c <= 0 for c in u) else POS_INF, cone.contains)
    )


class TestUpperClosure:
    def test_point_gives_cone(self):
        u = upper_closure(point_polyhedron([0, 0]), ORTHANT)
        assert member(u, [0, 0]) and member(u, [3, 5]) and not member(u, [-1, 0])

    def test_translate(self):
        u = upper_closure(point_polyhedron([1, -1]), ORTHANT)
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

    @pytest.mark.parametrize(
        "t, witness",
        [
            (F(1) / 2, None),
            (F(33) / 64, (F(63) / 128, F(65) / 128)),
            (F(3) / 4, (F(3) / 8, F(5) / 8)),
        ],
    )
    def test_union_cover_is_decided_exactly(self, t, witness):
        # q = {z >= 0, z1 + z2 >= 1} lies in no single piece, and the two
        # pieces {z1 >= 1/2} and {z2 >= t} cover it exactly when t <= 1/2.
        q = Polyhedron(2, [([1, 0], 0), ([0, 1], 0), ([1, 1], 1)])
        a = UpperSet(ORTHANT, pieces=[
            Polyhedron(2, [([1, 0], 0), ([0, 1], 0), ([1, 0], F(1) / 2)]),
            Polyhedron(2, [([1, 0], 0), ([0, 1], 0), ([0, 1], t)]),
        ])
        b = UpperSet(ORTHANT, pieces=[q])
        assert not any(q.contained_in(p) for p in a.pieces)
        order = set_order_leq(a, b)
        assert order.exact and order.value == (witness is None) and order.witness == witness
        if witness is not None:
            assert member(b, witness) and not member(a, witness)

    def test_empty_set_is_below_nothing_nonempty(self):
        b = lattice_inf([translate_of_cone([1, 0]), translate_of_cone([0, 2])])
        order = set_order_leq(UpperSet.empty(ORTHANT), b)
        assert not order.value and order.exact and member(b, order.witness)


# -- the order on unions against a grid of points ------------------------------


def _orthant(m):
    return Cone.from_generators([[int(i == j) for j in range(m)] for i in range(m)])


def _upper_row(rng, m):
    """A row n.z >= c with n in {0, 1, 2}^m nonzero, so upper closed on the
    orthant, and c a half-integer in [0, 3]."""
    n = tuple(rng.randint(0, 2) for _ in range(m))
    return (n, F(rng.randint(0, 6)) / 2) if any(n) else _upper_row(rng, m)


def _upper_piece(rng, m):
    """z >= 0 and one or two random upper rows."""
    rows = [(tuple(int(i == j) for j in range(m)), 0) for i in range(m)]
    return Polyhedron(m, rows + [_upper_row(rng, m) for _ in range(rng.randint(1, 2))])


def random_union_pair(rng, m):
    """(a, b) over the orthant: b one random piece q; a either 1 to 4 random
    pieces, or q cut once along each coordinate, so that the cuts cover q
    together or leave a corner of it uncovered."""
    q = _upper_piece(rng, m)
    if rng.random() < 0.5:
        pieces = [_upper_piece(rng, m) for _ in range(rng.randint(1, 4))]
    else:
        cuts = [(tuple(int(i == j) for j in range(m)), F(rng.randint(1, 3)) / 2) for i in range(m)]
        pieces = [Polyhedron(m, q.rows + (cut,)) for cut in cuts]
    cone = _orthant(m)
    return UpperSet(cone, pieces=pieces), UpperSet(cone, pieces=[q])


def test_order_on_unions_matches_a_point_grid():
    # A False carries a point of b outside every piece of a; no True is
    # refuted by a point of the half-integer grid on [0, 4]^m.
    seen = {"holds": 0, "fails": 0, "covered by the union only": 0, "fails on a union": 0}
    grid = [F(k) / 2 for k in range(9)]
    for seed in range(320):
        rng = random.Random(seed)
        m = 2 + seed % 2
        a, b = random_union_pair(rng, m)
        order = set_order_leq(a, b)
        assert order.exact
        if order.value:
            for z in itertools.product(grid, repeat=m):
                assert member(a, z) or not member(b, z), (seed, z)
            seen["holds"] += 1
            single = any(b.pieces[0].contained_in(p) for p in a.pieces)
            seen["covered by the union only"] += not single
        else:
            assert member(b, order.witness) and not member(a, order.witness), seed
            seen["fails"] += 1
            seen["fails on a union"] += len(a.pieces) > 1
    assert seen["holds"] >= 100 and seen["fails"] >= 100, seen
    assert seen["covered by the union only"] >= 10 and seen["fails on a union"] >= 100, seen


@pytest.mark.parametrize("m", [2, 3])
def test_inf_and_sup_orders_take_the_one_piece_path(m, monkeypatch):
    # inf(A, B) <= A and A <= sup(A, B) are settled by one piece's
    # containment, with no strict-feasibility pass.
    passes = []
    real = sets.strict_point
    monkeypatch.setattr(sets, "strict_point", lambda *args: passes.append(args) or real(*args))
    cone = _orthant(m)
    rng = random.Random(1112 + m)
    for _ in range(20):
        A, B = (upper_closure(Polyhedron(m, _box_cut(rng, m, m)), cone) for _ in range(2))
        assert set_order_leq(lattice_inf([A, B]), A) and set_order_leq(A, lattice_sup([A, B]))
    assert passes == []


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

    def test_unbounded_cut_escapes(self):
        # a = {z2 >= 0} cut to 0 <= z2 <= 1 holds (-t, 0), at distance t
        # from b = R^2_+; along +z1 the cut stays within distance 0 of b.
        a = UpperSet(ORTHANT, pieces=[Polyhedron(2, [([0, 1], 0)])])
        b = upper_closure(point_polyhedron([0, 0]), ORTHANT)
        strip = Polyhedron(2, [([0, 1], 0), ([0, -1], -1)])
        assert directed_hausdorff_sq(a, b, strip) == POS_INF
        left = strip.intersect(Polyhedron(2, [([-1, 0], 0)]))
        assert directed_hausdorff_sq(a, b, left) == POS_INF
        right = strip.intersect(Polyhedron(2, [([1, 0], -2)]))
        assert directed_hausdorff_sq(a, b, right) == 4
        assert directed_hausdorff_sq(b, a, strip) == 0


class TestMember:
    def test_trivial(self):
        assert member(translate_of_cone([0, 0]), [0, 0])
        assert not member(UpperSet.empty(ORTHANT), [0, 0])


class TestOracleValues:
    def test_empty_reads_off_the_support_at_zero(self):
        # sigma(0) = -inf exactly on the empty set, whatever the other
        # directions read.
        empty = UpperSet.from_oracle(
            ORTHANT, CallableOracle(lambda u: NEG_INF if not any(u) else POS_INF, lambda z: False)
        )
        assert empty.is_empty and scale(empty, 2).is_empty
        assert not orthant_oracle(ORTHANT).is_empty


# Every lattice operation on two operands, read as a function of the pair.
LATTICE_OPERATIONS = {
    "set_order_leq": set_order_leq,
    "lattice_inf": lambda a, b: lattice_inf([a, b]),
    "lattice_sup": lambda a, b: lattice_sup([a, b]),
    "minkowski_sum": minkowski_sum,
    "hausdorff_sq_window": lambda a, b: hausdorff_sq_window(a, b, Polyhedron.box([(-4, 4)] * 2)),
}


@pytest.mark.parametrize("oracle_first", [True, False])
@pytest.mark.parametrize("operation", sorted(LATTICE_OPERATIONS))
def test_lattice_operations_reject_oracle_operands(operation, oracle_first):
    """The lattice is exact for polyhedra only; an oracle operand raises
    instead of being answered at some direction grid's resolution."""
    oracle, poly = orthant_oracle(ORTHANT), translate_of_cone([1, 1])
    a, b = (oracle, poly) if oracle_first else (poly, oracle)
    with pytest.raises(ValueError):
        LATTICE_OPERATIONS[operation](a, b)


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


# -- the window Hausdorff excess against the route it replaced ----------------


def face_point_excess(cut, pb):
    """The max of ``pb.dist_sq`` over the cut's minimal-face points: exact
    when the cut is bounded or none of its recession directions leaves pb."""
    return max((pb.dist_sq(v) for v in cut.minimal_face_points), default=0)


def escapes(cut, pb):
    """Whether a generator of the cut's recession cone leaves pb's
    halfspaces, read off ``_cone_rays``."""
    return any(_dot(n, d) < 0 for d in recession_rays(cut) for n, _ in pb.rows)


def _window(rng, m, bounded):
    """A box around a random centre, far off now and then (so cuts come out
    empty); unbounded windows drop some of its faces."""
    centre = [rng.randint(-3, 3) - (12 if rng.random() < 0.15 else 0) for _ in range(m)]
    bounds = [(c - rng.randint(0, 3), c + rng.randint(1, 3)) for c in centre]
    rows = list(Polyhedron.box(bounds).rows)
    if not bounded:
        rows = [r for r in rows if rng.random() < 0.4]
    return Polyhedron(m, rows)


# The orthant and, in m >= 3, a cone with lineality along the last axis.
HAUSDORFF_CONES = {
    "orthant": lambda m: Cone.from_generators(
        [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    ),
    "cylinder": lambda m: Cone.from_halfspaces(
        [[1 if i == j else 0 for j in range(m)] for i in range(m - 1)], m
    ),
}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_hausdorff_matches_the_face_point_route(m):
    """Per cut piece, ``excess_sq`` is +inf exactly when a recession
    direction escapes b, the face-point route's value otherwise, and its
    witness re-checks: a finite one is a point of the cut at that squared
    distance from b, an infinite one a recession direction of the cut that
    leaves b.  The window Hausdorff excess is the largest of these values."""
    rng = random.Random(f"hausdorff-{m}")
    seen = {"multi-piece": 0, "empty cut": 0, "lineality": 0, "escape": 0,
            "lineality escape": 0, "unbounded, finite": 0, "positive": 0}
    for k in range(24):
        cone = HAUSDORFF_CONES["cylinder" if k % 3 == 2 else "orthant"](m)
        closures = [upper_closure(Polyhedron(m, rows), cone) for rows in _exactness_inputs(rng, m)]
        for _ in range(6):
            # The last two closures are the unbounded and the flat piece,
            # whose recession cones are larger than the cone's.
            a = lattice_inf(rng.sample(closures, 1) + rng.sample(closures[-2:], rng.randint(0, 1)))
            b = rng.choice(closures)
            pb = b.pieces[0]
            bounded = rng.random() < 0.6
            window = _window(rng, m, bounded)
            values = []
            for cut in (pa.intersect(window) for pa in a.pieces):
                value, at = cut.excess_sq(pb)
                values.append(value)
                if escapes(cut, pb):
                    assert value == POS_INF, (k, window.rows)
                    # n.d >= 0 on the cut's rows, with equality throughout
                    # (so -d too) for a lineality vector; n.d < 0 on b's.
                    assert all(_dot(n, at) >= 0 for n, _ in cut.rows), (k, at)
                    assert any(_dot(n, at) < 0 for n, _ in pb.rows), (k, at)
                    seen["escape"] += 1
                    seen["lineality escape"] += all(_dot(n, at) == 0 for n, _ in cut.rows)
                    continue
                assert value == face_point_excess(cut, pb), (k, window.rows)
                if value:
                    assert cut.contains(at) and pb.dist_sq(at) == value, (k, at)
                else:
                    assert at is None
                seen["unbounded, finite"] += bool(recession_rays(cut))
                seen["empty cut"] += cut.is_empty
                seen["positive"] += value > 0
            assert directed_hausdorff_sq(a, b, window) == max(values), (k, window.rows)
            seen["multi-piece"] += len(a.pieces) > 1
            seen["lineality"] += any(pa.vform.lin for pa in a.pieces + b.pieces)
    assert min(seen.values()) >= 5, seen
