"""Set-valued map constructors: evaluation, convexity, graph interior, JSON."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from upperset.continuity import IMPLICATIONS
from upperset.corpus import RAY_CONE_2D, builtin_fixtures, parabola_dilation_fixture, random_convex_affine_maps
from upperset.duality import BivariateMap
from upperset.geometry import Cone, Polyhedron, dual_cone
from upperset.linalg import POS_INF, dot, norm1
from upperset.maps import (
    AffineBody,
    AffineForm,
    MapError,
    PiecewiseBody,
    ScaledBody,
    SetValuedMap,
    constant_cone_body,
    _box_in_graph,
    constant_empty_body,
    graph_interior_witness,
    map_from_json,
    map_to_json,
)
from upperset.scalarize import DirectionBase
from upperset.sets import (
    SupportOracle,
    UpperSet,
    embed_point,
    member,
    minkowski_sum,
    scale,
    set_order_leq,
)
from upperset.verdict import Status, Verdict, Witness

from test_sets import CallableOracle, check_upper_closed

ORTHANT = Cone.from_generators([[1, 0], [0, 1]])
RAY = Cone.from_halfspaces([[1, 0], [-1, 0], [0, 1]])


def F(x):
    return Fraction(x)


def convexity_check(f: SetValuedMap, seed: int = 0, count: int = 24) -> Verdict:
    """Sampled midpoint test of f(t x1 + (1-t) x2) <= t f(x1) + (1-t) f(x2).

    ``count`` seeded points with coordinates in eighths of [-4, 4] are
    paired off, each pair with a seeded weight t in eighths of (0, 1).
    Rejects union-valued maps.  Returns a witness triple on the first
    violation.  Polyhedral values are compared exactly in the lattice; when
    an oracle value takes part, the supports are compared on the 64-way
    direction fan of C^-, where a strict excess of the right-hand side's
    support is a violation and agreement holds at fan resolution only.
    """
    rng = random.Random(seed)
    pts = [
        tuple(Fraction(rng.randint(-32, 32), 8) for _ in range(f.domain_dim))
        for _ in range(count)
    ]
    weights = random.Random(seed + 1)
    examined = 0
    for x1, x2 in zip(pts[::2], pts[1::2]):
        t = Fraction(weights.randint(1, 7), 8)
        v1, v2 = f.evaluate(x1), f.evaluate(x2)
        if not v1.is_convex or not v2.is_convex:
            raise MapError("convexity check rejects union-valued maps")
        if v1.is_empty or v2.is_empty:
            continue
        mid = tuple(t * a + (1 - t) * b for a, b in zip(x1, x2))
        vm = f.evaluate(mid)
        examined += 1
        if vm.is_polyhedral and v1.is_polyhedral and v2.is_polyhedral:
            cmpres = set_order_leq(vm, minkowski_sum(scale(v1, t), scale(v2, 1 - t)))
            violated, z = not cmpres.value, cmpres.witness
        else:
            fan = DirectionBase.default(f.cone, 64).directions
            violated = any(t * v1.support(u) + (1 - t) * v2.support(u) > vm.support(u) for u in fan)
            z = None
        if violated:
            return Verdict.fails(
                Witness(x=mid, z=z, detail=f"midpoint condition violated for x1={x1}, x2={x2}, t={t}"),
                resolution=examined,
            )
    return Verdict.holds(resolution=examined, note="sampled midpoint grid")


def ray_translate_map():
    """f(x) = {(x, 0)} + C for the degenerate ray cone."""
    return SetValuedMap(
        1,
        RAY,
        AffineBody(
            normals=((F(1), F(0)), (F(-1), F(0)), (F(0), F(1))),
            offsets=(F(0), F(0), F(0)),
            x_coeffs=((F(1),), (F(-1),), (F(0),)),
        ),
        name="ray-translate",
    )


def halfline_domain_map():
    """f(x) = C for x >= 0 and empty otherwise."""
    return SetValuedMap(
        1,
        ORTHANT,
        PiecewiseBody(
            guard=((F(1),), F(0)),
            when_true=constant_cone_body(ORTHANT, 1),
            when_false=constant_empty_body(1, 2),
        ),
        name="orthant-halfline",
    )


def tilted_halfplane_map():
    """f(x) = {z : z1 + x z2 >= 1 + x} for x > 0, the orthant for x <= 0."""
    return SetValuedMap(
        1,
        ORTHANT,
        PiecewiseBody(
            guard=((F(-1),), F(0)),
            when_true=constant_cone_body(ORTHANT, 1),
            when_false=AffineBody(
                normals=((F(1), F(0)),),
                offsets=(F(1),),
                x_coeffs=((F(1),),),
                x_normals=(((F(0), F(1)),),),
            ),
        ),
        name="tilted-halfplane",
    )


def constant_map(cone=ORTHANT):
    return SetValuedMap(1, cone, constant_cone_body(cone, 1), name="constant")


def random_piecewise_convex_maps(seed: int, count: int) -> list[SetValuedMap]:
    """Seeded guard maps, convex by the flag's rule: one branch is constant
    empty, the other a random convex affine body or a scaled translate of
    the orthant."""
    rng = random.Random(seed)
    out = []
    for i, g in enumerate(random_convex_affine_maps(seed + 100, count)):
        body = g.body
        if rng.random() < 0.3:
            corner = [rng.randint(-2, 2), rng.randint(-2, 2)]
            body = ScaledBody(embed_point(corner, g.cone), AffineForm.of([rng.randint(-2, 2)], 1))
        guard = ((F(rng.choice([-1, 1])),), F(rng.randint(-2, 2)))
        empty = constant_empty_body(1, 2)
        branches = (body, empty) if rng.random() < 0.5 else (empty, body)
        out.append(SetValuedMap(1, g.cone, PiecewiseBody(guard, *branches), name=f"rand-guard-{seed}-{i}"))
    return out


# -- the recursive guard walk, kept as the oracle of the leaf list --------------


def _guard_side(guard, x0, r):
    """The guard's value on the whole l-inf box of radius r around x0, or
    None when the box straddles the guard."""
    g, h = guard
    center, reach = dot(g, x0), r * norm1(g)
    if center - reach >= h:
        return True
    if center + reach < h:
        return False
    return None


def _is_constant_empty(body) -> bool:
    if not isinstance(body, AffineBody) or not body.fixed_normals:
        return False
    return any(
        all(c == 0 for c in n) and all(c == 0 for c in body.x_coeffs[i]) and body.offsets[i] > 0
        for i, n in enumerate(body.normals)
    )


def _body_convex(body) -> bool:
    if isinstance(body, AffineBody):
        return body.fixed_normals
    if isinstance(body, ScaledBody):
        return body.base.is_convex
    t_empty = _is_constant_empty(body.when_true)
    f_empty = _is_constant_empty(body.when_false)
    if t_empty and f_empty:
        return True
    if t_empty:
        return _body_convex(body.when_false)
    if f_empty:
        return _body_convex(body.when_true)
    return False


def _body_convex_valued(body) -> bool:
    if isinstance(body, AffineBody):
        return True
    if isinstance(body, ScaledBody):
        return body.base.is_convex
    return _body_convex_valued(body.when_true) and _body_convex_valued(body.when_false)


def _evaluate_body(f: SetValuedMap, body, x):
    if isinstance(body, AffineBody):
        rows = body.rows_at(x)
        for n, _ in rows:
            if not dual_cone(f.cone).contains(tuple(-c for c in n)):
                raise MapError(f"normal {n} leaves the positive dual cone")
        return UpperSet(f.cone, pieces=[Polyhedron(f.cone.dim, rows)])
    if isinstance(body, ScaledBody):
        a = body.alpha(x)
        return UpperSet.empty(f.cone) if a < 0 else scale(body.base, a)
    n, b = body.guard
    return _evaluate_body(f, body.when_true if dot(n, x) >= b else body.when_false, x)


def _box_value_intersection(f: SetValuedMap, x0, radius):
    body = f.body
    while isinstance(body, PiecewiseBody):
        side = _guard_side(body.guard, x0, radius)
        if side is None:
            return None
        body = body.when_true if side else body.when_false
    if not isinstance(body, AffineBody) or not body.fixed_normals:
        return None
    if _is_constant_empty(body):
        return Polyhedron.empty(f.cone.dim)
    rows = [
        (n, body.offsets[i] + dot(body.x_coeffs[i], x0) + radius * norm1(body.x_coeffs[i]))
        for i, n in enumerate(body.normals)
    ]
    return Polyhedron(f.cone.dim, rows)


def random_guard_body(rng: random.Random, n: int, depth: int):
    """A seeded guard tree of at most ``depth`` nested guards over the plane
    orthant, with affine, tilting, scaled and constant-empty leaves; guards
    and offsets are small integers, so grids of halves hit the boundaries."""
    if depth and rng.random() < 0.7:
        guard = (tuple(F(rng.randint(-1, 1)) for _ in range(n)), F(rng.randint(-2, 2)))
        return PiecewiseBody(guard, random_guard_body(rng, n, depth - 1), random_guard_body(rng, n, depth - 1))
    kind = rng.choice(("affine", "tilting", "scaled", "empty"))
    if kind == "empty":
        return constant_empty_body(n, 2)
    if kind == "scaled":
        pieces = [embed_point([rng.randint(-2, 2), rng.randint(-2, 2)], ORTHANT).pieces[0]]
        if rng.random() < 0.3:
            pieces.append(embed_point([rng.randint(-2, 2), rng.randint(-2, 2)], ORTHANT).pieces[0])
        coeffs = [rng.randint(-1, 1) for _ in range(n)]
        return ScaledBody(UpperSet(ORTHANT, pieces=pieces), AffineForm.of(coeffs, rng.randint(-1, 2)))
    rows = rng.randint(1, 2)
    normals = tuple((F(rng.randint(0, 2)), F(rng.randint(0, 2))) for _ in range(rows))
    offsets = tuple(F(rng.randint(-2, 2)) for _ in range(rows))
    x_coeffs = tuple(tuple(F(rng.randint(-1, 1)) for _ in range(n)) for _ in range(rows))
    x_normals = None
    if kind == "tilting":
        x_normals = tuple(tuple((F(0), F(rng.randint(0, 1))) for _ in range(n)) for _ in range(rows))
    return AffineBody(normals, offsets, x_coeffs, x_normals)


def _value_rows(v):
    return None if v.is_empty else [p.rows for p in v.pieces]


class TestEvaluate:
    def test_halfline_domain_values(self):
        f = halfline_domain_map()
        assert f.evaluate([-1]).is_empty
        v0 = f.evaluate([0])
        assert member(v0, [0, 0]) and member(v0, [2, 3]) and not member(v0, [-1, 0])

    def test_tilted_halfplane_value(self):
        f = tilted_halfplane_map()
        v = f.evaluate([1])
        assert v.pieces[0].rows == (((F(1), F(1)), F(2)),)
        assert member(v, [1, 1]) and member(v, [2, 0]) and not member(v, [0, 0])

    def test_ray_translate_values(self):
        f = ray_translate_map()
        v = f.evaluate([Fraction(1, 2)])
        assert member(v, [Fraction(1, 2), 7]) and not member(v, [0, 0])

    def test_dimension_check(self):
        with pytest.raises(MapError):
            constant_map().evaluate([1, 2])

    def test_upper_closedness_spotcheck(self):
        rng = random.Random(3)
        for f in (ray_translate_map(), halfline_domain_map(), tilted_halfplane_map()):
            for _ in range(12):
                assert check_upper_closed(f.evaluate((Fraction(rng.randint(-32, 32), 8),)))


class TestDomain:
    def test_halfline(self):
        f = halfline_domain_map()
        pieces = f.domain_pieces()
        assert len(pieces) == 1
        assert pieces[0].contains([0]) and pieces[0].contains([5])
        assert not pieces[0].contains([-1])

    def test_affine_domain_projection(self):
        # f(x) = {z : z >= 0, 0.z >= x} in R: empty where x > 0.
        f = SetValuedMap(
            1,
            Cone.from_generators([[1]]),
            AffineBody(
                normals=((F(1),), (F(0),)),
                offsets=(F(0), F(0)),
                x_coeffs=((F(0),), (F(1),)),
            ),
        )
        dom = f.domain_pieces()
        assert len(dom) == 1
        assert dom[0].contains([0]) and dom[0].contains([-3]) and not dom[0].contains([1])

    def test_domain_pieces_agree_with_evaluate(self):
        # x . {} is empty for x != 0, but 0 . A = C: the domain is {0}.
        empty_base = ScaledBody(UpperSet.empty(ORTHANT), AffineForm.of([-2], 1))
        point_base = ScaledBody(embed_point([1, 0], ORTHANT), AffineForm.of([1], 1))
        maps = [
            halfline_domain_map(),
            tilted_halfplane_map(),
            SetValuedMap(1, ORTHANT, ScaledBody(UpperSet.empty(ORTHANT), AffineForm.of([1], 0))),
            SetValuedMap(1, ORTHANT, empty_base),
            SetValuedMap(1, ORTHANT, point_base),
            SetValuedMap(1, ORTHANT, PiecewiseBody(((F(3),), F(1)), empty_base, point_base)),
            SetValuedMap(1, ORTHANT, PiecewiseBody(((F(3),), F(5)), point_base, empty_base)),
        ]
        # The pieces are closed; the guards at 1/3 and 5/3 stay off the grid.
        grid = [(Fraction(k, 4),) for k in range(-12, 13)]
        for f in maps:
            dom = f.domain_pieces()
            for x in grid:
                assert any(p.contains(x) for p in dom) == (not f.evaluate(x).is_empty), (f, x)

    def test_empty_true_branch_leaves_its_guard_in_the_pieces(self):
        # Empty for x >= 0, C below: dom f is x < 0, but the false side's
        # closed region reaches the guard, so the pieces also hold 0.
        f = SetValuedMap(
            1, ORTHANT, PiecewiseBody(((F(1),), F(0)), constant_empty_body(1, 2), constant_cone_body(ORTHANT, 1))
        )
        dom = f.domain_pieces()
        assert len(dom) == 1
        assert f.evaluate([0]).is_empty and dom[0].contains([0])
        assert not f.evaluate([Fraction(-1, 8)]).is_empty and dom[0].contains([Fraction(-1, 8)])
        assert f.evaluate([Fraction(1, 8)]).is_empty and not dom[0].contains([Fraction(1, 8)])

    def test_moving_normals_keep_the_whole_region(self):
        # The row (1 - x, 0).z >= 1 reads 0.z >= 1 at x = 1, so f(1) is
        # empty, and its normal leaves the dual cone for x > 1.  The branch's
        # normals move with x, so its one piece is still the whole line.
        body = AffineBody(
            normals=((F(1), F(0)),),
            offsets=(F(1),),
            x_coeffs=((F(0),),),
            x_normals=(((F(-1), F(0)),),),
        )
        f = SetValuedMap(1, ORTHANT, body)
        dom = f.domain_pieces()
        assert len(dom) == 1 and not dom[0].rows
        assert f.evaluate([1]).is_empty and dom[0].contains([1])
        assert not f.evaluate([0]).is_empty
        with pytest.raises(MapError):
            f.evaluate([2])


class TestBoxIntersection:
    def test_exact_certificate(self):
        f = ray_translate_map()
        q = f.box_value_intersection((F(0),), F(1))
        assert q is not None and q.is_empty  # disjoint rays share no point

        g = constant_map()
        q2 = g.box_value_intersection((F(0),), F(1))
        assert q2 is not None and q2.contains([0, 0])

    def test_straddling_guard_gives_none(self):
        f = halfline_domain_map()
        assert f.box_value_intersection((F(0),), F(1)) is None
        inside = f.box_value_intersection((F(5),), F(1))
        assert inside is not None and inside.contains([0, 0])


class TestConvexity:
    def test_constant_holds(self):
        assert convexity_check(constant_map()).status is Status.HOLDS

    def test_affine_families_are_convex(self):
        assert convexity_check(ray_translate_map()).status is Status.HOLDS

    def test_deliberate_nonconvex_fixture_fails(self):
        # f(x) = {z >= -|x|}: the midpoint value strictly contains the
        # average of the endpoint values, violating the lattice inequality.
        cone = Cone.from_generators([[1]])
        f = SetValuedMap(
            1,
            cone,
            PiecewiseBody(
                guard=((F(1),), F(0)),
                when_true=AffineBody(
                    normals=((F(1),),), offsets=(F(0),), x_coeffs=((F(-1),),)
                ),
                when_false=AffineBody(
                    normals=((F(1),),), offsets=(F(0),), x_coeffs=((F(1),),)
                ),
            ),
            name="concave-side",
        )
        verdict = convexity_check(f, seed=5, count=40)
        assert verdict.status is Status.FAILS
        assert verdict.witness is not None
        # Witness re-check by hand: the recorded midpoint must violate.
        assert verdict.witness.x is not None

    def test_scaled_union_base_is_not_convex(self):
        # (x + 1) A for A the union of two shifted orthants: the values are
        # unions, so the graph is not convex either.
        union = UpperSet(
            ORTHANT,
            pieces=[embed_point([1, 0], ORTHANT).pieces[0], embed_point([0, 1], ORTHANT).pieces[0]],
        )
        f = SetValuedMap(1, ORTHANT, ScaledBody(union, AffineForm.of([1], 1)), name="scaled-union")
        assert (f.convex, f.convex_valued) == (False, False)
        side = {
            "convex": f.convex,
            "convex_valued": f.convex_valued,
            "int_c": True,
            "bn": True,
            "in_dom": True,
            "base_certified": True,
        }
        guarded = {
            "lba implies uls for convex maps",
            "eff implies lc for convex maps",
            "lc implies lls for convex maps on dom",
        }
        fired = {name for name, guard, _, _ in IMPLICATIONS if guard(side)}
        assert guarded <= {name for name, _, _, _ in IMPLICATIONS}
        assert not guarded & fired

    def test_scaled_convex_base_is_convex(self):
        f = SetValuedMap(1, ORTHANT, ScaledBody(embed_point([1, 1], ORTHANT), AffineForm.of([1], 1)))
        assert (f.convex, f.convex_valued) == (True, True)

    def test_convex_flag_passes_the_midpoint_oracle(self):
        # The flag guards three implications of the diagram; on maps it
        # calls convex the sampled midpoint test never finds a violation.
        maps = [fx.map.map if isinstance(fx.map, BivariateMap) else fx.map for fx in builtin_fixtures()]
        for seed in range(3):
            maps += random_convex_affine_maps(seed, 4)
            maps += random_convex_affine_maps(seed, 2, dim_x=2)
            maps += random_piecewise_convex_maps(seed, 4)
        convex = [f for f in maps if f.convex]
        assert len(convex) >= 30
        examined = 0
        for i, f in enumerate(convex):
            verdict = convexity_check(f, seed=i, count=48)
            assert verdict.status is not Status.FAILS, f.name
            examined += verdict.resolution
        assert examined >= 400
        # The oracle does find the violation on a map flagged non-convex.
        assert convexity_check(tilted_halfplane_map()).status is Status.FAILS


class TestGraphInterior:
    def test_halfline_map_fails_at_boundary(self):
        v = graph_interior_witness(halfline_domain_map(), [0])
        assert v.status is Status.FAILS

    def test_constant_map_holds(self):
        v = graph_interior_witness(constant_map(), [7])
        assert v.status is Status.HOLDS
        assert v.witness is not None and v.witness.radius is not None

    def test_ray_values_have_no_interior(self):
        v = graph_interior_witness(ray_translate_map(), [0])
        assert v.status is Status.FAILS

    def test_empty_value_fails(self):
        v = graph_interior_witness(halfline_domain_map(), [-2])
        assert v.status is Status.FAILS

    @pytest.mark.parametrize("m", [1, 3])
    def test_oracle_value_off_the_plane_holds(self, m):
        # The value (1, ..., 1) + C given by an oracle: the grid member
        # (1, ..., 1) lies on its boundary, and its bump (2, ..., 2) carries
        # the unit box.
        cone = Cone.from_generators([[int(i == j) for j in range(m)] for i in range(m)])
        shifted = UpperSet.from_oracle(
            cone,
            CallableOracle(lambda u: sum(u) if all(c <= 0 for c in u) else POS_INF, lambda z: min(z) >= 1),
        )
        f = SetValuedMap(1, cone, ScaledBody(shifted, AffineForm.of([0], 1)))
        v = graph_interior_witness(f, [0])
        assert v.status is Status.HOLDS
        assert v.witness.z == (2,) * m and v.witness.radius == 1

    def test_whole_plane_values_hold_at_the_origin(self):
        # f(x) = {z : 0.z >= -x}: the whole plane for x >= 0.  No row of a
        # value has a nonzero normal, so no margin picks a point, and the
        # origin is the candidate.
        f = SetValuedMap(1, ORTHANT, AffineBody(normals=((F(0), F(0)),), offsets=(F(0),), x_coeffs=((F(-1),),)))
        v = graph_interior_witness(f, [1])
        assert v.status is Status.HOLDS
        assert (v.witness.z, v.witness.radius) == ((0, 0), 1)
        # Constant whole-plane values, with no row at all, read the same.
        v = graph_interior_witness(SetValuedMap(1, ORTHANT, AffineBody((), (), ())), [0])
        assert v.status is Status.HOLDS and v.witness.z == (0, 0)

    def test_union_base_needs_one_piece_for_the_whole_box(self):
        # A = {z1 <= 0} u {z1 >= 1} over {0} x R+, alpha = 1.  Every corner
        # of the unit box around (1/2, 0) lies in one piece or the other,
        # but its centre lies in neither.
        union = UpperSet(
            RAY_CONE_2D,
            pieces=[Polyhedron(2, [((-1, 0), 0)]), Polyhedron(2, [((1, 0), 1)])],
        )
        f = SetValuedMap(1, RAY_CONE_2D, ScaledBody(union, AffineForm.of([0], 1)))
        x0, z0, r = (F(0),), (F(1) / 2, F(0)), F(1)
        assert all(member(f.evaluate(x0), c) for c in itertools.product(*((c - r, c + r) for c in z0)))
        assert not member(f.evaluate(x0), z0)
        assert not _box_in_graph(f, x0, z0, r)
        # A box inside one piece is inside the graph.
        assert _box_in_graph(f, x0, (F(3), F(0)), r)
        assert _box_in_graph(f, x0, (F(-2), F(0)), r)

    def test_scaled_box_holds_at_the_largest_alpha_too(self):
        # f(x) = (x + 1) A with A = (1, 1) + C given by an oracle.  A misses
        # 0, so the values move up as alpha grows: the unit box around
        # (1, (2, 2)) meets (1, (3/2, 3/2)), and (3/2, 3/2) is not in f(1).
        shifted = UpperSet.from_oracle(
            ORTHANT,
            CallableOracle(lambda u: sum(u) if all(c <= 0 for c in u) else POS_INF, lambda z: min(z) >= 1),
        )
        f = SetValuedMap(1, ORTHANT, ScaledBody(shifted, AffineForm.of([1], 1)))
        assert not member(f.evaluate([1]), (F(3) / 2, F(3) / 2))
        v = graph_interior_witness(f, [1])
        assert v.status is not Status.FAILS
        if v.status is Status.HOLDS:
            assert (v.witness.z, v.witness.radius) != ((2, 2), 1)
            # alpha moves with x and A is convex, so the z-box corners at the
            # x-box ends decide the box.
            (x0,), z0, r = v.witness.x, v.witness.z, v.witness.radius
            for x in (x0 - r, x0 + r):
                for corner in itertools.product(*((c - r, c + r) for c in z0)):
                    assert member(f.evaluate([x]), corner), (x, corner)

    def test_nested_guard_prunes_the_empty_branch(self):
        # C for x >= 0; for x < 0, C again when x >= -10 and empty below.
        # The box around 0 straddles the outer guard but lies on the true
        # side of the inner one, so the empty branch never matters.
        f = SetValuedMap(
            1,
            ORTHANT,
            PiecewiseBody(
                guard=((F(1),), F(0)),
                when_true=constant_cone_body(ORTHANT, 1),
                when_false=PiecewiseBody(
                    guard=((F(1),), F(-10)),
                    when_true=constant_cone_body(ORTHANT, 1),
                    when_false=constant_empty_body(1, 2),
                ),
            ),
            name="nested-guards",
        )
        v = graph_interior_witness(f, [0])
        assert v.status is Status.HOLDS
        assert v.witness is not None and v.witness.radius is not None
        # At -10 every ball meets the nested empty branch's region x < -10.
        v = graph_interior_witness(f, [-10])
        assert v.status is Status.FAILS

    def test_empty_true_branch_holds_on_the_false_side(self):
        # Empty for x >= 10, C below: points strictly below 10 have a product
        # box inside the graph; only the boundary and beyond fail.
        f = SetValuedMap(
            1,
            ORTHANT,
            PiecewiseBody(
                guard=((F(1),), F(10)),
                when_true=constant_empty_body(1, 2),
                when_false=constant_cone_body(ORTHANT, 1),
            ),
            name="empty-above-10",
        )
        for x0 in (F(0), F(9), Fraction(19, 2)):
            v = graph_interior_witness(f, [x0])
            assert v.status is Status.HOLDS, x0
            assert v.witness is not None and v.witness.radius is not None
        assert graph_interior_witness(f, [10]).status is Status.FAILS

    def test_empty_leaf_with_empty_region_does_not_fail(self):
        # The empty leaf's region {x >= 0, x < 0} is empty, although 0
        # satisfies both of its rows non-strictly.
        f = SetValuedMap(
            1,
            ORTHANT,
            PiecewiseBody(
                guard=((F(1),), F(0)),
                when_true=PiecewiseBody(
                    guard=((F(1),), F(0)),
                    when_true=constant_cone_body(ORTHANT, 1),
                    when_false=constant_empty_body(1, 2),
                ),
                when_false=constant_cone_body(ORTHANT, 1),
            ),
            name="unreachable-empty-leaf",
        )
        # F(x) = C everywhere: a box straddling the inner guard never meets
        # the empty leaf, whose region is empty.
        for x0 in (F(0), Fraction(1, 1000)):
            assert graph_interior_witness(f, [x0]).status is Status.HOLDS, x0


def _has_empty_subtree(body) -> bool:
    """Whether some guard of the tree has only constant-empty leaves below it."""
    if not isinstance(body, PiecewiseBody):
        return False

    def all_empty(b):
        if isinstance(b, PiecewiseBody):
            return all_empty(b.when_true) and all_empty(b.when_false)
        return _is_constant_empty(b)

    return all_empty(body) or _has_empty_subtree(body.when_true) or _has_empty_subtree(body.when_false)


class TestLeafList:
    """Every answer about the branches agrees with the recursive guard walk."""

    def test_matches_the_recursive_walk(self):
        rng = random.Random(19)
        halves = [F(k) / 2 for k in range(-5, 6)]
        counts = dict.fromkeys(("convex", "values", "errors", "boxes", "exact boxes"), 0)
        for i in range(80):
            n = 1 + i % 2
            body = random_guard_body(rng, n, 3)
            f = SetValuedMap(n, ORTHANT, body, name=f"rand-tree-{i}")
            assert f.convex_valued == _body_convex_valued(body)
            if not _has_empty_subtree(body):
                assert f.convex == _body_convex(body), i
                counts["convex"] += 1
            xs = [(a,) for a in halves] if n == 1 else [(a, b) for a in halves[::2] for b in halves[::2]]
            for x in xs:
                try:
                    expected = _value_rows(_evaluate_body(f, body, x))
                except MapError:
                    with pytest.raises(MapError):
                        f.evaluate(x)
                    counts["errors"] += 1
                else:
                    assert _value_rows(f.evaluate(x)) == expected, (i, x)
                    counts["values"] += 1
                for r in (F(0), Fraction(1, 2), F(1)):
                    got, want = f.box_value_intersection(x, r), _box_value_intersection(f, x, r)
                    assert (got is None) == (want is None), (i, x, r)
                    counts["boxes"] += 1
                    if want is not None:
                        assert got.rows == want.rows and got.is_empty == want.is_empty
                        counts["exact boxes"] += 1
        assert counts["convex"] >= 60 and counts["errors"] >= 40 and counts["exact boxes"] >= 200, counts

    def test_a_guard_over_empty_leaves_keeps_the_map_convex(self):
        # C for x < 0 and empty for x >= 0, the empty side split by a second
        # guard: the graph is the orthant cylinder cut by an open halfspace.
        inner = PiecewiseBody(((F(1),), F(2)), constant_empty_body(1, 2), constant_empty_body(1, 2))
        f = SetValuedMap(1, ORTHANT, PiecewiseBody(((F(1),), F(0)), inner, constant_cone_body(ORTHANT, 1)))
        assert f.convex and not _body_convex(f.body)
        assert convexity_check(f, seed=2, count=48).status is Status.HOLDS


class TestBodyKinds:
    def test_a_body_never_equals_a_body_of_another_kind(self):
        # No body is a tuple, so none equals a body of another kind or a
        # tuple of its own fields.
        affine = constant_cone_body(ORTHANT, 1)
        scaled = ScaledBody(UpperSet(ORTHANT, pieces=[ORTHANT.polyhedron]), AffineForm.of([1], 0))
        piecewise = PiecewiseBody(((F(1),), F(0)), affine, scaled)
        for a, b in itertools.permutations([affine, scaled, piecewise], 2):
            assert a != b
        assert scaled != (scaled.base, scaled.alpha)
        assert piecewise != (piecewise.guard, affine, scaled)


class TestLeafGraph:
    def test_slices_and_domains_match_the_values(self):
        # In its region, a leaf's graph sliced at x is f(x), and its domain
        # piece holds x exactly where f(x) is nonempty.
        rng = random.Random(23)
        halves = [F(k) / 2 for k in range(-5, 6)]
        counts = dict.fromkeys(("empty", "nonempty"), 0)
        for i in range(60):
            n = 1 + i % 2
            f = SetValuedMap(n, ORTHANT, random_guard_body(rng, n, 3))
            xs = [(a,) for a in halves] if n == 1 else list(itertools.product(halves[::2], repeat=2))
            for leaf in f.leaves:
                if leaf.graph_rows is None:
                    continue
                domain = leaf.domain(n, 2)
                for x in filter(leaf.contains_box, xs):
                    cut = Polyhedron(2, [(a[n:], q - dot(a[:n], x)) for a, q in leaf.graph_rows])
                    value, graph_slice = f.evaluate(x), UpperSet(ORTHANT, pieces=[cut])
                    assert set_order_leq(value, graph_slice) and set_order_leq(graph_slice, value), (i, x)
                    assert (domain is not None and domain.contains(x)) == (not value.is_empty), (i, x)
                    counts["empty" if value.is_empty else "nonempty"] += 1
        assert min(counts.values()) >= 300, counts


class TestJsonSchema:
    def test_round_trip(self):
        for f in (ray_translate_map(), halfline_domain_map(), tilted_halfplane_map()):
            data = json.loads(json.dumps(map_to_json(f)))
            g = map_from_json(data)
            assert g.domain_dim == f.domain_dim
            assert g.convex == f.convex
            for x in ([F(0)], [F(1)], [F(-1)], [Fraction(1, 2)]):
                vf, vg = f.evaluate(x), g.evaluate(x)
                assert vf.is_empty == vg.is_empty
                if not vf.is_empty and vf.is_polyhedral:
                    assert vf.pieces[0].rows == vg.pieces[0].rows

    def test_scaled_body_round_trip(self):
        base = SetValuedMap(
            1,
            ORTHANT,
            ScaledBody_fixture(),
            name="scaled",
        )
        data = map_to_json(base)
        g = map_from_json(data)
        assert not g.evaluate([2]).is_empty

    def test_parabola_base_round_trip(self):
        f = parabola_dilation_fixture().map
        data = json.loads(json.dumps(map_to_json(f)))
        assert data["body"]["when_true"]["base"] == {"kind": "parabola"}
        g = map_from_json(data)
        assert map_to_json(g) == data
        for x in ([F(0)], [F(1)], [Fraction(3, 2)]):
            for u in ([F(-1), F(-1)], [F(-2), F(-1)], [F(0), F(-1)]):
                assert g.evaluate(x).support(u) == f.evaluate(x).support(u)
        assert g.evaluate([F(-1)]).is_empty

    def test_unknown_oracle_rejected(self):
        class OrthantOracle(SupportOracle):
            def support(self, u):
                return F(0) if all(c <= 0 for c in u) else POS_INF

            def member(self, z):
                return ORTHANT.contains(z)

        base = UpperSet.from_oracle(ORTHANT, OrthantOracle())
        f = SetValuedMap(1, ORTHANT, ScaledBody(base, AffineForm.of([1], 0)))
        with pytest.raises(ValueError):
            map_to_json(f)


def ScaledBody_fixture():
    from upperset.maps import ScaledBody
    from upperset.sets import embed_point

    return ScaledBody(embed_point([1, 1], ORTHANT), AffineForm.of([1], 0))
