"""Scalar Legendre-Fenchel conjugation and the set-valued conjugate routes."""

import itertools
import random
from fractions import Fraction
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from upperset.conjugate import (
    AffinePiece,
    NegConjugateValue,
    PiecewiseLinearFn,
    max_affine,
    neg_conjugate_scalar_route,
    scalar_conjugate,
)
from upperset.corpus import HALFLINE_1D, ORTHANT_2D, fixture_by_id, random_dual_pairs
from upperset.duality import BivariateMap, marginal_scalarization, weak_duality_check
from upperset.geometry import DualPair, Polyhedron, Region, require_dual_direction
from upperset.linalg import NEG_INF, POS_INF, ZERO, Ext, Vec, dot, vec
from upperset.maps import AffineBody, SetValuedMap
from upperset.scalarize import piecewise_scalarization
from upperset.sets import UpperSet, member, set_order_leq
from upperset.simplex import LPStatus, solve_lp
from upperset.verdict import Status

from test_maps import ORTHANT, constant_map, halfline_domain_map


def F(x):
    return Fraction(x)


# -- reference routes: the package's answers are checked against these ----------


def kinks_1d(phi: PiecewiseLinearFn) -> list[Fraction]:
    """Breakpoint/endpoint candidates of a univariate instance."""
    if phi.dim != 1:
        raise ValueError("kink enumeration is one-dimensional only")
    pts: set[Fraction] = set()
    for p in phi.pieces:
        for n, b in p.region.closure.rows:
            if n[0] != 0:
                pts.add(b / n[0])
    return sorted(pts)


def conjugate_1d(phi: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """Exact closed-form conjugate of a univariate convex piecewise-linear
    function, by breakpoint enumeration.

    For convex phi the supremum over each piece is attained at an endpoint
    (or runs off to infinity along an unbounded piece), so the conjugate is
    the maximum of x_c . y - phi(x_c) over breakpoints x_c, clipped to the
    slope range on unbounded domains.
    """
    if phi.dim != 1:
        raise ValueError("one-dimensional instances only")
    if phi.minus_inf_regions:
        return PiecewiseLinearFn(1)  # identically +inf
    if not phi.pieces:
        return PiecewiseLinearFn(1, minus_inf_regions=[Region.closed(Polyhedron.full(1))])

    candidates = kinks_1d(phi)
    dom_rows: list[tuple[Vec, Fraction]] = []
    unbounded_above = any(
        p.region.closure.support((Fraction(1),)) == POS_INF for p in phi.pieces
    )
    unbounded_below = any(
        p.region.closure.support((Fraction(-1),)) == POS_INF for p in phi.pieces
    )
    if unbounded_above:
        # Ultimate slope to the right bounds dom phi* above.
        right = max(
            p.coeffs[0]
            for p in phi.pieces
            if p.region.closure.support((Fraction(1),)) == POS_INF
        )
        dom_rows.append(((Fraction(-1),), -right))
    if unbounded_below:
        left = min(
            p.coeffs[0]
            for p in phi.pieces
            if p.region.closure.support((Fraction(-1),)) == POS_INF
        )
        dom_rows.append(((Fraction(1),), left))
    if not candidates:
        # Single affine piece over all of R: conjugate is finite at one slope.
        a = phi.pieces[0].coeffs[0]
        c = phi.pieces[0].const
        point = Polyhedron(1, [((Fraction(1),), a), ((Fraction(-1),), -a)])
        return PiecewiseLinearFn(1, [AffinePiece(Region.closed(point), (ZERO,), -c)])
    slope_consts = []
    for xc in candidates:
        v = phi((xc,))
        if isinstance(v, float):
            continue
        slope_consts.append(((xc,), -v))
    return max_affine(slope_consts, Region.closed(Polyhedron(1, dom_rows)))


def fenchel_young_holds(phi: PiecewiseLinearFn, x, xstar) -> bool:
    """phi(x) + phi*(x*) >= x*.x in extended arithmetic."""
    vx = phi(x)
    vc = scalar_conjugate(phi, xstar)
    if vx == POS_INF or vc == POS_INF:
        return True
    if vx == NEG_INF or vc == NEG_INF:
        return False
    return vx + vc >= dot(vec(xstar), vec(x))


def neg_conjugate_direct(f, pair: DualPair, x_grid: Sequence[Vec]) -> NegConjugateValue:
    """Inner bracketing of cl union_x (f(x) + S(-x)) over a finite grid.

    Each summand is a halfspace with the common normal z*, so the closed
    union is the halfspace whose offset is the supremum of
    x*.x + sup{z*.z : z in f(x)} over the grid; refining the grid grows the
    offset monotonically toward the scalar-route value.
    """
    require_dual_direction(f.cone, pair.zstar)
    best: Ext = NEG_INF
    for x in x_grid:
        s = f.evaluate(x).support(pair.zstar)
        if s == NEG_INF:
            continue
        if s == POS_INF:
            best = POS_INF
            break
        v = s + dot(pair.xstar, vec(x))
        if v > best:
            best = v
    return NegConjugateValue(pair, UpperSet.from_supports(f.cone, [(pair.zstar, best)]), best)


def abs_fn():
    """phi(x) = |x| as two affine pieces."""
    left = Region.closed(Polyhedron(1, [([-1], 0)]))
    right = Region.closed(Polyhedron(1, [([1], 0)]))
    return PiecewiseLinearFn(
        1,
        [AffinePiece(right, (F(1),), F(0)), AffinePiece(left, (F(-1),), F(0))],
    )


def zero_fn():
    return PiecewiseLinearFn(1, [AffinePiece(Region.closed(Polyhedron.full(1)), (F(0),), F(0))])


def improper_fn():
    return PiecewiseLinearFn(
        1,
        [AffinePiece(Region.closed(Polyhedron(1, [([1], 0)])), (F(0),), F(0))],
        minus_inf_regions=[Region.closed(Polyhedron(1, [([-1], 0)]))],
    )


def brute_force_conjugate(phi, xstar, radius=20, steps=160):
    """Coarse grid supremum of x*.x - phi(x); a lower bound on the truth."""
    best = NEG_INF
    for k in range(-steps, steps + 1):
        x = F(radius) * k / steps
        v = phi((x,))
        if isinstance(v, float):
            continue
        cand = F(xstar) * x - v
        if cand > best:
            best = cand
    return best


class TestScalarConjugate:
    def test_abs_at_zero(self):
        assert scalar_conjugate(abs_fn(), [0]) == 0

    def test_abs_outside_unit_interval(self):
        assert scalar_conjugate(abs_fn(), [2]) == POS_INF
        assert scalar_conjugate(abs_fn(), [-2]) == POS_INF

    def test_abs_boundary_piece_analysis(self):
        # |x|* is the indicator of [-1, 1]: exactly 0 on the boundary.
        assert scalar_conjugate(abs_fn(), [1]) == 0
        assert scalar_conjugate(abs_fn(), [-1]) == 0
        assert scalar_conjugate(abs_fn(), [Fraction(1, 2)]) == 0

    def test_abs_brute_force_pattern(self):
        # The coarse grid oracle confirms boundedness inside and blowup
        # outside the unit interval.
        inside = brute_force_conjugate(abs_fn(), Fraction(1, 2))
        assert inside == 0
        outside = brute_force_conjugate(abs_fn(), 2)
        assert outside >= 20  # grows with the grid radius: unbounded pattern

    def test_zero_function(self):
        assert scalar_conjugate(zero_fn(), [0]) == 0
        assert scalar_conjugate(zero_fn(), [1]) == POS_INF

    def test_improper_conjugates_to_plus_inf(self):
        for xs in ([0], [1], [-3]):
            assert scalar_conjugate(improper_fn(), xs) == POS_INF

    def test_never_finite_conjugates_to_minus_inf(self):
        assert scalar_conjugate(PiecewiseLinearFn(1), [0]) == NEG_INF


def random_convex_pl(rng, pieces=4, bounded_domain=False):
    """Random univariate convex piecewise-linear function as a max of
    affine forms, optionally restricted to an interval."""
    forms = []
    used = set()
    for _ in range(pieces):
        a = F(rng.randint(-5, 5))
        if a in used:
            continue
        used.add(a)
        forms.append((a, F(rng.randint(-4, 4))))
    if not forms:
        forms = [(F(0), F(0))]
    dom_rows = []
    if bounded_domain:
        lo, hi = sorted((rng.randint(-8, 0), rng.randint(1, 8)))
        dom_rows = [((F(1),), F(lo)), ((F(-1),), F(-hi))]
    return max_affine([((a,), c) for a, c in forms], Region.closed(Polyhedron(1, dom_rows)))


class TestConjugate1d:
    def test_abs_materialized(self):
        star = conjugate_1d(abs_fn())
        for y, expected in [
            (F(0), F(0)),
            (F(1), F(0)),
            (F(-1), F(0)),
            (F(1) / 2, F(0)),
            (F(2), POS_INF),
        ]:
            assert star((y,)) == expected

    def test_matches_lp_route_random(self):
        rng = random.Random(31337)
        for _ in range(40):
            phi = random_convex_pl(rng, bounded_domain=rng.random() < 0.5)
            star = conjugate_1d(phi)
            for y in (F(-6), F(-1), F(0), F(1) / 2, F(3), F(7)):
                assert star((y,)) == scalar_conjugate(phi, (y,))

    def test_biconjugate_identity_on_closed_convex(self):
        rng = random.Random(606)
        for _ in range(30):
            phi = random_convex_pl(rng, bounded_domain=rng.random() < 0.5)
            second = conjugate_1d(conjugate_1d(phi))
            for x in (F(-5), F(-2), F(0), F(1) / 4, F(2), F(6)):
                assert second((x,)) == phi((x,))

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_fenchel_young(self, a, b, xs):
        phi = max_affine([((F(a),), F(0)), ((F(b),), F(1))], Region.closed(Polyhedron.full(1)))
        for x in (F(-2), F(0), F(3)):
            assert fenchel_young_holds(phi, (x,), (F(xs),))


class TestNegConjugateScalarRoute:
    def test_constant_cone_map(self):
        # f = {0} + C, z* = (-1,-1), x* = 0: phi = 0, phi*(0) = 0, and the
        # value is {z : z1 + z2 >= 0}.
        f = constant_map()
        res = neg_conjugate_scalar_route(f, DualPair.of([0], [-1, -1]))
        assert res.offset == 0
        for z in [(0, 0), (2, -1), (-1, 2)]:
            assert member(res.value, z)
        for z in [(-1, 0), (0, -1), (-2, 1)]:
            assert not member(res.value, z)

    def test_empty_map_gives_empty_value(self):
        from upperset.maps import constant_empty_body

        f = SetValuedMap(1, ORTHANT, constant_empty_body(1, 2), name="empty")
        res = neg_conjugate_scalar_route(f, DualPair.of([0], [-1, -1]))
        assert res.offset == NEG_INF and res.value.is_empty

    def test_improper_scalarization_gives_whole_space(self):
        f = SetValuedMap(
            1,
            ORTHANT,
            AffineBody(normals=(), offsets=(), x_coeffs=()),
            name="universal",
        )
        res = neg_conjugate_scalar_route(f, DualPair.of([0], [-1, -1]))
        assert res.offset == POS_INF
        # The whole space is the lattice's least element: below it only itself.
        assert set_order_leq(res.value, UpperSet.universal(ORTHANT))


class TestNegConjugateDirect:
    def _grid(self, radius=8, splits=64):
        return [(F(radius) * k / splits,) for k in range(-splits, splits + 1)]

    def test_single_point_domain(self):
        f = constant_map()
        pair = DualPair.of([1], [-1, -1])
        single = neg_conjugate_direct(f, pair, [(F(3),)])
        # f(3) + S(-3) = {z : z*.z <= 3 + sup z*.z over C} = offset 3.
        assert single.offset == 3

    def test_grid_refinement_monotone(self):
        f = constant_map()
        pair = DualPair.of([1], [-1, -1])
        offsets = []
        for splits in (4, 16, 64):
            offsets.append(neg_conjugate_direct(f, pair, self._grid(splits=splits)).offset)
        assert offsets == sorted(offsets)

    def test_agreement_with_scalar_route(self):
        f = constant_map()
        pair = DualPair.of([0], [-1, -1])
        direct = neg_conjugate_direct(f, pair, self._grid())
        scalar = neg_conjugate_scalar_route(f, pair)
        assert direct.offset == scalar.offset == 0
        # Direct route is always an inner bracket of the scalar route.
        assert set_order_leq(scalar.value, direct.value)

    def test_inner_bracketing_for_halfline_map(self):
        f = halfline_domain_map()
        pair = DualPair.of([-1], [-1, -1])
        direct = neg_conjugate_direct(f, pair, self._grid())
        scalar = neg_conjugate_scalar_route(f, pair)
        assert direct.offset <= scalar.offset
        assert set_order_leq(scalar.value, direct.value)


# -- the value routes against the per-piece LPs they replaced --------------------


def lp_conjugate(phi, xstar):
    """phi*(x*) by one LP per piece: max (x* - a).x over the piece's region."""
    if phi.minus_inf_regions:
        return POS_INF
    if not phi.pieces:
        return NEG_INF
    best = NEG_INF
    for p in phi.pieces:
        obj = tuple(a - b for a, b in zip(vec(xstar), p.coeffs))
        res = solve_lp(obj, list(p.region.closure.rows), sense="max")
        if res.status is LPStatus.UNBOUNDED:
            return POS_INF
        if res.status is LPStatus.OPTIMAL:
            best = max(best, res.value - p.const)
    return best


def lp_partial_infimum(phi, n_free, fixed):
    """inf over the first n_free coordinates, the rest fixed, by one LP per
    piece and one feasibility LP per minus-infinity region."""

    def sliced(region):
        return [(n[:n_free], b - dot(n[n_free:], fixed)) for n, b in region.closure.rows]

    for r in phi.minus_inf_regions:
        if solve_lp((F(0),) * n_free, sliced(r), sense="max").status is LPStatus.OPTIMAL:
            return NEG_INF
    best = POS_INF
    for p in phi.pieces:
        res = solve_lp(p.coeffs[:n_free], sliced(p.region), sense="min")
        if res.status is LPStatus.UNBOUNDED:
            return NEG_INF
        if res.status is LPStatus.OPTIMAL:
            best = min(best, res.value + dot(p.coeffs[n_free:], fixed) + p.const)
    return best


def random_pl(rng, dim):
    """Pieces over random small polyhedra, some unbounded, some empty, and
    now and then a minus-infinity region."""

    def region():
        rows = [
            (vec([rng.randint(-2, 2) for _ in range(dim)]), F(rng.randint(-3, 2)))
            for _ in range(rng.randint(0, dim + 2))
        ]
        return Region.closed(Polyhedron(dim, rows))

    pieces = [
        AffinePiece(region(), vec([rng.randint(-3, 3) for _ in range(dim)]), F(rng.randint(-4, 4)))
        for _ in range(rng.randint(0, 3))
    ]
    minus = [region()] if rng.random() < 0.1 else []
    return PiecewiseLinearFn(dim, pieces, minus)


def random_bivariate(rng, cone):
    """{z : N z >= q + L (x, y)} with rows from {+-1, 0} normals, so that
    empty, bounded and unbounded marginal problems all occur."""
    rows = rng.randint(1, 4)
    choices = [(1,), (-1,), (0,)] if cone.dim == 1 else [(1, 0), (0, 1), (-1, 0), (1, 1), (0, 0)]
    body = AffineBody(
        normals=tuple(vec(rng.choice(choices)) for _ in range(rows)),
        offsets=tuple(F(rng.randint(-2, 2)) for _ in range(rows)),
        x_coeffs=tuple(vec([rng.randint(-2, 2) for _ in range(2)]) for _ in range(rows)),
    )
    return BivariateMap(SetValuedMap(2, cone, body, name="random-bivariate"), 1, 1)


def test_fix_tail_keeps_each_regions_flags():
    # The slice at y reads as phi at (x, y), strict rows' boundaries included.
    rng = random.Random(1500)
    halves = [F(k) / 2 for k in range(-4, 5)]
    on_a_strict_boundary = 0
    for _ in range(150):
        dim = rng.randint(2, 3)

        def region():
            rows = [(vec([rng.randint(-1, 1) for _ in range(dim)]), F(rng.randint(-2, 1))) for _ in range(3)]
            return Region(Polyhedron(dim, rows), tuple(rng.random() < 0.5 for _ in rows))

        def regions(fn):
            return [p.region for p in fn.pieces] + list(fn.minus_inf_regions)

        forms = [(vec([rng.randint(-2, 2) for _ in range(dim)]), F(rng.randint(-2, 2))) for _ in range(3)]
        phi = PiecewiseLinearFn(dim, [AffinePiece(region(), *form) for form in forms], [region()])
        y = (F(rng.randint(-1, 1)),)
        slice_ = phi.fix_tail(y)
        # The slice's regions are phi's, in order, less the ones cut empty.
        flags = iter(r.strict for r in regions(phi))
        assert all(r.strict in flags for r in regions(slice_))
        for x in itertools.product(halves, repeat=dim - 1):
            assert slice_(x) == phi(x + y), (x, y)
            on_a_strict_boundary += any(r.closure.contains(x + y) and not r.contains(x + y) for r in regions(phi))
    assert on_a_strict_boundary >= 100, on_a_strict_boundary


class TestValueRoutesMatchLPs:
    def test_scalar_conjugate(self):
        rng = random.Random(2024)
        seen = {"+inf": 0, "-inf": 0, "finite": 0}
        for _ in range(300):
            dim = rng.randint(1, 3)
            phi = random_pl(rng, dim)
            for _ in range(3):
                xs = vec([rng.randint(-3, 3) for _ in range(dim)])
                v = scalar_conjugate(phi, xs)
                assert v == lp_conjugate(phi, xs), ([(p.region.closure.rows, p.coeffs) for p in phi.pieces], xs)
                seen["+inf" if v == POS_INF else "-inf" if v == NEG_INF else "finite"] += 1
        assert min(seen.values()) >= 40, seen

    def test_marginal_scalarization(self):
        rng = random.Random(77)
        seen = {"+inf": 0, "-inf": 0, "finite": 0}
        for k in range(120):
            f = random_bivariate(rng, HALFLINE_1D if k % 2 else ORTHANT_2D)
            for _, zs in random_dual_pairs(k, 2, f.cone, 1):
                phi = piecewise_scalarization(f.map, zs)
                for y in (F(-1), F(0), Fraction(3, 2)):
                    v = marginal_scalarization(f, zs, (y,))
                    assert v == lp_partial_infimum(phi, 1, (y,))
                    seen["+inf" if v == POS_INF else "-inf" if v == NEG_INF else "finite"] += 1
        assert min(seen.values()) >= 40, seen


def test_conjugates_and_weak_duality_solve_no_lp(lp_calls):
    f = fixture_by_id("abs-bivariate").map
    pairs = random_dual_pairs(7, 4, f.cone, f.p)
    phis = [piecewise_scalarization(f.map, zs) for _, zs in pairs]
    lp_calls.clear()
    offsets = [scalar_conjugate(phi, (F(0),) + ys) for phi, (ys, _) in zip(phis, pairs)]
    verdict = weak_duality_check(f, pairs)
    assert lp_calls == []
    assert verdict.status is Status.HOLDS
    assert offsets == [lp_conjugate(phi, (F(0),) + ys) for phi, (ys, _) in zip(phis, pairs)]
