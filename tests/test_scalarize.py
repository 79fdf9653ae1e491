"""Scalarizations, direction bases, closed forms and reconstruction."""

import random
from fractions import Fraction

import pytest

from upperset.continuity import default_config, verdict_matrix
from upperset.corpus import ORTHANT_2D, fixture_by_id, random_convex_affine_maps
from upperset.geometry import Cone, OrderConeError, Polyhedron, dual_cone
from upperset.linalg import NEG_INF, POS_INF, ZERO
from upperset.maps import SetValuedMap
from upperset.scalarize import (
    DirectionBase,
    certify_base,
    direction_fan,
    piecewise_scalarization,
    scalarize_eval,
)
from upperset.sets import UpperSet, set_order_leq, upper_closure
from upperset.simplex import LPStatus, solve_lp

from test_maps import (
    ORTHANT,
    RAY,
    constant_map,
    halfline_domain_map,
    ray_translate_map,
    tilted_halfplane_map,
)
from test_sets import point_polyhedron, sets_equal


def F(x):
    return Fraction(x)


def fresh_cone(cone: Cone) -> Cone:
    """A twin of the cone with nothing stored on it yet: no dual, fans or
    bases, so whatever a test counts is not left over from an earlier one."""
    return Cone(cone.dim, cone.generators, cone.halfspaces)


def on_cone(f: SetValuedMap, cone: Cone) -> SetValuedMap:
    """The map f rebuilt over the given cone object."""
    return SetValuedMap(f.domain_dim, cone, f.body, name=f.name)


def reconstruct(f, x, base: DirectionBase) -> UpperSet:
    """Outer reconstruction of f(x) from its scalarizations over the base:
    the intersection of the halfspaces {z : u.z <= -phi_u(x)}.

    Always contains f(x); exact for polyhedral values once the base contains
    the value's facet normals (up to positive scaling).
    """
    return UpperSet.from_supports(
        f.cone, ((u, -scalarize_eval(f, u, x)) for u in base.directions)
    )


class TestScalarizeEval:
    def test_tilted_halfplane_matched_direction(self):
        # At x = 1 the direction (-1,-1) satisfies x z1* = z2*, and the
        # value is -(z1* + z2*) = 2.
        f = tilted_halfplane_map()
        assert scalarize_eval(f, [-1, -1], [1]) == 2

    def test_tilted_halfplane_mismatched_direction(self):
        f = tilted_halfplane_map()
        assert scalarize_eval(f, [-1, 0], [1]) == NEG_INF

    def test_tilted_halfplane_left_branch(self):
        f = tilted_halfplane_map()
        assert scalarize_eval(f, [-1, -1], [-1]) == 0

    def test_empty_value_gives_plus_inf(self):
        f = halfline_domain_map()
        assert scalarize_eval(f, [-1, -1], [-2]) == POS_INF

    def test_direction_validation(self):
        f = constant_map()
        with pytest.raises(ValueError):
            scalarize_eval(f, [1, 0], [0])
        with pytest.raises(ValueError):
            scalarize_eval(f, [0, 0], [0])

    def test_positive_homogeneity(self):
        rng = random.Random(17)
        f = ray_translate_map()
        for _ in range(20):
            zs = (F(-rng.randint(0, 4)), F(-rng.randint(1, 4)))
            lam = F(rng.randint(1, 5))
            x = [F(rng.randint(-3, 3))]
            base_val = scalarize_eval(f, zs, x)
            scaled = scalarize_eval(f, tuple(lam * c for c in zs), x)
            if not isinstance(base_val, float):
                assert scaled == lam * base_val

    def test_midpoint_convexity_on_convex_map(self):
        f = ray_translate_map()
        rng = random.Random(5)
        for _ in range(15):
            x1, x2 = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
            t = F(rng.randint(1, 7)) / 8
            mid = t * x1 + (1 - t) * x2
            for zs in [(-1, 0), (0, -1), (-2, -1)]:
                vm = scalarize_eval(f, zs, [mid])
                v1 = scalarize_eval(f, zs, [x1])
                v2 = scalarize_eval(f, zs, [x2])
                if not any(isinstance(v, float) for v in (vm, v1, v2)):
                    assert vm <= t * v1 + (1 - t) * v2


class TestDirectionFan:
    def test_extreme_rays_present(self):
        fan = direction_fan(ORTHANT, 8)
        assert (F(-1), F(0)) in fan and (F(0), F(-1)) in fan

    def test_all_directions_in_dual(self):
        fan = direction_fan(ORTHANT, 16, tails=6)
        for d in fan:
            assert all(c <= 0 for c in d)

    def test_tails_have_dyadic_slopes(self):
        fan = direction_fan(ORTHANT, 4, tails=4)
        slopes = set()
        for d in fan:
            if d[0] != 0:
                slopes.add(d[1] / d[0])
        for j in range(1, 5):
            assert F(1) / 2**j in slopes

    def test_halfplane_dual_fan(self):
        fan = direction_fan(RAY, 8)
        # C^- is the lower halfplane; the fan must span it, not a slice.
        assert any(d[0] > 0 for d in fan) and any(d[0] < 0 for d in fan)
        assert all(d[1] <= 0 for d in fan)

    def test_one_dimensional(self):
        cone = Cone.from_generators([[1]])
        assert direction_fan(cone, 8) == ((F(-1),),)


class TestCertifyBase:
    def test_unit_extreme_rays(self):
        base = DirectionBase(ORTHANT, ((F(-1), F(0)), (F(0), F(-1))))
        assert certify_base(base) is True

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            DirectionBase(ORTHANT, ((F(0), F(0)),))

    def test_single_ray_does_not_generate(self):
        base = DirectionBase(ORTHANT, ((F(-1), F(0)),))
        assert certify_base(base) is False


def separation_lp_generates(base: DirectionBase) -> bool:
    """cone(B) = C^- by separation LPs, the formulation ``certify_base``
    replaced: no generator r of C^- separates from B, that is, max r.y over
    {y : d.y <= 0 for d in B, |y_i| <= 1} is zero for every r."""
    dim = base.cone.dim
    for r in dual_cone(base.cone).generators:
        rows = [(tuple(-c for c in d), ZERO) for d in base.directions]
        for i in range(dim):
            for s in (1, -1):
                e = [ZERO] * dim
                e[i] = F(s)
                rows.append((tuple(e), F(-1)))
        res = solve_lp(r, rows, sense="max")
        if res.status is not LPStatus.OPTIMAL or res.value > 0:
            return False
    return True


def seeded_cones(rng: random.Random, dim: int):
    """Ordering cones in R^dim from both constructors: random generators or
    normals, so some have lineality and some lack interior (their C^- has
    lineality), plus the orthant, the trivial cone {0} and, in the plane,
    the ray cone, whose C^- is a half-plane."""
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    yield Cone.from_generators(unit)
    yield Cone.from_halfspaces(unit + [tuple(-c for c in u) for u in unit])
    if dim == 2:
        yield RAY
    for _ in range(6):
        vectors = [[rng.randint(-2, 3) for _ in range(dim)] for _ in range(rng.randint(1, dim + 1))]
        try:
            if rng.random() < 0.5:
                yield Cone.from_generators(vectors)
            else:
                yield Cone.from_halfspaces(vectors, dim)
        except OrderConeError:
            continue


def rescaled(rng: random.Random, d) -> tuple:
    """d times a random positive rational."""
    lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return tuple(lam * c for c in d)


def blend(vectors, weights) -> tuple:
    """The combination of the vectors with the given weights."""
    return tuple(sum(w * v[i] for w, v in zip(weights, vectors)) for i in range(len(vectors[0])))


def seeded_bases(rng: random.Random, cone: Cone):
    """Bases in C^-: all of its generators or a random subset of them, plus
    up to three random nonnegative blends of them, each direction rescaled."""
    gens = list(dual_cone(cone).generators)
    for _ in range(4):
        keep = gens if rng.random() < 0.3 else [g for g in gens if rng.random() < 0.6]
        blends = [blend(gens, [rng.randint(0, 2) for _ in gens]) for _ in range(rng.randint(0, 3))]
        dirs = [rescaled(rng, d) for d in keep + blends if any(d)]
        if dirs:
            yield DirectionBase(cone, tuple(dirs))


class TestCertifyBaseOracle:
    """``certify_base`` reads the polar cone of the base off one double
    description; the separation LPs it replaced serve as the oracle."""

    def test_matches_separation_lps_on_seeded_bases(self):
        rng = random.Random(20261019)
        verdicts = {True: 0, False: 0}
        by_dim = {}
        kinds = {"dual lineality": 0, "trivial cone": 0}
        # Fewer rounds where the oracle's LPs grow: 8 generators of C^- in m = 4.
        for dim, rounds in ((1, 6), (2, 6), (3, 4), (4, 2)):
            for _ in range(rounds):
                for cone in seeded_cones(rng, dim):
                    for base in seeded_bases(rng, cone):
                        got = certify_base(base)
                        assert got == separation_lp_generates(base), (cone, base.directions)
                        # cone(B) does not change when each direction is rescaled.
                        scaled = DirectionBase(cone, tuple(rescaled(rng, d) for d in base.directions))
                        assert certify_base(scaled) == got
                        verdicts[got] += 1
                        by_dim[dim] = by_dim.get(dim, 0) + 1
                        kinds["dual lineality"] += not dual_cone(cone).pointed
                        kinds["trivial cone"] += not cone.generators
        assert sum(verdicts.values()) >= 500, verdicts
        assert verdicts[True] >= 200 and verdicts[False] >= 150, verdicts
        assert min(by_dim.values()) >= 60, by_dim
        assert kinds["dual lineality"] >= 150 and kinds["trivial cone"] >= 75, kinds

    def test_trivial_cone(self):
        # C = {0}, so C^- is the plane: a base generates it exactly when it
        # spans it positively, and then its polar is {0}.
        trivial = Cone.from_halfspaces([[1, 0], [-1, 0], [0, 1], [0, -1]])
        base = DirectionBase(trivial, ((F(1), F(0)), (F(0), F(1)), (F(-1), F(-1))))
        assert certify_base(base) is True
        half = DirectionBase(trivial, ((F(1), F(0)), (F(-1), F(0)), (F(0), F(1))))
        assert certify_base(half) is False

class TestCertifyBaseCache:
    """Certification runs one double-description pass, for the polar cone
    of the base, the first time a base is certified, and none after."""

    def test_second_call_solves_no_lp(self, dd_passes, lp_calls):
        cone = fresh_cone(ORTHANT)
        base = DirectionBase.default(cone, 4)
        dd_passes.clear()
        assert certify_base(base) is True
        assert [caller for caller, _, _ in dd_passes] == ["_cone_rays"]
        dd_passes.clear()
        assert certify_base(base) is True
        assert dd_passes == [] and lp_calls == []

    def test_failed_certification_is_cached(self, dd_passes):
        base = DirectionBase(fresh_cone(ORTHANT), ((F(-1), F(0)),))
        dd_passes.clear()
        assert certify_base(base) is False
        assert len(dd_passes) == 1
        dd_passes.clear()
        assert certify_base(base) is False
        assert dd_passes == []

    @pytest.mark.parametrize("radius", [Fraction(1), Fraction(5, 2)])
    def test_cached_equals_fresh(self, radius):
        # Scaling every direction by r > 0 leaves cone(B) alone, so the
        # fresh base r*B, certified anew, reads the cached verdict.
        for cone, fan, tails in ((ORTHANT, 4, 2), (RAY, 4, 0)):
            base = DirectionBase.default(cone, fan, tails)
            cached = certify_base(base)
            fresh = DirectionBase(cone, base.directions)
            assert fresh == base and "_generates_dual" not in fresh.__dict__
            assert certify_base(base) == certify_base(fresh) == cached
            scaled = DirectionBase(cone, tuple(tuple(radius * c for c in d) for d in base.directions))
            assert "_generates_dual" not in scaled.__dict__
            assert cached is True and certify_base(scaled) is True

    def test_one_pass_per_cone(self, dd_passes):
        cone = fresh_cone(ORTHANT)
        dual_cone(cone)
        f = on_cone(halfline_domain_map(), cone)
        dd_passes.clear()
        for x0 in ([0], [1]):
            verdict_matrix(f, x0, default_config().light())
        assert certification_passes(dd_passes, cone) == 1


def certification_passes(dd_passes: list, cone: Cone) -> int:
    """How many of the recorded passes built a cone from rows.  Once the
    cone's dual is built, the matrix route builds no other cone, so these
    are ``certify_base``'s polar-cone passes."""
    assert "_dual" in cone.__dict__
    return [caller for caller, _, _ in dd_passes].count("_cone_rays")


class TestBasePerCone:
    """``DirectionBase.default`` keeps one base per cone object and (fan,
    tails), so every matrix over one cone reads one certification."""

    def test_one_base_per_cone_fan_and_tails(self):
        cone = fresh_cone(ORTHANT)
        base = DirectionBase.default(cone, 4, 2)
        assert DirectionBase.default(cone, 4, 2) is base
        assert direction_fan(cone, 4, 2) is base.directions
        assert DirectionBase.default(cone, 4) is not base
        twin = fresh_cone(cone)
        assert DirectionBase.default(twin, 4, 2) is not base
        assert DirectionBase.default(twin, 4, 2) == base

    def test_matrices_over_one_cone_certify_its_base_once(self, dd_passes):
        cone = fresh_cone(ORTHANT_2D)
        dual_cone(cone)
        dd_passes.clear()
        maps = [
            fixture_by_id("orthant-halfline").map,
            fixture_by_id("tilted-halfplane").map,
            random_convex_affine_maps(1, 1)[0],
        ]
        for f in maps:
            verdict_matrix(on_cone(f, cone), [0], default_config().light())
        assert certification_passes(dd_passes, cone) == 1

    def test_warm_bases_change_no_matrix(self):
        cfg = default_config().light()
        points = ([-1], [0], [F(1) / 2])
        cone = fresh_cone(ORTHANT_2D)
        maps = random_convex_affine_maps(5, 4)
        warm = [verdict_matrix(on_cone(f, cone), x0, cfg).to_json() for f in maps for x0 in points]
        cold = []
        for f in maps:
            for x0 in points:
                cone.__dict__.pop("_bases", None)
                cold.append(verdict_matrix(on_cone(f, cone), x0, cfg).to_json())
        assert cold == warm


class TestConePassCache:
    """Double-description passes, counted as TestCertifyBaseCache counts
    them: a cone's polyhedron, dual and fans are built once per cone object."""

    @pytest.mark.parametrize(
        "cone",
        [
            Cone.from_generators([[1, 0], [0, 1]]),
            Cone.from_halfspaces([[1, 0], [-1, 0], [0, 1]]),
            Cone.from_generators([[1, 0], [-1, 0], [1, 1]]),
            Cone.from_halfspaces([[1, 0, 0], [0, 1, 0], [1, 1, -1]]),
        ],
        ids=["orthant", "ray", "halfplane", "wedge-3d"],
    )
    def test_second_query_runs_no_pass(self, cone, dd_passes):
        fresh = fresh_cone(cone)
        queries = {
            "dual_cone": lambda: dual_cone(fresh),
            "direction_fan": lambda: direction_fan(fresh, 8, 2),
            "pointed": lambda: fresh.pointed,
            "has_interior": lambda: fresh.has_interior,
            "contains": lambda: fresh.contains(cone.generators[-1]),
        }
        for name, query in queries.items():
            first = query()
            dd_passes.clear()
            assert query() == first
            assert dd_passes == [], name

    def test_closures_under_one_cone_build_its_vform_once(self, dd_passes):
        cone = Cone.from_halfspaces([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        cone_rows = Polyhedron(3, [(n, 0) for n in cone.halfspaces])._int_rows
        dd_passes.clear()
        upper_closure(point_polyhedron([1, 2, 3]), cone)
        upper_closure(Polyhedron.box([(0, 1), (-1, 1), (2, 3)]), cone)
        assert [rows for _, rows, _ in dd_passes].count(tuple(cone_rows)) == 1

    @pytest.mark.parametrize("make_map", [halfline_domain_map, ray_translate_map])
    def test_second_matrix_runs_no_cone_pass(self, make_map, dd_passes):
        f = make_map()
        cfg = default_config().light()
        verdict_matrix(f, [0], cfg)
        dd_passes.clear()
        verdict_matrix(f, [0], cfg)
        second = {(rows, dim) for _, rows, dim in dd_passes}
        # The passes that the cone's dual, fan and flags take on a twin of
        # the cone that has none of them stored yet.
        dd_passes.clear()
        twin = fresh_cone(f.cone)
        direction_fan(twin, cfg.z_fan, cfg.z_tails)
        assert (twin.pointed, twin.has_interior) == (f.cone.pointed, f.cone.has_interior)
        cone_passes = {(rows, dim) for _, rows, dim in dd_passes}
        assert cone_passes and not second & cone_passes


class TestReconstruct:
    def test_exact_for_cone_translate(self):
        f = constant_map()
        base = DirectionBase.default(ORTHANT, 4)
        rec = reconstruct(f, [0], base)
        assert sets_equal(rec, f.evaluate([0]))

    def test_outer_containment_always(self):
        f = ray_translate_map()
        base = DirectionBase.default(RAY, 8)
        for x in ([0], [1], [F(-3) / 2]):
            rec = reconstruct(f, x, base)
            # rec is an outer approximation: f(x) <=_lattice rec means rec
            # contains f(x)... order: set_order_leq(rec, f(x)) iff f(x) <= rec.
            assert set_order_leq(rec, f.evaluate(x))

    def test_exact_when_base_covers_normal_fan(self):
        f = ray_translate_map()
        dirs = ((F(-1), F(0)), (F(1), F(0)), (F(0), F(-1)))
        base = DirectionBase(RAY, dirs)
        rec = reconstruct(f, [2], base)
        assert sets_equal(rec, f.evaluate([2]))

    def test_empty_value(self):
        f = halfline_domain_map()
        base = DirectionBase.default(ORTHANT, 4)
        assert reconstruct(f, [-1], base).is_empty


class TestClosedForm:
    def test_ray_translate_closed_form(self):
        f = ray_translate_map()
        phi = piecewise_scalarization(f, (-1, 0))
        assert phi is not None
        for x in (F(-3), F(0), F(5), F(1) / 2):
            assert phi((x,)) == x  # phi(x) = inf{z1} = x on the ray

    def test_closed_form_matches_pointwise(self):
        f = halfline_domain_map()
        for zs in [(-1, 0), (0, -1), (-1, -2)]:
            phi = piecewise_scalarization(f, zs)
            assert phi is not None
            for x in (F(-2), F(-1) / 2, F(0), F(1), F(7) / 2):
                assert phi((x,)) == scalarize_eval(f, zs, [x])

    def test_minus_inf_branch(self):
        # f(x) = whole plane as an upper set: support +inf, phi = -inf.
        cone = ORTHANT
        from upperset.maps import AffineBody, SetValuedMap

        f = SetValuedMap(
            1,
            cone,
            AffineBody(normals=(), offsets=(), x_coeffs=()),
            name="universal",
        )
        phi = piecewise_scalarization(f, (-1, -1))
        assert phi is not None
        assert phi((F(0),)) == NEG_INF

    def test_no_closed_form_for_tilting_normals(self):
        assert piecewise_scalarization(tilted_halfplane_map(), (-1, -1)) is None
