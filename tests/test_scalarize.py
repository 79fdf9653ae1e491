"""Scalarizations, direction bases, closed forms and reconstruction."""

import random
from fractions import Fraction

import pytest

from upperset import scalarize
from upperset.continuity import default_config, verdict_matrix
from upperset.geometry import Cone, Polyhedron, dual_cone
from upperset.linalg import NEG_INF, POS_INF
from upperset.scalarize import (
    DirectionBase,
    certify_base,
    direction_fan,
    piecewise_scalarization,
    scalarize_eval,
)
from upperset.sets import UpperSet, set_order_leq, upper_closure

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


@pytest.fixture
def certification_lps(monkeypatch) -> list:
    """Arguments of every LP that scalarize solves (only certify_base does)."""
    calls = []
    real = scalarize.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scalarize, "solve_lp", counting)
    return calls


class TestCertifyBaseCache:
    def test_second_call_solves_no_lp(self, certification_lps):
        calls = certification_lps
        base = DirectionBase.default(ORTHANT, 4)
        assert certify_base(base) is True
        solved = len(calls)
        assert solved == len(dual_cone(ORTHANT).generators)
        assert certify_base(base) is True
        assert len(calls) == solved

    def test_failed_certification_is_cached(self, certification_lps):
        calls = certification_lps
        base = DirectionBase(ORTHANT, ((F(-1), F(0)),))
        assert certify_base(base) is False
        solved = len(calls)
        assert certify_base(base) is False
        assert len(calls) == solved > 0

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

    def test_one_lp_per_extreme_ray_per_matrix(self, certification_lps):
        verdict_matrix(halfline_domain_map(), [0], default_config().light())
        assert len(certification_lps) == len(dual_cone(ORTHANT).generators)


class TestConePassCache:
    """Double-description passes, counted the way TestCertifyBaseCache counts
    LPs: a cone's polyhedron, dual and fans are built once per cone object."""

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
        fresh = Cone(cone.dim, cone.generators, cone.halfspaces)
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
        twin = Cone(f.cone.dim, f.cone.generators, f.cone.halfspaces)
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
