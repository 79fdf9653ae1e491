"""Scalarizations, direction bases, closed forms and reconstruction."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from upperset.continuity import CheckerConfig, _Scan, default_config, verdict_matrix
from upperset.corpus import (
    HALFLINE_1D,
    ORTHANT_2D,
    RAY_CONE_2D,
    builtin_fixtures,
    fixture_by_id,
    random_convex_affine_maps,
)
from upperset.geometry import Cone, OrderConeError, Polyhedron, dual_cone, require_dual_direction
from upperset.linalg import NEG_INF, POS_INF, ZERO, dot, is_zero, scale_to_canonical, vec
from upperset.maps import AffineBody, PiecewiseBody, SetValuedMap, constant_cone_body, constant_empty_body
from upperset.scalarize import (
    DirectionBase,
    _unitize,
    certify_base,
    piecewise_scalarization,
    scalarization_value,
)
from upperset.sets import UpperSet, set_order_leq, upper_closure
from upperset.simplex import LPStatus, solve_lp

from linalg_oracle import nullspace
from test_maps import (
    ORTHANT,
    RAY,
    constant_map,
    halfline_domain_map,
    random_guard_body,
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


def scalarize_eval(f: SetValuedMap, zstar, x):
    """phi(x) = -sup{ z*.z : z in f(x) } with z* checked to lie in
    C^- \\ {0}; +inf on empty values, -inf when the support is unbounded.
    The oracle for ``scalarization_value``, which leaves the check to the
    direction base its callers read z* from."""
    zs = vec(zstar)
    require_dual_direction(f.cone, zs)
    s = f.evaluate(x).support(zs)
    if s == NEG_INF:
        return POS_INF
    if s == POS_INF:
        return NEG_INF
    return -s


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

    def test_unchecked_value_matches_the_oracle(self):
        # Over a default base, whose directions the base has checked, the
        # package's value equals the checked one, +-inf included.
        seen = set()
        for f in (tilted_halfplane_map(), halfline_domain_map(), ray_translate_map()):
            for zs in base_dirs(f.cone, 8, 2):
                for x in ((F(-2),), (F(-1),), (ZERO,), (Fraction(1, 3),), (F(1),)):
                    value = scalarization_value(f, zs, x)
                    assert value == scalarize_eval(f, zs, x)
                    seen.add(value if isinstance(value, float) else "finite")
        assert seen == {POS_INF, NEG_INF, "finite"}


def base_dirs(cone: Cone, fan: int, tails: int = 0) -> tuple:
    """The directions of the cone's default base."""
    return DirectionBase.default(cone, fan, tails).directions


class TestDirectionFan:
    def test_extreme_rays_present(self):
        dirs = base_dirs(ORTHANT, 8)
        assert (F(-1), F(0)) in dirs and (F(0), F(-1)) in dirs

    def test_all_directions_in_dual(self):
        for d in base_dirs(ORTHANT, 16, tails=6):
            assert all(c <= 0 for c in d)

    def test_tails_have_dyadic_slopes(self):
        slopes = set()
        for d in base_dirs(ORTHANT, 4, tails=4):
            if d[0] != 0:
                slopes.add(d[1] / d[0])
        for j in range(1, 5):
            assert F(1) / 2**j in slopes

    def test_halfplane_dual_fan(self):
        dirs = base_dirs(RAY, 8)
        # C^- is the lower halfplane; the fan must span it, not a slice.
        assert any(d[0] > 0 for d in dirs) and any(d[0] < 0 for d in dirs)
        assert all(d[1] <= 0 for d in dirs)

    def test_one_dimensional(self):
        cone = Cone.from_generators([[1]])
        assert base_dirs(cone, 8) == ((F(-1),),)


# -- the cell fan against the plane's angular fan ---------------------------------


def angular_fan(cone: Cone, fan: int, tails: int) -> tuple:
    """The fan of C^- as the package built it before one construction
    served every m, kept as the oracle for m <= 2: in the plane the
    generators are sorted by float angle around their sum, each arc between
    neighbours is blended ``fan // arcs`` ways, and ``tails`` adds
    r + 2^-j r' and 2^-j r + r' per arc."""
    dual = dual_cone(cone)
    gens = list(dict.fromkeys(scale_to_canonical(g) for g in dual.generators))
    if dual.dim == 1 or len(gens) == 1:
        return tuple(_unitize(g) for g in gens)
    assert dual.dim == 2
    ref = tuple(sum(g[i] for g in gens) for i in range(2))
    if is_zero(ref):
        ref = gens[0]
    ref_angle = math.atan2(float(ref[1]), float(ref[0]))

    def rel_angle(g) -> float:
        a = math.atan2(float(g[1]), float(g[0])) - ref_angle
        while a <= -math.pi:
            a += 2 * math.pi
        while a > math.pi:
            a -= 2 * math.pi
        return a

    ordered = sorted(gens, key=rel_angle)
    arcs = list(zip(ordered, ordered[1:]))
    per_arc = max(1, fan // len(arcs))
    out: dict = {}

    def push(d) -> None:
        if not is_zero(d) and dual.contains(d):
            out.setdefault(_unitize(d))

    for a, b in arcs:
        for i in range(per_arc + 1):
            w = Fraction(i, per_arc)
            push(tuple((1 - w) * ai + w * bi for ai, bi in zip(a, b)))
        for j in range(1, tails + 1):
            t = Fraction(1, 2**j)
            push(tuple(ai + t * bi for ai, bi in zip(a, b)))
            push(tuple(t * ai + bi for ai, bi in zip(a, b)))
    return tuple(out)


FAN_SETTINGS = [(32, 24), (8, 10), (16, 0), (4, 0), (2, 0)]
TRIVIAL_2D = Cone.from_halfspaces([[1, 0], [-1, 0], [0, 1], [0, -1]])
ORTHANT_3D = Cone.from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
ORTHANT_4D = Cone.from_generators([[int(i == j) for j in range(4)] for i in range(4)])
WEDGE_3D = Cone.from_halfspaces([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
# {z1, z2 >= 0} in R^3: C has lineality, so C^- lacks interior.
SLAB_3D = Cone.from_halfspaces([[1, 0, 0], [0, 1, 0]], 3)


def seeded_plane_cones(seed: int, count: int) -> list[Cone]:
    """Plane ordering cones with entries in [-4, 4], alternating the two
    constructors; C = {0}, whose C^- is the whole plane, is left out."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        vectors = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(rng.randint(1, 3))]
        try:
            if len(cones) % 2:
                cone = Cone.from_halfspaces(vectors, 2)
            else:
                cone = Cone.from_generators(vectors)
        except (OrderConeError, ValueError):
            continue
        if cone.generators:
            cones.append(cone)
    return cones


def same_rays(dirs) -> set:
    return {scale_to_canonical(d) for d in dirs}


class TestCellFan:
    """One construction builds the fan in every m: cells of C^-'s
    generators, each subdivided edgewise, with dyadic tails along every
    cell edge.  In the plane and on the line it returns the angular fan's
    directions in the angular fan's order."""

    def test_plane_fans_equal_the_angular_fan(self):
        line = Cone.from_halfspaces([[1, 2], [-1, -2]])
        ray = Cone.from_generators([[1, 0], [-1, 0], [0, 1]])
        corpus = [ORTHANT_2D, RAY_CONE_2D, HALFLINE_1D, Cone.from_halfspaces([[1], [-1]]), line, ray]
        cones = corpus + seeded_plane_cones(1315, 220)
        kinds = {"C^- a ray or a line": 0, "C^- with lineality": 0, "pointed C^-": 0}
        for cone in cones:
            dual = dual_cone(cone)
            for fan_size, tails in FAN_SETTINGS:
                assert base_dirs(cone, fan_size, tails) == angular_fan(cone, fan_size, tails), (cone, fan_size, tails)
            if cone.dim == 2:
                rank = 2 - len(nullspace(dual.generators, 2))
                kinds["C^- a ray or a line" if rank == 1 else "pointed C^-" if dual.pointed else "C^- with lineality"] += 1
        assert min(kinds.values()) >= 5, kinds

    def test_whole_plane_dual_has_every_quadrant(self):
        # The angular fan sorted around gens[0] here and left out the
        # quadrant between -e1 and -e2; the cells cover all four.
        for fan_size, tails in ((8, 10), (32, 24)):
            rays = same_rays(base_dirs(TRIVIAL_2D, fan_size, tails))
            for s1, s2 in itertools.product((1, -1), repeat=2):
                assert (F(s1), F(s2)) in rays
        assert certify_base(DirectionBase.default(TRIVIAL_2D, 8, 10)) is True

    @pytest.mark.parametrize(
        "cone", [ORTHANT_3D, WEDGE_3D, SLAB_3D, ORTHANT_4D], ids=["orthant-3d", "wedge-3d", "slab-3d", "orthant-4d"]
    )
    def test_higher_dimensional_fans(self, cone):
        dual = dual_cone(cone)
        gens = list(dict.fromkeys(scale_to_canonical(g) for g in dual.generators))
        sizes = [len(base_dirs(cone, fan_size, tails)) for fan_size, tails in ((4, 0), (8, 10), (32, 24))]
        assert sizes == sorted(set(sizes)), sizes
        for fan_size, tails in ((8, 10), (32, 24)):
            base = DirectionBase.default(cone, fan_size, tails)
            for d in base.directions:
                assert all(isinstance(c, Fraction) for c in d)
                assert not is_zero(d) and dual.contains(d)
            # Two generators share a cell exactly when they are independent.
            rays = same_rays(base.directions)
            for r, s in itertools.permutations(gens, 2):
                if len(nullspace([r, s], cone.dim)) == cone.dim - 2:
                    for j in range(1, tails + 1):
                        tail = tuple(a + F(1) / 2**j * b for a, b in zip(r, s))
                        assert scale_to_canonical(tail) in rays, (r, s, j)
            assert certify_base(base) is True

    def test_light_and_default_fans_differ_in_3d(self):
        light, default = default_config().light(), default_config()
        assert base_dirs(ORTHANT_3D, light.z_fan, light.z_tails) != base_dirs(ORTHANT_3D, default.z_fan, default.z_tails)


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
        scan = _Scan(constant_map(cone), [0], CheckerConfig(z_fan=4, z_tails=2))
        assert scan.fan is base.directions
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
            "default_base": lambda: DirectionBase.default(fresh, 8, 2),
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
        # Counted from the cone's construction, whose pass is its V-form.
        cone = Cone.from_halfspaces([[1, 0, 0], [0, 1, 0], [1, 1, -1]])
        cone_rows = Polyhedron(3, [(n, 0) for n in cone.halfspaces])._int_rows
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
        DirectionBase.default(twin, cfg.z_fan, cfg.z_tails)
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


def _guards(body):
    if isinstance(body, PiecewiseBody):
        yield body.guard
        yield from _guards(body.when_true)
        yield from _guards(body.when_false)


def _off_the_guards(body, x) -> bool:
    """Whether x lies off every guard hyperplane g.x = h; a guard with g = 0
    is constant and has none."""
    return all(not any(g) or sum(a * b for a, b in zip(g, x)) != h for g, h in _guards(body))


class TestClosedFormsOnGuardTrees:
    """On seeded guard trees whose leaves are all constant-normal affine or
    constant empty, the closed form equals the pointwise scalarization off
    the guard hyperplanes, +-inf included."""

    def test_match_pointwise_values_off_the_guards(self):
        trees, kinds = 0, Counter()
        for body, f, directions, forms, xs in seed13_closed_forms():
            trees += 1
            for x in xs:
                if not _off_the_guards(body, x):
                    continue
                for u, phi in zip(directions, forms):
                    value = scalarization_value(f, u, x)
                    assert phi(x) == value, (i, x, u)
                    kinds[_extended_kind(value)] += 1
        assert trees >= 80
        assert set(kinds) == {"finite", "+inf", "-inf"} and sum(kinds.values()) >= 40000, kinds

    def test_match_pointwise_values_at_the_integer_points(self):
        # Every guard has integer coefficients, so guard hyperplanes pass
        # through integer points; the reads there are included.
        reads, on_guards = 0, 0
        for body, f, directions, forms, xs in seed13_closed_forms():
            for x in filter(_integral, xs):
                on_guards += not _off_the_guards(body, x)
                for u, phi in zip(directions, forms):
                    assert phi(x) == scalarization_value(f, u, x), (x, u)
                    reads += 1
        assert reads == 13055 and on_guards >= 100, (reads, on_guards)

    def test_regions_that_share_a_point_share_its_value(self):
        # So a closed form's value does not depend on the order in which
        # its pieces and -inf regions are read.
        shared = 0
        for _, _, _, forms, xs in seed13_closed_forms():
            for phi, x in itertools.product(forms, filter(_integral, xs)):
                values = [dot(p.coeffs, x) + p.const for p in phi.pieces if p.region.contains(x)]
                values += [NEG_INF for r in phi.minus_inf_regions if r.contains(x)]
                assert len(set(values)) <= 1, (x, values)
                shared += len(values) > 1
        assert shared >= 2, shared

    @pytest.mark.parametrize(
        "true_branch, value",
        [
            (constant_empty_body(1, 2), POS_INF),
            (AffineBody(normals=(), offsets=(), x_coeffs=()), NEG_INF),
        ],
        ids=["empty", "whole-plane"],
    )
    def test_boundary_of_a_true_branch_without_finite_values(self, true_branch, value):
        # C on the false side x < 0; at x = 0 the true branch decides.
        body = PiecewiseBody(((F(1),), F(0)), true_branch, constant_cone_body(ORTHANT, 1))
        f = SetValuedMap(1, ORTHANT, body)
        assert scalarization_value(f, (-1, -1), (F(0),)) == value
        assert piecewise_scalarization(f, (-1, -1))((F(0),)) == value


def seed13_closed_forms():
    """(body, map, directions, closed forms, grid) per seed-13 guard tree
    with closed forms, in dimensions 1 and 2: quarters in [-3, 3] on the
    line, halves in [-3, 3]^2 in the plane."""
    rng = random.Random(13)
    directions = DirectionBase.default(ORTHANT, 4).directions
    quarters = [Fraction(k, 4) for k in range(-12, 13)]
    for i in range(400):
        n = 1 + i % 2
        body = random_guard_body(rng, n, 3)
        f = SetValuedMap(n, ORTHANT, body)
        forms = [piecewise_scalarization(f, u) for u in directions]
        if forms[0] is None:
            assert all(form is None for form in forms)
            continue
        xs = [(a,) for a in quarters] if n == 1 else list(itertools.product(quarters[::2], repeat=2))
        yield body, f, directions, forms, xs


def _integral(x) -> bool:
    return all(c.denominator == 1 for c in x)


def seeded_point(rng: random.Random, dim: int, bound: int) -> tuple:
    """A point of quarters in [-bound/4, bound/4]^dim."""
    return tuple(Fraction(rng.randint(-bound, bound), 4) for _ in range(dim))


def _extended_kind(value) -> str:
    """'finite' for a Fraction, '+inf' or '-inf' for an infinite float, and
    the type and value of anything else."""
    if type(value) is Fraction:
        return "finite"
    if type(value) is float and math.isinf(value):
        return "+inf" if value > 0 else "-inf"
    return f"{type(value).__name__} {value!r}"


class TestExtendedReads:
    """The reads the checkers run thousands of times return a Fraction or
    an infinite float, never an int or a finite float, since the package
    tells an infinity from a Fraction by its type alone."""

    def test_reads_are_fractions_or_infinities(self, monkeypatch):
        kinds = Counter()

        def record(owner, name):
            real = getattr(owner, name)

            def recorded(*args):
                value = real(*args)
                kinds[owner.__name__, name, _extended_kind(value)] += 1
                return value

            monkeypatch.setattr(owner, name, recorded)

        for owner in (Polyhedron, UpperSet):
            record(owner, "support")
            record(owner, "dist_sq")
        rng = random.Random(26)
        cases = []
        for fixture in builtin_fixtures():
            f = getattr(fixture.map, "map", fixture.map)
            if fixture.points:
                steps = (0, Fraction(1, 2), Fraction(-1, 8))
                xs = [tuple(a + d for a in point.at) for point in fixture.points for d in steps]
            else:
                xs = [seeded_point(rng, f.domain_dim, 8) for _ in range(4)]
            cases.append((f, xs))
        for seed in (1, 2, 3):
            for f in random_convex_affine_maps(seed, 4):
                cases.append((f, [seeded_point(rng, 1, 8) for _ in range(4)]))
        cfg = default_config().light()
        for f, xs in cases:
            directions = DirectionBase.default(f.cone, cfg.z_fan, cfg.z_tails).directions
            for x in xs:
                value = f.evaluate(x)
                for zs in directions:
                    phi = scalarization_value(f, zs, x)
                    kinds["scalarization_value", _extended_kind(phi)] += 1
                if value.is_polyhedral:
                    for _ in range(3):
                        value.dist_sq(seeded_point(rng, f.cone.dim, 12))
        wrong = [key for key in kinds if key[-1] not in ("finite", "+inf", "-inf")]
        assert wrong == []
        assert len(cases) == 19
        # The kinds each read can return here: a value's pieces are never
        # empty, so a piece's support is never -inf and its distance never
        # +inf; an empty value has support -inf and distance +inf.
        expected = {
            ("Polyhedron", "support"): {"finite", "+inf"},
            ("UpperSet", "support"): {"finite", "+inf", "-inf"},
            ("scalarization_value",): {"finite", "+inf", "-inf"},
            ("Polyhedron", "dist_sq"): {"finite"},
            ("UpperSet", "dist_sq"): {"finite", "+inf"},
        }
        assert {key[:-1] for key in kinds} == set(expected)
        for read, want in expected.items():
            assert {kind for *r, kind in kinds if tuple(r) == read} == want, read
