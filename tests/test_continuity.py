"""Checker layer structure: the implication diagram, side conditions and
checker settings, on hand-built matrices and small maps."""

import json
from fractions import Fraction

import pytest

from upperset.continuity import (
    MATRIX_KEYS,
    _Scan,
    _outside_probes,
    _value_sample_points,
    CheckerConfig,
    Grid,
    VerdictMatrix,
    check_eff,
    check_hlc,
    check_huc,
    check_lc,
    check_lls,
    check_scalar_semicontinuity,
    check_uc,
    check_uniform,
    check_uls,
    default_config,
    diagram_violations,
    enforce_diagram,
    verdict_matrix,
)
from upperset.corpus import builtin_fixtures, fixture_by_id, random_convex_affine_maps
from upperset.duality import BivariateMap
from upperset.geometry import Cone, Polyhedron
from upperset.linalg import vec
from upperset.maps import (
    AffineBody,
    AffineForm,
    PiecewiseBody,
    ScaledBody,
    SetValuedMap,
    constant_cone_body,
    constant_empty_body,
    graph_interior_witness,
)
from upperset.scalarize import DirectionBase
from upperset.sets import UpperSet, member, set_order_leq, upper_closure
from upperset.verdict import Status, Verdict, Witness

from test_sets import orthant_oracle

ORTHANT = Cone.from_generators([[1, 0], [0, 1]])

# Every side condition off; a test turns on what its implication needs.
SIDE_OFF = {
    "convex": False,
    "convex_valued": False,
    "int_c": False,
    "bn": True,
    "in_dom": False,
    "base_certified": False,
}

TINY = CheckerConfig(
    radii=Grid(levels=2),
    z_radii=Grid(levels=1),
    z_fan=4,
    z_tails=2,
    confirm_levels=1,
)


def _matrix(holds=(), fails=(), **side):
    """Inconclusive everywhere except the named holds / fails entries."""
    entries = {key: Verdict.inconclusive(resolution=1) for key in MATRIX_KEYS}
    for key in holds:
        entries[key] = Verdict.holds(resolution=3)
    for key in fails:
        entries[key] = Verdict.fails(Witness(detail="hand-built"), resolution=5)
    return VerdictMatrix(entries=entries, side={**SIDE_OFF, **side})


def _two_piece_scaled_map():
    """f(x) = (x + 1) A with A the union of two shifted orthants."""
    base = UpperSet(
        ORTHANT,
        pieces=[
            Polyhedron(2, [([1, 0], 0), ([0, 1], 1)]),
            Polyhedron(2, [([1, 0], 1), ([0, 1], 0)]),
        ],
    )
    return SetValuedMap(1, ORTHANT, ScaledBody(base, AffineForm.of([1], 1)))


class TestEnforceDiagram:
    def test_one_violation_downgrades_exactly_its_pair(self):
        m = _matrix(holds=["huc"], fails=["lls"])
        before = dict(m.entries)
        assert enforce_diagram(m) == ["huc implies lls"]
        assert len(m.artifacts) == 1 and "huc implies lls" in m.artifacts[0]
        for key in ("huc", "lls"):
            assert m.entries[key].status is Status.INCONCLUSIVE
            assert m.entries[key].note == "downgraded: huc implies lls"
            assert m.entries[key].resolution == before[key].resolution
        for key in MATRIX_KEYS:
            if key not in ("huc", "lls"):
                assert m.entries[key] is before[key]

    def test_first_downgrade_stops_a_later_implication(self):
        # 'uls implies lc' comes first and downgrades uls, so 'uls implies
        # lba on dom' no longer fires and lba keeps its failure.
        m = _matrix(holds=["uls"], fails=["lc", "lba"], in_dom=True)
        assert diagram_violations(m) == ["uls implies lc", "uls implies lba on dom"]
        assert enforce_diagram(m) == ["uls implies lc"]
        assert m.entries["uls"].status is Status.INCONCLUSIVE
        assert m.entries["lc"].status is Status.INCONCLUSIVE
        assert m.entries["lba"].is_fails
        assert len(m.artifacts) == 1

    def test_violations_leave_the_matrix_unchanged(self):
        m = _matrix(holds=["uls", "huc"], fails=["lc", "lba", "lls"], in_dom=True)
        before = json.dumps(m.to_json(), sort_keys=True)
        assert diagram_violations(m) == [
            "uls implies lc",
            "huc implies lls",
            "uls implies lba on dom",
        ]
        assert json.dumps(m.to_json(), sort_keys=True) == before

    def test_false_guard_blocks_a_downgrade(self):
        blocked = _matrix(holds=["lc"], fails=["uls"], int_c=False)
        assert enforce_diagram(blocked) == []
        assert blocked.entries["uls"].is_fails and blocked.artifacts == []
        fired = _matrix(holds=["lc"], fails=["uls"], int_c=True)
        assert enforce_diagram(fired) == ["lc implies uls under interior cone"]


class TestConvexValued:
    def test_corpus_and_random_maps_are_convex_valued(self):
        maps = [fx.map for fx in builtin_fixtures() if not isinstance(fx.map, BivariateMap)]
        maps += random_convex_affine_maps(3, 4)
        assert maps and all(f.convex_valued for f in maps)

    def test_two_piece_scaled_base_is_not_convex_valued(self):
        f = _two_piece_scaled_map()
        assert f.convex_valued is False
        guarded = PiecewiseBody(((Fraction(1),), Fraction(0)), f.body, constant_empty_body(1, 2))
        assert SetValuedMap(1, ORTHANT, guarded).convex_valued is False
        assert SetValuedMap(1, ORTHANT, fixture_by_id("parabola-dilation").map.body).convex_valued

    def test_two_piece_values_do_not_fire_the_convex_values_guard(self):
        side = verdict_matrix(_two_piece_scaled_map(), (0,), TINY).side
        assert side["convex_valued"] is False
        m = _matrix(holds=["cminus_lsc"], fails=["lls"], **side)
        assert enforce_diagram(m) == []
        m = _matrix(holds=["cminus_lsc"], fails=["lls"], **{**side, "convex_valued": True})
        assert enforce_diagram(m) == ["scalar lsc implies lls for convex values"]


class TestSettings:
    def test_degenerate_grid_is_rejected(self):
        with pytest.raises(ValueError):
            Grid(levels=-1)

    def test_shipped_settings_construct(self):
        assert default_config().light().radii.levels == 8
        assert Grid(levels=0).values() == [Fraction(1)]

    @pytest.mark.parametrize("checker", [check_scalar_semicontinuity, check_uniform])
    def test_bad_mode_is_rejected(self, checker):
        f = fixture_by_id("orthant-halfline").map
        base = DirectionBase.default(f.cone, 4, 2)
        with pytest.raises(ValueError):
            checker(f, (0,), base, TINY, "both")


class TestOracleValues:
    @pytest.mark.parametrize("m", [1, 3])
    def test_constant_oracle_map_is_continuous_off_the_plane(self, m):
        # f(x) = C, the orthant of R^m given by its support function and its
        # exact membership predicate: the value's sample points must be
        # points of R^m.
        cone = Cone.from_generators([[int(i == j) for j in range(m)] for i in range(m)])
        f = SetValuedMap(1, cone, ScaledBody(orthant_oracle(cone), AffineForm.of([0], 1)))
        for check in (check_lc, check_uls, check_eff):
            assert check(f, (0,), TINY).status is Status.HOLDS, check.__name__


class TestRemainingLps:
    """Every point the checkers read comes off a V-form; the one LP left on
    the matrix route is the base certification's separation LP."""

    def test_light_matrices_solve_only_separation_lps(self, lp_calls):
        cfg = default_config().light()
        for f, x0 in (
            (fixture_by_id("orthant-halfline").map, (0,)),
            (fixture_by_id("tilted-halfplane").map, (0,)),
            (random_convex_affine_maps(1, 1)[0], (1,)),
        ):
            verdict_matrix(f, x0, cfg)
        assert lp_calls and {caller for caller, _ in lp_calls} == {"certify_base"}

    def test_piece_against_an_uncovering_union_solves_no_lp(self, lp_calls):
        # Neither piece holds the orthant, and their union misses the origin.
        union = UpperSet(ORTHANT, pieces=[Polyhedron(2, [([1, 0], 1)]), Polyhedron(2, [([0, 1], 1)])])
        piece = UpperSet(ORTHANT, pieces=[Polyhedron(2, [([1, 0], 0), ([0, 1], 0)])])
        order = set_order_leq(union, piece)
        assert not order.value and order.exact and not member(union, order.witness)
        assert lp_calls == []

    def test_graph_interior_of_a_polyhedral_map_solves_no_lp(self, lp_calls):
        f = random_convex_affine_maps(1, 1)[0]
        assert f.body.fixed_normals
        for x0 in ((0,), (1,), (-1,)):
            graph_interior_witness(f, x0)
        graph_interior_witness(fixture_by_id("orthant-halfline").map, (1,))
        assert lp_calls == []


def test_value_sample_points_are_found_once_per_value(dd_passes):
    # Two pieces, one of them cut by the window: the points need the
    # pieces' V-forms and a margin program on each cut.
    v = UpperSet(ORTHANT, pieces=[
        upper_closure(Polyhedron.box([(-1, 2), (0, 1)]), ORTHANT).pieces[0],
        Polyhedron(2, [([1, 0], -10), ([0, 1], 3), ([1, 2], 0)]),
    ])
    dd_passes.clear()
    first = _value_sample_points(v)
    assert first and dd_passes
    dd_passes.clear()
    assert _value_sample_points(v) == first
    assert dd_passes == []
    twin = UpperSet(ORTHANT, pieces=[Polyhedron(2, p.rows) for p in v.pieces])
    assert _value_sample_points(twin) == first


def test_hausdorff_checks_run_no_cone_pass(dd_passes):
    # The enlargement test reads each piece's own V-form: once the map's
    # cone is warm, no pass recomputes a recession cone's generators.
    f = random_convex_affine_maps(1, 1)[0]
    f.evaluate((1,))
    dd_passes.clear()
    for check in (check_huc, check_hlc):
        check(f, (1,), TINY)
    assert dd_passes and not [c for c, _, _ in dd_passes if c == "_cone_rays"]


class TestOutsideTheDomain:
    """Checker branches for a point x0 with f(x0) empty."""

    HALFLINE = fixture_by_id("orthant-halfline").map  # C for x >= 0, empty below

    def test_uc_holds_where_the_map_is_empty_nearby(self):
        v = check_uc(self.HALFLINE, (Fraction(-1, 2),), TINY)
        assert v.is_holds
        assert v.note == "empty on a neighborhood; relative to the enlargement base"

    def test_uc_fails_where_nonempty_values_approach(self):
        # The mirror of the half-line map: empty for x <= 0, C for x > 0.
        mirror = SetValuedMap(
            1,
            ORTHANT,
            PiecewiseBody(((Fraction(-1),), Fraction(0)), constant_empty_body(1, 2), constant_cone_body(ORTHANT, 1)),
        )
        v = check_uc(mirror, (0,), TINY)
        assert v.is_fails
        assert v.witness.detail == "nonempty values approach a point outside dom f"
        assert v.witness.x[0] > 0 and not mirror.evaluate(v.witness.x).is_empty

    def test_lc_holds_by_force_and_uls_vacuously(self):
        x0 = (Fraction(-1, 2),)
        assert check_lc(self.HALFLINE, x0, TINY) == Verdict.holds(note="holds by force outside dom f")
        assert check_uls(self.HALFLINE, x0, TINY) == Verdict.holds(note="vacuous outside dom f")


def test_uniform_over_an_uncertified_base_is_inconclusive():
    # (-1, 0) alone does not generate the dual of the orthant.
    f = fixture_by_id("orthant-halfline").map
    base = DirectionBase(ORTHANT, ((Fraction(-1), Fraction(0)),))
    for mode in ("usc", "lsc"):
        v = check_uniform(f, (0,), base, TINY, mode)
        assert v == Verdict.inconclusive(note="direction base failed certification")


def spike_map(normals, offsets) -> SetValuedMap:
    """f(0) = C and f(x) = {z : N z >= q} for x != 0."""
    elsewhere = AffineBody(tuple(map(vec, normals)), vec(offsets), ((Fraction(0),),) * len(offsets))
    at_zero = PiecewiseBody(((Fraction(-1),), Fraction(0)), constant_cone_body(ORTHANT, 1), elsewhere)
    return SetValuedMap(1, ORTHANT, PiecewiseBody(((Fraction(1),), Fraction(0)), at_zero, elsewhere))


def test_lls_fails_where_a_point_outside_f_x0_stays_in_nearby_values():
    # f(0) = C and f(x) = (-1, -1) + C for x != 0: (-1, 0) lies outside f(0)
    # and in every other value.  In the plane the probe grid alone has more
    # non-members of C than the 14 probe slots, so the points just below
    # f(0) go first.
    spike = spike_map([[1, 0], [0, 1]], [-1, -1])
    v = check_lls(spike, (0,), default_config().light())
    assert v.is_fails and v.witness.z == (-1, 0)
    assert not member(spike.evaluate((0,)), v.witness.z)
    assert member(spike.evaluate(v.witness.x), v.witness.z)


@pytest.mark.parametrize(
    "shift, light_fails",
    [(Fraction(-1, 2), True), (Fraction(-1, 4), True), (Fraction(-1, 8), False)],
)
def test_lls_fails_on_approaches_closer_than_one(shift, light_fails):
    # (shift / 2, 0) lies outside f(0) and in every other value.  The unit
    # probes miss it; the probes moved back by the finer z-radii find it,
    # down to twice the finest z-radius: 1/8 under light(), whose finest is
    # 1/16, so the spike at -1/8 still reads holds there.
    spike = spike_map([[1, 0], [0, 1]], [shift, shift])
    v = check_lls(spike, (0,))
    assert v.is_fails and not member(spike.evaluate((0,)), v.witness.z)
    assert member(spike.evaluate(v.witness.x), v.witness.z)
    assert check_lls(spike, (0,), default_config().light()).is_fails == light_fails


def test_the_grid_probes_keep_their_slots():
    # f(x) = {z1 + z2 >= 0} for x != 0: among the first 14 probes only the
    # grid point (-4, 4) lies in the nearby values, so the probes moved by
    # sub-unit steps come after all 14.
    spike = spike_map([[1, 1]], [0])
    for cfg in (default_config().light(), default_config()):
        v = check_lls(spike, (0,), cfg)
        assert v.is_fails and v.witness.z == (-4, 4)


def test_outside_probes_leave_the_diagonal_in_three_dimensions():
    # The probe grid is the whole product {-4, ..., 4}^3, not its diagonal.
    cone = Cone.from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    f = SetValuedMap(1, cone, constant_cone_body(cone, 1))
    probes = _outside_probes(_Scan(f, (0,), TINY))
    assert (-4, -4, -2) in probes
    assert not any(member(f.evaluate((0,)), p) for p in probes)
    assert check_lls(f, (0,), TINY).is_holds
