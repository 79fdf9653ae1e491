"""Checker layer structure: the implication diagram, side conditions and
checker settings, on hand-built matrices and small maps."""

import json
from fractions import Fraction

import pytest

from upperset.continuity import (
    MATRIX_KEYS,
    CheckerConfig,
    Grid,
    VerdictMatrix,
    check_eff,
    check_lc,
    check_scalar_semicontinuity,
    check_uniform,
    check_uls,
    default_config,
    diagram_violations,
    enforce_diagram,
    verdict_matrix,
)
from upperset.corpus import builtin_fixtures, fixture_by_id, random_convex_affine_maps
from upperset.geometry import Cone, Polyhedron
from upperset.linalg import POS_INF, ZERO
from upperset.maps import (
    AffineForm,
    PiecewiseBody,
    ScaledBody,
    SetValuedMap,
    constant_empty_body,
    graph_interior_witness,
)
from upperset.scalarize import DirectionBase
from upperset.sets import CallableOracle, UpperSet, member, set_order_leq
from upperset.verdict import Status, Verdict, Witness

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
    descent_levels=1,
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
        maps = [fx.map for fx in builtin_fixtures() if fx.kind == "continuity"]
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
    @pytest.mark.parametrize("exact_member", [False, True])
    @pytest.mark.parametrize("m", [1, 3])
    def test_constant_oracle_map_is_continuous_off_the_plane(self, m, exact_member):
        # f(x) = C, the orthant of R^m given by its support function and,
        # optionally, its exact membership predicate: the value's sample
        # points must be points of R^m.
        cone = Cone.from_generators([[int(i == j) for j in range(m)] for i in range(m)])
        oracle = CallableOracle(
            lambda u: ZERO if all(c <= 0 for c in u) else POS_INF,
            cone.contains if exact_member else None,
        )
        f = SetValuedMap(1, cone, ScaledBody(UpperSet.from_oracle(cone, oracle), AffineForm.of([0], 1)))
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
        assert lp_calls and {caller for caller, _ in lp_calls} == {"_generates_dual"}

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
