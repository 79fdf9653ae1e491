"""Checker layer structure: the implication diagram, side conditions and
checker settings, on hand-built matrices and small maps."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from functools import cache, partial

import pytest

from upperset import continuity
from upperset.continuity import (
    MATRIX_KEYS,
    _Scan,
    _broken_direction,
    _outside_probes,
    _scalar_bounds,
    _value_sample_points,
    _verdict,
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
from upperset.corpus import (
    ORTHANT_2D,
    RAY_CONE_2D,
    builtin_fixtures,
    fixture_by_id,
    random_convex_affine_maps,
)
from upperset.duality import BivariateMap
from upperset.geometry import Cone, Polyhedron
from upperset.linalg import NEG_INF, POS_INF, ZERO, HashedVec, vec
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

from test_scalarize import fresh_cone, on_cone, scalarize_eval
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

    def test_a_failing_verdict_needs_a_witness(self):
        with pytest.raises(ValueError, match="witness"):
            Verdict(Status.FAILS)
        assert Verdict.fails(Witness(detail="hand-built")).is_fails

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
    """Every point the checkers read comes off a V-form, and the base
    certification reads the polar cone of the base off one double
    description, so the matrix route solves no LP."""

    def test_light_matrices_solve_no_lp(self, lp_calls):
        cfg = default_config().light()
        # Over a fresh twin of the cone, whose base no earlier test has
        # certified, so the certification runs here.
        cone = fresh_cone(ORTHANT_2D)
        for f, x0 in (
            (fixture_by_id("orthant-halfline").map, (0,)),
            (fixture_by_id("tilted-halfplane").map, (0,)),
            (random_convex_affine_maps(1, 1)[0], (1,)),
        ):
            verdict_matrix(on_cone(f, cone), x0, cfg)
        assert "_generates_dual" in DirectionBase.default(cone, cfg.z_fan, cfg.z_tails).__dict__
        assert lp_calls == []

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


def far_cut_map(c) -> SetValuedMap:
    """Over ``RAY_CONE_2D`` ({0} x R+, so C^- = {y : y2 <= 0}): f(x) = {z :
    z2 >= 0} for x <= 0 and f(x) = {z : z2 >= 0, -z1 + z2 >= -c} for x > 0.

    For c >= 0, lc fails at 0: z0 = (c + 2, 0) lies in f(0), and every f(x)
    with x > 0 lies at distance sqrt(2) from it, since z1 - z2 <= c there.
    f(0)'s sample points are (0, 0) and (-5, 5), which every such cut keeps;
    for c < 0 the cut leaves out (0, 0).
    """
    upper = AffineBody((vec([0, 1]),), vec([0]), (vec([0]),))
    cut = AffineBody((vec([0, 1]), vec([-1, 1])), vec([0, -c]), (vec([0]), vec([0])))
    return SetValuedMap(1, RAY_CONE_2D, PiecewiseBody((vec([-1]), ZERO), upper, cut))


CONFIGS = {"light": default_config().light(), "default": default_config()}


class TestFarCutLc:
    """The far cut: lc fails at 0 away from f(0)'s sample points, where the
    sampled lc check does not look."""

    @pytest.mark.xfail(
        strict=True,
        reason="lc probes only f(x0)'s sample points; direction 4 decides lc exactly",
    )
    @pytest.mark.parametrize("cfg", ["light", "default"])
    @pytest.mark.parametrize("c", [5, 30])
    def test_lc_fails_where_the_cut_misses_the_sample_points(self, c, cfg):
        assert check_lc(far_cut_map(c), (0,), CONFIGS[cfg]).is_fails

    @pytest.mark.parametrize("cfg", ["light", "default"])
    def test_lc_fails_where_the_cut_reaches_a_sample_point(self, cfg):
        f = far_cut_map(-5)
        v = check_lc(f, (0,), CONFIGS[cfg])
        assert v.is_fails and v.witness.z == (0, 0)
        assert f.evaluate(v.witness.x).dist_sq(v.witness.z) > v.witness.radius**2

    @pytest.mark.parametrize("cfg", ["light", "default"])
    def test_cminus_usc_fails(self, cfg):
        # At z* = (a, -1) with 0 < a <= 1, phi(0) = -inf and phi(x) = -a c
        # for x > 0.
        f, config = far_cut_map(5), CONFIGS[cfg]
        base = DirectionBase.default(f.cone, config.z_fan, config.z_tails)
        v = check_scalar_semicontinuity(f, (0,), base, config, "usc")
        assert v.is_fails
        zs, x = v.witness.direction, v.witness.x
        assert scalarize_eval(f, zs, (0,)) == NEG_INF
        assert scalarize_eval(f, zs, x) == -zs[0] * 5 and x[0] > 0


class TestSample:
    """x0 and the level samples of a scan are HashedVecs: they compare and
    hash like the plain tuples of their Fractions, and keep that hash."""

    SCAN = _Scan(fixture_by_id("orthant-halfline").map, (Fraction(1, 3),), TINY)

    def samples(self):
        return [self.SCAN.x0, *self.SCAN.samples(0), *self.SCAN.samples(5)]

    def test_compare_and_hash_like_plain_tuples(self):
        for x in self.samples():
            plain = tuple(x)
            assert type(x) is HashedVec and type(plain) is tuple
            assert x == plain and plain == x and not x != plain
            # Once computed, then read back.
            assert hash(x) == hash(plain) and hash(x) == hash(plain)
        assert self.SCAN.x0 == (Fraction(1, 3),)

    def test_a_value_cached_under_one_is_found_under_the_other(self):
        f = self.SCAN.f
        phi = cache(lambda x: object())
        for x in self.samples():
            plain = tuple(x)
            assert phi(x) is phi(plain)
            assert phi(tuple(-c for c in x)) is phi(HashedVec(-c for c in x))
            assert {plain: x}[x] is x and {x: plain}[plain] is plain
            assert f.evaluate(x) is f.evaluate(plain)

    def test_a_warm_value_read_hashes_no_fraction(self, monkeypatch):
        # The map's value cache reads a sample under its own kept hash.
        f = self.SCAN.f
        for x in self.samples():
            f.evaluate(x)
        hashed = []
        real = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", lambda q: hashed.append(q) or real(q))
        values = [f.evaluate(x) for x in self.samples()]
        assert hashed == []
        assert values == [f.evaluate(tuple(x)) for x in self.samples()] and hashed


class TestClassify:
    """``_Scan.classify`` on synthetic level flags.  Under ``TINY`` the grid
    is levels 0 to 2, level 3 confirms a violation, and levels 3 and 4 are
    the descent below the grid."""

    SCAN = _Scan(SetValuedMap(1, ORTHANT, constant_cone_body(ORTHANT, 1)), (0,), TINY)

    def classify(self, flag_at):
        # A sample at x = +-2^-k belongs to level k.
        return self.SCAN.classify(lambda x: flag_at(abs(x[0]).denominator.bit_length() - 1))

    def test_undecided_everywhere_is_mixed(self):
        kind, _, levels = self.classify(lambda k: None)
        assert (kind, levels) == ("mixed", 5)
        verdict = _verdict(kind, levels, Witness, "undecided")
        assert verdict == Verdict.inconclusive(note="undecided", resolution=5)

    def test_a_clean_finest_level_is_clean_after_undecided_ones(self):
        assert self.classify(lambda k: False if k == 2 else None) == ("clean", None, 3)

    def test_an_undecided_confirmation_level_is_mixed(self):
        kind, witness, levels = self.classify(lambda k: True if k <= 2 else None)
        assert (kind, levels) == ("mixed", 4) and witness.radius == Fraction(1, 4)


# -- the scalar route before it fixed one bound per eps, as the oracle ----------


def _scalar_violated(mode: str, v0, vx, eps: Fraction) -> bool:
    """Whether phi(x) = vx breaks the eps threshold around phi(x0) = v0.

    usc breaks at vx >= v0 + eps (vx >= -1/eps when v0 = -inf) and lsc at
    vx <= v0 - eps (vx <= 1/eps when v0 = +inf); v0 = +inf never breaks usc
    and v0 = -inf never breaks lsc.
    """
    if mode == "usc":
        return v0 != POS_INF and vx >= (-1 / eps if v0 == NEG_INF else v0 + eps)
    return v0 != NEG_INF and vx <= (1 / eps if v0 == POS_INF else v0 - eps)


def _oracle_scalarizations(f, base, mode):
    """phi_z* for every base direction, each checking z* at every x."""
    if mode not in ("usc", "lsc"):
        raise ValueError("mode must be 'usc' or 'lsc'")
    return {zs: cache(partial(scalarize_eval, f, zs)) for zs in base.directions}


def _oracle_scalar_scan(scan, phis, mode):
    """The sweep with the threshold rule applied afresh to every direction
    at every sample, unbreakable directions included."""
    scalars = [(zs, phi, phi(scan.x0)) for zs, phi in phis.items()]

    def violated_at(eps):
        return lambda x: any(_scalar_violated(mode, v0, phi(x), eps) for _, phi, v0 in scalars)

    kind, wit, eps, examined = scan.sweep(violated_at)
    if kind == "persistent":
        bad = next(zs for zs, phi, v0 in scalars if _scalar_violated(mode, v0, phi(wit.x), eps))
        wit = wit._replace(direction=bad)
    return kind, wit, eps, examined


# Values of phi on both sides of zero, fractional ones and both infinities.
EXTENDED = (NEG_INF, Fraction(-2), Fraction(-1, 3), ZERO, Fraction(1, 2), POS_INF)
LIGHT_EPS = default_config().light().z_radii.values()


class TestScalarThreshold:
    """One bound per direction and eps against the threshold rule it
    replaced."""

    @pytest.mark.parametrize("mode", ["usc", "lsc"])
    def test_bound_breaks_exactly_where_the_rule_does(self, mode):
        for eps, v0, vx in itertools.product(LIGHT_EPS, EXTENDED, EXTENDED):
            bounds = _scalar_bounds([((ZERO,), lambda x: vx, v0)], mode, eps)
            broken = _broken_direction(bounds, mode, ()) is not None
            assert broken == _scalar_violated(mode, v0, vx, eps), (v0, vx, eps)

    @pytest.mark.parametrize("mode", ["usc", "lsc"])
    def test_witness_direction_is_the_rules_first(self, mode):
        # Each direction (i,) has its own phi(x0) and phi(x); a seeded list
        # of them in seeded order, unbreakable directions among them.
        rng = random.Random(24)
        pairs = list(itertools.product(EXTENDED, EXTENDED))
        outcomes = Counter()
        for _ in range(300):
            chosen = rng.sample(range(len(pairs)), rng.randint(1, 6))
            at_x0 = [((Fraction(i),), lambda x, vx=pairs[i][1]: vx, pairs[i][0]) for i in chosen]
            for eps in LIGHT_EPS:
                want = next(
                    (zs for zs, phi, v0 in at_x0 if _scalar_violated(mode, v0, phi(()), eps)),
                    None,
                )
                got = _broken_direction(_scalar_bounds(at_x0, mode, eps), mode, ())
                assert got == want
                outcomes["none" if got is None else "direction"] += 1
        assert outcomes["none"] and outcomes["direction"]


def _scalar_verdicts(f, x0, cfg) -> list:
    """The JSON of both scalar checkers in both modes over f's default base."""
    base = DirectionBase.default(f.cone, cfg.z_fan, cfg.z_tails)
    return [
        check(f, x0, base, cfg, mode).to_json()
        for check in (check_scalar_semicontinuity, check_uniform)
        for mode in ("usc", "lsc")
    ]


def _domain_edges(f) -> list:
    """The points x where a zero-normal row 0 >= q + l x of a random affine
    map changes sign, ends of its domain."""
    body = f.body
    rows = zip(body.normals, body.offsets, body.x_coeffs)
    return [(-q / l[0],) for n, q, l in rows if not any(n) and l[0]]


class TestScalarRouteOracle:
    """The scalar checkers against the route they replaced, swapped in for
    ``_scalarizations`` and ``_scalar_scan``: the same verdicts, notes and
    witnesses, under ``light()``."""

    def test_matches_the_old_route(self, monkeypatch):
        cfg = default_config().light()
        rng = random.Random(24)
        cases = [
            (fixture_by_id("tilted-halfplane").map, (ZERO,)),
            # A value given by an oracle, not by rows.
            (fixture_by_id("parabola-dilation").map, (Fraction(1),)),
        ]
        for seed in (1, 2, 3):
            for f in random_convex_affine_maps(seed, 4):
                cases.append((f, (Fraction(rng.randint(-8, 8), 4),)))
                cases.extend((f, edge) for edge in _domain_edges(f))
        statuses = Counter()
        for f, x0 in cases:
            got = _scalar_verdicts(f, x0, cfg)
            with monkeypatch.context() as m:
                m.setattr(continuity, "_scalarizations", _oracle_scalarizations)
                m.setattr(continuity, "_scalar_scan", _oracle_scalar_scan)
                assert got == _scalar_verdicts(f, x0, cfg), (f.name, x0)
            statuses.update(v["status"] for v in got)
        assert len(cases) >= 16
        assert statuses["holds"] and statuses["fails"] >= 8, statuses


class TestScalarReads:
    """orthant-halfline at 0 under ``light()``: every base direction reads
    phi(0) = 0, and phi(x) is 0 for x > 0 and +inf for x < 0, where the
    value is empty.  Over a fresh cone, so the default base and its
    certification are built inside the checked calls."""

    def setup_method(self):
        self.cfg = default_config().light()
        self.f = on_cone(fixture_by_id("orthant-halfline").map, fresh_cone(ORTHANT))
        self.base = DirectionBase.default(self.f.cone, self.cfg.z_fan, self.cfg.z_tails)

    def test_uniform_reads_each_direction_once_per_x(self, support_reads):
        d = len(self.base.directions)
        grid, confirm = self.cfg.radii.levels + 1, self.cfg.confirm_levels
        for mode, reads in (
            # usc fails at the first eps: at every grid and confirmation
            # level +2^-k reads every direction and -2^-k breaks the first.
            ("usc", d + (grid + confirm) * (d + 1)),
            # lsc never breaks: both samples of every grid level read every
            # direction at the first eps and hit the memo at the others.
            ("lsc", d + grid * 2 * d),
        ):
            support_reads.clear()
            check_uniform(self.f, (0,), self.base, self.cfg, mode)
            assert {caller for caller, _, _ in support_reads} == {"scalarization_value"}
            per_read = Counter((id(value), u) for _, value, u in support_reads)
            assert max(per_read.values()) == 1, mode
            assert len(support_reads) == reads, mode

    @pytest.mark.parametrize(
        "check, mode, levels",
        [
            (check_uniform, "usc", 12),
            (check_uniform, "lsc", 9),
            # Every direction runs the same 12 levels on the scan's samples.
            (check_scalar_semicontinuity, "usc", 12),
            (check_scalar_semicontinuity, "lsc", 9),
        ],
    )
    def test_one_scan_builds_each_level_once(self, check, mode, levels, monkeypatch):
        built = []
        real = continuity._level_samples

        def counting(x0, delta, dirs):
            built.append(delta)
            return real(x0, delta, dirs)

        monkeypatch.setattr(continuity, "_level_samples", counting)
        check(self.f, (0,), self.base, self.cfg, mode)
        assert sorted(built, reverse=True) == [Fraction(1, 2**k) for k in range(levels)]


class TestSharedSamples:
    """orthant-halfline under ``light()``: the x-samples of each level are
    built once per map and x0, and a second matrix at the same point reads
    them again.  Over a fresh cone, so the default base, and the support
    form that each of its directions keeps, are built in the checked
    calls."""

    def setup_method(self):
        self.cfg = default_config().light()
        self.f = on_cone(fixture_by_id("orthant-halfline").map, fresh_cone(ORTHANT))

    def counted_builds(self, monkeypatch) -> list:
        built = []
        real = continuity._level_samples

        def counting(x0, delta, dirs):
            built.append((x0, delta))
            return real(x0, delta, dirs)

        monkeypatch.setattr(continuity, "_level_samples", counting)
        return built

    def test_a_matrix_builds_each_level_once_per_point(self, monkeypatch):
        built = self.counted_builds(monkeypatch)
        for x0 in ((0,), (1,)):
            verdict_matrix(self.f, x0, self.cfg)
        assert max(Counter(built).values()) == 1
        for x0 in ((0,), (1,)):
            deltas = {delta for x, delta in built if x == x0}
            # Every grid level at least, by the 13 checkers together.
            assert deltas >= set(self.cfg.radii.values()), x0

    def test_a_second_matrix_at_the_point_builds_and_compares_nothing(self, monkeypatch):
        first = verdict_matrix(self.f, (0,), self.cfg).to_json()
        # The value cache is keyed by the shared x0 and samples themselves.
        keys = {id(x) for x in self.f._value_cache}
        for x0, levels in self.f.x_samples.values():
            assert id(x0) in keys and all(id(x) in keys for xs in levels.values() for x in xs)
        base = DirectionBase.default(self.f.cone, self.cfg.z_fan, self.cfg.z_tails)
        forms = {d: d.__dict__["_support_form"] for d in base.directions}
        cached = len(self.f._value_cache)
        built = self.counted_builds(monkeypatch)
        # Fraction.__eq__ calls inside evaluate's reads of a HashedVec x.
        compared, shared_reads, inside = [], [], [False]
        real_eq, real_evaluate = Fraction.__eq__, SetValuedMap.evaluate

        def eq(a, b):
            if inside[0]:
                compared.append((a, b))
            return real_eq(a, b)

        def evaluate(f, x):
            inside[0] = type(x) is HashedVec
            shared_reads.append(inside[0])
            try:
                return real_evaluate(f, x)
            finally:
                inside[0] = False

        monkeypatch.setattr(Fraction, "__eq__", eq)
        monkeypatch.setattr(SetValuedMap, "evaluate", evaluate)
        second = verdict_matrix(self.f, (0,), self.cfg).to_json()
        monkeypatch.undo()
        assert second == first
        assert built == [] and compared == []
        assert sum(shared_reads) >= 100 and len(self.f._value_cache) == cached
        # Each base direction kept the form of its first read.
        assert all(d.__dict__["_support_form"] is form for d, form in forms.items())
