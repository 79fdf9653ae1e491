"""Labeled corpus: checker verdicts and fundamental duality on the fixtures.

Labels are ground truth and are never edited here.  A label that the
checkers miss today is a strict xfail naming the ROADMAP defect behind it,
so a fix shows up as an unexpected pass.

The whole JSON of each light() matrix is also pinned by a digest, so a
refactor of the checkers must keep every witness, radius, note and
resolution, not only the statuses the labels name.  The closed-form layer is
pinned the same way: duality reports, the exact piecewise-linear
scalarizations and the domain pieces of every fixture.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from upperset import continuity
from upperset.continuity import default_config, verdict_matrix
from test_geometry import fm_project_out
from upperset import scalarize
from upperset.corpus import builtin_fixtures, fixture_by_id, random_convex_affine_maps
from upperset.duality import (
    BivariateMap,
    DualityError,
    fundamental_duality,
    marginal_scalarization,
)
from upperset.geometry import Cone
from upperset.linalg import ZERO, vec
from upperset.maps import AffineBody, AffineForm, PiecewiseBody, ScaledBody, SetValuedMap
from upperset.scalarize import DirectionBase, piecewise_scalarization
from upperset.sets import UpperSet, embed_point

MATRIX_FIXTURES = (
    "orthant-halfline",
    "tilted-halfplane",
    "ray-translate",
    "parabola-dilation",
)

KNOWN_DEFECTS = {
    ("tilted-halfplane", 0, "lc"): "two verdicts depend on config depth: under light() "
    "uniform_usc holds, so 'uniform usc implies lc' downgrades lc to inconclusive",
}


# Seeded random maps, evaluated at x0 = 1.
RANDOM_MAPS = {f"rand-affine-{seed}": seed for seed in (1, 2, 3)}

# First 16 hex digits of sha256(json.dumps(matrix.to_json(), sort_keys=True)).
LIGHT_DIGESTS = {
    ("orthant-halfline", 0): "dc4572550ab0d9e5",
    ("tilted-halfplane", 0): "733c159182a8084f",
    ("ray-translate", 0): "d54b9c75c1cfdfad",
    ("ray-translate", 1): "8cd50a91c4c67601",
    ("ray-translate", 2): "bd44f5cf7a1ee3a1",
    ("parabola-dilation", 0): "01bb217256ee7935",
    ("parabola-dilation", 1): "052e1a87ea76bb84",
    ("rand-affine-1", 0): "a23d1b1696a9117b",
    ("rand-affine-2", 0): "f4e3466be27c9611",
    ("rand-affine-3", 0): "734c6b6fad99dab7",
}

# Default-config matrices, same hash: the deeper grid reaches enlargement
# witnesses that light() does not.
DEFAULT_DIGESTS = {
    ("orthant-halfline", 0): "2b25c5a9462176bf",
    ("tilted-halfplane", 0): "9760844e94d14b6b",
}

# Light matrices whose pinned JSON shows a downgrade, hashed with the
# implication diagram switched off: the raw verdicts it hides stay pinned.
RAW_LIGHT_DIGESTS = {
    ("tilted-halfplane", 0): "93657a2d42c9906e",
    ("parabola-dilation", 0): "8ab64c485273b48e",
}


# Digests of the closed-form layer's outputs, same hash as above.
DUALITY_DIGESTS = {"abs-bivariate": "45ec622e5df82c8a", "abs-pair-2d": "22c13b6ce2e364fe"}
SCALARIZATION_DIGESTS = {
    "ray-translate": "6626901fe61157d4",
    "orthant-halfline": "10035efe338a1c04",
    # No closed form for the oracle and tilting maps: every entry is None.
    "parabola-dilation": "17e71049fd76b89c",
    "tilted-halfplane": "17e71049fd76b89c",
    "abs-bivariate": "fde6c9c0faaaba0d",
    "pl-profile": "0edc22d317bf6ac3",
    "abs-pair-2d": "8ab614a624f3a372",
}
# Maps whose domain is the whole line or plane share the digest of [[]].
DOMAIN_DIGESTS = {
    "ray-translate": "cf1cbb66a638b486",
    "orthant-halfline": "f4eae960c2d60853",
    "parabola-dilation": "44e03847959fa5db",
    "tilted-halfplane": "40a9090a7d2dc287",
    "abs-bivariate": "cf1cbb66a638b486",
    "pl-profile": "cf1cbb66a638b486",
    "abs-pair-2d": "cf1cbb66a638b486",
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _rows(p):
    return [[[str(c) for c in n], str(b)] for n, b in p.rows]


def _underlying_map(fixture_id):
    f = fixture_by_id(fixture_id).map
    return f.map if isinstance(f, BivariateMap) else f


@lru_cache(maxsize=None)
def _light_matrix(fixture_id: str, index: int):
    if fixture_id in RANDOM_MAPS:
        f, x0 = random_convex_affine_maps(RANDOM_MAPS[fixture_id], 1)[index], (1,)
    else:
        fx = fixture_by_id(fixture_id)
        f, x0 = fx.map, fx.points[index].at
    return verdict_matrix(f, x0, default_config().light())


def _label_cases():
    for fixture_id in MATRIX_FIXTURES:
        for index, point in enumerate(fixture_by_id(fixture_id).points):
            for key, expected in sorted(point.expect.items()):
                case = (fixture_id, index, key)
                marks = ()
                if case in KNOWN_DEFECTS:
                    marks = pytest.mark.xfail(strict=True, reason=KNOWN_DEFECTS[case])
                yield pytest.param(*case, expected, marks=marks, id="-".join(map(str, case)))


@pytest.mark.parametrize("fixture_id, index, key, expected", _label_cases())
def test_light_matrix_matches_label(fixture_id, index, key, expected):
    assert _light_matrix(fixture_id, index).entries[key].status.value == expected


@pytest.mark.parametrize(
    "fixture_id, index, digest",
    [(*case, digest) for case, digest in LIGHT_DIGESTS.items()],
    ids=[f"{fixture_id}-{index}" for fixture_id, index in LIGHT_DIGESTS],
)
def test_light_matrix_json_is_pinned(fixture_id, index, digest):
    text = json.dumps(_light_matrix(fixture_id, index).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "fixture_id, index, digest",
    [(*case, digest) for case, digest in DEFAULT_DIGESTS.items()],
    ids=[f"{fixture_id}-{index}" for fixture_id, index in DEFAULT_DIGESTS],
)
def test_default_matrix_json_is_pinned(fixture_id, index, digest):
    fx = fixture_by_id(fixture_id)
    assert _digest(verdict_matrix(fx.map, fx.points[index].at, default_config()).to_json()) == digest


@pytest.mark.parametrize(
    "fixture_id, index, digest",
    [(*case, digest) for case, digest in RAW_LIGHT_DIGESTS.items()],
    ids=[f"{fixture_id}-{index}" for fixture_id, index in RAW_LIGHT_DIGESTS],
)
def test_raw_light_matrix_json_is_pinned(fixture_id, index, digest, monkeypatch):
    assert _light_matrix(fixture_id, index).artifacts
    monkeypatch.setattr(continuity, "enforce_diagram", lambda matrix: [])
    fx = fixture_by_id(fixture_id)
    matrix = verdict_matrix(fx.map, fx.points[index].at, default_config().light())
    assert matrix.artifacts == [] and _digest(matrix.to_json()) == digest


def lifted(body):
    """The body of F(x, x') = F(x): a dummy last coordinate that no guard,
    offset, normal or scale reads."""
    if isinstance(body, PiecewiseBody):
        g, h = body.guard
        return PiecewiseBody((g + (ZERO,), h), lifted(body.when_true), lifted(body.when_false))
    if isinstance(body, ScaledBody):
        return ScaledBody(body.base, AffineForm(body.alpha.coeffs + (ZERO,), body.alpha.const))
    x_normals = None
    if body.x_normals is not None:
        x_normals = tuple(per_row + ((ZERO,) * len(body.normals[0]),) for per_row in body.x_normals)
    return AffineBody(body.normals, body.offsets, tuple(l + (ZERO,) for l in body.x_coeffs), x_normals)


@pytest.mark.parametrize("fixture_id", ["orthant-halfline", "tilted-halfplane"])
def test_a_dummy_coordinate_changes_no_verdict(fixture_id):
    # In two dimensions the scans also walk the corner directions (+-1, +-1).
    f = fixture_by_id(fixture_id).map
    flat = _light_matrix(fixture_id, 0)
    matrix = verdict_matrix(SetValuedMap(2, f.cone, lifted(f.body)), (ZERO, ZERO), default_config().light())
    assert {k: v.status for k, v in matrix.entries.items()} == {k: v.status for k, v in flat.entries.items()}
    assert len(matrix.entries) == 13 and matrix.artifacts == flat.artifacts


def test_fixture_ids_are_pinned():
    ids = {fx.id for fx in builtin_fixtures()}
    assert ids == set(SCALARIZATION_DIGESTS) == set(DOMAIN_DIGESTS)


@pytest.mark.parametrize("fixture_id", sorted(DUALITY_DIGESTS))
def test_duality_report_json_is_pinned(fixture_id):
    f = fixture_by_id(fixture_id).map
    base = DirectionBase.default(f.cone, 2) if fixture_id == "abs-pair-2d" else None
    report = fundamental_duality(f, (ZERO,), base)
    assert _digest(report.to_json()) == DUALITY_DIGESTS[fixture_id]


@pytest.mark.parametrize("fixture_id", sorted(SCALARIZATION_DIGESTS))
def test_closed_form_scalarizations_are_pinned(fixture_id):
    f = _underlying_map(fixture_id)
    out = []
    for u in DirectionBase.default(f.cone, 4).directions:
        phi = piecewise_scalarization(f, u)
        if phi is None:
            out.append(None)
            continue
        pieces = [[_rows(p.region.closure), [str(c) for c in p.coeffs], str(p.const)] for p in phi.pieces]
        out.append([pieces, [_rows(r.closure) for r in phi.minus_inf_regions]])
    assert _digest(out) == SCALARIZATION_DIGESTS[fixture_id]


@pytest.mark.parametrize("fixture_id", sorted(SCALARIZATION_DIGESTS))
def test_closed_forms_equal_the_fourier_motzkin_route(fixture_id, monkeypatch):
    """Each pinned closed form is, as a function, the one built by
    eliminating z with Fourier-Motzkin, with at most its number of pieces:
    equal values, +inf off the domain included, at every minimal-face point
    of every region of both forms and at seeded rational points."""
    f = _underlying_map(fixture_id)
    directions = DirectionBase.default(f.cone, 4).directions
    forms = [piecewise_scalarization(f, u) for u in directions]
    monkeypatch.setattr(scalarize, "project_out", fm_project_out)
    rng = random.Random(fixture_id)
    for u, phi in zip(directions, forms):
        ref = piecewise_scalarization(f, u)
        if ref is None:
            assert phi is None
            continue
        assert len(phi.pieces) <= len(ref.pieces)
        points = [
            x
            for form in (phi, ref)
            for region in [p.region for p in form.pieces] + list(form.minus_inf_regions)
            for x in region.closure.minimal_face_points
        ]
        points += [
            tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(f.domain_dim))
            for _ in range(50)
        ]
        assert [phi(x) for x in points] == [ref(x) for x in points], u


@pytest.mark.parametrize("fixture_id", sorted(DOMAIN_DIGESTS))
def test_domain_pieces_are_pinned(fixture_id):
    pieces = _underlying_map(fixture_id).domain_pieces()
    assert _digest([_rows(p) for p in pieces]) == DOMAIN_DIGESTS[fixture_id]


def marginal(f: BivariateMap, y, base: DirectionBase | None = None) -> UpperSet:
    """The marginal value f_X(y), assembled from the marginal scalarization
    offsets over the base.

    Exact whenever the base contains the facet normals, which holds for
    every packaged fixture.  Raises DualityError, as marginal_scalarization
    does, for a map with no closed-form scalarization.
    """
    yv = vec(y)
    base = base or DirectionBase.default(f.cone, 16)
    return UpperSet.from_supports(
        f.cone, ((u, -marginal_scalarization(f, u, yv)) for u in base.directions)
    )


def test_marginal_at_zero_is_the_duality_lhs():
    f = fixture_by_id("abs-bivariate").map
    lhs = fundamental_duality(f, (ZERO,)).lhs
    assert marginal(f, (ZERO,)).pieces == lhs.pieces
    assert len(lhs.pieces) == 1


def test_marginal_without_closed_form_raises():
    orthant = Cone.from_generators([[1, 0], [0, 1]])
    scaled = ScaledBody(embed_point([1, 1], orthant), AffineForm.of([1, 1], 1))
    f = BivariateMap(SetValuedMap(2, orthant, scaled, name="scaled-bivariate"), 1, 1)
    with pytest.raises(DualityError):
        marginal(f, (ZERO,))


def test_abs_bivariate_duality_has_no_gap():
    report = fundamental_duality(fixture_by_id("abs-bivariate").map, (ZERO,))
    assert report.gap_sq == 0


@pytest.mark.xfail(
    strict=True,
    raises=DualityError,
    reason="fundamental_duality crashes on pl-profile: scalar dual attainment "
    "stacks the per-piece max-regions",
)
def test_pl_profile_duality_has_no_gap():
    report = fundamental_duality(fixture_by_id("pl-profile").map, (ZERO,))
    assert report.gap_sq == 0
