"""Fundamental duality: the partial infimum, the exact regularity test, the
refusal outside dom f, the closed-form route's imports and the report's JSON."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import upperset
from upperset.conjugate import PiecewiseLinearFn
from upperset.continuity import CheckerConfig, check_scalar_semicontinuity
from upperset.corpus import HALFLINE_1D, ORTHANT_2D, fixture_by_id, random_dual_pairs
from upperset.duality import BivariateMap, DualityError, fundamental_duality, marginal_scalarization
from upperset.geometry import Polyhedron, dual_cone
from upperset.linalg import NEG_INF, POS_INF, ZERO, Ext, Vec, dot, vec
from upperset.maps import AffineBody, SetValuedMap
from upperset.scalarize import DirectionBase, piecewise_scalarization
from upperset.verdict import Status

from test_conjugate import random_bivariate


def pl_partial_infimum(phi: PiecewiseLinearFn, n_free: int, fixed: Vec) -> Ext:
    """inf over the first n_free coordinates with the rest fixed: the least
    piece value over its region's slice, read from the slice's V-form."""

    def fix_tail(rows):
        return [(n[:n_free], b - dot(n[n_free:], fixed)) for n, b in rows]

    for r in phi.minus_inf_regions:
        if not Polyhedron(n_free, fix_tail(r.closure.rows)).is_empty:
            return NEG_INF
    best: Ext = POS_INF
    for piece in phi.pieces:
        region = Polyhedron(n_free, fix_tail(piece.region.closure.rows))
        if region.is_empty:
            continue
        s = region.support(tuple(-c for c in piece.coeffs[:n_free]))
        if s == POS_INF:
            return NEG_INF
        best = min(best, -s + dot(piece.coeffs[n_free:], fixed) + piece.const)
    return best


def test_partial_infimum_is_the_negated_conjugate_of_the_slice():
    rng = random.Random(1112)
    seen = {"+inf": 0, "-inf": 0, "finite": 0}
    for k in range(300):
        f = random_bivariate(rng, HALFLINE_1D if k % 2 else ORTHANT_2D)
        ((_, zs),) = random_dual_pairs(k, 1, f.cone, 1)
        phi = piecewise_scalarization(f.map, zs)
        for y in (Fraction(-1), ZERO, Fraction(3, 2)):
            v, want = marginal_scalarization(f, zs, (y,)), pl_partial_infimum(phi, 1, (y,))
            assert (v, type(v)) == (want, type(want)), (f.map.body, zs, y)
            seen["+inf" if v == POS_INF else "-inf" if v == NEG_INF else "finite"] += 1
    assert min(seen.values()) >= 100, seen


def test_a_point_outside_the_domain_is_refused():
    # The row 0.z >= x empties the values for x > 0.
    body = AffineBody(
        normals=(vec([1, 0]), vec([0, 1]), vec([0, 0])),
        offsets=(ZERO,) * 3,
        x_coeffs=(vec([0, 0]), vec([0, 0]), vec([1, 0])),
    )
    f = BivariateMap(SetValuedMap(2, ORTHANT_2D, body, name="halfline-domain"), 1, 1)
    with pytest.raises(DualityError, match="lies outside dom f"):
        fundamental_duality(f, (Fraction(1),))
    assert fundamental_duality(f, (ZERO,)).gap_sq == 0


def sampled_slice(f: BivariateMap, x0) -> SetValuedMap:
    """The map y -> f(x0, y) of a constant-normal affine body, on which the
    sampled regularity oracle runs."""
    body = f.map.body
    x0 = vec(x0)
    return SetValuedMap(
        f.p,
        f.cone,
        AffineBody(
            normals=body.normals,
            offsets=tuple(q + dot(l[: f.n], x0) for q, l in zip(body.offsets, body.x_coeffs)),
            x_coeffs=tuple(l[f.n :] for l in body.x_coeffs),
        ),
        name=f"{f.map.name or 'bivariate'}-slice",
    )


def sampled_regularity_fails(f: BivariateMap, x0) -> bool:
    """Whether the default-config sampled check finds a slice scalarization
    that is not upper semicontinuous at 0."""
    verdict = check_scalar_semicontinuity(
        sampled_slice(f, x0), (ZERO,) * f.p, DirectionBase.default(f.cone, 16), CheckerConfig(), "usc"
    )
    return verdict.status is Status.FAILS


def exact_regularity_fails(f: BivariateMap, x0) -> bool:
    """Whether fundamental_duality refuses on regularity.  The verdict does
    not read the base, so a small one keeps the other calls cheap."""
    try:
        fundamental_duality(f, vec(x0), DirectionBase.default(f.cone, 2))
    except DualityError as exc:
        return "regularity precondition violated" in str(exc)
    return False


def admissible_bivariate(rng: random.Random, cone) -> BivariateMap:
    """A random_bivariate draw whose every normal keeps the values upper
    closed for the cone."""
    while True:
        f = random_bivariate(rng, cone)
        if all(dual_cone(cone).contains(tuple(-c for c in n)) for n in f.map.body.normals):
            return f


def test_regularity_matches_the_sampled_check():
    """Every fourth map is over the orthant: its sampled check runs 16
    directions and costs about 50 ms at an interior point."""
    rng = random.Random(1315)
    seen = {"boundary": 0, "interior": 0}
    for k in range(150):
        f = admissible_bivariate(rng, ORTHANT_2D if k % 4 == 0 else HALFLINE_1D)
        for x in (-1, 0, 1):
            x0 = vec([x])
            if f.evaluate(x0, (ZERO,)).is_empty:
                continue
            exact = exact_regularity_fails(f, x0)
            assert exact == sampled_regularity_fails(f, x0), (f.map.body, x0)
            seen["boundary" if exact else "interior"] += 1
    assert min(seen.values()) >= 20, seen


def test_closed_form_route_imports_no_sampled_checker():
    code = """
import sys
from fractions import Fraction
from upperset.corpus import fixture_by_id, random_dual_pairs
from upperset.duality import fundamental_duality, weak_duality_check
from upperset.scalarize import DirectionBase

for fid in ("abs-bivariate", "abs-pair-2d"):
    f = fixture_by_id(fid).map
    base = DirectionBase.default(f.cone, 2) if fid == "abs-pair-2d" else None
    fundamental_duality(f, (Fraction(0),) * f.n, base)
    assert weak_duality_check(f, random_dual_pairs(7, 2, f.cone, f.p)).is_holds
print(sorted(m for m in sys.modules if m.startswith("upperset.")))
"""
    src = str(Path(upperset.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "upperset.duality" in out.stdout
    assert "upperset.continuity" not in out.stdout


def test_report_json_writes_an_infinite_gap_as_a_string():
    report = fundamental_duality(fixture_by_id("abs-bivariate").map, (ZERO,))
    report.gap_sq = POS_INF
    out = json.loads(json.dumps(report.to_json(), allow_nan=False))
    assert out["gap_sq"] == "+inf"
