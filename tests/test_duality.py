"""Fundamental duality: the exact regularity test, the closed-form route's
imports and the report's JSON."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import upperset
from upperset.continuity import CheckerConfig, check_scalar_semicontinuity
from upperset.corpus import HALFLINE_1D, ORTHANT_2D, fixture_by_id
from upperset.duality import BivariateMap, DualityError, fundamental_duality
from upperset.geometry import dual_cone
from upperset.linalg import POS_INF, ZERO, dot, vec
from upperset.maps import AffineBody, SetValuedMap
from upperset.scalarize import DirectionBase
from upperset.verdict import Status

from test_conjugate import random_bivariate


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
    out = json.loads(json.dumps(replace(report, gap_sq=POS_INF).to_json(), allow_nan=False))
    assert out["gap_sq"] == "+inf"
