"""Fundamental duality: the partial infimum, the exact regularity test, the
refusal outside dom f, the closed-form route's imports, the report's JSON,
one LP per proper direction, and a seeded pin of reports and refusals with
two named draws of it."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import upperset
from upperset import duality
from upperset.conjugate import PiecewiseLinearFn, scalar_conjugate
from upperset.continuity import CheckerConfig, check_scalar_semicontinuity
from upperset.corpus import HALFLINE_1D, ORTHANT_2D, fixture_by_id, random_dual_pairs
from upperset.duality import BivariateMap, DualityError, fundamental_duality, marginal_scalarization
from upperset.geometry import Polyhedron, dual_cone
from upperset.linalg import NEG_INF, ONE, POS_INF, ZERO, Ext, Vec, dot, vec
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


def test_one_lp_per_proper_direction(lp_calls):
    # The dual program is posed and solved directly: the primal's optimal
    # value is the marginal value, known already, so no second LP runs.
    report = fundamental_duality(fixture_by_id("abs-bivariate").map, (ZERO,))
    proper = [row for row in report.support_table if row["status"] == "proper"]
    assert proper
    assert [caller for caller, _ in lp_calls] == ["_attained_dual_vector"] * len(proper)


@lru_cache(maxsize=None)
def seeded_draws() -> tuple[BivariateMap, ...]:
    """200 admissible random bivariate maps, seed 1315; every fourth is over
    the orthant."""
    rng = random.Random(1315)
    return tuple(admissible_bivariate(rng, ORTHANT_2D if k % 4 == 0 else HALFLINE_1D) for k in range(200))


REFUSALS = {
    "lies outside dom f": "outside the domain",
    "regularity precondition violated": "regularity",
    "scalar dual attainment failed": "attainment",
}


def _outcome(f: BivariateMap, x0: Vec):
    """The report's JSON, or the kind of the refusal."""
    try:
        return fundamental_duality(f, x0).to_json()
    except DualityError as e:
        (kind,) = [kind for text, kind in REFUSALS.items() if text in str(e)]
        return kind


# First 16 hex digits of sha256(json.dumps(outcomes, sort_keys=True)).
SEEDED_DUALITY_DIGEST = "fec2690aa01762af"


def test_seeded_reports_and_refusals_are_pinned():
    outcomes = [_outcome(f, vec([x])) for f in seeded_draws() for x in (-1, 0, 1)]
    kinds = [o for o in outcomes if isinstance(o, str)]
    assert len(kinds) < len(outcomes) and set(kinds) == set(REFUSALS.values())
    digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == SEEDED_DUALITY_DIGEST


def test_a_probe_attains_where_the_lp_candidate_fails(monkeypatch):
    # Draw 119: the dual program's multiplier y* = 0 misses the conjugate
    # identity; the probe y* = 1 attains it.
    f = seeded_draws()[119]
    candidates = []
    probes = duality._dual_probes

    def recording(candidate):
        candidates.append(tuple(candidate))
        return probes(candidate)

    monkeypatch.setattr(duality, "_dual_probes", recording)
    for x in (-1, 0, 1):
        report = fundamental_duality(f, vec([x]))
        ((zs, ys),) = report.family.entries.items()
        v = marginal_scalarization(f, zs, (ZERO,))
        phi = piecewise_scalarization(f.map, zs)
        assert scalar_conjugate(phi, (ZERO, ZERO)) != -v
        assert ys == (ONE,) and scalar_conjugate(phi, (ZERO, ONE)) == -v
    assert candidates == [(ZERO,)] * 3


@pytest.mark.xfail(
    strict=True,
    raises=DualityError,
    reason="ROADMAP direction 2: neither the dual program's multiplier nor a probe "
    "attains the conjugate identity, though a proper polyhedral marginal is "
    "subdifferentiable at 0 (Rockafellar 1970, Thm 23.10)",
)
@pytest.mark.parametrize("x", [-1, 0, 1])
def test_every_proper_direction_of_draw_132_attains(x):
    # It raises "scalar dual attainment failed" at every point.
    fundamental_duality(seeded_draws()[132], vec([x]))
