"""Labeled corpus: checker verdicts and fundamental duality on the fixtures.

Labels are ground truth and are never edited here.  A label that the
checkers miss today is a strict xfail naming the ROADMAP defect behind it,
so a fix shows up as an unexpected pass.

The whole JSON of each light() matrix is also pinned by a digest, so a
refactor of the checkers must keep every witness, radius, note and
resolution, not only the statuses the labels name.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from upperset.continuity import default_config, verdict_matrix
from upperset.corpus import fixture_by_id, random_convex_affine_maps
from upperset.duality import DualityError, fundamental_duality
from upperset.linalg import ZERO

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
    ("orthant-halfline", 0): "1cf34ffb4f62c60d",
    ("tilted-halfplane", 0): "1f3ede01566a05d2",
    ("ray-translate", 0): "8f0e4f7288332312",
    ("ray-translate", 1): "9105b63622ce2f7d",
    ("ray-translate", 2): "8ff07226a3ab1e40",
    ("parabola-dilation", 0): "6838bf879f31ecf1",
    ("parabola-dilation", 1): "d0d15085379e646f",
    ("rand-affine-1", 0): "a23d1b1696a9117b",
    ("rand-affine-2", 0): "4e566bb75724f9cc",
    ("rand-affine-3", 0): "734c6b6fad99dab7",
}


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
