"""Labeled corpus: checker verdicts and fundamental duality on the fixtures.

Labels are ground truth and are never edited here.  A label that the
checkers miss today is a strict xfail naming the ROADMAP defect behind it,
so a fix shows up as an unexpected pass.
"""

from functools import lru_cache

import pytest

from upperset.continuity import default_config, verdict_matrix
from upperset.corpus import fixture_by_id
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


@lru_cache(maxsize=None)
def _light_matrix(fixture_id: str, index: int):
    fx = fixture_by_id(fixture_id)
    return verdict_matrix(fx.map, fx.points[index].at, default_config().light())


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
