"""Ground-truth-labeled fixture maps and seeded random inputs.

Four classical counterexample maps, three bivariate duality fixtures, and
seeded random-map generators.  Each fixture carries partial expected
verdict-matrix labels at selected points; the labels encode exactly the
continuity behavior each map is known for:

* ``ray-translate``: values are translates of a degenerate ray cone; the map
  is Hausdorff continuous but upper lattice semicontinuity and lattice
  boundedness fail everywhere (no point is shared by two distinct values).
* ``orthant-halfline``: the ordering cone on a half-line domain; upper
  continuous at the domain boundary yet neither efficient nor lower
  continuous there (values vanish on one side).
* ``parabola-dilation``: dilations x . A of a parabola-bounded set; both
  lattice semicontinuity notions hold at x0 = 1 while both Hausdorff
  notions fail, because dilating a set with unbounded curvature displaces
  far-out points beyond any fixed enlargement.  Its base A is
  ``sets.parabola_upper_set``, kept with the other oracles so that the map
  schema in ``maps`` reads it without importing this module.
* ``tilted-halfplane``: a halfspace whose normal tilts with x; every
  scalarization is upper semicontinuous at 0, yet lower continuity fails
  there, separating the scalar and set-valued notions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .duality import BivariateMap
from .geometry import Cone, dual_cone
from .linalg import ZERO, Vec, frac
from .maps import (
    AffineBody,
    AffineForm,
    PiecewiseBody,
    ScaledBody,
    SetValuedMap,
    constant_cone_body,
    constant_empty_body,
)
from .sets import parabola_upper_set

ORTHANT_2D = Cone.from_generators([[1, 0], [0, 1]])
RAY_CONE_2D = Cone.from_halfspaces([[1, 0], [-1, 0], [0, 1]])
HALFLINE_1D = Cone.from_generators([[1]])


class LabeledPoint(NamedTuple):
    at: Vec
    expect: dict[str, str]


class Fixture(NamedTuple):
    id: str
    map: SetValuedMap | BivariateMap
    points: tuple[LabeledPoint, ...] = ()
    notes: str = ""


def ray_translate_fixture() -> Fixture:
    body = AffineBody(
        normals=((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1))),
        offsets=(ZERO, ZERO, ZERO),
        x_coeffs=((Fraction(1),), (Fraction(-1),), (ZERO,)),
    )
    f = SetValuedMap(1, RAY_CONE_2D, body, name="ray-translate")
    labels = {"hlc": "holds", "lc": "holds", "uls": "fails", "lba": "fails"}
    pts = tuple(
        LabeledPoint((frac(x),), dict(labels)) for x in (0, 1, "-3/2")
    )
    return Fixture(
        "ray-translate",
        f,
        pts,
        notes="translated vertical rays under a degenerate ordering cone: "
        "Hausdorff continuous, never lattice-bounded above",
    )


def orthant_halfline_fixture() -> Fixture:
    body = PiecewiseBody(
        guard=((Fraction(1),), ZERO),
        when_true=constant_cone_body(ORTHANT_2D, 1),
        when_false=constant_empty_body(1, 2),
    )
    f = SetValuedMap(1, ORTHANT_2D, body, name="orthant-halfline")
    pts = (
        LabeledPoint(
            (ZERO,),
            {"uc": "holds", "eff": "fails", "lc": "fails", "lba": "fails"},
        ),
    )
    return Fixture(
        "orthant-halfline",
        f,
        pts,
        notes="the ordering cone on a half-line domain: upper continuous at "
        "the boundary, not efficient there",
    )


def parabola_dilation_fixture() -> Fixture:
    body = PiecewiseBody(
        guard=((Fraction(1),), ZERO),
        when_true=ScaledBody(parabola_upper_set(ORTHANT_2D), AffineForm.of([1], 0)),
        when_false=constant_empty_body(1, 2),
    )
    f = SetValuedMap(1, ORTHANT_2D, body, name="parabola-dilation")
    pts = (
        LabeledPoint(
            (Fraction(1),),
            {
                "uls": "holds",
                "lls": "holds",
                "huc": "fails",
                "hlc": "fails",
                "uc": "fails",
            },
        ),
        LabeledPoint((ZERO,), {"lls": "holds", "cminus_lsc": "fails"}),
    )
    return Fixture(
        "parabola-dilation",
        f,
        pts,
        notes="dilations of a parabola-bounded set: lattice semicontinuous "
        "both ways at 1, Hausdorff continuous neither way",
    )


def tilted_halfplane_fixture() -> Fixture:
    body = PiecewiseBody(
        guard=((Fraction(-1),), ZERO),
        when_true=constant_cone_body(ORTHANT_2D, 1),
        when_false=AffineBody(
            normals=((Fraction(1), Fraction(0)),),
            offsets=(Fraction(1),),
            x_coeffs=((Fraction(1),),),
            x_normals=(((Fraction(0), Fraction(1)),),),
        ),
    )
    f = SetValuedMap(1, ORTHANT_2D, body, name="tilted-halfplane")
    pts = (
        LabeledPoint((ZERO,), {"lc": "fails", "cminus_usc": "holds"}),
    )
    return Fixture(
        "tilted-halfplane",
        f,
        pts,
        notes="a halfspace whose normal tilts with the parameter: all "
        "scalarizations upper semicontinuous at 0, lower continuity fails",
    )


def abs_bivariate_fixture() -> Fixture:
    # f(x, y) = {z : z >= |x| + |x - y|} over the half-line cone.
    body = AffineBody(
        normals=((Fraction(1),),) * 4,
        offsets=(ZERO, ZERO, ZERO, ZERO),
        x_coeffs=(
            (Fraction(2), Fraction(-1)),
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(-1)),
            (Fraction(-2), Fraction(1)),
        ),
    )
    f = SetValuedMap(2, HALFLINE_1D, body, name="abs-bivariate")
    return Fixture(
        "abs-bivariate",
        BivariateMap(f, 1, 1),
        notes="epigraph of |x| + |x - y|: marginal at 0 is the nonnegative "
        "half-line, dual family pins y* = 0",
    )


def pl_profile_fixture() -> Fixture:
    # f(x, y) = {z : z >= max(-y, 2y - 1)}, independent of x.
    body = AffineBody(
        normals=((Fraction(1),), (Fraction(1),)),
        offsets=(ZERO, Fraction(-1)),
        x_coeffs=(
            (Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(2)),
        ),
    )
    f = SetValuedMap(2, HALFLINE_1D, body, name="pl-profile")
    return Fixture(
        "pl-profile",
        BivariateMap(f, 1, 1),
        notes="x-independent piecewise-linear profile: the dual vector is a "
        "subgradient of the profile at the origin",
    )


def abs_pair_fixture() -> Fixture:
    # f(x, y) = {(|x| + |x - y|, |y|)} + the plane's nonnegative orthant.
    rows_z1 = (
        (Fraction(2), Fraction(-1)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
        (Fraction(-2), Fraction(1)),
    )
    rows_z2 = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)))
    body = AffineBody(
        normals=tuple([(Fraction(1), Fraction(0))] * 4 + [(Fraction(0), Fraction(1))] * 2),
        offsets=(ZERO,) * 6,
        x_coeffs=rows_z1 + rows_z2,
    )
    f = SetValuedMap(2, ORTHANT_2D, body, name="abs-pair-2d")
    return Fixture(
        "abs-pair-2d",
        BivariateMap(f, 1, 1),
        notes="two coupled scalar profiles in a planar image space; the "
        "per-direction scalar problems combine",
    )


def builtin_fixtures() -> list[Fixture]:
    """All labeled fixtures plus the bivariate duality instances."""
    return [
        ray_translate_fixture(),
        orthant_halfline_fixture(),
        parabola_dilation_fixture(),
        tilted_halfplane_fixture(),
        abs_bivariate_fixture(),
        pl_profile_fixture(),
        abs_pair_fixture(),
    ]


def fixture_by_id(fixture_id: str) -> Fixture:
    for f in builtin_fixtures():
        if f.id == fixture_id:
            return f
    raise KeyError(f"unknown builtin fixture {fixture_id!r}")


# -- random generators ---------------------------------------------------------


def random_convex_affine_maps(seed: int, count: int, dim_x: int = 1) -> list[SetValuedMap]:
    """Seeded random convex halfspace-family maps over the plane orthant.

    Rows are drawn from the positive dual of the cone (so values are upper
    closed); occasional zero rows restrict the domain, so the sweep also
    exercises points at and outside dom f.
    """
    rng = random.Random(seed)
    out: list[SetValuedMap] = []
    for i in range(count):
        rows = rng.randint(1, 3)
        normals = []
        offsets = []
        x_coeffs = []
        for _ in range(rows):
            if rng.random() < 0.15:
                normals.append((ZERO, ZERO))
            else:
                normals.append((Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3))))
                if all(c == 0 for c in normals[-1]):
                    normals[-1] = (Fraction(1), Fraction(0))
            offsets.append(Fraction(rng.randint(-2, 2)))
            x_coeffs.append(tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim_x)))
        body = AffineBody(
            normals=tuple(normals),
            offsets=tuple(offsets),
            x_coeffs=tuple(x_coeffs),
        )
        out.append(
            SetValuedMap(dim_x, ORTHANT_2D, body, name=f"rand-affine-{seed}-{i}")
        )
    return out


def random_dual_pairs(seed: int, count: int, cone: Cone, ystar_dim: int) -> list[tuple[Vec, Vec]]:
    """Seeded (y*, z*) pairs with z* in C^- \\ {0}."""
    rng = random.Random(seed)
    gens = dual_cone(cone).generators
    pairs = []
    while len(pairs) < count:
        coeffs = [Fraction(rng.randint(0, 4)) for _ in gens]
        zs = tuple(
            sum((c * g[i] for c, g in zip(coeffs, gens)), ZERO) for i in range(cone.dim)
        )
        if all(c == 0 for c in zs):
            continue
        ys = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(ystar_dim))
        pairs.append((ys, zs))
    return pairs
