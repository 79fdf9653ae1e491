"""Scalarizations and the direction bases they are taken over.

The scalarization of a map f in a dual direction z* is

    phi(x) = -sup{ z*.z : z in f(x) },

the negative support value of f(x); it is +inf exactly where f(x) is empty
and -inf where the support is unbounded.  A convex value f(x) is the
intersection of the halfspaces {z : z*.z <= -phi(x)} over z* in C^-; the
checkers read the scalarizations over a finite direction base.  Maps whose
leaves all have polyhedral graphs also get exact piecewise-linear closed
forms of their scalarizations (``piecewise_scalarization``).

Direction bases are rational vectors spanning the negative dual cone of the
ordering cone, built the same way in every dimension: C^- is covered by
simplicial cells of its generators, each cell is subdivided edgewise (a
uniform fan), and optional dyadic tail directions creep along each cell's
edges toward its generators.  The tails make unbounded support gaps
detectable at matching dyadic scales, and directions are rescaled to exact
unit Euclidean length whenever the squared norm is a perfect rational
square, so support comparisons stay rational.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from .conjugate import AffinePiece, PiecewiseLinearFn, max_affine
from .geometry import Cone, Polyhedron, Region, dual_cone, project_out, rank, require_dual_direction
from .linalg import (
    ZERO,
    Constraint,
    Ext,
    HashedVec,
    Vec,
    norm2_sq,
    scale_to_canonical,
    vec,
)
from .maps import SetValuedMap


def _unitize(u: Vec) -> Vec:
    """Exact unit vector when the squared norm is a perfect rational square."""
    s = norm2_sq(u)
    if s == 0:
        return u
    rn, rd = math.isqrt(s.numerator), math.isqrt(s.denominator)
    if rn * rn == s.numerator and rd * rd == s.denominator:
        r = Fraction(rn, rd)
        return tuple(x / r for x in u)
    return scale_to_canonical(u)


def _det(rows: tuple[Vec, ...]) -> Fraction:
    """Laplace expansion along the first row; m <= 4 keeps it small."""
    if len(rows) == 1:
        return rows[0][0]
    minors = ([r[:j] + r[j + 1 :] for r in rows[1:]] for j in range(len(rows)))
    return sum((-1) ** j * rows[0][j] * _det(minor) for j, minor in enumerate(minors))


def _fan_of(dual: Cone, fan: int, tails: int) -> tuple[Vec, ...]:
    """Rational directions positively spanning C^-, in every dimension.

    Cells: the linearly independent k-subsets of C^-'s distinct generators,
    k their rank, in combination order; when k = m >= 2 each is oriented to
    a positive determinant, and the cells are sorted by their vertices'
    positions.  They cover C^- (Caratheodory), lineality included.  Each
    cell is subdivided edgewise to the largest depth d >= 1 with
    cells * d^(k-1) <= ``fan``, so ``fan`` counts the small simplices in
    total, and its grid points sum(c_i / d) g_i (sum c = d) are taken with
    c_2..c_k in product order.  ``tails`` then adds a + 2^-j b and
    2^-j a + b for j = 1..tails along every edge (a, b) of the cell,
    approaching each generator geometrically.  Directions are unitized and
    kept at first sight.
    """
    m = dual.dim
    gens = list(dict.fromkeys(scale_to_canonical(g) for g in dual.generators))
    k = rank(gens)
    pos = {g: i for i, g in enumerate(gens)}
    cells = []
    for cell in itertools.combinations(gens, k):
        if rank(cell) == k:
            if k == m >= 2 and _det(cell) < 0:
                cell = cell[:-2] + (cell[-1], cell[-2])
            cells.append(cell)
    cells.sort(key=lambda cell: [pos[g] for g in cell])
    d = 1
    while k > 1 and len(cells) * (d + 1) ** (k - 1) <= fan:
        d += 1
    out: dict[Vec, None] = {}

    def push(weights, vertices) -> None:
        point = tuple(sum(w * v[i] for w, v in zip(weights, vertices)) for i in range(m))
        out.setdefault(_unitize(point))

    for cell in cells:
        for rest in itertools.product(range(d + 1), repeat=k - 1):
            if sum(rest) <= d:
                push([Fraction(c, d) for c in (d - sum(rest),) + rest], cell)
        for a, b in itertools.combinations(cell, 2):
            for j in range(1, tails + 1):
                t = Fraction(1, 2**j)
                push((1, t), (a, b))
                push((t, 1), (a, b))
    return tuple(out)


class DirectionBase:
    """Finite direction set B in C^- \\ {0} used for uniform semicontinuity
    and duality; certification records which base conditions hold."""

    def __init__(self, cone: Cone, directions: tuple[Vec, ...]):
        if not directions:
            raise ValueError("empty direction base")
        for d in directions:
            require_dual_direction(cone, d)
        self.cone = cone
        self.directions = directions

    def __eq__(self, other) -> bool:
        return type(other) is DirectionBase and (self.cone, self.directions) == (other.cone, other.directions)

    @staticmethod
    def default(cone: Cone, fan: int = 64, tails: int = 0) -> "DirectionBase":
        """The base of ``_fan_of(C^-, fan, tails)``.  It depends on the cone,
        ``fan`` and ``tails`` alone, so it is built once per cone object and
        (fan, tails) and stored on the cone; every caller then shares one
        base object and ``certify_base``'s answer on it.  Its directions are
        ``HashedVec``s, which keep their hash and the integer form of their
        first support read, for every scan over the cone."""
        bases = cone.__dict__.setdefault("_bases", {})
        if (fan, tails) not in bases:
            directions = tuple(map(HashedVec, _fan_of(dual_cone(cone), fan, tails)))
            bases[(fan, tails)] = DirectionBase(cone, directions)
        return bases[(fan, tails)]


def certify_base(base: DirectionBase) -> bool:
    """cone(B) = C^-, the finite-base condition behind the uniform theorems.

    B lies in C^- (``DirectionBase`` checks it), so cone(B) is inside C^-,
    and its polar cone(B)^- = {y : d.y <= 0 for d in B} contains
    (C^-)^- = C.  Both cones are closed, so by the bipolar theorem they are
    equal exactly when that polar lies inside C, that is, when every
    generator of the polar, lineality vectors included, is in C.  The polar
    comes from one double-description pass over the rows -d.y >= 0, and
    each generator is checked against C's integer rows.

    The answer depends on the base alone, so it is computed once per base
    object and stored on it.  ``DirectionBase.default`` keeps one base per
    cone object and (fan, tails), so a default base is certified once per
    cone and fan, however many matrices read it.
    """
    cached = base.__dict__.get("_generates_dual")
    if cached is not None:
        return cached
    polar = Cone.from_halfspaces([tuple(-c for c in d) for d in base.directions], base.cone.dim)
    generates = all(base.cone.contains(g) for g in polar.generators)
    return base.__dict__.setdefault("_generates_dual", generates)


# -- evaluation ------------------------------------------------------------------


def scalarization_value(f: SetValuedMap, zstar: Vec, x) -> Ext:
    """phi(x) = -sup{ z*.z : z in f(x) }; +inf on empty values, -inf when the
    support is unbounded.  z* is not checked here: the callers read it off a
    ``DirectionBase``, which checks that each of its directions lies in
    C^- \\ {0}.  Negation maps the support's -inf and +inf to +inf and -inf."""
    return -f.evaluate(x).support(zstar)


# -- closed forms ----------------------------------------------------------------


def piecewise_scalarization(f: SetValuedMap, zstar) -> Optional[PiecewiseLinearFn]:
    """Exact piecewise-linear closed form of the scalarization, when every
    leaf has a polyhedral graph G (``Leaf.graph_rows``); None otherwise.

    On a leaf, the epigraph {(x, t) : t >= phi(x)} is the projection of
    {(x, z, t) : (x, z) in G, z*.z + t >= 0}.  ``project_out`` gives its
    facets, whose t-coefficients are nonnegative: rows with positive
    coefficient are the affine lower bounds (phi is their maximum; each is
    a facet, so none is redundant) and rows without t cut its domain out of
    the leaf's region, strict rows included.  Leaves with no lower bounding
    row have phi = -inf across their domain.
    """
    zs = vec(zstar)
    require_dual_direction(f.cone, zs)
    if any(leaf.graph_rows is None for leaf in f.leaves):
        return None
    n = f.domain_dim
    m = f.cone.dim
    pieces: list[AffinePiece] = []
    minus_regions: list[Region] = []
    for leaf in f.leaves:
        if leaf.empty:
            continue
        lifted = [(row + (ZERO,), q) for row, q in leaf.graph_rows]
        lifted.append((tuple([ZERO] * n + list(zs) + [Fraction(1)]), ZERO))
        projected = project_out(Polyhedron(n + m + 1, lifted), list(range(n, n + m)))
        dom_rows: list[Constraint] = []
        bounds: list[tuple[Vec, Fraction]] = []
        for row, b in projected.rows:
            t_coeff = row[-1]
            xs_part = row[:-1]
            if t_coeff == 0:
                dom_rows.append((xs_part, b))
            elif t_coeff < 0:
                raise AssertionError("epigraph projection produced an upper bound")
            else:
                bounds.append((tuple(-c / t_coeff for c in xs_part), b / t_coeff))
        dom = leaf.region.intersect(Region.closed(Polyhedron(n, dom_rows)))
        if not bounds:
            minus_regions.append(dom)
            continue
        pieces.extend(max_affine(bounds, dom).pieces)
    return PiecewiseLinearFn(n, pieces, minus_regions)
