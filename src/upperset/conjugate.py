"""Scalar Legendre-Fenchel conjugation and the set-valued negative conjugate.

The scalar side works on exact piecewise-linear functions: finitely many
affine pieces over polyhedral regions, an optional region of value -inf, and
+inf outside.  Conjugates are computed two independent ways where tests need
them: per-piece supports read from each region's V-form (any dimension, no
LP) and, in one dimension, breakpoint enumeration that materializes the
conjugate in closed form.

The set-valued negative conjugate of a map f at a dual pair (x*, z*) is the
halfspace

    { z : -(phi*)(x*) <= -z*.z }

for the scalarization phi of f in direction z*; it degenerates to the whole
space for improper phi (conjugate identically +inf) and to the empty set
when f is empty (conjugate identically -inf).  A second, direct route sums
f(x) with the halfspace-valued map S over a sample grid and brackets the
same value from inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import Cone, DualPair, Polyhedron
from .linalg import NEG_INF, POS_INF, ZERO, Ext, Vec, dot, vec
from .sets import UpperSet


@dataclass(frozen=True)
class AffinePiece:
    region: Polyhedron
    coeffs: Vec
    const: Fraction

    def value(self, x: Vec) -> Fraction:
        return dot(self.coeffs, x) + self.const


class PiecewiseLinearFn:
    """Exact piecewise-linear extended-real function.

    Evaluation scans pieces in order and uses the first region containing the
    argument; failing that, a matching minus-infinity region gives -inf, and
    everything else is +inf.  Closed forms produced inside this package have
    consistent values on overlapping closed regions; branch-combined forms
    rely on the documented first-match order at branch boundaries.
    """

    def __init__(
        self,
        dim: int,
        pieces: Sequence[AffinePiece] = (),
        minus_inf_regions: Sequence[Polyhedron] = (),
    ):
        self.dim = dim
        self.pieces = tuple(p for p in pieces if not p.region.is_empty)
        self.minus_inf_regions = tuple(r for r in minus_inf_regions if not r.is_empty)

    def __call__(self, x) -> Ext:
        xv = vec(x)
        for p in self.pieces:
            if p.region.contains(xv):
                return p.value(xv)
        for r in self.minus_inf_regions:
            if r.contains(xv):
                return NEG_INF
        return POS_INF

    @property
    def improper_below(self) -> bool:
        return bool(self.minus_inf_regions)

    @property
    def never_finite(self) -> bool:
        return not self.pieces

    def kinks_1d(self) -> list[Fraction]:
        """Breakpoint/endpoint candidates of a univariate instance."""
        if self.dim != 1:
            raise ValueError("kink enumeration is one-dimensional only")
        pts: set[Fraction] = set()
        for p in self.pieces:
            for n, b in p.region.rows:
                if n[0] != 0:
                    pts.add(b / n[0])
        return sorted(pts)


def scalar_conjugate(phi: PiecewiseLinearFn, xstar) -> Ext:
    """phi*(x*) = sup_x (x*.x - phi(x)): the largest support of a piece's
    region in the direction x* - a, less the piece's constant.

    Improper phi (a -inf region) conjugates to +inf identically; phi with no
    finite piece (identically +inf) conjugates to -inf.
    """
    xs = vec(xstar)
    if phi.improper_below:
        return POS_INF
    if phi.never_finite:
        return NEG_INF
    best: Ext = NEG_INF
    for p in phi.pieces:
        s = p.region.support(tuple(a - b for a, b in zip(xs, p.coeffs)))
        if s == POS_INF:
            return POS_INF
        best = max(best, s - p.const)
    return best


def max_affine_1d(slope_consts: Sequence[tuple[Fraction, Fraction]], dom_rows=()) -> PiecewiseLinearFn:
    """Builds max_j (a_j x + c_j) over an interval domain as a consistent
    piecewise-linear function (regions split at crossings)."""
    pieces: list[AffinePiece] = []
    items = list(slope_consts)
    for j, (a_j, c_j) in enumerate(items):
        rows = list(dom_rows)
        for k, (a_k, c_k) in enumerate(items):
            if k == j:
                continue
            rows.append(((a_j - a_k,), c_k - c_j))
        region = Polyhedron(1, rows)
        if not region.is_empty:
            pieces.append(AffinePiece(region, (a_j,), c_j))
    return PiecewiseLinearFn(1, pieces)


def conjugate_1d(phi: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """Exact closed-form conjugate of a univariate convex piecewise-linear
    function, by breakpoint enumeration.

    For convex phi the supremum over each piece is attained at an endpoint
    (or runs off to infinity along an unbounded piece), so the conjugate is
    the maximum of x_c . y - phi(x_c) over breakpoints x_c, clipped to the
    slope range on unbounded domains.
    """
    if phi.dim != 1:
        raise ValueError("one-dimensional instances only")
    if phi.improper_below:
        return PiecewiseLinearFn(1)  # identically +inf
    if phi.never_finite:
        return PiecewiseLinearFn(1, minus_inf_regions=[Polyhedron.full(1)])

    candidates = phi.kinks_1d()
    dom_rows: list[tuple[Vec, Fraction]] = []
    unbounded_above = any(
        p.region.support((Fraction(1),)) == POS_INF for p in phi.pieces
    )
    unbounded_below = any(
        p.region.support((Fraction(-1),)) == POS_INF for p in phi.pieces
    )
    if unbounded_above:
        # Ultimate slope to the right bounds dom phi* above.
        right = max(
            p.coeffs[0]
            for p in phi.pieces
            if p.region.support((Fraction(1),)) == POS_INF
        )
        dom_rows.append(((Fraction(-1),), -right))
    if unbounded_below:
        left = min(
            p.coeffs[0]
            for p in phi.pieces
            if p.region.support((Fraction(-1),)) == POS_INF
        )
        dom_rows.append(((Fraction(1),), left))
    if not candidates:
        # Single affine piece over all of R: conjugate is finite at one slope.
        a = phi.pieces[0].coeffs[0]
        c = phi.pieces[0].const
        point = Polyhedron(1, [((Fraction(1),), a), ((Fraction(-1),), -a)])
        return PiecewiseLinearFn(1, [AffinePiece(point, (ZERO,), -c)])
    slope_consts = []
    for xc in candidates:
        v = phi((xc,))
        if isinstance(v, float):
            continue
        slope_consts.append((xc, -v))
    return max_affine_1d(slope_consts, dom_rows)


# -- set-valued negative conjugate ----------------------------------------------


@dataclass(frozen=True)
class NegConjugateValue:
    """Value of the negative conjugate at one dual pair: a halfspace, the
    empty set, or the whole space."""

    pair: DualPair
    value: UpperSet
    offset: Ext  # sup of z*.z over the value; the conjugate phi*(x*)


def neg_conjugate_scalar_route(f, pair: DualPair) -> NegConjugateValue:
    """(-f*)(x*, z*) through the scalar conjugate of the scalarization.

    The value is { z : z*.z <= phi*(x*) }: the whole space when phi* = +inf
    (improper scalarization), the empty set when phi* = -inf (f empty).
    """
    from .scalarize import piecewise_scalarization

    pair.validate_for(f.cone)
    phi = piecewise_scalarization(f, pair.zstar)
    if phi is None:
        raise ValueError("map admits no closed-form scalarization")
    offset = scalar_conjugate(phi, pair.xstar)
    return NegConjugateValue(pair, _halfspace_value(f.cone, pair.zstar, offset), offset)


def _halfspace_value(cone: Cone, zstar: Vec, offset: Ext) -> UpperSet:
    if offset == POS_INF:
        return UpperSet.universal(cone)
    if offset == NEG_INF:
        return UpperSet.empty(cone)
    row = (tuple(-c for c in zstar), -offset)
    return UpperSet(cone, pieces=[Polyhedron(cone.dim, [row])])


def neg_conjugate_direct(f, pair: DualPair, x_grid: Sequence[Vec]) -> NegConjugateValue:
    """Inner bracketing of cl union_x (f(x) + S(-x)) over a finite grid.

    Each summand is a halfspace with the common normal z*, so the closed
    union is the halfspace whose offset is the supremum of
    x*.x + sup{z*.z : z in f(x)} over the grid; refining the grid grows the
    offset monotonically toward the scalar-route value.
    """
    pair.validate_for(f.cone)
    best: Ext = NEG_INF
    for x in x_grid:
        s = f.evaluate(x).support(pair.zstar)
        if s == NEG_INF:
            continue
        if s == POS_INF:
            best = POS_INF
            break
        v = s + dot(pair.xstar, vec(x))
        if v > best:
            best = v
    return NegConjugateValue(pair, _halfspace_value(f.cone, pair.zstar, best), best)


def fenchel_young_holds(phi: PiecewiseLinearFn, x, xstar) -> bool:
    """phi(x) + phi*(x*) >= x*.x in extended arithmetic."""
    vx = phi(x)
    vc = scalar_conjugate(phi, xstar)
    if vx == POS_INF or vc == POS_INF:
        return True
    if vx == NEG_INF or vc == NEG_INF:
        return False
    return vx + vc >= dot(vec(xstar), vec(x))
