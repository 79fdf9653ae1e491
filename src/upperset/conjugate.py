"""Scalar Legendre-Fenchel conjugation and the set-valued negative conjugate.

The scalar side works on exact piecewise-linear functions: finitely many
affine pieces over ``geometry.Region``s, regions of value -inf, and +inf
outside.  ``max_affine`` builds the maximum of finitely many affine functions
over a region in this form, one piece per function where it is largest.  The
conjugate reads per piece the support of its region's closure, taken from
its V-form, in the direction x* - a (any dimension, no LP).

The set-valued negative conjugate of a map f at a dual pair (x*, z*) is the
halfspace

    { z : -(phi*)(x*) <= -z*.z }

for the scalarization phi of f in direction z*; it degenerates to the whole
space for improper phi (conjugate identically +inf) and to the empty set
when f is empty (conjugate identically -inf).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .geometry import DualPair, Polyhedron, Region, require_dual_direction
from .linalg import NEG_INF, POS_INF, Ext, Vec, dot, vec
from .sets import UpperSet


class AffinePiece:
    def __init__(self, region: Region, coeffs: Vec, const: Fraction):
        self.region = region
        self.coeffs = coeffs
        self.const = const


class PiecewiseLinearFn:
    """Exact piecewise-linear extended-real function: a piece's value on its
    region, -inf on a minus-infinity region, +inf elsewhere.  The regions of
    a closed form built here overlap only where pieces agree, so the value
    does not depend on the order in which they are read."""

    def __init__(
        self,
        dim: int,
        pieces: Sequence[AffinePiece] = (),
        minus_inf_regions: Sequence[Region] = (),
    ):
        self.dim = dim
        self.pieces = tuple(p for p in pieces if not p.region.is_empty)
        self.minus_inf_regions = tuple(r for r in minus_inf_regions if not r.is_empty)

    def __call__(self, x) -> Ext:
        xv = vec(x)
        for p in self.pieces:
            if p.region.contains(xv):
                return dot(p.coeffs, xv) + p.const
        for r in self.minus_inf_regions:
            if r.contains(xv):
                return NEG_INF
        return POS_INF

    def fix_tail(self, y) -> "PiecewiseLinearFn":
        """The slice x -> phi(x, y), trailing coordinates fixed at y, flags kept."""
        yv = vec(y)
        k = self.dim - len(yv)

        def cut(region: Region) -> Region:
            rows = [(n[:k], b - dot(n[k:], yv)) for n, b in region.closure.rows]
            return Region(Polyhedron(k, rows), region.strict)

        return PiecewiseLinearFn(
            k,
            [AffinePiece(cut(p.region), p.coeffs[:k], p.const + dot(p.coeffs[k:], yv)) for p in self.pieces],
            [cut(r) for r in self.minus_inf_regions],
        )


def scalar_conjugate(phi: PiecewiseLinearFn, xstar) -> Ext:
    """phi*(x*) = sup_x (x*.x - phi(x)): the largest support of a piece's
    region's closure in the direction x* - a, less the piece's constant.

    Improper phi (a -inf region) conjugates to +inf identically; phi with no
    finite piece (identically +inf) conjugates to -inf.
    """
    xs = vec(xstar)
    if phi.minus_inf_regions:
        return POS_INF
    if not phi.pieces:
        return NEG_INF
    best: Ext = NEG_INF
    for p in phi.pieces:
        s = p.region.closure.support(tuple(a - b for a, b in zip(xs, p.coeffs)))
        if type(s) is float and s > 0:
            return POS_INF
        best = max(best, s - p.const)
    return best


def max_affine(bounds: Sequence[tuple[Vec, Fraction]], dom: Region) -> PiecewiseLinearFn:
    """max_j (a_j.x + c_j) over the region ``dom`` as a consistent
    piecewise-linear function: bound j's region is dom where bound j is
    largest (regions split at crossings), in the order of ``bounds``."""
    dim = dom.closure.dim
    pieces: list[AffinePiece] = []
    for j, (a_j, c_j) in enumerate(bounds):
        others = (bound for k, bound in enumerate(bounds) if k != j)
        rows = [(tuple(x - y for x, y in zip(a_j, a_k)), c_k - c_j) for a_k, c_k in others]
        region = dom.intersect(Region.closed(Polyhedron(dim, rows)))
        if not region.is_empty:
            pieces.append(AffinePiece(region, a_j, c_j))
    return PiecewiseLinearFn(dim, pieces)


# -- set-valued negative conjugate ----------------------------------------------


class NegConjugateValue(NamedTuple):
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

    require_dual_direction(f.cone, pair.zstar)
    phi = piecewise_scalarization(f, pair.zstar)
    if phi is None:
        raise ValueError("map admits no closed-form scalarization")
    offset = scalar_conjugate(phi, pair.xstar)
    value = UpperSet.from_supports(f.cone, [(pair.zstar, offset)])
    return NegConjugateValue(pair, value, offset)
