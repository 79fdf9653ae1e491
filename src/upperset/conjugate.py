"""Scalar Legendre-Fenchel conjugation and the set-valued negative conjugate.

The scalar side works on exact piecewise-linear functions: finitely many
affine pieces over polyhedral regions, an optional region of value -inf, and
+inf outside.  ``max_affine`` builds the maximum of finitely many affine
functions over a polyhedron in this form, one piece per function where it
is largest.  The conjugate is read per piece: the support of each region,
taken from its V-form, in the direction x* - a (any dimension, no LP).

The set-valued negative conjugate of a map f at a dual pair (x*, z*) is the
halfspace

    { z : -(phi*)(x*) <= -z*.z }

for the scalarization phi of f in direction z*; it degenerates to the whole
space for improper phi (conjugate identically +inf) and to the empty set
when f is empty (conjugate identically -inf).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import DualPair, Polyhedron, require_dual_direction
from .linalg import NEG_INF, POS_INF, Ext, Vec, dot, vec
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

    def fix_tail(self, y) -> "PiecewiseLinearFn":
        """The slice x -> phi(x, y), with the trailing coordinates fixed at y."""
        yv = vec(y)
        k = self.dim - len(yv)

        def cut(region: Polyhedron) -> Polyhedron:
            return Polyhedron(k, [(n[:k], b - dot(n[k:], yv)) for n, b in region.rows])

        return PiecewiseLinearFn(
            k,
            [AffinePiece(cut(p.region), p.coeffs[:k], p.const + dot(p.coeffs[k:], yv)) for p in self.pieces],
            [cut(r) for r in self.minus_inf_regions],
        )


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
        if type(s) is float and s > 0:
            return POS_INF
        best = max(best, s - p.const)
    return best


def max_affine(dim: int, bounds: Sequence[tuple[Vec, Fraction]], dom_rows=()) -> PiecewiseLinearFn:
    """max_j (a_j.x + c_j) over the polyhedron ``dom_rows`` as a consistent
    piecewise-linear function: bound j's region is where it is largest
    (regions split at crossings), in the order of ``bounds``."""
    pieces: list[AffinePiece] = []
    for j, (a_j, c_j) in enumerate(bounds):
        rows = list(dom_rows)
        for k, (a_k, c_k) in enumerate(bounds):
            if k == j:
                continue
            rows.append((tuple(x - y for x, y in zip(a_j, a_k)), c_k - c_j))
        region = Polyhedron(dim, rows)
        if not region.is_empty:
            pieces.append(AffinePiece(region, a_j, c_j))
    return PiecewiseLinearFn(dim, pieces)


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

    require_dual_direction(f.cone, pair.zstar)
    phi = piecewise_scalarization(f, pair.zstar)
    if phi is None:
        raise ValueError("map admits no closed-form scalarization")
    offset = scalar_conjugate(phi, pair.xstar)
    value = UpperSet.from_supports(f.cone, [(pair.zstar, offset)])
    return NegConjugateValue(pair, value, offset)
