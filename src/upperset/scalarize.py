"""Scalarizations, halfspace-valued dual maps, and reconstruction.

The scalarization of a map f in a dual direction z* is

    phi(x) = -sup{ z*.z : z in f(x) },

the negative support value of f(x); it is +inf exactly where f(x) is empty
and -inf where the support is unbounded.  A convex-valued map is recovered
from its scalarizations as an intersection of halfspaces, which this module
realizes over finite direction bases: ``reconstruct`` intersects the
halfspaces {z : u.z <= -phi_u(x)} over the base, an outer approximation of
f(x) that is exact once the base holds the value's facet normals.  Maps
built from constant-normal affine branches also get exact piecewise-linear
closed forms of their scalarizations (``piecewise_scalarization``).

Direction bases are rational vectors spanning the negative dual cone of the
ordering cone: convex blends between consecutive extreme rays (a uniform
fan) plus optional dyadic tail directions creeping toward each ray.  The
tails make unbounded support gaps detectable at matching dyadic scales, and
directions are rescaled to exact unit Euclidean length whenever the squared
norm is a perfect rational square, so support comparisons stay rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .conjugate import AffinePiece, PiecewiseLinearFn
from .geometry import Cone, Polyhedron, dual_cone, project_out, require_dual_direction
from .linalg import (
    NEG_INF,
    POS_INF,
    ZERO,
    Constraint,
    Ext,
    Vec,
    dot,
    is_zero,
    norm2_sq,
    scale_to_canonical,
    vec,
)
from .maps import AffineBody, SetValuedMap, _body_leaves, _is_constant_empty
from .sets import UpperSet
from .simplex import LPStatus, solve_lp


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


def direction_fan(cone: Cone, fan: int = 64, tails: int = 0) -> tuple[Vec, ...]:
    """Rational directions positively spanning C^-.

    Consecutive extreme rays of C^- (in angular order around an interior
    direction) are blended uniformly ``fan`` ways in total; ``tails`` adds
    directions r + 2^-j r' per arc, approaching each ray geometrically.
    Every returned direction lies in C^- and is deduplicated
    deterministically.  The fan depends on the cone, ``fan`` and ``tails``
    alone, so it is built once per cone object and (fan, tails) and stored
    on the cone.
    """
    fans = cone.__dict__.setdefault("_fans", {})
    if (fan, tails) not in fans:
        fans[(fan, tails)] = _fan_of(dual_cone(cone), fan, tails)
    return fans[(fan, tails)]


def _fan_of(dual: Cone, fan: int, tails: int) -> tuple[Vec, ...]:
    gens = [scale_to_canonical(g) for g in dual.generators]
    gens = list(dict.fromkeys(gens))
    if dual.dim == 1 or len(gens) == 1:
        return tuple(_unitize(g) for g in gens)
    if dual.dim != 2:
        # Desk-scale cap: blend generator pairs once at higher dimensions.
        out = [_unitize(g) for g in gens]
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                d = tuple(a + b for a, b in zip(gens[i], gens[j]))
                if not is_zero(d) and dual.contains(d):
                    out.append(_unitize(d))
        return tuple(dict.fromkeys(out))

    ref = tuple(sum(g[i] for g in gens) for i in range(2))
    if is_zero(ref):
        ref = gens[0]
    ref_angle = math.atan2(float(ref[1]), float(ref[0]))

    def rel_angle(g: Vec) -> float:
        a = math.atan2(float(g[1]), float(g[0])) - ref_angle
        while a <= -math.pi:
            a += 2 * math.pi
        while a > math.pi:
            a -= 2 * math.pi
        return a

    ordered = sorted(gens, key=rel_angle)
    arcs = list(zip(ordered, ordered[1:]))
    if not arcs:
        return tuple(_unitize(g) for g in ordered)
    per_arc = max(1, fan // len(arcs))
    weights = [Fraction(i, per_arc) for i in range(per_arc + 1)]
    out: list[Vec] = []
    seen: set[Vec] = set()

    def push(d: Vec) -> None:
        if is_zero(d) or not dual.contains(d):
            return
        u = _unitize(d)
        if u not in seen:
            seen.add(u)
            out.append(u)

    for a, b in arcs:
        for w in weights:
            push(tuple((1 - w) * ai + w * bi for ai, bi in zip(a, b)))
        for j in range(1, tails + 1):
            t = Fraction(1, 2**j)
            push(tuple(ai + t * bi for ai, bi in zip(a, b)))
            push(tuple(t * ai + bi for ai, bi in zip(a, b)))
    return tuple(out)


@dataclass(frozen=True)
class DirectionBase:
    """Finite direction set B in C^- \\ {0} used for uniform semicontinuity
    and duality; certification records which base conditions hold."""

    cone: Cone
    directions: tuple[Vec, ...]

    def __post_init__(self):
        if not self.directions:
            raise ValueError("empty direction base")
        for d in self.directions:
            require_dual_direction(self.cone, d)

    @staticmethod
    def default(cone: Cone, fan: int = 64, tails: int = 0) -> "DirectionBase":
        return DirectionBase(cone, direction_fan(cone, fan, tails))


def certify_base(base: DirectionBase) -> dict:
    """Checks the finite-base conditions behind the uniform theorems.

    A finite base has a finite sup, and its inf over B of sup over the unit
    ball of -z*.z, the minimum Euclidean norm over B, is positive because
    ``DirectionBase`` admits no zero direction; ``inf_sup_value_sq`` reports
    that minimum squared.  ``generates_dual`` certifies cone(B) = C^- by
    separation LPs against each extreme ray; it depends on the base alone,
    so it is computed once per base object and stored on it.
    """
    return {
        "generates_dual": _generates_dual(base),
        "inf_sup_value_sq": min(norm2_sq(d) for d in base.directions),
        "unit_normalized": all(norm2_sq(d) == 1 for d in base.directions),
        "size": len(base.directions),
    }


def _generates_dual(base: DirectionBase) -> bool:
    """cone(B) = C^-: no extreme ray r of C^- separates from B, that is,
    max r.y over {y : d.y <= 0 for d in B, |y_i| <= 1} is zero."""
    cached = base.__dict__.get("_generates_dual")
    if cached is not None:
        return cached
    dim = base.cone.dim
    generates = True
    for r in dual_cone(base.cone).generators:
        rows: list[Constraint] = [(tuple(-c for c in d), ZERO) for d in base.directions]
        for i in range(dim):
            e = [ZERO] * dim
            e[i] = Fraction(1)
            rows.append((tuple(e), Fraction(-1)))
            e[i] = Fraction(-1)
            rows.append((tuple(e), Fraction(-1)))
        res = solve_lp(r, rows, sense="max")
        if res.status is not LPStatus.OPTIMAL or res.value > 0:
            generates = False
            break
    return base.__dict__.setdefault("_generates_dual", generates)


# -- evaluation ------------------------------------------------------------------


def scalarize_eval(f: SetValuedMap, zstar, x) -> Ext:
    """phi(x) = -sup{ z*.z : z in f(x) }; +inf on empty values, -inf when the
    support is unbounded."""
    zs = vec(zstar)
    require_dual_direction(f.cone, zs)
    s = f.evaluate(x).support(zs)
    if s == NEG_INF:
        return POS_INF
    if s == POS_INF:
        return NEG_INF
    return -s


def s_map(xstar, zstar, x, cone: Cone) -> UpperSet:
    """S(x) = { z : x*.x + z*.z <= 0 }, a halfspace-valued affine map.

    The value is upper closed because z* lies in C^-.
    """
    xs, zs = vec(xstar), vec(zstar)
    require_dual_direction(cone, zs)
    row = (tuple(-c for c in zs), dot(xs, vec(x)))
    return UpperSet(cone, pieces=[Polyhedron(cone.dim, [row])])


def reconstruct(f: SetValuedMap, x, base: DirectionBase) -> UpperSet:
    """Outer reconstruction of f(x) from its scalarizations over the base:
    the intersection of the halfspaces {z : u.z <= -phi_u(x)}.

    Always contains f(x); exact for polyhedral values once the base contains
    the value's facet normals (up to positive scaling).
    """
    return UpperSet.from_supports(
        f.cone, ((u, -scalarize_eval(f, u, x)) for u in base.directions)
    )


# -- closed forms ----------------------------------------------------------------


def piecewise_scalarization(f: SetValuedMap, zstar) -> Optional[PiecewiseLinearFn]:
    """Exact piecewise-linear closed form of the scalarization, when the map
    is built from constant-normal affine branches.

    The epigraph {(x, t) : t >= phi(x)} is the projection of the lifted
    polyhedron {(x, z, t) : N z >= q + L x, z*.z + t >= 0}.  ``project_out``
    gives its facets, whose t-coefficients are nonnegative: rows with
    positive coefficient are the affine lower bounds (phi is their maximum;
    each is a facet, so none is redundant) and rows without t cut out
    dom f.  Branches with no lower bounding row have phi = -inf across
    their domain.
    """
    zs = vec(zstar)
    require_dual_direction(f.cone, zs)
    branches = list(_body_leaves(f.body))
    if not all(isinstance(b, AffineBody) and b.fixed_normals for _, _, b in branches):
        return None
    n = f.domain_dim
    m = f.cone.dim
    pieces: list[AffinePiece] = []
    minus_regions: list[Polyhedron] = []
    for region_rows, _, body in branches:
        if _is_constant_empty(body):
            continue
        lifted = [(row + (ZERO,), q) for row, q in body.graph_rows()]
        lifted.append((tuple([ZERO] * n + list(zs) + [Fraction(1)]), ZERO))
        projected = project_out(Polyhedron(n + m + 1, lifted), list(range(n, n + m)))
        dom_rows: list[Constraint] = list(region_rows)
        bounds: list[tuple[Vec, Fraction]] = []
        for row, b in projected.rows:
            t_coeff = row[-1]
            xs_part = row[:-1]
            if t_coeff == 0:
                dom_rows.append((xs_part, b))
            else:
                if t_coeff < 0:
                    raise AssertionError("epigraph projection produced an upper bound")
                bounds.append(
                    (tuple(-c / t_coeff for c in xs_part), b / t_coeff)
                )
        dom = Polyhedron(n, dom_rows)
        if dom.is_empty:
            continue
        if not bounds:
            minus_regions.append(dom)
            continue
        for j, (a_j, c_j) in enumerate(bounds):
            rows = list(dom_rows)
            for k, (a_k, c_k) in enumerate(bounds):
                if k == j:
                    continue
                rows.append((tuple(x - y for x, y in zip(a_j, a_k)), c_k - c_j))
            region = Polyhedron(n, rows)
            if not region.is_empty:
                pieces.append(AffinePiece(region, a_j, c_j))
    return PiecewiseLinearFn(n, pieces, minus_regions)
