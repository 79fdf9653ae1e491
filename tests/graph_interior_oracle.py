"""The product-box search for a graph interior point: the test oracle for
``maps.graph_interior_witness``'s exact read at x0.

``box_in_graph`` checks that box(x0, r) x box(z0, r) lies inside gr f, leaf
by leaf (``holds_box``), and ``box_search`` tries a few candidate points z0
with radii 2^-k, k = 0..8: past the package's three early failure checks,
this search was the package's graph interior entry, and it never found a
failure.  Not a test module; the maps tests import it.
"""

import itertools
from fractions import Fraction

from upperset.geometry import Polyhedron, Region
from upperset.linalg import ZERO, dot, norm1, vec
from upperset.maps import AffineBody, Leaf, SetValuedMap
from upperset.sets import UpperSet, member, scale

RADII = [Fraction(1, 2**k) for k in range(9)]


def holds_box(leaf: Leaf, x0, z0, r) -> bool:
    """Whether every value of the leaf over the l-inf box of radius r
    around x0 contains the l-inf box of radius r around z0."""
    b = leaf.body
    if leaf.graph_rows is not None:
        xz = (*x0, *z0)
        return all(dot(a, xz) - r * norm1(a) >= q for a, q in leaf.graph_rows)
    if isinstance(b, AffineBody):
        # Conservative interval bound on the bilinear row terms.
        for i in range(len(b.normals)):
            margin = dot(b.normals[i], z0) - b.offsets[i] - dot(b.x_coeffs[i], x0)
            slack = r * (norm1(b.normals[i]) + norm1(b.x_coeffs[i]))
            for k, mv in enumerate(b.x_normals[i]):
                margin += x0[k] * dot(mv, z0)
                slack += r * (abs(x0[k]) * norm1(mv) + abs(dot(mv, z0)) + r * norm1(mv))
            if margin < slack:
                return False
        return True
    # alpha is affine, so it spans [amin, amax] over the x-box.  For a
    # convex A, {alpha >= 0 : z in alpha A} is an interval (0 A = C), so
    # the z-box corners at both ends put the box in every alpha A
    # between.  A union is not convex: one piece must hold every corner.
    spread = r * norm1(b.alpha.coeffs)
    amin, amax = b.alpha(x0) - spread, b.alpha(x0) + spread
    if amin < 0:
        return False
    corners = list(itertools.product(*((c - r, c + r) for c in z0)))
    base, ends = b.base, dict.fromkeys((amin, amax))
    parts = [base] if base.is_convex else [UpperSet(base.cone, pieces=[p]) for p in base.pieces]
    return any(all(member(scale(part, a), c) for a in ends for c in corners) for part in parts)


def box_in_graph(f: SetValuedMap, x0, z0, r) -> bool:
    """Exact check that box(x0, r) x box(z0, r) lies inside the graph of f:
    every leaf whose region meets the x-box must contain the box.  A leaf
    whose region misses the x-box cannot matter, even where the box
    straddles one of its guards."""
    box = Region.closed(Polyhedron.box([(c - r, c + r) for c in x0]))
    return all(holds_box(leaf, x0, z0, r) for leaf in f.leaves if not leaf.region.intersect(box).is_empty)


def _inner_point(p: Polyhedron):
    """An interior point of p; the origin where p is the whole space."""
    if any(any(n) for n, _ in p.rows):
        return p.interior_point()
    return None if p.is_empty else (ZERO,) * p.dim


def _candidates(f: SetValuedMap, x0) -> list:
    """An inner point of the values at x0 and x0 +- 1 along each axis
    stacked; for an oracle value, grid members of f(x0), each also nudged
    by the sum of the cone's generators; else each piece's inner point."""
    out, stacked = [], []
    samples = [x0] + [tuple(x0[j] + s * (j == i) for j in range(len(x0))) for i in range(len(x0)) for s in (1, -1)]
    for x in samples:
        v = f.evaluate(x)
        if v.is_empty or not v.is_polyhedral:
            break
        stacked += [row for p in v.pieces for row in p.rows]
    else:
        ip = _inner_point(Polyhedron(f.cone.dim, stacked))
        out += [ip] * (ip is not None)
    v0 = f.evaluate(x0)
    if not v0.is_polyhedral:
        bump = tuple(map(sum, zip(*f.cone.generators))) if f.cone.has_interior else None
        for p in itertools.product([Fraction(k) for k in (0, 1, 2, -1, -2, 4)], repeat=f.cone.dim):
            if member(v0, p):
                out.append(p)
                if bump is not None:
                    out.append(tuple(a + b for a, b in zip(p, bump)))
    elif not out:
        out += [ip for ip in map(_inner_point, v0.pieces) if ip is not None]
    return list(dict.fromkeys(out))


def box_search(f: SetValuedMap, x0):
    """The first (z0, r) whose product box lies inside gr f, or None; the
    early failures are left to the caller."""
    x0 = vec(x0)
    return next(((z0, r) for z0 in _candidates(f, x0) for r in RADII if box_in_graph(f, x0, z0, r)), None)
