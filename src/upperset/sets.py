"""The complete lattice of upper closed sets.

An upper closed set is a set A with A = cl(A + C) for the ambient ordering
cone C; the family of all of them, ordered by reverse inclusion, is a
complete lattice whose infimum is the closed union and whose supremum is the
intersection.  The empty set is the greatest element, the whole space the
least.

The lattice is kept exactly for finite closed unions of H-polyhedra whose row
normals n all satisfy n.g >= 0 for every generator g of C (so each piece is
upper closed by construction).  Closed unions of finitely many closed
polyhedra need no extra closure operator, which is why the infimum below is
a plain union of pieces.  The order is exact on such unions too: a piece of
one set lies in the union of the other's pieces unless a cell of it cut by
their rows violated strictly (a ``geometry.Region``) escapes every piece.

A convex value that is not polyhedral is a ``SupportOracle``: its support
function on C^- and an exact membership test.  A closed convex set is
determined by its support function (Rockafellar 1970, Thm 13.1), and these
two are all that ``support``, ``member``, ``is_empty`` and ``scale`` read of
such a value.  The oracles live here: ``ScaledOracle`` for t A, and
``ParabolaOracle``, the one oracle a map's JSON can name
(``parabola_upper_set``).  The lattice operations (order, infimum,
supremum, Minkowski sum, window Hausdorff distance) accept polyhedral
operands only and raise ``ValueError`` on an oracle.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .geometry import Cone, DimensionMismatch, Polyhedron, Region
from .linalg import NEG_INF, POS_INF, ZERO, Constraint, Ext, HashedVec, Vec, frac, vec


class SupportOracle:
    """Closed convex upper set given through its support function.

    ``support(u)`` must return sup{u.z : z in the set} for u in C^-, so
    ``support(0)`` is -inf exactly when the set is empty; ``member(z)`` must
    decide membership exactly.
    """

    def support(self, u: Vec) -> Ext:
        raise NotImplementedError

    def member(self, z: Vec) -> bool:
        raise NotImplementedError


class ScaledOracle(SupportOracle):
    def __init__(self, inner: SupportOracle, t: Fraction):
        self.inner = inner
        self.t = frac(t)

    def support(self, u: Vec) -> Ext:
        s = self.inner.support(u)
        return s if isinstance(s, float) else self.t * s

    def member(self, z: Vec) -> bool:
        return self.inner.member(tuple(x / self.t for x in z))


class ParabolaOracle(SupportOracle):
    """The upper closed set A + C for A = {z : z2 >= z1^2} and C the plane's
    nonnegative orthant.

    Support values are analytic: on directions (a, b) with b < 0 the
    supremum of a z1 + b z2 over the parabola is -a^2 / (4 b); the boundary
    directions with b = 0 are unbounded unless a = 0.  Membership is exact:
    (p, q) belongs iff p >= 0 and q >= 0, or p < 0 and q >= p^2.
    """

    def support(self, u: Vec) -> Ext:
        a, b = u
        if a == 0 and b == 0:
            return ZERO
        if a > 0 or b > 0:
            return POS_INF
        if b == 0:
            return ZERO if a == 0 else POS_INF
        return -a * a / (4 * b)

    def member(self, z: Vec) -> bool:
        p, q = z
        if p >= 0:
            return q >= 0
        return q >= p * p


def parabola_upper_set(cone: Cone) -> UpperSet:
    """A + C of ``ParabolaOracle`` as a value over ``cone``, which is to be
    the plane's nonnegative orthant."""
    return UpperSet.from_oracle(cone, ParabolaOracle())


class OrderResult:
    """Boolean with a witness: for a False, a point of b outside a.  The
    order is decided exactly, so ``exact`` is always True; the field stays
    because the benchmark's ``lattice`` workload reads it.  Not a tuple,
    whose truth would ignore ``value``."""

    def __init__(self, value: bool, exact: bool, witness: Vec | None = None):
        self.value = value
        self.exact = exact
        self.witness = witness

    def __bool__(self) -> bool:
        return self.value


class UpperSet:
    """Element of the lattice of upper closed sets over a fixed cone."""

    __slots__ = ("cone", "pieces", "oracle", "__dict__")

    def __init__(
        self,
        cone: Cone,
        pieces: Optional[Sequence[Polyhedron]] = None,
        oracle: Optional[SupportOracle] = None,
    ):
        if (pieces is None) == (oracle is None):
            raise ValueError("exactly one of pieces / oracle must be given")
        self.cone = cone
        if pieces is not None:
            for p in pieces:
                if p.dim != cone.dim:
                    raise DimensionMismatch("piece dimension differs from cone")
            self.pieces: Optional[tuple[Polyhedron, ...]] = tuple(p for p in pieces if not p.is_empty)
            self.oracle = None
        else:
            self.pieces = None
            self.oracle = oracle

    # -- constructors --------------------------------------------------------

    @staticmethod
    def universal(cone: Cone) -> "UpperSet":
        return UpperSet(cone, pieces=[Polyhedron.full(cone.dim)])

    @staticmethod
    def empty(cone: Cone) -> "UpperSet":
        return UpperSet(cone, pieces=[])

    @staticmethod
    def from_oracle(cone: Cone, oracle: SupportOracle) -> "UpperSet":
        return UpperSet(cone, oracle=oracle)

    @staticmethod
    def from_supports(cone: Cone, supports: Iterable[tuple[Vec, Ext]]) -> "UpperSet":
        """The intersection of the halfspaces {z : u.z <= s} over the
        (direction u, support value s) pairs; see ``_support_rows``."""
        rows = _support_rows(supports)
        if rows is None:
            return UpperSet.empty(cone)
        return UpperSet(cone, pieces=[Polyhedron(cone.dim, rows)])

    # -- structure -----------------------------------------------------------

    @property
    def is_polyhedral(self) -> bool:
        return self.pieces is not None

    @property
    def is_empty(self) -> bool:
        if self.pieces is not None:
            return len(self.pieces) == 0
        # The support at 0 is -inf exactly on the empty set.
        s = self.oracle.support((ZERO,) * self.cone.dim)
        return type(s) is float and s < 0

    @property
    def is_convex(self) -> bool:
        return self.pieces is None or len(self.pieces) <= 1

    def support(self, u) -> Ext:
        # A HashedVec holds Fractions already, and each piece keeps its
        # integer form on it (``Polyhedron.support``).
        uv = u if type(u) is HashedVec else vec(u)
        if self.pieces is not None:
            if not self.pieces:
                return NEG_INF
            # best stays -inf, a float, until a finite support is read.
            best: Ext = NEG_INF
            for p in self.pieces:
                s = p.support(uv)
                if type(s) is float:
                    if s > 0:
                        return POS_INF
                elif type(best) is float or s > best:
                    best = s
            return best
        return self.oracle.support(uv)

    def dist_sq(self, z) -> Ext:
        """Exact squared distance to the set (polyhedral reps only)."""
        if self.pieces is None:
            raise ValueError("exact distance unavailable through an oracle")
        if not self.pieces:
            return POS_INF
        return min(p.dist_sq(z) for p in self.pieces)

    def __repr__(self) -> str:  # pragma: no cover
        if self.pieces is not None:
            return f"UpperSet(pieces={len(self.pieces)})"
        return "UpperSet(oracle)"


# -- operations ---------------------------------------------------------------


def upper_closure(p: Polyhedron, cone: Cone) -> UpperSet:
    """cl(P + C) as an exact polyhedral upper set: the Minkowski sum of P
    and the cone's polyhedron."""
    if p.dim != cone.dim:
        raise DimensionMismatch("polyhedron and cone dimensions differ")
    return UpperSet(cone, pieces=[p + cone.polyhedron])


def embed_point(z, cone: Cone) -> UpperSet:
    """The order embedding z -> {z} + C."""
    return UpperSet(cone, pieces=[cone.polyhedron.translate(z)])


def _uncovered_point(cell: Region, pieces: Sequence[Polyhedron]) -> Optional[Vec]:
    """A point of the cell outside every piece, or None when the pieces cover
    it: the polyhedral set difference (Bemporad, Fukuda & Torrisi 2001).
    Each piece in turn cuts the cell by one of its rows (n, b) violated
    strictly, n.z < b, and a choice of rows is dropped at the first cut that
    leaves the cell empty."""
    w = cell.point()
    if w is None or not pieces:
        return w
    for n, b in pieces[0].rows:
        cut = Region(Polyhedron(cell.closure.dim, [(tuple(-x for x in n), -b)]), (True,))
        w = _uncovered_point(cell.intersect(cut), pieces[1:])
        if w is not None:
            return w
    return None


def set_order_leq(a: UpperSet, b: UpperSet) -> OrderResult:
    """Lattice order a <= b, equivalently b is a subset of a, decided
    exactly: each piece of b lies in one piece of a, or else no point of it
    escapes their union (``_uncovered_point``, whose point is the witness
    of a False)."""
    if a.cone is not b.cone and a.cone != b.cone:
        raise ValueError("mixed-cone comparison")
    if a.pieces is None or b.pieces is None:
        raise ValueError("order requires polyhedral representations")
    for q in b.pieces:
        if any(q.contained_in(p) for p in a.pieces):
            continue
        w = _uncovered_point(Region.closed(q), a.pieces)
        if w is not None:
            return OrderResult(False, exact=True, witness=w)
    return OrderResult(True, exact=True)


def lattice_inf(sets: Sequence[UpperSet]) -> UpperSet:
    """Infimum: the closed union, kept as a union of polyhedra."""
    sets = list(sets)
    if not sets:
        raise ValueError("infimum of an empty family")
    cone = sets[0].cone
    pieces: list[Polyhedron] = []
    for s in sets:
        if s.cone != cone:
            raise ValueError("mixed-cone family")
        if s.pieces is None:
            raise ValueError("infimum requires polyhedral representations")
        pieces.extend(s.pieces)
    dedup = list(dict.fromkeys(pieces))
    return UpperSet(cone, pieces=dedup)


def lattice_sup(sets: Sequence[UpperSet]) -> UpperSet:
    """Supremum: the intersection; convex polyhedral operands only."""
    sets = list(sets)
    if not sets:
        raise ValueError("supremum of an empty family")
    cone = sets[0].cone
    pieces: list[Polyhedron] = []
    for s in sets:
        if s.cone != cone:
            raise ValueError("mixed-cone family")
        if s.pieces is None:
            raise ValueError("supremum requires polyhedral representations")
        if len(s.pieces) > 1:
            raise ValueError("supremum restricted to convex operands")
        if s.is_empty:
            return UpperSet.empty(cone)
        pieces.extend(s.pieces)
    return UpperSet(cone, pieces=[functools.reduce(Polyhedron.intersect, pieces)])


def member(a: UpperSet, z) -> bool:
    """Exact membership: a piece's rows, or the oracle's own test."""
    zv = vec(z)
    if a.pieces is not None:
        return any(p.contains(zv) for p in a.pieces)
    return a.oracle.member(zv)


def minkowski_sum(a: UpperSet, b: UpperSet) -> UpperSet:
    """Minkowski sum of convex polyhedral upper sets; supports add on C^-."""
    if a.cone != b.cone:
        raise ValueError("mixed-cone sum")
    if a.pieces is None or b.pieces is None:
        raise ValueError("Minkowski sum requires polyhedral representations")
    if not a.is_convex or not b.is_convex:
        raise ValueError("Minkowski sum restricted to convex operands")
    if a.is_empty or b.is_empty:
        return UpperSet.empty(a.cone)
    return UpperSet(a.cone, pieces=[a.pieces[0] + b.pieces[0]])


def scale(a: UpperSet, t) -> UpperSet:
    """Positive rescaling t A; the convention 0 . A = C keeps the scaled
    family of maps closed at the parameter boundary."""
    tf = frac(t)
    if tf < 0:
        raise ValueError("negative scale factor")
    if tf == 0:
        return embed_point((ZERO,) * a.cone.dim, a.cone)
    if a.is_empty:
        return UpperSet.empty(a.cone)
    if a.pieces is not None:
        return UpperSet(a.cone, pieces=[p.scale(tf) for p in a.pieces])
    return UpperSet.from_oracle(a.cone, ScaledOracle(a.oracle, tf))


def _support_rows(supports: Iterable[tuple[Vec, Ext]]) -> Optional[list[Constraint]]:
    """Rows (-u, -s), meaning u.z <= s, one per (direction u, support value s)
    pair: s = +inf drops the direction, and s = -inf means the set is empty
    and gives None.  ``supports`` is read lazily and no further than its
    first -inf, so an iterator computes no support value past that one."""
    rows: list[Constraint] = []
    for u, s in supports:
        if type(s) is not float:
            rows.append((tuple(-x for x in u), -s))
        elif s < 0:
            return None
    return rows


def outer_polyhedron(a: UpperSet, directions: Sequence[Vec]) -> Polyhedron:
    """Outer polyhedral approximation from support values on directions."""
    rows = _support_rows((u, a.support(u)) for u in directions)
    return Polyhedron.empty(a.cone.dim) if rows is None else Polyhedron(a.cone.dim, rows)


def directed_hausdorff_sq(a: UpperSet, b: UpperSet, window: Polyhedron) -> Ext:
    """sup over z in (a cut to window) of squared distance to b; exact for
    polyhedral representations with a convex ``b``, under any window.

    It is the largest windowed ``excess_sq`` value (its witness is not read
    here) of a piece of ``a`` over ``b``: +inf when a recession direction
    of a cut leaves ``b``, else the max over the cut's points.  A piece
    whose V-form points all lie in the window and none of whose recession
    directions leaves ``b`` is read off its own V-form, with no cut built:
    the cut could not change the sup.  The distance to a union is a min of
    convex functions and may peak inside a piece, so ``b`` with several
    pieces is rejected.
    """
    if a.pieces is None or b.pieces is None:
        raise ValueError("window Hausdorff requires polyhedral representations")
    if len(b.pieces) > 1:
        raise ValueError("window Hausdorff restricted to a convex target")
    if not a.pieces:
        return ZERO
    if not b.pieces:
        return POS_INF
    return max(pa.excess_sq(b.pieces[0], window)[0] for pa in a.pieces)


def hausdorff_sq_window(a: UpperSet, b: UpperSet, window: Polyhedron) -> Ext:
    """The windowed Hausdorff distance squared: the larger of sup over
    a cut to ``window`` of dist(., b)^2 and sup over b cut to it of
    dist(., a)^2, each by ``directed_hausdorff_sq``.  Each operand is then a
    target, so both must be convex (at most one piece); +inf when exactly
    one of them is empty."""
    return max(
        directed_hausdorff_sq(a, b, window), directed_hausdorff_sq(b, a, window)
    )
