"""The complete lattice of upper closed sets.

An upper closed set is a set A with A = cl(A + C) for the ambient ordering
cone C; the family of all of them, ordered by reverse inclusion, is a
complete lattice whose infimum is the closed union and whose supremum is the
intersection.  The empty set is the greatest element, the whole space the
least.

Two representations coexist:

* ``ExactPolyhedral``: a finite closed union of H-polyhedra whose row
  normals n all satisfy n.g >= 0 for every generator g of C (so each piece
  is upper closed by construction).  All lattice operations on this
  representation are exact.
* ``SupportOracle``: a support-function callable valid on directions in C^-,
  with an optional exact membership predicate and a cached direction grid.
  Comparisons through oracles are outer approximations at grid resolution
  and say so.

Closed unions of finitely many closed polyhedra need no extra closure
operator, which is why the infimum below is a plain union of pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .geometry import Cone, DimensionMismatch, Polyhedron, dual_cone
from .linalg import NEG_INF, POS_INF, ZERO, Constraint, Ext, Vec, dot, frac, vec


class SupportOracle:
    """Convex upper closed set given through its support function.

    ``support(u)`` must return sup{u.z : z in the set} for u in C^-;
    ``member`` may return None when the oracle cannot decide exactly.
    Subclasses can keep Minkowski/scaling structure exact by overriding
    ``scaled`` and ``summed``.
    """

    def support(self, u: Vec) -> Ext:
        raise NotImplementedError

    def member(self, z: Vec) -> Optional[bool]:
        return None

    def scaled(self, t: Fraction) -> Optional["SupportOracle"]:
        return ScaledOracle(self, t) if t > 0 else None

    def summed(self, other: "SupportOracle") -> Optional["SupportOracle"]:
        return SumOracle(self, other)


class CallableOracle(SupportOracle):
    def __init__(self, fn: Callable[[Vec], Ext], member_fn=None):
        self._fn = fn
        self._member = member_fn

    def support(self, u: Vec) -> Ext:
        return self._fn(u)

    def member(self, z: Vec) -> Optional[bool]:
        return self._member(z) if self._member is not None else None


class ScaledOracle(SupportOracle):
    def __init__(self, inner: SupportOracle, t: Fraction):
        self.inner = inner
        self.t = frac(t)

    def support(self, u: Vec) -> Ext:
        s = self.inner.support(u)
        return s if isinstance(s, float) else self.t * s

    def member(self, z: Vec) -> Optional[bool]:
        return self.inner.member(tuple(x / self.t for x in z))


class SumOracle(SupportOracle):
    def __init__(self, a: SupportOracle, b: SupportOracle):
        self.a = a
        self.b = b

    def support(self, u: Vec) -> Ext:
        sa, sb = self.a.support(u), self.b.support(u)
        if sa == NEG_INF or sb == NEG_INF:
            return NEG_INF
        if sa == POS_INF or sb == POS_INF:
            return POS_INF
        return sa + sb


class PolyhedralOracle(SupportOracle):
    """Oracle view of an exact polyhedron (used when mixing representations)."""

    def __init__(self, piece: Polyhedron):
        self.piece = piece

    def support(self, u: Vec) -> Ext:
        return self.piece.support(u)

    def member(self, z: Vec) -> Optional[bool]:
        return self.piece.contains(z)


@dataclass(frozen=True)
class OrderResult:
    """Boolean with provenance: exact certificate or grid-resolution check."""

    value: bool
    exact: bool
    note: str = ""
    witness: Vec | None = None

    def __bool__(self) -> bool:
        return self.value


class UpperSet:
    """Element of the lattice of upper closed sets over a fixed cone."""

    __slots__ = ("cone", "pieces", "oracle", "grid", "__dict__")

    def __init__(
        self,
        cone: Cone,
        pieces: Optional[Sequence[Polyhedron]] = None,
        oracle: Optional[SupportOracle] = None,
        grid: Optional[Sequence[Vec]] = None,
    ):
        if (pieces is None) == (oracle is None):
            raise ValueError("exactly one of pieces / oracle must be given")
        self.cone = cone
        if pieces is not None:
            kept = tuple(p for p in pieces if not p.is_empty)
            for p in kept:
                if p.dim != cone.dim:
                    raise DimensionMismatch("piece dimension differs from cone")
            self.pieces: Optional[tuple[Polyhedron, ...]] = kept
            self.oracle = None
            self.grid = ()
        else:
            self.pieces = None
            self.oracle = oracle
            self.grid = tuple(grid or default_direction_grid(cone))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def universal(cone: Cone) -> "UpperSet":
        return UpperSet(cone, pieces=[Polyhedron.full(cone.dim)])

    @staticmethod
    def empty(cone: Cone) -> "UpperSet":
        return UpperSet(cone, pieces=[])

    @staticmethod
    def from_oracle(cone, oracle, grid=None) -> "UpperSet":
        return UpperSet(cone, oracle=oracle, grid=grid)

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
        return all(self.oracle.support(u) == NEG_INF for u in self.grid)

    @property
    def is_universal(self) -> bool:
        if self.pieces is None:
            return False
        return any(len(p.rows) == 0 for p in self.pieces)

    @property
    def is_convex(self) -> bool:
        return self.pieces is None or len(self.pieces) <= 1

    def support(self, u) -> Ext:
        uv = vec(u)
        if self.pieces is not None:
            if not self.pieces:
                return NEG_INF
            best: Ext = NEG_INF
            for p in self.pieces:
                s = p.support(uv)
                if s == POS_INF:
                    return POS_INF
                if s > best:
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


def default_direction_grid(cone: Cone) -> tuple[Vec, ...]:
    """Cached oracle directions: extreme rays of C^- plus a uniform 64-way fan."""
    from .scalarize import direction_fan

    return direction_fan(cone, 64)


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


def _piece_in_union(q: Polyhedron, pieces: Sequence[Polyhedron]) -> OrderResult:
    for p in pieces:
        if q.contained_in(p):
            return OrderResult(True, exact=True)
    # No single piece contains q; hunt for a point of q outside the union.
    candidates: list[Vec] = list(q.minimal_face_points)
    ip = q.interior_point()
    if ip is not None:
        candidates.append(ip)
    for p in pieces:
        w = q.violation_witness(p)
        if w is not None:
            candidates.append(w)
    for c in candidates:
        if not any(p.contains(c) for p in pieces):
            return OrderResult(False, exact=True, witness=c)
    return OrderResult(True, exact=False, note="covered at sampled points only")


def set_order_leq(a: UpperSet, b: UpperSet) -> OrderResult:
    """Lattice order a <= b, equivalently b is a subset of a."""
    if a.cone is not b.cone and a.cone != b.cone:
        raise ValueError("mixed-cone comparison")
    if b.is_empty:
        return OrderResult(True, exact=True)
    if a.is_empty:
        return OrderResult(False, exact=True, note="nonempty set vs empty bound")
    if a.pieces is not None and b.pieces is not None:
        for q in b.pieces:
            r = _piece_in_union(q, a.pieces)
            if not r.value or not r.exact:
                if not r.value:
                    return OrderResult(False, exact=r.exact, witness=r.witness)
                return r
        return OrderResult(True, exact=True)
    # Oracle route: support comparison on the cached grid.  A strict support
    # violation certifies non-containment of convex sets; agreement on the
    # grid only certifies it at grid resolution.
    grid = a.grid or b.grid
    for u in grid:
        sa, sb = a.support(u), b.support(u)
        if sb > sa:
            return OrderResult(False, exact=True, note="support separation", witness=u)
    return OrderResult(True, exact=False, note="grid-resolution comparison")


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
    rows: list[Constraint] = []
    for s in sets:
        if s.cone != cone:
            raise ValueError("mixed-cone family")
        if s.pieces is None:
            raise ValueError("supremum requires polyhedral representations")
        if len(s.pieces) > 1:
            raise ValueError("supremum restricted to convex operands")
        if s.is_empty:
            return UpperSet.empty(cone)
        rows.extend(s.pieces[0].rows)
    return UpperSet(cone, pieces=[Polyhedron(cone.dim, rows)])


def member(a: UpperSet, z) -> bool:
    """Membership; exact for polyhedral reps.

    Oracle reps use outer-approximation semantics on the cached grid: z is
    declared a member when no grid direction separates it.  An exact oracle
    membership predicate takes precedence when available.
    """
    zv = vec(z)
    if a.pieces is not None:
        return any(p.contains(zv) for p in a.pieces)
    exact = a.oracle.member(zv)
    if exact is not None:
        return exact
    for u in a.grid:
        s = a.oracle.support(u)
        if s == POS_INF:
            continue
        if s == NEG_INF:
            return False
        if dot(u, zv) > s:
            return False
    return True


def minkowski_sum(a: UpperSet, b: UpperSet) -> UpperSet:
    """Minkowski sum of convex upper sets; supports add on C^-."""
    if a.cone != b.cone:
        raise ValueError("mixed-cone sum")
    cone = a.cone
    if not a.is_convex or not b.is_convex:
        raise ValueError("Minkowski sum restricted to convex operands")
    if a.is_empty or b.is_empty:
        return UpperSet.empty(cone)
    if a.pieces is not None and b.pieces is not None:
        return UpperSet(cone, pieces=[a.pieces[0] + b.pieces[0]])
    oa = a.oracle if a.oracle is not None else PolyhedralOracle(a.pieces[0])
    ob = b.oracle if b.oracle is not None else PolyhedralOracle(b.pieces[0])
    combined = oa.summed(ob)
    grid = a.grid or b.grid
    return UpperSet.from_oracle(cone, combined, grid or None)


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
    scaled = a.oracle.scaled(tf)
    if scaled is None:
        raise ValueError("oracle does not support scaling")
    return UpperSet.from_oracle(a.cone, scaled, a.grid)


def check_upper_closed(a: UpperSet) -> bool:
    """Testable invariant: every stored row normal n has n.g >= 0 on C,
    that is, -n lies in C^-."""
    if a.pieces is None:
        return True
    dual = dual_cone(a.cone)
    return all(dual.contains(tuple(-c for c in n)) for p in a.pieces for n, _ in p.rows)


def sets_equal(a: UpperSet, b: UpperSet) -> bool:
    """Mutual containment, exact on polyhedral representations."""
    lhs = set_order_leq(a, b)
    rhs = set_order_leq(b, a)
    return bool(lhs) and bool(rhs) and lhs.exact and rhs.exact


def _support_rows(supports: Iterable[tuple[Vec, Ext]]) -> Optional[list[Constraint]]:
    """Rows (-u, -s), meaning u.z <= s, one per (direction u, support value s)
    pair: s = +inf drops the direction, and s = -inf means the set is empty
    and gives None.  ``supports`` is read lazily and no further than its
    first -inf, so an iterator computes no support value past that one."""
    rows: list[Constraint] = []
    for u, s in supports:
        if s == NEG_INF:
            return None
        if s != POS_INF:
            rows.append((tuple(-x for x in u), -s))
    return rows


def outer_polyhedron(a: UpperSet, directions: Sequence[Vec]) -> Polyhedron:
    """Outer polyhedral approximation from support values on directions."""
    rows = _support_rows((u, a.support(u)) for u in directions)
    return Polyhedron.empty(a.cone.dim) if rows is None else Polyhedron(a.cone.dim, rows)


def directed_hausdorff_sq(a: UpperSet, b: UpperSet, window: Polyhedron) -> Ext:
    """sup over z in (a cut to window) of squared distance to b; exact for
    polyhedral representations with a convex ``b``.

    The distance to a convex ``b`` is convex, so its sup over each cut piece
    of ``a`` is attained at a vertex.  The distance to a union is a min of
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
    best: Ext = ZERO
    for pa in a.pieces:
        cut = pa.intersect(window)
        if cut.is_empty:
            continue
        for v in cut.minimal_face_points:
            d = min(pb.dist_sq(v) for pb in b.pieces)
            if d > best:
                best = d
    return best


def hausdorff_sq_window(a: UpperSet, b: UpperSet, window: Polyhedron) -> Ext:
    return max(
        directed_hausdorff_sq(a, b, window), directed_hausdorff_sq(b, a, window)
    )
