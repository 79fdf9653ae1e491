"""Exact polyhedral geometry: cones, halfspaces, polyhedra, dual cones.

Everything here is carried out over the rationals.  Polyhedra are stored in
H-representation ``{z : n_i . z >= b_i}`` (accepted unreduced) and carry a
V-form -- points, rays and a lineality basis -- built lazily, once per
polyhedron, by the double description method.  ``is_empty``, ``support``,
``contained_in``, ``minimal_face_points``, ``excess_sq`` and
``affine_dim`` read the V-form, and so does every point a query returns:
``lowest_point`` is the last V-form point that minimizes a direction, and
``interior_point`` and ``Region.point`` are lowest points of a lifted
polyhedron; a ``Region`` is a polyhedron with some rows strict, the one
half-open cell of the package.  Every recession direction returned is a
V-form ray or +- lineality vector.  A cone carries both generators and
halfspaces and is the b = 0 polyhedron of its halfspaces, built once per
cone: membership and pointedness read that polyhedron, and the negative
dual cone is built once and kept on the cone.
Conversions between the two cone representations (``_cone_rays``) run by
the same double description on the homogeneous rows; a cone built from
rows (``from_halfspaces``, every dual cone) keeps that pass as its
polyhedron's V-form when the pass added no lineality.  No query here solves
an LP; the documented dimension cap is m <= 4.
``dist_sq`` finds the nearest point by the first row subset whose Gram
system certifies it (nonpositive multipliers, a foot point inside P).

The double description also runs the other way, V to H: ``_hull`` takes
generators and returns the polyhedron they generate, with irredundant rows,
by one pass on the dual cone whose extreme rays are the facets.  A Minkowski
sum (``Polyhedron.__add__``: the pairwise sums of points, the rays and the
lineality of both) and a projection (``project_out``: the generators with
the eliminated coordinates dropped) are generator arithmetic on the V-forms
followed by that one step, so both are exact in every dimension.  The
same step hands over the V-form of its output when that is pointed and
full-dimensional: the extreme generators are read off the dual pass's
masks, so each V-form comes from one pass.  A sum of a pointed cone C and a
nonempty, pointed, full-dimensional P (an upper closure cl(P + C)) runs no
pass: ``_closure`` starts the dual cone from P's facet rows, whose masks
P's own V-form holds, and adds only C's rows, one ``_cut`` step each (the
row-insertion step of ``_double_description``), then hands over the V-form
the same way; every other sum takes ``_hull``.  ``contained_in`` reads a
support only for the rows of ``other`` that self does not carry itself,
and ``recedes_along`` certifies P nonempty without a pass when every
nonzero row is positive on a direction and no zero row fails.

The hot queries run in Python ints.  Each polyhedron keeps its rows once as
integer rows (a positive multiple of ``n + (b,)``), and the V-form keeps
what the double description computes: primitive integer generators (z, t)
of the homogenized cone, an integer lineality basis, and for each generator
the bitmask of the rows tight on it.  Derived polyhedra inherit their
integer rows: ``_hull`` holds each facet as a primitive integer vector
already, and an intersection's rows are its operands'.  ``support``,
``contains`` and ``dist_sq`` scale their argument to integers once, and
``excess_sq``, the one polyhedral sup-distance (of ``sets`` and of
``continuity``), hands each V-form point (z, t) to ``dist_sq``'s integer
core as it stands; given a window that holds every such point, it reads
them off self's own V-form and builds no cut, since the cut could not
change the sup; ``minimal_face_points`` and the cone rays read the tight
rows from the masks and order their faces by a fraction-free rank test.  A
Fraction is built only for a value that is returned.

Every exact elimination of the package is one integer elimination here.
Forward elimination (``_eliminate``) gives the first basis of a row set and
the public ``rank``; back-elimination to reduced form (``_reduced``) gives
the kernel basis that ``_cone_rays`` needs for the lineality and the face
point of ``minimal_face_points`` when P has lineality; and the Bareiss Gram
solve (``_solve_gram``) serves ``dist_sq``.

Euclidean quantities are exposed as *squared* distances so that every
comparison against a rational tolerance stays exact.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .linalg import (
    NEG_INF,
    POS_INF,
    ZERO,
    Constraint,
    Ext,
    HashedVec,
    Mat,
    Vec,
    dot,
    frac,
    is_zero,
    norm1,
    scale_to_canonical,
    vec,
    zeros,
)


# The half-width of the box that bounds ``interior_point``'s margin program.
_INTERIOR_BOX = Fraction(10**6)


class DimensionMismatch(ValueError):
    pass


class OrderConeError(ValueError):
    """The cone cannot serve as an ordering cone (C = Z, so C^- = {0})."""


def _check_dim(expected: int, v: Vec) -> None:
    if len(v) != expected:
        raise DimensionMismatch(f"expected dimension {expected}, got {len(v)}")


def _cone_rays(normals: list[Vec], dim: int) -> tuple[list[Vec], VForm | None]:
    """Generators of the cone ``{z : n.z >= 0 for n in normals}``.

    Returns lineality basis vectors in +- pairs together with the extreme
    rays of the pointed part (the cone intersected with the orthogonal
    complement of its lineality space), each in canonical scale.  The rays
    come from one double-description pass and are ordered by the
    lexicographically least basis of dim - 1 rows tight on each, which is
    the order a scan of row subsets in ``itertools.combinations`` order
    meets them.  Also returns the pass's V-form when the cone is pointed,
    since the pass then ran on the nonzero rows alone; else None.
    """
    work = [_integer_row(n) for n in normals if not is_zero(n)]
    lin = [c for l in _kernel(work, dim) for c in (l, tuple(-x for x in l))]
    work += lin
    vf = _double_description([n + (0,) for n in work], dim)
    rays = [(g[:-1], m) for g, m in zip(vf.gens, vf.tight) if not g[-1]]
    rays.sort(key=lambda ray: _first_basis(work, _bits(ray[1] >> 1), dim - 1))
    return [scale_to_canonical(vec(r)) for r in lin + [r for r, _ in rays]], None if lin else vf


class VForm(NamedTuple):
    """P = conv(points) + cone(rays) + span(lineality); no points iff P is empty.

    Kept as the double description leaves it, in Python ints.  ``gens`` are
    the primitive integer generators (z, t) of the homogenized cone: t > 0
    is the point z / t, t = 0 the recession ray z.  ``tight[k]`` is the
    bitmask of the rows tight on ``gens[k]``: bit 0 for t >= 0, bit i + 1
    for row i.  ``lin`` is an integer basis (l, 0) of the lineality space.
    A point becomes Fractions only where it is returned
    (``Polyhedron.minimal_face_points``).

    The generators come in the order of the pass that built them, or, when
    ``_hull`` hands the V-form over, in the order of its input generators.
    The two orders can differ, so among tied generators ``lowest_point`` (the
    last minimizer), ``excess_sq``'s witness (the first maximizer) and
    ``_escape`` (the first escaping ray) may pick a different one on a hull
    output than on a copy of it built from its rows.
    """

    gens: list[tuple[int, ...]]
    tight: list[int]
    lin: list[tuple[int, ...]]


def _double_description(rows: Sequence[tuple[int, ...]], dim: int) -> VForm:
    """The V-form of ``{z : n.z >= b}`` for the integer rows ``n + (b,)``, exactly.

    The double description method (Motzkin, Raiffa, Thompson & Thrall 1953;
    Fukuda & Prodon 1996) on the homogenized cone
    K = {(z, t) : n.z - b t >= 0, t >= 0}, kept as span(lin) + cone(rays).
    It starts from lin = the unit basis and no rays, and adds t >= 0 and then
    the rows in order.  A row nonzero on some lineality vector pivots it out:
    that vector, oriented into the row, becomes a ray, and the other
    lineality vectors and the rays are shifted onto the row's hyperplane.
    Any other row is one ``_cut`` step: it keeps the rays it does not cut
    off and adds one ray on its hyperplane for each adjacent pair of a ray
    it keeps strictly and one it cuts off.  Adjacency is combinatorial: no
    third ray is tight on every row that both rays are tight on.  The rays
    of K are the V-form's ``gens``.

    Every vector is kept primitive (its entries divided by their gcd), which
    changes no ray's direction and keeps the arithmetic in Python ints.
    """
    gcd = math.gcd
    hom = [(0,) * dim + (1,)] + [r[:-1] + (-r[-1],) for r in rows]
    lin = [(0,) * i + (1,) + (0,) * (dim - i) for i in range(dim + 1)]
    rays: list[tuple[int, ...]] = []
    tight: list[int] = []  # bitmask of the rows tight on each ray
    for i, a in enumerate(hom):
        bit = 1 << i
        r0 = None
        for k, l in enumerate(lin):
            v0 = sum(map(mul, a, l))
            if v0:
                r0 = lin.pop(k)
                break
        if r0 is not None:
            if v0 < 0:
                r0, v0 = tuple(-x for x in r0), -v0
            # Shift the other lineality vectors and the rays onto the row's
            # hyperplane, in place.
            for vs in (lin, rays):
                for j, v in enumerate(vs):
                    c = sum(map(mul, a, v))
                    if c:
                        w = [v0 * x - c * y for x, y in zip(v, r0)]
                        g = gcd(*w)
                        vs[j] = tuple(x // g for x in w) if g > 1 else tuple(w)
            rays.append(r0)
            tight = [m | bit for m in tight]
            tight.append(bit - 1)
            continue
        # The first row pivots, so a ray is there from then on.
        rays, tight = _cut(rays, tight, a, bit, dim - 1 - len(lin))
        if not any(r[-1] for r in rays):
            # K lies in t = 0 from here on: P is empty.
            return VForm([], [], [])
    return VForm(rays, tight, lin)


def _cut(
    rays: list[tuple[int, ...]], tight: list[int], a: tuple[int, ...], bit: int, need: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """One row-insertion step of the double description on the pointed part
    cone(rays): the row a.r >= 0, whose tight rays get ``bit``.  It keeps the
    rays the row does not cut off and adds one ray on its hyperplane for
    each adjacent pair of a ray it keeps strictly and one it cuts off.
    Adjacency is combinatorial: the two rays share at least ``need`` tight
    rows and no third ray is tight on every row that both are tight on.
    Returns the new rays and their masks."""
    gcd = math.gcd
    new_rays, new_tight, pos, neg = [], [], [], []
    for r, m in zip(rays, tight):
        v = sum(map(mul, a, r))
        if v > 0:
            new_rays.append(r)
            new_tight.append(m)
            pos.append((v, r, m))
        elif v < 0:
            neg.append((v, r, m))
        else:
            new_rays.append(r)
            new_tight.append(m | bit)
    # Two rays are adjacent only if they share enough tight rows for
    # their common face to be 2-dimensional modulo the lineality.
    for vp, rp, mp in pos:
        for vq, rq, mq in neg:
            common = mp & mq
            if common.bit_count() < need:
                continue
            # p and q contain their common rows; a third mask that does
            # too makes them non-adjacent.
            count = 0
            for m in tight:
                if m & common == common:
                    count += 1
                    if count > 2:
                        break
            else:
                w = [vp * y - vq * x for x, y in zip(rp, rq)]
                g = gcd(*w)
                new_rays.append(tuple(x // g for x in w) if g > 1 else tuple(w))
                new_tight.append(common | bit)
    return new_rays, new_tight


def _scaled(a: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(k, k a) for the least k > 0 that makes k a integral."""
    k = math.lcm(*(x.denominator for x in a))
    return k, tuple(x.numerator * (k // x.denominator) for x in a)


def _integer_row(a: Vec) -> tuple[int, ...]:
    """A positive multiple of a rational vector with integer entries."""
    return _scaled(a)[1]


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _idot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(map(mul, a, b))


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _eliminate(
    rows: Sequence[tuple[int, ...]], indices: Iterable[int], limit: int | None
) -> list[tuple[int, int, tuple[int, ...]]]:
    """Forward elimination, fraction-free: greedy in index order, each row
    of ``indices`` is reduced against the echelon rows kept so far and kept
    iff a nonzero entry is left (Bareiss 1968 for the integer-preserving
    step), until ``limit`` rows are kept.  Returns (index, pivot column,
    primitive row) per kept row; the pivot column is the row's first nonzero
    entry, and every later echelon row is zero there.
    """
    echelon: list[tuple[int, int, tuple[int, ...]]] = []
    for i in indices:
        v = rows[i]
        for _, c, e in echelon:
            if v[c]:
                f, g = e[c], v[c]
                v = tuple(f * x - g * y for x, y in zip(v, e))
        c = next((j for j, x in enumerate(v) if x), None)
        if c is not None:
            echelon.append((i, c, _primitive(v)))
            if len(echelon) == limit:
                break
    return echelon


def _first_basis(rows: Sequence[tuple[int, ...]], indices: Iterable[int], limit: int) -> tuple[int, ...]:
    """The lexicographically least subset of ``indices`` whose integer rows
    are ``limit`` independent vectors."""
    return tuple(i for i, _, _ in _eliminate(rows, indices, limit))


def rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """The rank of a list of rational vectors, exactly."""
    rows = [_integer_row(v) for v in vectors]
    return len(_eliminate(rows, range(len(rows)), None))


def _reduced(rows: Sequence[tuple[int, ...]]) -> list[tuple[int, tuple[int, ...]]]:
    """The reduced row echelon form of integer rows, up to a nonzero scale
    per row: (pivot column, primitive row) in increasing pivot column, each
    row zero at every other pivot column.  Back elimination on the forward
    echelon, last row first."""
    echelon = [(c, e) for _, c, e in _eliminate(rows, range(len(rows)), None)]
    for k in reversed(range(len(echelon))):
        c, e = echelon[k]
        for j in range(k):
            cj, ej = echelon[j]
            if ej[c]:
                echelon[j] = cj, _primitive([e[c] * x - ej[c] * y for x, y in zip(ej, e)])
    # The pivot columns are distinct, so the sort never compares rows.
    return sorted(echelon)


def _kernel(rows: Sequence[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """A basis of {z in R^dim : n.z = 0 for every integer row n}: per free
    column f in increasing order, the primitive vector positive at f and
    zero at the other free columns."""
    red = _reduced(rows)
    pivots = {c for c, _ in red}
    scale = math.lcm(*(e[c] for c, e in red))
    basis = []
    for f in range(dim):
        if f not in pivots:
            z = [0] * dim
            z[f] = scale
            for c, e in red:
                z[c] = -e[f] * (scale // e[c])
            basis.append(_primitive(z))
    return basis


def _affine_point(rows: Sequence[tuple[int, ...]], dim: int) -> Vec | None:
    """The solution of n.z = b for the integer rows n + (b,) that is 0 at
    every free coordinate; None when there is no solution."""
    z = [ZERO] * dim
    for c, e in _reduced(rows):
        if c == dim:
            return None
        z[c] = Fraction(e[-1], e[c])
    return tuple(z)


def _solve_gram(gram: list[list[int]], rhs: list[int]) -> tuple[int, list[int]] | None:
    """Solve ``gram x = rhs`` for a Gram matrix of integer rows, fraction-free.

    Returns ``(det, det x)``, both integral by Cramer's rule, with det > 0;
    None when the rows are dependent.  Bareiss elimination needs no pivoting
    here: its pivots are the leading principal minors, Gram determinants
    that vanish exactly when a leading set of rows is dependent.
    """
    m = [row + [y] for row, y in zip(gram, rhs)]
    s = len(m)
    prev = 1
    for k in range(s):
        pivot = m[k][k]
        if pivot == 0:
            return None
        for i in range(k + 1, s):
            mik = m[i][k]
            m[i] = [0] * (k + 1) + [
                (pivot * m[i][j] - mik * m[k][j]) // prev for j in range(k + 1, s + 1)
            ]
        prev = pivot
    num = [0] * s
    for i in reversed(range(s)):
        acc = prev * m[i][s] - sum(m[i][j] * num[j] for j in range(i + 1, s))
        num[i] = acc // m[i][i]
    return prev, num


class Cone:
    """Closed convex polyhedral cone with both representations.

    ``generators`` span the cone conically; ``halfspaces`` are normals n
    meaning ``{z : n.z >= 0}``.  The cone is the b = 0 polyhedron of its
    halfspaces, built once as ``polyhedron``: membership and ``pointed`` (a
    V-form with no lineality) read it, and ``has_interior`` is the dual
    cone's ``pointed``.  Both constructors require an ordering cone, C != Z
    (equivalently C^- != {0}); dual cones skip that check, since they
    merely appear as intermediate values (e.g. duals of degenerate cones).
    """

    def __init__(self, dim: int, generators: Mat, halfspaces: Mat):
        self.dim = dim
        self.generators = generators
        self.halfspaces = halfspaces

    def _key(self) -> tuple[int, Mat, Mat]:
        return self.dim, self.generators, self.halfspaces

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is Cone and self._key() == other._key())

    def __hash__(self) -> int:
        return hash(self._key())

    @staticmethod
    def from_generators(gens) -> "Cone":
        g = [vec(x) for x in gens]
        if not g:
            raise ValueError("need at least one generator; use the zero cone explicitly")
        dim = len(g[0])
        for x in g:
            _check_dim(dim, x)
        gens = tuple(scale_to_canonical(x) for x in g if not is_zero(x))
        dual = Cone._of_rows(dim, tuple(tuple(-c for c in x) for x in gens), False)
        cone = Cone._build(dim, gens, tuple(tuple(-c for c in r) for r in dual.generators), True)
        cone._dual = dual
        return cone

    @staticmethod
    def from_halfspaces(normals, dim: int | None = None) -> "Cone":
        ns = [vec(x) for x in normals]
        if dim is None:
            if not ns:
                raise ValueError("dimension required when no halfspaces are given")
            dim = len(ns[0])
        for x in ns:
            _check_dim(dim, x)
        return Cone._of_rows(dim, tuple(x for x in ns if not is_zero(x)), True)

    @staticmethod
    def _of_rows(dim: int, halfspaces: Mat, require_proper: bool) -> "Cone":
        """The cone of nonzero ``halfspaces``, its generators by ``_cone_rays``.
        When that pass added no lineality rows it ran on the polyhedron's own
        integer rows, in order, so the polyhedron keeps it as its V-form."""
        gens, vf = _cone_rays(list(halfspaces), dim)
        cone = Cone._build(dim, tuple(gens), halfspaces, require_proper)
        if vf is not None:
            cone.polyhedron.__dict__.update(
                vform=vf, _int_rows=[_integer_row(n) + (0,) for n in halfspaces]
            )
        return cone

    @staticmethod
    def _build(dim: int, gens: Mat, halfspaces: Mat, require_proper: bool) -> "Cone":
        # Positive multiples keep every sign, so the check runs on integer rows.
        normals = [_integer_row(n) for n in halfspaces]
        for g in map(_integer_row, gens):
            if any(_idot(n, g) < 0 for n in normals):
                raise ValueError("inconsistent cone representations")
        if require_proper and not any(not is_zero(n) for n in halfspaces):
            raise OrderConeError(
                "ordering cone equals the whole space; its dual is trivial"
            )
        return Cone(dim, gens, halfspaces)

    @cached_property
    def polyhedron(self) -> "Polyhedron":
        """The cone as the polyhedron ``{z : n.z >= 0}`` of its halfspaces."""
        return Polyhedron(self.dim, [(n, ZERO) for n in self.halfspaces])

    @cached_property
    def generator_sum(self) -> tuple[int, ...]:
        """The sum of the generators, each scaled to integers by ``_integer_row``."""
        return tuple(map(sum, zip((0,) * self.dim, *map(_integer_row, self.generators))))

    @property
    def pointed(self) -> bool:
        return not self.polyhedron.vform.lin

    @property
    def has_interior(self) -> bool:
        return dual_cone(self).pointed

    def contains(self, z) -> bool:
        return self.polyhedron.contains(z)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Cone(dim={self.dim}, generators={len(self.generators)})"


def dual_cone(c: Cone) -> Cone:
    """Negative dual cone C^- = {u : u.z <= 0 for all z in C}, built once per
    cone and kept on it."""
    dual = c.__dict__.get("_dual")
    if dual is None:
        dual = Cone._of_rows(c.dim, tuple(tuple(-x for x in g) for g in c.generators), False)
        dual = c.__dict__.setdefault("_dual", dual)
    return dual


def require_dual_direction(cone: Cone, zstar: Vec) -> None:
    """Raise ValueError unless z* lies in C^- \\ {0}."""
    if is_zero(zstar):
        raise ValueError("z* must be nonzero")
    if not dual_cone(cone).contains(zstar):
        raise ValueError("z* lies outside the negative dual cone")


class DualPair(NamedTuple):
    """A dual argument (x*, z*); z* must lie in C^- \\ {0} when conjugating."""

    xstar: Vec
    zstar: Vec

    @staticmethod
    def of(xstar, zstar) -> "DualPair":
        return DualPair(vec(xstar), vec(zstar))


class Polyhedron:
    """H-polyhedron ``{z : n_i . z >= b_i}``; representation accepted unreduced."""

    __slots__ = ("dim", "rows", "__dict__")

    def __init__(self, dim: int, rows):
        self.dim = dim
        normalized: list[Constraint] = []
        for n, b in rows:
            nv = vec(n)
            _check_dim(dim, nv)
            normalized.append((nv, frac(b)))
        self.rows: tuple[Constraint, ...] = tuple(normalized)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _of(dim: int, rows: tuple[Constraint, ...], int_rows: list[tuple[int, ...]]) -> "Polyhedron":
        """Rows already normalized, stored as given with their integer rows."""
        p = object.__new__(Polyhedron)
        p.dim, p.rows = dim, rows
        p.__dict__["_int_rows"] = int_rows
        return p

    @staticmethod
    def full(dim: int) -> "Polyhedron":
        return Polyhedron(dim, [])

    @staticmethod
    def empty(dim: int) -> "Polyhedron":
        return Polyhedron(dim, [(zeros(dim), Fraction(1))])

    @staticmethod
    def box(bounds) -> "Polyhedron":
        dim = len(bounds)
        rows = []
        for i, (lo, hi) in enumerate(bounds):
            e = [ZERO] * dim
            e[i] = Fraction(1)
            rows.append((tuple(e), frac(lo)))
            e[i] = Fraction(-1)
            rows.append((tuple(e), -frac(hi)))
        return Polyhedron(dim, rows)

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polyhedron)
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.rows))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Polyhedron(dim={self.dim}, rows={len(self.rows)})"

    # -- queries ------------------------------------------------------------

    @cached_property
    def _int_rows(self) -> list[tuple[int, ...]]:
        """Each row (n, b) as an integer row ``n + (b,)``, a positive multiple."""
        return [_integer_row(n + (b,)) for n, b in self.rows]

    @cached_property
    def vform(self) -> VForm:
        """Points, rays and lineality, by one double-description pass."""
        return _double_description(self._int_rows, self.dim)

    @property
    def is_empty(self) -> bool:
        return not self.vform.gens

    def recedes_along(self, c: Sequence[int]) -> bool:
        """Whether every nonzero row n.z >= b has n.c > 0 and every zero row
        has b <= 0, for an integer direction c.  Then z + t c lies in P for
        every z and all large t, so P is nonempty, read without a pass."""
        # zip stops at c's end, so _idot(r, c) is n.c.
        return all(
            (v := _idot(r, c)) > 0 or not v and r[-1] <= 0 and not any(r[:-1])
            for r in self._int_rows
        )

    def contains(self, z) -> bool:
        v = vec(z)
        _check_dim(self.dim, v)
        k, kv = _scaled(v)
        h = kv + (-k,)
        return all(_idot(r, h) >= 0 for r in self._int_rows)

    def support(self, direction) -> Ext:
        """sup { d.z : z in P }: -inf when empty, +inf when unbounded; the
        value at ``_lowest`` of -k d for k d integral.

        A ``HashedVec`` direction of this dimension keeps its integer form
        (k, k d, the key -k d + (0,)) from its first read, so the base
        directions that every scan reads are scaled once.
        """
        hashed = type(direction) is HashedVec and len(direction) == self.dim
        form = direction.__dict__.get("_support_form") if hashed else None
        if form is None:
            d = vec(direction)
            _check_dim(self.dim, d)
            k, kd = _scaled(d)
            form = (k, kd, tuple(-x for x in kd) + (0,))
            if hashed:
                direction._support_form = form
        if self.is_empty:
            return NEG_INF
        k, kd, h = form
        g = self._lowest(h)
        return POS_INF if g is None else Fraction(_idot(kd, g), g[-1] * k)

    def lowest_point(self, direction) -> Vec | None:
        """The last V-form point that minimizes d.z over P; None when no
        point does (P is empty, or d.z is unbounded below on P)."""
        d = vec(direction)
        _check_dim(self.dim, d)
        g = self._lowest(_scaled(d)[1] + (0,))
        return None if g is None else tuple(Fraction(x, g[-1]) for x in g[:-1])

    def _lowest(self, h: tuple[int, ...]) -> tuple[int, ...] | None:
        """The last generator (z, t), t > 0, that minimizes h.(z, 0) / t, by
        cross-multiplying in integers; None when there is none or when a
        ray or lineality vector makes h unbounded below."""
        vf = self.vform
        if any(_idot(h, l) for l in vf.lin):
            return None
        best, best_value = None, 0
        for g in vf.gens:
            value, t = _idot(h, g), g[-1]
            if not t:
                if value < 0:
                    return None
            elif best is None or value * best[-1] <= best_value * t:
                best, best_value = g, value
        return best

    def _escape(self, rows: Sequence[tuple[int, ...]]) -> Vec | None:
        """The first recession direction d of the V-form -- each lineality
        vector l, then -l, then each ray -- with n.d < 0 for an integer row
        n + (b,) of ``rows``, in canonical scale; None when there is none."""
        vf = self.vform
        dirs = itertools.chain(
            (c for l in vf.lin for c in (l, tuple(-x for x in l))),
            (g for g in vf.gens if not g[-1]),
        )
        # A direction (d, 0) meets each row in a positive multiple of n.d.
        d = next((d for d in dirs if any(_idot(r, d) < 0 for r in rows)), None)
        return None if d is None else scale_to_canonical(vec(d[:-1]))

    @cached_property
    def minimal_face_points(self) -> list[Vec]:
        """One representative point per minimal face (vertices when pointed).

        Each face's point solves its lexicographically least basis of tight
        rows, and the faces come in the order of those bases: the first
        solution in P met by a scan of the row subsets of full rank in
        ``itertools.combinations`` order.  The double description knows
        the rows tight on each of its points; when P is pointed, that point
        is the face and the basis only orders it.
        """
        vf = self.vform
        if not vf.gens:
            return []
        size = self.dim - len(vf.lin)
        if size == 0:
            # Every normal is zero and every offset <= 0, so P holds the origin.
            return [zeros(self.dim)]
        normals = [r[:-1] for r in self._int_rows]
        faces = []
        for g, mask in zip(vf.gens, vf.tight):
            if not g[-1]:
                continue
            basis = _first_basis(normals, _bits(mask >> 1), size)
            if vf.lin:
                p = _affine_point([self._int_rows[i] for i in basis], self.dim)
            else:
                p = tuple(Fraction(x, g[-1]) for x in g[:-1])
            faces.append((basis, p))
        faces.sort(key=lambda face: face[0])
        return [p for _, p in faces]

    def dist_sq(self, z) -> Ext:
        """Exact squared Euclidean distance from z to the polyhedron.

        +inf for the empty set.  With residuals ``r_i = n_i . z - b_i``, z
        lies in P iff every ``r_i >= 0``.  Otherwise the row subsets S are
        scanned by size: S certifies the nearest point when its rows are
        independent, ``(N_S N_S^T) lam = r_S`` has ``lam <= 0`` and
        ``p = z - N_S^T lam`` lies in P; then the distance is ``lam . r_S``.
        Such p is the projection: for every y in P,
        ``(z - p).(y - p) = sum lam_i (n_i . y - b_i) <= 0``.  Conversely,
        Caratheodory on the normal cone at the projection gives an
        independent certifying S of at most ``dim`` rows.
        """
        v = vec(z)
        _check_dim(self.dim, v)
        cache = self.__dict__.get("_dist_cache")
        if cache is None:
            cache = self.__dict__["_dist_cache"] = {}
        d = cache.get(v)
        if d is None:
            k, kv = _scaled(v)
            d = cache[v] = self._dist_sq_scaled(kv, k)
        return d

    def _dist_sq_scaled(self, kv: tuple[int, ...], k: int) -> Ext:
        """``dist_sq`` at z = kv / k for integers kv and k > 0, in ints."""
        # Each integer row's residual at (kv, -k) is a positive multiple of
        # n . z - b.
        h = kv + (-k,)
        rows = self._int_rows
        resid = [_idot(r, h) for r in rows]
        if min(resid, default=0) >= 0:
            return ZERO
        if self.is_empty:
            return POS_INF
        # The scan runs on the integer rows: scaling a row by c > 0 scales
        # its multiplier by 1 / c, which moves neither p nor lam . r.  Here
        # resid = k r, and (N N^T) mu = resid has the solution mu = num / det
        # with num integral, so lam = num / (det k), det k p = det k z -
        # N^T num, and the distance is num . resid / (det k^2).
        for size in range(1, min(self.dim, len(rows)) + 1):
            for subset in itertools.combinations(range(len(rows)), size):
                if size == 1 and resid[subset[0]] >= 0:
                    continue
                normals = [rows[i][:-1] for i in subset]
                solved = _solve_gram(
                    [[_idot(a, b) for b in normals] for a in normals], [resid[i] for i in subset]
                )
                if solved is None or any(x > 0 for x in solved[1]):
                    continue
                det, num = solved
                p = [det * x for x in kv]
                for x, n in zip(num, normals):
                    p = [y - x * c for y, c in zip(p, n)]
                p.append(-det * k)
                if all(_idot(r, p) >= 0 for r in rows):
                    return Fraction(_idot(num, [resid[i] for i in subset]), det * k * k)
        raise AssertionError("no active set certifies the nearest point")

    def excess_sq(
        self, other: "Polyhedron", window: "Polyhedron | None" = None
    ) -> tuple[Ext, Vec | None]:
        """sup over z in self (cut to ``window`` when one is given) of
        ``other.dist_sq(z)``, exactly, with what attains it: (0, None) when
        the sup is 0 (the cut empty or inside other).

        Self is conv(points) + cone(rays) + span(lineality) by its V-form.
        The sup is +inf, returned with the escaping direction, when a ray or
        a +- lineality vector d has n.d < 0 for a row n of ``other``: along
        d, z leaves that halfspace at a linear rate.  Otherwise every such d
        is a recession direction of ``other``, along which the distance to
        the convex ``other`` does not grow (along +-l it stays constant), so
        the sup is the max over the points, each read as it stands; the
        first point reaching it is returned.

        A window changes nothing when it holds every V-form point and no
        direction escapes: the sup over self is then attained at a point of
        self's V-form, which lies in the cut, so the cut has the same sup
        (Rockafellar 1970, Sec. 32), whether the window is bounded or not.
        That case reads self's own V-form, in integers against the window's
        rows, and returns a point of it as the witness.  Otherwise (a point
        outside the window, or an escape that the window may stop) the cut
        ``self.intersect(window)`` builds its own V-form and answers,
        witness included: a point of the cut, or a recession direction of
        the cut that leaves ``other``.
        """
        if self.dim != other.dim:
            raise DimensionMismatch("excess of unequal dimensions")
        if window is not None:
            # Checked before the rows meet the points, which zip would cut short.
            if window.dim != self.dim:
                raise DimensionMismatch("window of unequal dimension")
            rows = window._int_rows
            # The point z / t meets an integer row n + (b,) in n.z - b t, a
            # positive multiple of its residual.
            points = [g[:-1] + (-g[-1],) for g in self.vform.gens if g[-1]]
            if not all(_idot(r, h) >= 0 for h in points for r in rows):
                return self.intersect(window).excess_sq(other)
        d = self._escape(other._int_rows)
        if d is not None:
            return (POS_INF, d) if window is None else self.intersect(window).excess_sq(other)
        best, arg = ZERO, None
        for g in self.vform.gens:
            if g[-1]:
                value = other._dist_sq_scaled(g[:-1], g[-1])
                if value > best:
                    best, arg = value, g
        return best, None if arg is None else tuple(Fraction(x, arg[-1]) for x in arg[:-1])

    @cached_property
    def affine_dim(self) -> int:
        """Dimension of the affine hull; -1 for the empty set: the rank of
        the homogenized generators and lineality, less one."""
        spanning = self.vform.gens + self.vform.lin
        return len(_first_basis(spanning, range(len(spanning)), self.dim + 1)) - 1

    def interior_point(self) -> Vec | None:
        """A point with a positive margin on every row, or None.

        Margins are weighted by the l1 norm of each row so the point is a
        Chebyshev-style center of the (boxed) polyhedron in the l-inf sense:
        the lowest point of -s over {(z, s) : n.z - |n|_1 s >= b, |z_i| <= box}.
        """
        # A zero row keeps its meaning: 0 >= b, whatever (z, s) is.
        rows = [(n + (-norm1(n),), b) for n, b in self.rows]
        box = Polyhedron.box([(-_INTERIOR_BOX, _INTERIOR_BOX)] * self.dim)
        rows += [(n + (ZERO,), b) for n, b in box.rows]
        best = Polyhedron(self.dim + 1, rows).lowest_point((ZERO,) * self.dim + (Fraction(-1),))
        if best is None or best[-1] <= 0:
            return None
        return best[:-1]

    # -- transforms ---------------------------------------------------------

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if self.dim != other.dim:
            raise DimensionMismatch("intersection of unequal dimensions")
        return Polyhedron._of(self.dim, self.rows + other.rows, self._int_rows + other._int_rows)

    def translate(self, v) -> "Polyhedron":
        t = vec(v)
        _check_dim(self.dim, t)
        return Polyhedron(self.dim, [(n, b + dot(n, t)) for n, b in self.rows])

    def scale(self, t) -> "Polyhedron":
        """Image {t z : z in P} for t > 0."""
        tf = frac(t)
        if tf <= 0:
            raise ValueError("scale factor must be positive here")
        return Polyhedron(self.dim, [(n, tf * b) for n, b in self.rows])

    def __add__(self, other: "Polyhedron") -> "Polyhedron":
        """The Minkowski sum: each point p + q, the rays and the lineality of
        both, read back as facets.  When one operand is a cone (its V-form
        the origin and rays, no lineality) and the other, P, is nonempty and
        pointed with no row tight on every generator (so full-dimensional),
        ``_closure`` adds the cone's rows to P's own facets by no pass; any
        other pair runs the ``_hull`` pass on the generators.  Both give the
        same rows as a set, and the same handed-over V-form."""
        if self.dim != other.dim:
            raise DimensionMismatch("Minkowski sum of unequal dimensions")
        a, b = self.vform, other.vform
        rays = [g for g in a.gens + b.gens if not g[-1]]
        origin = [(0,) * self.dim + (1,)]
        for p, c in ((self, b), (other, a)):
            v = p.vform
            if (
                not c.lin and [g for g in c.gens if g[-1]] == origin
                and v.gens and not v.lin and not reduce(and_, v.tight) >> 1
            ):
                # Each point p + 0 is p's own.
                points = [g for g in v.gens if g[-1]]
                return _closure(p, [g for g in c.gens if not g[-1]], rays + points)
        points = [
            tuple(x * h[-1] + y * g[-1] for x, y in zip(g[:-1], h[:-1])) + (g[-1] * h[-1],)
            for g in a.gens if g[-1]
            for h in b.gens if h[-1]
        ]
        # Rays first: a cone's few rays cut the dual cone down early, which
        # keeps the pass over the many points smaller.
        return _hull(self.dim, rays + points, a.lin + b.lin)

    def contained_in(self, other: "Polyhedron") -> bool:
        """Exact containment self <= other for convex polyhedra: every row
        (n, b) of ``other`` holds on self, n.z >= b.  A row whose integer row
        self carries too holds on self already, so only the other rows read a
        support: ``self is other`` reads none, and neither does
        ``a.intersect(b)`` against ``a``, which carries a's integer rows.
        The match is incomplete on purpose: a scaled copy of a row is not
        matched and is read like any other row."""
        if self.dim != other.dim:
            raise DimensionMismatch("containment of unequal dimensions")
        held = set(self._int_rows)
        rest = [nb for nb, r in zip(other.rows, other._int_rows) if r not in held]
        if not rest or self.is_empty:
            return True
        return all(-self.support(tuple(-x for x in n)) >= b for n, b in rest)


class Region:
    """A half-open polyhedral cell {z : n.z >= b on every row of ``closure``,
    > on the rows flagged in ``strict``}: a guard-tree leaf's region, a
    closed-form piece's, a set-difference cell.  ``closure`` drops the flags
    and answers supports, faces and rows: a linear function has the same
    sup on a nonempty region as on its closure."""

    def __init__(self, closure: Polyhedron, strict: tuple[bool, ...]):
        self.closure = closure
        self.strict = strict

    @staticmethod
    def closed(p: Polyhedron) -> "Region":
        return Region(p, (False,) * len(p.rows))

    def contains(self, z: Vec) -> bool:
        """Row by row on the integer rows, for z of Fractions or ints."""
        k, kz = _scaled(z)
        h = kz + (-k,)
        for r, st in zip(self.closure._int_rows, self.strict):
            if (v := _idot(r, h)) < 0 or st and not v:
                return False
        return True

    def point(self) -> Vec | None:
        """A point of the region, or None when it is empty: the lowest point
        of -s over {(z, s) : n.z - s >= b on strict rows, n.z >= b on the
        others, s <= 1}, kept when its margin s is positive."""
        dim, rows = self.closure.dim, zip(self.closure.rows, self.strict)
        lifted = [(n + (Fraction(-1) if st else ZERO,), b) for (n, b), st in rows]
        lifted.append(((ZERO,) * dim + (Fraction(-1),), Fraction(-1)))
        low = Polyhedron(dim + 1, lifted).lowest_point((ZERO,) * dim + (Fraction(-1),))
        return None if low is None or low[-1] <= 0 else low[:-1]

    @cached_property
    def is_empty(self) -> bool:
        """Read off ``point`` where some row is strict, else the closure's V-form."""
        return self.point() is None if any(self.strict) else self.closure.is_empty

    def intersect(self, other: "Region") -> "Region":
        return Region(self.closure.intersect(other.closure), self.strict + other.strict)


def _hull(dim: int, gens: Iterable[tuple[int, ...]], lin: Iterable[tuple[int, ...]]) -> Polyhedron:
    """The polyhedron whose homogenized cone is cone(gens) + span(lin): the
    V->H direction of the double description.

    Its facets are the extreme rays of the dual cone
    {(n, s) : n.z + s t >= 0 for every generator (z, t), = 0 on span(lin)},
    found by one ``_double_description`` pass with the generators as rows; a
    ray (n, s) is the row n.z >= -s, a lineality vector gives the pair of
    rows of an implicit equation, and the ray with n = 0 (the face t >= 0)
    is dropped.  The rows are irredundant, each scaled to largest normal
    entry 1.  No generator with t > 0 means the empty set.

    The same pass also gives the output's V-form, handed over so that no
    second pass rebuilds it.  The dual pass's mask of each facet holds the
    bits of the generators tight on it, so each generator's mask over the
    output rows is read off those masks (bit 0 when t = 0), and the V-form
    keeps the generators whose mask lies strictly inside no other one's:
    a generator that is not extreme lies inside a face of dimension >= 2,
    whose extreme rays are generators tight on strictly more rows.  This
    holds when cone(gens) + span(lin) is pointed and full-dimensional, so
    the V-form is handed over only when ``lin`` is zero, the dual pass
    finds no lineality (no implicit equation) and no generator is tight on
    every row (no lineality among the generators); otherwise the output
    builds its V-form by its own pass.
    """
    gens = list(dict.fromkeys(_primitive(g) for g in gens if any(g)))
    rows = [g + (0,) for g in gens]
    for l in lin:
        if any(l):
            rows += [l + (0,), tuple(-x for x in l) + (0,)]
    if not any(g[-1] for g in gens):
        return Polyhedron.empty(dim)
    vf = _double_description(rows, dim + 1)
    facets = [(g[:-1], m) for g, m in zip(vf.gens, vf.tight) if not g[-1]]
    facets += [(c, 0) for l in vf.lin for c in (l[:-1], tuple(-x for x in l[:-1]))]
    # len(rows) == len(gens): no row came from ``lin``.
    return _of_facets(dim, gens, facets, len(rows) == len(gens) and not vf.lin)


def _of_facets(
    dim: int, gens: list[tuple[int, ...]], facets: Iterable[tuple[tuple[int, ...], int]], pointed: bool
) -> Polyhedron:
    """The polyhedron of the facets (n, s), each the row n.z >= -s with the
    mask of the generators tight on it (bit k + 1 for ``gens[k]``); n = 0
    is dropped.  When ``pointed`` (the dual cone has no lineality and no
    generator came from one) and no generator is tight on every row, the
    V-form is handed over (see ``_hull``)."""
    out, int_rows = [], []
    # masks[k] is generator k's V-form mask over the output rows: bit 0 when
    # t = 0, and bit j + 1 when row j is tight on it, which is bit k + 1 of
    # facet j's mask.
    masks = [0 if g[-1] else 1 for g in gens]
    for f, tight in facets:
        m = max((abs(x) for x in f[:-1]), default=0)
        if m:
            out.append((tuple(Fraction(x, m) for x in f[:-1]), Fraction(-f[-1], m)))
            # (n, s) is primitive, so n + (-s,) is the row's ``_integer_row``.
            int_rows.append(f[:-1] + (-f[-1],))
            bit = 1 << len(out)
            for k in _bits(tight >> 1):
                if k < len(gens):
                    masks[k] |= bit
    p = Polyhedron._of(dim, tuple(out), int_rows)
    if pointed and (2 << len(out)) - 1 not in masks:
        extreme = [
            k for k, mk in enumerate(masks)
            if not any(m & mk == mk and m != mk for m in masks)
        ]
        p.__dict__["vform"] = VForm([gens[k] for k in extreme], [masks[k] for k in extreme], [])
    return p


def _closure(p: Polyhedron, cone_rays: list[tuple[int, ...]], gens: list[tuple[int, ...]]) -> Polyhedron:
    """cl(P + C) for P pointed and full-dimensional and C = cone(cone_rays),
    from P's own double description; ``gens`` are the sum's generators.

    The valid inequalities n.z >= b of P, as vectors (n, -b), form the cone
    D generated by P's facet rows and (0, 1), the row 0 >= -1 (the affine
    Farkas lemma).  D is the dual of P's homogenized cone, so its tight
    masks are P's V-form masks, transposed, and as P is full-dimensional a
    row is a facet iff its tight set lies strictly inside no other row's.
    The facets of P + C are the extreme rays of D left after one ``_cut``
    step per generator g of C for the row n.g >= 0, the row that the dual
    pass of ``_hull`` holds for g.  The steps start from the facet rows alone:
    (0, 1) lies on every hyperplane n.g = 0, so no step cuts it or pairs
    it, and it never alone keeps two rays from counting as adjacent (a face
    in which they are not adjacent has at least two more extreme rays);
    with n = 0 it is no row of the output.
    """
    gens = list(dict.fromkeys(gens))
    bits = {g: 2 << k for k, g in enumerate(gens)}
    # masks[i] is row i's; bit 0 is the dual pass's homogenizing row, tight
    # on every facet.
    masks = [1] * len(p._int_rows)
    for g, m in zip(p.vform.gens, p.vform.tight):
        for i in _bits(m >> 1):
            masks[i] |= bits[g]
    # Equal primitive rows have equal masks.
    rows = {_primitive(r[:-1] + (-r[-1],)): m for r, m in zip(p._int_rows, masks)}
    rays = [
        f for f, m in rows.items()
        if any(f[:-1]) and not any(o & m == m and o != m for o in rows.values())
    ]
    tight = [rows[f] for f in rays]
    # The dual pass runs in dimension dim + 2, so a 2-face of its cone is
    # tight on dim rows or more, bit 0 among them.
    for g in cone_rays:
        rays, tight = _cut(rays, tight, g, bits[g], p.dim)
    return _of_facets(p.dim, gens, zip(rays, tight), True)


def project_out(p: Polyhedron, coords: list[int]) -> Polyhedron:
    """Project a polyhedron onto the complement of the given coordinates:
    drop them from each generator of its V-form, then read the facets back."""
    keep = [i for i in range(p.dim + 1) if i not in coords]
    vf = p.vform
    return _hull(
        len(keep) - 1,
        (tuple(g[i] for i in keep) for g in vf.gens),
        (tuple(l[i] for i in keep) for l in vf.lin),
    )
