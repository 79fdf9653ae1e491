"""Set-valued maps into the lattice of upper closed sets.

Maps are drawn from a closed constructor family rather than arbitrary code:

* ``AffineBody``: f(x) = {z : (n_i + sum_k x_k m_ik) . z >= q_i + l_i . x}.
  With constant normals (no m terms) the graph is a polyhedron, hence the
  map is convex; the optional x-dependent normal terms cover tilting
  halfspace families, which are generally not convex.
* ``ScaledBody``: f(x) = alpha(x) . A for an upper closed convex base A and
  an affine nonnegative alpha, with the convention 0 . A = C (so scaled
  families stay defined at the parameter boundary).
* ``PiecewiseBody``: a single affine guard inequality g.x >= h selecting
  between two sub-bodies.  The guard rule: the true branch wins on the
  boundary, so the false side is strict, g.x < h.  Used for "empty below a
  threshold" style maps.

A map flattens its guard tree once into ``SetValuedMap.leaves``: one ``Leaf``
per affine or scaled body, whose ``geometry.Region`` holds the guard rows on
its path, a false side negated and flagged strict.  The regions partition R^n
(the critical regions of multiparametric LP).  Each leaf answers for its own
kind, and no other module tells the kinds apart.  A constant-normal affine
leaf's graph is one polyhedron (Robinson 1981), read two ways: projected for
the domain, and row by row at its worst over an x-box for the box
certificate; the closed-form scalarizations project it too.

Near x0, f is given by the leaves at x0, L(x0) (``leaves_at``): those whose
nonempty region has x0 in its closure.  The graph interior is read there
exactly, as strict rows at x0 (``Leaf.interior_rows``).

Every constructor instance evaluates to a value in the lattice; an affine
value whose row normal leaves the positive dual cone is rejected when it is
evaluated.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

from .geometry import Cone, Polyhedron, Region, dual_cone, project_out
from .linalg import ZERO, Constraint, HashedVec, Mat, Vec, dot, frac, from_json, norm1, to_json, vec
from .sets import ParabolaOracle, UpperSet, member, parabola_upper_set, scale
from .verdict import Verdict, Witness


class MapError(ValueError):
    pass


class AffineForm:
    """alpha(x) = coeffs . x + const."""

    def __init__(self, coeffs: Vec, const: Fraction):
        self.coeffs = coeffs
        self.const = const

    def __call__(self, x: Vec) -> Fraction:
        return dot(self.coeffs, x) + self.const

    @staticmethod
    def of(coeffs, const) -> "AffineForm":
        return AffineForm(vec(coeffs), frac(const))


class AffineBody:
    """Halfspace family {z : N(x) z >= q + L x} with affine N(x)."""

    def __init__(
        self,
        normals: Mat,  # n_i, one row per constraint, z-space
        offsets: Vec,  # q_i
        x_coeffs: Mat,  # l_i, one row per constraint, x-space
        x_normals: Optional[tuple[Mat, ...]] = None,  # per row: one z-vector per x-coord
    ):
        rows = len(normals)
        if len(offsets) != rows or len(x_coeffs) != rows:
            raise MapError("row count mismatch in affine body")
        if x_normals is not None and len(x_normals) != rows:
            raise MapError("x-normal count mismatch in affine body")
        self.normals = normals
        self.offsets = offsets
        self.x_coeffs = x_coeffs
        self.x_normals = x_normals

    @property
    def fixed_normals(self) -> bool:
        if self.x_normals is None:
            return True
        return all(
            all(all(c == 0 for c in v) for v in per_row) for per_row in self.x_normals
        )

    def normal_at(self, i: int, x: Vec) -> Vec:
        n = self.normals[i]
        if self.x_normals is None:
            return n
        acc = list(n)
        for k, xv in enumerate(x):
            if xv != 0:
                mv = self.x_normals[i][k]
                acc = [a + xv * m for a, m in zip(acc, mv)]
        return tuple(acc)

    def rows_at(self, x: Vec) -> list[Constraint]:
        return [
            (self.normal_at(i, x), self.offsets[i] + dot(self.x_coeffs[i], x))
            for i in range(len(self.normals))
        ]


class ScaledBody:
    def __init__(self, base: UpperSet, alpha: AffineForm):
        self.base = base
        self.alpha = alpha


class PiecewiseBody:
    def __init__(self, guard: Constraint, when_true: Body, when_false: Body):
        self.guard = guard  # g . x >= h
        self.when_true = when_true
        self.when_false = when_false


Body = AffineBody | ScaledBody | PiecewiseBody


class Leaf:
    """One leaf of a guard tree: ``body`` gives the value on ``region``, and
    the regions of a map's leaves partition R^n.  Its answers read
    ``graph_rows`` where it has a graph, else its body."""

    def __init__(self, region: Region, body: AffineBody | ScaledBody):
        self.region = region
        self.body = body

    @cached_property
    def graph_rows(self) -> Optional[tuple[Constraint, ...]]:
        """The graph {(x, z) : N z >= q + L x} of a constant-normal body, as
        rows (-l_i, n_i) . (x, z) >= q_i; None for tilting and scaled bodies."""
        b = self.body
        if not isinstance(b, AffineBody) or not b.fixed_normals:
            return None
        rows = zip(b.normals, b.offsets, b.x_coeffs)
        return tuple((tuple(-c for c in l) + tuple(n), q) for n, q, l in rows)

    @property
    def empty(self) -> bool:
        """Empty everywhere: a graph row 0 . (x, z) >= q > 0."""
        return any(not any(a) and q > 0 for a, q in self.graph_rows or ())

    @property
    def convex(self) -> bool:
        """Whether the body's graph is convex; alpha(x) A's is exactly when A is."""
        if isinstance(self.body, AffineBody):
            return self.body.fixed_normals
        return self.body.base.is_convex

    @property
    def convex_valued(self) -> bool:
        """Affine values are single polyhedra and scaled values are copies of
        the base; only a polyhedral base with several pieces is not convex."""
        return isinstance(self.body, AffineBody) or self.body.base.is_convex

    def value(self, x: Vec, cone: Cone) -> UpperSet:
        """The value at x, over the cone C; a normal outside C^- raises."""
        b = self.body
        if isinstance(b, ScaledBody):
            a = b.alpha(x)
            return UpperSet.empty(cone) if a < 0 else scale(b.base, a)
        return UpperSet(cone, pieces=[Polyhedron(cone.dim, self._rows_at(x, cone))])

    def _rows_at(self, x: Vec, cone: Cone) -> list[Constraint]:
        """The affine body's rows at x; a normal outside C^- raises."""
        rows = self.body.rows_at(x)
        dual = dual_cone(cone)
        for n, _ in rows:
            if not dual.contains(tuple(-c for c in n)):
                msg = f"value is not upper closed at this point: normal {n} leaves the positive dual cone"
                raise MapError(msg)
        return rows

    def domain(self, n: int, m: int) -> Optional[Polyhedron]:
        """Where the value is nonempty in the region's closure, x in R^n and
        z in R^m: the graph cut by it, projected onto x.  None when the leaf
        is empty throughout; a tilting leaf keeps its whole closure."""
        b, region = self.body, list(self.region.closure.rows)
        if self.graph_rows is not None:
            if self.empty:
                return None
            pad = (ZERO,) * m
            lifted = [*self.graph_rows, *((tuple(g) + pad, h) for g, h in region)]
            return project_out(Polyhedron(n + m, lifted), list(range(n, n + m)))
        if isinstance(b, AffineBody):
            return Polyhedron(n, region)
        rows = region + [(b.alpha.coeffs, -b.alpha.const)]
        if b.base.is_empty:
            # 0 . A = C even for an empty A: the value is nonempty only
            # where alpha(x) = 0.
            rows.append((tuple(-c for c in b.alpha.coeffs), b.alpha.const))
        p = Polyhedron(n, rows)
        return None if p.is_empty else p

    def inner(self, x0: Vec, r: Fraction, m: int) -> Optional[Polyhedron]:
        """A polyhedron in R^m inside every value over the l-inf box of
        radius r around x0: each graph row (-l, n) . (x, z) >= q at its
        worst, n . z >= q + l . x0 + r |l|_1.  None without a graph."""
        if self.graph_rows is None:
            return None
        if self.empty:
            return Polyhedron.empty(m)
        k = len(x0)
        return Polyhedron(m, [(a[k:], q - dot(a[:k], x0) + r * norm1(a[:k])) for a, q in self.graph_rows])

    def interior_rows(self, x0: Vec, cone: Cone) -> Optional[list[list[Constraint]]]:
        """The ways z can make (x0, z) interior near x0, each a list of rows
        n.z >= b at x0 to hold strictly: [] when values near x0 have no
        interior, None when undecided.  A zero normal is no strict row: it
        is dropped where b(x0) < 0 and leaves no way where b(x0) > 0; at
        b(x0) = 0 a constant one leaves no way if b > 0 somewhere on the
        region (empty values, which the segment to x0 brings close), else it
        is dropped, and a tilting one is undecided.  A normal outside C^-
        at x0 raises, as ``value`` does."""
        b = self.body
        if isinstance(b, AffineBody):
            rows = []
            for i, (n, q) in enumerate(self._rows_at(x0, cone)):
                if any(n):
                    rows.append((n, q))
                elif q > 0:
                    return []
                elif q == 0:
                    if b.x_normals is not None and any(map(any, b.x_normals[i])):
                        return None
                    if self._meets(b.x_coeffs[i], -b.offsets[i]):
                        return []
            return [rows]
        a, coeffs = b.alpha(x0), b.alpha.coeffs
        if a < 0:
            return []
        if a == 0:
            # 0 . A = C; where alpha < 0 on the region, values are empty.
            if not any(coeffs):
                return [[(n, ZERO) for n in cone.halfspaces]]
            return [] if self._meets(tuple(-c for c in coeffs), b.alpha.const) else None
        if not b.base.is_polyhedral:
            return None
        # A zero row 0 >= a q of a piece holds for every z or for none.
        return [
            [(n, a * q) for n, q in p.rows if any(n)]
            for p in b.base.pieces
            if all(any(n) or q <= 0 for n, q in p.rows)
        ]

    def _meets(self, g: Vec, h: Fraction) -> bool:
        """Whether the region holds a point x with g.x > h."""
        if not any(g):
            return h < 0 and not self.region.is_empty
        cut = Region(Polyhedron(len(g), [(g, h)]), (True,))
        return self.region.intersect(cut).point() is not None


def _body_leaves(body: Body, region: Region) -> Iterator[Leaf]:
    """The leaves of the guard tree, true branch first: the true branch's
    region gains the guard row, the false branch's its negation, which holds
    strictly there (g.x < h)."""
    if isinstance(body, PiecewiseBody):
        (g, h), n = body.guard, region.closure.dim
        true_side = Region(Polyhedron(n, [(g, h)]), (False,))
        false_side = Region(Polyhedron(n, [(tuple(-c for c in g), -h)]), (True,))
        yield from _body_leaves(body.when_true, region.intersect(true_side))
        yield from _body_leaves(body.when_false, region.intersect(false_side))
    else:
        yield Leaf(region, body)


def constant_empty_body(n: int, m: int) -> AffineBody:
    """A body evaluating to the empty set everywhere (0 . z >= 1)."""
    return AffineBody(
        normals=((tuple([ZERO] * m)),),
        offsets=(Fraction(1),),
        x_coeffs=((tuple([ZERO] * n)),),
    )


def constant_cone_body(cone: Cone, n: int) -> AffineBody:
    """A body evaluating to the ordering cone C everywhere."""
    return AffineBody(
        normals=tuple(cone.halfspaces),
        offsets=tuple(ZERO for _ in cone.halfspaces),
        x_coeffs=tuple(tuple([ZERO] * n) for _ in cone.halfspaces),
    )


class SetValuedMap:
    """A map from R^n into the upper closed sets over a fixed cone."""

    def __init__(
        self,
        domain_dim: int,
        cone: Cone,
        body: Body,
        name: str = "",
    ):
        self.domain_dim = domain_dim
        self.cone = cone
        self.body = body
        self.name = name
        self.leaves = tuple(_body_leaves(body, Region.closed(Polyhedron.full(domain_dim))))
        self.convex_valued = all(leaf.convex_valued for leaf in self.leaves)
        # Every region is convex and empty values add nothing to the graph, so
        # the graph is convex when at most one leaf has values, a convex one.
        live = [leaf for leaf in self.leaves if not leaf.empty]
        self.convex = len(live) <= 1 and all(leaf.convex for leaf in live)
        self._value_cache: dict[Vec, UpperSet] = {}
        # x0 and the x-samples by radius level of the continuity scans at
        # x0, so that every scan at one point reads the same HashedVecs.
        self.x_samples: dict[Vec, tuple[Vec, dict[int, list[Vec]]]] = {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"SetValuedMap({self.name or type(self.body).__name__}, n={self.domain_dim})"

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x) -> UpperSet:
        xv = vec(x)
        if len(xv) != self.domain_dim:
            raise MapError(f"expected x of dimension {self.domain_dim}")
        # x itself is the key when it carries its hash: it equals xv, and
        # hashing xv would hash each of its Fractions again.  Stored under
        # x, a shared sample's later reads match by identity, with no
        # Fraction comparison.
        key = x if type(x) is HashedVec else xv
        value = self._value_cache.get(key)
        if value is not None:
            return value
        value = next(leaf for leaf in self.leaves if leaf.region.contains(xv)).value(xv, self.cone)
        self._value_cache[key] = value
        return value

    # -- domain --------------------------------------------------------------

    def domain_pieces(self) -> list[Polyhedron]:
        """Nonempty closed polyhedra whose union contains dom f = {x : f(x)
        nonempty}, at most one per leaf of the guard tree.

        Each piece lies in the closure of its leaf's region, so the union may
        also contain points on a guard's boundary where the true branch is
        empty; a branch whose normals move with x keeps its whole closure.
        """
        pieces = [leaf.domain(self.domain_dim, self.cone.dim) for leaf in self.leaves]
        return [p for p in pieces if p is not None and not p.is_empty]

    def leaves_at(self, x0: Vec) -> list[Leaf]:
        """L(x0): the leaves whose nonempty region has x0 in its closure.
        Near x0, f equals one of their bodies on that body's region."""
        return [leaf for leaf in self.leaves if leaf.region.closure.contains(x0) and not leaf.region.is_empty]

    # -- exact box certificates (constant-normal affine branches) ------------

    def box_value_intersection(self, x0: Vec, radius: Fraction) -> Optional[Polyhedron]:
        """Exact polyhedron contained in every f(x), x in the box around x0.

        Available when the region of a single leaf with a polyhedral graph
        holds the whole box, that is, its corners (``Leaf.inner``); otherwise
        None, and the caller falls back to sampled intersections.
        """
        corners = list(itertools.product(*((c - radius, c + radius) for c in x0)))
        leaf = next((leaf for leaf in self.leaves if all(map(leaf.region.contains, corners))), None)
        return None if leaf is None else leaf.inner(x0, radius, self.cone.dim)


# -- graph interior ------------------------------------------------------------


def graph_interior_witness(f: SetValuedMap, x0) -> Verdict:
    """Whether some (x0, z) is interior to gr f, read exactly at x0.

    Near x0, gr f is the union of the graphs of the leaves at x0, each over
    its own region, and each row n(x).z >= b(x) is continuous in (x, z).
    Rows strict at (x0, z) stay strict near it, so (x0, z) is interior.
    Conversely, if a z-ball lies in every value near x0, letting x approach
    x0 inside each leaf's region puts the ball in the leaf's rows at x0, so
    in one choice of base pieces' (finitely many closed sets that cover a
    ball leave one with interior), and a row that holds on a ball is strict
    inside it unless its normal vanishes, which ``Leaf.interior_rows``
    reads apart.  So the entry holds iff one choice has a ``Region.point``,
    the witness z.  Re-check it by evaluation: for some k, every f(x),
    x = x0 and x0 +- 2^-k e_i, holds the corners of z's l-inf box of
    radius 2^-k.  An oracle base has no rows: alone at x0, with
    alpha(x0) > 0 under a cone with interior, alpha(x0) (a + c) is interior
    for the first grid member a of the base and c = ``cone.generator_sum``;
    elsewhere it is undecided.
    """
    x0 = vec(x0)
    v0 = f.evaluate(x0)
    if v0.is_empty:
        return Verdict.fails(Witness(x=x0, detail="value at the point is empty"), note="x0 outside dom f")
    if v0.is_polyhedral and max(p.affine_dim for p in v0.pieces) < f.cone.dim:
        return Verdict.fails(Witness(x=x0, detail="value has empty interior (low affine dimension)"))
    # x0 lies in the closure of a nonempty region where the map is
    # constant-empty, so every x-ball around x0 meets empty values.
    if any(leaf.empty and leaf.region.closure.contains(x0) and not leaf.region.is_empty for leaf in f.leaves):
        return Verdict.fails(Witness(x=x0, detail="empty values on one side of the guard"))
    leaves = f.leaves_at(x0)
    ways = [leaf.interior_rows(x0, f.cone) for leaf in leaves]
    if [] not in ways and None in ways:
        z = _oracle_interior_point(f, leaves, x0)
        if z is None:
            return Verdict.inconclusive(note="a leaf at x0 has no strict rows to read")
        return Verdict.holds(witness=Witness(x=x0, z=z), note="oracle base scaled at an interior cone point")
    # Here a [] way leaves no choice, whatever an undecided leaf gives.
    for choice in itertools.product(*(way or () for way in ways)):
        rows = [row for way in choice for row in way]
        z = Region(Polyhedron(f.cone.dim, rows), (True,) * len(rows)).point()
        if z is not None:
            return Verdict.holds(witness=Witness(x=x0, z=z), note="strict on every row at x0")
    return Verdict.fails(Witness(x=x0, detail="no z is strict on the rows of every leaf at x0"))


def _oracle_interior_point(f: SetValuedMap, leaves: list[Leaf], x0: Vec) -> Optional[Vec]:
    """alpha(x0) (a + c) for an oracle base alone at x0, or None."""
    b, grid = leaves[0].body, [Fraction(k) for k in (0, 1, 2, -1, -2, 4)]
    if len(leaves) > 1 or not isinstance(b, ScaledBody) or (a := b.alpha(x0)) <= 0 or not f.cone.has_interior:
        return None
    p = next((p for p in itertools.product(grid, repeat=f.cone.dim) if member(b.base, p)), None)
    return None if p is None else tuple(a * (c + g) for c, g in zip(p, f.cone.generator_sum))


# -- JSON fixture schema --------------------------------------------------------
#
# A map is its cone's generators, its domain dimension, an optional name and
# its guard tree, one object per body tagged by "kind".  Every number goes
# through ``linalg.to_json`` / ``from_json``, exact strings like "3/7".  A
# scaled base is polyhedral, given by its pieces' rows, or the parabola of
# ``sets.parabola_upper_set``; no other oracle has a JSON form.


def body_to_json(body: Body):
    if isinstance(body, AffineBody):
        out = {
            "kind": "affine_halfspace",
            "normals": to_json(body.normals),
            "offsets": to_json(body.offsets),
            "x_coeffs": to_json(body.x_coeffs),
        }
        if body.x_normals is not None:
            out["x_normals"] = to_json(body.x_normals)
        return out
    if isinstance(body, ScaledBody):
        if body.base.is_polyhedral:
            base = {"kind": "polyhedral", "pieces": to_json([p.rows for p in body.base.pieces])}
        elif isinstance(body.base.oracle, ParabolaOracle):
            base = {"kind": "parabola"}
        else:
            raise MapError(f"no JSON form for oracle {type(body.base.oracle).__name__}")
        alpha = {"coeffs": to_json(body.alpha.coeffs), "const": to_json(body.alpha.const)}
        return {"kind": "scaled_base", "base": base, "alpha": alpha}
    return {
        "kind": "piecewise",
        "guard": to_json(body.guard),
        "when_true": body_to_json(body.when_true),
        "when_false": body_to_json(body.when_false),
    }


def body_from_json(data, cone: Cone):
    kind = data["kind"]
    if kind == "affine_halfspace":
        return AffineBody(
            normals=_rows(data["normals"]),
            offsets=vec(from_json(data["offsets"])),
            x_coeffs=_rows(data["x_coeffs"]),
            x_normals=tuple(map(_rows, data["x_normals"])) if "x_normals" in data else None,
        )
    if kind == "scaled_base":
        base_data = data["base"]
        if base_data["kind"] == "parabola":
            base = parabola_upper_set(cone)
        else:
            pieces = [Polyhedron(cone.dim, rows) for rows in from_json(base_data["pieces"])]
            base = UpperSet(cone, pieces=pieces)
        alpha = AffineForm.of(from_json(data["alpha"]["coeffs"]), from_json(data["alpha"]["const"]))
        return ScaledBody(base, alpha)
    if kind == "piecewise":
        return PiecewiseBody(
            from_json(data["guard"]),
            body_from_json(data["when_true"], cone),
            body_from_json(data["when_false"], cone),
        )
    raise MapError(f"unknown body kind {kind!r}")


def _rows(data) -> Mat:
    """Rows of rationals: ``vec`` refuses an infinity that ``from_json`` reads."""
    return tuple(map(vec, from_json(data)))


def map_to_json(f: SetValuedMap):
    out = {
        "cone": {"dim": f.cone.dim, "generators": to_json(f.cone.generators)},
        "domain_dim": f.domain_dim,
        "body": body_to_json(f.body),
    }
    if f.name:
        out["name"] = f.name
    return out


def map_from_json(data) -> SetValuedMap:
    cone = Cone.from_generators(from_json(data["cone"]["generators"]))
    body = body_from_json(data["body"], cone)
    return SetValuedMap(
        domain_dim=data["domain_dim"],
        cone=cone,
        body=body,
        name=data.get("name", ""),
    )
