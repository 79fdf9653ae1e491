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

A map flattens its guard tree once into ``SetValuedMap.leaves``: one
``Leaf`` per affine or scaled body, whose region is the guard rows on its
path (a false side negated and flagged strict).  The regions partition R^n
(the critical regions of multiparametric LP).  Each leaf answers for its own
kind, and no other module tells the kinds apart.  A constant-normal affine
leaf's graph is one polyhedron (Robinson 1981), read three ways: projected
for the domain, and row by row at its worst over an x-box or a product box
for the box certificates; the closed-form scalarizations project it too.

Every constructor instance evaluates to a value in the lattice; an affine
value whose row normal leaves the positive dual cone is rejected when it is
evaluated.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

from .geometry import Cone, Polyhedron, dual_cone, project_out, strict_point
from .linalg import (
    ZERO,
    Constraint,
    HashedVec,
    Mat,
    Vec,
    dot,
    format_scalar,
    frac,
    norm1,
    parse_scalar,
    vec,
)
from .sets import UpperSet, member, scale
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
    """One leaf of a guard tree: ``body`` gives the value on the region
    {x : g.x >= h for every row (g, h)}, with > on the rows flagged strict.
    Its answers read ``graph_rows`` where it has a graph, else its body."""

    def __init__(self, rows: tuple[Constraint, ...], strict: tuple[bool, ...], body: AffineBody | ScaledBody):
        self.rows = rows
        self.strict = strict
        self.body = body

    def contains_box(self, x0: Vec, r: Fraction = ZERO) -> bool:
        """Whether the l-inf box of radius r around x0 lies in the region;
        with r = 0, whether x0 does."""
        for (g, h), st in zip(self.rows, self.strict):
            low = dot(g, x0) - r * norm1(g)
            if low < h or (st and low == h):
                return False
        return True

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
        rows = b.rows_at(x)
        dual = dual_cone(cone)
        for n, _ in rows:
            if not dual.contains(tuple(-c for c in n)):
                msg = f"value is not upper closed at this point: normal {n} leaves the positive dual cone"
                raise MapError(msg)
        return UpperSet(cone, pieces=[Polyhedron(cone.dim, rows)])

    def domain(self, n: int, m: int) -> Optional[Polyhedron]:
        """Where the value is nonempty in the region, x in R^n and z in R^m:
        the graph cut by the region, projected onto x.  None when the leaf
        is empty throughout; a tilting leaf keeps its whole region."""
        b, region = self.body, list(self.rows)
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

    def holds_box(self, x0: Vec, z0: Vec, r: Fraction) -> bool:
        """Whether every value over the l-inf box of radius r around x0
        contains the l-inf box of radius r around z0."""
        b = self.body
        if self.graph_rows is not None:
            xz = (*x0, *z0)
            return all(dot(a, xz) - r * norm1(a) >= q for a, q in self.graph_rows)
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


def _body_leaves(
    body: Body, region_rows: tuple[Constraint, ...] = (), strict: tuple[bool, ...] = ()
) -> Iterator[Leaf]:
    """The leaves of the guard tree, true branch first: the true branch's
    region gains the guard row, the false branch's its negation, which holds
    strictly there (g.x < h)."""
    if isinstance(body, PiecewiseBody):
        g, h = body.guard
        yield from _body_leaves(body.when_true, (*region_rows, (g, h)), (*strict, False))
        yield from _body_leaves(body.when_false, (*region_rows, (tuple(-c for c in g), -h)), (*strict, True))
    else:
        yield Leaf(region_rows, strict, body)


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
        self.leaves = tuple(_body_leaves(body))
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
        value = next(leaf for leaf in self.leaves if leaf.contains_box(xv)).value(xv, self.cone)
        self._value_cache[key] = value
        return value

    # -- domain --------------------------------------------------------------

    def domain_pieces(self) -> list[Polyhedron]:
        """Nonempty closed polyhedra whose union contains dom f = {x : f(x)
        nonempty}, at most one per leaf of the guard tree.

        Each leaf's region is closed, so the union may also contain points
        on a guard's boundary where the true branch is empty; a branch whose
        normals move with x keeps its whole region.
        """
        pieces = [leaf.domain(self.domain_dim, self.cone.dim) for leaf in self.leaves]
        return [p for p in pieces if p is not None and not p.is_empty]

    # -- exact box certificates (constant-normal affine branches) ------------

    def box_value_intersection(self, x0: Vec, radius: Fraction) -> Optional[Polyhedron]:
        """Exact polyhedron contained in every f(x), x in the box around x0.

        Available when the region of a single leaf with a polyhedral graph
        holds the whole box (``Leaf.inner``); otherwise None, and the caller
        falls back to sampled intersections.
        """
        leaf = next((leaf for leaf in self.leaves if leaf.contains_box(x0, radius)), None)
        return None if leaf is None else leaf.inner(x0, radius, self.cone.dim)


# -- graph interior ------------------------------------------------------------


def _box_in_graph(f: SetValuedMap, x0: Vec, z0: Vec, r: Fraction) -> bool:
    """Exact check that box(x0, r) x box(z0, r) lies inside the graph of f:
    every leaf of the guard tree whose region (strict on false sides) meets
    the x-box must contain the box.  A leaf whose region misses the x-box
    cannot matter, even where the box straddles one of its guards."""
    box = Polyhedron.box([(c - r, c + r) for c in x0]).rows
    return all(
        leaf.holds_box(x0, z0, r)
        for leaf in f.leaves
        if strict_point(f.domain_dim, [*leaf.rows, *box], (*leaf.strict,) + (False,) * len(box)) is not None
    )


def graph_interior_witness(f: SetValuedMap, x0) -> Verdict:
    """Searches for (z0, r), r = 2^-k for k = 0..8, with a product box around
    (x0, z0) inside gr f."""
    x0 = vec(x0)
    radii = [Fraction(1, 2**k) for k in range(0, 9)]
    v0 = f.evaluate(x0)
    if v0.is_empty:
        return Verdict.fails(
            Witness(x=x0, detail="value at the point is empty"), note="x0 outside dom f"
        )
    if v0.is_polyhedral:
        piece_dims = [p.affine_dim for p in v0.pieces]
        if max(piece_dims) < f.cone.dim:
            return Verdict.fails(
                Witness(x=x0, detail="value has empty interior (low affine dimension)"),
            )
    # Exact failure: x0 lies in the closure of a nonempty region where the
    # map is constant-empty, so every x-ball around x0 meets empty values.
    for leaf in f.leaves:
        if (
            leaf.empty
            and all(dot(g, x0) >= h for g, h in leaf.rows)
            and strict_point(f.domain_dim, leaf.rows, leaf.strict) is not None
        ):
            return Verdict.fails(
                Witness(x=x0, detail="empty values on one side of the guard"),
            )
    candidates = _interior_candidates(f, x0, radii[0])
    for z0 in candidates:
        for r in radii:
            if _box_in_graph(f, x0, z0, r):
                return Verdict.holds(
                    witness=Witness(x=x0, z=z0, radius=r),
                    note="product box certified inside the graph",
                )
    return Verdict.inconclusive(
        note="no interior witness found among candidates", resolution=len(radii)
    )


def _interior_candidates(f: SetValuedMap, x0: Vec, r: Fraction) -> list[Vec]:
    out: list[Vec] = []
    samples = [x0]
    for i in range(f.domain_dim):
        for s in (r, -r):
            samples.append(tuple(x0[j] + (s if j == i else 0) for j in range(f.domain_dim)))
    stacked: list[Constraint] = []
    polyhedral = True
    for x in samples:
        v = f.evaluate(x)
        if v.is_empty or not v.is_polyhedral:
            polyhedral = False
            break
        for p in v.pieces:
            stacked.extend(p.rows)
    if polyhedral:
        ip = _inner_point(Polyhedron(f.cone.dim, stacked))
        if ip is not None:
            out.append(ip)
    v0 = f.evaluate(x0)
    if not v0.is_polyhedral:
        # Grid members of f(x0), each nudged up along an interior cone
        # direction, when the cone has one.
        bump = tuple(map(sum, zip(*f.cone.generators))) if f.cone.has_interior else None
        grid = [Fraction(k) for k in (0, 1, 2, -1, -2, 4)]
        for p in itertools.product(grid, repeat=f.cone.dim):
            if member(v0, p):
                out.append(p)
                if bump is not None:
                    out.append(tuple(a + b for a, b in zip(p, bump)))
    elif not out:
        out += [ip for ip in map(_inner_point, v0.pieces) if ip is not None]
    return list(dict.fromkeys(out))


def _inner_point(p: Polyhedron) -> Optional[Vec]:
    """An interior point of p; the origin where p is the whole space, with
    no nonzero row normal, and ``interior_point`` has no margin to grow."""
    if any(any(n) for n, _ in p.rows):
        return p.interior_point()
    return None if p.is_empty else (ZERO,) * p.dim


# -- JSON fixture schema --------------------------------------------------------


def body_to_json(body: Body):
    if isinstance(body, AffineBody):
        out = {
            "kind": "affine_halfspace",
            "normals": [[format_scalar(c) for c in n] for n in body.normals],
            "offsets": [format_scalar(b) for b in body.offsets],
            "x_coeffs": [[format_scalar(c) for c in l] for l in body.x_coeffs],
        }
        if body.x_normals is not None:
            out["x_normals"] = [
                [[format_scalar(c) for c in v] for v in per_row] for per_row in body.x_normals
            ]
        return out
    if isinstance(body, ScaledBody):
        if not body.base.is_polyhedral:
            from .corpus import ParabolaOracle

            if not isinstance(body.base.oracle, ParabolaOracle):
                raise MapError(
                    f"no JSON form for oracle {type(body.base.oracle).__name__}"
                )
            base = {"kind": "parabola"}
        else:
            base = {
                "kind": "polyhedral",
                "pieces": [
                    [[[format_scalar(c) for c in n], format_scalar(b)] for n, b in p.rows]
                    for p in body.base.pieces
                ],
            }
        return {
            "kind": "scaled_base",
            "base": base,
            "alpha": {
                "coeffs": [format_scalar(c) for c in body.alpha.coeffs],
                "const": format_scalar(body.alpha.const),
            },
        }
    return {
        "kind": "piecewise",
        "guard": [[format_scalar(c) for c in body.guard[0]], format_scalar(body.guard[1])],
        "when_true": body_to_json(body.when_true),
        "when_false": body_to_json(body.when_false),
    }


def body_from_json(data, cone: Cone):
    kind = data["kind"]
    if kind == "affine_halfspace":
        x_normals = None
        if "x_normals" in data:
            x_normals = tuple(
                tuple(vec([parse_scalar(c) for c in v]) for v in per_row)
                for per_row in data["x_normals"]
            )
        return AffineBody(
            normals=tuple(vec([parse_scalar(c) for c in n]) for n in data["normals"]),
            offsets=vec([parse_scalar(b) for b in data["offsets"]]),
            x_coeffs=tuple(vec([parse_scalar(c) for c in l]) for l in data["x_coeffs"]),
            x_normals=x_normals,
        )
    if kind == "scaled_base":
        base_data = data["base"]
        if base_data["kind"] == "parabola":
            from .corpus import parabola_upper_set

            base = parabola_upper_set(cone)
        else:
            pieces = [
                Polyhedron(
                    cone.dim,
                    [(vec([parse_scalar(c) for c in n]), parse_scalar(b)) for n, b in rows],
                )
                for rows in base_data["pieces"]
            ]
            base = UpperSet(cone, pieces=pieces)
        alpha = AffineForm(
            vec([parse_scalar(c) for c in data["alpha"]["coeffs"]]),
            parse_scalar(data["alpha"]["const"]),
        )
        return ScaledBody(base, alpha)
    if kind == "piecewise":
        guard = (
            vec([parse_scalar(c) for c in data["guard"][0]]),
            parse_scalar(data["guard"][1]),
        )
        return PiecewiseBody(
            guard,
            body_from_json(data["when_true"], cone),
            body_from_json(data["when_false"], cone),
        )
    raise MapError(f"unknown body kind {kind!r}")


def map_to_json(f: SetValuedMap):
    out = {
        "cone": {
            "dim": f.cone.dim,
            "generators": [[format_scalar(c) for c in g] for g in f.cone.generators],
        },
        "domain_dim": f.domain_dim,
        "body": body_to_json(f.body),
    }
    if f.name:
        out["name"] = f.name
    return out


def map_from_json(data) -> SetValuedMap:
    cone = Cone.from_generators(
        [vec([parse_scalar(c) for c in g]) for g in data["cone"]["generators"]]
    )
    body = body_from_json(data["body"], cone)
    return SetValuedMap(
        domain_dim=data["domain_dim"],
        cone=cone,
        body=body,
        name=data.get("name", ""),
    )
